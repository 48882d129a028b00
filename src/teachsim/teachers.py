"""Teaching strategies for the random-access (supervised) setting.

Noisy teachers deliver an unordered collection of samples and may issue a
stop once the relevant empirical means are close enough to the truth;
their fixed-budget counterparts always deliver the full Hoeffding budget
so that any consistent learner is served.

Every noisy teacher describes itself as a list of blocks of samples and
runs through one kernel, :func:`_teach_blocks`. A stopping teacher draws
its samples as it teaches, because its stop depends on them. A
fixed-budget teacher's step count depends on no draw, so it skips its
budget in the stream and draws it only when its collection is read.
Either way the collection is built on first read, and the collection and
the stream position are exactly those of drawing everything up front, so
every seeded output is unchanged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .concepts import (
    BanditConcept,
    BernoulliConcept,
    DbnConcept,
    MonotoneConjunction,
)
from .core import (
    AccuracyParams,
    RandomSource,
    Sample,
    TeachingCollection,
    hoeffding_samples,
)

COIN_INPUT = "coin"

COIN_STRATEGIES = ("NTD", "NSTD")
BANDIT_STRATEGIES = ("NTD-IND", "NSTD-IND", "NTD-PAR", "NSTD-PAR")
DBN_STRATEGIES = ("NTD", "NSTD-PAR", "NSTD-IND")

# rows in a stopping teacher's first chunk of draws; each later chunk is
# twice the one before
_FIRST_CHUNK = 64

# uniforms in a chunk of a fixed budget, drawn when its collection is read
# (8 MB of float64); the default experiments' budgets fit in one
_BUDGET_CHUNK = 1 << 20

# the most elements a numpy array can index
_INDEX_MAX = np.iinfo(np.int64).max


class UnteachablePlanError(ValueError):
    """The DBN is not a shift register, or not one of the environment's
    width, so the teachers' probes would not exercise every condition they
    must teach."""


class TeachingOutcome:
    """Result of one teaching episode.

    ``steps`` is the protocol's step count as plotted (individual samples,
    or parallel pulls/probes for the PAR strategies); ``samples`` is the
    total multiplicity of the delivered collection. The two coincide for
    individual strategies.

    An outcome made by :meth:`deferred` builds its ``collection`` on the
    first read and keeps it: stopping teachers from the outcome rows they
    drew, fixed-budget teachers by drawing their budget then from a copy
    of the stream saved where it started. The collection is the one
    drawing everything up front would have delivered.
    """

    __slots__ = ("steps", "samples", "stopped_early", "per_condition_steps",
                 "_collection", "_build")

    def __init__(self, collection: TeachingCollection | None, steps: int,
                 samples: int, stopped_early: bool,
                 per_condition_steps: dict | None = None):
        self._collection = collection
        self._build = None
        self.steps = steps
        self.samples = samples
        self.stopped_early = stopped_early
        self.per_condition_steps = {} if per_condition_steps is None else per_condition_steps

    @classmethod
    def deferred(cls, build: Callable[[], TeachingCollection], **fields) -> "TeachingOutcome":
        """An outcome whose collection is ``build()``, called on first read."""
        outcome = cls(None, **fields)
        outcome._build = build
        return outcome

    @property
    def collection(self) -> TeachingCollection:
        if self._collection is None:
            self._collection = self._build()
            self._build = None
        return self._collection


@dataclass(frozen=True)
class StopRule:
    """The noisy teachers' budget and stop test: a teacher may stop once
    the empirical mean of every condition it teaches is within
    ``half_width`` of the truth (inclusive, the target interval is closed),
    and must stop at ``cap`` samples."""

    half_width: float
    cap: int

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise ValueError("half_width must be positive")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")

    @classmethod
    def hoeffding(cls, params: AccuracyParams) -> "StopRule":
        """Half-width epsilon/2 and a cap of the Hoeffding budget."""
        return cls(params.epsilon / 2.0, hoeffding_samples(params))

    def satisfied(self, empirical_mean: float, truth: float) -> bool:
        return abs(empirical_mean - truth) <= self.half_width

    def _scan(self, outcomes: np.ndarray, truths, held: tuple) -> tuple[int | None, np.ndarray]:
        """The length of the first prefix of ``outcomes`` whose running
        means are all within the band, or None if no prefix is, and the
        (columns, rows) running successes of the block alone."""
        count, heads = held
        counts = np.arange(count + 1, count + len(outcomes) + 1, dtype=np.float64)
        # one pass over the transposed block: running sums along its
        # contiguous rows, then the band reduced across all columns at
        # once. The sums are whole numbers in float64, exact, so each mean
        # rounds as the integer quotient would.
        cums = np.cumsum(np.ascontiguousarray(outcomes.T), axis=1, dtype=np.float64)
        means = (cums + np.asarray(heads)[:, None] if count else cums) / counts
        means -= np.asarray(truths)[:, None]
        in_band = np.abs(means, out=means) <= self.half_width
        all_in = np.logical_and.reduce(in_band, axis=0)
        idx = int(np.argmax(all_in))
        return (idx + 1 if all_in[idx] else None), cums

    def stop(self, outcomes: np.ndarray, truths: Sequence[float],
             held: tuple = (0, 0)) -> tuple[int, list[int]]:
        """Scan draws for the stop: ``outcomes`` has one row per draw and
        one 0/1 column per condition, ``truths`` one true mean per column,
        and ``held`` the (count, successes per column) drawn before them.
        Returns the length of the first prefix whose running means are all
        within the band, or every row if none is, and each column's
        successes among the rows taken."""
        taken, cums = self._scan(outcomes, truths, held)
        if taken is None:
            taken = len(outcomes)
        return taken, cums[:, taken - 1].astype(np.int64).tolist()

    def draw(self, rng: RandomSource, probs: np.ndarray, rows: int,
             cols: Sequence[int] | None = None,
             held: tuple = (0, 0)) -> tuple[int, np.ndarray]:
        """Draw up to ``rows`` rows of outcomes, column ``j`` a success
        with probability ``probs[j]``, until the stop on the columns
        ``cols`` (all by default), whose truths are their ``probs``;
        ``held`` is as for :meth:`stop`, per column of ``cols``.

        Rows come in chunks of 64, then twice the chunk before, each
        scanned with the counts of the chunks before it. After the stop
        the stream skips the rest of the ``rows``, so it ends where one
        full (rows, columns) draw would have left it. Returns the rows
        taken and their (taken, columns) boolean outcomes.
        """
        width = len(probs)
        truths = probs if cols is None else probs[cols]
        count, heads = held
        chunks = []
        drawn, size = 0, _FIRST_CHUNK
        while drawn < rows:
            chunk = rng.random_block((min(size, rows - drawn), width)) < probs
            drawn += len(chunk)
            taken, cums = self._scan(chunk if cols is None else chunk[:, cols],
                                     truths, (count, heads))
            if taken is not None:
                chunks.append(chunk[:taken])
                rng.skip((rows - drawn) * width)
                break
            chunks.append(chunk)
            count += len(chunk)
            heads = np.asarray(heads) + cums[:, -1]
            size *= 2
        outcomes = np.concatenate(chunks)
        return len(outcomes), outcomes


def _canon(strategy: str, allowed: tuple[str, ...]) -> str:
    s = strategy.strip().upper()
    if s not in allowed:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {allowed}")
    return s


# ---------------------------------------------------------------------------
# monotone conjunctions


def teach_conjunction_td(c: MonotoneConjunction) -> list[Sample]:
    """Teaching list for any consistent learner: the most specific positive
    example (exactly the relevant variables set), then one negative per
    relevant variable with that variable alone flipped to 0."""
    positive = tuple(1 if i in c.relevant else 0 for i in range(c.n))
    samples = [Sample(positive, 1)]
    for i in sorted(c.relevant):
        x = tuple(0 if j == i else positive[j] for j in range(c.n))
        samples.append(Sample(x, 0))
    return samples


def teach_conjunction_std(c: MonotoneConjunction) -> Sample:
    """Single-example teaching for a learner that knows it has an optimal
    teacher: just the most specific positive example."""
    positive = tuple(1 if i in c.relevant else 0 for i in range(c.n))
    return Sample(positive, 1)


def std_infer(sample: Sample) -> MonotoneConjunction:
    """Inference rule paired with :func:`teach_conjunction_std`: the taught
    conjunction's relevant set is exactly the 1-bits of the positive
    example. A negative example is a protocol violation."""
    if sample.label != 1:
        raise ValueError("the single-example protocol only ever shows a positive")
    x = sample.input
    return MonotoneConjunction(len(x), frozenset(i for i, v in enumerate(x) if v == 1))


# ---------------------------------------------------------------------------
# the noisy supervised teachers' one kernel


def _teach_blocks(rule: StopRule, rng: RandomSource, blocks: list,
                  stopping: bool) -> TeachingOutcome:
    """Teach block by block. A block ``(probe, probs, conds, cols)`` draws
    one row per step, column ``j`` a success with probability ``probs[j]``
    and a sample of condition ``conds[j]``; its stop watches the columns
    ``cols`` (None for all), whose truths are their ``probs``. Each
    watched condition's steps are its block's rows.

    A stopping teacher draws each block now, until the rule's stop or the
    cap, counting the draws that earlier blocks made of its watched
    conditions (which those blocks all saw alike, so they share one
    count). A block whose watched conditions are already at the cap or in
    the band draws nothing. A fixed-budget teacher skips the cap of rows
    of every block and draws them, when the collection is read, from a
    copy of the stream saved where they start, in chunks of about
    ``_BUDGET_CHUNK`` uniforms. A budget that one array could not index
    raises ``ValueError`` before anything is drawn."""
    if stopping:
        # the last block that watches each condition: a block counts its
        # successes only for a condition that a later block watches
        last = {cond: b for b, (_, _, conds, cols) in enumerate(blocks)
                for cond in (conds if cols is None else [conds[j] for j in cols])}
    else:
        start = rng.copy()
        rng.skip(rule.cap * sum(len(probs) for _, probs, _, _ in blocks))
    held: dict = {}  # condition -> (count, successes)
    drawn, per_condition = [], {}
    steps = samples = 0
    for b, (probe, probs, conds, cols) in enumerate(blocks):
        watched = conds if cols is None else [conds[j] for j in cols]
        rows = rule.cap
        if stopping:
            count, heads = 0, 0
            if held:
                seen = [held.get(cond, (0, 0)) for cond in watched]
                count, heads = seen[0][0], [hits for _, hits in seen]
                truths = probs if cols is None else probs[cols]
                if count >= rule.cap or count and all(
                        rule.satisfied(hits / count, t) for hits, t in zip(heads, truths)):
                    rows = 0
            if rows:
                rows, outcomes = rule.draw(rng, probs, rule.cap - count, cols, (count, heads))
                drawn.append((probe, conds, [outcomes]))
                for j, cond in enumerate(conds):
                    if last.get(cond, b) > b:
                        had, hits = held.get(cond, (0, 0))
                        held[cond] = (had + rows, hits + int(np.count_nonzero(outcomes[:, j])))
        steps += rows
        samples += rows * len(probs) if probe is None else rows
        for cond in watched:
            per_condition[cond] = rows
    if stopping:
        collect = lambda: _collected(drawn)
    else:
        def collect():
            widest = max(len(probs) for _, probs, _, _ in blocks)
            if rule.cap * widest > _INDEX_MAX:
                raise ValueError(f"the fixed budget, {rule.cap:.3g} rows of {widest} "
                                 "uniforms, is past numpy's int64 index range")
            return _collected([(probe, conds, _budget_chunks(start, rule.cap, probs))
                               for probe, probs, conds, _ in blocks])
    return TeachingOutcome.deferred(
        collect, steps=steps, samples=samples,
        stopped_early=steps < rule.cap * len(blocks),
        per_condition_steps=per_condition)


def _budget_chunks(rng: RandomSource, rows: int, probs: np.ndarray):
    """The outcomes of ``rows`` rows, column ``j`` a success with
    probability ``probs[j]``, in chunks of about ``_BUDGET_CHUNK``
    uniforms: together, the rows one (rows, columns) block would hold."""
    width = len(probs)
    size = max(1, _BUDGET_CHUNK // width)
    for start in range(0, rows, size):
        yield rng.random_block((min(size, rows - start), width)) < probs


def _collected(drawn: list[tuple]) -> TeachingCollection:
    """The collection of each block's (probe, conds, chunks) outcomes,
    counted chunk by chunk. With no probe, each column adds its
    condition's successes and failures as the payouts of that input. With
    one, each row is one sample, the probe's next state: each distinct
    state, a tuple of Python ints, is added once with its count. Counting
    tuples keeps peak memory where per-row adds left it; counting the rows
    as bytes or packed ints was faster but raised it."""
    collection = TeachingCollection()
    for probe, conds, chunks in drawn:
        if probe is None:
            heads, total = [0] * len(conds), 0
            for rows in chunks:
                heads = [hits + int(np.count_nonzero(column))
                         for hits, column in zip(heads, rows.T)]
                total += len(rows)
            for x, hits in zip(conds, heads):
                collection.add(x, 1, hits)
                collection.add(x, 0, total - hits)
        else:
            states: Counter = Counter()
            for rows in chunks:
                states.update(map(tuple, rows.view(np.uint8).tolist()))
            for state, count in states.items():
                collection.add(probe, state, count)
    return collection


# ---------------------------------------------------------------------------
# coins and bandits


def _coin_block(c: BernoulliConcept) -> list:
    """The coin teachers' one block: flips of the coin."""
    return [(None, np.array([c.p_star]), [COIN_INPUT], None)]


def teach_coin_ntd(c: BernoulliConcept, params: AccuracyParams,
                   rng: RandomSource) -> TeachingOutcome:
    """Flip exactly the Hoeffding budget of coins and stop. Serves any
    distribution-consistent learner, including those that refuse to
    predict before seeing the full budget."""
    return _teach_blocks(StopRule.hoeffding(params), rng, _coin_block(c), stopping=False)


def teach_coin_nstd(c: BernoulliConcept, params: AccuracyParams,
                    rng: RandomSource) -> TeachingOutcome:
    """Flip until the empirical mean is within epsilon/2 of the true bias
    (checked after every flip, boundary inclusive), capped at the Hoeffding
    budget. The delivered collection therefore satisfies the half-width
    bound unless the cap was hit."""
    return _teach_blocks(StopRule.hoeffding(params), rng, _coin_block(c), stopping=True)


def teach_bandit(strategy: str, c: BanditConcept, params: AccuracyParams,
                 rng: RandomSource) -> TeachingOutcome:
    """Teach every arm's expected payout to epsilon accuracy.

    Individual strategies pull one arm at a time, in index order; parallel
    strategies pull all arms at once, and ``steps`` then counts pulls
    while ``samples`` counts pulls times arms. The per-arm budget is the
    Hoeffding count at confidence delta/k; the stop half-width is
    epsilon/2 against the true mean.
    """
    strategy = _canon(strategy, BANDIT_STRATEGIES)
    k = c.k
    rule = StopRule.hoeffding(AccuracyParams(params.epsilon, params.delta / k))

    # individual strategies pull one arm per block, in index order;
    # parallel ones pull all arms at once, one row per pull
    means = np.array(c.means)
    blocks = ([(None, means[arm:arm + 1], [arm], None) for arm in range(k)]
              if strategy.endswith("IND") else [(None, means, list(range(k)), None)])
    return _teach_blocks(rule, rng, blocks, stopping=strategy.startswith("NSTD"))


# ---------------------------------------------------------------------------
# DBNs


def check_shift_register(c: DbnConcept) -> None:
    """Refuse a DBN that is not a shift register (see
    :func:`teachsim.concepts.bitflip_shift_concept`): factor 0 reads only
    itself and stays 0 when 0, and factor i reads (factor i-1, factor i)
    and takes factor i-1's value with some probability p, else keeps its
    own. The DBN teachers' probes expose the right factors only on such a
    register."""
    if c.parents[0] != (0,):
        raise UnteachablePlanError("factor 0 must read only its own value")
    for i in range(1, c.n):
        if c.parents[i] != (i - 1, i):
            raise UnteachablePlanError(
                f"factor {i} must read (factor {i - 1}, factor {i})")
        # the table bitflip_shift_concept builds: p + (1 - p) is 1.0 in
        # binary64 for every p in [0, 1]
        p = c.cpt[i][(1, 0)]
        if c.cpt[i] != {(0, 0): 0.0, (0, 1): 1.0 - p, (1, 0): p, (1, 1): 1.0}:
            raise UnteachablePlanError(
                f"factor {i} must take factor {i - 1}'s value or keep its own")
    if c.cpt[0][(0,)] != 0.0:
        raise UnteachablePlanError("factor 0 must stay 0 when currently 0")


def dbn_stop_rule(c: DbnConcept, params: AccuracyParams) -> StopRule:
    """The per-condition rule of a DBN teacher: accuracy epsilon/n at
    confidence delta/n**k_par, so a cap of H(epsilon/n, delta/n**k_par)
    and a half-width of epsilon/(2n)."""
    return StopRule.hoeffding(
        AccuracyParams(params.epsilon / c.n, params.delta / c.n**c.k_par))


def teach_dbn(strategy: str, c: DbnConcept, params: AccuracyParams,
              rng: RandomSource) -> TeachingOutcome:
    """Teach the stochastic conditions of a shift-register DBN by choosing
    probe states.

    NTD and NSTD-PAR probe the alternating state with factor 0 set, which
    exposes every factor at once: the odd ones at the shift-in assignment
    (1, 0), the even ones at (0, 1), which pins the same shift
    probability. NSTD-IND probes factors 1..n-1 in turn,
    each with a block of ones below it, so every other factor but 0 sits
    at a deterministic assignment; then factor 0 with all ones. Every
    probe exposes factor 0, which is why it is taught last, once its
    incidental samples usually already satisfy the stop rule.

    The fixed-budget teacher presents the cap of :func:`dbn_stop_rule`
    in probes; the stopping teachers use its epsilon/(2n) half-width
    against the true conditional probability. Deterministic concepts are
    served by :func:`teach_dbn_deterministic` instead. Each probe is one
    block of :func:`_teach_blocks`, whose rows are the probe's next states.
    """
    strategy = _canon(strategy, DBN_STRATEGIES)
    check_shift_register(c)
    n = c.n

    def block(probe: tuple[int, ...], cols: list[int] | None) -> tuple:
        """The probe's block: each factor's probability of a 1 in the
        probe's next state, and the condition at which the probe samples
        it."""
        conds = [(i, c.parent_values(i, probe)) for i in range(n)]
        return probe, np.array([c.cpt[i][a] for i, a in conds]), conds, cols

    if strategy in ("NTD", "NSTD-PAR"):
        blocks = [block(tuple(1 - i % 2 for i in range(n)), None)]
    else:
        # NSTD-IND: one condition at a time
        blocks = [block(tuple(int(i < factor) for i in range(n)), [factor])
                  for factor in range(1, n)] + [block((1,) * n, [0])]
    return _teach_blocks(dbn_stop_rule(c, params), rng, blocks,
                         stopping=strategy != "NTD")


def teach_dbn_deterministic(c: DbnConcept,
                            first_probe: tuple[int, ...] | None = None
                            ) -> TeachingOutcome:
    """Teach a deterministic single-parent DBN with two probes: any state
    and its complement, which together exercise both values of every
    parent. The learner's CPT estimate is then exact."""
    if not c.is_deterministic:
        raise ValueError("concept has stochastic conditions; use teach_dbn")
    if any(len(p) > 1 for p in c.parents):
        raise ValueError("two probes only cover single-parent factors")
    probe = first_probe if first_probe is not None else (0,) * c.n
    if len(probe) != c.n:
        raise ValueError(f"probe must have length {c.n}")
    complement = tuple(1 - v for v in probe)
    collection = TeachingCollection()
    per_condition: dict[tuple[int, tuple[int, ...]], int] = {}
    for state in (probe, complement):
        outcome = tuple(int(c.factor_prob(i, state)) for i in range(c.n))
        collection.add(state, outcome)
        for i in range(c.n):
            key = (i, c.parent_values(i, state))
            per_condition[key] = per_condition.get(key, 0) + 1
    return TeachingOutcome(
        collection=collection,
        steps=2,
        samples=2,
        stopped_early=False,
        per_condition_steps=per_condition,
    )
