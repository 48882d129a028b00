"""Teaching strategies for the random-access (supervised) setting.

Noisy teachers deliver an unordered collection of samples and may issue a
stop once the relevant empirical means are close enough to the truth;
their fixed-budget counterparts always deliver the full Hoeffding budget
so that any consistent learner is served.

Every noisy teacher describes itself as a list of blocks of samples and
runs through one kernel, :func:`_teach_blocks`, which teaches a whole
cell of trials at once. Each block owns a fixed span of its trial's
stream, and both kinds of teacher read it from the start. A stopping
teacher draws its samples as it teaches, because its stop depends on
them; the kernel draws every stopping trial of the cell together, round
by round, and decides all their stops in one scan per round. A
fixed-budget teacher's step count depends on no draw, so it skips its
budget in the stream. Either way the collection is built on first read,
by drawing the rows taken again from a copy of the stream, and the
collection and the stream position are exactly those of drawing
everything up front, so every seeded output is unchanged.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

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
    STREAM_WORDS,
    Sample,
    TeachingCollection,
    hoeffding_samples,
)

COIN_INPUT = "coin"

COIN_STRATEGIES = ("NTD", "NSTD")
BANDIT_STRATEGIES = ("NTD-IND", "NSTD-IND", "NTD-PAR", "NSTD-PAR")
DBN_STRATEGIES = ("NTD", "NSTD-PAR", "NSTD-IND")

# rows of each stopping block in the first round of draws; each later
# round draws twice the one before, up to _BUDGET_CHUNK uniforms
_FIRST_CHUNK = 64

# the most uniforms (blocks x columns x rows) of one round that one stop
# scan takes: its means, at most one float64 per uniform, fill 128 KB. A
# block whose round alone is larger is scanned alone, its round at most
# _BUDGET_CHUNK uniforms.
# Groups of 2**15 ran the bandit cells a few percent faster but raised
# the supervised benchmark's peak memory
_SCAN_GROUP = 1 << 14

# uniforms in a chunk of a block's rows, drawn when its collection is read
# (8 MB of float64); the default experiments' budgets fit in one
_BUDGET_CHUNK = 1 << 20

# the most elements a numpy array can index
_INDEX_MAX = np.iinfo(np.int64).max

# the most uniforms a collection may draw when it is read: about a minute
# of drawing
_BUDGET_MAX = 1 << 32


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

    A noisy teacher's outcome, made by :func:`_teach_blocks`, builds its
    ``collection`` on the first read and keeps it, by drawing the rows
    its trial took again from a copy of the stream saved where it
    started (see :func:`_collect`). The collection is the one drawing
    everything up front would have delivered.
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


def _scan(rule: StopRule, outcomes: np.ndarray, truths: np.ndarray, counts: np.ndarray,
          heads: np.ndarray | None = None, lengths: np.ndarray | None = None
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stops of many blocks in one pass. ``outcomes`` is (blocks,
    columns, rows) of 0/1, contiguous along rows; ``truths`` and ``heads``
    are (blocks, columns), the true means and the successes held before
    these rows (none by default); ``counts`` the rows held before, and
    ``lengths`` each block's rows (all by default). Returns, per block,
    the rows taken: those of the first prefix whose running means are all
    within the band, or all its rows if no prefix is; whether such a
    prefix was found; and each column's successes among the rows taken.
    The running sums are whole numbers, exact in float64, so each mean
    rounds as the integer quotient would."""
    blocks, _, rows = outcomes.shape
    # integer running sums along the contiguous rows cost less than
    # float ones
    cums = np.cumsum(outcomes, axis=2, dtype=np.int32)
    seen = counts[:, None, None] + np.arange(1, rows + 1, dtype=np.float64)
    if heads is None:
        means = np.divide(cums, seen)
    else:
        means = np.add(cums, heads[:, :, None])
        means /= seen
    means -= truths[:, :, None]
    in_band = np.abs(means, out=means) <= rule.half_width
    del means
    # the band reduced across all columns at once
    all_in = np.logical_and.reduce(in_band, axis=1)
    if lengths is not None:
        all_in &= np.arange(rows) < lengths[:, None]
    first = np.argmax(all_in, axis=1)
    stopped = all_in[np.arange(blocks), first]
    taken = np.where(stopped, first + 1, rows if lengths is None else lengths)
    return taken, stopped, cums[np.arange(blocks), :, taken - 1]


def _canon(strategy: str, allowed: tuple[str, ...]) -> str:
    s = strategy.strip().upper()
    if s not in allowed:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {allowed}")
    return s


def _check_cell(streams: Sequence[RandomSource], concepts: Sequence | None = None) -> None:
    """Refuse a cell of no trials, or one whose concepts and streams
    differ in number."""
    if not streams:
        raise ValueError("a cell must have at least one trial")
    if concepts is not None and len(concepts) != len(streams):
        raise ValueError(f"a cell of {len(streams)} streams needs as many concepts, "
                         f"not {len(concepts)}")


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


def _watched(block: tuple) -> list:
    """The conditions a block's stop watches."""
    _, conds, cols = block
    return conds if cols is None else [conds[j] for j in cols]


def _teach_blocks(rule: StopRule, streams: Sequence[RandomSource], blocks: list,
                  probs: list[np.ndarray], stopping: bool) -> list[TeachingOutcome]:
    """Teach a cell of trials through one list of blocks, trial ``t``
    drawing from ``streams[t]``. A block ``(probe, conds, cols)`` draws
    one row per step, column ``j`` a sample of condition ``conds[j]`` and
    in trial ``t`` a success with probability ``probs[b][t, j]``; its
    stop watches the columns ``cols`` (None for all, as every block
    without a probe does), whose truths are their probabilities. Every
    block has the same number of columns, ``width``. Each watched
    condition's steps are its block's rows. Returns the outcomes in trial
    order.

    Block ``b`` of a trial owns the stream words from ``cap * width * b``
    on, counted from where the trial's stream stood, up to the next
    block's. A fixed-budget trial takes the cap of rows of every block,
    so it skips all of them now. A stopping trial takes a prefix of each
    block, until the rule's stop or the cap, counting the draws that
    earlier blocks made of its watched conditions (which those blocks all
    saw alike, so they share one count); a block whose watched conditions
    are already at the cap or in the band draws nothing. So the blocks
    are drawn in waves, each up to the next block that carries such
    counts, and a wave is one :func:`_stop_batch` over every trial's
    blocks in it. Every stream is left where drawing each block's span in
    full, block after block, would leave it: the cap of rows, less those
    its counts hold, or none for a block that draws nothing.

    Every trial keeps a copy of its stream from where it started, and its
    collection is built on first read by :func:`_collect`."""
    starts = [rng.copy() for rng in streams]
    if stopping:
        cell = _Cell(rule, blocks, [start.position for start in starts])
        for wave in _waves(blocks):
            cell.take(streams, probs, wave)
        taken, successes = cell.taken.tolist(), cell.successes
    else:
        for rng in streams:
            rng.skip(rule.cap * len(blocks[0][1]) * len(blocks))
        taken, successes = [[rule.cap] * len(blocks)] * len(streams), None
    outcomes = []
    for t, start in enumerate(starts):
        steps = sum(taken[t])
        outcome = TeachingOutcome(
            None, steps=steps,
            samples=sum(rows * (len(conds) if probe is None else 1)
                        for rows, (probe, conds, _) in zip(taken[t], blocks)),
            stopped_early=steps < rule.cap * len(blocks),
            per_condition_steps={cond: rows for rows, block in zip(taken[t], blocks)
                                 for cond in _watched(block)})
        outcome._build = functools.partial(_collect, rule, start, blocks, probs, taken,
                                           successes, t)
        outcomes.append(outcome)
    return outcomes


def _waves(blocks: list) -> list[list[int]]:
    """The indices of the blocks in waves: a block that watches a
    condition an earlier block samples begins a new wave."""
    waves, sampled = [[]], set()
    for b, block in enumerate(blocks):
        if sampled.intersection(_watched(block)):
            waves.append([])
        waves[-1].append(b)
        sampled.update(block[1])
    return waves


class _Cell:
    """What a cell's stopping trials drew, block by block: the rows each
    (trial, block) took and each column's successes among them, as
    ``successes[t, b]``. Block ``b`` of trial ``t`` starts at word
    ``origins[t] + cap * width * b``. A cap past numpy's int64 range, or
    blocks that reach past word ``STREAM_WORDS``, raise ``ValueError``
    before anything is drawn."""

    def __init__(self, rule: StopRule, blocks: list, origins: list[int]):
        width = len(blocks[0][1])
        if rule.cap > _INDEX_MAX:
            raise ValueError(f"the cap, {rule.cap:.3g} rows, is past numpy's int64 index range")
        if max(origins) + rule.cap * width * len(blocks) > STREAM_WORDS:
            raise ValueError(f"the stream layout, {len(blocks)} blocks of {rule.cap * width:.3g} "
                             "uniforms, is past a stream's index range of 2**66 words")
        self.rule, self.blocks, self.origins = rule, blocks, origins
        self.taken = np.zeros((len(origins), len(blocks)), dtype=np.int64)
        self.successes = np.zeros((len(origins), len(blocks), len(blocks[0][1])),
                                  dtype=np.int64)

    def take(self, streams: Sequence[RandomSource], probs: list[np.ndarray],
             wave: list[int]) -> None:
        """Draw a wave's blocks in every trial, as one stop batch. Only
        the wave's first block can carry counts from earlier blocks, and
        it draws nothing in a trial whose watched conditions are already
        at the cap or in the band."""
        rule, first = self.rule, self.blocks[wave[0]]
        count, heads = self._held(wave[0])
        truths = probs[wave[0]] if first[2] is None else probs[wave[0]][:, first[2]]
        with np.errstate(invalid="ignore", divide="ignore"):
            done = (count >= rule.cap) | (count > 0) & np.all(
                np.abs(heads / count[:, None] - truths) <= rule.half_width, axis=1)
        # the items in trial order, each trial's in block order
        trial, pos = np.divmod(np.arange(len(streams) * len(wave)), len(wave))
        draws = ~((pos == 0) & done[trial])
        trial, pos = trial[draws], pos[draws]
        block = np.array(wave)[pos]
        carries = pos == 0
        width = probs[wave[0]].shape[1]
        cols = [self.blocks[b][2] for b in wave]
        taken, successes = _stop_batch(
            rule, streams, trial.tolist(),
            [self.origins[t] + rule.cap * width * b
             for t, b in zip(trial.tolist(), block.tolist())],
            np.stack([probs[b] for b in wave], axis=1)[trial, pos],
            None if cols == [None] * len(wave)
            else np.array([range(width) if c is None else c for c in cols])[pos],
            np.where(carries, rule.cap - count[trial], rule.cap),
            np.where(carries, count[trial], 0), np.where(carries[:, None], heads[trial], 0))
        self.taken[trial, block] = taken
        self.successes[trial, block] = successes

    def _held(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """Per trial, the rows that the blocks before ``b`` drew of its
        first watched condition, and each watched condition's successes
        among them."""
        watched = _watched(self.blocks[b])
        count = np.zeros(len(self.taken), dtype=np.int64)
        heads = np.zeros((len(self.taken), len(watched)), dtype=np.int64)
        for earlier in range(b):
            conds = self.blocks[earlier][1]
            for w, cond in enumerate(watched):
                if cond in conds:
                    heads[:, w] += self.successes[:, earlier, conds.index(cond)]
            if watched[0] in conds:
                count += self.taken[:, earlier]
        return count, heads


def _stop_batch(rule: StopRule, streams: Sequence[RandomSource], trials: list[int],
                firsts: list[int], probs: np.ndarray, cols: np.ndarray | None,
                rows: np.ndarray, counts: np.ndarray, held: np.ndarray) -> tuple:
    """Draw items until each one's stop or its rows. Item ``i`` draws at
    most ``rows[i]`` rows from stream ``trials[i]``, from word
    ``firsts[i]`` on, column ``j`` a success with probability
    ``probs[i, j]``, and stops on its columns ``cols[i]`` (all when
    ``cols`` is None), with ``counts[i]`` rows and ``held[i]`` successes
    per watched column held from before. Each item spans the full (rows,
    columns) of its draws. A stream's items come in the order they lie,
    and it is left at the end of its last one's span, as one full draw
    of each would leave it.

    Round ``r`` draws ``_FIRST_CHUNK * 2**r`` rows, but no more than
    ``_BUDGET_CHUNK`` uniforms (or the rows left), of every item still
    drawing, each from its stream at the item's next word, reading each
    stream's items in order. The rounds' draws are scanned in groups of
    about ``_SCAN_GROUP`` uniforms, each item with the rows and successes
    it holds from before. An item that stops or reaches its rows leaves
    the batch. Returns each item's rows taken and every column's
    successes among them."""
    width = probs.shape[1]
    truths = probs if cols is None else np.take_along_axis(probs, cols, axis=1)
    held = held.astype(np.float64)
    heads = held.copy()  # the successes held and drawn
    taken = np.zeros(len(trials), dtype=np.int64)
    # with some columns unwatched, every column's successes are counted apart
    every = None if cols is None else np.zeros((len(trials), width), dtype=np.int64)
    most = max(1, _BUDGET_CHUNK // width)
    active, size = np.arange(len(trials)), min(_FIRST_CHUNK, most)
    while active.size:
        per_scan = max(1, _SCAN_GROUP // (width * size))
        going = []
        for first in range(0, active.size, per_scan):
            group = active[first:first + per_scan]
            lengths = np.minimum(rows[group] - taken[group], size)
            length = int(lengths.max())
            outcomes = np.zeros((len(group), length, width), dtype=bool)
            for i, (j, n, done) in enumerate(zip(group.tolist(), lengths.tolist(),
                                                 taken[group].tolist())):
                rng = streams[trials[j]]
                rng.seek(firsts[j] + done * width)
                np.less(rng.random_block((n, width)), probs[j], out=outcomes[i, :n])
            watched = (outcomes if cols is None else
                       np.take_along_axis(outcomes, cols[group][:, None, :], axis=2))
            before = heads[group]
            used, stopped, successes = _scan(
                rule, np.ascontiguousarray(watched.transpose(0, 2, 1)), truths[group],
                counts[group] + taken[group], before if before.any() else None,
                None if lengths.min() == length else lengths)
            heads[group] = before + successes
            taken[group] += used
            if every is not None:
                outcomes &= (np.arange(length) < used[:, None])[:, :, None]
                every[group] += np.count_nonzero(outcomes, axis=1)
            going.append(group[~stopped & (taken[group] < rows[group])])
        active, size = np.concatenate(going), min(size * 2, most)
    for t, first, n in zip(trials, firsts, rows.tolist()):
        streams[t].seek(first + n * width)
    return taken, (heads - held).astype(np.int64) if every is None else every


def _collect(rule: StopRule, start: RandomSource, blocks: list, probs: list[np.ndarray],
             taken: list[list[int]], successes: np.ndarray | None,
             t: int) -> TeachingCollection:
    """Trial ``t``'s collection of the rows ``taken[t][b]`` of each block
    ``b`` of :func:`_teach_blocks`, drawn again from ``start``, a copy of
    its stream from where the trial started, each block from its first
    word. A block without a probe adds each column's successes and
    failures, the payouts of that input: the successes the stopping scan
    counted, ``successes[t, b]``, or with no ``successes``, as for a fixed
    budget, those of its rows drawn again. A block with a probe adds its
    rows drawn again, each row one sample, the probe's next state: each
    distinct state, a tuple of Python ints, once with its count. Counting
    tuples keeps peak memory where per-row adds left it; counting the rows
    as bytes or packed ints was faster but raised it. Rows that one array
    could not index, or of more than ``_BUDGET_MAX`` uniforms, raise
    ``ValueError`` before anything is drawn."""
    rows, width, origin = taken[t], len(blocks[0][1]), start.position
    if max(rows) * width > _INDEX_MAX:
        raise ValueError(f"the budget, {max(rows):.3g} rows of {width} uniforms, "
                         "is past numpy's int64 index range")
    if sum(rows) * width > _BUDGET_MAX:
        raise ValueError(f"the budget, {sum(rows) * width:.3g} uniforms, is more than "
                         f"the {_BUDGET_MAX} (2**32) a collection may draw")
    collection = TeachingCollection()
    for b, ((probe, conds, _), n) in enumerate(zip(blocks, rows)):
        start.seek(origin + rule.cap * width * b)
        if probe is not None:
            states: Counter = Counter()
            for chunk in _budget_chunks(start, n, probs[b][t]):
                states.update(map(tuple, chunk.view(np.uint8).tolist()))
            for state, count in states.items():
                collection.add(probe, state, count)
        else:
            heads = (successes[t, b] if successes is not None else sum(
                np.count_nonzero(chunk, axis=0)
                for chunk in _budget_chunks(start, n, probs[b][t])))
            for x, hits in zip(conds, heads.tolist()):
                collection.add(x, 1, hits)
                collection.add(x, 0, n - hits)
    return collection


def _budget_chunks(rng: RandomSource, rows: int, probs: np.ndarray):
    """The outcomes of ``rows`` rows, column ``j`` a success with
    probability ``probs[j]``, in chunks of about ``_BUDGET_CHUNK``
    uniforms: together, the rows one (rows, columns) block would hold."""
    width = len(probs)
    size = max(1, _BUDGET_CHUNK // width)
    for start in range(0, rows, size):
        yield rng.random_block((min(size, rows - start), width)) < probs


# ---------------------------------------------------------------------------
# coins and bandits


def teach_coin_cell(strategy: str, c: BernoulliConcept, params: AccuracyParams,
                    streams: Sequence[RandomSource]) -> list[TeachingOutcome]:
    """Teach a coin's bias in a cell of trials, trial ``t`` flipping from
    ``streams[t]``; the stopping trials are taught at once.

    NTD flips exactly the Hoeffding budget of coins and stops. It serves
    any distribution-consistent learner, including those that refuse to
    predict before seeing the full budget. NSTD flips until the empirical
    mean is within epsilon/2 of the true bias (checked after every flip,
    boundary inclusive), capped at the Hoeffding budget. Its delivered
    collection therefore satisfies the half-width bound unless the cap
    was hit.
    """
    strategy = _canon(strategy, COIN_STRATEGIES)
    _check_cell(streams)
    return _teach_blocks(StopRule.hoeffding(params), streams, [(None, [COIN_INPUT], None)],
                         [np.full((len(streams), 1), c.p_star)], stopping=strategy == "NSTD")


def teach_bandit_cell(strategy: str, concepts: Sequence[BanditConcept],
                      params: AccuracyParams,
                      streams: Sequence[RandomSource]) -> list[TeachingOutcome]:
    """Teach every arm's expected payout to epsilon accuracy in a cell of
    trials, trial ``t`` teaching ``concepts[t]`` from ``streams[t]``; the
    stopping trials are taught at once. Every concept must have the same
    number of arms.

    Individual strategies pull one arm at a time, in index order; parallel
    strategies pull all arms at once, and ``steps`` then counts pulls
    while ``samples`` counts pulls times arms. The per-arm budget is the
    Hoeffding count at confidence delta/k; the stop half-width is
    epsilon/2 against the true mean.
    """
    strategy = _canon(strategy, BANDIT_STRATEGIES)
    _check_cell(streams, concepts)
    k = concepts[0].k
    if any(c.k != k for c in concepts):
        raise ValueError("every bandit of a cell must have the same number of arms")
    means = np.array([c.means for c in concepts])
    rule = StopRule.hoeffding(AccuracyParams(params.epsilon, params.delta / k))
    # individual strategies pull one arm per block, in index order;
    # parallel ones pull all arms at once, one row per pull
    if strategy.endswith("IND"):
        blocks, probs = [(None, [arm], None) for arm in range(k)], np.split(means, k, axis=1)
    else:
        blocks, probs = [(None, list(range(k)), None)], [means]
    return _teach_blocks(rule, streams, blocks, probs, stopping=strategy.startswith("NSTD"))


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


def teach_dbn_cell(strategy: str, concepts: Sequence[DbnConcept], params: AccuracyParams,
                   streams: Sequence[RandomSource]) -> list[TeachingOutcome]:
    """Teach the stochastic conditions of a shift-register DBN by choosing
    probe states, in a cell of trials, trial ``t`` teaching
    ``concepts[t]`` from ``streams[t]``; the stopping trials are taught
    at once. Every concept must have the same number of factors.

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
    _check_cell(streams, concepts)
    for c in concepts:
        check_shift_register(c)
    n = concepts[0].n
    if any(c.n != n for c in concepts):
        raise ValueError("every DBN of a cell must have the same number of factors")
    if strategy in ("NTD", "NSTD-PAR"):
        probes = [(tuple(1 - i % 2 for i in range(n)), None)]
    else:
        # NSTD-IND: one condition at a time
        probes = [(tuple(int(i < factor) for i in range(n)), [factor])
                  for factor in range(1, n)] + [((1,) * n, [0])]
    # each probe's block: the condition at which it samples each factor,
    # the same on every shift register of n factors, and each factor's
    # probability of a 1 in the probe's next state
    blocks = [(probe, [(i, concepts[0].parent_values(i, probe)) for i in range(n)], cols)
              for probe, cols in probes]
    probs = [np.array([[c.cpt[i][a] for i, a in conds] for c in concepts])
             for _, conds, _ in blocks]
    return _teach_blocks(dbn_stop_rule(concepts[0], params), streams, blocks, probs,
                         stopping=strategy != "NTD")


def teach_dbn_deterministic(c: DbnConcept,
                            first_probe: tuple[int, ...] | None = None
                            ) -> TeachingOutcome:
    """Teach a deterministic single-parent DBN with two probes: any state
    and its complement, which together exercise both values of every
    parent. The learner's CPT estimate is then exact."""
    if not c.is_deterministic:
        raise ValueError("concept has stochastic conditions; use teach_dbn_cell")
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
