"""Heuristic teaching inside an MDP: greedy construction of a teaching
set over the reachable closure, then a nearest-first tour that
demonstrates each target once, or until its stop rule is met; the
parallel DBN protocols instead pick each probe state as they go.
Also houses the sequential coin-direction teacher/learner pair, where the
visible ordering of the teacher's choices licenses stronger inference."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .concepts import (
    BernoulliConcept,
    DbnConcept,
    MonotoneConjunction,
    VersionSpace,
)
from .core import AccuracyParams, RandomSource
from .environments import (
    BitflipEnv,
    TaxiEnv,
    TeachingSequence,
    reachable_closure,
    sampling_row,
)
from .teachers import StopRule, UnteachablePlanError, check_shift_register, dbn_stop_rule

PROTOCOLS = ("td", "std-approx", "ntd-par", "nstd-par", "nstd-ind")

# value iteration stops once no value moves by this much in a sweep
_TOL = 1e-9


class UnteachableError(ValueError):
    """Some parameter of the concept is exercised by no reachable
    transition, so no teaching set exists in this environment."""


class UnreachableTargetError(ValueError):
    """A teaching target cannot be reached from the current state."""


class UnconvergedPlanError(RuntimeError):
    """Value iteration stopped at its sweep limit before converging, so
    the plan's values and policy cannot be trusted for a tour."""


class StepLimitError(RuntimeError):
    """A tour took more steps than its ``max_steps``, or a parallel drive
    more than its own limit, before it finished teaching."""


class ExpectedStepsPlan:
    """Expected steps-to-target and the greedy action, per state of a
    planner cache's closure, kept by the cache's ids: ``values_by_id``
    holds each state's value, infinite where the target is not almost
    surely reachable, and ``action_ids`` the policy, one more than the
    action's id at each state's id, 0 where the state has no action.
    ``states`` and ``actions`` are the cache's id orders. The ``values``
    and ``policy`` dicts, by state, are built from the arrays on first
    read; tours read only the arrays."""

    def __init__(self, states: Sequence, actions: Sequence, values_by_id: np.ndarray,
                 action_ids: np.ndarray, converged: bool):
        self.states, self.actions = states, actions
        self.values_by_id = values_by_id
        self.action_ids = memoryview(action_ids)
        self.converged = converged
        self._values: dict | None = None
        self._policy: dict | None = None

    @property
    def values(self) -> dict:
        if self._values is None:
            self._values = dict(zip(self.states, self.values_by_id.tolist()))
        return self._values

    @property
    def policy(self) -> dict:
        if self._policy is None:
            ids = np.asarray(self.action_ids)
            chosen = np.flatnonzero(ids)
            self._policy = {self.states[i]: self.actions[c - 1]
                            for i, c in zip(chosen.tolist(), ids[chosen].tolist())}
        return self._policy

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpectedStepsPlan):
            return NotImplemented
        return (self.converged == other.converged and self.states == other.states
                and self.actions == other.actions
                and np.array_equal(self.values_by_id, other.values_by_id)
                and self.action_ids == other.action_ids)

    __hash__ = None


@dataclass(frozen=True)
class TeachingTarget:
    """One (state, action) demonstration and what it teaches. A target
    without a ``rule`` is done after one demonstration; one with a rule
    (a DBN factor's) is demonstrated until the pooled estimate of every
    factor it covers enters the rule's band, or the rule's cap is spent.
    """

    state: object
    action: object
    covers: frozenset
    rule: StopRule | None = None


def _encode(value) -> str:
    return repr(value)


# ---------------------------------------------------------------------------
# planning primitives


class PlannerCache:
    """One environment compiled over its reachable closure, with what
    repeated tours over it share.

    The closure is one :func:`reachable_closure` walk, the cache's only
    read of ``env.transition`` and ``env.actions``. Its states are kept
    in ``_encode`` order (``ordered``, with ``index`` mapping back), the
    actions available anywhere among them likewise (``actions``,
    ``action_index``), the ids of each state's actions in ``env.actions``
    order (``state_actions``), and the walk's distributions by pair id
    ``i * width + k`` (``dists``), from which each pair's sampling row
    over state ids (``rows``) is built the first time a tour takes it.
    Beside them the cache keeps one expected-steps plan per goal, by
    (protocol, params) the teaching set last built with its concept, for
    Taxi each schema's grounding arrays (see :func:`_taught_pairs`), for a
    shift register what each state exposes (see :meth:`exposures`), and
    the move tables the tours walk (see :meth:`move`).

    The goal-independent transition tables every plan slices are built by
    :meth:`build_tables`, with the cache, as every tour plans. For action
    ``k``, ``next_idx[k]`` and ``next_p[k]`` hold every state's
    (next-state id, probability) row, its support in ``_encode`` order and
    padded with probability 0 at id ``n``, a sink whose value is 0. Where
    the action is unavailable the row is a certain move to id ``n + 1``, a
    sink whose value is infinite. ``widths[k]`` is each row's own support
    size, 0 where the action is unavailable. The reverse edges are kept in
    CSR form: the states with a transition into state ``j`` are
    ``pred[pred_ptr[j]:pred_ptr[j + 1]]``. A plan's goal is a mask over
    the state ids (see :meth:`goal_mask`).

    A cache is bound to its environment: :func:`teach_in_mdp` and
    :func:`expected_steps_planner` raise ``ValueError`` when they receive
    it with another. Any concept may be taught through it; a teaching set
    is built again when the concept differs from the one it was built for.
    """

    def __init__(self, env):
        self.env = env
        walk = reachable_closure(env)
        self.ordered = sorted([s for s, _, _ in walk], key=_encode)
        self.index = {s: i for i, s in enumerate(self.ordered)}
        self.n = len(self.ordered)
        distinct = {actions for _, actions, _ in walk}
        self.actions = sorted(set().union(*distinct), key=_encode)
        self.action_index = {a: k for k, a in enumerate(self.actions)}
        self.width = len(self.actions)
        ids = {actions: tuple([self.action_index[a] for a in actions]) for actions in distinct}
        self.state_actions: list = [None] * self.n
        self.dists: list = [None] * (self.n * self.width)
        for s, actions, dists in walk:
            i = self.index[s]
            self.state_actions[i] = ids[actions]
            for k, dist in zip(ids[actions], dists):
                self.dists[i * self.width + k] = dist
        self.rows: list = [None] * (self.n * self.width)
        self.build_tables()
        self.plans: dict = {}
        self.moves: dict = {}
        self.targets: dict = {}
        self.groundings: dict | None = None
        self.exposed: list | None = None
        self.exposure_masks: list | None = None
        self.state_bits: np.ndarray | None = None
        self.exposure_bits: np.ndarray | None = None

    def row(self, i: int, k: int) -> tuple:
        """The sampling row of state ``i`` under action ``k``, with state
        ids for next states."""
        pair = i * self.width + k
        row = self.rows[pair]
        if row is None:
            nexts, sums = sampling_row(self.dists[pair])
            row = self.rows[pair] = (tuple([self.index[s] for s in nexts]), sums)
        return row

    def build_tables(self) -> None:
        n, index, dists = self.n, self.index, self.dists
        # per action id, the flat (state, column, next state, probability)
        # entries of its rows
        entries = [([], [], [], []) for _ in self.actions]
        for i, ks in enumerate(self.state_actions):
            base = i * self.width
            for k in ks:
                support = sorted((index[s2], p) for s2, p in dists[base + k].items())
                rows, cols, nexts, probs = entries[k]
                for c, (j, p) in enumerate(support):
                    rows.append(i)
                    cols.append(c)
                    nexts.append(j)
                    probs.append(p)
        next_idx, next_p, all_widths = [], [], []
        src: list[int] = []
        dst: list[int] = []
        for rows, cols, nexts, probs in entries:
            width = max(cols) + 1
            idx = np.full((n, width), n, dtype=np.int64)
            idx[:, 0] = n + 1
            prob = np.zeros((n, width))
            prob[:, 0] = 1.0
            idx[rows, cols] = nexts
            prob[rows, cols] = probs
            src += rows
            dst += nexts
            next_idx.append(idx)
            next_p.append(prob)
            all_widths.append(np.bincount(rows, minlength=n))
        dst_arr = np.array(dst, dtype=np.int64)
        self.pred = np.array(src, dtype=np.int64)[np.argsort(dst_arr, kind="stable")]
        self.pred_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst_arr, minlength=n), out=self.pred_ptr[1:])
        self.next_p, self.widths, self.next_idx = next_p, all_widths, next_idx

    def goal_mask(self, goal) -> np.ndarray:
        """The goal as a boolean mask over the state ids: ``goal`` is such
        a mask already, a predicate on states, or a state compared by
        equality."""
        if isinstance(goal, np.ndarray):
            if goal.shape != (self.n,) or goal.dtype != bool:
                raise ValueError(f"a goal mask must be {self.n} booleans")
            return goal
        if callable(goal):
            return np.fromiter(map(goal, self.ordered), dtype=bool, count=self.n)
        mask = np.zeros(self.n, dtype=bool)
        i = self.index.get(goal)
        if i is not None:
            mask[i] = True
        return mask

    def can_reach(self, goal: np.ndarray) -> np.ndarray:
        """Mask of the states with a transition path into the goal set."""
        alive = goal.copy()
        frontier = np.flatnonzero(goal)
        while frontier.size:
            starts = self.pred_ptr[frontier]
            counts = self.pred_ptr[frontier + 1] - starts
            total = int(counts.sum())
            if not total:
                break
            # the frontier's CSR ranges, concatenated
            offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
            fresh = np.zeros(self.n, dtype=bool)
            fresh[self.pred[offsets + np.arange(total)]] = True
            fresh &= ~alive
            alive |= fresh
            frontier = np.flatnonzero(fresh)
        return alive

    def exposures(self, register: DbnConcept) -> np.ndarray:
        """The factors of ``register`` each state exposes, as a boolean
        matrix, state id by factor (see :func:`_dbn_exposure_masks`),
        built on the first call and kept as ``exposure_bits``, beside the
        states' own bits, ``state_bits``, for the drive's bulk tallies (see
        :meth:`_Demonstration.walk`). The walk's move tables read each
        row as a bitmask, bit i set where factor i is exposed, from the
        list ``exposure_masks``. ``exposed`` then holds, by state id, the
        tuple of factors the state exposes, in order, built on its first
        shift (see :class:`_Demonstration`); which of them a shift
        complements follows from the state's own bits. Raises
        :class:`UnteachablePlanError` unless the environment is a bitflip
        register and the DBN a shift register as wide as it."""
        check_shift_register(register)
        if not isinstance(self.env, BitflipEnv):
            raise UnteachablePlanError(f"a DBN is taught in a bitflip environment, "
                                       f"not a {type(self.env).__name__}")
        if register.n != self.env.n:
            raise UnteachablePlanError(f"the DBN has {register.n} factors but the "
                                       f"environment has {self.env.n} bits")
        if self.exposure_bits is None:
            self.state_bits, self.exposure_bits = _dbn_exposure_masks(self.ordered, self.env.n)
            self.exposure_masks = (self.exposure_bits @ (1 << np.arange(self.env.n))).tolist()
            self.exposed = [None] * self.n
        return self.exposure_bits

    def move(self, key, i: int) -> tuple:
        """State ``i``'s entry in the move table of ``key``, a list by
        state id in ``moves``, built and kept at the state's first visit
        under that key: (action id, next ids, running sums, the factors a
        shift there exposes or None, whether the step is the
        demonstration). A key ``(kind, goal, k)`` names a goal and the
        action id ``k`` demonstrated there:
        - ``("to", state, k)``: a tour's leg, whose goal is ``state``;
        - ``("expose", needed, shift)``: a parallel drive's probe, whose
          goal is every state that exposes each factor in the bitmask
          ``needed``.

        At a goal state the entry takes ``k`` and is the demonstration;
        at any other it takes the action of the plan toward the goal,
        kept in ``plans`` by ``key[:2]``, so every target at one state
        shares one plan, and built at the first state off the goal. A
        state whose plan has no action raises
        :class:`UnreachableTargetError`. A state's tuple of exposed
        factors is built on its first shift, from ``exposure_masks``, and
        shared by every table."""
        kind, goal, k = key
        shown = self.index[goal] == i if kind == "to" else not goal & ~self.exposure_masks[i]
        if not shown:
            needed = [] if kind == "to" else [f for f in range(self.env.n) if goal >> f & 1]
            plan = self.plans.get(key[:2]) or self._plan(
                key[:2], goal if kind == "to" else self.exposure_bits[:, needed].all(axis=1))
            k = plan.action_ids[i] - 1
            if k < 0:
                raise UnreachableTargetError(
                    f"target {goal!r} unreachable" if kind == "to" else
                    f"no reachable state exposes factors {needed!r}")
        nexts, sums = self.rows[i * self.width + k] or self.row(i, k)
        factors = None
        if self.exposed is not None and self.actions[k] == "shift":
            factors = self.exposed[i]
            if factors is None:
                mask = self.exposure_masks[i]
                factors = self.exposed[i] = tuple([f for f in range(self.env.n)
                                                   if mask >> f & 1])
        move = self.moves[key][i] = (k, nexts, sums, factors, shown)
        return move

    def _plan(self, key, goal) -> ExpectedStepsPlan:
        plan = self.plans.get(key)
        if plan is None:
            plan = expected_steps_planner(self.env, goal, cache=self)
            if not plan.converged:
                raise UnconvergedPlanError(
                    f"value iteration toward {key!r} did not converge")
            self.plans[key] = plan
        return plan


def expected_steps_planner(env, goal, max_iter: int = 10**6, *,
                           cache: PlannerCache | None = None) -> ExpectedStepsPlan:
    """Value iteration on expected steps-to-hit the goal set, over the
    reachable closure of ``env``.

    V is 0 on goal states and otherwise min over actions of
    1 + sum_s' T(s'|s,a) V(s'), iterated to a sup-norm residual below
    ``_TOL``. States with no positive-probability path to the goal are
    flagged unreachable (infinite value) up front; states whose value is
    still moving after ``max_iter`` sweeps leave the plan marked
    unconverged.

    ``goal`` is a predicate on states, a state compared by equality, or
    a boolean mask over the cache's state ids. The plan runs on the
    transition tables of ``cache``, built for ``env`` (a fresh cache when
    None), and keeps its values and policy by the cache's ids (see
    :class:`ExpectedStepsPlan`). Where the greedy action ties, the first
    in the cache's ``actions`` order wins. Every step costing 1, value
    iteration is exact on a deterministic environment: the values are the
    breadth-first distances.
    """
    if cache is None:
        cache = PlannerCache(env)
    elif env is not cache.env:
        raise ValueError("the planner cache was built for another environment")
    target_mask = cache.goal_mask(goal)
    if not target_mask.any():
        raise UnreachableTargetError("no state satisfies the goal predicate")
    n = cache.n
    live = np.flatnonzero(cache.can_reach(target_mask) & ~target_mask)
    m = live.size
    # the live states ordered by their row widths, action by action, so
    # that under each action the rows of one width lie in runs
    live_widths = [widths[live] for widths in cache.widths]
    order = np.lexsort(live_widths[::-1]) if live_widths else np.arange(m)
    live = live[order]

    # sweeps run on the live states only: index m of a value vector is the
    # zero sink (goal states and padding), m + 1 the infinite one (states
    # that cannot reach the goal, unavailable actions)
    compact = np.full(n + 2, m + 1, dtype=np.int64)
    compact[:n][target_mask] = m
    compact[n] = m
    compact[live] = np.arange(m)

    # each action's expected next value, by live state. numpy sums 8 or
    # more terms pairwise and fewer from left to right, so a row's width
    # in its table fixes its rounding. A table 8 or more wide is summed
    # pairwise, every row padded to that width. Narrower tables are summed
    # run by run at each run's own width, from left to right down columns:
    # the padding left out would only add trailing +0.0 terms. A run of
    # certain moves (width 1, every probability 1.0) is taken straight: x *
    # 1.0 is x, and a one-term sum is its term. Unavailable actions (width
    # 0) take the infinite sink.
    cand_idx = np.full((len(cache.actions), m), m + 1, dtype=np.int64)
    taken = 0  # the flat positions of cand up to its last certain move
    blocks = []  # (next-state ids, probabilities, summed axis, action, start, stop)
    for k, widths in enumerate(live_widths):
        widths = widths[order]
        width = int(widths.max()) if m else 0
        if width >= 8:
            blocks.append((compact[cache.next_idx[k][live, :width]],
                           cache.next_p[k][live, :width], 1, k, 0, m))
            continue
        cuts = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), m]
        for start, stop in zip(cuts, cuts[1:]):
            width = int(widths[start]) if stop > start else 0
            if not width:
                continue
            rows = live[start:stop]
            idx = compact[cache.next_idx[k][rows, :width]]
            prob = cache.next_p[k][rows, :width]
            if width == 1 and (prob == 1.0).all():
                cand_idx[k, start:stop] = idx[:, 0]
                taken = k * m + stop
            else:
                blocks.append((idx.T, prob.T, 0, k, start, stop))

    # a sweep gathers every value it reads with one take into one buffer:
    # first the blocks, whose products one multiply forms and one reduce
    # per block sums into its slice of ``cand``, then ``cand`` itself,
    # every action's candidate by live state, up to its last certain move.
    # The rest of ``cand`` is summed into or stays infinite. Every index
    # is in range: take's default bounds check would buffer ``out``, while
    # "wrap" leaves each index as it is
    size = sum(idx.size for idx, *_ in blocks)
    flat_idx = np.concatenate([idx.ravel() for idx, *_ in blocks] + [cand_idx.ravel()[:taken]])
    weights = np.concatenate([np.empty(0)] + [prob.ravel() for _, prob, *_ in blocks])
    gathered = np.full(size + cand_idx.size, np.inf)
    filled, products = gathered[:size + taken], gathered[:size]
    cand = gathered[size:].reshape(cand_idx.shape)
    sums = []
    at = 0
    for idx, _, axis, k, start, stop in blocks:
        sums.append((gathered[at:at + idx.size].reshape(idx.shape), axis, cand[k, start:stop]))
        at += idx.size

    def evaluate(vals: np.ndarray) -> None:
        vals.take(flat_idx, out=filled, mode="wrap")
        np.multiply(weights, products, out=products)
        for block, axis, out in sums:
            np.add.reduce(block, axis=axis, out=out)

    # each step costs 1, added once after the minimum: rounding is
    # monotone, so min(fl(a + 1), fl(b + 1)) is fl(min(a, b) + 1)
    current = np.zeros(m + 2)
    current[m + 1] = np.inf
    new = current.copy()
    diff = np.empty(m)
    converged = not m
    # sweeps from zero never decrease a value, so the residual needs no
    # abs; a state infinite before and after a sweep has moved by
    # inf - inf, a NaN that the residual skips
    with np.errstate(invalid="ignore"):
        for _ in range(max_iter if m else 0):
            evaluate(current)
            np.minimum.reduce(cand, axis=0, out=new[:m])
            np.add(new[:m], 1.0, out=new[:m])
            np.subtract(new[:m], current[:m], out=diff)
            current, new = new, current
            if float(np.fmax.reduce(diff, initial=0.0)) < _TOL:
                converged = True
                break

    values = np.full(n, np.inf)
    values[target_mask] = 0.0
    values[live] = current[:m]
    action_ids = np.zeros(n, dtype=np.uint16)
    if m:
        # the greedy action by each candidate's own 1 + sum, so that ties
        # break as the sweep's rounding leaves them
        evaluate(current)
        np.add(cand, 1.0, out=cand)
        finite = np.isfinite(current[:m])
        action_ids[live[finite]] = cand.argmin(axis=0)[finite] + 1
    return ExpectedStepsPlan(cache.ordered, cache.actions, values, action_ids, converged)


def greedy_set_cover(cover: np.ndarray, items: Sequence) -> list[int]:
    """Greedy cover of the columns of the boolean (candidates x items)
    matrix ``cover``, named by ``items``: repeatedly pick the row covering
    the most still-uncovered columns, the first of equals, so the caller's
    row order is the tie rule and builds can be re-simulated by a learner.
    Returns the picked rows in the order picked. Raises
    :class:`UnteachableError`, naming the items sorted by ``_encode``,
    when some column is covered by no row.
    """
    orphans = np.flatnonzero(~cover.any(axis=0))
    if orphans.size:
        raise UnteachableError(
            f"no candidate covers: {sorted([items[c] for c in orphans], key=_encode)!r}")
    remaining = np.ones(cover.shape[1], dtype=bool)
    chosen = []
    while remaining.any():
        best = int(np.argmax(np.count_nonzero(cover[:, remaining], axis=1)))
        chosen.append(best)
        remaining &= ~cover[best]
    return chosen


# ---------------------------------------------------------------------------
# teaching-set construction


def _taught_pairs(concept: Mapping[str, MonotoneConjunction], cache: PlannerCache
                  ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each taught schema's (state, grounded action) pairs in the cache's
    closure, as arrays: their pair ids ``i * width + k`` in increasing
    order, their observed labels (True on success) and their (pairs x
    vocabulary) boolean predicate array. The cache's first teaching-set
    build grounds every pair once, into ``cache.groundings``.

    Pair-id order is (``_encode(state)``, ``_encode(action)``) order. It
    ranks the pairs as ``_encode((state, action))`` does as long as no
    state's encoding is a proper prefix of another's, as holds for
    Taxi's tuple states, so the covers may break ties by row."""
    if cache.groundings is None:
        env, actions, width = cache.env, cache.actions, cache.width
        rows: dict = {}
        for i, (s, ks) in enumerate(zip(cache.ordered, cache.state_actions)):
            for k in sorted(ks):
                a = actions[k]
                rows.setdefault(a[0], []).append(
                    (i * width + k, env.observation(s, a) == 1, env.ground(s, *a).vector))
        cache.groundings = {}
        for name, grounded in rows.items():
            ids, labels, vectors = zip(*grounded)
            cache.groundings[name] = (np.array(ids), np.array(labels),
                                      np.array(vectors, dtype=bool))
    return {name: cache.groundings.get(name) or (
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool),
                np.zeros((0, conj.n), dtype=bool))
            for name, conj in concept.items()}


def _pair_target(cache: PlannerCache, pair: int, covers: frozenset) -> TeachingTarget:
    return TeachingTarget(state=cache.ordered[pair // cache.width],
                          action=cache.actions[pair % cache.width], covers=covers)


def _conjunction_cover_targets(concept: Mapping[str, MonotoneConjunction],
                               cache: PlannerCache) -> list[TeachingTarget]:
    """Greedy teaching set for action preconditions: positives that
    between them zero out every irrelevant predicate, plus one failure per
    relevant predicate that isolates it (every other relevant predicate
    held true). Each schema's pairs cover its own columns, ``pos``,
    ``dispel j`` per irrelevant and ``iso i`` per relevant predicate; the
    cover's rows are every taught pair, ranked by pair id."""
    blocks, items = [], []
    for name, (pair_ids, labels, preds) in _taught_pairs(concept, cache).items():
        conj = concept[name]
        relevant = sorted(conj.relevant)
        irrelevant = [j for j in range(conj.n) if j not in conj.relevant]
        zero = ~preds[:, relevant]
        isolating = ~labels & (np.count_nonzero(zero, axis=1) == 1)
        blocks.append((pair_ids, len(items), np.column_stack(
            [labels, labels[:, None] & ~preds[:, irrelevant], isolating[:, None] & zero])))
        items += ([("pos", name)] + [("dispel", name, j) for j in irrelevant]
                  + [("iso", name, i) for i in relevant])
    pairs = np.sort(np.concatenate([np.zeros(0, dtype=np.int64)] + [b[0] for b in blocks]))
    cover = np.zeros((pairs.size, len(items)), dtype=bool)
    for pair_ids, col, block in blocks:
        cover[np.searchsorted(pairs, pair_ids), col:col + block.shape[1]] = block
    return [_pair_target(cache, int(pairs[r]),
                         frozenset([items[c] for c in np.flatnonzero(cover[r])]))
            for r in greedy_set_cover(cover, items)]


def _std_approx_targets(concept: Mapping[str, MonotoneConjunction],
                        cache: PlannerCache) -> list[TeachingTarget]:
    """Positives-only teaching set for action preconditions, for a
    learner that simulates the teacher: per schema, the most specific
    success available (the first in pair-id order of those leaving the
    fewest irrelevant predicates true), then a greedy cover of the
    irrelevant predicates it left true by successes that zero them out.
    Failures are never shown; the learner infers that everything never
    dispelled is relevant."""
    targets: list[TeachingTarget] = []
    for name, (pair_ids, labels, preds) in _taught_pairs(concept, cache).items():
        pool, successes = preds[labels], pair_ids[labels]
        if not successes.size:
            raise UnteachableError(f"no reachable success for {name!r}")
        conj = concept[name]
        irrelevant = [j for j in range(conj.n) if j not in conj.relevant]
        # argmin takes the first of equal counts
        specific = int(np.argmin(np.count_nonzero(pool[:, irrelevant], axis=1)))
        left_true = [j for j in irrelevant if pool[specific, j]]
        for r in [specific] + greedy_set_cover(~pool[:, left_true], left_true):
            targets.append(_pair_target(cache, int(successes[r]), frozenset()))
    return targets


def _dbn_exposure_masks(states: Sequence, n: int) -> tuple[np.ndarray, np.ndarray]:
    """What each of the ``n``-bit states exposes of a shift register (one
    that :func:`check_shift_register` accepts), as two boolean matrices,
    state by bit: the states' bits, then the exposed factors. Factor 0 is
    exposed when bit 0 is 1, and factor i when bits i - 1 and i differ.
    Which exposed factors a shift complements follows from the state's
    own bits (see :class:`_Demonstration`)."""
    bits = np.array(states, dtype=bool).reshape(len(states), n)
    return bits, np.diff(bits, axis=1, prepend=False)


def _dbn_cover_targets(concept: DbnConcept, cache: PlannerCache,
                       params: AccuracyParams) -> list[TeachingTarget]:
    """The nstd-ind teaching set: one target per factor, in the state that
    can shift and exposes it while exposing the fewest other stochastic
    factors, then the fewest factors, then the first in ``_encode`` order.
    The states are ranked on the cache's :meth:`PlannerCache.exposures`."""
    n = concept.n
    rule = dbn_stop_rule(concept, params)
    shift = cache.action_index.get("shift")
    shift_ids = [i for i, ks in enumerate(cache.state_actions) if shift in ks]
    exposed = cache.exposures(concept)[shift_ids]
    stochastic = np.array([any(q not in (0.0, 1.0) for q in concept.cpt[i].values())
                           for i in range(n)])
    noisy = np.count_nonzero(exposed & stochastic, axis=1)
    total = np.count_nonzero(exposed, axis=1)

    targets = []
    for i in range(n):
        exposing = exposed[:, i]
        if not exposing.any():
            raise UnteachableError(f"factor {i} is exercised by no reachable shift")
        # argmin takes the first of equal ranks
        rank = (noisy - stochastic[i]) * (n + 1) + total
        best = int(np.argmin(np.where(exposing, rank, (n + 1) ** 2)))
        targets.append(TeachingTarget(state=cache.ordered[shift_ids[best]], action="shift",
                                      covers=frozenset({i}), rule=rule))
    return targets


def build_teaching_set_greedy(concept, cache: PlannerCache, protocol: str,
                              params: AccuracyParams | None = None
                              ) -> list[TeachingTarget]:
    """Greedy teaching-set construction over the reachable closure of the
    cache's environment.

    Precondition concepts (a mapping of schema name to conjunction), in a
    :class:`TaxiEnv` only, use the positive/isolating-failure cover under
    the ``td`` protocol and the positives-only set under ``std-approx``;
    DBN concepts have one only under ``nstd-ind``, a stop-ruled target per
    factor, as the parallel protocols pick their probe states as they go.
    """
    protocol = protocol.strip().lower()
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    if isinstance(concept, Mapping):
        if not isinstance(cache.env, TaxiEnv):
            raise ValueError("precondition concepts are taught in a Taxi environment, "
                             f"not a {type(cache.env).__name__}")
        if protocol == "td":
            return _conjunction_cover_targets(concept, cache)
        if protocol == "std-approx":
            return _std_approx_targets(concept, cache)
        raise ValueError("precondition concepts use the td or std-approx protocol")
    if isinstance(concept, DbnConcept):
        if protocol in ("td", "std-approx"):
            raise ValueError("DBN concepts use a noisy protocol")
        if protocol != "nstd-ind":
            raise ValueError(
                f"the {protocol} protocol has no fixed teaching set: the parallel "
                "protocols pick their probe states as they go")
        if params is None:
            raise ValueError("noisy protocols need accuracy parameters")
        return _dbn_cover_targets(concept, cache, params)
    raise TypeError(f"cannot build a teaching set for {type(concept).__name__}")


# ---------------------------------------------------------------------------
# the touring teacher


def _target_satisfied(target: TeachingTarget, visits: int,
                      demo: _Demonstration) -> bool:
    """Every target must be demonstrated at least once; a target with a
    stop rule then keeps drawing visits until the pooled estimate of each
    factor it covers enters the band (or the cap is spent)."""
    rule = target.rule
    if visits < 1:
        return False
    if rule is None or visits >= rule.cap:
        return True
    counts, successes, truths = demo.counts, demo.successes, demo.truths
    return all(counts[f] > 0 and rule.satisfied(successes[f] / counts[f], truths[f])
               for f in target.covers)


def teach_in_mdp(concept, env, protocol: str,
                 params: AccuracyParams | None = None,
                 rng: RandomSource | None = None,
                 planner_cache: PlannerCache | None = None,
                 max_steps: int = 10_000_000) -> TeachingSequence:
    """Demonstrate the concept inside the environment.

    Builds the greedy teaching set, then repeatedly navigates to the
    remaining target with the fewest expected steps from the current
    state, by the expected-steps plan toward it (in a deterministic
    environment, a shortest path), and executes its action, once or until
    the target's stop rule is satisfied; a DBN under ``ntd-par`` or
    ``nstd-par`` instead shifts from the nearest state that exposes every
    factor still needed. Every
    executed action, navigation included, lands in the emitted sequence,
    so a consistent learner replays exactly what the teacher did.

    A ``planner_cache`` lets repeated runs over the same environment
    share the compiled closure, the teaching sets, the per-goal plans
    and what each state exposes. A plan that did not converge
    raises :class:`UnconvergedPlanError`, a DBN that is not a shift
    register of a bitflip environment's width :class:`UnteachablePlanError`,
    and a precondition mapping outside a :class:`TaxiEnv` ``ValueError``,
    all before any step; a tour that takes more than ``max_steps`` steps
    raises :class:`StepLimitError`. Each stochastic step reads one
    ``rng.random()``, so afterwards, and after an error, the stream stands
    that many uniforms further on.
    """
    if planner_cache is None:
        planner_cache = PlannerCache(env)
    elif env is not planner_cache.env:
        raise ValueError("the planner cache was built for another environment")
    protocol = protocol.strip().lower()
    dbn = concept if isinstance(concept, DbnConcept) else None
    demo = _Demonstration(planner_cache, rng, dbn, max_steps)
    if dbn is not None and protocol in ("ntd-par", "nstd-par"):
        _parallel_drive(concept, protocol, params, demo)
    else:
        built = planner_cache.targets.get((protocol, params))
        if built is None or (built[0] is not concept and built[0] != concept):
            built = planner_cache.targets[(protocol, params)] = (
                concept, build_teaching_set_greedy(concept, planner_cache, protocol, params))
        _tour(demo, built[1])
    return demo.sequence()


def _no_rng() -> float:
    """The ``random`` of a tour without a stream: a stochastic step raises."""
    raise ValueError("stochastic transition requires an rng")


class _Demonstration:
    """The sequence a teacher emits as it acts in the environment, run on
    the cache's state and action ids: the current state is an id and
    each step is recorded as (state id, action id). Every step is taken
    by :meth:`walk`, from one of the cache's move tables (see
    :meth:`PlannerCache.move`). ``random`` is the tour stream's
    ``random()``, which each stochastic step reads once.

    Teaching a DBN ``concept``, every shift adds its outcome to the
    ``counts`` and ``successes`` of each factor its state exposes, pooled
    in shift-success units: a next-bit 1 witnesses a failed shift under
    the keep-a-1 assignment (0, 1) and factor 0's (1,), so a factor is
    complemented exactly where the state's own bit is 1, and the shift
    succeeded for it where its bit changed. The stop tests compare the
    ratio with the factor's true shift-success probability in ``truths``.
    The parallel drive sets its own stop test, ``rule``, ``floor`` and
    ``band`` (see :func:`_parallel_drive`), and its step ``limit``.
    Without a band, :meth:`walk` takes its shifts in stop-free stretches
    and adds them to the tallies in bulk at each stretch's end, and before
    it returns or raises, so the tallies are exact after every walk.
    """

    def __init__(self, cache: PlannerCache, rng: RandomSource | None = None,
                 concept: DbnConcept | None = None,
                 max_steps: int = 10_000_000):
        self.cache = cache
        self.random = _no_rng if rng is None else rng.random
        self.max_steps = self.limit = max_steps
        self.at = cache.index[cache.env.start_state]
        self.state_ids: list[int] = []
        self.action_ids: list[int] = []
        if concept is not None:
            cache.exposures(concept)
        n = 0 if concept is None else concept.n
        self.counts, self.successes = [0] * n, [0] * n
        self.truths = [1.0 - concept.cpt[0][(1,)]] + [
            concept.cpt[i][(1, 0)] for i in range(1, n)] if n else []
        self.rule, self.floor, self.band = None, None, False

    def walk(self, key, needed: int = 0) -> int:
        """Step from the current state by the move table of ``key`` (see
        :meth:`PlannerCache.move`) until the step its entry marks as the
        demonstration is taken, or, when ``needed`` (a bitmask of the
        parallel drive's unsatisfied factors) is given, until a shift
        changes it; returns ``needed``.

        Each step samples the next id from the state's running sums with
        one uniform (a certain move reads none), records the ids and, on
        a shift, adds the outcome to the tallies of the factors the state
        exposes. The drive then retests just those factors: one at its
        ``floor`` of samples, or, with ``band``, whose estimate is in the
        ``rule``'s band, is satisfied, and any other is needed (again).

        Without a band, a factor at its floor is never needed again, and a
        shift adds at most 1 to a count, so no shift of the next
        ``min(floor[f] - counts[f] for f in needed) - 1`` can change
        ``needed``. The drive takes such a stretch of shifts with no tally
        and no test, counting it down; at its end, :meth:`_tally` adds its
        shifts in bulk from the recorded ids, and the next stretch is
        measured. Once that length is 0, every shift is tallied and tested
        until ``needed`` changes. A pending stretch is tallied before the
        walk returns or raises, so it makes the same steps, tables, plans
        and stream reads, and leaves the same tallies, as step-by-step
        tests would. The step past ``max_steps``, or past the drive's
        ``limit``, raises :class:`StepLimitError` once it is taken."""
        cache = self.cache
        fill, ordered = cache.move, cache.ordered
        state_ids, action_ids = self.state_ids, self.action_ids
        counts, successes, truths = self.counts, self.successes, self.truths
        random, floor, band = self.random, self.floor, self.band
        satisfied = self.rule.satisfied if self.rule is not None else None
        drive, was = needed != 0, needed
        room = min(self.max_steps, self.limit) + 1 - len(state_ids)
        at = self.at
        # the needed factors whose floors bound the stop-free stretches
        needy = [] if band or not drive else [f for f in range(len(counts)) if needed >> f & 1]
        stretch = min([floor[f] - counts[f] for f in needy]) - 1 if needy else 0
        mark = len(state_ids)
        moves = cache.moves.get(key)
        if moves is None:
            moves = cache.moves[key] = [None] * cache.n
        try:
            for _ in range(room):
                k, nexts, sums, factors, shown = moves[at] or fill(key, at)
                i, at = at, nexts[bisect_right(sums, random())] if sums else nexts[0]
                state_ids.append(i)
                action_ids.append(k)
                if factors is not None:
                    if stretch:
                        stretch -= 1
                        if not stretch:
                            self._tally(mark, at)
                            mark = len(state_ids)
                            stretch = min([floor[f] - counts[f] for f in needy]) - 1
                        continue
                    now, nxt = ordered[i], ordered[at]
                    for f in factors:
                        count = counts[f] = counts[f] + 1
                        hits = successes[f] = successes[f] + (now[f] ^ nxt[f])
                        if drive and (count >= floor[f] or band and satisfied(
                                hits / count, truths[f])) == needed >> f & 1:
                            needed ^= 1 << f
                    if needed != was:
                        break
                # a drive's walk ends only where ``needed`` changes
                if shown and not drive:
                    break
        finally:
            self.at = at
            if stretch:
                self._tally(mark, at)
        if len(state_ids) > self.max_steps:
            raise StepLimitError(f"teaching exceeded {self.max_steps} steps")
        if len(state_ids) > self.limit:
            raise StepLimitError("parallel drive failed to satisfy its stop rule")
        return needed

    def _tally(self, start: int, at: int) -> None:
        """Add the shifts recorded from step ``start`` on, the last of
        which reached state id ``at``, to the tallies of the factors their
        states expose, in bulk (see :meth:`walk`): each shift counts the
        exposure bits of the state it left, and succeeds for an exposed
        factor whose bit differs in the next state."""
        cache = self.cache
        ids = np.array(self.state_ids[start:] + [at])
        shifts = np.array(self.action_ids[start:]) == cache.action_index["shift"]
        left, right = ids[:-1][shifts], ids[1:][shifts]
        exposed = cache.exposure_bits[left]
        counts = np.count_nonzero(exposed, axis=0).tolist()
        hits = np.count_nonzero(exposed & (cache.state_bits[left] != cache.state_bits[right]),
                                axis=0).tolist()
        for f in range(len(counts)):
            self.counts[f] += counts[f]
            self.successes[f] += hits[f]

    def sequence(self) -> TeachingSequence:
        cache = self.cache
        return TeachingSequence.from_ids(cache.env, cache.ordered, cache.actions,
                                         self.state_ids, self.action_ids,
                                         cache.ordered[self.at])


def _tour(demo: _Demonstration, targets: Sequence[TeachingTarget]) -> None:
    """Nearest-first tour: repeatedly navigate to the pending target
    with the fewest expected steps from the current state (ties go to the
    first in state, then action, encoding order) and execute its action,
    until every target is satisfied (see :func:`_target_satisfied`). Each
    visit is one walk of the move table of ``("to", state, k)``, whose
    entries follow the cache's expected-steps plan toward the target's
    state and take the target's action id ``k`` there, the walk's last
    step; in a deterministic environment that plan's values are
    breadth-first distances, so each leg is a shortest path."""
    cache = demo.cache
    visits = {id(t): 0 for t in targets}

    def distance_to(target: TeachingTarget) -> float:
        value = float(cache._plan(("to", target.state), target.state).values_by_id[demo.at])
        if value == float("inf"):
            raise UnreachableTargetError(f"target {target.state!r} unreachable")
        return value

    # ranked once: filtering a sorted list keeps it sorted
    pending = sorted(targets, key=lambda t: (_encode(t.state), _encode(t.action)))
    while True:
        pending = [t for t in pending
                   if not _target_satisfied(t, visits[id(t)], demo)]
        if not pending:
            break
        target = min(pending, key=distance_to)
        demo.walk(("to", target.state, cache.action_index[target.action]))
        visits[id(target)] += 1


def _parallel_drive(concept: DbnConcept, protocol: str, params: AccuracyParams,
                    demo: _Demonstration) -> None:
    """Tour loop for the parallel protocols: every probe is a shift taken
    from the nearest state that exposes every still-unsatisfied factor.

    Navigating to one fixed full-coverage state would cost an expected
    path through every stochastic gate per probe; once only a few factors
    remain needy, many nearby states expose all of them, so the parallel
    teachers keep probing at a few steps per sample. The fixed-budget
    variant needs one sample per deterministic factor and the Hoeffding
    budget per stochastic one; the stopping variant instead waits for
    every factor's pooled estimate to enter the epsilon/(2n) band.

    The unsatisfied factors are kept as a bitmask, ``needed``, and each
    of its values is one walk of the move table of ``("expose", needed,
    shift)``: a state that exposes all of them shifts, the
    demonstration, and any other follows the plan toward the states that
    do (see :meth:`PlannerCache.move`). The stop test runs after every
    shift, navigation shifts included, as they sample exposed conditions
    too; the walk ends at the shift that changes ``needed`` (see
    :meth:`_Demonstration.walk`).
    """
    if params is None:
        raise ValueError("noisy protocols need accuracy parameters")
    n = concept.n
    rule = dbn_stop_rule(concept, params)

    cache = demo.cache
    missing = np.flatnonzero(~cache.exposures(concept).any(axis=0)).tolist()
    if missing:
        raise UnteachableError(f"factors never exercised: {missing!r}")

    # a factor is satisfied outright at its cap, or for the fixed-budget
    # teacher at one sample when its shift is deterministic; the stopping
    # teacher also stops on the band
    counts, truths = demo.counts, demo.truths
    demo.rule, demo.band = rule, protocol == "nstd-par"
    demo.floor = [1 if protocol == "ntd-par" and truths[i] in (0.0, 1.0) else rule.cap
                  for i in range(n)]
    demo.limit = 100 * rule.cap * (n + 1) + n
    shift = cache.action_index["shift"]
    needed = sum(1 << i for i in range(n) if counts[i] < demo.floor[i])
    while needed:
        needed = demo.walk(("expose", needed, shift), needed=needed)


# ---------------------------------------------------------------------------
# Taxi teachers and learners


def consistent_precondition_learner(env: TaxiEnv, sequence: TeachingSequence,
                                    names: Iterable[str]
                                    ) -> dict[str, VersionSpace]:
    """Replay a teaching sequence through one version space per schema.
    Precondition teaching is complete when each space reports taught."""
    spaces = {name: VersionSpace(len(env.schemas[name].vocabulary))
              for name in names}
    for s in sequence.steps:
        name, binding = s.action
        if name in spaces:
            vector = env.ground(s.state, name, binding).vector
            spaces[name].observe(vector, s.observation)
    return spaces


def std_precondition_learner(env: TaxiEnv, sequence: TeachingSequence,
                             names: Iterable[str]
                             ) -> dict[str, MonotoneConjunction]:
    """Inference rule paired with the positives-only teacher: once the
    teacher stops, everything still true in every shown success must be
    relevant, so the hypothesis is the intersection of the success
    vectors. Failures are a protocol violation for the taught schemas."""
    masks: dict[str, list[int] | None] = {name: None for name in names}
    for s in sequence.steps:
        name, binding = s.action
        if name not in masks:
            continue
        if s.observation != 1:
            raise ValueError(
                f"positives-only protocol saw a failed {name!r} demonstration")
        vector = env.ground(s.state, name, binding).vector
        if masks[name] is None:
            masks[name] = list(vector)
        else:
            masks[name] = [m & v for m, v in zip(masks[name], vector)]
    out: dict[str, MonotoneConjunction] = {}
    for name, mask in masks.items():
        if mask is None:
            raise ValueError(f"no demonstration of {name!r} in the sequence")
        out[name] = MonotoneConjunction(
            len(mask), frozenset(i for i, v in enumerate(mask) if v == 1))
    return out


# ---------------------------------------------------------------------------
# sequential coin direction


def nsstd_coin_infer(flips: Sequence[int]) -> str:
    """Learner half of the coin-direction protocol: a one-flip sequence
    names the bias directly; a second flip reveals that the first outcome
    contradicted the bias (otherwise the teacher would have stopped), so
    the bias is the opposite of the first outcome, whatever the second
    flip shows."""
    if len(flips) == 1:
        return "heads" if flips[0] == 1 else "tails"
    if len(flips) == 2:
        return "tails" if flips[0] == 1 else "heads"
    raise ValueError("the coin-direction protocol emits one or two flips")


def nsstd_coin_direction(c: BernoulliConcept, rng: RandomSource
                         ) -> tuple[tuple[int, ...], str]:
    """Teacher half of the coin-direction protocol: stop after the first
    flip if it matches the bias direction, otherwise flip exactly once
    more and stop regardless of the outcome. Returns the flip sequence
    and the paired learner's inference, which always names the true
    direction."""
    if c.p_star == 0.5:
        raise ValueError("a fair coin has no bias direction to teach")
    direction = "heads" if c.p_star > 0.5 else "tails"
    first = 1 if rng.random() < c.p_star else 0
    first_dir = "heads" if first == 1 else "tails"
    if first_dir == direction:
        flips: tuple[int, ...] = (first,)
    else:
        second = 1 if rng.random() < c.p_star else 0
        flips = (first, second)
    return flips, nsstd_coin_infer(flips)
