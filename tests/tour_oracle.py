"""The tests' reference for the package's tours: one call per step, which
samples the step's row with ``draw``, records it and tallies a shift,
and a parallel drive that chooses every step's action itself, as the
package ran them before its tours walked per-goal move tables.

Every leg of a tour follows the expected-steps plan's policy toward its
target. In a deterministic environment the oracle picks each target by
the breadth-first search of :mod:`search_oracle` instead of by the
plans' values, and checks that each leg is as long as the search's path.

It reads the package's planner cache (its sampling rows, plans, teaching
sets and exposures) and records, for every step, the key of the move
table the package walks it by, with the state it leaves (``left``), and
whether the step is the demonstration at the key's goal (``shown``): a
tour target's action at its state, or a drive's shift where the state
exposes every needed factor. A leg's navigation and its demonstration
share one key, ``("to", state, action id)`` for a tour and
``("expose", needed, shift id)`` for a drive."""

import search_oracle
from teachsim.concepts import DbnConcept
from teachsim.environments import draw
from teachsim.mdp_teaching import (
    StepLimitError,
    UnreachableTargetError,
    UnteachableError,
    _encode,
    _target_satisfied,
    build_teaching_set_greedy,
)
from teachsim.teachers import dbn_stop_rule


class Demonstration:
    """The steps a tour takes, by the cache's ids, with the pooled
    per-factor tallies of a DBN's shifts (see the package's
    ``_Demonstration``)."""

    def __init__(self, cache, rng=None, concept=None, max_steps=10_000_000):
        self.cache = cache
        self.rng = rng
        self.max_steps = max_steps
        self.at = cache.index[cache.env.start_state]
        self.state_ids, self.action_ids, self.left, self.shown = [], [], [], []
        if concept is not None:
            cache.exposures(concept)
        self.shift = None if concept is None else cache.action_index.get("shift")
        n = 0 if concept is None else concept.n
        self.counts, self.successes = [0] * n, [0] * n
        self.truths = [1.0 - concept.cpt[0][(1,)]] + [
            concept.cpt[i][(1, 0)] for i in range(1, n)] if n else []

    def execute(self, k, key, shown=False):
        """Take action ``k`` from the current state, the package's step
        by the move table of ``key``, marked as the demonstration when
        ``shown``; a shift adds each exposed factor's outcome to the
        pooled tallies."""
        i, cache = self.at, self.cache
        j = self.at = draw(cache.rows[i * cache.width + k] or cache.row(i, k), self.rng)
        self.state_ids.append(i)
        self.action_ids.append(k)
        self.left.append((key, i))
        self.shown.append(shown)
        if k == self.shift:
            mask = cache.exposure_masks[i]
            now, nxt = cache.ordered[i], cache.ordered[j]
            for f in range(cache.env.n):
                if mask >> f & 1:
                    self.counts[f] += 1
                    self.successes[f] += now[f] ^ nxt[f]
        if len(self.state_ids) > self.max_steps:
            raise StepLimitError(f"teaching exceeded {self.max_steps} steps")


def tour(demo, targets):
    """Nearest-first tour of the targets: walk the expected-steps plan's
    policy toward the nearest target's state, then take the target's
    action. A deterministic environment's nearest target is the
    breadth-first search's, and each leg must be as long as its path;
    any other's is the one of least expected steps."""
    cache = demo.cache
    visits = {id(t): 0 for t in targets}
    deterministic = all(len(dist) == 1 for dist in cache.dists if dist is not None)

    def distance_to(target):
        value = float(cache._plan(("to", target.state), target.state).values_by_id[demo.at])
        if value == float("inf"):
            raise UnreachableTargetError(f"target {target.state!r} unreachable")
        return value

    pending = list(targets)
    while pending:
        pending = [t for t in pending if not _target_satisfied(t, visits[id(t)], demo)]
        if not pending:
            break
        ranked = sorted(pending, key=lambda t: (_encode(t.state), _encode(t.action)))
        if deterministic:
            best, path = search_oracle.nearest(cache.env, cache.ordered[demo.at],
                                               [t.state for t in ranked])
            target = ranked[best]
        else:
            target = min(ranked, key=distance_to)
        policy = cache._plan(("to", target.state), target.state).action_ids
        goal, start = cache.index[target.state], len(demo.state_ids)
        k = cache.action_index[target.action]
        key = ("to", target.state, k)
        while demo.at != goal:
            demo.execute(policy[demo.at] - 1, key)
        if deterministic:
            assert len(demo.state_ids) - start == len(path), (target, path)
        demo.execute(k, key, shown=True)
        visits[id(target)] += 1
        if _target_satisfied(target, visits[id(target)], demo):
            pending.remove(target)


def parallel_drive(concept, protocol, params, demo):
    """Every step: shift where the state exposes every needed factor,
    else take the plan's action toward the states that do; after each
    shift retest the factors its state exposes."""
    n = concept.n
    rule = dbn_stop_rule(concept, params)
    cache = demo.cache
    exposed = cache.exposures(concept)
    masks = cache.exposure_masks
    missing = [f for f in range(n) if not exposed[:, f].any()]
    if missing:
        raise UnteachableError(f"factors never exercised: {missing!r}")
    counts, successes, truths = demo.counts, demo.successes, demo.truths
    floor = [1 if protocol == "ntd-par" and truths[i] in (0.0, 1.0) else rule.cap
             for i in range(n)]
    band = protocol == "nstd-par"
    shift = cache.action_index["shift"]
    needed = sum(1 << i for i in range(n) if counts[i] < floor[i])
    guard, limit = 0, 100 * rule.cap * (n + 1) + n
    while needed:
        i = demo.at
        key = ("expose", needed, shift)
        shown = not needed & ~masks[i]
        if shown:
            k = shift
        else:
            goal = exposed[:, [f for f in range(n) if needed >> f & 1]].all(axis=1)
            policy = (cache.plans.get(key[:2]) or cache._plan(key[:2], goal)).action_ids
            k = policy[i] - 1
            if k < 0:
                raise UnreachableTargetError(
                    "no reachable state exposes factors "
                    f"{[f for f in range(n) if needed >> f & 1]!r}")
        demo.execute(k, key, shown)
        if k == shift:
            for f in range(n):
                if masks[i] >> f & 1:
                    count = counts[f]
                    if (count >= floor[f] or (band and rule.satisfied(
                            successes[f] / count, truths[f]))) == bool(needed >> f & 1):
                        needed ^= 1 << f
        guard += 1
        if guard > limit:
            raise StepLimitError("parallel drive failed to satisfy its stop rule")


def teach(concept, protocol, params, rng, cache, max_steps=10_000_000):
    """A tour under ``protocol`` on ``cache``, of a DBN or of Taxi
    preconditions: the finished (or, on an error, the interrupted)
    demonstration, and the error or None."""
    demo = Demonstration(cache, rng, concept if isinstance(concept, DbnConcept) else None,
                         max_steps)
    try:
        if protocol in ("ntd-par", "nstd-par"):
            parallel_drive(concept, protocol, params, demo)
        else:
            tour(demo, build_teaching_set_greedy(concept, cache, protocol, params))
    except (RuntimeError, ValueError) as exc:
        return demo, exc
    return demo, None
