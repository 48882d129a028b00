"""Breadth-first searches written on the environment itself, by states
and actions: the tests' reference for the expected-steps planner and the
tours in deterministic environments, where every plan value is a
breadth-first distance and every tour leg a shortest path. The shortest
path and the nearest-first visiting order are also C10's references."""

from collections import deque
from dataclasses import dataclass

from teachsim.mdp_teaching import UnreachableTargetError


@dataclass(frozen=True)
class PathPlan:
    """A shortest route to a goal: its actions and its length."""

    actions: tuple
    expected_length: float


def bfs(env, start, paths: dict):
    """Yield the states reachable from ``start`` in breadth-first order,
    ``start`` first, recording in ``paths`` the actions of a shortest path
    to each one as it is reached. A branching transition row raises
    ``ValueError``: the environment must be deterministic."""
    paths[start] = ()
    yield start
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a in env.actions(s):
            (s2,) = env.transition(s, a)
            if s2 not in paths:
                paths[s2] = paths[s] + (a,)
                yield s2
                queue.append(s2)


def shortest_path(env, start, goal) -> PathPlan:
    """Breadth-first shortest action sequence from ``start`` to any state
    satisfying ``goal`` (a predicate, or a state compared by equality)."""
    goal_pred = goal if callable(goal) else (lambda s, g=goal: s == g)
    paths: dict = {}
    for s in bfs(env, start, paths):
        if goal_pred(s):
            return PathPlan(paths[s], float(len(paths[s])))
    raise UnreachableTargetError(f"no path reaches the goal from {start!r}")


def nearest(env, start, states) -> tuple[int, tuple]:
    """Position in ``states`` of the one with the shortest breadth-first
    path from ``start`` (ties go to the earliest), and that path's
    actions."""
    paths: dict = {}
    pending = set(states)
    for s in bfs(env, start, paths):
        pending.discard(s)
        if not pending:
            break
    if pending:
        raise UnreachableTargetError(
            f"no path reaches {next(iter(pending))!r} from {start!r}")
    best = min(range(len(states)), key=lambda i: len(paths[states[i]]))
    return best, paths[states[best]]


def visit_order(env, start, target_states) -> tuple[list, float]:
    """Nearest-first visiting order over the target states, and its total
    path length."""
    pending = list(target_states)
    order: list = []
    total = 0.0
    current = start
    while pending:
        ranked = sorted(pending, key=repr)
        best, path = nearest(env, current, ranked)
        current = ranked[best]
        order.append(current)
        total += float(len(path))
        pending.remove(current)
    return order, total
