import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cover_oracle
import search_oracle
import tour_oracle
from dbn_oracle import identifying
from tour_oracle import loop_next
from teachsim.concepts import BernoulliConcept, DbnConcept
from teachsim.core import AccuracyParams, RandomSource
from teachsim.environments import (
    BitflipEnv,
    Mdp,
    TaxiEnv,
    TeachingSequence,
    reachable_closure,
)
from teachsim.mdp_teaching import (
    PlannerCache,
    TeachingTarget,
    UnconvergedPlanError,
    UnreachableTargetError,
    UnteachableError,
    build_teaching_set_greedy,
    consistent_precondition_learner,
    expected_steps_planner,
    greedy_set_cover,
    nsstd_coin_direction,
    nsstd_coin_infer,
    std_precondition_learner,
    teach_in_mdp,
    _Demonstration,
    _encode,
    _parallel_drive,
    _tour,
)
from teachsim.teachers import UnteachablePlanError, dbn_stop_rule


def grid_mdp(width, height, start=(0, 0)):
    """Deterministic open grid with a no-op 'mark' action at every cell."""
    transitions = {}
    for x in range(width):
        for y in range(height):
            transitions[((x, y), "mark")] = {(x, y): 1.0}
            for name, (dx, dy) in (("n", (0, 1)), ("s", (0, -1)),
                                   ("e", (1, 0)), ("w", (-1, 0))):
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    transitions[((x, y), name)] = {(nx, ny): 1.0}
    return Mdp(transitions, None, start)


def policy_path(env, plan, start, goal):
    """The actions a plan's policy takes in the deterministic ``env``
    from ``start`` until it stands in the goal set (a predicate, or a
    state compared by equality)."""
    reached = goal if callable(goal) else (lambda s: s == goal)
    actions, state = [], start
    while not reached(state):
        action = plan.policy[state]
        (state,) = env.transition(state, action)
        actions.append(action)
    return tuple(actions)


@st.composite
def deterministic_mdps(draw):
    """A random deterministic Mdp on up to 7 integer states, each with up
    to 3 of the actions a, b and c, listed in a random order, and a list
    of goal states, some of them perhaps outside the closure."""
    n = draw(st.integers(1, 7))
    transitions = {}
    for s in range(n):
        for a in draw(st.permutations("abc"))[:draw(st.integers(0, 3))]:
            transitions[(s, a)] = {draw(st.integers(0, n - 1)): 1.0}
    goals = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return Mdp(transitions, None, 0), goals


class TestPlansAsShortestPaths:
    """In a deterministic environment the expected-steps plan is a
    shortest-path search: its value at every state of the closure is the
    breadth-first distance to the goal (``search_oracle``), infinite
    where no path reaches it, and its policy walks a path that long."""

    @staticmethod
    def check_plan(env, cache, goal):
        plan = expected_steps_planner(env, goal, cache=cache)
        assert plan.converged
        for start in cache.ordered:
            value = plan.values[start]
            try:
                length = search_oracle.shortest_path(env, start, goal).expected_length
            except UnreachableTargetError:
                assert value == float("inf") and start not in plan.policy
                continue
            assert value == length
            assert len(policy_path(env, plan, start, goal)) == length

    def test_manhattan_on_open_grid(self):
        env = grid_mdp(5, 5)
        plan = expected_steps_planner(env, (0, 0))
        assert plan.values[(2, 2)] == 4.0
        assert len(policy_path(env, plan, (2, 2), (0, 0))) == 4

    def test_bitflip_all_ones(self):
        # equal candidates go to the first action in the cache's order
        env = BitflipEnv(3, (1.0, 1.0, 1.0))
        plan = expected_steps_planner(env, (1, 1, 1))
        assert policy_path(env, plan, (0, 0, 0), (1, 1, 1)) == (
            "flip0", "shift", "flip0", "shift", "flip0")

    def test_unreachable(self):
        # "a" is in the closure, but no path leads back to it from "b"
        m = Mdp({("a", "go"): {"b": 1.0}, ("b", "stay"): {"b": 1.0}}, None, "a")
        plan = expected_steps_planner(m, "a")
        assert plan.values == {"a": 0.0, "b": float("inf")} and plan.policy == {}

    @given(deterministic_mdps())
    @settings(max_examples=200, deadline=None)
    def test_random_mdps_plan_as_the_env_search(self, drawn):
        env, goals = drawn
        cache = PlannerCache(env)
        for goal in goals:
            if goal in cache.index:
                self.check_plan(env, cache, goal)
            else:
                with pytest.raises(UnreachableTargetError):
                    expected_steps_planner(env, goal, cache=cache)
        if any(g in cache.index for g in goals):
            self.check_plan(env, cache, lambda s: s in goals)

    def test_taxi_plans_as_the_env_search_from_every_state(self):
        env = TaxiEnv()
        # the oracle reads every transition again on each search, so this
        # test memoizes them
        env.transition = functools.cache(env.transition)
        cache = PlannerCache(env)
        # corners at equal distances from the centre, the passenger
        # aboard, and a goal set
        for goal in (((0, 0), "L0"), ((4, 4), "L0"), ((0, 4), "L0"), ((4, 0), "L0"),
                     ((2, 2), "taxi"), ((4, 4), "L1"), lambda s: s[0] == (0, 0)):
            self.check_plan(env, cache, goal)


class TestTourOrder:
    """A tour goes next to the pending target of fewest expected steps,
    and among equal distances to the first in (state, action) encoding
    order."""

    @staticmethod
    def toured(env, states):
        """The states a tour of 'mark' targets at ``states`` marks, in
        order, and every action it takes."""
        demo = _Demonstration(PlannerCache(env))
        _tour(demo, [TeachingTarget(s, "mark", frozenset()) for s in states])
        steps = demo.sequence().steps
        return [s.state for s in steps if s.action == "mark"], [s.action for s in steps]

    def test_ties_go_to_the_earliest_target(self):
        env = grid_mdp(3, 3, start=(1, 1))
        for states in ([(1, 2), (0, 1)], [(0, 1), (1, 2)]):
            assert self.toured(env, states) == (
                [(0, 1), (1, 2)], ["w", "mark", "e", "n", "mark"])
        # a later-ranked target that is nearer still wins
        assert self.toured(env, [(0, 0), (1, 0)])[0] == [(1, 0), (0, 0)]

    def test_a_target_no_path_reaches_is_refused(self):
        # from "s" both targets are one step away; the tour goes to "a"
        # first, from where "b" cannot be reached
        m = Mdp({("s", "l"): {"a": 1.0}, ("s", "r"): {"b": 1.0},
                 ("a", "mark"): {"a": 1.0}, ("b", "mark"): {"b": 1.0}}, None, "s")
        with pytest.raises(UnreachableTargetError, match="'b' unreachable"):
            self.toured(m, ["b", "a"])


class TestExpectedStepsPlanner:
    def test_goal_state_is_zero(self):
        env = grid_mdp(3, 3)
        plan = expected_steps_planner(env, (0, 0))
        assert plan.values[(0, 0)] == 0.0

    def test_geometric_chain(self):
        for q in (0.5, 0.2, 0.9):
            m = Mdp({("s", "try"): {"t": q, "s": 1.0 - q},
                     ("t", "stay"): {"t": 1.0}}, None, "s")
            plan = expected_steps_planner(m, "t")
            assert plan.converged
            assert plan.values["s"] == pytest.approx(1.0 / q, abs=1e-6)

    def test_agrees_with_bfs_on_deterministic(self):
        env = BitflipEnv(4, (1.0, 1.0, 1.0, 1.0))
        states = {s for s, _, _ in reachable_closure(env)}
        goal = (1, 0, 1, 0)
        plan = expected_steps_planner(env, goal)
        for s in states:
            bfs = search_oracle.shortest_path(env, s, goal)
            assert plan.values[s] == pytest.approx(bfs.expected_length, abs=1e-9)

    def test_bellman_residual_at_fixpoint(self):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        goal = (1, 1, 1, 1)
        plan = expected_steps_planner(env, goal)
        assert plan.converged
        for s, v in plan.values.items():
            if s == goal or v == float("inf"):
                continue
            best = min(
                1.0 + sum(p * plan.values[s2]
                          for s2, p in env.transition(s, a).items())
                for a in env.actions(s))
            assert abs(v - best) < 1e-9

    def test_unreachable_flagged_infinite(self):
        # "a" is reachable from the start but cannot reach "b"
        m = Mdp({("s", "go"): {"a": 0.5, "b": 0.5}, ("a", "stay"): {"a": 1.0},
                 ("b", "stay"): {"b": 1.0}}, None, "s")
        plan = expected_steps_planner(m, "b")
        assert plan.values["a"] == float("inf")
        assert "a" not in plan.policy

    @pytest.mark.parametrize("factors, prefix", [
        ({4}, "4ed4fb8ac6f78219"),
        ({3}, "cc20340174098111"),
        ({2}, "dbb998d537b04044"),
        ({5}, "69ddf79af947486f"),
        ({0, 1}, "932e788800a28f36"),
    ])
    def test_exact_output_pinned(self, factors, prefix):
        # bit-for-bit values and policy on a register with three noisy
        # bits, where rounding decides ties between flip0 and shift
        env = BitflipEnv(8, [0.3 if i in (1, 4, 6) else 1.0 for i in range(8)])
        states = {s for s, _, _ in reachable_closure(env)}
        exposes = {s: frozenset(identifying(s)) for s in states}
        plan = expected_steps_planner(env, lambda s: factors <= exposes[s])
        text = repr((sorted(plan.values.items()), sorted(plan.policy.items()),
                     plan.converged))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix

    def test_values_and_policy_match_an_exact_policy_evaluation(self):
        # on a stochastic register, solve the linear system of each plan's
        # own policy, V = 1 + P V off the goal and 0 on it. Value iteration
        # stops at a residual of 1e-9, and a proper policy's evaluation
        # amplifies a residual by at most its largest expected step count,
        # so both checks allow 4e-9 times that count.
        env = BitflipEnv(7, [0.3, 1.0, 0.45, 1.0, 0.7, 1.0, 0.6])
        states = sorted({s for s, _, _ in reachable_closure(env)})
        assert len(states) == 2 ** 7
        exposes = {s: frozenset(identifying(s)) for s in states}
        goals = [(1, 0, 1, 0, 1, 0, 1), (1, 1, 1, 1, 1, 1, 1), (0, 0, 1, 1, 0, 0, 1),
                 lambda s: {2, 4, 6} <= exposes[s], lambda s: {0, 4} <= exposes[s]]
        for goal in goals:
            is_goal = goal if callable(goal) else (lambda s, g=goal: s == g)
            plan = expected_steps_planner(env, goal)
            assert plan.converged
            off_goal = [s for s in states if not is_goal(s)]
            assert set(plan.policy) == set(off_goal)
            row = {s: r for r, s in enumerate(off_goal)}
            system = np.eye(len(off_goal))
            for s in off_goal:
                for s2, p in env.transition(s, plan.policy[s]).items():
                    if s2 in row:
                        system[row[s], row[s2]] -= p
            solved = np.linalg.solve(system, np.ones(len(off_goal)))
            exact = {s: 0.0 for s in states if is_goal(s)}
            exact.update(zip(off_goal, solved.tolist()))
            slack = 4e-9 * max(exact.values())
            for s in off_goal:
                assert abs(plan.values[s] - exact[s]) <= slack, (goal, s)
                lookahead = [1.0 + sum(p * exact[s2] for s2, p in env.transition(s, a).items())
                             for a in env.actions(s)]
                assert abs(exact[s] - min(lookahead)) <= slack, (goal, s)

    @staticmethod
    def random_mdp(seed, caps, n=48):
        """Seeded Mdp on states 0..n-1. Action k's rows have 1 to
        ``caps[k]`` next states with random probabilities. States n-3..n-1
        only move among themselves, so every goal outside them leaves them
        infinite, and the "b" and "c" rows that can enter them are infinite
        under that action. The other states always have "a", whose row
        holds the next state on a ring through them, so each has a proper
        policy. About a quarter of the states lack "b", as many "c", and
        the trapped ones may lack "a" too. State 0's "c" row is a single
        move of probability just under 1."""
        rng = np.random.default_rng(seed)
        transitions = {}
        for s in range(n):
            for k, cap in enumerate(caps):
                trap = s >= n - 3
                if (k or trap) and rng.random() < 0.25:
                    continue
                pool = list(range(n - 3, n)) if trap else list(range(n - 3 if k == 0 else n))
                width = int(rng.integers(1, min(cap, len(pool)) + 1))
                nexts = rng.choice(pool, size=width, replace=False).tolist()
                if k == 0 and not trap and (s + 1) % (n - 3) not in nexts:
                    nexts[0] = (s + 1) % (n - 3)
                probs = rng.random(width) + 0.05
                transitions[(s, "abc"[k])] = dict(zip(nexts, (probs / probs.sum()).tolist()))
        transitions[(0, "c")] = {5: 1.0 - 2.0 ** -40}
        return Mdp(transitions, None, 0)

    def test_random_mixed_width_plans_pinned(self):
        # bit-for-bit values, policy by ids and convergence on random
        # tables whose rows have mixed widths: under 8 they are summed from
        # left to right, from 8 pairwise, and unavailable actions and
        # states that cannot reach the goal are infinite
        h = hashlib.sha256()
        widths = {}
        for seed, caps in enumerate([(10, 7, 3), (6, 10, 1), (5, 4, 10), (10, 10, 2)]):
            env = self.random_mdp(seed, caps)
            for s in range(48):
                for a in env.actions(s):
                    widths.setdefault((seed, a), set()).add(len(env.transition(s, a)))
            # the last goal holds every state with a row 8 or more wide, so
            # that the live rows are narrower than their action's table
            for goal in (7, 0, lambda s: s % 5 == 4, lambda s: s in (11, 30, 41),
                         lambda s: any(len(env.transition(s, a)) >= 8
                                       for a in env.actions(s))):
                plan = expected_steps_planner(env, goal)
                assert plan.converged and set(plan.values) == set(range(48))
                assert [plan.values[s] for s in (45, 46, 47)] == [float("inf")] * 3
                h.update(repr((sorted(plan.values.items()), bytes(plan.action_ids),
                               plan.converged)).encode())
        # both summation orders, on mixed widths, are exercised
        assert any(max(w) < 8 and len(w) >= 4 for w in widths.values())
        assert sum(max(w) >= 8 and len(w) >= 8 for w in widths.values()) >= 2
        assert h.hexdigest() == (
            "5c5d760a85d14af450633d81df7ea03a80faa2f8dde5007aa8181e408a146a4d")

    def test_cached_tables_plan_like_a_standalone_build(self):
        env = BitflipEnv(5, (1.0, 0.5, 1.0, 0.25, 1.0))
        cache = PlannerCache(env)
        for goal in ((1, 0, 1, 0, 1), (1, 1, 1, 1, 1), (0, 0, 0, 1, 1)):
            assert (expected_steps_planner(env, goal, cache=cache)
                    == expected_steps_planner(env, goal))
        with pytest.raises(ValueError):
            expected_steps_planner(BitflipEnv(5, env.shift_success), (0,) * 5,
                                   cache=cache)


class _Uniforms:
    """A stream that returns one fixed uniform and counts its draws."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


class TestCompiledSampling:
    """A tour's walk samples from the planner cache's rows over state ids,
    which are in ``repr`` order. It must pick the oracle's next state
    (see :func:`tour_oracle.loop_next`), over states, for the same
    uniform."""

    @staticmethod
    def walk_row(cache, i, k, u):
        """The next state and the uniforms read when the walk takes action
        id ``k`` from state id ``i`` once, by a move table whose entry
        there is that row's demonstration, every uniform ``u``."""
        rng = _Uniforms(u)
        demo = _Demonstration(cache, rng)
        demo.at = i
        key = ("row", i, k)
        cache.moves[key] = [None] * cache.n
        cache.moves[key][i] = (k, *cache.row(i, k), None, True)
        demo.walk(key)
        return cache.ordered[demo.at], rng.draws

    @classmethod
    def check(cls, env, uniforms_of):
        """Check every row of the closure of ``env``; returns its states."""
        cache = PlannerCache(env)
        for i, s in enumerate(cache.ordered):
            for a in env.actions(s):
                dist = env.transition(s, a)
                for u in uniforms_of(dist):
                    rng = _Uniforms(u)
                    expected = loop_next(dist, rng.random), rng.draws
                    got = cls.walk_row(cache, i, cache.action_index[a], u)
                    assert got == expected, (s, a, u)
        return cache.ordered

    @staticmethod
    def uniforms(dist):
        sums = list(itertools.accumulate(p for _, p in sorted(dist.items())))
        return [0.0, 0.05, 0.3, 0.5, 0.77, 0.95, 1.0 - 2.0 ** -53] + sums

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_mdps(self, data):
        # ints 5..14 sort differently by value and by repr ("10" < "9")
        states = data.draw(st.lists(st.integers(5, 14), min_size=2, max_size=6,
                                    unique=True))
        transitions = {}
        for s in states:
            for a in data.draw(st.lists(st.sampled_from("xyz"), min_size=1,
                                        max_size=2, unique=True)):
                support = data.draw(st.lists(st.sampled_from(states), min_size=1,
                                             max_size=4, unique=True))
                weights = data.draw(st.lists(st.integers(1, 9), min_size=len(support),
                                             max_size=len(support)))
                row = {t: w / sum(weights) for t, w in zip(support, weights)}
                if len(row) > 1 and data.draw(st.booleans()):
                    # a row summing to just under 1
                    row[support[0]] -= 5e-10
                transitions[(s, a)] = row
        extra = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        # one closure per start state, so that every state is checked
        for start in states:
            self.check(Mdp(transitions, None, start),
                       lambda dist: self.uniforms(dist) + [extra])

    def test_rounding_fallback_picks_the_most_probable_state(self):
        env = Mdp({(9, "x"): {9: 0.3, 10: 0.7 - 5e-10}, (10, "x"): {10: 1.0}},
                  None, 9)
        u = 1.0 - 2.0 ** -53
        assert 0.3 + (0.7 - 5e-10) <= u
        cache = PlannerCache(env)
        assert self.walk_row(cache, cache.index[9], cache.action_index["x"], u) == (10, 1)
        assert self.check(env, self.uniforms) == [10, 9]

    def test_every_row_of_a_noisy_bitflip(self):
        env = BitflipEnv(6, [1.0, 0.3, 1.0, 0.6, 0.55, 1.0])
        assert len(self.check(env, self.uniforms)) == 64


class TestGreedySetCover:
    def test_single_parameter_single_target(self):
        assert greedy_set_cover(np.array([[True]]), ["p"]) == [0]

    def test_prefers_double_coverage(self):
        # rows: both, only a, only b
        cover = np.array([[True, True], [True, False], [False, True]])
        assert greedy_set_cover(cover, ["a", "b"]) == [0]

    def test_uncoverable_raises(self):
        with pytest.raises(UnteachableError, match=r"\['b'\]"):
            greedy_set_cover(np.array([[True, False]]), ["a", "b"])

    def test_tie_break_first_row(self):
        assert greedy_set_cover(np.array([[True], [True]]), ["a"]) == [0]
        cover = np.array([[False, True], [True, False], [True, False]])
        assert greedy_set_cover(cover, ["a", "b"]) == [0, 1]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_picks_as_the_set_oracle(self, data):
        # random matrices with tied (repeated) rows and all-false columns:
        # the same rows in the same order as the set-based cover, whose
        # rows are named so that their encodings rank them in row order,
        # or the same error. The items are numbers whose encodings rank
        # them apart from their values
        n_rows, n_cols = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols),
                                  min_size=n_rows, max_size=n_rows))
        for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
            copy = rows[data.draw(st.integers(0, len(rows) - 1))]
            rows.insert(data.draw(st.integers(0, len(rows))), list(copy))
        cover = np.array(rows, dtype=bool).reshape(len(rows), n_cols)
        empty = data.draw(st.sets(st.integers(0, n_cols - 1), max_size=2)) if n_cols else set()
        cover[:, sorted(empty)] = False
        items = [7 * c for c in range(n_cols)]
        names = [f"r{r:02d}" for r in range(len(cover))]
        candidates = [(name, frozenset(items[c] for c in np.flatnonzero(row)))
                      for name, row in zip(names, cover)]
        try:
            want = [names.index(name) for name in cover_oracle.greedy_set_cover(
                items, candidates)]
        except UnteachableError as exc:
            with pytest.raises(UnteachableError) as got:
                greedy_set_cover(cover, items)
            assert str(got.value) == str(exc)
        else:
            assert greedy_set_cover(cover, items) == want

    def test_taxi_pair_ids_rank_as_the_pair_encodings(self):
        # the Taxi covers break ties by pair id, that is by (_encode(state),
        # _encode(action)), where the set-based cover ranked candidates by
        # _encode((state, action)); the two agree on every closure pair, as
        # no Taxi state's encoding is a proper prefix of another's
        env = TaxiEnv()
        cache = PlannerCache(env)
        pairs = [(s, cache.actions[k])
                 for s, ks in zip(cache.ordered, cache.state_actions) for k in sorted(ks)]
        assert len(pairs) == sum(map(len, cache.state_actions))
        assert sorted(pairs, key=_encode) == pairs
        encodings = [_encode(s) for s in cache.ordered]
        assert not any(b.startswith(a) for a, b in zip(encodings, encodings[1:]))
        build_teaching_set_greedy(env.true_preconditions(), cache, "td")
        assert sorted(cache.groundings) == sorted(env.schemas)
        for ids, labels, preds in cache.groundings.values():
            assert (np.diff(ids) > 0).all() and len(labels) == len(preds) == len(ids)


class TestGreedyVisitOrder:
    def test_visits_all_and_records_ratio_vs_bruteforce(self):
        env = grid_mdp(6, 6)
        targets = [(5, 0), (0, 5), (3, 3), (5, 5), (1, 4), (4, 1), (2, 0)]
        order, greedy_len = search_oracle.visit_order(env, (0, 0), targets)
        assert sorted(order) == sorted(targets)

        def dist(a, b):
            return abs(a[0] - b[0]) + abs(a[1] - b[1])

        best = min(
            sum(dist(a, b) for a, b in zip(((0, 0),) + perm, perm))
            for perm in itertools.permutations(targets))
        ratio = greedy_len / best
        assert ratio >= 1.0 - 1e-9
        # no bound asserted for the heuristic; the ratio is just recorded
        print(f"greedy tour ratio vs brute force: {ratio:.3f}")


class TestBuildTeachingSetGreedy:
    def test_taxi_pickup_cover_shape(self):
        env = TaxiEnv()
        concept = env.true_preconditions(("pickup",))
        targets = build_teaching_set_greedy(concept, PlannerCache(env), "td")
        relevant = env.schemas["pickup"].relevant
        labels = [env.observation(t.state, t.action) for t in targets]
        assert any(lab == 1 for lab in labels)
        # each relevant predicate gets an isolating failure
        iso = {p for t in targets for p in t.covers if p[0] == "iso"}
        assert iso == {("iso", "pickup", i) for i in relevant}
        # and a swapped-argument grounding shows up among the failures
        failures = [t for t, lab in zip(targets, labels) if lab == 0]
        assert any(t.action[1] != ("taxi", "passenger", "L0") for t in failures)

    def test_dbn_par_cover_is_single_full_exposure_state(self):
        # the parallel protocols have no fixed teaching set; their drive
        # finds one reachable state that exposes every factor at once
        env = BitflipEnv(5, (1.0, 0.5, 1.0, 0.5, 1.0))
        concept = env.shift_concept()
        params = AccuracyParams(0.4, 0.05)
        cache = PlannerCache(env)
        for protocol in ("ntd-par", "nstd-par"):
            with pytest.raises(ValueError, match="as they go"):
                build_teaching_set_greedy(concept, cache, protocol, params)
        teach_in_mdp(concept, env, "ntd-par", params, RandomSource(1, 1),
                     planner_cache=cache)
        full = [cache.ordered[i] for i, mask in enumerate(cache.exposure_masks)
                if mask == (1 << 5) - 1]
        assert full == [(1, 0, 1, 0, 1)]

    def test_taxi_std_approx_set_is_positives_only(self):
        # one success per schema that shows the fewest stray predicates,
        # then successes that dispel every one of them, and no failure
        env = TaxiEnv()
        names = ("pickup", "dropoff")
        targets = build_teaching_set_greedy(env.true_preconditions(names),
                                            PlannerCache(env), "std-approx")
        assert all(env.observation(t.state, t.action) == 1 for t in targets)
        for name in names:
            conj = env.schemas[name].precondition()
            vectors = [env.ground(t.state, name, t.action[1]).vector
                       for t in targets if t.action[0] == name]
            assert vectors
            assert {j for j in range(conj.n) if all(v[j] for v in vectors)} == conj.relevant

    def test_dbn_refuses_the_deterministic_protocols(self):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        for protocol in ("td", "std-approx"):
            with pytest.raises(ValueError, match="noisy protocol"):
                build_teaching_set_greedy(env.shift_concept(), PlannerCache(env),
                                          protocol, AccuracyParams(0.4, 0.05))

    def test_dbn_ind_targets_per_factor(self):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        concept = env.shift_concept()
        targets = build_teaching_set_greedy(concept, PlannerCache(env), "nstd-ind",
                                            AccuracyParams(0.4, 0.05))
        assert len(targets) == 4
        covered = frozenset().union(*(t.covers for t in targets))
        assert covered == frozenset(range(4))
        stochastic = {1, 3}
        for t in targets:
            (factor,) = t.covers
            # the probe state exposes its own factor and no other
            # stochastic one
            exposed = set(identifying(t.state))
            assert factor in exposed
            assert not exposed & (stochastic - {factor})

    def test_teaching_sets_are_pinned(self):
        # every Taxi action set under both precondition protocols, and the
        # nstd-ind set of registers of 1 to 8 bits
        from teachsim.harness import TAXI_ACTION_SETS
        h = hashlib.sha256()

        def pin(targets):
            h.update(repr([(t.state, t.action, sorted(t.covers, key=repr))
                           for t in targets]).encode())

        taxi = TaxiEnv()
        cache = PlannerCache(taxi)
        for names in TAXI_ACTION_SETS.values():
            for protocol in ("td", "std-approx"):
                pin(build_teaching_set_greedy(taxi.true_preconditions(names),
                                              cache, protocol))
        for n in (1, 2, 3, 5, 8):
            env = TestDbnExposureTable.register(n)
            pin(build_teaching_set_greedy(env.shift_concept(), PlannerCache(env),
                                          "nstd-ind", AccuracyParams(0.4, 0.05)))
        assert h.hexdigest() == (
            "d7c813621e2713e4fc9ce2826d9f8d209f397aa819ec0f8d3ed0652f9d6c3aec")


class TestDbnExposureTable:
    """The exposure bitmasks against the tests' per-state oracle, on
    registers of 1 to 12 bits with random shift probabilities."""

    @staticmethod
    def register(n):
        rng = np.random.default_rng(n)
        success = [float(rng.uniform(0.1, 0.9)) if rng.random() < 0.4 else 1.0
                   for _ in range(n)]
        return BitflipEnv(n, success)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_table_matches_the_per_state_rule(self, n):
        from teachsim.mdp_teaching import _dbn_exposure_masks
        states = list(itertools.product((0, 1), repeat=n))
        bits, exposed = _dbn_exposure_masks(states, n)
        assert exposed.shape == (2 ** n, n)
        assert bits.tolist() == [[b == 1 for b in s] for s in states]
        for s, row in zip(states, exposed.tolist()):
            assert row == [i in identifying(s) for i in range(n)], s

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cover_keeps_the_per_state_ranking(self, n):
        # the ranking the table replaced: fewest other stochastic factors
        # exposed, then fewest factors exposed, then the smallest repr
        env = self.register(n)
        concept, params = env.shift_concept(), AccuracyParams(0.4, 0.05)
        shift_states = sorted({s for s, actions, _ in reachable_closure(env)
                               if "shift" in actions}, key=repr)
        exposures = {s: identifying(s) for s in shift_states}
        stochastic = {i for i in range(n)
                      if any(q not in (0.0, 1.0) for q in concept.cpt[i].values())}
        expected = [min((s for s in shift_states if i in exposures[s]), key=lambda s: (
            sum(1 for j in exposures[s] if j != i and j in stochastic),
            len(exposures[s]), repr(s))) for i in range(n)]
        targets = build_teaching_set_greedy(concept, PlannerCache(env), "nstd-ind", params)
        assert [t.state for t in targets] == expected
        assert [t.covers for t in targets] == [frozenset({i}) for i in range(n)]
        assert {t.action for t in targets} == {"shift"}

    def test_tours_share_the_exposure_pairs(self):
        # the tours of one cache share what each state exposes: its
        # factors, kept from the state's first shift on. Which of them a
        # shift complements follows from the state's own bits: factor f
        # exactly where bit f is 1
        env = BitflipEnv(8, [0.75 if i in (4, 6) else 1.0 for i in range(8)])
        cache = PlannerCache(env)

        def tours():
            for protocol in ("nstd-ind", "ntd-par"):
                teach_in_mdp(env.shift_concept(), env, protocol, AccuracyParams(0.4, 0.05),
                             RandomSource(5, 1), planner_cache=cache)

        tours()
        assert len(cache.exposed) == 256
        built = [(s, factors) for s, factors in zip(cache.ordered, cache.exposed)
                 if factors is not None]
        assert built
        for s, factors in built:
            assert factors == tuple(identifying(s))
        for s in cache.ordered:
            for f, a in identifying(s).items():
                assert (a == (1,) if f == 0 else a == (0, 1)) == (s[f] == 1)
        kept = list(cache.exposed)
        tours()
        assert all(factors is kept[i] for i, factors in enumerate(cache.exposed)
                   if kept[i] is not None)


class TestTeachInMdp:
    def test_sequence_is_transition_legal(self):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        seq = teach_in_mdp(env.shift_concept(), env, "nstd-par",
                           AccuracyParams(0.4, 0.05), RandomSource(1, 1))
        state = env.start_state
        for s in seq.steps:
            assert s.state == state
            assert env.transition(s.state, s.action).get(s.next_state, 0.0) > 0.0
            state = s.next_state
        assert seq.final_state == state

    def test_taxi_td_teaches_exactly(self):
        env = TaxiEnv()
        cache = PlannerCache(env)
        for names in (("pickup",), ("up", "down", "left", "right")):
            seq = teach_in_mdp(env.true_preconditions(names), env, "td",
                               planner_cache=cache)
            spaces = consistent_precondition_learner(env, seq, names)
            for name in names:
                assert spaces[name].is_taught
                assert spaces[name].hypothesis() == env.schemas[name].precondition()

    def test_singleton_adjacent_target_is_short(self):
        env = TaxiEnv()
        # teaching 'up' alone: positives on the way plus one isolating
        # failure at the top wall; the tour stays local
        seq = teach_in_mdp(env.true_preconditions(("up",)), env, "td")
        assert 0 < len(seq) <= 20

    def test_mandatory_demonstration_of_every_target(self):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        concept = env.shift_concept()
        targets = build_teaching_set_greedy(concept, PlannerCache(env), "nstd-ind",
                                            AccuracyParams(0.4, 0.05))
        seq = teach_in_mdp(concept, env, "nstd-ind",
                           AccuracyParams(0.4, 0.05), RandomSource(2, 5))
        demonstrated = {(s.state, s.action) for s in seq.steps}
        for t in targets:
            assert (t.state, t.action) in demonstrated

    @pytest.mark.parametrize("protocol", ["ntd-par", "nstd-par", "nstd-ind"])
    def test_stochastic_tour_without_an_rng_raises(self, protocol):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        with pytest.raises(ValueError, match="requires an rng"):
            teach_in_mdp(env.shift_concept(), env, protocol, AccuracyParams(0.4, 0.05))

    @pytest.mark.parametrize("protocol", ["ntd-par", "nstd-par", "nstd-ind"])
    def test_tour_leaves_its_stream_after_its_stochastic_steps(self, protocol):
        # one uniform per stochastic step, read in blocks: after the tour,
        # and after a tour stopped by max_steps, the stream stands where a
        # fresh one skipped by that many stands
        env = BitflipEnv(5, (1.0, 0.5, 1.0, 0.3, 1.0))
        concept, params = env.shift_concept(), AccuracyParams(0.4, 0.05)
        cache = PlannerCache(env)

        def stochastic(steps):
            return sum(len(env.transition(s.state, s.action)) > 1 for s in steps)

        def stands_after(rng, skipped):
            fresh = RandomSource(6, 1)
            fresh.skip(skipped)
            return (rng.random_block(5).tolist() == fresh.random_block(5).tolist()
                    and rng.random() == fresh.random())

        rng = RandomSource(6, 1)
        seq = teach_in_mdp(concept, env, protocol, params, rng, planner_cache=cache)
        assert stochastic(seq.steps) > 0
        assert stands_after(rng, stochastic(seq.steps))
        for cut in (0, 1, len(seq) // 2, len(seq) - 2):
            rng = RandomSource(6, 1)
            with pytest.raises(RuntimeError, match="exceeded"):
                teach_in_mdp(concept, env, protocol, params, rng,
                             planner_cache=cache, max_steps=cut)
            assert stands_after(rng, stochastic(seq.steps[:cut + 1])), cut

    @staticmethod
    def emitted_digest(sequences):
        """SHA-256 over every step of the sequences, bit for bit, and each
        one's final state and length."""
        h = hashlib.sha256()
        for seq in sequences:
            for s in seq.steps:
                h.update(repr((s.state, s.action, s.reward, s.observation,
                               s.next_state)).encode())
            h.update(repr(("final", seq.final_state, len(seq))).encode())
        return h.hexdigest()

    def test_emitted_bitflip_steps_are_pinned(self):
        # every step the DBN tours emit: the three DBN protocols on 4- to
        # 7-bit registers at three seeds each, one planner cache per
        # register, as the harness shares it
        params = AccuracyParams(0.4, 0.05)

        def sequences():
            for n, noisy, p in ((4, (1, 3), 0.5), (5, (2,), 0.3),
                                (6, (1, 4), 0.6), (7, (3, 5), 0.5)):
                env = BitflipEnv(n, [p if i in noisy else 1.0 for i in range(n)])
                concept = env.shift_concept()
                cache = PlannerCache(env)
                for protocol in ("ntd-par", "nstd-par", "nstd-ind"):
                    for seed in (1, 2, 3):
                        yield teach_in_mdp(concept, env, protocol, params,
                                           RandomSource(n, seed), planner_cache=cache)

        assert self.emitted_digest(sequences()) == (
            "76ae443fc013dc2748befa7ca9a7f4d8c3998cb58765b18b1af44f928047bc45")

    def test_emitted_taxi_steps_are_pinned(self):
        # every step of Taxi TD (one cache for the three action sets) and
        # of the positives-only teacher. Navigation takes, among the
        # shortest paths, the first in the cache's action order
        env = TaxiEnv()
        cache = PlannerCache(env)
        sequences = []
        for names in (("pickup",), ("up", "down", "left", "right"),
                      ("pickup", "dropoff")):
            sequences.append(teach_in_mdp(env.true_preconditions(names), env, "td",
                                          planner_cache=cache))
            sequences.append(teach_in_mdp(env.true_preconditions(names), env, "std-approx"))
        assert [len(seq) for seq in sequences] == [20, 15, 28, 22, 22, 17]
        assert self.emitted_digest(sequences) == (
            "c351d52bb88892548f76c932c80943eb3def757d51e3edbfb11a45d957f17095")

    def test_plans_of_a_pass_are_pinned(self):
        # every plan one pass of the three DBN protocols makes on an 8-bit
        # register with two noisy bits, and a few plans toward single
        # states, bit for bit: values, policy by ids, and convergence
        env = BitflipEnv(8, [0.6 if i in (2, 5) else 1.0 for i in range(8)])
        concept = env.shift_concept()
        cache = PlannerCache(env)
        for protocol in ("ntd-par", "nstd-par", "nstd-ind"):
            teach_in_mdp(concept, env, protocol, AccuracyParams(0.4, 0.05),
                         RandomSource(8, 1), planner_cache=cache)
        for goal in ((1, 0, 1, 0, 1, 0, 1, 0), (1,) * 8, (0, 0, 0, 1, 1, 0, 0, 1)):
            cache._plan(("to", goal), goal)
        h = hashlib.sha256()
        for key in sorted(cache.plans, key=repr):
            plan = cache.plans[key]
            h.update(repr((key, sorted(plan.values.items()),
                           bytes(plan.action_ids), plan.converged)).encode())
        assert len(cache.plans) == 18
        assert h.hexdigest() == (
            "4c40ce1138a78f4de1a88f4ef94b95ca299791bc57b6b6f45fcda374708c6096")

    @pytest.mark.parametrize("protocol", ["ntd-par", "nstd-par", "nstd-ind"])
    @pytest.mark.parametrize("width", [3, 5])
    def test_concept_of_another_width_is_refused_before_any_step(self, protocol, width):
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        concept = BitflipEnv(width, [0.5] * width).shift_concept()
        rng = RandomSource(1, 1)
        with pytest.raises(UnteachablePlanError, match=f"{width} factors .* 4 bits"):
            teach_in_mdp(concept, env, protocol, AccuracyParams(0.4, 0.05), rng)
        assert rng.random() == RandomSource(1, 1).random()

    @pytest.mark.parametrize("protocol", ["ntd-par", "nstd-par", "nstd-ind"])
    @pytest.mark.parametrize("env", [
        TaxiEnv(), Mdp({("a", "go"): {"b": 1.0}, ("b", "stay"): {"b": 1.0}}, None, "a")],
        ids=["taxi", "mdp"])
    def test_dbn_outside_a_bitflip_environment_is_refused_before_any_step(self, protocol,
                                                                          env):
        concept = BitflipEnv(3, (1.0, 0.5, 1.0)).shift_concept()
        rng = RandomSource(1, 1)
        with pytest.raises(UnteachablePlanError, match="bitflip environment"):
            teach_in_mdp(concept, env, protocol, AccuracyParams(0.4, 0.05), rng)
        assert rng.random() == RandomSource(1, 1).random()

    @pytest.mark.parametrize("protocol", ["td", "std-approx"])
    def test_preconditions_outside_taxi_are_refused_before_any_step(self, protocol):
        env = BitflipEnv(3, (1.0, 0.5, 1.0))
        rng = RandomSource(1, 1)
        with pytest.raises(ValueError, match="Taxi environment"):
            teach_in_mdp(TaxiEnv().true_preconditions(), env, protocol, rng=rng)
        assert rng.random() == RandomSource(1, 1).random()


class TestPlannerCache:
    def test_rejects_another_environment_and_serves_any_concept(self):
        params = AccuracyParams(0.4, 0.05)
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        cache = PlannerCache(env)
        teach_in_mdp(env.shift_concept(), env, "nstd-par", params,
                     RandomSource(3, 1), planner_cache=cache)
        twin = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        with pytest.raises(ValueError, match="another environment"):
            teach_in_mdp(twin.shift_concept(), twin, "nstd-par", params,
                         RandomSource(3, 2), planner_cache=cache)
        # a teaching set is kept with its concept: another concept, and
        # then the first again, tour through the shared cache as through a
        # fresh one. A shift register's nstd-ind set depends only on its
        # width, so Taxi, whose sets differ by action set, checks the
        # rebuild too
        other = BitflipEnv(4, (1.0, 0.25, 1.0, 0.75)).shift_concept()
        for concept in (env.shift_concept(), other, env.shift_concept()):
            shared = teach_in_mdp(concept, env, "nstd-ind", params,
                                  RandomSource(3, 3), planner_cache=cache)
            fresh = teach_in_mdp(concept, env, "nstd-ind", params, RandomSource(3, 3))
            assert shared == fresh
        taxi = TaxiEnv()
        cache = PlannerCache(taxi)
        for names in (("pickup",), ("up", "down", "left", "right"), ("pickup",)):
            concept = taxi.true_preconditions(names)
            assert (teach_in_mdp(concept, taxi, "td", planner_cache=cache)
                    == teach_in_mdp(concept, taxi, "td"))

    def test_planner_refuses_another_environments_cache(self):
        env = BitflipEnv(3, (1.0, 0.5, 1.0))
        cache = PlannerCache(BitflipEnv(3, (1.0, 0.5, 1.0)))
        with pytest.raises(ValueError, match="another environment"):
            expected_steps_planner(env, env.start_state, cache=cache)

    def test_planner_without_a_cache_plans_as_with_one(self):
        env = BitflipEnv(5, (1.0, 0.5, 1.0, 0.25, 1.0))
        cache = PlannerCache(env)
        for goal in ((1, 1, 1, 1, 1), lambda s: s[0] == 1 and s[3] == 0):
            own = expected_steps_planner(env, goal)
            shared = expected_steps_planner(env, goal, cache=cache)
            assert own.converged and shared.converged
            assert own == shared
            assert own.values == shared.values and own.policy == shared.policy
            assert bytes(own.action_ids) == bytes(shared.action_ids)

    @pytest.mark.parametrize("env", [
        BitflipEnv(4, (1.0,) * 4),
        BitflipEnv(5, (1.0, 0.5, 1.0, 0.5, 1.0)),
        TaxiEnv(),
    ], ids=["bitflip-det", "bitflip-stoch", "taxi"])
    def test_model_is_the_whole_closure(self, env):
        cache = PlannerCache(env)
        closure = {s for s, _, _ in reachable_closure(env)}
        assert set(cache.ordered) == closure and cache.n == len(closure)
        assert all(cache.index[s] == i for i, s in enumerate(cache.ordered))

    @pytest.mark.parametrize("protocol", ["ntd-par", "nstd-par", "nstd-ind"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_every_tour_stays_inside_the_closure(self, protocol, n):
        # tours run on the cache's ids, so every state they pass through,
        # and every state they shift at, is a state of the closure
        env = BitflipEnv(n, [1.0 if i % 2 == 0 else 0.5 for i in range(n)])
        cache = PlannerCache(env)
        seq = teach_in_mdp(env.shift_concept(), env, protocol,
                           AccuracyParams(0.4, 0.05), RandomSource(n, 1),
                           planner_cache=cache)
        index = cache.index
        assert len(seq) > 0
        for s in seq.steps:
            assert s.state in index and s.next_state in index
        assert len(cache.exposed) == len(cache.exposure_masks) == cache.n
        assert cache.exposure_masks == [sum(1 << f for f in identifying(s))
                                        for s in cache.ordered]

    def test_shared_cache_reproduces_fresh_tours(self):
        params = AccuracyParams(0.4, 0.05)
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        concept = env.shift_concept()
        cache = PlannerCache(env)
        for protocol in ("ntd-par", "nstd-par", "nstd-ind"):
            for trial in range(3):
                shared = teach_in_mdp(concept, env, protocol, params,
                                      RandomSource(5, trial), planner_cache=cache)
                fresh = teach_in_mdp(concept, env, protocol, params,
                                     RandomSource(5, trial))
                assert shared == fresh
        assert ("nstd-ind", params) in cache.targets

    def test_a_pass_builds_no_plan_dicts(self, monkeypatch):
        # tours read a plan's arrays only: after a bitflip-seq pass no
        # kept plan has built its values or policy dict
        from teachsim import harness

        caches = []

        class Recorded(PlannerCache):
            def __init__(self, env):
                super().__init__(env)
                caches.append(self)

        monkeypatch.setattr(harness, "PlannerCache", Recorded)
        harness.run_experiment(harness.ExperimentConfig(
            experiment="bitflip-seq", bits=[6], runs=2, epsilon=0.4, delta=0.05))
        plans = [plan for cache in caches for plan in cache.plans.values()]
        assert len(caches) == 1 and len(plans) > 1
        assert all(plan._values is None and plan._policy is None for plan in plans)
        assert plans[0].values == dict(zip(caches[0].ordered, plans[0].values_by_id.tolist()))

    def test_taxi_builds_observe_each_pair_once(self, monkeypatch):
        # the eight teaching-set builds of a taxi run (four action sets,
        # td and std-approx) share one grounding of the cache's pairs
        from teachsim.harness import TAXI_ACTION_SETS
        env = TaxiEnv()
        cache = PlannerCache(env)
        observed = []
        observation = TaxiEnv.observation

        def counting(self, state, action):
            observed.append((state, action))
            return observation(self, state, action)

        monkeypatch.setattr(TaxiEnv, "observation", counting)
        for names in TAXI_ACTION_SETS.values():
            for protocol in ("td", "std-approx"):
                build_teaching_set_greedy(env.true_preconditions(names), cache, protocol)
        assert len(observed) == len(set(observed)) == sum(map(len, cache.state_actions))

    def test_deterministic_tours_walk_plans_toward_their_targets(self):
        # a Taxi tour plans toward each target's state, walks those plans'
        # move tables and its targets' actions, and builds no exposures
        env = TaxiEnv()
        cache = PlannerCache(env)
        seq = teach_in_mdp(env.true_preconditions(("pickup",)), env, "td",
                           planner_cache=cache)
        targets = cache.targets[("td", None)][1]
        assert len(seq) > 0
        assert set(cache.plans) == {("to", t.state) for t in targets}
        assert set(cache.moves) == {("to", t.state, cache.action_index[t.action])
                                    for t in targets}
        assert cache.exposed is None

    @pytest.mark.parametrize("protocol", ["nstd-par", "nstd-ind"])
    def test_unconverged_plan_raises(self, protocol, monkeypatch):
        from teachsim import mdp_teaching
        planner = mdp_teaching.expected_steps_planner
        monkeypatch.setattr(mdp_teaching, "expected_steps_planner",
                            lambda *args, **kwargs: planner(*args, **kwargs, max_iter=1))
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        cache = PlannerCache(env)
        with pytest.raises(UnconvergedPlanError):
            teach_in_mdp(env.shift_concept(), env, protocol,
                         AccuracyParams(0.4, 0.05), RandomSource(4, 1),
                         planner_cache=cache)
        assert not cache.plans


def recorded_tallies(monkeypatch):
    """The (first step, steps recorded) of every bulk tally of a stop-free
    stretch from here on, appended as :meth:`_Demonstration._tally` runs."""
    spans = []
    tally = _Demonstration._tally

    def recorded(demo, start, at):
        spans.append((start, len(demo.state_ids)))
        tally(demo, start, at)

    monkeypatch.setattr(_Demonstration, "_tally", recorded)
    return spans


def walked(concept, protocol, params, rng, cache, max_steps=10_000_000):
    """The package's tour on ``cache``, of a DBN or of Taxi preconditions,
    as :func:`tour_oracle.teach` runs the oracle's: the demonstration, and
    the error or None."""
    demo = _Demonstration(cache, rng, concept if isinstance(concept, DbnConcept) else None,
                          max_steps)
    try:
        if protocol in ("ntd-par", "nstd-par"):
            _parallel_drive(concept, protocol, params, demo)
        else:
            _tour(demo, build_teaching_set_greedy(concept, cache, protocol, params))
    except (RuntimeError, ValueError) as exc:
        return demo, exc
    return demo, None


class TestTourOracle:
    @staticmethod
    def outcome(demo, error, rng):
        return (demo.state_ids, demo.action_ids, demo.at, demo.counts, demo.successes,
                rng.position, None if error is None else (type(error), str(error)))

    @pytest.mark.parametrize("dead_top", [False, True])
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_tours_equal_the_per_step_oracle(self, dead_top, data):
        # random registers, every DBN protocol, one cache shared by the
        # package's and the oracle's trials: the same steps, tallies,
        # final state and stream position, and a max_steps cut raises
        # the same error with the stream where the oracle leaves it. A
        # 0.25 gate is kept to one noisy bit, as two make the planner's
        # value iteration take seconds. With ``dead_top`` the top bit's
        # shift never succeeds, so the top bit stays 0, no reachable state
        # exposes the top factor alone, and nstd-ind puts two factors'
        # targets on one state: equal ranking keys, which the package's
        # tour ranks once and the oracle's at every stop
        n = data.draw(st.integers(2, 7))
        p = data.draw(st.sampled_from([0.25, 0.5, 0.6, 0.75, 0.9]))
        noisy = data.draw(st.sets(st.integers(0, n - 1 - dead_top),
                                  max_size=1 if p == 0.25 else 2))
        gates = [p if i in noisy else 1.0 for i in range(n)]
        if dead_top:
            gates[-1] = 0.0
        env = BitflipEnv(n, gates)
        concept, params = env.shift_concept(), AccuracyParams(0.4, 0.05)
        cache = PlannerCache(env)
        if dead_top:
            protocol = "nstd-ind"
            targets = build_teaching_set_greedy(concept, cache, protocol, params)
            assert len({t.state for t in targets}) < n
        else:
            protocol = data.draw(st.sampled_from(["ntd-par", "nstd-par", "nstd-ind"]))
        seeds = data.draw(st.lists(st.integers(0, 2**32), min_size=2, max_size=3))
        for seed in seeds:
            rng, reference = RandomSource(seed, n), RandomSource(seed, n)
            demo, error = walked(concept, protocol, params, rng, cache)
            want = self.outcome(*tour_oracle.teach(concept, protocol, params, reference, cache),
                                reference)
            assert self.outcome(demo, error, rng) == want
        cut = data.draw(st.integers(0, max(0, len(demo.state_ids) - 1)))
        rng, reference = RandomSource(seeds[-1], n), RandomSource(seeds[-1], n)
        demo, error = walked(concept, protocol, params, rng, cache, max_steps=cut)
        assert isinstance(error, RuntimeError) and "exceeded" in str(error)
        want = self.outcome(*tour_oracle.teach(concept, protocol, params, reference, cache,
                                               max_steps=cut), reference)
        assert self.outcome(demo, error, rng) == want

    @pytest.mark.parametrize("n,noisy,p", [(8, {3}, 0.5), (9, {4, 7}, 0.75),
                                           (10, {5, 8}, 0.9), (10, {2}, 0.5)])
    def test_stretches_equal_the_per_step_oracle(self, n, noisy, p, monkeypatch):
        # the fixed-budget drive tallies its stop-free stretches in bulk:
        # on wider registers, with one cache shared by every trial, the
        # steps, tallies, final state and stream position are the per-step
        # oracle's, and so are they after a max_steps cut inside a stretch
        spans = recorded_tallies(monkeypatch)
        env = BitflipEnv(n, [p if i in noisy else 1.0 for i in range(n)])
        concept, params = env.shift_concept(), AccuracyParams(0.4, 0.05)
        cache = PlannerCache(env)
        for seed in (3, 17, 2**31 + 5):
            spans.clear()
            rng, reference = RandomSource(seed, n), RandomSource(seed, n)
            demo, error = walked(concept, "ntd-par", params, rng, cache)
            assert error is None
            want = tour_oracle.teach(concept, "ntd-par", params, reference, cache)
            assert self.outcome(demo, error, rng) == self.outcome(*want, reference)
            # most shifts were taken in stretches
            assert sum(end - start for start, end in spans) > len(demo.state_ids) / 2
        start, end = max(spans, key=lambda span: span[1] - span[0])
        cut = (start + end) // 2
        spans.clear()
        rng, reference = RandomSource(seed, n), RandomSource(seed, n)
        demo, error = walked(concept, "ntd-par", params, rng, cache, max_steps=cut)
        assert isinstance(error, RuntimeError) and "exceeded" in str(error)
        # the cut step ends a stretch, which is tallied before the raise
        assert spans[-1] == (start, cut + 1)
        want = tour_oracle.teach(concept, "ntd-par", params, reference, cache,
                                 max_steps=cut)
        assert self.outcome(demo, error, rng) == self.outcome(*want, reference)

    def test_default_taxi_tours_equal_the_oracle(self):
        # the eight tours of the default taxi run (four action sets, TD
        # and the positives-only teacher) on one cache: the oracle picks
        # each target by breadth-first search and checks each leg's
        # length against the search's path
        from teachsim.harness import TAXI_ACTION_SETS
        env = TaxiEnv()
        # the oracle reads every transition again on each search, so this
        # test memoizes them
        env.transition = functools.cache(env.transition)
        cache = PlannerCache(env)
        for names in TAXI_ACTION_SETS.values():
            for protocol in ("td", "std-approx"):
                concept = env.true_preconditions(names)
                demo, error = walked(concept, protocol, None, None, cache)
                reference, expected = tour_oracle.teach(concept, protocol, None, None, cache)
                assert error is None and expected is None
                assert ((demo.state_ids, demo.action_ids, demo.at)
                        == (reference.state_ids, reference.action_ids, reference.at))

    def test_move_tables_hold_only_the_states_walks_left(self, monkeypatch):
        # after a bitflip-seq pass, each move table of the cache has an
        # entry exactly at the states that steps by it left, which the
        # oracle's replay of every tour names, marked as the
        # demonstration exactly where the oracle's step there is one
        from teachsim import harness

        caches, calls = [], []

        class Recorded(PlannerCache):
            def __init__(self, env):
                super().__init__(env)
                caches.append(self)

        def recorded(concept, env, protocol, params, rng, planner_cache):
            calls.append((concept, env, protocol, params, rng.copy()))
            return teach_in_mdp(concept, env, protocol, params, rng,
                                planner_cache=planner_cache)

        monkeypatch.setattr(harness, "PlannerCache", Recorded)
        monkeypatch.setattr(harness, "teach_in_mdp", recorded)
        harness.run_experiment(harness.ExperimentConfig(
            experiment="bitflip-seq", bits=[6], runs=2, epsilon=0.4, delta=0.05))
        assert len(caches) == 1 and len(calls) == 6
        left: dict = {}
        replay = PlannerCache(calls[0][1])
        for concept, _, protocol, params, rng in calls:
            demo, error = tour_oracle.teach(concept, protocol.lower(), params, rng, replay)
            assert error is None
            for (key, i), shown in zip(demo.left, demo.shown):
                left.setdefault(key, set()).add((i, shown))
        assert {kind for kind, *_ in left} == {"expose", "to"}
        # every walk takes at least its demonstration step, so every
        # table has an entry
        entries = {key: {(i, move[4]) for i, move in enumerate(table) if move is not None}
                   for key, table in caches[0].moves.items()}
        assert entries == left


def golden_bitflip_seq_tours(strategies, runs):
    """The first ``runs`` trials of each of the golden ``bitflip-seq``
    cells of ``strategies``, taught by the harness itself at master seed 7
    and the experiment's defaults (10 bits, noisy bits {5, 8} at 0.75,
    epsilon 0.4, delta 0.005), so from the streams the golden CSV's trials
    read: per tour, in the harness's order, (strategy, concept, accuracy
    parameters, emitted sequence, planner cache). The tours share the
    harness's one cache."""
    from teachsim import harness

    tours = []

    def recorded(concept, env, protocol, params, rng, planner_cache):
        seq = teach_in_mdp(concept, env, protocol, params, rng, planner_cache=planner_cache)
        tours.append((protocol.upper(), concept, params, seq, planner_cache))
        return seq

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "teach_in_mdp", recorded)
        harness.run_experiment(harness.ExperimentConfig(
            experiment="bitflip-seq", strategies=list(strategies), runs=runs, master_seed=7))
    return tours


def learner_estimates(seq, n):
    """What a learner reading the whole sequence knows of each factor of
    an ``n``-bit shift register: its pooled (count, successes) over every
    shift in ``seq``, as :meth:`TestDbnEstimates.recount` pools them, a
    shift succeeding for an exposed factor where its bit changed."""
    counts, successes = [0] * n, [0] * n
    for s in seq.steps:
        if s.action == "shift":
            for i in identifying(s.state):
                counts[i] += 1
                successes[i] += s.state[i] != s.next_state[i]
    return counts, successes


class TestParallelDriveLearner:
    """The parallel drives' guarantee, checked by a learner that reads the
    whole emitted sequence of golden trials."""

    def test_nstd_par_estimates_end_in_the_band(self):
        # every factor below its cap ends within epsilon/(2n) of its
        # shift-success probability
        tours = golden_bitflip_seq_tours(["NSTD-PAR"], 20)
        assert len(tours) == 20
        for trial, (_, concept, params, seq, cache) in enumerate(tours):
            rule = dbn_stop_rule(concept, params)
            assert (rule.half_width, rule.cap) == (0.02, 2592)
            counts, successes = learner_estimates(seq, concept.n)
            for f, (count, hits, truth) in enumerate(zip(counts, successes,
                                                         cache.env.shift_success)):
                assert count > 0, (trial, f)
                assert count >= rule.cap or rule.satisfied(hits / count, truth), (
                    trial, f, count, hits / count, truth)

    def test_ntd_par_samples_every_factor_to_its_floor(self):
        # a noisy factor reaches the Hoeffding cap, any other one sample
        tours = golden_bitflip_seq_tours(["NTD-PAR"], 5)
        assert len(tours) == 5
        for trial, (_, concept, params, seq, cache) in enumerate(tours):
            cap = dbn_stop_rule(concept, params).cap
            counts, _ = learner_estimates(seq, concept.n)
            floors = [1 if p in (0.0, 1.0) else cap for p in cache.env.shift_success]
            assert floors.count(cap) == 2
            assert all(count >= floor for count, floor in zip(counts, floors)), (
                trial, counts)


class TestDemonstrationMarks:
    """Every move-table entry is marked as the demonstration exactly at
    its key's goal, where it takes the key's action; any other takes the
    action of the plan toward that goal."""

    @staticmethod
    def check(cache, at_goal):
        for key, table in cache.moves.items():
            kind, goal, k = key
            plan = cache.plans.get(key[:2])
            marked = []
            for i, move in enumerate(table):
                if move is None:
                    continue
                assert move[4] == at_goal(kind, goal, i), (key, i)
                if move[4]:
                    marked.append(i)
                    assert move[0] == k, (key, i)
                else:
                    assert move[0] == plan.action_ids[i] - 1, (key, i)
            if kind == "to":
                # each walk of a tour's table ends with its demonstration
                assert marked == [cache.index[goal]], key

    def test_default_taxi_tours_mark_each_target_action(self):
        from teachsim.harness import TAXI_ACTION_SETS
        env = TaxiEnv()
        cache = PlannerCache(env)
        for names in TAXI_ACTION_SETS.values():
            for protocol in ("td", "std-approx"):
                teach_in_mdp(env.true_preconditions(names), env, protocol,
                             planner_cache=cache)
        assert {kind for kind, *_ in cache.moves} == {"to"}
        self.check(cache, lambda kind, goal, i: cache.index[goal] == i)

    def test_bitflip_tours_mark_their_shifts_at_the_goal(self):
        tours = golden_bitflip_seq_tours(["NSTD-IND", "NSTD-PAR"], 1)
        cache = tours[0][4]
        assert all(tour[4] is cache for tour in tours)
        assert {kind for kind, *_ in cache.moves} == {"to", "expose"}
        shift = cache.action_index["shift"]
        assert {k for *_, k in cache.moves} == {shift}

        def at_goal(kind, goal, i):
            state = cache.ordered[i]
            if kind == "to":
                return state == goal
            return all(f in identifying(state) for f in range(len(state)) if goal >> f & 1)

        self.check(cache, at_goal)


class TestDbnEstimates:
    @staticmethod
    def recount(seq, factor):
        """Pooled (count, successes) by a table of every shift in the
        emitted sequence per identifying (factor, assignment), with the
        keep-a-1 assignment (0, 1) and factor 0's (1,) complemented."""
        table: dict = {}
        for s in seq.steps:
            if s.action == "shift":
                for i, a in identifying(s.state).items():
                    count, ones = table.get((i, a), (0, 0))
                    table[(i, a)] = (count + 1, ones + s.next_state[i])
        count = successes = 0
        for (i, a), (c, ones) in table.items():
            if i != factor:
                continue
            count += c
            if (i == 0 and a == (1,)) or (i > 0 and a == (0, 1)):
                successes += c - ones
            else:
                successes += ones
        return count, successes, table

    def test_pooled_counts_match_a_table_recount(self):
        # a random walk of shifts and flips through the tour's own step
        from teachsim.mdp_teaching import (TeachingTarget, _Demonstration,
                                           _target_satisfied)
        from teachsim.teachers import StopRule
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        concept = env.shift_concept()
        truths = [1.0 - concept.cpt[0][(1,)]] + [concept.cpt[i][(1, 0)]
                                                 for i in range(1, concept.n)]
        cache = PlannerCache(env)
        index = cache.action_index
        walk = RandomSource(11, 1)
        demo = _Demonstration(cache, RandomSource(11, 2), concept)
        assert demo.truths == truths
        for t in range(3000):
            # a walk whose goal is the current state takes just the
            # key's action there
            demo.walk(("to", cache.ordered[demo.at],
                       index["shift" if walk.random() < 0.6 else "flip0"]))
            if t % 97 and t != 2999:
                continue
            seq = demo.sequence()
            for i in range(concept.n):
                count, successes, table = self.recount(seq, i)
                assert (demo.counts[i], demo.successes[i]) == (count, successes), (t, i)
                for half_width in (0.02, 0.1):
                    in_band = (count > 0 and
                               abs(successes / count - truths[i]) <= half_width)
                    # one visit, far below the cap: only the band decides
                    target = TeachingTarget(state=env.start_state, action="shift",
                                            covers=frozenset({i}),
                                            rule=StopRule(half_width, 10**6))
                    assert _target_satisfied(target, 1, demo) == in_band
        # the walk exercised both complemented and plain assignments
        assert (0, (1,)) in table
        for i in (1, 3):
            assert (i, (1, 0)) in table
            assert (i, (0, 1)) in table
        assert all(count > 0 for count in demo.counts)

    def test_a_drive_stopped_inside_a_stretch_keeps_exact_tallies(self, monkeypatch):
        # the drive's step limit lands inside a stop-free stretch: the
        # stretch is tallied before the error, so the counts are a recount
        # of the emitted shifts
        spans = recorded_tallies(monkeypatch)
        env = BitflipEnv(6, (1.0, 0.5, 1.0, 0.75, 1.0, 1.0))
        concept = env.shift_concept()
        demo = _Demonstration(PlannerCache(env), RandomSource(19, 3), concept)
        demo.floor, demo.limit = [1, 400, 1, 400, 1, 1], 700
        needed = (1 << concept.n) - 1
        with pytest.raises(RuntimeError, match="failed to satisfy"):
            while needed:
                needed = demo.walk(("expose", needed, demo.cache.action_index["shift"]),
                                   needed=needed)
        assert len(demo.state_ids) == 701
        start, end = spans[-1]
        assert end == 701 and end - start > 1
        seq = demo.sequence()
        for i in range(concept.n):
            count, successes, _ = self.recount(seq, i)
            assert (demo.counts[i], demo.successes[i]) == (count, successes), i
        assert any(count < floor for count, floor in zip(demo.counts, demo.floor))


class TestTaxiStdApprox:
    def test_std_beats_td_and_both_teach(self):
        env = TaxiEnv()
        cache = PlannerCache(env)
        for names in (("pickup",), ("pickup", "dropoff")):
            td_seq = teach_in_mdp(env.true_preconditions(names), env, "td",
                                  planner_cache=cache)
            std_seq = teach_in_mdp(env.true_preconditions(names), env, "std-approx")
            assert len(std_seq) < len(td_seq)
            inferred = std_precondition_learner(env, std_seq, names)
            for name in names:
                assert inferred[name] == env.schemas[name].precondition()

    def test_zero_irrelevant_state_needs_one_demo(self):
        # a precondition that exactly matches the start cell's clear/wall
        # pattern: its most specific success has no stray true predicates,
        # so the positives-only teacher emits a single demonstration
        base = TaxiEnv()
        vocab = base.schemas["up"].vocabulary
        relevant = [vocab.index("clear_north(a0)"), vocab.index("clear_south(a0)"),
                    vocab.index("clear_east(a0)"), vocab.index("clear_west(a0)")]
        env = TaxiEnv(preconditions={"up": relevant})
        seq = teach_in_mdp(env.true_preconditions(("up",)), env, "std-approx")
        ups = [s for s in seq.steps if s.action[0] == "up"]
        assert len(ups) == 1

    def test_std_learner_rejects_failures(self):
        # up against the north wall fails
        env = TaxiEnv()
        top = ((2, 4), "L0")
        bogus = TeachingSequence(env, [top], [("up", ("taxi",))], [0], [0], top)
        assert bogus.steps[0].observation == 0
        with pytest.raises(ValueError):
            std_precondition_learner(env, bogus, ("up",))


class TestNsstdCoinDirection:
    def test_all_four_cases(self):
        # teacher rule: stop after one flip iff it matches the bias;
        # learner rule: two flips mean the first contradicted the bias
        cases = [
            (0.2, 0, ("tails", 1)),   # tails-biased, first flip tails
            (0.2, 1, ("tails", 2)),   # tails-biased, first flip heads
            (0.8, 1, ("heads", 1)),   # heads-biased, first flip heads
            (0.8, 0, ("heads", 2)),   # heads-biased, first flip tails
        ]
        for p_star, first, (direction, length) in cases:
            feed = [0.05 if first == 1 else 0.95, 0.5]
            rng = _FakeRng(feed)
            flips, inferred = nsstd_coin_direction(BernoulliConcept(p_star), rng)
            assert len(flips) == length <= 2
            assert flips[0] == first
            assert inferred == direction

    def test_second_flip_outcome_is_irrelevant(self):
        for second in (0.05, 0.95):
            flips, inferred = nsstd_coin_direction(
                BernoulliConcept(0.2), _FakeRng([0.05, second]))
            assert len(flips) == 2
            assert inferred == "tails"

    def test_fair_coin_rejected(self):
        with pytest.raises(ValueError):
            nsstd_coin_direction(BernoulliConcept(0.5), RandomSource(0, 0))

    def test_infer_validates_length(self):
        with pytest.raises(ValueError):
            nsstd_coin_infer((1, 0, 1))

    def test_inference_always_correct_on_random_streams(self):
        for p_star in (0.1, 0.3, 0.7, 0.9):
            truth = "heads" if p_star > 0.5 else "tails"
            for stream in range(40):
                flips, inferred = nsstd_coin_direction(
                    BernoulliConcept(p_star), RandomSource(13, stream))
                assert inferred == truth


class _FakeRng:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)
