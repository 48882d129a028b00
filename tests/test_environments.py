import hashlib
import itertools

import numpy as np
import pytest

from teachsim.core import RandomSource
from teachsim.environments import (
    BitflipEnv,
    Mdp,
    SequenceStep,
    TaxiEnv,
    TeachingSequence,
    TruncationError,
    reachable_closure,
    step,
)


class TestBitflipEnv:
    def test_flip0_sets_bit(self):
        env = BitflipEnv(4, (1.0, 1.0, 1.0, 1.0))
        nxt, reward, obs = step(env, (0, 0, 0, 0), "flip0")
        assert nxt == (1, 0, 0, 0)
        assert reward == 0.0

    def test_flip0_toggles_back(self):
        env = BitflipEnv(3, (1.0, 1.0, 1.0))
        nxt, _, _ = step(env, (1, 1, 0), "flip0")
        assert nxt == (0, 1, 0)

    def test_shift_matching_neighbour_leaves_bit(self):
        env = BitflipEnv(3, (1.0, 0.5, 0.5))
        # bits 1 and 2 match their left neighbours, so only bit 0 moves
        dist = env.transition((1, 1, 1), "shift")
        for state in dist:
            assert state[1] == 1 and state[2] == 1

    def test_shift_distribution(self):
        env = BitflipEnv(2, (1.0, 0.25))
        dist = env.transition((1, 0), "shift")
        assert dist == {(0, 1): 0.25, (0, 0): 0.75}

    def test_shift_rows_match_the_per_bit_product(self):
        # every shift row, keys in order and probabilities bit for bit, is
        # the product over the bits of each one's outcomes: the incoming
        # value with its success probability and the kept one with the rest
        rng = np.random.default_rng(3)
        for n in range(1, 8):
            success = [float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
                       for _ in range(n)]
            env = BitflipEnv(n, success)
            for state in itertools.product((0, 1), repeat=n):
                per_bit = []
                for i in range(n):
                    incoming, keep, p = (state[i - 1] if i else 0), state[i], success[i]
                    per_bit.append({keep: 1.0} if incoming == keep or p == 0.0
                                   else {incoming: 1.0} if p == 1.0
                                   else {incoming: p, keep: 1.0 - p})
                expected = {}
                for combo in itertools.product(*(d.items() for d in per_bit)):
                    prob = 1.0
                    for _, q in combo:
                        prob *= q
                    expected[tuple(v for v, _ in combo)] = prob
                dist = env.transition(state, "shift")
                assert list(dist.items()) == list(expected.items()), (success, state)

    def test_all_states_reachable_n3(self):
        env = BitflipEnv(3, (1.0, 0.5, 0.5))
        states = {s for s, _, _ in reachable_closure(env)}
        assert len(states) == 8

    def test_ones_persist_under_goal_seeking_policy(self):
        # under the all-ones-seeking policy (flip when bit 0 is clear,
        # else shift), a bit above position 0 never drops back to 0
        env = BitflipEnv(6, (1.0, 1.0, 0.5, 1.0, 0.5, 1.0))
        rng = RandomSource(31, 1)
        for episode in range(30):
            state = env.start_state
            seen_one = [False] * env.n
            for _ in range(60):
                action = "flip0" if state[0] == 0 else "shift"
                nxt, _, _ = step(env, state, action, rng)
                for i in range(1, env.n):
                    if seen_one[i]:
                        assert nxt[i] == 1
                    seen_one[i] = seen_one[i] or nxt[i] == 1
                state = nxt


class TestReachableClosure:
    def test_closure_is_closed(self):
        env = BitflipEnv(3, (1.0, 0.5, 1.0))
        walk = reachable_closure(env)
        sources = {s for s, _, _ in walk}
        for _, _, dists in walk:
            for dist in dists:
                assert set(dist) <= sources

    def test_breadth_first_order(self):
        # sources appear in order of their distance from the start state
        env = BitflipEnv(4, (1.0, 0.5, 1.0, 0.5))
        depth = {env.start_state: 0}
        frontier = [env.start_state]
        while frontier:
            nxt = []
            for s in frontier:
                for a in env.actions(s):
                    for s2 in env.transition(s, a):
                        if s2 not in depth:
                            depth[s2] = depth[s] + 1
                            nxt.append(s2)
            frontier = nxt
        walk = reachable_closure(env)
        assert walk[0][0] == env.start_state
        depths = [depth[s] for s, _, _ in walk]
        assert depths == sorted(depths)
        assert {s for s, _, _ in walk} == set(depth)

    def test_idempotent(self):
        env = TaxiEnv()
        assert reachable_closure(env) == reachable_closure(env)

    def test_truncation_guard(self):
        env = BitflipEnv(8, (1.0,) * 8)
        with pytest.raises(TruncationError):
            reachable_closure(env, max_states=10)


class TestMdp:
    def test_rejects_invalid_rows(self):
        with pytest.raises(ValueError):
            Mdp({("a", "go"): {"b": 0.6}}, None, "a")

    def test_basic_accessors(self):
        m = Mdp({("a", "go"): {"b": 1.0}, ("b", "go"): {"a": 1.0}},
                {("a", "go"): 2.0}, "a")
        assert m.actions("a") == ("go",)
        assert m.reward("a", "go") == 2.0
        assert m.reward("b", "go") == 0.0


class TestTeachingSequence:
    def test_compact_record_materialises_its_steps_once(self):
        class Counted(Mdp):
            rewards_read = 0

            def reward(self, state, action):
                Counted.rewards_read += 1
                return super().reward(state, action)

        env = Counted({("a", "go"): {"b": 1.0}, ("b", "go"): {"a": 1.0}},
                      {("a", "go"): 2.0}, "a")
        seq = TeachingSequence.from_ids(env, ["a", "b"], ["go"], [0, 1, 0], [0, 0, 0], "b")
        assert len(seq) == 3 and Counted.rewards_read == 0
        listed = TeachingSequence((SequenceStep("a", "go", 2.0, None, "b"),
                                   SequenceStep("b", "go", 0.0, None, "a"),
                                   SequenceStep("a", "go", 2.0, None, "b")), "b")
        assert seq.steps is seq.steps and Counted.rewards_read == 3
        assert seq == listed and hash(seq) == hash(listed)
        assert [(s.state, s.action, s.reward) for s in seq.steps] == [
            ("a", "go", 2.0), ("b", "go", 0.0), ("a", "go", 2.0)]
        assert seq != TeachingSequence(listed.steps, "a")


class TestTaxiGeometry:
    def setup_method(self):
        self.env = TaxiEnv()

    def test_start_state(self):
        assert self.env.start_state == ((2, 2), "L0")

    def test_west_wall_predicates(self):
        state = ((0, 2), "L0")
        inst = self.env.ground(state, "left", ("taxi",))
        vocab = self.env.schemas["left"].vocabulary
        assert inst.vector[vocab.index("wall_west(a0)")] == 1
        assert inst.vector[vocab.index("clear_west(a0)")] == 0

    def test_on_predicate_colocated(self):
        state = ((0, 0), "L0")  # taxi parked on the passenger's landmark
        inst = self.env.ground(state, "pickup", ("taxi", "passenger", "L0"))
        vocab = self.env.schemas["pickup"].vocabulary
        assert inst.vector[vocab.index("on(a0,a1)")] == 1
        assert inst.vector[vocab.index("on(a1,a2)")] == 1
        assert inst.vector[vocab.index("not_in_taxi(a1)")] == 1

    def test_swapped_binding_differs(self):
        # taxi at the empty landmark: swapping passenger and landmark
        # arguments changes the co-location pattern
        state = ((4, 4), "L0")
        canonical = self.env.ground(state, "pickup", ("taxi", "passenger", "L1"))
        swapped = self.env.ground(state, "pickup", ("taxi", "L1", "passenger"))
        assert canonical.vector != swapped.vector

    def test_groundings_are_pinned(self):
        # every grounded action's predicate vector in every closure state,
        # bit for bit, under the default preconditions and under a
        # replaced set (pickup needs the passenger aboard, so it never
        # succeeds, and up needs the west wall)
        h = hashlib.sha256()
        pickup = self.env.schemas["pickup"].vocabulary
        up = self.env.schemas["up"].vocabulary
        for replaced in (None, {"pickup": [pickup.index("on(a0,a1)"), pickup.index("in_taxi(a1)")],
                                "up": [up.index("clear_north(a0)"), up.index("wall_west(a0)")]}):
            env = TaxiEnv(replaced)
            closure = {s for s, _, _ in reachable_closure(env)}
            assert len(closure) == (75 if replaced is None else 25)
            for s in sorted(closure, key=repr):
                for a in env.actions(s):
                    h.update(repr((s, a, env.ground(s, *a).vector)).encode())
        assert h.hexdigest() == (
            "743f88c7ef27b49d1987f46a3974c7a356532d9fb56739fe0705d6e7917b2a34")

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            self.env.ground(self.env.start_state, "pickup", ("taxi", "passenger"))


class TestTaxiDynamics:
    def setup_method(self):
        self.env = TaxiEnv()

    def test_failed_pickup_is_noop_with_label_zero(self):
        state = ((2, 2), "L0")  # taxi away from the passenger
        action = ("pickup", ("taxi", "passenger", "L0"))
        nxt, reward, obs = step(self.env, state, action)
        assert nxt == state
        assert obs == 0

    def test_successful_pickup(self):
        state = ((0, 0), "L0")
        action = ("pickup", ("taxi", "passenger", "L0"))
        nxt, _, obs = step(self.env, state, action)
        assert obs == 1
        assert nxt == ((0, 0), "taxi")

    def test_movement_blocked_at_wall(self):
        state = ((0, 0), "L0")
        nxt, _, obs = step(self.env, state, ("down", ("taxi",)))
        assert nxt == state and obs == 0
        nxt, _, obs = step(self.env, state, ("up", ("taxi",)))
        assert nxt == ((0, 1), "L0") and obs == 1

    def test_dropoff_cycle(self):
        state = ((0, 0), "L0")
        state, _, _ = step(self.env, state, ("pickup", ("taxi", "passenger", "L0")))
        assert state == ((0, 0), "taxi")
        for move in ("up",) * 4 + ("right",) * 4:
            state, _, obs = step(self.env, state, (move, ("taxi",)))
            assert obs == 1
        state, _, obs = step(self.env, state, ("dropoff", ("taxi", "passenger", "L1")))
        assert obs == 1
        assert state == ((4, 4), "L1")

    def test_all_cells_reachable(self):
        cells = {s[0] for s, _, _ in reachable_closure(self.env)}
        assert cells == {(x, y) for x in range(5) for y in range(5)}

    def test_manhattan_distance_center_to_corner(self):
        # the plan toward the corner cell counts 4 moves from the centre,
        # and its policy walks them
        from teachsim.mdp_teaching import expected_steps_planner
        plan = expected_steps_planner(self.env, lambda s: s[0] == (0, 0))
        state, steps = self.env.start_state, 0
        while state[0] != (0, 0):
            state, _, _ = step(self.env, state, plan.policy[state])
            steps += 1
        assert plan.values[self.env.start_state] == steps == 4


class TestEnvConfig:
    def test_custom_preconditions(self):
        vocab = TaxiEnv().schemas["up"].vocabulary
        custom = TaxiEnv(preconditions={
            "up": [vocab.index("clear_north(a0)"), vocab.index("wall_south(a0)")]})
        # up now also requires a wall to the south: only legal on the
        # bottom row
        assert custom.precondition_holds(((2, 0), "L0"), "up", ("taxi",))
        assert not custom.precondition_holds(((2, 1), "L0"), "up", ("taxi",))

    def test_unknown_schema_is_refused(self):
        with pytest.raises(ValueError, match="unknown action schema 'fly'"):
            TaxiEnv({"fly": [0]})

    @pytest.mark.parametrize("index", [99, 8, -1])
    def test_index_outside_the_vocabulary_is_refused(self, index):
        # up's vocabulary has 8 predicates; a negative index would have
        # read from its end
        with pytest.raises(ValueError, match=rf"up has predicates 0 to 7, not \[{index}\]"):
            TaxiEnv({"up": [index]})

    @pytest.mark.parametrize("predicates", [("clear_south(a0)",), ("wall_west(a0)",), ()])
    def test_move_allowed_off_the_grid_is_refused(self, predicates):
        # up under each of these holds somewhere on the top row, where it
        # would leave the 5x5 grid and the closure would not end
        vocab = TaxiEnv().schemas["up"].vocabulary
        with pytest.raises(ValueError, match="would leave the grid"):
            TaxiEnv({"up": [vocab.index(p) for p in predicates]})
