import csv
import hashlib
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbn_oracle import identifying
from teachsim.concepts import (
    BanditConcept,
    BernoulliConcept,
    DbnConcept,
    MonotoneConjunction,
    VersionSpace,
    bitflip_shift_concept,
    dbn_condition_estimates,
    aggregate_model_error,
)
from teachsim.core import (
    AccuracyParams,
    RandomSource,
    TeachingCollection,
    derive_stream,
    hoeffding_samples,
)
from teachsim.environments import BitflipEnv
from teachsim.harness import ExperimentConfig, TrialStats, fit_scaling, run_experiment
from teachsim.mdp_teaching import PlannerCache, build_teaching_set_greedy, teach_in_mdp
from teachsim import teachers as teachers_module
from teachsim.teachers import (
    BANDIT_STRATEGIES,
    COIN_INPUT,
    COIN_STRATEGIES,
    DBN_STRATEGIES,
    StopRule,
    UnteachablePlanError,
    check_shift_register,
    dbn_stop_rule,
    std_infer,
    teach_bandit_cell,
    teach_coin_cell,
    teach_conjunction_std,
    teach_conjunction_td,
    teach_dbn_cell,
    teach_dbn_deterministic,
)


class FakeRandomSource:
    """Deterministic uniform feed for enumerating teacher behaviour: word
    ``w`` is ``values[w]``."""

    def __init__(self, values, position=0):
        self._values = list(values)
        self.position = position

    def random(self):
        self.position += 1
        return self._values[self.position - 1]

    def random_block(self, shape):
        count = int(np.prod(shape))
        block = np.array(self._values[self.position:self.position + count])
        self.position += count
        return block.reshape(shape)

    def skip(self, n):
        self.position += n

    def seek(self, position):
        self.position = position

    def copy(self):
        return FakeRandomSource(self._values, self.position)


def coin_stop_law(p, rule):
    """Exact law of the stopping coin teacher's flip count, as an array
    indexed by count: a dynamic program over (flips, heads) that carries
    the probability of each head count among runs not yet stopped, and
    tests the band with the teacher's own float arithmetic."""
    law = np.zeros(rule.cap + 1)
    alive = np.ones(1)
    for t in range(1, rule.cap + 1):
        nxt = np.zeros(t + 1)
        nxt[:-1] += alive * (1 - p)
        nxt[1:] += alive * p
        stop = (np.abs(np.arange(t + 1) / t - p) <= rule.half_width) | (t == rule.cap)
        law[t] = nxt[stop].sum()
        nxt[stop] = 0.0
        alive = nxt
    return law


def coin_stop_moments(p, rule):
    """Mean and standard deviation of the stopping coin teacher's flip
    count under :func:`coin_stop_law`."""
    law = coin_stop_law(p, rule)
    t = np.arange(rule.cap + 1)
    mean = float(law @ t)
    return mean, math.sqrt(float(law @ t**2) - mean**2)


def all_conjunctions(n):
    return [MonotoneConjunction(n, frozenset(rel))
            for r in range(n + 1)
            for rel in itertools.combinations(range(n), r)]


class TestConjunctionTeachers:
    def test_td_list_spec_cases(self):
        c = MonotoneConjunction(3, frozenset({1, 2}))
        got = [(s.input, s.label) for s in teach_conjunction_td(c)]
        assert got == [((0, 1, 1), 1), ((0, 0, 1), 0), ((0, 1, 0), 0)]

        empty = MonotoneConjunction(3, frozenset())
        got = [(s.input, s.label) for s in teach_conjunction_td(empty)]
        assert got == [((0, 0, 0), 1)]

        single = MonotoneConjunction(1, frozenset({0}))
        got = [(s.input, s.label) for s in teach_conjunction_td(single)]
        assert got == [((1,), 1), ((0,), 0)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_td_collapses_version_space(self, n):
        for c in all_conjunctions(n):
            samples = teach_conjunction_td(c)
            assert len(samples) == 1 + len(c.relevant)
            vs = VersionSpace(n)
            for s in samples:
                vs.observe(s.input, s.label)
            assert vs.is_taught
            assert vs.hypothesis() == c

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_std_round_trip(self, n):
        for c in all_conjunctions(n):
            assert std_infer(teach_conjunction_std(c)) == c

    def test_std_infer_rejects_negative(self):
        from teachsim.core import Sample
        with pytest.raises(ValueError):
            std_infer(Sample((1, 0), 0))


def first_stop(rule, outcomes, truths, held=(0, 0)):
    """The tests' reference stop: ``outcomes`` has one row per draw and
    one 0/1 column per condition, ``truths`` one true mean per column, and
    ``held`` the (count, successes per column) drawn before them. Returns
    the length of the first prefix whose running means are all within
    the rule's band, or every row if none is, and each column's
    successes among the rows taken."""
    count, heads = held
    cums = np.cumsum(np.asarray(outcomes, dtype=np.int64), axis=0)
    seen = count + np.arange(1, len(cums) + 1)
    means = (cums + np.asarray(heads)) / seen[:, None]
    in_band = (np.abs(means - np.asarray(truths, dtype=np.float64))
               <= rule.half_width).all(axis=1)
    taken = int(np.argmax(in_band)) + 1 if in_band.any() else len(cums)
    return taken, cums[taken - 1].tolist()


class TestStopRule:
    def test_inclusive_boundary(self):
        rule = StopRule(half_width=0.0625, cap=100)  # dyadic, exactly representable
        assert rule.satisfied(0.5625, 0.5)
        assert not rule.satisfied(0.5625001, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            StopRule(half_width=0.0, cap=10)
        with pytest.raises(ValueError):
            StopRule(half_width=0.1, cap=0)

    @given(st.data())
    @settings(max_examples=200)
    def test_stop_matches_a_loop_over_prefixes(self, data):
        # the kernel's scan of one block, with and without held draws;
        # dyadic half-widths and truths put some means exactly on the
        # closed band's edge
        cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(1, 30))
        dyadic = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0])
        outcomes = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)),
            dtype=data.draw(st.sampled_from([bool, np.int64])))
        truths = np.array(data.draw(st.lists(st.one_of(dyadic, st.floats(0, 1)),
                                             min_size=cols, max_size=cols)))
        rule = StopRule(data.draw(st.one_of(st.sampled_from([0.0625, 0.125, 0.25]),
                                            st.floats(0.001, 0.5))), cap=40)
        held_count = data.draw(st.integers(0, 8))
        held_heads = np.array(data.draw(st.lists(
            st.integers(0, held_count), min_size=cols, max_size=cols)))
        heads = held_heads[None].astype(np.float64) if held_count else None
        taken, _, successes = teachers_module._scan(
            rule, np.ascontiguousarray(outcomes.T)[None], truths[None],
            np.array([held_count], dtype=np.float64), heads)
        taken, successes = int(taken[0]), successes[0].tolist()
        if not held_count:
            held_heads = np.zeros(cols, dtype=np.int64)

        expected = rows
        for t in range(1, rows + 1):
            heads = held_heads + outcomes[:t].sum(axis=0, dtype=np.int64)
            if all(rule.satisfied(int(h) / (held_count + t), float(truth))
                   for h, truth in zip(heads, truths)):
                expected = t
                break
        assert taken == expected
        assert successes == outcomes[:taken].sum(axis=0, dtype=np.int64).tolist()

    @given(st.data())
    @settings(max_examples=100)
    def test_a_group_scan_equals_each_block_scanned_alone(self, data):
        # blocks of a group may have fewer rows than the group's array:
        # a block's stop, rows taken and successes never see the padding
        cols = data.draw(st.integers(1, 3))
        blocks = data.draw(st.integers(1, 5))
        length = data.draw(st.integers(1, 20))
        rule = StopRule(data.draw(st.sampled_from([0.125, 0.25, 0.5])), cap=100)
        lengths = np.array(data.draw(st.lists(st.integers(1, length), min_size=blocks,
                                              max_size=blocks)))
        lengths[0] = length
        cell = st.integers(0, 1)
        outcomes = np.array(data.draw(st.lists(st.lists(st.lists(
            cell, min_size=length, max_size=length), min_size=cols, max_size=cols),
            min_size=blocks, max_size=blocks)), dtype=bool)
        truths = np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0]),
                                                      min_size=cols, max_size=cols),
                                             min_size=blocks, max_size=blocks)))
        counts = np.array(data.draw(st.lists(st.integers(0, 8), min_size=blocks,
                                             max_size=blocks)), dtype=np.float64)
        heads = np.array([[data.draw(st.integers(0, int(c)))] * cols for c in counts],
                         dtype=np.float64)
        taken, stopped, successes = teachers_module._scan(rule, outcomes, truths, counts,
                                                          heads, lengths)
        for b, n in enumerate(lengths.tolist()):
            alone = teachers_module._scan(rule, outcomes[b:b + 1, :, :n], truths[b:b + 1],
                                          counts[b:b + 1], heads[b:b + 1])
            assert (taken[b], stopped[b], successes[b].tolist()) == (
                alone[0][0], alone[1][0], alone[2][0].tolist())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_draw_matches_one_full_draw_and_stop(self, data):
        cols = data.draw(st.integers(1, 4))
        rows = data.draw(st.one_of(st.integers(1, 63), st.integers(64, 1200)))
        prob = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0, 1))
        probs = np.array(data.draw(st.lists(prob, min_size=cols, max_size=cols)))
        watched = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, cols - 1), min_size=1, max_size=cols, unique=True)))
        on = list(range(cols)) if watched is None else watched
        rule = StopRule(data.draw(st.one_of(st.sampled_from([0.0625, 0.125, 0.25]),
                                            st.floats(0.001, 0.5))), cap=rows)
        held_count = data.draw(st.integers(0, 40))
        held_heads = [data.draw(st.integers(0, held_count)) for _ in on]
        edge = data.draw(st.sampled_from([None, 64, 64 + 128, 64 + 128 + 256]))
        if edge is not None and edge <= rows:
            # the stop lands on the last row of a chunk: a sure success
            # column held at `edge` failures first reaches a mean of 1/2
            # at its `edge`-th row, and every other watched column is
            # deterministic and in the band throughout
            rule = StopRule(0.5, cap=rows)
            probs[on] = [1.0] + [float(v) for v in data.draw(st.lists(
                st.sampled_from([0, 1]), min_size=len(on) - 1, max_size=len(on) - 1))]
            held_count = edge
            held_heads = [0] + [held_count * int(p) for p in probs[on[1:]]]
        held = (held_count, held_heads)
        seed = data.draw(st.integers(0, 2**32))

        full, chunked = RandomSource(seed, 5), RandomSource(seed, 5)
        block = full.random_block((rows, cols)) < probs
        taken, successes = first_stop(rule, block[:, on], probs[on], held)
        # the stop batch, drawing the one item in rounds
        got, hits = teachers_module._stop_batch(
            rule, [chunked], [0], [0], probs[None],
            None if watched is None else np.array([watched]),
            np.array([rows]), np.array([held_count]), np.array([held_heads]))
        if edge is not None and edge <= rows:
            assert taken == edge
        assert got.tolist() == [taken]
        assert hits.tolist() == [block[:taken].sum(axis=0).tolist()]
        assert hits[0, on].tolist() == successes
        assert chunked.random() == full.random()


class TestCoinTeachers:
    def test_ntd_exact_budget(self):
        for eps, expected in ((0.1, 185), (0.2, 47)):
            outcome = teach_coin_cell("NTD", BernoulliConcept(0.5),
                                      AccuracyParams(eps, 0.05),
                                      [RandomSource(1, 2)])[0]
            assert outcome.steps == expected == outcome.samples
            assert not outcome.stopped_early
            assert outcome.collection.total == expected

    def test_ntd_replay_identical(self):
        a = teach_coin_cell("NTD", BernoulliConcept(0.3), AccuracyParams(0.1, 0.05),
                            [RandomSource(9, 4)])[0]
        b = teach_coin_cell("NTD", BernoulliConcept(0.3), AccuracyParams(0.1, 0.05),
                            [RandomSource(9, 4)])[0]
        assert dict(a.collection.items()) == dict(b.collection.items())

    def test_nstd_deterministic_coin_stops_at_one(self):
        outcome = teach_coin_cell("NSTD", BernoulliConcept(1.0), AccuracyParams(0.1, 0.05),
                                  [RandomSource(3, 3)])[0]
        assert outcome.steps == 1
        assert outcome.stopped_early

    def test_nstd_two_flip_enumeration(self):
        # p*=0.5, eps=0.4: |p_hat - 0.5| <= 0.2 after two flips requires
        # one head and one tail; matching flips keep going
        params = AccuracyParams(0.4, 0.05)
        coin = BernoulliConcept(0.5)
        cap = hoeffding_samples(params)
        differ = teach_coin_cell("NSTD", coin, params,
                                 [FakeRandomSource([0.1, 0.9] + [0.1] * cap)])[0]
        assert differ.steps == 2
        same = teach_coin_cell("NSTD", coin, params,
                               [FakeRandomSource([0.1, 0.1, 0.9] + [0.9] * cap)])[0]
        assert same.steps == 3

    def test_nstd_never_exceeds_ntd(self):
        params = AccuracyParams(0.15, 0.1)
        budget = hoeffding_samples(params)
        for stream in range(30):
            outcome = teach_coin_cell("NSTD", BernoulliConcept(0.37), params,
                                      [RandomSource(77, stream)])[0]
            assert outcome.steps <= budget

    def test_nstd_delivered_collection_guarantee(self):
        params = AccuracyParams(0.2, 0.1)
        cap = hoeffding_samples(params)
        for stream in range(50):
            outcome = teach_coin_cell("NSTD", BernoulliConcept(0.6), params,
                                      [RandomSource(5, stream)])[0]
            heads = outcome.collection.label_counts(COIN_INPUT).get(1, 0)
            p_hat = heads / outcome.samples
            assert abs(p_hat - 0.6) <= 0.1 or outcome.samples == cap

    def test_strategy_names_are_read_as_the_other_families_read_them(self):
        params, coin = AccuracyParams(0.2, 0.05), BernoulliConcept(0.6)
        spelled = teach_coin_cell(" nstd ", coin, params, [RandomSource(4, 0)])[0]
        canonical = teach_coin_cell("NSTD", coin, params, [RandomSource(4, 0)])[0]
        assert (spelled.steps, spelled.stopped_early) == (canonical.steps, canonical.stopped_early)
        with pytest.raises(ValueError, match="unknown strategy"):
            teach_coin_cell("NTD-PAR", coin, params, [RandomSource(4, 0)])

    def test_exact_stop_law_matches_every_flip_sequence(self):
        # the oracle itself, against all 2**12 sequences of a short cap
        p, rule = 0.3, StopRule(0.05, 12)
        law = np.zeros(rule.cap + 1)
        for flips in itertools.product((0, 1), repeat=rule.cap):
            heads = np.cumsum(flips)
            t = next((t for t in range(1, rule.cap + 1)
                      if rule.satisfied(heads[t - 1] / t, p)), rule.cap)
            law[t] += p ** heads[-1] * (1 - p) ** (rule.cap - heads[-1])
        assert np.allclose(coin_stop_law(p, rule), law, rtol=0, atol=1e-12)

    def test_nstd_mean_steps_match_the_exact_law(self):
        # the coin experiment's own 1000 trials per cell at master seed 7,
        # the runs behind its golden CSV: each cell's mean flip count lies
        # in the 95% interval of the exact E[T]
        result = run_experiment(ExperimentConfig(
            experiment="coin", strategies=["NSTD"], epsilon_sweep=[0.1, 0.05],
            master_seed=7))
        for epsilon, cap in ((0.1, 185), (0.05, 738)):
            rule = StopRule.hoeffding(AccuracyParams(epsilon, 0.05))
            assert rule.cap == cap
            mean, sd = coin_stop_moments(0.5, rule)
            cell = result.cell("NSTD", epsilon)
            assert cell.runs == 1000
            assert abs(cell.mean - mean) <= 1.96 * sd / math.sqrt(cell.runs), epsilon

    def test_golden_nstd_means_match_the_exact_law_over_the_sweep(self):
        # every NSTD cell of the committed coin CSV (the default sweep,
        # 1000 runs per cell at master seed 7, p* = 0.5, delta = 0.05) lies
        # in the 95% interval of the exact E[T], and the exact means are
        # linear in 1/epsilon, as fit_scaling reads a stopping teacher
        with open(pathlib.Path(__file__).parent / "golden" / "coin.csv") as f:
            cells = [row for row in csv.DictReader(f) if row["strategy"] == "NSTD"]
        exact = []
        for cell in cells:
            epsilon = float(cell["sweep_value"])
            rule = StopRule.hoeffding(AccuracyParams(epsilon, 0.05))
            mean, sd = coin_stop_moments(0.5, rule)
            assert int(cell["runs"]) == 1000
            assert abs(float(cell["mean"]) - mean) <= 1.96 * sd / math.sqrt(1000), epsilon
            exact.append(TrialStats("coin", "NSTD", "epsilon", epsilon, 1, mean,
                                    0.0, 0.0, mean, mean))
        assert sorted(stats.mean for stats in exact) == pytest.approx(
            [12.54, 23.35, 33.71, 43.97, 54.17, 64.20], abs=0.005)
        assert fit_scaling(exact).r_squared >= 0.999


class TestBanditTeachers:
    params = AccuracyParams(1 / 45, 0.05)

    def test_ntd_ind_exact(self):
        k = 5
        m = hoeffding_samples(AccuracyParams(1 / 45, 0.05 / k))
        outcome = teach_bandit_cell("NTD-IND", [BanditConcept((0.2,) * k)],
                                    self.params, [RandomSource(0, 1)])[0]
        assert outcome.steps == k * m == outcome.samples
        assert outcome.per_condition_steps == {arm: m for arm in range(k)}

    def test_nstd_ind_deterministic_arms_one_pull_each(self):
        outcome = teach_bandit_cell("NSTD-IND", [BanditConcept((0.0, 1.0, 0.0, 1.0))],
                                    self.params, [RandomSource(0, 2)])[0]
        assert outcome.steps == 4
        assert all(v == 1 for v in outcome.per_condition_steps.values())

    def test_ntd_par_accounting(self):
        k = 3
        m = hoeffding_samples(AccuracyParams(1 / 45, 0.05 / k))
        outcome = teach_bandit_cell("NTD-PAR", [BanditConcept((0.5,) * k)],
                                    self.params, [RandomSource(0, 3)])[0]
        assert outcome.steps == m          # pulls, as plotted
        assert outcome.samples == m * k    # total collected samples
        assert outcome.collection.total == m * k

    def test_nstd_par_stop_requires_all_arms_simultaneously(self):
        # one deterministic arm and one fair arm: the stop can only fire
        # when the fair arm's running mean re-enters the band, and the
        # deterministic arm must still be in band at that same pull
        params = AccuracyParams(0.4, 0.05)
        coin_flips = [0.9, 0.9, 0.1, 0.9]  # arm1: T T H T
        cap = hoeffding_samples(AccuracyParams(0.4, 0.025))
        feed = []
        for t in range(cap):
            feed.append(0.0)  # arm 0 pays out every pull (mean 1.0)
            feed.append(coin_flips[t] if t < len(coin_flips) else 0.1)
        outcome = teach_bandit_cell("NSTD-PAR", [BanditConcept((1.0, 0.5))],
                                    params, [FakeRandomSource(feed)])[0]
        # arm1 means: 0, 0, 1/3, ... first within 0.2 of 0.5 at pull 3
        assert outcome.steps == 3

    def test_nstd_par_unteaching_reevaluation(self):
        # arm1 sequence H T T T: in band at pull 2 (0.5), out at pull 3
        # (1/3 is inside 0.3..0.7, so construct a tighter band)
        params = AccuracyParams(0.2, 0.05)
        arm1 = [0.1, 0.9, 0.9, 0.9, 0.1, 0.9, 0.1, 0.9]  # H T T T H T H T
        cap = hoeffding_samples(AccuracyParams(0.2, 0.025))
        feed = []
        for t in range(cap):
            feed.append(0.0)
            feed.append(arm1[t] if t < len(arm1) else (0.1 if t % 2 else 0.9))
        outcome = teach_bandit_cell("NSTD-PAR", [BanditConcept((1.0, 0.5))], params,
                                    [FakeRandomSource(feed)])[0]
        # arm1 running means: 1, 1/2, 1/3, 1/4, 2/5, 1/3, 3/7, 3/8 ...
        # within 0.1 of 0.5 first at pull 2, but we must check the stop
        # fired there and not later
        assert outcome.steps == 2

    def test_nstd_never_exceeds_ntd_counterpart(self):
        for stream in range(10):
            c = BanditConcept((0.3, 0.6, 0.9))
            ind = teach_bandit_cell("NSTD-IND", [c], self.params, [RandomSource(4, stream)])[0]
            par = teach_bandit_cell("NSTD-PAR", [c], self.params, [RandomSource(5, stream)])[0]
            m = hoeffding_samples(AccuracyParams(1 / 45, 0.05 / 3))
            assert ind.steps <= 3 * m
            assert par.steps <= m

    def test_nstd_ind_mean_steps_match_the_exact_law(self):
        # NSTD-IND teaches each arm alone with the coin's stop rule at
        # confidence delta/k, so an arm's flip count follows coin_stop_law
        # at its mean, and a trial's is the sum over the arms. One cell of
        # 1000 trials on the harness's stream keys at master seed 7: each
        # arm's mean count, and the trials' mean, lie within 4 standard
        # errors of the exact E[T]
        means, runs = (0.2, 0.5, 0.85), 1000
        rule = StopRule.hoeffding(AccuracyParams(0.1, 0.05 / len(means)))
        assert rule.cap == 240
        streams = [RandomSource(7, derive_stream("bandit", "NSTD-IND", len(means), trial, "teach"))
                   for trial in range(runs)]
        outcomes = teach_bandit_cell("NSTD-IND", [BanditConcept(means)] * runs,
                                     AccuracyParams(0.1, 0.05), streams)
        exact = [coin_stop_moments(p, rule) for p in means]
        for arm, (mean, sd) in enumerate(exact):
            steps = np.mean([o.per_condition_steps[arm] for o in outcomes])
            assert abs(steps - mean) <= 4 * sd / math.sqrt(runs), arm
        total = sum(mean for mean, _ in exact)
        se = math.sqrt(sum(sd**2 for _, sd in exact) / runs)
        assert total == pytest.approx(44.64, abs=0.005)
        assert abs(np.mean([o.steps for o in outcomes]) - total) <= 4 * se

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            teach_bandit_cell("NTD", [BanditConcept((0.5,))], self.params,
                              [RandomSource(0, 0)])


def shift_registers(max_bits=8):
    """Shift-success probabilities of a shift register of 1 to
    ``max_bits`` bits."""
    return st.integers(1, max_bits).flatmap(
        lambda n: st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))


class TestDbnTeachers:
    params = AccuracyParams(0.3, 0.05)

    def test_ntd_budget_exact(self):
        n = 4
        c = bitflip_shift_concept(n, (0.25, 0.5, 0.75, 0.4))
        expected = hoeffding_samples(AccuracyParams(0.3 / n, 0.05 / n))
        outcome = teach_dbn_cell("NTD", [c], self.params, [RandomSource(0, 7)])[0]
        assert outcome.steps == expected
        assert not outcome.stopped_early

    @given(shift_registers(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_parallel_probe_exposes_every_condition(self, probs, stream):
        c = bitflip_shift_concept(len(probs), probs)
        for strategy in ("NTD", "NSTD-PAR"):
            outcome = teach_dbn_cell(strategy, [c], self.params, [RandomSource(8, stream)])[0]
            (probe,) = outcome.collection.inputs()
            assert set(identifying(probe)) == set(range(c.n))

    @given(shift_registers(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_individual_probe_isolates_target(self, probs, stream):
        # each factor's probe exposes that factor plus factor 0, whose
        # currently-set condition every ones-block unavoidably exposes;
        # factor 0's own probe, all ones, is drawn only when the earlier
        # probes left it unsatisfied, and exposes factor 0 alone
        c = bitflip_shift_concept(len(probs), probs)
        outcome = teach_dbn_cell("NSTD-IND", [c], self.params, [RandomSource(9, stream)])[0]
        exposures = sorted(sorted(identifying(probe))
                           for probe in outcome.collection.inputs())
        own = [[0, factor] for factor in range(1, c.n)]
        assert exposures in (own, [[0]] + own)

    def test_nstd_ind_never_resamples_stopped_condition(self):
        # factor 0 is taught last precisely because earlier probes expose
        # it; conditions for factors >= 1 are exposed only in their own
        # phase, so no stopped condition is ever sampled again
        n = 5
        c = bitflip_shift_concept(n, (0.3, 0.6, 0.2, 0.8, 0.5))
        outcome = teach_dbn_cell("NSTD-IND", [c], self.params, [RandomSource(9, 0)])[0]
        order = [factor for factor, _ in outcome.per_condition_steps]
        assert order == [1, 2, 3, 4, 0]
        for probe in outcome.collection.inputs():
            exposed = set(identifying(probe))
            factor = max(exposed)
            stopped = set(order[:order.index(factor)])
            assert not (exposed & stopped)

    def test_nstd_steps_bounded_by_ntd(self):
        n = 4
        c = bitflip_shift_concept(n, (0.25, 0.5, 0.75, 0.4))
        cap = hoeffding_samples(AccuracyParams(0.3 / n, 0.05 / n))
        for stream in range(10):
            par = teach_dbn_cell("NSTD-PAR", [c], self.params, [RandomSource(8, stream)])[0]
            assert par.steps <= cap
            ind = teach_dbn_cell("NSTD-IND", [c], self.params, [RandomSource(9, stream)])[0]
            assert ind.steps <= cap * n

    def test_plan_rejects_non_shift_structure(self):
        # factor 0 reads factor 1; a register whose factor 0 can turn on;
        # factor 1 reading only factor 0; and shift parents under a factor-1
        # table that is no shift: 0.5 where a shift register stays 0, 0.9
        # where it keeps a 1 with probability 1 - 0.5, 0.5 where it stays 1
        others = [
            DbnConcept(2, ((1,), (0, 1)),
                       {0: {(0,): 0.0, (1,): 1.0},
                        1: {(a, b): 0.5 for a in (0, 1) for b in (0, 1)}}),
            DbnConcept(2, ((0,), (0, 1)),
                       {0: {(0,): 0.5, (1,): 1.0},
                        1: {(a, b): 0.5 for a in (0, 1) for b in (0, 1)}}),
            DbnConcept(2, ((0,), (0,)), {0: {(0,): 0.0, (1,): 0.5},
                                         1: {(0,): 0.5, (1,): 0.5}}),
            DbnConcept(2, ((0,), (0, 1)),
                       {0: {(0,): 0.0, (1,): 0.0},
                        1: {(0, 0): 0.5, (0, 1): 0.9, (1, 0): 0.5, (1, 1): 0.5}}),
        ]
        env = BitflipEnv(2, (1.0, 0.5))
        cache = PlannerCache(env)
        for other in others:
            with pytest.raises(UnteachablePlanError):
                check_shift_register(other)
            for strategy in DBN_STRATEGIES:
                with pytest.raises(UnteachablePlanError):
                    teach_dbn_cell(strategy, [other], self.params, [RandomSource(0, 0)])[0]
            with pytest.raises(UnteachablePlanError):
                build_teaching_set_greedy(other, cache, "nstd-ind", self.params)
            for protocol in ("ntd-par", "nstd-par", "nstd-ind"):
                with pytest.raises(UnteachablePlanError):
                    teach_in_mdp(other, env, protocol, self.params, RandomSource(0, 0))

    @given(shift_registers(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_check_accepts_exactly_the_shift_tables(self, probs, data):
        # every register bitflip_shift_concept builds passes; changing one
        # entry of a factor-i >= 1 table raises, unless the new (1, 0)
        # entry's complement rounds to the (0, 1) entry already there, which
        # is the shift table of the new probability
        c = bitflip_shift_concept(len(probs), probs)
        check_shift_register(c)
        if c.n == 1:
            return
        i = data.draw(st.integers(1, c.n - 1))
        key = data.draw(st.sampled_from(sorted(c.cpt[i])))
        value = data.draw(st.floats(0.0, 1.0).filter(lambda v: v != c.cpt[i][key]))
        cpt = {f: dict(table) for f, table in c.cpt.items()}
        cpt[i][key] = value
        changed = DbnConcept(c.n, c.parents, cpt, c.k_par)
        if key == (1, 0) and 1.0 - value == cpt[i][(0, 1)]:
            check_shift_register(changed)
        else:
            with pytest.raises(UnteachablePlanError):
                check_shift_register(changed)

    def test_deterministic_two_probe_teaching(self):
        n = 4
        chain = DbnConcept(
            n, tuple(((i - 1) % n,) for i in range(n)),
            {i: {(0,): float(i % 2), (1,): float(1 - i % 2)} for i in range(n)})
        outcome = teach_dbn_deterministic(chain)
        assert outcome.steps == 2
        samples = [(x, y) for (x, y), count in outcome.collection.items()
                   for _ in range(count)]
        estimates = dbn_condition_estimates(samples, chain)
        assert aggregate_model_error(estimates, chain) == 0.0

    def test_deterministic_teacher_rejects_stochastic(self):
        c = bitflip_shift_concept(3, (1.0, 0.5, 1.0))
        with pytest.raises(ValueError):
            teach_dbn_deterministic(c)


def eager_delivery(kind, strategy, concept, params, rng):
    """The collection and step count a supervised teacher delivers when
    each block is drawn in full up front and a stopping block is cut at
    :func:`first_stop`; ``rng`` is left where those full draws leave
    it."""
    coll = TeachingCollection()
    if kind == "dbn":
        n, rule = concept.n, dbn_stop_rule(concept, params)

        def probs_for(probe):
            return [concept.factor_prob(i, probe) for i in range(n)]

        def deliver(probe, rows):
            for row in rows:
                coll.add(probe, tuple(int(v) for v in row))

        if strategy in ("NTD", "NSTD-PAR"):
            probe = tuple(1 - i % 2 for i in range(n))
            probs = probs_for(probe)
            rows = rng.random_block((rule.cap, n)) < probs
            taken = first_stop(rule, rows, probs)[0] if strategy == "NSTD-PAR" else rule.cap
            deliver(probe, rows[:taken])
            return coll, taken
        held, steps = {}, 0
        for factor in [*range(1, n), 0]:
            probe = (1,) * n if factor == 0 else tuple(int(i < factor) for i in range(n))
            assignment = concept.parent_values(factor, probe)
            truth = concept.cpt[factor][assignment]
            count, heads = held.get((factor, assignment), (0, 0))
            if count >= rule.cap or (count and rule.satisfied(heads / count, truth)):
                continue
            rows = rng.random_block((rule.cap - count, n)) < probs_for(probe)
            taken = first_stop(rule, rows[:, [factor]], [truth], (count, [heads]))[0]
            deliver(probe, rows[:taken])
            for j in range(n):
                key = (j, concept.parent_values(j, probe))
                seen, hits = held.get(key, (0, 0))
                held[key] = (seen + taken, hits + int(rows[:taken, j].sum()))
            steps += taken
        return coll, steps
    if kind == "coin":
        rule = StopRule.hoeffding(params)
        means, blocks = {COIN_INPUT: concept.p_star}, [[COIN_INPUT]]
    else:
        rule = StopRule.hoeffding(AccuracyParams(params.epsilon, params.delta / concept.k))
        means = dict(enumerate(concept.means))
        blocks = ([[arm] for arm in range(concept.k)] if strategy.endswith("IND")
                  else [list(range(concept.k))])
    steps = 0
    for block in blocks:
        truths = [means[x] for x in block]
        rows = rng.random_block((rule.cap, len(block))) < truths
        taken = first_stop(rule, rows, truths)[0] if strategy.startswith("NSTD") else rule.cap
        for x, column in zip(block, rows[:taken].T):
            heads = int(column.sum())
            coll.add(x, 1, heads)
            coll.add(x, 0, taken - heads)
        steps += taken
    return coll, steps


SUPERVISED_TEACHERS = ([("coin", s) for s in COIN_STRATEGIES]
                       + [("bandit", s) for s in BANDIT_STRATEGIES]
                       + [("dbn", s) for s in DBN_STRATEGIES])

probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


class TestCollectionsBuiltOnRead:
    @given(st.sampled_from(SUPERVISED_TEACHERS), st.data())
    @settings(max_examples=200, deadline=None)
    def test_collection_matches_an_eager_draw(self, teacher, data):
        # the collection built on read is the one full up-front draws
        # deliver, the stream then stands where they leave it, read or
        # not, and a second read returns the same object
        kind, strategy = teacher
        params = AccuracyParams(data.draw(st.sampled_from([0.2, 0.3, 0.5])), 0.05)
        if kind == "coin":
            concept = BernoulliConcept(data.draw(probabilities))

            def run(rng):
                return teach_coin_cell(strategy, concept, params, [rng])[0]
        elif kind == "bandit":
            concept = BanditConcept(tuple(data.draw(st.lists(probabilities, min_size=1,
                                                             max_size=4))))

            def run(rng):
                return teach_bandit_cell(strategy, [concept], params, [rng])[0]
        else:
            probs = data.draw(shift_registers(max_bits=4))
            concept = bitflip_shift_concept(len(probs), probs)

            def run(rng):
                return teach_dbn_cell(strategy, [concept], params, [rng])[0]
        key = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        # a drawn prefix builds the stream first; a skip alone does not
        prefix, skip = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        read_first = data.draw(st.booleans())
        rng, reference = RandomSource(*key), RandomSource(*key)
        for stream in (rng, reference):
            if prefix:
                stream.random_block(prefix)
            stream.skip(skip)
        outcome = run(rng)
        expected, steps = eager_delivery(kind, strategy, concept, params, reference)
        first = outcome.collection if read_first else None
        assert rng.random() == reference.random()
        collection = outcome.collection
        assert first is None or collection is first
        assert outcome.collection is collection
        assert dict(collection.items()) == dict(expected.items())
        assert (outcome.steps, collection.total) == (steps, expected.total)

    def test_fixed_budget_teachers_draw_only_when_read(self, draws):
        # no trial draws before its collection is read; each read draws,
        # only on that trial's key, and leaves the trial's stream where
        # the cell left it
        params = AccuracyParams(0.2, 0.05)
        streams = [RandomSource(1, stream) for stream in range(4)]
        outcomes = [
            teach_coin_cell("NTD", BernoulliConcept(0.3), params, streams[:1])[0],
            teach_bandit_cell("NTD-IND", [BanditConcept((0.2, 0.7))], params, streams[1:2])[0],
            teach_bandit_cell("NTD-PAR", [BanditConcept((0.2, 0.7))], params, streams[2:3])[0],
            teach_dbn_cell("NTD", [bitflip_shift_concept(3, (0.5, 0.4, 0.9))], params,
                           streams[3:])[0],
        ]
        assert draws == []
        positions = [rng.position for rng in streams]
        for stream, outcome in enumerate(outcomes):
            before = len(draws)
            assert outcome.collection.total == outcome.samples
            assert len(draws) > before
            assert {(rng.master_seed, rng.stream_id) for rng in draws[before:]} == {
                (1, stream)}
            assert [rng.position for rng in streams] == positions

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_fixed_budgets_drawn_in_chunks_are_one_draw(self, chunk, monkeypatch):
        # a budget drawn chunk by chunk from the saved stream delivers
        # the collection of one full draw, its counts added in the same
        # order
        params = AccuracyParams(0.2, 0.05)
        bandit = BanditConcept((0.2, 0.7, 1.0))
        dbn = bitflip_shift_concept(3, (0.5, 0.4, 0.9))
        teachers = [
            ("coin", "NTD", BernoulliConcept(0.3), lambda rng: teach_coin_cell(
                "NTD", BernoulliConcept(0.3), params, [rng])[0]),
            ("bandit", "NTD-IND", bandit, lambda rng: teach_bandit_cell(
                "NTD-IND", [bandit], params, [rng])[0]),
            ("bandit", "NTD-PAR", bandit, lambda rng: teach_bandit_cell(
                "NTD-PAR", [bandit], params, [rng])[0]),
            ("dbn", "NTD", dbn, lambda rng: teach_dbn_cell("NTD", [dbn], params, [rng])[0]),
        ]
        monkeypatch.setattr(teachers_module, "_BUDGET_CHUNK", chunk)
        for stream, (kind, strategy, concept, teach) in enumerate(teachers):
            collection = teach(RandomSource(2, stream)).collection
            expected, _ = eager_delivery(kind, strategy, concept, params,
                                         RandomSource(2, stream))
            assert list(collection.items()) == list(expected.items()), strategy

    def test_budget_past_the_index_range_is_refused_before_drawing(self, draws):
        outcome = teach_coin_cell("NTD", BernoulliConcept(0.3), AccuracyParams(1e-150, 0.05),
                                  [RandomSource(1, 0)])[0]
        assert outcome.steps > np.iinfo(np.int64).max
        with pytest.raises(ValueError, match="index range"):
            outcome.collection
        assert draws == []


    def test_budget_past_the_draw_bound_is_refused_before_drawing(self, draws):
        # 1.84e12 uniforms fit the index range but would draw for hours
        outcome = teach_coin_cell("NTD", BernoulliConcept(0.3), AccuracyParams(1e-6, 0.05),
                                  [RandomSource(1, 0)])[0]
        assert 2**32 < outcome.steps < np.iinfo(np.int64).max
        with pytest.raises(ValueError, match=r"2\*\*32"):
            outcome.collection
        assert draws == []


def test_a_stopping_bandit_cell_builds_at_most_one_generator(philox_builds):
    # fifty trials' streams, and the copies each keeps to read its
    # collection, all draw with the process's one generator
    concepts = [BanditConcept((0.2, 0.7, 0.5))] * 50
    outcomes = teach_bandit_cell("NSTD-PAR", concepts, AccuracyParams(0.2, 0.05),
                                 [RandomSource(9, t) for t in range(50)])
    assert all(outcome.collection.total == outcome.samples for outcome in outcomes)
    assert len(philox_builds) <= 1


SHARED_BLOCKS = [("coin", "NTD", "NSTD"), ("bandit", "NTD-IND", "NSTD-IND"),
                 ("bandit", "NTD-PAR", "NSTD-PAR"), ("dbn", "NTD", "NSTD-PAR")]


class TestOneStreamLayout:
    @given(st.sampled_from(SHARED_BLOCKS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_kinds_of_trial_read_the_same_words(self, pair, data):
        # block b of either kind owns the cap of rows from word
        # cap * width * b on: on one stream, the fixed-budget trial
        # delivers every row of each block drawn eagerly in full, and the
        # stopping trial the first rows it took of each
        kind, fixed, stopping = pair
        params = AccuracyParams(data.draw(st.sampled_from([0.2, 0.3, 0.5])), 0.05)
        if kind == "coin":
            concept = BernoulliConcept(data.draw(probabilities))
            rule = StopRule.hoeffding(params)
            blocks = [(None, [COIN_INPUT], [concept.p_star])]

            def teach(strategy, rng):
                return teach_coin_cell(strategy, concept, params, [rng])[0]
        elif kind == "bandit":
            concept = BanditConcept(tuple(data.draw(st.lists(probabilities, min_size=1,
                                                             max_size=4))))
            rule = StopRule.hoeffding(AccuracyParams(params.epsilon,
                                                     params.delta / concept.k))
            means = list(concept.means)
            blocks = ([(None, [arm], [mean]) for arm, mean in enumerate(means)]
                      if fixed.endswith("IND") else [(None, list(range(concept.k)), means)])

            def teach(strategy, rng):
                return teach_bandit_cell(strategy, [concept], params, [rng])[0]
        else:
            probs = data.draw(shift_registers(max_bits=4))
            concept = bitflip_shift_concept(len(probs), probs)
            rule = dbn_stop_rule(concept, params)
            probe = tuple(1 - i % 2 for i in range(concept.n))
            blocks = [(probe, None, [concept.factor_prob(i, probe) for i in range(concept.n)])]

            def teach(strategy, rng):
                return teach_dbn_cell(strategy, [concept], params, [rng])[0]
        key = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        full = RandomSource(*key)
        drawn = [full.random_block((rule.cap, len(truths))) < truths
                 for _, _, truths in blocks]

        def delivered(taken):
            coll = TeachingCollection()
            for (probe, conds, _), rows, n in zip(blocks, drawn, taken):
                if probe is None:
                    for x, column in zip(conds, rows[:n].T):
                        heads = int(column.sum())
                        coll.add(x, 1, heads)
                        coll.add(x, 0, n - heads)
                else:
                    for row in rows[:n]:
                        coll.add(probe, tuple(int(v) for v in row))
            return dict(coll.items())

        budget = teach(fixed, RandomSource(*key))
        assert dict(budget.collection.items()) == delivered([rule.cap] * len(blocks))
        outcome = teach(stopping, RandomSource(*key))
        taken = ([outcome.per_condition_steps[arm] for arm in range(concept.k)]
                 if stopping == "NSTD-IND" else [outcome.steps])
        assert dict(outcome.collection.items()) == delivered(taken)

    @pytest.mark.parametrize("strategy", ["NSTD-PAR", "NSTD-IND"])
    def test_reading_a_stopping_dbn_collection_draws_from_a_copy(self, strategy, draws):
        # the rows are drawn again from the trial's own copy of its
        # stream, one source on the trial's key that is not the stream,
        # and the stream stays where the cell left it
        concept = bitflip_shift_concept(4, (0.5, 0.4, 0.9, 0.7))
        rng = RandomSource(5, 1)
        outcome = teach_dbn_cell(strategy, [concept], AccuracyParams(0.3, 0.05), [rng])[0]
        before, position = len(draws), rng.position
        assert outcome.collection.total == outcome.samples
        read = set(draws[before:])
        assert len(read) == 1 and rng not in read
        assert {(s.master_seed, s.stream_id) for s in read} == {(5, 1)}
        assert rng.position == position
        reference = RandomSource(5, 1)
        reference.skip(position)
        assert rng.random() == reference.random()


CELL_TEACHERS = ([("coin", "NTD"), ("coin", "NSTD")]
                 + [("bandit", s) for s in BANDIT_STRATEGIES]
                 + [("dbn", s) for s in DBN_STRATEGIES])


class TestCells:
    @given(st.sampled_from(CELL_TEACHERS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_cell_equals_its_trials_one_by_one(self, teacher, data):
        # a cell taught at once gives every trial the outcome and the
        # final stream position of teaching that trial alone, with scan
        # groups and first rounds small enough to split the batch
        kind, strategy = teacher
        trials = data.draw(st.integers(1, 30))
        rule = StopRule(data.draw(st.sampled_from([0.0625, 0.125, 0.25, 0.5])
                                  | st.floats(0.001, 0.5)), data.draw(st.integers(1, 300)))
        params = AccuracyParams(0.3, 0.05)
        if kind == "coin":
            concept = BernoulliConcept(data.draw(probabilities))
            teach_one = lambda t, rng: teach_coin_cell(strategy, concept, params, [rng])[0]
            cell = lambda streams: teachers_module.teach_coin_cell(strategy, concept, params,
                                                                   streams)
        elif kind == "bandit":
            k = data.draw(st.integers(1, 4))
            concepts = [BanditConcept(tuple(data.draw(st.lists(
                probabilities, min_size=k, max_size=k)))) for _ in range(trials)]
            teach_one = lambda t, rng: teach_bandit_cell(strategy, [concepts[t]], params, [rng])[0]
            cell = lambda streams: teachers_module.teach_bandit_cell(strategy, concepts,
                                                                     params, streams)
        else:
            # NSTD-IND's factor 0 carries the counts of every earlier probe
            n = data.draw(st.integers(1, 4))
            concepts = [bitflip_shift_concept(n, data.draw(st.lists(
                probabilities, min_size=n, max_size=n))) for _ in range(trials)]
            teach_one = lambda t, rng: teach_dbn_cell(strategy, [concepts[t]], params, [rng])[0]
            cell = lambda streams: teachers_module.teach_dbn_cell(strategy, concepts,
                                                                  params, streams)
        seed = data.draw(st.integers(0, 2**32))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StopRule, "hoeffding", classmethod(lambda cls, p: rule))
            patch.setattr(teachers_module, "_SCAN_GROUP",
                          data.draw(st.sampled_from([1, 7, 100, 1 << 15])))
            patch.setattr(teachers_module, "_FIRST_CHUNK", data.draw(st.sampled_from([1, 3, 64])))
            streams = [RandomSource(seed, t) for t in range(trials)]
            outcomes = cell(streams)
            alone = [RandomSource(seed, t) for t in range(trials)]
            expected = [teach_one(t, rng) for t, rng in enumerate(alone)]
        assert len(outcomes) == trials
        for got, want, rng, rng_alone in zip(outcomes, expected, streams, alone):
            assert (got.steps, got.samples, got.stopped_early) == (
                want.steps, want.samples, want.stopped_early)
            assert got.per_condition_steps == want.per_condition_steps
            assert dict(got.collection.items()) == dict(want.collection.items())
            assert rng.position == rng_alone.position
            assert rng.random() == rng_alone.random()


class TestMalformedCells:
    params = AccuracyParams(0.3, 0.05)
    many = {"bandit": (teach_bandit_cell, BanditConcept((0.2, 0.7))),
            "dbn": (teach_dbn_cell, bitflip_shift_concept(3, (0.5, 0.4, 0.9)))}

    @pytest.mark.parametrize("kind, strategy", CELL_TEACHERS)
    def test_an_empty_cell_is_refused(self, kind, strategy):
        with pytest.raises(ValueError, match="at least one trial"):
            if kind == "coin":
                teach_coin_cell(strategy, BernoulliConcept(0.5), self.params, [])
            else:
                self.many[kind][0](strategy, [], self.params, [])

    @pytest.mark.parametrize("kind, strategy", CELL_TEACHERS[2:])
    def test_more_concepts_than_streams_are_refused(self, kind, strategy):
        teach, concept = self.many[kind]
        with pytest.raises(ValueError, match="as many concepts"):
            teach(strategy, [concept, concept], self.params, [RandomSource(0, 0)])

    @pytest.mark.parametrize("kind, strategy", CELL_TEACHERS[2:])
    def test_fewer_concepts_than_streams_are_refused(self, kind, strategy):
        teach, concept = self.many[kind]
        with pytest.raises(ValueError, match="as many concepts"):
            teach(strategy, [concept], self.params, [RandomSource(0, 0), RandomSource(0, 1)])


def per_trial_digest() -> str:
    """sha256 over every trial's steps, samples, early stop, per-condition
    steps and delivered collection, on a small grid of every noisy
    teacher. The golden CSVs only see per-cell aggregates of ``steps``;
    this also sees each delivered success count."""
    h = hashlib.sha256()

    def feed(o):
        h.update(repr((o.steps, o.samples, o.stopped_early,
                       sorted(o.per_condition_steps.items(), key=repr),
                       sorted(o.collection.items(), key=repr))).encode())

    for seed in (3, 11):
        for stream in range(4):
            for p, eps in ((0.3, 0.1), (0.5, 0.05), (1.0, 0.2)):
                coin, params = BernoulliConcept(p), AccuracyParams(eps, 0.05)
                feed(teach_coin_cell("NTD", coin, params, [RandomSource(seed, stream)])[0])
                feed(teach_coin_cell("NSTD", coin, params, [RandomSource(seed, stream)])[0])
            for means in ((0.4,), (0.2, 0.5, 1.0), (0.1, 0.9, 0.5, 0.0, 0.3, 0.7, 0.6)):
                for strategy in ("NTD-IND", "NSTD-IND", "NTD-PAR", "NSTD-PAR"):
                    feed(teach_bandit_cell(strategy, [BanditConcept(means)],
                                           AccuracyParams(0.1, 0.05),
                                           [RandomSource(seed, stream)])[0])
            for probs in ((0.5, 0.3), (1.0, 0.5, 0.25), (0.4, 0.6, 1.0, 0.2, 0.5)):
                c = bitflip_shift_concept(len(probs), probs)
                for eps in (0.3, 0.6):
                    for strategy in ("NTD", "NSTD-PAR", "NSTD-IND"):
                        feed(teach_dbn_cell(strategy, [c], AccuracyParams(eps, 0.05),
                                            [RandomSource(seed, stream)])[0])
    return h.hexdigest()


def test_per_trial_outcomes_are_pinned():
    # pinned: restructuring the teachers must leave every trial's outcome as it was
    assert per_trial_digest() == (
        "93bed7da1dcece454d7399d21ded27e0df94a9a6d4585621a7938ac29b9819dd")
