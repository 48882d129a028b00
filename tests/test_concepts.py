import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsim.concepts import (
    BanditConcept,
    DbnConcept,
    FactorEstimate,
    IncompleteTeachingError,
    InconsistentSampleError,
    MonotoneConjunction,
    VersionSpace,
    aggregate_model_error,
    bitflip_shift_concept,
    dbn_condition_estimates,
    mle_predict,
)
from teachsim.core import Sample, TeachingCollection, UndefinedDistributionError


def all_conjunctions(n):
    return [MonotoneConjunction(n, frozenset(rel))
            for r in range(n + 1)
            for rel in itertools.combinations(range(n), r)]


def brute_force_candidates(n, samples):
    """Oracle: filter every conjunction against every sample."""
    return {c for c in all_conjunctions(n)
            if all(c.label(x) == y for x, y in samples)}


class TestConjunctionLabel:
    def test_empty_conjunction_is_always_true(self):
        c = MonotoneConjunction(3, frozenset())
        for x in itertools.product((0, 1), repeat=3):
            assert c.label(x) == 1

    def test_direct_evaluation(self):
        c = MonotoneConjunction(3, frozenset({0, 2}))
        assert c.label((1, 0, 1)) == 1
        assert c.label((0, 0, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MonotoneConjunction(3, frozenset()).label((1, 1))

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError):
            MonotoneConjunction(2, frozenset({5}))


class TestVersionSpace:
    def test_spec_walkthrough_n2(self):
        vs = VersionSpace(2)
        vs = vs.copy().observe((1, 1), 1)
        assert {c.relevant for c in vs.candidates()} == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
        vs = vs.copy().observe((0, 1), 0)
        assert {c.relevant for c in vs.candidates()} == {
            frozenset({0}), frozenset({0, 1})}
        vs = vs.copy().observe((1, 0), 1)
        assert vs.is_taught
        assert vs.hypothesis() == MonotoneConjunction(2, frozenset({0}))

    def test_all_ones_negative_is_immediately_inconsistent(self):
        vs = VersionSpace(2)
        with pytest.raises(InconsistentSampleError):
            vs.observe((1, 1), 0)  # every monotone conjunction labels 11 as 1

    def test_inconsistent_stream_raises(self):
        vs = VersionSpace(2)
        vs.observe((0, 0), 1)  # only the empty conjunction labels 00 as 1
        with pytest.raises(InconsistentSampleError):
            vs.observe((1, 0), 0)  # but the empty conjunction labels 10 as 1

    def test_update_is_functional(self):
        vs = VersionSpace(2)
        updated = vs.copy().observe((0, 1), 0)
        assert len(list(vs.candidates())) == 4
        assert len(list(updated.candidates())) == 2

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_oracle(self, n, data):
        true = MonotoneConjunction(
            n, frozenset(data.draw(st.sets(st.integers(0, n - 1)))))
        k = data.draw(st.integers(0, 8))
        xs = [tuple(data.draw(st.integers(0, 1)) for _ in range(n))
              for _ in range(k)]
        samples = [(x, true.label(x)) for x in xs]
        vs = VersionSpace(n)
        for x, y in samples:
            vs.observe(x, y)
        expected = brute_force_candidates(n, samples)
        got = set(vs.candidates())
        assert got == expected
        assert vs.is_taught == (len(expected) == 1)

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_independent(self, n, data):
        true = MonotoneConjunction(
            n, frozenset(data.draw(st.sets(st.integers(0, n - 1)))))
        xs = [tuple(data.draw(st.integers(0, 1)) for _ in range(n))
              for _ in range(data.draw(st.integers(1, 6)))]
        samples = [(x, true.label(x)) for x in xs]
        perm = data.draw(st.permutations(samples))
        vs1, vs2 = VersionSpace(n), VersionSpace(n)
        for x, y in samples:
            vs1.observe(x, y)
        for x, y in perm:
            vs2.observe(x, y)
        assert set(vs1.candidates()) == set(vs2.candidates())

    def test_exhaustive_inputs_distinguish_all_pairs(self):
        # for small n, the full input space separates every pair of
        # conjunctions, so exhaustive teaching is always possible
        for n in (1, 2, 3):
            concepts = all_conjunctions(n)
            inputs = list(itertools.product((0, 1), repeat=n))
            for a, b in itertools.combinations(concepts, 2):
                assert any(a.label(x) != b.label(x) for x in inputs)


class TestMlePredict:
    def test_point_mass(self):
        u = TeachingCollection([Sample("x", 1), Sample("x", 1)])
        assert mle_predict(u, "x").prob(1) == 1.0

    def test_even_split(self):
        u = TeachingCollection([Sample("x", 1), Sample("x", 0)])
        d = mle_predict(u, "x")
        assert d.prob(1) == 0.5 and d.prob(0) == 0.5

    def test_unseen_input_errors(self):
        u = TeachingCollection([Sample("x", 1)])
        with pytest.raises(UndefinedDistributionError):
            mle_predict(u, "y")


class TestDbnConcept:
    def test_requires_complete_cpt(self):
        with pytest.raises(ValueError):
            DbnConcept(2, ((0,), (0, 1)), {0: {(0,): 0.0, (1,): 1.0},
                                           1: {(0, 0): 0.1}})

    def test_deterministic_chain_point_mass(self):
        chain = DbnConcept(3, ((2,), (0,), (1,)),
                           {i: {(0,): 0.0, (1,): 1.0} for i in range(3)})
        assert [chain.factor_prob(i, (1, 1, 1)) for i in range(3)] == [1.0, 1.0, 1.0]
        assert chain.is_deterministic

    def test_bitflip_informative_assignment(self):
        c = bitflip_shift_concept(4, (1.0, 0.25, 0.5, 0.75))
        # shift into bit 2: parent holds 1, bit holds 0
        state = (0, 1, 0, 0)
        assert c.factor_prob(2, state) == 0.5

    def test_bitflip_matching_parent_is_point_mass(self):
        c = bitflip_shift_concept(3, (1.0, 0.3, 0.7))
        for state in itertools.product((0, 1), repeat=3):
            for i in range(1, 3):
                if state[i - 1] == state[i]:
                    assert c.factor_prob(i, state) == float(state[i])

    def test_shift_register_needs_a_bit(self):
        with pytest.raises(ValueError, match="at least one bit"):
            bitflip_shift_concept(0, ())

    def test_length_mismatch(self):
        # factor 2 reads bits 1 and 2, and a 2-bit state has no bit 2
        c = bitflip_shift_concept(3, (1.0, 0.5, 0.5))
        with pytest.raises(IndexError):
            c.factor_prob(2, (0, 1))


class TestDbnConditionEstimates:
    def test_deterministic_chain_recovers_cpt_exactly(self):
        chain = DbnConcept(3, ((2,), (0,), (1,)),
                           {i: {(0,): 1.0, (1,): 0.0} for i in range(3)})
        samples = []
        for state in ((0, 0, 0), (1, 1, 1), (0, 1, 0)):
            nxt = tuple(int(chain.factor_prob(i, state)) for i in range(3))
            samples.append((state, nxt))
        est = dbn_condition_estimates(samples, chain)
        assert aggregate_model_error(est, chain) == 0.0


class TestAggregateModelError:
    def test_exact_estimates_have_zero_error(self):
        bandit = BanditConcept((0.2, 0.8))
        est = {0: FactorEstimate(10, 2), 1: FactorEstimate(10, 8)}
        assert aggregate_model_error(est, bandit) == 0.0

    def test_max_over_arms(self):
        bandit = BanditConcept((0.5, 0.5))
        est = {0: FactorEstimate(100, 51), 1: FactorEstimate(100, 53)}
        assert aggregate_model_error(est, bandit) == pytest.approx(0.03)

    def test_uncovered_condition_raises(self):
        bandit = BanditConcept((0.5, 0.5))
        with pytest.raises(IncompleteTeachingError):
            aggregate_model_error({0: FactorEstimate(10, 5)}, bandit)

    def test_dbn_budget_arithmetic(self):
        # a 0.02 per-condition error fits the aggregate budget 0.3 over 4
        # factors, since 0.02 <= 0.3 / 4
        assert 0.02 <= 0.3 / 4

    def test_dbn_condition_subset(self):
        c = bitflip_shift_concept(2, (1.0, 0.5))
        est = {(1, (1, 0)): FactorEstimate(10, 6)}
        err = aggregate_model_error(est, c, conditions=[(1, (1, 0))])
        assert err == pytest.approx(0.1)


class TestFactorEstimate:
    def test_mean_requires_samples(self):
        with pytest.raises(IncompleteTeachingError):
            FactorEstimate().mean

    def test_observe(self):
        est = FactorEstimate()
        for v in (1, 0, 1, 1):
            est.observe(v)
        assert est.count == 4 and est.successes == 3
        assert est.mean == 0.75
