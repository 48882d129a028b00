import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teachsim.core import (
    BUFFERED_BLOCK,
    AccuracyParams,
    LabelDistribution,
    RandomSource,
    Sample,
    TeachingCollection,
    UndefinedDistributionError,
    derive_stream,
    empirical_distribution,
    hoeffding_samples,
    tv_distance,
)


def high_precision_hoeffding(epsilon, delta):
    """Independent oracle: evaluate the sample-count formula with 50-digit
    arithmetic and round up."""
    from mpmath import mp, mpf, log, ceil

    mp.dps = 50
    return int(ceil(log(2 / mpf(delta)) / (2 * mpf(epsilon) ** 2)))


class TestAccuracyParams:
    def test_valid(self):
        p = AccuracyParams(0.1, 0.05)
        assert p.epsilon == 0.1 and p.delta == 0.05

    @pytest.mark.parametrize("eps,delta", [
        (0.0, 0.05), (1.0, 0.05), (-0.1, 0.05), (0.1, 0.0), (0.1, 1.0), (0.1, 1.5),
    ])
    def test_rejects_out_of_range(self, eps, delta):
        with pytest.raises(ValueError):
            AccuracyParams(eps, delta)


class TestHoeffdingSamples:
    # expected values frozen from the high-precision oracle
    @pytest.mark.parametrize("eps,delta,expected", [
        (0.1, 0.05, 185),
        (1 / 45, 0.05, 3735),
        (0.2, 0.05, 47),
        (0.05, 0.05, 738),
    ])
    def test_known_values(self, eps, delta, expected):
        assert high_precision_hoeffding(eps, delta) == expected
        assert hoeffding_samples(AccuracyParams(eps, delta)) == expected

    def test_largest_finite_budgets_are_kept(self):
        # the formula is unchanged while the quotient is a finite float
        assert hoeffding_samples(AccuracyParams(1e-150, 0.05)) == math.ceil(
            math.log(2 / 0.05) / (2 * 1e-150**2))

    @given(st.floats(0.01, 0.9), st.floats(0.001, 0.9))
    @settings(max_examples=200)
    def test_matches_high_precision_oracle(self, eps, delta):
        assert hoeffding_samples(AccuracyParams(eps, delta)) == \
            high_precision_hoeffding(eps, delta)

    @given(st.floats(0.01, 0.45), st.floats(0.001, 0.9))
    @settings(max_examples=100)
    def test_monotonicity(self, eps, delta):
        base = hoeffding_samples(AccuracyParams(eps, delta))
        assert hoeffding_samples(AccuracyParams(min(eps * 1.5, 0.99), delta)) <= base
        assert hoeffding_samples(AccuracyParams(eps, min(delta * 1.5, 0.99))) <= base

    @given(st.floats(0.01, 0.45), st.floats(0.001, 0.9))
    @settings(max_examples=100)
    def test_halving_epsilon_roughly_quadruples(self, eps, delta):
        base = hoeffding_samples(AccuracyParams(eps, delta))
        halved = hoeffding_samples(AccuracyParams(eps / 2, delta))
        assert 4 * base - 4 <= halved <= 4 * base + 4


def _dist(probs):
    return LabelDistribution(probs)


class TestLabelDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            _dist({"H": 0.5, "T": 0.4})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _dist({"H": 1.5, "T": -0.5})

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _dist({})

    def test_point_mass(self):
        d = LabelDistribution({"H": 1})
        assert d.prob("H") == 1.0 and d.prob("T") == 0.0

    def test_zero_probability_labels_are_dropped(self):
        # equal distributions hash alike, so a set keeps one of them
        d = LabelDistribution({"x": 1.0, "y": 0.0})
        assert d == LabelDistribution({"x": 1.0})
        assert len({d, LabelDistribution({"x": 1.0})}) == 1
        assert d.support == frozenset({"x"}) and d.prob("y") == 0.0
        assert dict(d.items()) == {"x": 1.0}

    def test_from_counts_is_exact(self):
        d = LabelDistribution.from_counts({1: 3, 0: 1})
        assert d.prob(1) == 0.75 and d.prob(0) == 0.25


class TestTvDistance:
    def test_identity(self):
        d = _dist({"H": 0.5, "T": 0.5})
        assert tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(LabelDistribution({"H": 1}),
                           LabelDistribution({"T": 1})) == 1.0

    def test_hand_computed(self):
        a = _dist({"H": 0.5, "T": 0.5})
        b = _dist({"H": 0.8, "T": 0.2})
        assert tv_distance(a, b) == pytest.approx(0.3, abs=1e-12)

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=5),
           st.lists(st.integers(0, 50), min_size=2, max_size=5),
           st.lists(st.integers(0, 50), min_size=2, max_size=5))
    @settings(max_examples=200)
    def test_symmetry_range_and_triangle(self, wa, wb, wc):
        def normalize(ws):
            total = sum(ws)
            return _dist({i: Fraction(w, total) for i, w in enumerate(ws) if w})
        if sum(wa) == 0 or sum(wb) == 0 or sum(wc) == 0:
            return
        a, b, c = normalize(wa), normalize(wb), normalize(wc)
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-12)
        assert -1e-12 <= tv_distance(a, b) <= 1.0 + 1e-9
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12

    def test_zero_iff_equal(self):
        a = _dist({0: 0.25, 1: 0.75})
        b = LabelDistribution.from_counts({0: 1, 1: 3})
        assert tv_distance(a, b) <= 1e-12
        assert a == b


class TestTeachingCollection:
    def test_multiset_counts(self):
        u = TeachingCollection([Sample("x", 1), Sample("x", 0),
                                Sample("x", 1), Sample("x", 1)])
        assert u.total == 4
        assert sum(u.label_counts("x").values()) == 4
        assert u.label_counts("x") == {1: 3, 0: 1}

    def test_empirical_distribution_ratios(self):
        u = TeachingCollection([Sample("x", 1), Sample("x", 0),
                                Sample("x", 1), Sample("x", 1)])
        d = empirical_distribution(u, "x")
        assert d.prob(1) == 0.75 and d.prob(0) == 0.25

    def test_single_sample_point_mass(self):
        u = TeachingCollection([Sample("x", 1)])
        assert empirical_distribution(u, "x") == LabelDistribution({1: 1})

    def test_empty_collection_errors(self):
        with pytest.raises(UndefinedDistributionError):
            empirical_distribution(TeachingCollection(), "x")

    def test_from_counts_round_trip(self):
        u = TeachingCollection.from_counts({("x", 1): 2, ("y", 0): 3})
        assert u.total == 5
        assert u.label_counts("y") == {0: 3}
        assert u.inputs() == {"x", "y"}


class TestRandomSource:
    def test_replay_is_bit_identical(self):
        a = RandomSource(1234, 7).random_block(64)
        b = RandomSource(1234, 7).random_block(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(1234, 7).random_block(64)
        b = RandomSource(1234, 8).random_block(64)
        c = RandomSource(1235, 7).random_block(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_stream_is_stable(self):
        s = derive_stream("bandit", "NTD-IND", 5, 17, "teach")
        assert s == derive_stream("bandit", "NTD-IND", 5, 17, "teach")
        assert 0 <= s < 2**64
        assert s != derive_stream("bandit", "NTD-IND", 5, 18, "teach")

    @staticmethod
    def _skip_agrees(seed, prefix, shape) -> bool:
        """Skipping a block's uniforms leaves the stream where drawing
        them would: every later draw, single or in a block, is equal."""
        drawn, skipped = RandomSource(*seed), RandomSource(*seed)
        for rng in (drawn, skipped):
            for part in prefix:
                rng.random_block(part) if part else rng.random()
        drawn.random_block(shape)
        skipped.skip(int(np.prod(shape)))
        return (drawn.random() == skipped.random()
                and drawn.random_block(11).tolist() == skipped.random_block(11).tolist())

    def test_skip_every_small_prefix_and_count(self):
        # odd prefixes leave the four-word Philox buffer part full; the
        # counts cover 0, fewer than the buffered words and whole fours
        for prefix in range(9):
            for n in range(13):
                assert self._skip_agrees((4, 2), [prefix] if prefix else [], n)

    @given(st.data())
    @settings(max_examples=300)
    def test_skip_matches_drawing_the_same_count(self, data):
        seed = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        # a prefix part of 0 is one single draw
        prefix = data.draw(st.lists(st.integers(0, 9), max_size=4))
        shape = data.draw(st.one_of(
            st.integers(0, 70),
            st.sampled_from([4, 8, 64, 4096]),
            st.tuples(st.integers(0, 40), st.integers(1, 10))))
        assert self._skip_agrees(seed, prefix, shape)


    @given(st.data())
    @settings(max_examples=300)
    def test_read_ahead_matches_single_draws(self, data):
        # random() returns what successive single draws of a numpy stream
        # of the same key would, across the edges of its read-ahead
        # blocks, and leaves the stream where they would
        seed = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        prefix = data.draw(st.lists(st.integers(0, 9), max_size=4))
        block = BUFFERED_BLOCK
        reads = data.draw(st.one_of(
            st.integers(0, 40), st.integers(0, 3 * block + 3),
            st.tuples(st.integers(1, 3), st.integers(-2, 2)).map(
                lambda edge: edge[0] * block + edge[1])))
        single = np.random.Generator(np.random.Philox(key=np.array(seed, dtype=np.uint64)))
        rng = RandomSource(*seed)
        for part in prefix:
            assert (rng.random_block(part).tolist() if part else [rng.random()]
                    ) == single.random(part or 1).tolist()
        expected = [single.random() for _ in range(reads)]
        assert [rng.random() for _ in range(reads)] == expected
        assert single.random() == rng.random()
        assert single.random(11).tolist() == rng.random_block(11).tolist()

    def test_a_stream_never_drawn_builds_no_generator(self, philox_builds, draws):
        # in a process that has not drawn yet, skips, copies and repr
        # neither draw nor build; the first draw builds the process's one
        # generator, and draws on other keys, copies and positions build
        # no other
        rng = RandomSource(3, 4)
        rng.skip(9)
        twin = rng.copy()
        twin.skip(2)
        twin.copy()
        repr(rng)
        assert philox_builds == [] and draws == []
        rng.random()
        assert len(philox_builds) == 1
        twin.random_block(5)
        RandomSource(4, 3).random()
        rng.seek(0)
        rng.random_block(3)
        assert len(philox_builds) == 1 and len(draws) == 4

    @given(st.data())
    @settings(max_examples=300)
    def test_skip_before_the_first_draw_matches_an_eager_stream(self, data):
        # skips before the first draw only add up; the draws after them
        # are those of a numpy stream of the same key that drew and
        # dropped as many uniforms, through runs of random() too
        seed = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        skips = data.draw(st.lists(st.one_of(
            st.integers(0, 13), st.sampled_from([64, 4095, 4096, 4097])), max_size=3))
        reads = data.draw(st.lists(st.one_of(
            st.just(("single", 1)),
            st.tuples(st.just("block"), st.integers(0, 9)),
            st.tuples(st.just("singles"), st.integers(0, BUFFERED_BLOCK + 2))),
            min_size=1, max_size=4))
        eager = np.random.Generator(np.random.Philox(key=np.array(seed, dtype=np.uint64)))
        eager.random(sum(skips))
        lazy = RandomSource(*seed)
        for n in skips:
            lazy.skip(n)
        for kind, count in reads:
            expected = eager.random(count).tolist()
            if kind == "single":
                assert [lazy.random()] == expected
            elif kind == "block":
                assert lazy.random_block(count).tolist() == expected
            else:
                assert [lazy.random() for _ in range(count)] == expected
        assert lazy.random_block(5).tolist() == eager.random(5).tolist()

    @given(st.data())
    @settings(max_examples=200)
    def test_copy_draws_what_the_original_would(self, data):
        # a copy taken before or after the first draw, or after a pending
        # skip, draws the original's next values, and drawing from either
        # leaves the other where it stood
        seed = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        prefix = data.draw(st.integers(0, 9))
        skip = data.draw(st.integers(0, 9))
        shape = data.draw(st.one_of(st.integers(0, 70), st.tuples(st.integers(0, 9),
                                                                  st.integers(1, 4))))
        original, reference = RandomSource(*seed), RandomSource(*seed)
        for rng in (original, reference):
            if prefix:
                rng.random_block(prefix)
            rng.skip(skip)
        twin = original.copy()
        expected = reference.random_block(shape).tolist()
        assert twin.random_block(shape).tolist() == expected
        assert original.random_block(shape).tolist() == expected
        following = reference.random()
        assert original.random() == following
        assert twin.random() == following


    @given(st.data())
    @settings(max_examples=200)
    def test_interleaved_draws_skips_and_copies_match_an_eager_stream(self, data):
        # random, random_block, skip, copy and a seek to another source's
        # position, each on one of the sources made so far: after every
        # operation every value drawn and every source's position equal a
        # numpy stream of the same key drawn from its start. The sources
        # start on three keys: two differ only in master_seed, two only in
        # stream_id. The first middle segment has each of those pairs draw
        # at equal positions, one right after the other; the second copies
        # a source and takes a block from it while random() has read
        # ahead.
        seed, stream = (data.draw(st.integers(0, 2**64 - 1)),
                        data.draw(st.integers(0, 2**64 - 1)))
        other_seed = data.draw(st.integers(0, 2**64 - 1).filter(lambda v: v != seed))
        other_stream = data.draw(st.integers(0, 2**64 - 1).filter(lambda v: v != stream))
        which = st.integers(0, 5)
        op = st.one_of(
            st.tuples(st.just("random"), which, st.integers(1, BUFFERED_BLOCK + 2)),
            st.tuples(st.just("block"), which, st.one_of(
                st.integers(0, 70), st.tuples(st.integers(0, 9), st.integers(1, 4)))),
            st.tuples(st.just("skip"), which, st.one_of(
                st.integers(0, 13), st.sampled_from([511, 512, 513, 4097]))),
            st.tuples(st.just("copy"), which, st.none()),
            st.tuples(st.just("seek"), which, which))
        count = st.integers(1, 9)
        keyed = [("block", 0, data.draw(count)), ("seek", 1, 0), ("block", 1, data.draw(count)),
                 ("block", 0, data.draw(count)), ("seek", 2, 0), ("block", 2, data.draw(count))]
        middle = [("block", -1, 0),
                  ("random", -1, data.draw(st.integers(1, BUFFERED_BLOCK - 1))),
                  ("copy", -1, None),
                  ("block", -2, data.draw(st.integers(1, 9))),
                  ("random", -1, 1), ("random", -2, 1)]
        ops = (data.draw(st.lists(op, max_size=5)) + keyed + middle
               + data.draw(st.lists(op, max_size=5)))

        def eager(key, position, count):
            words = np.random.Generator(np.random.Philox(
                key=np.array(key, dtype=np.uint64))).random(position + count)
            return words[position:]

        keys = [(seed, stream), (other_seed, stream), (seed, other_stream)]
        sources, positions = [RandomSource(*key) for key in keys], [0, 0, 0]
        for kind, who, arg in ops:
            i = who if who < 0 else who % len(sources)
            rng, key, at = sources[i], keys[i], positions[i]
            if kind == "random":
                assert [rng.random() for _ in range(arg)] == eager(key, at, arg).tolist()
                positions[i] += arg
            elif kind == "block":
                block = rng.random_block(arg)
                assert np.array_equal(block, eager(key, at, block.size).reshape(arg))
                positions[i] += block.size
            elif kind == "skip":
                rng.skip(arg)
                positions[i] += arg
            elif kind == "seek":
                positions[i] = positions[arg % len(sources)]
                rng.seek(positions[i])
            else:
                sources.append(rng.copy())
                keys.append(key)
                positions.append(at)
            assert [s.position for s in sources] == positions

    @given(st.data())
    @settings(max_examples=200)
    def test_seeks_forward_and_back_match_a_fresh_source(self, data):
        # after any run of seeks ahead or behind, skips and draws, each
        # draw equals a fresh source's draw at the same word, through
        # runs of random() too; a seek within the current four words, to
        # the word the source stands at, or far past it all land alike
        seed = (data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(0, 2**64 - 1)))
        word = st.one_of(st.integers(0, 13), st.integers(0, 5000), st.just(2**40 + 3))
        op = st.one_of(
            st.tuples(st.just("seek"), word),
            st.tuples(st.just("skip"), st.integers(0, 9)),
            st.tuples(st.just("block"), st.integers(0, 9)),
            st.tuples(st.just("random"), st.integers(1, BUFFERED_BLOCK + 2)))
        rng = RandomSource(*seed)
        for kind, arg in data.draw(st.lists(op, min_size=1, max_size=12)):
            fresh = RandomSource(*seed)
            fresh.skip(rng.position if kind != "seek" else arg)
            if kind == "seek":
                rng.seek(arg)
            elif kind == "skip":
                rng.skip(arg)
                fresh.skip(arg)
            elif kind == "block":
                assert rng.random_block(arg).tolist() == fresh.random_block(arg).tolist()
            else:
                assert [rng.random() for _ in range(arg)] == [fresh.random()
                                                               for _ in range(arg)]
            assert rng.position == fresh.position
        assert rng.random_block(5).tolist() == fresh.random_block(5).tolist()

    def test_a_negative_seek_or_skip_is_refused(self, draws):
        # Philox's block counter is unsigned: word -1 has no block
        rng = RandomSource(1, 0)
        rng.skip(3)
        with pytest.raises(ValueError, match="no word -1"):
            rng.seek(-1)
        with pytest.raises(ValueError, match="negative count"):
            rng.skip(-1)
        assert rng.position == 3 and draws == []
        assert rng.random() == RandomSource(1, 0).random_block(4)[3]


class TestBernoulliSample:
    """Bernoulli draws as the teachers make them: a block of uniforms
    compared with the success probability."""

    def test_block_mean_large(self):
        draws = RandomSource(99, 4).random_block(100_000) < 0.5
        assert abs(draws.mean() - 0.5) < 0.01
