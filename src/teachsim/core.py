"""Shared numerics: accuracy parameters, label distributions, sample
collections, and keyed random streams used by every teaching protocol."""

from __future__ import annotations

import contextlib
import hashlib
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

Label = Hashable
InputId = Hashable

_MASK64 = (1 << 64) - 1

# Uniforms per block that RandomSource.buffered draws.
BUFFERED_BLOCK = 512


class UndefinedDistributionError(LookupError):
    """Raised when an empirical distribution is queried for an input that
    has no samples."""


@dataclass(frozen=True)
class AccuracyParams:
    """Accuracy target ``epsilon`` and failure probability ``delta``.

    ``epsilon`` bounds the total-variation error of a taught prediction,
    ``delta`` bounds the probability of exceeding it. Both must lie
    strictly inside (0, 1).
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0,1), got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {self.delta}")


def hoeffding_samples(params: AccuracyParams) -> int:
    """Sample count after which an empirical mean of [0,1] draws is within
    ``epsilon`` of the true mean with probability at least ``1 - delta``.

    Evaluates ceil(ln(2/delta) / (2 epsilon^2)). Rounding up preserves the
    guarantee for the integer sample count.
    """
    raw = math.log(2.0 / params.delta) / (2.0 * params.epsilon**2)
    return int(math.ceil(raw))


class LabelDistribution:
    """Distribution over a finite label set.

    Probabilities must be nonnegative and sum to 1 within 1e-12. Empirical
    distributions are built from integer counts and keep exact ``Fraction``
    probabilities internally; they are converted to floats only on query.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Mapping[Label, float | Fraction]):
        if not probs:
            raise ValueError("a distribution needs at least one label")
        if any(p < 0 for p in probs.values()):
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs.values())
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
        self._probs = {y: p for y, p in probs.items() if p}

    @classmethod
    def from_counts(cls, counts: Mapping[Label, int]) -> "LabelDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise ValueError("count table is empty")
        return cls({y: Fraction(c, total) for y, c in counts.items() if c > 0})

    @property
    def support(self) -> frozenset:
        return frozenset(self._probs)

    def prob(self, label: Label) -> float:
        return float(self._probs.get(label, 0))

    def items(self):
        return self._probs.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelDistribution):
            return NotImplemented
        labels = self.support | other.support
        return all(self.prob(y) == other.prob(y) for y in labels)

    def __hash__(self):
        return hash(frozenset((y, float(p)) for y, p in self._probs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{y!r}: {float(p):g}" for y, p in sorted(
            self._probs.items(), key=lambda kv: repr(kv[0])))
        return f"LabelDistribution({{{inner}}})"


def tv_distance(a: LabelDistribution, b: LabelDistribution) -> float:
    """Total variation distance: half the L1 distance over the union of
    the two supports. Symmetric, in [0, 1], zero iff the distributions
    agree on every label."""
    labels = a.support | b.support
    return 0.5 * sum(abs(a.prob(y) - b.prob(y)) for y in labels)


@dataclass(frozen=True)
class Sample:
    """One labelled draw: an opaque input identifier and the label the
    true concept produced for it."""

    input: InputId
    label: Label


class TeachingCollection:
    """Unordered multiset of (input, label) samples.

    Duplicates are allowed and insertion order is deliberately not
    exposed: learners only ever see per-input label counts.
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, samples: Iterable[Sample] = ()):
        self._counts: Counter = Counter()
        self._total = 0
        for s in samples:
            self.add(s.input, s.label)

    @classmethod
    def from_counts(cls, counts: Mapping[tuple[InputId, Label], int]) -> "TeachingCollection":
        coll = cls()
        for (x, y), c in counts.items():
            coll.add(x, y, c)
        return coll

    def add(self, input: InputId, label: Label, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count:
            self._counts[(input, label)] += count
            self._total += count

    @property
    def total(self) -> int:
        return self._total

    def label_counts(self, input: InputId) -> dict[Label, int]:
        return {y: c for (x, y), c in self._counts.items() if x == input}

    def inputs(self) -> set:
        return {x for (x, _) in self._counts}

    def items(self):
        """(input, label) -> multiplicity pairs, in no promised order."""
        return self._counts.items()

    def __len__(self) -> int:
        return self._total


def empirical_distribution(u: TeachingCollection, input: InputId) -> LabelDistribution:
    """Maximum-likelihood label distribution observed in ``u`` for ``input``.

    A single sample yields a point mass. Raises
    :class:`UndefinedDistributionError` when the input has no samples.
    """
    counts = u.label_counts(input)
    if not counts:
        raise UndefinedDistributionError(
            f"no samples for input {input!r}; empirical distribution undefined")
    return LabelDistribution.from_counts(counts)


class RandomSource:
    """Counter-based random stream keyed by ``(master_seed, stream_id)``.

    The same key reproduces bit-identical draws on any platform, and
    distinct stream ids give statistically independent streams, so Monte
    Carlo trials can be keyed instead of sequenced. A source is owned by
    one trial at a time and never shared.

    The Philox generator is built on the first draw: a stream that is
    only skipped or copied builds none, and a skip before the first draw
    is applied when the generator is built.
    """

    __slots__ = ("master_seed", "stream_id", "_gen", "_pending", "_words")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen, self._words = None, 0  # words drawn from the generator
        self._pending = 0  # uniforms skipped before the generator was built

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
            pending, self._pending = self._pending, 0
            if pending:
                self.skip(pending)
        return self._gen

    def random(self) -> float:
        """One uniform draw from [0, 1)."""
        gen = self._gen or self._generator()
        self._words += 1
        return float(gen.random())

    def random_block(self, shape) -> np.ndarray:
        """Uniform draws from [0, 1) with the given shape (int or tuple)."""
        block = (self._gen or self._generator()).random(shape)
        self._words += block.size
        return block

    def skip(self, n: int) -> None:
        """Advance the stream exactly as if ``n`` uniforms had been drawn.
        Each uses one 64-bit Philox word, made four at a time: take what the
        words drawn so far left of the current four, jump the counter over
        whole fours, and take the last few. Before the first draw the skip
        is only added up."""
        if self._gen is None:
            self._pending += n
            return
        bits = self._gen.bit_generator
        buffered = min(n, -self._words % 4)
        self._words += n
        if buffered:
            bits.random_raw(buffered)
        rest = n - buffered
        if rest >= 4:
            bits.advance(rest // 4)
        if rest % 4:
            bits.random_raw(rest % 4)

    def copy(self) -> "RandomSource":
        """A new source standing where this one stands. Drawing from
        either leaves the other where it was; copying a stream that has
        not drawn yet builds no generator."""
        twin = RandomSource(self.master_seed, self.stream_id)
        twin._pending, twin._words = self._pending, self._words
        if self._gen is not None:
            twin._generator().bit_generator.state = self._gen.bit_generator.state
        return twin

    @contextlib.contextmanager
    def buffered(self):
        """A reader whose ``random()`` returns exactly the values that
        successive :meth:`random` calls would, taken ``BUFFERED_BLOCK`` at
        a time from :meth:`random_block`. When the block exits, by an exception
        too, the stream is rewound to where the reader started and skipped
        past the values read, so it stands where that many :meth:`random`
        calls would leave it. Nothing else may draw from the stream inside
        the block."""
        start = None
        block = iter(())

        def values():
            nonlocal start, block
            start = self._generator().bit_generator.state, self._words
            while True:
                block = iter(self.random_block(BUFFERED_BLOCK).tolist())
                yield from block

        try:
            yield _Reader(values().__next__)
        finally:
            if start is not None:
                used = self._words - start[1] - operator.length_hint(block)
                self._gen.bit_generator.state, self._words = start
                self.skip(used)

    def __repr__(self) -> str:
        return f"RandomSource(master_seed={self.master_seed}, stream_id={self.stream_id})"


class _Reader:
    """What :meth:`RandomSource.buffered` yields: ``random()`` is its next
    buffered uniform."""

    __slots__ = ("random",)

    def __init__(self, random):
        self.random = random


def derive_stream(*parts) -> int:
    """Stable 64-bit stream id from descriptive parts (strategy names,
    sweep values, trial indices). Hashing is keyed on the string forms,
    so it does not depend on interpreter hash randomisation."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")

