"""Shared numerics: accuracy parameters, label distributions, sample
collections, and keyed random streams used by every teaching protocol."""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping

import numpy as np

Label = Hashable
InputId = Hashable

_MASK64 = (1 << 64) - 1

# Words a stream can draw: Philox's block counter, one uint64, counts
# blocks of four.
STREAM_WORDS = 1 << 66

# Uniforms that RandomSource.random reads ahead at a time.
BUFFERED_BLOCK = 512
_READ_OUT = iter(())

# The process's one generator, built on its first draw, and the key and word it stands at.
_generator = _stands_at = None


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
    guarantee for the integer sample count. Raises ValueError when the
    count is not a finite number: epsilon so small that 2 epsilon^2
    underflows, or a quotient past the largest float.
    """
    denominator = 2.0 * params.epsilon**2
    raw = math.log(2.0 / params.delta) / denominator if denominator else math.inf
    if not math.isfinite(raw):
        raise ValueError(f"epsilon={params.epsilon!r} and delta={params.delta!r} "
                         "need more samples than a float can count")
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
    one trial at a time, and sources are drawn from one thread.

    Each uniform is one 64-bit Philox word, and word ``w`` is fixed by
    the key and ``w`` alone, so a source is only its key and ``position``,
    the count of uniforms drawn or skipped. Every source draws with the
    process's one generator, built on the first draw. :meth:`random`
    reads ``BUFFERED_BLOCK`` uniforms ahead and counts only those it
    returns.
    """

    __slots__ = ("master_seed", "stream_id", "position", "_ahead")

    def __init__(self, master_seed: int, stream_id: int = 0):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self.position = 0
        self._ahead = _READ_OUT  # the rest of random()'s read-ahead

    def _draw(self, shape) -> np.ndarray:
        """Uniforms from word ``position`` on. A generator standing
        elsewhere is set to Philox block ``position // 4`` and takes its
        first ``position % 4`` words, cheaper than building or advancing."""
        global _generator, _stands_at
        if _stands_at != (self.master_seed, self.stream_id, self.position):
            if _generator is None:
                _generator = np.random.Generator(np.random.Philox())
            _generator.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": [self.position // 4, 0, 0, 0],
                          "key": [self.master_seed, self.stream_id]},
                "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            if self.position % 4:
                _generator.bit_generator.random_raw(self.position % 4)
        block = _generator.random(shape)
        _stands_at = (self.master_seed, self.stream_id, self.position + block.size)
        return block

    def random(self) -> float:
        """One uniform draw from [0, 1)."""
        value = next(self._ahead, None)
        if value is None:
            self._ahead = iter(self._draw(BUFFERED_BLOCK).tolist())
            value = next(self._ahead)
        self.position += 1
        return value

    def random_block(self, shape) -> np.ndarray:
        """Uniform draws from [0, 1) with the given shape (int or tuple)."""
        self._ahead = _READ_OUT
        block = self._draw(shape)
        self.position += block.size
        return block

    def skip(self, n: int) -> None:
        """Advance the stream exactly as if ``n`` uniforms had been drawn;
        a negative ``n`` raises ``ValueError``."""
        if n < 0:
            raise ValueError(f"cannot skip a negative count, {n}")
        self.seek(self.position + n)

    def seek(self, position: int) -> None:
        """Stand at word ``position``, ahead of the current one or behind
        it: the next draw is the one a fresh source would make after
        ``position`` uniforms. A negative ``position`` raises
        ``ValueError``."""
        if position < 0:
            raise ValueError(f"a stream has no word {position}")
        self._ahead = _READ_OUT
        self.position = position

    def copy(self) -> "RandomSource":
        """A new source at this one's position. Drawing from either leaves
        the other where it was."""
        twin = RandomSource(self.master_seed, self.stream_id)
        twin.position = self.position
        return twin

    def __repr__(self) -> str:
        return f"RandomSource(master_seed={self.master_seed}, stream_id={self.stream_id})"


def derive_stream(*parts) -> int:
    """Stable 64-bit stream id from descriptive parts (strategy names,
    sweep values, trial indices). Hashing is keyed on the string forms,
    so it does not depend on interpreter hash randomisation."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")

