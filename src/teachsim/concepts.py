"""Concept classes taught by the simulator (monotone conjunctions,
Bernoulli coins, k-armed bandits, binary DBNs) and the learners that
consume teaching collections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    InputId,
    LabelDistribution,
    TeachingCollection,
    empirical_distribution,
)


class InconsistentSampleError(ValueError):
    """The observed samples rule out every candidate concept, which means
    the sample stream was not produced by a concept in the class (a
    teacher bug, not a learner state)."""


class IncompleteTeachingError(ValueError):
    """A condition that must be evaluated has no samples."""


# ---------------------------------------------------------------------------
# concept classes


@dataclass(frozen=True)
class MonotoneConjunction:
    """Boolean concept over ``n`` variables that labels a vector 1 iff
    every variable in ``relevant`` is 1."""

    n: int
    relevant: frozenset[int]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        object.__setattr__(self, "relevant", frozenset(self.relevant))
        if not self.relevant <= set(range(self.n)):
            raise ValueError(f"relevant variables must lie in 0..{self.n - 1}")

    def label(self, x: Sequence[int]) -> int:
        if len(x) != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got {len(x)}")
        return int(all(x[i] == 1 for i in self.relevant))


@dataclass(frozen=True)
class BernoulliConcept:
    """A weighted coin with heads probability ``p_star``."""

    p_star: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_star <= 1.0):
            raise ValueError(f"p_star must be in [0,1], got {self.p_star}")


@dataclass(frozen=True)
class BanditConcept:
    """k-armed bandit whose arm ``i`` pays 1 with probability ``means[i]``
    and 0 otherwise (payouts are Bernoulli with the stated mean)."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if len(self.means) < 1:
            raise ValueError("a bandit needs at least one arm")
        if any(not (0.0 <= m <= 1.0) for m in self.means):
            raise ValueError("arm means must be in [0,1]")

    @property
    def k(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class DbnConcept:
    """Binary dynamic Bayesian network with known structure.

    ``parents[i]`` lists the factors whose current values determine the
    distribution of factor ``i`` at the next step, and ``cpt[i][assignment]``
    gives P(factor i = 1 | parent values). ``k_par`` is the parent-factor
    count used when splitting the confidence budget across conditions
    (``delta / n**k_par``); it defaults to the widest parent list.
    """

    n: int
    parents: tuple[tuple[int, ...], ...]
    cpt: Mapping[int, Mapping[tuple[int, ...], float]]
    k_par: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a DBN needs at least one factor")
        parents = tuple(tuple(int(p) for p in ps) for ps in self.parents)
        object.__setattr__(self, "parents", parents)
        if len(parents) != self.n:
            raise ValueError("parents must list one tuple per factor")
        cpt = {}
        for i in range(self.n):
            for p in parents[i]:
                if not (0 <= p < self.n):
                    raise ValueError(f"parent {p} of factor {i} out of range")
            table = {tuple(int(v) for v in a): float(q)
                     for a, q in dict(self.cpt[i]).items()}
            arity = len(parents[i])
            expected = 2**arity
            if len(table) != expected or any(len(a) != arity for a in table):
                raise ValueError(
                    f"factor {i} needs a probability for each of the "
                    f"{expected} parent assignments")
            if any(not (0.0 <= q <= 1.0) for q in table.values()):
                raise ValueError(f"factor {i} has a probability outside [0,1]")
            cpt[i] = table
        object.__setattr__(self, "cpt", cpt)
        if self.k_par == 0:
            object.__setattr__(self, "k_par", max(len(p) for p in parents))
        if self.k_par < 1:
            raise ValueError("k_par must be at least 1")

    def parent_values(self, factor: int, state: Sequence[int]) -> tuple[int, ...]:
        return tuple(int(state[p]) for p in self.parents[factor])

    def factor_prob(self, factor: int, state: Sequence[int]) -> float:
        return self.cpt[factor][self.parent_values(factor, state)]

    @property
    def is_deterministic(self) -> bool:
        return all(q in (0.0, 1.0) for table in self.cpt.values() for q in table.values())


def bitflip_shift_concept(n: int, shift_success: Sequence[float]) -> DbnConcept:
    """Shift-register DBN: factor i receives factor i-1's value with
    probability ``shift_success[i]`` and otherwise keeps its own value;
    factor 0 receives a constant 0.

    Declared ``k_par`` is 1: the single upstream neighbour is the parent
    factor; the retention-on-failure read of a factor's own value does not
    count toward the confidence-budget arity.
    """
    if n < 1:
        raise ValueError("a shift register needs at least one bit")
    p = [float(v) for v in shift_success]
    if len(p) != n:
        raise ValueError("shift_success must give one probability per bit")
    parents: list[tuple[int, ...]] = []
    cpt: dict[int, dict[tuple[int, ...], float]] = {}
    parents.append((0,))
    cpt[0] = {(0,): 0.0, (1,): 1.0 - p[0]}
    for i in range(1, n):
        parents.append((i - 1, i))
        cpt[i] = {(a, b): p[i] * a + (1.0 - p[i]) * b
                  for a in (0, 1) for b in (0, 1)}
    return DbnConcept(n=n, parents=tuple(parents), cpt=cpt, k_par=1)


# ---------------------------------------------------------------------------
# learners


def _ones_mask(x: Sequence[int]) -> int:
    mask = 0
    for i, v in enumerate(x):
        if v == 1:
            mask |= 1 << i
    return mask


def _mask_bits(mask: int) -> frozenset[int]:
    out = set()
    i = 0
    while mask:
        if mask & 1:
            out.add(i)
        mask >>= 1
        i += 1
    return frozenset(out)


class VersionSpace:
    """Monotone conjunctions consistent with the observed samples.

    Stored as a bracket: ``lower`` holds variables forced relevant,
    ``upper`` holds variables still allowed to be relevant, plus a list
    of pending "some zeroed variable is relevant" constraints from
    negative samples. Positive samples shrink the upper bound; unit
    propagation over the pending constraints grows the lower bound.
    For this family the bracket detects the taught (singleton) and
    inconsistent (empty) cases exactly, so the full candidate set never
    has to be enumerated. Supports n up to 24.
    """

    MAX_N = 24

    def __init__(self, n: int):
        if not (0 <= n <= self.MAX_N):
            raise ValueError(f"n must be in 0..{self.MAX_N}")
        self.n = n
        self._upper = (1 << n) - 1
        self._lower = 0
        self._pending: list[int] = []

    def copy(self) -> "VersionSpace":
        vs = VersionSpace(self.n)
        vs._upper = self._upper
        vs._lower = self._lower
        vs._pending = list(self._pending)
        return vs

    def observe(self, x: Sequence[int], label: int) -> "VersionSpace":
        """Shrink the space with one labelled vector. Raises
        :class:`InconsistentSampleError` if no candidate remains."""
        if len(x) != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got {len(x)}")
        ones = _ones_mask(x)
        zeros = ~ones & ((1 << self.n) - 1)
        if label == 1:
            self._upper &= ones
        elif label == 0:
            self._pending.append(zeros)
        else:
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        self._propagate()
        return self

    def _propagate(self) -> None:
        if self._lower & ~self._upper:
            raise InconsistentSampleError(
                "a variable is both forced relevant and excluded")
        changed = True
        while changed:
            changed = False
            keep: list[int] = []
            for constraint in self._pending:
                effective = constraint & self._upper
                if effective & self._lower:
                    continue  # already satisfied
                if effective == 0:
                    raise InconsistentSampleError(
                        "a negative sample is satisfiable by no candidate")
                if effective & (effective - 1) == 0:  # single bit: forced
                    self._lower |= effective
                    changed = True
                else:
                    keep.append(constraint)
            self._pending = keep

    @property
    def is_taught(self) -> bool:
        """True iff exactly one conjunction remains."""
        return self._lower == self._upper

    def hypothesis(self) -> MonotoneConjunction:
        if not self.is_taught:
            raise ValueError("version space has not collapsed to one concept")
        return MonotoneConjunction(self.n, _mask_bits(self._lower))

    def candidates(self) -> Iterator[MonotoneConjunction]:
        """Enumerate remaining candidates. Exponential in the bracket
        width, so meant for small n (tests, diagnostics)."""
        free = self._upper & ~self._lower
        free_bits = sorted(_mask_bits(free))
        for choice in range(1 << len(free_bits)):
            mask = self._lower
            for j, bit in enumerate(free_bits):
                if choice >> j & 1:
                    mask |= 1 << bit
            if all(constraint & mask for constraint in self._pending):
                yield MonotoneConjunction(self.n, _mask_bits(mask))


def mle_predict(u: TeachingCollection, input: InputId) -> LabelDistribution:
    """Prediction of the maximum-likelihood learner: exactly the empirical
    distribution of ``input`` in ``u``. Its total-variation distance to the
    observed distribution is zero, so it is distribution consistent for any
    accuracy target. Unseen inputs raise; callers decide the fallback."""
    return empirical_distribution(u, input)


@dataclass
class FactorEstimate:
    """Running count/success tally for one condition (an arm, or a
    (factor, parent assignment) pair)."""

    count: int = 0
    successes: int = 0

    def observe(self, outcome: int) -> None:
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        self.count += 1
        self.successes += outcome

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise IncompleteTeachingError("condition has no samples")
        return self.successes / self.count


def dbn_condition_estimates(
    samples: Iterable[tuple[Sequence[int], Sequence[int]]],
    concept: DbnConcept,
) -> dict[tuple[int, tuple[int, ...]], FactorEstimate]:
    """Learner-side conditional-probability estimates from (state,
    next_state) samples, grouped by (factor, parent assignment). The
    structure is known; only the probabilities are estimated."""
    estimates: dict[tuple[int, tuple[int, ...]], FactorEstimate] = {}
    for state, nxt in samples:
        for i in range(concept.n):
            key = (i, concept.parent_values(i, state))
            est = estimates.get(key)
            if est is None:
                est = estimates[key] = FactorEstimate()
            est.observe(int(nxt[i]))
    return estimates


def aggregate_model_error(
    estimates: Mapping[object, FactorEstimate],
    truth: BanditConcept | DbnConcept,
    conditions: Iterable[object] | None = None,
) -> float:
    """Worst-case absolute error of the estimates against the true model.

    For bandits the conditions default to all arms and the truth is the
    arm mean; for DBNs they default to every CPT entry and the truth is
    the conditional probability. Teachers that target a subset of
    conditions pass that subset explicitly. A condition without samples
    raises :class:`IncompleteTeachingError`.
    """
    if isinstance(truth, BanditConcept):
        conds = list(conditions) if conditions is not None else list(range(truth.k))
        lookup = lambda cond: truth.means[cond]
    elif isinstance(truth, DbnConcept):
        if conditions is not None:
            conds = list(conditions)
        else:
            conds = [(i, a) for i in range(truth.n) for a in truth.cpt[i]]
        lookup = lambda cond: truth.cpt[cond[0]][cond[1]]
    else:
        raise TypeError(f"unsupported truth model {type(truth).__name__}")

    missing = [c for c in conds if c not in estimates or estimates[c].count == 0]
    if missing:
        raise IncompleteTeachingError(f"conditions without samples: {missing!r}")
    return max(abs(estimates[c].mean - lookup(c)) for c in conds)
