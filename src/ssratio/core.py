"""Exact data model shared by every solver in the package.

All weights, sums and ratio values are `fractions.Fraction` instances:
solver logic never touches floating point, so comparisons and tie-handling
are bit-exact.  "No solution" has the ratio `math.inf`: every Fraction
compares below it exactly (Fraction does not convert itself to float for
that comparison, so ratios past the float range stay exact), and it
prints as "inf".  Instance indices are 1-based everywhere in the public
API; 0-based storage is an internal detail.

A two-set instance consists of n weight pairs (a_i, b_i), flattened into a
single weight list of length 2n where position i holds a_i and position
n+i holds b_i.  A solution is a pair of disjoint index sets drawing from
opposite sides of that list; the objective is the ratio of the larger set
sum to the smaller one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, float, Fraction]

__all__ = [
    "Fraction",
    "RationalLike",
    "parse_rational",
    "TwoSetInstance",
    "SolutionPair",
    "OpCounter",
    "check_feasible_two_set",
    "check_feasible_semi_restricted",
]


def parse_rational(value: RationalLike) -> Fraction:
    """Parse a value to an exact Fraction.

    Strings accept both "p/q" and decimal forms.  Floats are interpreted
    through their shortest decimal representation ("0.1" means 1/10, not
    the binary double closest to it), so user-facing decimals stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational value: {value!r}") from exc
    raise ValueError(f"not a rational value: {value!r}")


def _check_index(i: int, count: int) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= count:
        raise ValueError(f"index {i!r} out of range 1..{count}")


def _set_sum(indices: Iterable[int], weights: Sequence[Fraction]) -> Fraction:
    total = Fraction(0)
    for i in indices:
        total += weights[i - 1]
    return total


@dataclass(frozen=True)
class TwoSetInstance:
    """n weight pairs flattened to 2n positive weights.

    Index i <= n is the first-side weight of pair i; index n+i is the
    second-side weight of the same pair.  A feasible solution may not use
    both elements of a pair.
    """

    n: int
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("instance needs at least one pair")
        if len(self.weights) != 2 * self.n:
            raise ValueError(f"expected {2 * self.n} weights, got {len(self.weights)}")
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise ValueError("weights must be Fractions; use from_pairs")
            if w <= 0:
                raise ValueError("all weights must be strictly positive")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[RationalLike, RationalLike]]) -> "TwoSetInstance":
        listed = [(parse_rational(a), parse_rational(b)) for a, b in pairs]
        if not listed:
            raise ValueError("instance needs at least one pair")
        firsts = tuple(a for a, _ in listed)
        seconds = tuple(b for _, b in listed)
        return cls(len(listed), firsts + seconds)

    def weight(self, i: int) -> Fraction:
        _check_index(i, 2 * self.n)
        return self.weights[i - 1]


@dataclass(frozen=True)
class SolutionPair:
    """Two disjoint index sets with their cached weight sums.

    Both sets empty means "no solution"; a solver never returns a pair
    with exactly one empty side.
    """

    s1: frozenset[int]
    s2: frozenset[int]
    sum1: Fraction = field(default_factory=lambda: Fraction(0))
    sum2: Fraction = field(default_factory=lambda: Fraction(0))

    def __post_init__(self) -> None:
        if self.s1 & self.s2:
            raise ValueError("solution sets must be disjoint")
        if bool(self.s1) != bool(self.s2):
            raise ValueError("solution sets must be both empty or both nonempty")

    @classmethod
    def empty(cls) -> "SolutionPair":
        return cls(frozenset(), frozenset())

    @classmethod
    def from_sets(
        cls,
        weights: Sequence[RationalLike],
        s1: Iterable[int],
        s2: Iterable[int],
    ) -> "SolutionPair":
        w = [parse_rational(v) for v in weights]
        a = frozenset(s1)
        b = frozenset(s2)
        for i in a | b:
            _check_index(i, len(w))
        return cls(a, b, _set_sum(a, w), _set_sum(b, w))

    @property
    def is_empty(self) -> bool:
        return not self.s1 and not self.s2

    def value(self) -> Fraction | float:
        """Objective of this pair: larger sum over smaller sum, or
        `math.inf` for the empty (infeasible) pair."""
        if self.is_empty:
            return math.inf
        return max(self.sum1, self.sum2) / min(self.sum1, self.sum2)


def check_feasible_two_set(sol: SolutionPair, n: int) -> bool:
    """True iff the pair is a valid two-set solution for n pairs.

    Both sets nonempty, each confined to one side of the flattened list
    (either ordering), and no pair contributes to both sets.  Malformed
    input (out-of-range indices) yields False rather than an error.
    """
    if sol.is_empty:
        return False
    first = set(range(1, n + 1))
    second = set(range(n + 1, 2 * n + 1))
    s1, s2 = set(sol.s1), set(sol.s2)
    if not (s1 | s2) <= (first | second):
        return False
    if s1 & s2:
        return False
    if not ((s1 <= first and s2 <= second) or (s1 <= second and s2 <= first)):
        return False
    bases1 = {(i - 1) % n for i in s1}
    bases2 = {(j - 1) % n for j in s2}
    return not bases1 & bases2


def check_feasible_semi_restricted(sol: SolutionPair, inst: TwoSetInstance, m: int) -> bool:
    """True iff feasible for two-set and the smaller of the two set maxima
    equals the weight of element m.

    The comparison is by weight value, not index: any element whose weight
    equals inst.weight(m) can realise the condition.
    """
    _check_index(m, 2 * inst.n)
    if not check_feasible_two_set(sol, inst.n):
        return False
    max1 = max(inst.weight(i) for i in sol.s1)
    max2 = max(inst.weight(j) for j in sol.s2)
    return min(max1, max2) == inst.weight(m)


class OpCounter:
    """Mutable accumulator for instrumented cell-operation counts."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells = 0

    def add(self, amount: int) -> None:
        self.cells += amount
