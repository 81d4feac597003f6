"""Exponential-time exact solvers used as ground truth.

Each solver enumerates all 3^n assignments of pair/base indices to
{unused, first set, second set}; with one element of the pair per side,
the "no pair contributes to both sets" constraint holds by construction.
The value of these routines is their obvious correctness, so there are no
clever shortcuts beyond rescaling rational weights to integers (ratio
objectives are invariant under positive scaling).

Tie-breaking is deterministic everywhere: smallest objective, then fewest
total elements, then lexicographically smallest (s1, s2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .core import (
    RationalLike,
    SolutionPair,
    TwoSetInstance,
    common_denominator,
    parse_rational,
)

__all__ = [
    "DEFAULT_SIZE_CAP",
    "OracleResult",
    "brute_force_two_set",
    "brute_force_semi_restricted",
    "semi_restricted_optima_by_value",
    "brute_force_factor_r",
]

DEFAULT_SIZE_CAP = 14


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive search: best pair (if any) and its objective,
    a Fraction, or `math.inf` when no feasible pair exists."""

    best: SolutionPair | None
    optimum: Fraction | float

    @property
    def feasible(self) -> bool:
        return self.best is not None


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise ValueError(f"instance too large for brute force (n={n} > cap {max_n})")


class _Best:
    """Tracks the minimum of (hi/lo, |s1|+|s2|, s1, s2) without Fraction churn."""

    __slots__ = ("hi", "lo", "s1", "s2")

    def __init__(self) -> None:
        self.hi = self.lo = 0
        self.s1: tuple[int, ...] = ()
        self.s2: tuple[int, ...] = ()

    def offer(self, hi: int, lo: int, s1: tuple[int, ...], s2: tuple[int, ...]) -> None:
        if self.lo == 0:
            better = True
        else:
            left = hi * self.lo
            right = self.hi * lo
            if left != right:
                better = left < right
            else:
                better = (len(s1) + len(s2), s1, s2) < (len(self.s1) + len(self.s2), self.s1, self.s2)
        if better:
            self.hi, self.lo, self.s1, self.s2 = hi, lo, s1, s2


def _result(best: _Best, weights: Sequence[RationalLike]) -> OracleResult:
    if best.lo == 0:  # nothing offered
        return OracleResult(None, math.inf)
    pair = SolutionPair.from_sets(weights, best.s1, best.s2)
    return OracleResult(pair, Fraction(best.hi, best.lo))


def _two_set_states(inst: TwoSetInstance):
    """Yield (s1, s2, sum1, sum2, max1, max2) over all feasible assignments.

    Sums and maxima are in integer-rescaled weights; s1 draws flattened
    indices 1..n, s2 draws n+1..2n, both in increasing order.
    """
    n = inst.n
    _, w = common_denominator(inst.weights)
    for assign in product((0, 1, 2), repeat=n):
        s1: list[int] = []
        s2: list[int] = []
        sum1 = sum2 = 0
        max1 = max2 = 0
        for base, choice in enumerate(assign, start=1):
            if choice == 1:
                s1.append(base)
                wi = w[base - 1]
                sum1 += wi
                if wi > max1:
                    max1 = wi
            elif choice == 2:
                s2.append(n + base)
                wj = w[n + base - 1]
                sum2 += wj
                if wj > max2:
                    max2 = wj
        if s1 and s2:
            yield tuple(s1), tuple(s2), sum1, sum2, max1, max2


def brute_force_two_set(inst: TwoSetInstance, max_n: int = DEFAULT_SIZE_CAP) -> OracleResult:
    """Exact optimum of the two-set problem by full enumeration."""
    _check_cap(inst.n, max_n)
    best = _Best()
    for s1, s2, sum1, sum2, _, _ in _two_set_states(inst):
        best.offer(max(sum1, sum2), min(sum1, sum2), s1, s2)
    return _result(best, inst.weights)


def brute_force_semi_restricted(
    inst: TwoSetInstance, m: int, max_n: int = DEFAULT_SIZE_CAP
) -> OracleResult:
    """Exact optimum restricted to pairs whose smaller set-maximum equals
    the weight of element m (compared by value)."""
    if not 1 <= m <= 2 * inst.n:
        raise ValueError(f"pivot {m} out of range 1..{2 * inst.n}")
    return semi_restricted_optima_by_value(inst, max_n).get(
        inst.weight(m), OracleResult(None, math.inf)
    )


def semi_restricted_optima_by_value(
    inst: TwoSetInstance, max_n: int = DEFAULT_SIZE_CAP
) -> dict[Fraction, OracleResult]:
    """One enumeration pass answering brute_force_semi_restricted for every
    pivot weight value at once.

    The returned mapping has one entry per weight value that admits a
    feasible solution; pivots whose weight is absent are infeasible.
    brute_force_semi_restricted reads its answer from this mapping.
    """
    _check_cap(inst.n, max_n)
    scale, _ = common_denominator(inst.weights)
    by_value: dict[int, _Best] = {}
    for s1, s2, sum1, sum2, max1, max2 in _two_set_states(inst):
        key = min(max1, max2)
        best = by_value.get(key)
        if best is None:
            best = by_value[key] = _Best()
        best.offer(max(sum1, sum2), min(sum1, sum2), s1, s2)
    return {
        Fraction(int_value, scale): _result(best, inst.weights)
        for int_value, best in by_value.items()
    }


def brute_force_factor_r(
    weights: Sequence[RationalLike],
    r: RationalLike,
    max_n: int = DEFAULT_SIZE_CAP,
) -> OracleResult:
    """Exact optimum of the factor-r ratio problem.

    The first set's sum is multiplied by r >= 1 before taking the
    larger-over-smaller ratio; roles are ordered, so assignments cover
    (s1, s2) and (s2, s1) separately.  The returned pair's cached sums are
    the plain (unscaled) weight sums.  With r = 1 this is the plain SSR
    oracle, independent of the two-set encoding.
    """
    factor = parse_rational(r)
    if factor < 1:
        raise ValueError("factor r must be >= 1")
    parsed = [parse_rational(v) for v in weights]
    if any(v <= 0 for v in parsed):
        raise ValueError("weights must be strictly positive")
    n = len(parsed)
    _check_cap(n, max_n)
    _, w = common_denominator(parsed)
    p, q = factor.numerator, factor.denominator
    best = _Best()
    for assign in product((0, 1, 2), repeat=n):
        s1: list[int] = []
        s2: list[int] = []
        sum1 = sum2 = 0
        for i, choice in enumerate(assign, start=1):
            if choice == 1:
                s1.append(i)
                sum1 += w[i - 1]
            elif choice == 2:
                s2.append(i)
                sum2 += w[i - 1]
        if s1 and s2:
            # max(r*sum1, sum2)/min(r*sum1, sum2) == max(p*sum1, q*sum2)/min(..)
            a, b = p * sum1, q * sum2
            best.offer(max(a, b), min(a, b), tuple(s1), tuple(s2))
    return _result(best, parsed)
