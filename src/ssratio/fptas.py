"""Approximation driver built on the exact pivoted solver.

The module holds the paper's two steps and nothing else.  For every pivot
index m, scale_instance rescales the instance by delta = epsilon * w_m /
(3N) and floors each weight to an integer (in integer arithmetic on
numerators and denominators); fptas_solve then solves the pivoted problem
exactly on the scaled weights with ssratio.semi_restricted.exact_solver
and evaluates the returned sets on the ORIGINAL weights, comparing pairs
by their integer sums over the weights' common denominator.  The best
value over all pivots is within a factor (1 + epsilon) of the true
optimum whenever a feasible solution exists; the bound is certified in
exact rationals, and the per-pivot scaling inequalities behind it are
checked by the test suite.

The solver gets one memo per solve and keys each per-side search (and its
DP table) by the scaled weights, near side and pivot weight it reads, so
pivots that scale alike share it and a repeated one costs no cells.  When
the scaled weights of both sides are equal, as in the ssr encoding and
factor-r with r = 1, the solver mirrors one side's search into the other,
so one table is built per scaled vector.

The driver sees only two-set instances: the plain and factor-r problems
reach it through ssratio.reductions (encode, fptas_solve, decode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    OpCounter,
    common_denominator,
    parse_rational,
    RationalLike,
    SolutionPair,
    TwoSetInstance,
)
from .semi_restricted import exact_solver

__all__ = [
    "PivotLog",
    "ApproxResult",
    "scale_instance",
    "fptas_solve",
    "scaled_pair_value",
]


def scale_instance(
    weights: Sequence[RationalLike], m: int, epsilon: RationalLike
) -> tuple[int, ...]:
    """The scaled integer weights of one pivot, floor(v / delta) per weight.

    delta = epsilon * (pivot weight) / (3N) with N the flattened element
    count, so the scaled pivot weight is floor(3N/epsilon) regardless of
    the original weights.  Flooring preserves weight order weakly and
    drops at most delta per element.  Each weight v = a/b is floored as
    (a * q) // (b * p) with delta = p/q, p and q taken from the numerators
    and denominators of epsilon and the pivot weight, so no Fraction is
    built or divided per weight; an int weight, whose numerator and
    denominator are itself and 1, is not parsed either.  Scaling every
    weight by one factor leaves the result unchanged.
    """
    w = [v if type(v) is int else parse_rational(v) for v in weights]
    if not w:
        raise ValueError("cannot scale an empty instance")
    if min([v.numerator for v in w]) <= 0:
        raise ValueError("weights must be strictly positive")
    if not 1 <= m <= len(w):
        raise ValueError(f"pivot {m} out of range 1..{len(w)}")
    eps = parse_rational(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    count = len(w)
    p, q = _delta(eps, w[m - 1], count)
    scaled = tuple([v.numerator * q // (v.denominator * p) for v in w])
    assert scaled[m - 1] == 3 * count * eps.denominator // eps.numerator >= 3 * count
    return scaled


def _delta(eps: Fraction, pivot: Fraction | int, count: int) -> tuple[int, int]:
    """delta = eps * pivot / (3 * count) as (p, q), delta = p/q unreduced:
    a weight a/b scales to floor((a * q) / (b * p))."""
    return eps.numerator * pivot.numerator, eps.denominator * pivot.denominator * 3 * count


@dataclass(frozen=True)
class PivotLog:
    """Per-pivot trace entry: objective under scaled and original weights
    (`math.inf` where the pivot returned no pair)."""

    m: int
    scaled_value: Fraction | float
    original_value: Fraction | float


@dataclass(frozen=True)
class ApproxResult:
    """Driver outcome.  `value` is the solution's objective on the original
    weights, a Fraction at most bound = (1 + epsilon) times the optimum, or
    `math.inf` when the instance is infeasible."""

    solution: SolutionPair
    value: Fraction | float
    bound: Fraction
    pivot_used: int | None
    pivots_evaluated: int
    dp_cell_ops: int
    per_pivot_log: tuple[PivotLog, ...] | None = None

    @property
    def feasible(self) -> bool:
        return not self.solution.is_empty

    @property
    def status(self) -> str:
        return "approximate" if self.feasible else "infeasible"


def scaled_pair_value(
    scaled: Sequence[int], s1: frozenset[int], s2: frozenset[int]
) -> Fraction | float:
    """Objective of a pair under the scaled integer weights; `math.inf`
    when a set is empty or scales to sum 0."""
    if not s1 or not s2:
        return math.inf
    sum1 = sum(scaled[i - 1] for i in s1)
    sum2 = sum(scaled[j - 1] for j in s2)
    if min(sum1, sum2) == 0:
        return math.inf
    return Fraction(max(sum1, sum2), min(sum1, sum2))


def fptas_solve(
    inst: TwoSetInstance,
    epsilon: RationalLike,
    *,
    collect_log: bool = False,
) -> ApproxResult:
    """(1 + epsilon)-approximation for a two-set instance.

    Iterates pivots m = 1..2n in ascending order, keeps the strictly best
    original-weight value (first pivot wins ties), and reports infeasible
    only when every pivot does.  `dp_cell_ops` sums the exact solver's
    cell operations.  Deterministic.
    """
    eps = parse_rational(epsilon)  # scale_instance checks its range
    weights = inst.weights
    count = 2 * inst.n
    ops = OpCounter()
    # a pair's ratio is the ratio of its integer sums, which scale as the weights do
    _, numerators = common_denominator(weights)

    best_sets = None
    best_hi, best_lo = 1, 0  # ratio inf: every pair's hi * 0 < 1 * lo
    pivot_used: int | None = None
    log: list[PivotLog] = []
    memo: dict = {}
    for m in range(1, count + 1):
        scaled = scale_instance(numerators, m, eps)
        s1, s2 = exact_solver(scaled, m, ops, memo=memo)
        if s1 and s2:
            sum1 = sum(numerators[i - 1] for i in s1)
            sum2 = sum(numerators[j - 1] for j in s2)
            hi, lo = max(sum1, sum2), min(sum1, sum2)
            if hi * best_lo < best_hi * lo:
                best_sets, best_hi, best_lo, pivot_used = (s1, s2), hi, lo, m
        if collect_log:
            value = Fraction(hi, lo) if s1 and s2 else math.inf
            log.append(PivotLog(m, scaled_pair_value(scaled, s1, s2), value))

    best_pair = SolutionPair.from_sets(weights, *best_sets) if best_sets else SolutionPair.empty()
    return ApproxResult(
        solution=best_pair,
        value=best_pair.value(),
        bound=1 + eps,
        pivot_used=pivot_used,
        pivots_evaluated=count,
        dp_cell_ops=ops.cells,
        per_pivot_log=tuple(log) if collect_log else None,
    )
