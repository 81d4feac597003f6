"""Approximation driver built on a pluggable exact pivoted solver.

For every pivot index m the driver rescales the instance by
delta = epsilon * w_m / (3N), floors each weight to an integer (in integer
arithmetic on numerators and denominators), solves the pivoted problem
exactly on the scaled instance, and evaluates the returned sets on the
ORIGINAL weights.  The best value over all pivots is
within a factor (1 + epsilon) of the true optimum whenever a feasible
solution exists; the bound is certified in exact rationals.

The exact solver is any callable taking (integer weight list, pivot index)
and returning two index frozensets (both empty meaning infeasible) that
are feasible and ratio-optimal for the pivoted problem on its input.  The
built-in default is ssratio.semi_restricted.exact_solver.  Pivots sharing
the same weight value and side produce identical scaled subproblems, so
the driver calls the solver once per distinct (value, side), at the first
pivot with that key.  Pivots of equal value on opposite sides share the
scaled weights too: the built-in solver gets one memo per pivot value, so
each per-side search (and its DP table) runs once per (value, near side).
When the scaled weights of both sides are equal, as in the ssr encoding
and factor-r with r = 1, the solver mirrors one side's search into the
other, so one table is built per pivot value.  A custom `exact=` solver
gets no memo and is still called once per (value, side).

The driver sees only two-set instances: the plain and factor-r problems
reach it through ssratio.reductions (encode, fptas_solve, decode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    OpCounter,
    parse_rational,
    RationalLike,
    RatioValue,
    SolutionPair,
    TwoSetInstance,
)
from .semi_restricted import exact_solver

__all__ = [
    "ExactSolver",
    "ScaleContext",
    "PivotLog",
    "ApproxResult",
    "scale_instance",
    "fptas_solve",
    "scaled_pair_value",
    "check_pivot_inequalities",
    "check_optimum_scaling",
]

ExactSolver = Callable[[Sequence[int], int], tuple[frozenset[int], frozenset[int]]]


@dataclass(frozen=True)
class ScaleContext:
    """One pivot's scaling: step size delta and the floored integer weights.

    delta = epsilon * (pivot weight) / (3N) with N the flattened element
    count, so the scaled pivot weight is floor(3N/epsilon) regardless of
    the original weights.  Flooring preserves weight order weakly and
    drops at most delta per element.
    """

    m: int
    epsilon: Fraction
    delta: Fraction
    scaled: tuple[int, ...]


def scale_instance(
    weights: Sequence[RationalLike], m: int, epsilon: RationalLike
) -> ScaleContext:
    """Build the scaled integer instance for one pivot.

    Each weight v = a/b is floored as floor(v / delta) = (a * q) // (b * p)
    with delta = p/q in lowest terms, so no Fraction is divided per weight.
    """
    w = [parse_rational(v) for v in weights]
    if not w:
        raise ValueError("cannot scale an empty instance")
    if any(v.numerator <= 0 for v in w):
        raise ValueError("weights must be strictly positive")
    if not 1 <= m <= len(w):
        raise ValueError(f"pivot {m} out of range 1..{len(w)}")
    eps = parse_rational(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    count = len(w)
    delta = eps * w[m - 1] / (3 * count)
    p, q = delta.numerator, delta.denominator
    scaled = tuple(v.numerator * q // (v.denominator * p) for v in w)
    assert scaled[m - 1] == 3 * count * eps.denominator // eps.numerator >= 3 * count
    return ScaleContext(m, eps, delta, scaled)


@dataclass(frozen=True)
class PivotLog:
    """Per-pivot trace entry: objective under scaled and original weights."""

    m: int
    scaled_value: RatioValue
    original_value: RatioValue


@dataclass(frozen=True)
class ApproxResult:
    """Driver outcome.  `value` is on the original weights; when a feasible
    solution exists it is at most bound = (1 + epsilon) times the optimum."""

    solution: SolutionPair
    value: RatioValue
    epsilon: Fraction
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


def scaled_pair_value(ctx: ScaleContext, s1: frozenset[int], s2: frozenset[int]) -> RatioValue:
    """Objective of a pair under the scaled integer weights."""
    if not s1 or not s2:
        return RatioValue.infinite()
    sum1 = sum(ctx.scaled[i - 1] for i in s1)
    sum2 = sum(ctx.scaled[j - 1] for j in s2)
    if min(sum1, sum2) == 0:
        return RatioValue.infinite()
    return RatioValue.finite(Fraction(max(sum1, sum2), min(sum1, sum2)))


def fptas_solve(
    inst: TwoSetInstance,
    epsilon: RationalLike,
    exact: ExactSolver | None = None,
    *,
    collect_log: bool = False,
    counter: OpCounter | None = None,
) -> ApproxResult:
    """(1 + epsilon)-approximation for a two-set instance.

    Iterates pivots m = 1..2n in ascending order, keeps the strictly best
    original-weight value (first pivot wins ties), and reports infeasible
    only when every pivot does.  `exact` replaces the built-in pivoted
    solver; the built-in one adds its cell operations to `counter`.
    Deterministic.
    """
    eps = parse_rational(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    weights = inst.weights
    count = 2 * inst.n
    ops = counter if counter is not None else OpCounter()
    ops_start = ops.cells

    best_pair = SolutionPair.empty()
    best_value = RatioValue.infinite()
    pivot_used: int | None = None
    log: list[PivotLog] = []
    solved: dict[tuple[Fraction, bool], tuple[frozenset[int], frozenset[int]]] = {}
    side_results: dict[Fraction, dict] = {}  # per pivot value: one scaled vector
    for m in range(1, count + 1):
        ctx = scale_instance(weights, m, eps)
        key = (weights[m - 1], m <= inst.n)
        if key not in solved:
            if exact is None:
                memo = side_results.setdefault(weights[m - 1], {})
                solved[key] = exact_solver(ctx.scaled, m, ops, memo=memo)
            else:
                solved[key] = exact(ctx.scaled, m)
        s1, s2 = solved[key]
        if s1 and s2:
            pair = SolutionPair.from_sets(weights, s1, s2)
            value = pair.value()
            if value < best_value:
                best_pair, best_value, pivot_used = pair, value, m
        else:
            value = RatioValue.infinite()
        if collect_log:
            log.append(PivotLog(m, scaled_pair_value(ctx, s1, s2), value))

    return ApproxResult(
        solution=best_pair,
        value=best_value,
        epsilon=eps,
        bound=1 + eps,
        pivot_used=pivot_used,
        pivots_evaluated=count,
        dp_cell_ops=ops.cells - ops_start,
        per_pivot_log=tuple(log) if collect_log else None,
    )


# ---------------------------------------------------------------------------
# scaling inequalities
# ---------------------------------------------------------------------------


def _orientations(s1: frozenset[int], s2: frozenset[int]):
    yield s1, s2
    yield s2, s1


def check_pivot_inequalities(
    weights: Sequence[Fraction],
    epsilon: Fraction,
    ctx: ScaleContext,
    s1: frozenset[int],
    s2: frozenset[int],
) -> bool:
    """Verify the per-pivot scaling inequalities on a returned pair.

    Always checked, in exact rationals:

    * floor sandwich per set:  sum(S) - N*delta <= delta*scaled(S) <= sum(S);
    * lower bound per set:     sum(S) >= delta * floor(3N/epsilon);
    * additive loss:           MR(original) <= MR(scaled) + N*delta / D,
      where D is the original sum of the denominator set of the
      orientation achieving MR(original).

    When the sums also reach the pivot weight (the hypothesis under which
    the scale step was chosen), the additive loss specialises to the
    epsilon/3 bound, which is then checked too:

    * N*delta <= (epsilon/3) * sum(S) for each set;
    * MR(original) <= MR(scaled) + epsilon/3.

    Returns True iff the hypothesis held (so callers can count coverage).
    Raises AssertionError on any violated inequality.
    """
    count = len(weights)
    delta = ctx.delta
    pivot_w = weights[ctx.m - 1]
    floor_target = delta * math.floor(Fraction(3 * count) / epsilon)

    sums: dict[frozenset[int], Fraction] = {}
    for sset in (s1, s2):
        orig = sum((weights[i - 1] for i in sset), Fraction(0))
        scaled_sum = sum(ctx.scaled[i - 1] for i in sset)
        sums[sset] = orig
        assert orig - count * delta <= delta * scaled_sum <= orig, "floor sandwich violated"
        assert orig >= floor_target, "returned set sum below the scaled lower bound"

    # additive loss across the scaling, via the achieving orientation
    num_set, den_set = max(_orientations(s1, s2), key=lambda o: sums[o[0]] / sums[o[1]])
    mr_orig = sums[num_set] / sums[den_set]
    mr_scaled = scaled_pair_value(ctx, s1, s2).as_fraction()
    assert mr_orig <= mr_scaled + count * delta / sums[den_set], "additive scaling loss violated"

    hypothesis = min(sums[s1], sums[s2]) >= pivot_w
    if hypothesis:
        for sset in (s1, s2):
            assert count * delta <= epsilon / 3 * sums[sset], "scale-step bound violated"
        assert mr_orig <= mr_scaled + epsilon / 3, "epsilon/3 additive bound violated"
    return hypothesis


def check_optimum_scaling(
    weights: Sequence[Fraction],
    epsilon: Fraction,
    m: int,
    opt_s1: frozenset[int],
    opt_s2: frozenset[int],
) -> bool:
    """Verify that scaling inflates the optimal pair's objective by at most
    a (1 + epsilon/2) factor, at pivots whose weight the optimal sums reach.

    Returns True iff the hypothesis held (and the bound was checked).
    """
    ctx = scale_instance(weights, m, epsilon)
    sum1 = sum((weights[i - 1] for i in opt_s1), Fraction(0))
    sum2 = sum((weights[j - 1] for j in opt_s2), Fraction(0))
    if min(sum1, sum2) < weights[m - 1]:
        return False
    mr_orig = max(sum1, sum2) / min(sum1, sum2)
    mr_scaled = scaled_pair_value(ctx, opt_s1, opt_s2)
    assert mr_scaled.is_finite, "optimal pair lost a set under scaling"
    assert mr_scaled.as_fraction() <= (1 + epsilon / 2) * mr_orig, "optimum scaling bound violated"
    return True
