"""Scaling-lemma checkers for the FPTAS's per-pivot scaling step.

Acceptance criterion 3 and tests/test_fptas.py run these on solver output:
check_pivot_inequalities on the pair returned for one pivot, and
check_optimum_scaling on a known optimal pair.  Both recompute the scaling
step from the original weights and assert every inequality in exact
rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ssratio import scale_instance, scaled_pair_value


def _orientations(s1: frozenset[int], s2: frozenset[int]):
    yield s1, s2
    yield s2, s1


def check_pivot_inequalities(
    weights: Sequence[Fraction],
    epsilon: Fraction,
    m: int,
    scaled: Sequence[int],
    s1: frozenset[int],
    s2: frozenset[int],
) -> bool:
    """Verify the per-pivot scaling inequalities on a pair returned for
    pivot m on the `scaled` weights.

    The step delta = epsilon * w_m / (3N) is derived here from the original
    weights, not taken from the code under test, so a vector scaled with
    the wrong step fails the floor sandwich.

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
    pivot_w = weights[m - 1]
    delta = epsilon * pivot_w / (3 * count)
    floor_target = delta * math.floor(Fraction(3 * count) / epsilon)

    sums: dict[frozenset[int], Fraction] = {}
    for sset in (s1, s2):
        orig = sum((weights[i - 1] for i in sset), Fraction(0))
        scaled_sum = sum(scaled[i - 1] for i in sset)
        sums[sset] = orig
        assert orig - count * delta <= delta * scaled_sum <= orig, "floor sandwich violated"
        assert orig >= floor_target, "returned set sum below the scaled lower bound"

    # additive loss across the scaling, via the achieving orientation
    num_set, den_set = max(_orientations(s1, s2), key=lambda o: sums[o[0]] / sums[o[1]])
    mr_orig = sums[num_set] / sums[den_set]
    mr_scaled = scaled_pair_value(scaled, s1, s2)
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
    scaled = scale_instance(weights, m, epsilon)
    sum1 = sum((weights[i - 1] for i in opt_s1), Fraction(0))
    sum2 = sum((weights[j - 1] for j in opt_s2), Fraction(0))
    if min(sum1, sum2) < weights[m - 1]:
        return False
    mr_orig = max(sum1, sum2) / min(sum1, sum2)
    mr_scaled = scaled_pair_value(scaled, opt_s1, opt_s2)
    assert mr_scaled != math.inf, "optimal pair lost a set under scaling"
    assert mr_scaled <= (1 + epsilon / 2) * mr_orig, "optimum scaling bound violated"
    return True
