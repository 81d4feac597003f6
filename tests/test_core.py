"""Data model and ratio objective tests."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from ssratio import (
    SolutionPair,
    TwoSetInstance,
    check_feasible_semi_restricted,
    check_feasible_two_set,
    parse_rational,
)


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("2.5") == Fraction(5, 2)
        assert parse_rational(7) == Fraction(7)
        assert parse_rational(0.1) == Fraction(1, 10)
        assert parse_rational(Fraction(9, 7)) == Fraction(9, 7)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", None, [1], True])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


class TestRatio:
    """The objective of a pair, as SolutionPair.value() computes it."""

    def test_empty_first(self):
        with pytest.raises(ValueError):
            SolutionPair.from_sets([3, 5], set(), {2})

    def test_empty_second(self):
        with pytest.raises(ValueError):
            SolutionPair.from_sets([3, 5], {1}, set())

    def test_both_empty(self):
        assert SolutionPair.from_sets([3, 5], set(), set()).value() == math.inf

    def test_plain(self):
        assert SolutionPair.from_sets([6, 3], {1}, {2}).value() == 2

    def test_value_is_fraction_or_inf(self):
        assert SolutionPair.empty().value() == math.inf
        assert type(SolutionPair.from_sets([6, 3], {1}, {2}).value()) is Fraction

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SolutionPair.from_sets([6, 3], {3}, {1})


class TestMaxRatio:
    def test_equal_sums(self):
        assert SolutionPair.from_sets([3, 3], {1}, {2}).value() == 1

    def test_takes_larger_direction(self):
        for s1, s2 in (({1}, {2}), ({2}, {1})):
            assert SolutionPair.from_sets([6, 3], s1, s2).value() == 2

    def test_two_empty_sets(self):
        assert SolutionPair.empty().value() == math.inf


class TestFeasibility:
    def test_two_set_basic(self):
        ok = SolutionPair.from_sets([1, 1, 1, 1], {1}, {4})
        assert check_feasible_two_set(ok, 2)

    def test_two_set_pair_conflict(self):
        bad = SolutionPair.from_sets([1, 1, 1, 1], {1}, {3})
        assert not check_feasible_two_set(bad, 2)

    def test_two_set_empty(self):
        assert not check_feasible_two_set(SolutionPair.empty(), 2)

    def test_two_set_accepts_swapped_sides(self):
        ok = SolutionPair.from_sets([1, 1, 1, 1], {4}, {1})
        assert check_feasible_two_set(ok, 2)

    def test_two_set_malformed_is_false(self):
        bad = SolutionPair.from_sets([1] * 8, {1, 7}, {2})
        assert not check_feasible_two_set(bad, 2)

    def test_semi_restricted_values(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        sol = SolutionPair.from_sets(inst.weights, {1}, {4})
        assert check_feasible_semi_restricted(sol, inst, 1)
        assert not check_feasible_semi_restricted(sol, inst, 4)
        # base 1 on both sides: not a two-set solution at any pivot
        conflict = SolutionPair.from_sets(inst.weights, {1}, {3})
        assert not check_feasible_semi_restricted(conflict, inst, 1)

    def test_semi_restricted_equal_weight_substitute(self):
        inst = TwoSetInstance.from_pairs([(2, 100), (2, 1)])
        sol = SolutionPair.from_sets(inst.weights, {2}, {3})
        assert check_feasible_semi_restricted(sol, inst, 1)


class TestInstances:
    def test_two_set_layout(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        assert inst.n == 2
        assert inst.weights == (5, 3, 4, 6)
        assert inst.weight(2) == 3 and inst.weight(4) == 6

    def test_two_set_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TwoSetInstance.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            TwoSetInstance.from_pairs([])

    def test_direct_construction_is_validated(self):
        with pytest.raises(ValueError, match="expected 4 weights, got 1"):
            TwoSetInstance(2, (Fraction(1),))
        with pytest.raises(ValueError, match="weights must be Fractions"):
            TwoSetInstance(1, (1, 2))

    def test_solution_pair_validation(self):
        with pytest.raises(ValueError):
            SolutionPair(frozenset({1}), frozenset({1}))
        with pytest.raises(ValueError):
            SolutionPair(frozenset({1}), frozenset())
        pair = SolutionPair.from_sets([2, 3], {1}, {2})
        assert (pair.sum1, pair.sum2) == (2, 3)
        assert pair.value() == Fraction(3, 2)
        assert SolutionPair.empty().value() == math.inf

    def test_nonempty_pair_needs_positive_sums(self):
        # the default sums are 0, and value() would divide by the smaller one
        with pytest.raises(ValueError, match="from_sets"):
            SolutionPair(frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="from_sets"):
            SolutionPair(frozenset({1}), frozenset({2}), Fraction(3), Fraction(0))


# --- property tests ---------------------------------------------------------

weights_strategy = st.lists(
    st.fractions(min_value=Fraction(1, 6), max_value=30, max_denominator=6),
    min_size=2,
    max_size=6,
)


@st.composite
def weights_and_disjoint_sets(draw):
    """Weights plus two disjoint index sets, both empty or both nonempty."""
    w = draw(weights_strategy)
    roles = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(w), max_size=len(w)))
    s1 = {i for i, role in enumerate(roles, 1) if role == 1}
    s2 = {i for i, role in enumerate(roles, 1) if role == 2}
    if not s1 or not s2:
        s1 = s2 = set()
    return w, (s1, s2)


@given(weights_and_disjoint_sets())
def test_max_ratio_permutation_invariant(data):
    w, (s1, s2) = data
    assert SolutionPair.from_sets(w, s1, s2).value() == SolutionPair.from_sets(w, s2, s1).value()


@given(weights_and_disjoint_sets())
def test_max_ratio_at_least_one_for_nonempty(data):
    w, (s1, s2) = data
    assume(s1)
    assert 1 <= SolutionPair.from_sets(w, s1, s2).value()


@given(
    weights_and_disjoint_sets(),
    st.fractions(min_value=Fraction(1, 5), max_value=9, max_denominator=5),
)
def test_scaling_leaves_ratios_unchanged(data, c):
    w, (s1, s2) = data
    scaled = [c * v for v in w]
    assert SolutionPair.from_sets(w, s1, s2).value() == SolutionPair.from_sets(scaled, s1, s2).value()


@given(
    st.lists(st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 12)),
             min_size=1, max_size=8),
    st.data(),
)
def test_set_sums_equal_fraction_sums(weights, data):
    # from_sets adds integers over a common denominator; the reference adds
    # Fractions left to right, one of them past the float range
    w = list(weights)
    w.insert(data.draw(st.integers(0, len(w))), "1e400")
    roles = data.draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(w), max_size=len(w)))
    s1, s2 = ([i for i, role in enumerate(roles, 1) if role == side] for side in (1, 2))
    assume(s1 and s2)
    pair = SolutionPair.from_sets(w, s1, s2)
    sums = []
    for side in (s1, s2):
        total = Fraction(0)
        for i in side:
            total += parse_rational(w[i - 1])
        sums.append(total)
    assert (pair.sum1, pair.sum2) == tuple(sums) and type(pair.sum1) is Fraction
    assert pair.value() == max(sums) / min(sums)
