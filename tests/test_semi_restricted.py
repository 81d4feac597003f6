"""Exact solver tests: worked examples, DP structure, oracle equivalence."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from ssratio import (
    DifferenceTable,
    OpCounter,
    RatioValue,
    SolutionPair,
    TwoSetInstance,
    brute_force_semi_restricted,
    check_feasible_semi_restricted,
    exact_solver,
    semi_restricted_optima_by_value,
)
from ssratio.semi_restricted import _heavy_singleton, _side_view
from conftest import random_pairs


def flat(pairs):
    return tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)


def solve(pairs, m, counter=None):
    """The exact solver on integer pairs, as a SolutionPair."""
    weights = flat(pairs)
    return SolutionPair.from_sets(weights, *exact_solver(weights, m, counter))


def heavy_singleton(pairs, m):
    """The singleton regime alone, on the pivot's side."""
    weights, n = flat(pairs), len(pairs)
    near = 0 if m <= n else n
    found = _heavy_singleton(weights, _side_view(weights, n, near, weights[m - 1]))
    return SolutionPair.from_sets(weights, *found) if found else SolutionPair.empty()


def difference_dp(pairs, m):
    """The difference DP alone, on the pivot's side."""
    weights, n = flat(pairs), len(pairs)
    near = 0 if m <= n else n
    table = DifferenceTable(weights, n, near, weights[m - 1])
    best = table.best_cell()
    if best is None:
        return SolutionPair.empty()
    return SolutionPair.from_sets(weights, *table.reconstruct(best[0]))


class TestHeavySingleton:
    def test_dominant_far_element(self):
        sol = heavy_singleton([(2, 100), (2, 1)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([2], [3])
        assert sol.value() == RatioValue.finite(50)

    def test_no_candidate_above_cap(self):
        sol = heavy_singleton([(5, 4), (3, 6)], 1)
        assert sol.is_empty

    def test_scanned_base_outside_candidates_keeps_full_cap(self):
        # base 2's near weight 9 exceeds the pivot weight, so removing its
        # far element costs nothing: denominator is the full cap
        sol = heavy_singleton([(5, 4), (9, 100)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == RatioValue.finite(20)
        assert brute_force_semi_restricted(
            TwoSetInstance.from_pairs([(5, 4), (9, 100)]), 1
        ).optimum == RatioValue.finite(20)


class TestDifferenceDp:
    def test_worked_instance(self):
        sol = difference_dp([(5, 4), (3, 6)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == RatioValue.finite(Fraction(6, 5))

    def test_heavy_weight_falls_out_of_window(self):
        sol = difference_dp([(2, 100), (2, 1)], 1)
        assert sol.is_empty

    def test_uniform_instance(self):
        sol = difference_dp([(4, 4), (4, 4)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == RatioValue.finite(1)


class TestSolve:
    def test_heavy_singleton_wins(self):
        sol = solve([(2, 100), (2, 1)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([2], [3])
        assert sol.value() == RatioValue.finite(50)

    def test_dp_wins(self):
        sol = solve([(5, 4), (3, 6)], 1)
        assert sol.value() == RatioValue.finite(Fraction(6, 5))

    def test_infeasible_pivot(self):
        sol = solve([(5, 4), (3, 6)], 4)
        assert sol.is_empty

    def test_pivot_value_on_opposite_side(self):
        # the pivot's weight is realised by the opposite side only
        sol = solve([(10, 10), (11, 2)], 1)
        assert sol.value() == RatioValue.finite(Fraction(11, 10))

    def test_mate_of_pivot_in_far_set(self):
        sol = solve([(5, 9), (5, 1)], 1)
        assert sol.value() == RatioValue.finite(Fraction(9, 5))

    def test_duplicate_pivot_weights_join_near_set(self):
        sol = solve([(5, 1), (5, 1), (1, 11)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1, 2], [6])
        assert sol.value() == RatioValue.finite(Fraction(11, 10))

    def test_input_errors(self):
        with pytest.raises(ValueError):
            exact_solver([1, 2, 3], 1)  # odd length
        with pytest.raises(ValueError):
            exact_solver([0, 2, 3, 4], 1)  # zero pivot weight
        with pytest.raises(ValueError):
            exact_solver([1, 2, 3, 4], 5)  # pivot out of range
        with pytest.raises(ValueError):
            exact_solver([1, Fraction(1, 2)], 1)  # non-integer weight

    def test_zero_weights_are_tolerated_but_never_used(self):
        s1, s2 = exact_solver([3, 0, 0, 3], 1)
        assert (s1, s2) == (frozenset({1}), frozenset({4}))

    def test_deterministic(self):
        rng = random.Random(31)
        for _ in range(30):
            pairs = random_pairs(rng, rng.randint(1, 6), 20)
            m = rng.randint(1, 2 * len(pairs))
            first = solve(pairs, m)
            second = solve(pairs, m)
            assert first == second


class TestOracleEquivalence:
    def test_small_battery_all_pivots(self):
        rng = random.Random(99)
        for _ in range(120):
            pairs = random_pairs(rng, rng.randint(1, 6), 25)
            instance = TwoSetInstance.from_pairs(pairs)
            optima = semi_restricted_optima_by_value(instance)
            for m in range(1, 2 * len(pairs) + 1):
                sol = solve(pairs, m)
                want = optima.get(instance.weight(m))
                if want is None:
                    assert sol.is_empty, (pairs, m)
                else:
                    assert sol.value() == want.optimum, (pairs, m)
                if not sol.is_empty:
                    assert check_feasible_semi_restricted(sol, instance, m)

    def test_heavy_singleton_regime_is_exact(self):
        # far-side weights either below the pivot weight or above the cap:
        # the singleton scan alone must reach the optimum
        rng = random.Random(56)
        for _ in range(40):
            n = rng.randint(2, 6)
            near = [rng.randint(1, 10) for _ in range(n)]
            near[0] = 10  # pivot weight
            cap = sum(v for v in near if v <= 10)
            far = [
                rng.randint(cap + 1, cap + 40) if rng.random() < 0.5 else rng.randint(1, 9)
                for _ in range(n)
            ]
            pairs = list(zip(near, far))
            instance = TwoSetInstance.from_pairs(pairs)
            want = brute_force_semi_restricted(instance, 1)
            got = heavy_singleton(pairs, 1)
            if want.best is None:
                assert got.is_empty
            else:
                assert got.value() == want.optimum, pairs


# ---------------------------------------------------------------------------
# DP table structure
# ---------------------------------------------------------------------------


def reference_cells(weights, n, near, pivot_weight):
    """Independent enumeration of everything the table may contain.

    A pair qualifies iff its near set uses only candidate elements and the
    running difference (processing bases in order) never drops below
    -2*cap.  Returns {(diff, has_pivot, has_heavy): max total}.
    """
    far = n - near
    cand = {i for i in range(1, n + 1) if weights[i + near - 1] <= pivot_weight}
    cap = sum(weights[i + near - 1] for i in cand)
    best: dict[tuple[int, bool, bool], int] = {}
    for assign in product((0, 1, 2), repeat=n):
        if any(choice == 1 and base not in cand for base, choice in enumerate(assign, 1)):
            continue
        diff = total = 0
        has_pivot = has_heavy = False
        ok = True
        for base, choice in enumerate(assign, 1):
            if choice == 1:
                w = weights[base + near - 1]
                diff += w
                total += w
                has_pivot = has_pivot or w == pivot_weight
            elif choice == 2:
                w = weights[base + far - 1]
                diff -= w
                total += w
                has_heavy = has_heavy or w >= pivot_weight
            if diff < -2 * cap:
                ok = False
                break
        if not ok:
            continue
        key = (diff, has_pivot, has_heavy)
        if best.get(key, -1) < total:
            best[key] = total
    return best, cap


class TestDifferenceTable:
    def tables(self, dp_battery):
        rng = random.Random(7)
        picks = rng.sample(dp_battery, 25)
        for pairs in picks:
            n = len(pairs)
            weights = flat(pairs)
            for near in (0, n):
                pivot_weight = rng.choice(weights)
                yield weights, n, near, pivot_weight

    def test_matches_reference_enumeration(self, dp_battery):
        for weights, n, near, v in self.tables(dp_battery):
            table = DifferenceTable(weights, n, near, v)
            want, cap = reference_cells(weights, n, near, v)
            assert cap == table.cap
            got = {}
            for col in range(table.width):
                diff = col - table.offset
                for hp in (False, True):
                    for hh in (False, True):
                        cell = table.cell(n, diff, hp, hh)
                        if cell.occupied:
                            got[(diff, hp, hh)] = cell.total
            assert got == want, (weights, n, near, v)

    def test_reconstruction_discipline(self, dp_battery):
        # reconstruct every occupied final-row cell; the walk itself asserts
        # side membership, pair-disjointness, sums and flag consistency
        for weights, n, near, v in self.tables(dp_battery):
            table = DifferenceTable(weights, n, near, v)
            for col in range(table.width):
                diff = col - table.offset
                for hp in (False, True):
                    for hh in (False, True):
                        if table.occupied(n, diff, hp, hh):
                            s1, s2 = table.reconstruct(diff, hp, hh)
                            assert -2 * table.cap <= diff <= table.cap

    def test_final_row_cells(self):
        table = DifferenceTable((5, 3, 4, 6), 2, 0, 5)
        final = table.cell(2, -1, True, True)
        assert final.occupied and final.total == 11
        assert table.reconstruct(-1) == (frozenset({1}), frozenset({4}))
        assert not table.cell(2, 2, True, True).occupied
        assert table.occupied(1, 5, True, False)
        with pytest.raises(ValueError):
            table.cell(1, 5, True, False)  # inner rows keep no totals

    def test_window_bounds_raise_outside(self):
        table = DifferenceTable((5, 3, 4, 6), 2, 0, 5)
        with pytest.raises(ValueError):
            table.occupied(2, table.cap + 1, True, True)

    def test_operation_count_bound(self, dp_battery):
        # instrumented work stays within a fixed multiple of n^2 * pivot weight
        for pairs in dp_battery:
            n = len(pairs)
            for m in (1, 2 * n):
                counter = OpCounter()
                solve(pairs, m, counter)
                pivot_weight = flat(pairs)[m - 1]
                assert counter.cells <= 100 * n * n * pivot_weight + 200


class TestRegimesAgree:
    def test_case_results_combine_to_solver(self, dp_battery):
        # the full solver never does worse than either per-side regime
        for pairs in dp_battery[:30]:
            n = len(pairs)
            for m in (1, n + 1):
                full = solve(pairs, m).value()
                for partial in (heavy_singleton(pairs, m), difference_dp(pairs, m)):
                    assert full <= partial.value()
