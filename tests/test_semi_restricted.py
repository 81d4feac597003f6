"""Exact solver tests: worked examples, DP structure, oracle equivalence."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import numpy as np
import pytest

import ssratio
from ssratio import (
    DifferenceTable,
    OpCounter,
    SolutionPair,
    TwoSetInstance,
    brute_force_semi_restricted,
    check_feasible_semi_restricted,
    encode_factor_r_weights,
    encode_ssr_weights,
    exact_solver,
    scale_instance,
    semi_restricted,
    semi_restricted_optima_by_value,
)
from ssratio.semi_restricted import (
    MAX_TABLE_BYTES,
    _CARRY,
    _CLIP_MIN_CELLS,
    _FAR,
    _NEAR,
    _greedy_pair,
    _heavy_singleton,
    _row_plan,
    _solve_one_side,
)
from conftest import occupied, random_pairs


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
    _, _, found = _heavy_singleton(DifferenceTable(weights, n, near, weights[m - 1]))
    return SolutionPair.from_sets(weights, *found) if found[1] else SolutionPair.empty()


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
        assert sol.value() == 50

    def test_no_candidate_above_cap(self):
        sol = heavy_singleton([(5, 4), (3, 6)], 1)
        assert sol.is_empty

    def test_scanned_base_outside_candidates_keeps_full_cap(self):
        # base 2's near weight 9 exceeds the pivot weight, so removing its
        # far element costs nothing: denominator is the full cap
        sol = heavy_singleton([(5, 4), (9, 100)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == 20
        assert brute_force_semi_restricted(
            TwoSetInstance.from_pairs([(5, 4), (9, 100)]), 1
        ).optimum == 20

    def test_matches_reference_scan(self):
        def reference(weights, n, near, v):
            # bases in ascending order, first strict minimum; one cell per
            # far weight >= v
            far = n - near
            cand = [j for j in range(1, n + 1) if weights[near + j - 1] <= v]
            cap = sum(weights[near + j - 1] for j in cand)
            best = None
            for i in range(1, n + 1):
                far_w = weights[far + i - 1]
                s1 = [j for j in cand if j != i]
                if far_w < v or far_w <= cap or v not in [weights[near + j - 1] for j in s1]:
                    continue
                ratio = Fraction(far_w, sum(weights[near + j - 1] for j in s1))
                if best is None or ratio < best[0]:
                    best = ratio, (frozenset(j + near for j in s1), frozenset({i + far}))
            cells = sum(weights[far + i - 1] >= v for i in range(1, n + 1))
            return (best[1] if best else (frozenset(), frozenset())), cells

        # near side 0 throughout.  (a) bases 1 and 2 tie at 10/2 and base 3,
        # outside the candidates, at 20/4 with the full cap: base 1 wins.
        # (b) base 1 holds the only pivot-valued near element, so its 5/2
        # is skipped and base 2's 50/3 stands.  (c) base 2's near 9 exceeds
        # the pivot weight: its scan keeps the full cap 5 (far 100 / 5)
        battery = [
            ((2, 2, 9, 10, 10, 20), 3, 0, 2, ({2}, {4})),
            ((2, 1, 1, 5, 50, 1), 3, 0, 2, ({1, 3}, {5})),
            ((5, 9, 4, 100), 2, 0, 5, ({1}, {4})),
        ]
        rng = random.Random(0x5166)
        for _ in range(300):
            n = rng.randint(1, 6)
            weights = tuple(rng.choice((1, 2, 3, 5, 8, 30, 60)) for _ in range(2 * n))
            near = rng.choice((0, n))
            battery.append((weights, n, near, rng.choice(weights[near:near + n]), None))
        found = 0
        for weights, n, near, v, explicit in battery:
            counter = OpCounter()
            hi, lo, got = _heavy_singleton(DifferenceTable(weights, n, near, v), counter)
            want, cells = reference(weights, n, near, v)
            where = (weights, n, near, v)
            assert got == want and counter.cells == cells, where
            # its own sums: the far weight, above the cap, and the near set's sum
            assert (hi, lo) == (resummed(weights, got) if got[1] else (1, 0)), where
            if explicit is not None:
                assert got == tuple(map(frozenset, explicit)), where
            found += bool(got[1])
        assert found > 10


class TestDifferenceDp:
    def test_worked_instance(self):
        sol = difference_dp([(5, 4), (3, 6)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == Fraction(6, 5)

    def test_heavy_weight_falls_out_of_window(self):
        sol = difference_dp([(2, 100), (2, 1)], 1)
        assert sol.is_empty

    def test_uniform_instance(self):
        sol = difference_dp([(4, 4), (4, 4)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1], [4])
        assert sol.value() == 1


class TestSolve:
    def test_heavy_singleton_wins(self):
        sol = solve([(2, 100), (2, 1)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([2], [3])
        assert sol.value() == 50

    def test_dp_wins(self):
        sol = solve([(5, 4), (3, 6)], 1)
        assert sol.value() == Fraction(6, 5)

    def test_infeasible_pivot(self):
        sol = solve([(5, 4), (3, 6)], 4)
        assert sol.is_empty

    def test_pivot_value_on_opposite_side(self):
        # the pivot's weight is realised by the opposite side only
        sol = solve([(10, 10), (11, 2)], 1)
        assert sol.value() == Fraction(11, 10)

    def test_mate_of_pivot_in_far_set(self):
        sol = solve([(5, 9), (5, 1)], 1)
        assert sol.value() == Fraction(9, 5)

    def test_duplicate_pivot_weights_join_near_set(self):
        sol = solve([(5, 1), (5, 1), (1, 11)], 1)
        assert (sorted(sol.s1), sorted(sol.s2)) == ([1, 2], [6])
        assert sol.value() == Fraction(11, 10)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            exact_solver([1, 2, 3], 1)  # odd length
        with pytest.raises(ValueError):
            exact_solver([0, 2, 3, 4], 1)  # zero pivot weight
        with pytest.raises(ValueError):
            exact_solver([1, 2, 3, 4], 5)  # pivot out of range
        with pytest.raises(ValueError):
            exact_solver([1, Fraction(1, 2)], 1)  # non-integer weight

    def test_oversized_table_refused_before_allocation(self, monkeypatch):
        # pivot 1 of [[1,5],[5,5],[5,5]] at epsilon 1e-7 scales to cap 1.8e8
        scaled = scale_instance(flat([(1, 5), (5, 5), (5, 5)]), 1, Fraction(1, 10**7))
        real_full = np.full

        def refuse_large(shape, *args, **kwargs):
            assert np.prod(shape) <= 1 << 24, f"allocation of {shape} requested"
            return real_full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", refuse_large)
        with pytest.raises(ValueError, match="bytes, over the"):
            exact_solver(scaled, 1)

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


def resummed(weights, sets):
    """(larger sum, smaller sum) of a pair, summed on the weights."""
    sums = [sum(weights[i - 1] for i in part) for part in sets]
    return max(sums), min(sums)


def ratio(weights, sets):
    return Fraction(*resummed(weights, sets))


def reference_side(weights, n, near, v):
    """A side's sets by the rule written out: re-sum the DP pair and the
    heavy singleton on the weights; the DP pair stands on a tie and the
    singleton wins only when strictly better.  Also which it was: "dp",
    "tie", "single" (beats a DP pair), "only" (no DP pair) or None."""
    table = DifferenceTable(weights, n, near, v)
    best = table.best_cell()
    dp = table.reconstruct(best[0]) if best is not None else None
    single = _heavy_singleton(table)[2]
    if not single[1]:
        return dp, "dp" if dp else None
    if dp is None:
        return single, "only"
    if ratio(weights, single) < ratio(weights, dp):
        return single, "single"
    return dp, "tie" if ratio(weights, single) == ratio(weights, dp) else "dp"


class TestSideChoice:
    def test_one_memo_serves_any_weights(self):
        # a memo shared by calls on different weights answers each with its
        # own optimum, although the first three calls all search pivot
        # weight 5 on side 0
        memo = {}
        first = exact_solver((5, 3, 4, 6), 1, memo=memo)
        for weights in ((5, 5, 1, 1), (5, 3, 2, 1, 1, 7)):
            assert exact_solver(weights, 1, memo=memo) == exact_solver(weights, 1) != first
        rng = random.Random(0x3E30)
        for _ in range(150):
            n = rng.randint(1, 5)
            weights = tuple(rng.randint(1, 9) for _ in range(2 * n))
            for m in range(1, 2 * n + 1):
                assert exact_solver(weights, m, memo=memo) == exact_solver(weights, m), (weights, m)
        # a list and a tuple of the same weights share their searches
        counter = OpCounter()
        assert exact_solver([5, 3, 4, 6], 1, counter, memo=memo) == first
        assert counter.cells == 0

    def test_weights_are_validated_before_the_memo(self):
        # (True, 1, 2, 2) == (1.0, 1, 2, 2) == (1, 1, 2, 2), and they hash
        # alike, so a memo holding the valid vector must not answer the others
        memo = {}
        assert exact_solver((1, 1, 2, 2), 1, memo=memo) == (frozenset({1}), frozenset({4}))
        bad = [(True, 1, 2, 2), (1.0, 1, 2, 2), (1, 1, 2.0, 2), (1, 1, 2, 2 + 0j),
               (-1, 1, 2, 2), ([1], 1, 2, 2), (1, 1, {2}, 2)]
        for weights in bad:
            for kept in (memo, None):
                with pytest.raises(ValueError, match="integers >= 0"):
                    exact_solver(weights, 1, memo=kept)

    def test_matches_the_side_rule(self):
        # each side answers with the rule re-summed on the weights, and of
        # the two sides the pivot's own stands unless the other is strictly
        # better.  Explicit: a DP pair that ties the singleton (the same
        # pair), and a singleton that beats the DP pair
        tie = ((3, 6, 40, 2), 2, 2, 2)
        win = ((20, 6, 4, 20, 40, 20, 40, 1, 5, 1), 5, 5, 1)
        assert reference_side(*tie)[1] == "tie"
        assert reference_side(*win)[1] == "single"
        rng = random.Random(0x51DE)
        battery = [tie[:2], win[:2]]
        for _ in range(400):
            n = rng.randint(1, 5)
            battery.append((tuple(rng.choice((1, 2, 3, 4, 6, 20, 40)) for _ in range(2 * n)), n))
        seen = {"dp": 0, "tie": 0, "single": 0, "only": 0, None: 0}
        for weights, n in battery:
            sides = {}
            for near, v in product((0, n), set(weights)):
                sets, how = reference_side(weights, n, near, v)
                seen[how] += 1
                sides[near, v] = sets
                hi, lo, got = _solve_one_side(weights, n, near, v, None)
                if sets is None:
                    assert (hi, lo, got) == (1, 0, (frozenset(), frozenset())), (weights, near, v)
                else:
                    assert got == sets and (hi, lo) == resummed(weights, sets), (weights, near, v)
            for m in range(1, 2 * n + 1):
                near = 0 if m <= n else n
                best, other = (sides[side, weights[m - 1]] for side in (near, n - near))
                if other and (not best or ratio(weights, other) < ratio(weights, best)):
                    best = other
                assert exact_solver(weights, m) == (best or (frozenset(), frozenset())), (weights, m)
        assert seen["tie"] > 0 and seen["single"] > 0 and seen["only"] > 0, seen


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


def reference_cells(weights, n, near, pivot_weight, rows=None):
    """Independent enumeration of everything the table may contain.

    A pair qualifies iff its near set uses only candidate elements, the
    running difference (processing bases in order) never drops below
    -2*cap, and the bases after `rows` can still complete its flags: a
    pivot-valued near weight among them if it lacks the pivot flag, a far
    weight of at least the pivot weight if it lacks the heavy flag.  Only
    bases 1..rows are offered (all n by default), which gives the cells of
    row `rows`.  Returns {(diff, has_pivot, has_heavy): max total} and the
    cap.
    """
    far = n - near
    rows = n if rows is None else rows
    cand = {i for i in range(1, n + 1) if weights[i + near - 1] <= pivot_weight}
    cap = sum(weights[i + near - 1] for i in cand)
    later = range(rows + 1, n + 1)
    can_pivot = any(weights[j + near - 1] == pivot_weight for j in later)
    can_heavy = any(weights[j + far - 1] >= pivot_weight for j in later)
    best: dict[tuple[int, bool, bool], int] = {}
    for assign in product((0, 1, 2), repeat=rows):
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
        if not ok or not ((has_pivot or can_pivot) and (has_heavy or can_heavy)):
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
                        if occupied(table, n, diff, hp, hh):
                            got[(diff, hp, hh)] = table.total(diff)
            assert got == want, (weights, n, near, v)

    def test_inner_rows_match_reference(self, dp_battery):
        # every row, every column of the window: cells outside a row's
        # stored band, and cells whose flags later rows cannot complete,
        # read as unoccupied
        for weights, n, near, v in self.tables(dp_battery):
            table = DifferenceTable(weights, n, near, v)
            for row in range(n + 1):
                want, _ = reference_cells(weights, n, near, v, rows=row)
                for col in range(table.width):
                    diff = col - table.offset
                    for hp in (False, True):
                        for hh in (False, True):
                            got = occupied(table, row, diff, hp, hh)
                            assert got == ((diff, hp, hh) in want), (weights, near, v, row, diff)

    def test_reconstruction_discipline(self, dp_battery):
        # reconstruct every occupied final-row cell; the walk itself asserts
        # side membership, pair-disjointness, sums and flag consistency
        for weights, n, near, v in self.tables(dp_battery):
            table = DifferenceTable(weights, n, near, v)
            for col in range(table.width):
                diff = col - table.offset
                for hp in (False, True):
                    for hh in (False, True):
                        if occupied(table, n, diff, hp, hh):
                            assert (hp, hh) == (True, True)
                            s1, s2 = table.reconstruct(diff)
                            assert -2 * table.cap <= diff <= table.cap

    def test_final_row_cells(self):
        table = DifferenceTable((5, 3, 4, 6), 2, 0, 5)
        assert table.total(-1) == 11
        assert table.reconstruct(-1) == (frozenset({1}), frozenset({4}))
        assert table.total(2) is None
        with pytest.raises(ValueError):
            table.reconstruct(2)
        assert occupied(table, 1, 5, True, False)

    def test_window_bounds_raise_outside(self):
        table = DifferenceTable((5, 3, 4, 6), 2, 0, 5)
        for diff in (table.cap + 1, -2 * table.cap - 1):
            with pytest.raises(ValueError):
                table.total(diff)
            with pytest.raises(ValueError):
                table.reconstruct(diff)

    def test_operation_count_bound(self, dp_battery):
        # instrumented work stays within a fixed multiple of n^2 * pivot weight
        for pairs in dp_battery:
            n = len(pairs)
            for m in (1, 2 * n):
                counter = OpCounter()
                solve(pairs, m, counter)
                pivot_weight = flat(pairs)[m - 1]
                assert counter.cells <= 100 * n * n * pivot_weight + 200


def reference_fill(weights, n, near, pivot_weight, prune=True):
    """Reference for DifferenceTable's fill: a sequential per-layer kernel.

    Writes each candidate in turn (carry, far extensions, near extensions,
    each by ascending source layer) with the sequential strict-> rule.
    With `prune`, a row writes only layers that the rows after it can
    still complete to both flags.  Returns the decision codes and the
    totals of rows 1..n as (n, 4, width) arrays (255 and -1: empty), the
    cells touched, and what the fill met: each row's live layers,
    candidates that tied a stored total, zero weights and far weights that
    fell off the window.
    """
    far = n - near
    v = pivot_weight
    cand_set = {i for i in range(1, n + 1) if weights[i + near - 1] <= v}
    cap = sum(weights[i + near - 1] for i in cand_set)

    def completable(layer, row):
        later = range(row + 1, n + 1)
        has_pivot = layer & 2 or any(weights[j + near - 1] == v for j in later)
        has_heavy = layer & 1 or any(weights[j + far - 1] >= v for j in later)
        return not prune or (has_pivot and has_heavy)

    width, offset = 3 * cap + 1, 2 * cap
    seen = {"live": set(), "ties": 0, "zeros": 0, "fell_off": 0}
    codes = np.full((n, 4, width), 255, dtype=np.int16)
    totals = np.full((n, 4, width), -1, dtype=np.int64)
    x = np.full((4, width), -1, dtype=np.int64)
    x[0, offset] = 0
    live = [0]
    lo = hi = offset
    ops = 0
    for i in range(1, n + 1):
        near_w, far_w = weights[i + near - 1], weights[i + far - 1]
        seen["live"].add(tuple(live))
        seen["zeros"] += (near_w == 0) + (far_w == 0)
        lo0, hi0 = lo, hi
        # the far pass is the only pass that writes below lo0, so a row
        # without one (a zero far weight, or one above hi0 that shifts every
        # write off the window) leaves those columns empty: the band keeps lo0
        if 0 < far_w <= hi0:
            lo = max(0, lo0 - far_w)
        hi = hi0 + (near_w if i in cand_set else 0)
        y = totals[i - 1]
        code = codes[i - 1]
        for layer in live:
            if not completable(layer, i):
                continue
            y[layer, lo0:hi0 + 1] = x[layer, lo0:hi0 + 1]
            code[layer, lo0:hi0 + 1][x[layer, lo0:hi0 + 1] >= 0] = layer  # carry
            ops += hi0 - lo0 + 1
        grown = set(live)
        span = hi0 - far_w - lo + 1
        if far_w > 0 and span <= 0:
            seen["fell_off"] += 1
        if far_w > 0 and span > 0:
            for src in live:
                tgt = (src | 1) if far_w >= v else src
                if not completable(tgt, i):
                    continue
                src_vals = x[src, lo + far_w:hi0 + 1]
                dest = y[tgt, lo:lo + span]
                seen["ties"] += int(((src_vals >= 0) & (src_vals + far_w == dest)).sum())
                mask = (src_vals >= 0) & (src_vals + far_w > dest)
                dest[mask] = src_vals[mask] + far_w
                code[tgt, lo:lo + span][mask] = 8 + src  # take_far
                ops += span
            if far_w >= v:
                grown |= {layer | 1 for layer in live}
        if near_w > 0 and i in cand_set:
            for src in live:
                tgt = (src | 2) if near_w == v else src
                if not completable(tgt, i):
                    continue
                src_vals = x[src, lo0:hi0 + 1]
                dest = y[tgt, lo0 + near_w:hi + 1]
                seen["ties"] += int(((src_vals >= 0) & (src_vals + near_w == dest)).sum())
                mask = (src_vals >= 0) & (src_vals + near_w > dest)
                dest[mask] = src_vals[mask] + near_w
                code[tgt, lo0 + near_w:hi + 1][mask] = 4 + src  # take_near
                ops += hi0 - lo0 + 1
            if near_w == v:
                grown |= {layer | 2 for layer in live}
        live = sorted(layer for layer in grown if completable(layer, i))
        x = y
    ops += hi - lo + 1  # final scan
    return codes, totals, ops, seen


# the flag layers a row can keep: reachable by some pair and still
# completable to the answer layer 3
LIVE_SETS = (
    (0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 2, 3),
    (1,), (2,), (3,), (1, 3), (2, 3), (),
)


def stored_totals(table):
    """The table's totals of rows 1..n as an (n, 4, width) array (-1: a cell
    the row does not keep, or an empty one)."""
    out = np.full((table.n, 4, table.width), -1, dtype=np.int64)
    for row in range(1, table.n + 1):
        lo, hi, live, _ = table._rows[row]
        block = table._blocks[row]
        totals = 2 * block.astype(np.int64) - (np.arange(lo, hi + 1) - table.offset)
        out[row - 1, list(live), lo:hi + 1] = np.where(block >= 0, totals, -1)
    return out


def reference_answer(final3, offset):
    """(difference, total) of the first min-ratio cell of a final layer."""
    best = None
    for col, total in enumerate(final3):
        if total < 0:
            continue
        diff = col - offset
        ratio = Fraction(total + abs(diff), total - abs(diff))
        if best is None or ratio < best[0]:
            best = (ratio, diff, int(total))
    return None if best is None else best[1:]


def reference_backtrack(codes, weights, n, near, offset, diff):
    """The pair stored at (row n, diff, both flags) of a reference fill."""
    far = n - near
    s1, s2 = set(), set()
    layer, col = 3, diff + offset
    for row in range(n, 0, -1):
        decision, layer = divmod(int(codes[row - 1, layer, col]), 4)
        if decision == 1:
            s1.add(row + near)
            col -= weights[row + near - 1]
        elif decision == 2:
            s2.add(row + far)
            col += weights[row + far - 1]
    assert (layer, col) == (0, offset)
    return frozenset(s1), frozenset(s2)


class TestPackedKernel:
    def instances(self):
        rng = random.Random(0x5EED)
        # base 1 is (v, v): its row both sets the heavy flag and adds a
        # pivot-valued element.  No later row sets either flag in the
        # first instance, so no pair can reach both and the live set drops
        # from (0,) to (); in the second, base 2 is (v, v) too, so it jumps
        # to (0, 1, 2) and then to (3,)
        yield (4, 1, 3, 4, 2, 1), 3, 0, 4
        yield (4, 4, 1, 4, 4, 1), 3, 0, 4
        # a cap of 2**15 or more: the table stores int32 sums, not int16
        yield (20000, 1, 12768, 20000, 3, 40000), 3, 0, 20000
        for _ in range(60):
            n = rng.randint(1, 7)
            kind = rng.randrange(4)
            if kind == 0:  # all equal: every candidate of a cell ties
                weights = [rng.randint(1, 5)] * (2 * n)
            elif kind == 1:  # a few repeated values, zeros among them
                weights = [rng.choice((0, 0, 1, 2, 3, 3)) for _ in range(2 * n)]
            elif kind == 2:  # far weights far beyond the window
                weights = [rng.choice((1, 2, 3, 90)) for _ in range(2 * n)]
            else:
                weights = [rng.randint(0, 12) for _ in range(2 * n)]
            for near in (0, n):
                values = sorted({w for w in weights[near:near + n] if w >= 1})
                for v in values:
                    yield tuple(weights), n, near, v

    def test_matches_reference_kernel(self):
        met = {"live": set(), "ties": 0, "zeros": 0, "fell_off": 0}
        for weights, n, near, v in self.instances():
            counter = OpCounter()
            table = full_table(weights, n, near, v, counter)
            codes, totals, ops, seen = reference_fill(weights, n, near, v)
            where = (weights, n, near, v)
            assert counter.cells == ops, where
            assert (stored_totals(table) == totals).all(), where
            for col in np.nonzero(totals[-1, 3] >= 0)[0]:
                diff = int(col) - table.offset
                expected = reference_backtrack(codes, weights, n, near, table.offset, diff)
                assert table.reconstruct(diff) == expected, where + (diff,)
            met["live"] |= seen["live"]
            for key in ("ties", "zeros", "fell_off"):
                met[key] += seen[key]
        assert met["live"] == set(LIVE_SETS)
        assert met["ties"] > 0 and met["zeros"] > 0 and met["fell_off"] > 0

    def test_answer_matches_unpruned_reference(self):
        # the both-flags layer, and so the answer, is the one a fill that
        # keeps every reachable layer computes, at no more cells
        fewer = 0
        for weights, n, near, v in self.instances():
            counter = OpCounter()
            table = DifferenceTable(weights, n, near, v, counter)
            codes, totals, ops, _ = reference_fill(weights, n, near, v, prune=False)
            where = (weights, n, near, v)
            assert (stored_totals(table)[:, 3] == totals[:, 3]).all(), where
            want = reference_answer(totals[-1, 3], table.offset)
            assert table.best_cell() == want, where
            if want is not None:
                expected = reference_backtrack(codes, weights, n, near, table.offset, want[0])
                assert table.reconstruct(want[0]) == expected, where
            assert counter.cells <= ops, where
            fewer += counter.cells < ops
        assert fewer > 0

    def test_best_cell_matches_exact_scan(self):
        # an exact scan over the final cells the table reports: the first
        # minimum-ratio difference, whether best_cell leaves at d = 0 or scans
        rng = random.Random(0xBE57)
        battery = list(self.instances())
        for _ in range(150):
            n = rng.randint(1, 9)
            weights = tuple(rng.randint(1, 40) for _ in range(2 * n))
            near = rng.choice((0, n))
            battery.append((weights, n, near, rng.choice(weights[near:near + n])))
        at_zero = {True: 0, False: 0}
        for weights, n, near, v in battery:
            table = DifferenceTable(weights, n, near, v)
            totals = [table.total(col - table.offset) for col in range(table.width)]
            want = reference_answer([-1 if t is None else t for t in totals], table.offset)
            assert table.best_cell() == want, (weights, n, near, v)
            if want is not None:
                at_zero[table.total(0) is not None] += 1
        assert at_zero[True] > 0 and at_zero[False] > 0

    def test_backtracking_replays_the_tie_rule(self):
        # near side 0.  In both, rows 1-3 leave a light far set {b1, b2}
        # in layer 0 and a heavy one {b3} in layer 1 with the same
        # difference and total.  With pivot weight 2, row 4's heavy b4 = 3
        # extends both into layer 1 at total 5, and the rule keeps the lower
        # source, layer 0 (far set {b1, b2, b4}, not {b3, b4}).  With pivot
        # weight 4, row 4's light b4 = 3 sets no bit: layer 1 at total 7
        # comes from layer 1 alone, though layer 0 plus b4 gives 7 as well
        for weights, v in ((9, 9, 9, 1, 2, 1, 1, 2, 3, 9), 2), ((9, 9, 9, 9, 4, 2, 2, 4, 3, 9), 4):
            n = len(weights) // 2
            table = DifferenceTable(weights, n, 0, v)
            codes, totals, _, _ = reference_fill(weights, n, 0, v)
            cols = np.nonzero(totals[-1, 3] >= 0)[0]
            assert cols.size, weights
            for col in cols:
                diff = int(col) - table.offset
                expected = reference_backtrack(codes, weights, n, 0, table.offset, diff)
                assert table.reconstruct(diff) == expected, (weights, diff)

    def test_row_plans_follow_sequential_order(self):
        # every (live set, far bit, near bit, flag bits later rows can set),
        # a bit None when that kind does not run: the passes come as carry,
        # far, near; the carry is the bit-0 pass over the alive sources;
        # each pass writes only layers later rows can complete to both
        # flags, no two of its sources sharing a target; within a kind the
        # sources of one target come in ascending order, the order in which
        # the sequential rule offers them; and the row keeps the alive
        # layers it can reach
        for live, far_bit, near_bit, later in product(
            LIVE_SETS, (None, 0, 1), (None, 0, 2), range(4)
        ):
            plan = _row_plan(live, far_bit, near_bit, later)
            where = (live, far_bit, near_bit, later)
            alive = {s for s in range(4) if (s & 2 or later & 2) and (s & 1 or later & 1)}
            grown = set(live)
            grown |= {s | far_bit for s in live if far_bit is not None}
            grown |= {s | near_bit for s in live if near_bit is not None}
            kept = plan.after
            assert kept == tuple(sorted(grown & alive)), where
            order = [_CARRY, _FAR, _NEAR]
            kinds = [kind for kind, *_ in plan.passes]
            assert kinds == sorted(kinds, key=order.index), where
            carried = [s for s in live if s in alive]
            carries = [(bit, layers) for kind, bit, layers, _, _ in plan.passes if kind == _CARRY]
            assert carries == ([(0, tuple(carried))] if carried else []), where
            moves = {_CARRY: [], _FAR: [], _NEAR: []}  # (source, target) in pass order
            for kind, bit, layers, src, tgt in plan.passes:
                assert bit == {_CARRY: 0, _FAR: far_bit, _NEAR: near_bit}[kind], where
                targets = [s | bit for s in layers]
                assert list(live[src]) == list(layers), where
                assert list(kept[tgt]) == targets and len(set(targets)) == len(targets), where
                assert set(targets) <= alive, where
                moves[kind] += [(s, s | bit) for s in layers]
            for kind, bit in ((_FAR, far_bit), (_NEAR, near_bit)):
                useful = [] if bit is None else [s for s in live if s | bit in alive]
                assert sorted(s for s, _ in moves[kind]) == useful, where
                for t in range(4):
                    sources = [s for s, target in moves[kind] if target == t]
                    assert sources == sorted(sources), where + (t,)

    def test_candidates_follow_pass_order(self):
        # backtracking's candidates: per target layer, the passes' sources in
        # pass order, with their positions in the previous row's layers
        for live, far_bit, near_bit, later in product(
            LIVE_SETS, (None, 0, 1), (None, 0, 2), range(4)
        ):
            plan = _row_plan(live, far_bit, near_bit, later)
            for t in range(4):
                want = [(kind, s, live.index(s)) for kind, bit, layers, _, _ in plan.passes
                        for s in layers if s | bit == t]
                assert list(plan.candidates[t]) == want, (live, far_bit, near_bit, later, t)

    def test_import_builds_no_plan(self):
        # row plans are built on first use, not when the CLI is imported
        code = (
            "import ssratio.cli\n"
            "from ssratio.semi_restricted import _row_plan\n"
            "print(_row_plan.cache_info().currsize)"
        )
        src = str(Path(ssratio.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "0"

    def test_int32_headroom_at_byte_limit(self):
        # an int32 table's scratch alone takes 4 * 4 bytes per column of the
        # final band, at least cap + 1 wide, so no admitted table has a
        # larger cap
        cap = MAX_TABLE_BYTES // 16 - 1
        assert 4 * 4 * (cap + 1) <= MAX_TABLE_BYTES
        assert cap < 2**31  # the largest stored near sum
        assert -(2**31) + cap < 0  # an empty chain stays negative

    def test_predicted_bytes_match_allocations(self, monkeypatch):
        allocated = []
        for name in ("full", "empty"):
            real = getattr(np, name)

            def record(*args, _real=real, **kwargs):
                array = _real(*args, **kwargs)
                allocated.append(array.nbytes)
                return array

            monkeypatch.setattr(np, name, record)
        rng = random.Random(3)
        for _ in range(20):
            pairs = random_pairs(rng, rng.randint(1, 8), 30)
            weights, n = flat(pairs), len(pairs)
            allocated.clear()
            table = DifferenceTable(weights, n, 0, weights[0])
            assert sum(allocated) == table._predicted_bytes(table._bands()), pairs


def workload_sides(seed):
    """Side searches of seeded instances at the benchmark's shapes and of
    the hard ssr families, scaled at epsilon 1/4: (weights, n, near, pivot
    weight) for sides a solve builds a table for."""
    rng = random.Random(seed)
    weights = [
        # two-set n=32, weights <= 50; ssr and factor-r (r = 3/2) n=24, <= 1000
        flat(random_pairs(rng, 32, 50)),
        encode_ssr_weights([rng.randint(1, 1000) for _ in range(24)]).weights,
        encode_factor_r_weights([rng.randint(1, 1000) for _ in range(24)], Fraction(3, 2)).weights,
    ]
    for base, n in ((3, 40), (3, 24), (Fraction(5, 2), 24), (2, 20)):
        family = [math.ceil(Fraction(base) ** k) for k in range(n)]
        rng.shuffle(family)
        weights.append(encode_ssr_weights(family).weights)
    for original in weights:
        n = len(original) // 2
        for m in rng.sample(range(1, 2 * n + 1), 3):
            scaled = scale_instance(original, m, Fraction(1, 4))
            v = scaled[m - 1]
            for near in (0, n):
                far = n - near
                if v in scaled[near:near + n] and max(scaled[far:far + n]) >= v:
                    yield scaled, n, near, v


def full_table(*args):
    """A DifferenceTable that keeps its full layout: no table reaches the
    clipping gate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semi_restricted, "_CLIP_MIN_CELLS", math.inf)
        return DifferenceTable(*args)


def clipped_table(window, *args, gate=0):
    """A DifferenceTable whose derived window is replaced by `window` (None:
    no window), clipped when its full layout stores at least `gate` cells."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semi_restricted, "_CLIP_MIN_CELLS", gate)
        patch.setattr(DifferenceTable, "_window", lambda self: window)
        return DifferenceTable(*args)


def side_by_rule(table):
    """_solve_one_side's answer, read from a given table."""
    single = _heavy_singleton(table)
    best = table.best_cell()
    if best is not None:
        diff, total = best
        hi, lo = (total + abs(diff)) // 2, (total - abs(diff)) // 2
        if single[0] * lo >= hi * single[1]:
            return hi, lo, table.reconstruct(diff)
    return single


def assert_kept_cells_match(clipped, full, where):
    """Every row of a clipped table keeps a sub-band of the full table's
    band, the same layers, and the full table's sums there."""
    for row, ((lo, hi, live, _), (lo_f, hi_f, live_f, _)) in enumerate(zip(clipped._rows, full._rows)):
        assert lo_f <= lo <= hi <= hi_f and live == live_f, where + (row,)
        kept = full._blocks[row][:, lo - lo_f:hi - lo_f + 1]
        assert (clipped._blocks[row] == kept).all(), where + (row,)


class TestWindow:
    def test_clipped_tables_give_the_full_answer(self, monkeypatch):
        # every derived window, also under the gate: the same best cell,
        # pair and side answer as the full table, and the full table's sums
        # in every kept cell, on the benchmark's shapes and the hard ssr
        # families
        monkeypatch.setattr(semi_restricted, "_CLIP_MIN_CELLS", 0)
        clipped_cells = full_cells = windows = 0
        for weights, n, near, v in chain(workload_sides(11), workload_sides(12)):
            where = (weights, near, v)
            full_counter, counter = OpCounter(), OpCounter()
            full = full_table(weights, n, near, v, full_counter)
            window = full._window()
            clipped = DifferenceTable(weights, n, near, v, counter)
            assert clipped.best_cell() == full.best_cell(), where
            answer = side_by_rule(full)
            assert side_by_rule(clipped) == answer, where
            assert _solve_one_side(weights, n, near, v, None) == answer, where
            assert_kept_cells_match(clipped, full, where)
            full_cells += full_counter.cells
            clipped_cells += counter.cells
            windows += window is not None
        assert windows > 50 and clipped_cells < full_cells / 2, (windows, clipped_cells, full_cells)

    def test_side_searches_clip_what_the_gate_admits(self):
        # a side search counts the cells of its table, clipped to the
        # derived window exactly when the gate admits its full layout, plus
        # the heavy-singleton scan
        clipped = 0
        for weights, n, near, v in chain(workload_sides(14), TestPackedKernel().instances()):
            if max(weights[n - near:2 * n - near]) < v:
                continue  # no heavy far element: no table
            full = full_table(weights, n, near, v)
            window = full._window() if sum(full._bands()[1]) >= _CLIP_MIN_CELLS else None
            counter, want = OpCounter(), OpCounter()
            _solve_one_side(weights, n, near, v, counter)
            table = clipped_table(window, weights, n, near, v, want)
            _heavy_singleton(table, want)
            assert counter.cells == want.cells, (weights, near, v)
            clipped += table._rows != full._rows
        assert clipped > 10

    def test_clipped_small_tables_match_the_full_table(self):
        # seeded small tables, every window from 0 up to the derived one:
        # each kept cell holds the full table's sum, and at or above the
        # derived window the answer is the full table's
        rng = random.Random(0x3D0E)
        checked = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            weights = tuple(rng.choice((0, 1, 2, 3, 5, 8, 13, 20)) for _ in range(2 * n))
            near = rng.choice((0, n))
            values = [w for w in weights[near:near + n] if w >= 1]
            if not values:
                continue
            v = rng.choice(values)
            full = full_table(weights, n, near, v)
            greedy = full._window()
            for window in range(0, (greedy or 3) + 2):
                clipped = clipped_table(window, weights, n, near, v)
                assert_kept_cells_match(clipped, full, (weights, near, v, window))
                if greedy is not None and window >= greedy:
                    assert side_by_rule(clipped) == side_by_rule(full), (weights, near, v, window)
                checked += 1
        assert checked > 500

    def test_greedy_pair_is_a_pair_of_its_side(self):
        # the greedy pair is feasible for its side search (near weights <=
        # v with a pivot-valued one, a heavy far weight, disjoint bases) and
        # with ratio <= 2 the table holds it, so the best cell, and every
        # cell as good, lies inside its window
        rng = random.Random(0x9EED)
        seen = {"window": 0, "wide": 0, "none": 0}
        for _ in range(1500):
            n = rng.randint(1, 6)
            weights = tuple(rng.randint(0, 12) for _ in range(2 * n))
            near, far = rng.choice(((0, n), (n, 0)))
            values = [w for w in weights[near:near + n] if w >= 1]
            if not values or max(weights[far:far + n]) < min(values):
                continue
            v = rng.choice([w for w in values if w <= max(weights[far:far + n])])
            hi, lo, (s1, s2) = _greedy_pair(weights, n, near, v)
            where = (weights, near, v)
            if not s1:
                assert (hi, lo) == (1, 0), where
                # only when the only heavy far elements share the base of
                # the first pivot-valued near element
                j = weights[near:near + n].index(v)
                assert [i for i in range(n) if weights[far + i] >= v] == [j], where
                seen["none"] += 1
                continue
            assert all(near < i <= near + n and weights[i - 1] <= v for i in s1), where
            assert v in [weights[i - 1] for i in s1], where
            assert all(far < j <= far + n for j in s2), where
            assert max(weights[j - 1] for j in s2) >= v, where
            assert not {(i - 1) % n for i in s1} & {(j - 1) % n for j in s2}, where
            assert sorted(resummed(weights, (s1, s2))) == [lo, hi], where
            if hi > 2 * lo:
                seen["wide"] += 1
                continue
            seen["window"] += 1
            table = DifferenceTable(weights, n, near, v)
            diff = sum(weights[i - 1] for i in s1) - sum(weights[j - 1] for j in s2)
            assert table.total(diff) is not None and table.total(diff) >= hi + lo, where
            window = table._window()
            best = table.best_cell()
            assert abs(best[0]) <= window, where
            for col in range(table.width):
                d = col - table.offset
                total = table.total(d)
                if total is not None and Fraction(total + abs(d), total - abs(d)) <= Fraction(hi, lo):
                    assert abs(d) <= window, where + (d,)
        assert all(count > 20 for count in seen.values()), seen

    def test_window_reaching_the_best_difference(self, monkeypatch):
        # near (1, 2), far (3, 2), pivot weight 2: the greedy pair {2} | {3}
        # is the only pair, at d = -1, and its window is floor(1 * 3 / 2) = 1,
        # exactly |d|; the far weight 3 is no heavy singleton (cap 3)
        monkeypatch.setattr(semi_restricted, "_CLIP_MIN_CELLS", 0)
        weights = (1, 2, 3, 2)
        table = DifferenceTable(weights, 2, 0, 2)
        assert table._window() == 1
        assert table.best_cell() == (-1, 5)
        assert _solve_one_side(weights, 2, 0, 2, None) == (3, 2, (frozenset({2}), frozenset({3})))

    def test_tables_under_the_gate_keep_their_bands(self):
        rng = random.Random(0x6A7E)
        small = large = 0
        for _ in range(40):
            pairs = random_pairs(rng, rng.randint(1, 8), 40)
            weights, n = flat(pairs), len(pairs)
            full_counter, counter = OpCounter(), OpCounter()
            full = full_table(weights, n, 0, weights[0], full_counter)
            windowed = clipped_table(0, weights, n, 0, weights[0], counter, gate=_CLIP_MIN_CELLS)
            assert sum(full._bands()[1]) < _CLIP_MIN_CELLS
            assert windowed._rows == full._rows and counter.cells == full_counter.cells
            small += 1
        # and one above it is clipped
        for weights, n, near, v in workload_sides(13):
            full = full_table(weights, n, near, v)
            if sum(full._bands()[1]) >= _CLIP_MIN_CELLS:
                clipped = clipped_table(0, weights, n, near, v, gate=_CLIP_MIN_CELLS)
                assert clipped._rows != full._rows
                large += 1
                break
        assert small and large

    def test_a_window_does_not_admit_a_refused_table(self):
        # the byte limit is read from the full layout, window or not
        scaled = scale_instance(flat([(1, 5), (5, 5), (5, 5)]), 1, Fraction(1, 10**7))
        for window in (None, 0):
            with pytest.raises(ValueError, match="bytes, over the"):
                clipped_table(window, scaled, 3, 0, scaled[0])


class TestRegimesAgree:
    def test_case_results_combine_to_solver(self, dp_battery):
        # the full solver never does worse than either per-side regime
        for pairs in dp_battery[:30]:
            n = len(pairs)
            for m in (1, n + 1):
                full = solve(pairs, m).value()
                for partial in (heavy_singleton(pairs, m), difference_dp(pairs, m)):
                    assert full <= partial.value()
