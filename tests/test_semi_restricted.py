"""Exact solver tests: worked examples, DP structure, oracle equivalence."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ssratio import (
    DifferenceTable,
    OpCounter,
    SolutionPair,
    TwoSetInstance,
    brute_force_semi_restricted,
    check_feasible_semi_restricted,
    exact_solver,
    scale_instance,
    semi_restricted_optima_by_value,
)
from ssratio.semi_restricted import (
    MAX_TABLE_BYTES,
    _CARRY,
    _LIVE_SETS,
    _ROW_PLANS,
    _heavy_singleton,
    _keys_fit_int32,
    _side_view,
)
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
        ctx = scale_instance(flat([(1, 5), (5, 5), (5, 5)]), 1, Fraction(1, 10**7))
        real_full = np.full

        def refuse_large(shape, *args, **kwargs):
            assert np.prod(shape) <= 1 << 24, f"allocation of {shape} requested"
            return real_full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", refuse_large)
        with pytest.raises(ValueError, match="bytes, over the"):
            exact_solver(ctx.scaled, 1)

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


def reference_cells(weights, n, near, pivot_weight, rows=None):
    """Independent enumeration of everything the table may contain.

    A pair qualifies iff its near set uses only candidate elements and the
    running difference (processing bases in order) never drops below
    -2*cap.  Only bases 1..rows are offered (all n by default), which gives
    the cells of row `rows`.  Returns {(diff, has_pivot, has_heavy): max
    total} and the cap.
    """
    far = n - near
    cand = {i for i in range(1, n + 1) if weights[i + near - 1] <= pivot_weight}
    cap = sum(weights[i + near - 1] for i in cand)
    best: dict[tuple[int, bool, bool], int] = {}
    for assign in product((0, 1, 2), repeat=n if rows is None else rows):
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

    def test_inner_rows_match_reference(self, dp_battery):
        # every row, every column of the window: cells outside a row's
        # stored band read as unoccupied
        for weights, n, near, v in self.tables(dp_battery):
            table = DifferenceTable(weights, n, near, v)
            for row in range(n + 1):
                want, _ = reference_cells(weights, n, near, v, rows=row)
                for col in range(table.width):
                    diff = col - table.offset
                    for hp in (False, True):
                        for hh in (False, True):
                            got = table.occupied(row, diff, hp, hh)
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


def reference_fill(weights, n, near, pivot_weight):
    """Reference for DifferenceTable's fill: a sequential per-layer kernel.

    Writes each candidate in turn (carry, far extensions, near extensions,
    each by ascending source layer) with the sequential strict-> rule.
    Returns the decision codes of rows 1..n as an (n, 4, width) array (255:
    empty), the final totals (-1: empty), the cells touched, and what the
    fill met: each row's live layers, candidates that tied a stored total,
    zero weights and far weights that fell off the window.
    """
    far = n - near
    view = _side_view(weights, n, near, pivot_weight)
    cand_set = frozenset(view.cand_bases)
    cap, v = view.cap, pivot_weight
    width, offset = 3 * cap + 1, 2 * cap
    seen = {"live": set(), "ties": 0, "zeros": 0, "fell_off": 0}
    codes = np.full((n, 4, width), 255, dtype=np.int16)
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
        lo = max(0, lo0 - far_w)
        hi = hi0 + (near_w if i in cand_set else 0)
        y = np.full((4, width), -1, dtype=np.int64)
        code = codes[i - 1]
        for layer in live:
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
                src_vals = x[src, lo0:hi0 + 1]
                dest = y[tgt, lo0 + near_w:hi + 1]
                seen["ties"] += int(((src_vals >= 0) & (src_vals + near_w == dest)).sum())
                mask = (src_vals >= 0) & (src_vals + near_w > dest)
                dest[mask] = src_vals[mask] + near_w
                code[tgt, lo0 + near_w:hi + 1][mask] = 4 + src  # take_near
                ops += hi0 - lo0 + 1
            if near_w == v:
                grown |= {layer | 2 for layer in live}
        live = sorted(grown)
        x = y
    ops += hi - lo + 1  # final scan
    return codes, x, ops, seen


def decoded_codes(table):
    """The table's decision codes of rows 1..n as an (n, 4, width) array."""
    out = np.full((table.n, 4, table.width), 255, dtype=np.int16)
    for row, (start, code, lut) in enumerate(table._steps):
        lut = np.asarray(lut, dtype=np.int16)
        out[row, :, start:start + code.shape[1]] = lut[np.arange(4)[:, None], code]
    return out


class TestPackedKernel:
    def instances(self):
        rng = random.Random(0x5EED)
        # base 1 is (v, v): its row both sets the heavy flag and adds a
        # pivot-valued element, so the live set jumps from (0) to (0, 1, 2)
        yield (4, 1, 3, 4, 2, 1), 3, 0, 4
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
            table = DifferenceTable(weights, n, near, v, counter)
            codes, final, ops, seen = reference_fill(weights, n, near, v)
            where = (weights, n, near, v)
            assert counter.cells == ops, where
            assert (decoded_codes(table) == codes).all(), where
            lo, hi = table._final_band
            got = np.where(table.final >= 0, table.final, -1)
            assert (got[:, lo:hi + 1] == final[:, lo:hi + 1]).all(), where
            assert (final[:, :lo] == -1).all() and (final[:, hi + 1:] == -1).all(), where
            met["live"] |= seen["live"]
            for key in ("ties", "zeros", "fell_off"):
                met[key] += seen[key]
        assert met["live"] == {(0,), (0, 1), (0, 2), (0, 1, 2), (0, 1, 2, 3)}
        assert met["ties"] > 0 and met["zeros"] > 0 and met["fell_off"] > 0

    def test_row_plans_follow_sequential_order(self):
        # every (live set, far bit, near bit): per target layer, the carry,
        # then far and then near extensions by ascending source, must get
        # strictly decreasing priorities that the lut maps back to their codes
        for (k, live), (fi, far_bit), (ni, near_bit) in product(
            enumerate(_LIVE_SETS), enumerate((0, 1)), enumerate((0, 2))
        ):
            plan = _ROW_PLANS[k][fi][ni]
            prio: dict[int, int] = {}  # decision code -> priority
            for passes, bit, decision in ((plan.far, far_bit, 8), (plan.near, near_bit, 4)):
                seen = []
                for p in passes:
                    srcs, tgts = list(range(4)[p[0]]), list(range(4)[p[1]])
                    assert tgts == [s | bit for s in srcs]
                    priorities = np.broadcast_to(np.asarray(p[-1]).reshape(-1), (len(srcs),))
                    prio.update((decision + s, int(q)) for s, q in zip(srcs, priorities))
                    seen += srcs
                assert sorted(seen) == list(live)
            for layer in range(4):
                order = [layer] if layer in live else []
                order += [8 + s for s in live if s | far_bit == layer]
                order += [4 + s for s in live if s | near_bit == layer]
                ranks = [_CARRY if code == layer else prio[code] for code in order]
                where = (live, far_bit, near_bit, layer)
                assert all(a > b for a, b in zip(ranks, ranks[1:])), where
                assert all(plan.lut[layer][q] == code for q, code in zip(ranks, order)), where
                assert plan.lut[layer][7] == 255, where

    def test_int32_headroom_at_byte_limit(self):
        # the row buffers alone take 2 * 4 * 4 bytes per column of the
        # 3 * cap + 1 wide window, so no admitted table has a larger cap
        cap = (MAX_TABLE_BYTES // 32 - 1) // 3
        assert 2 * 4 * 4 * (3 * cap + 1) <= MAX_TABLE_BYTES
        assert 8 * (7 * cap + 1) + 6 < 2**31  # largest occupied key
        assert -(2**31) + 8 * (cap + 4 * cap + 1) + 6 < 0  # an empty chain stays empty
        assert _keys_fit_int32(cap)
        assert not _keys_fit_int32((2**31 - 14) // 56 + 1)

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


class TestRegimesAgree:
    def test_case_results_combine_to_solver(self, dp_battery):
        # the full solver never does worse than either per-side regime
        for pairs in dp_battery[:30]:
            n = len(pairs)
            for m in (1, n + 1):
                full = solve(pairs, m).value()
                for partial in (heavy_singleton(pairs, m), difference_dp(pairs, m)):
                    assert full <= partial.value()
