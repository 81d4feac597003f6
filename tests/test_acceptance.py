"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All numeric comparisons are exact-rational with zero tolerance
unless a criterion explicitly concerns asymptotic shape or wall-clock.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import numpy as np

from ssratio import (
    DifferenceTable,
    OpCounter,
    SolutionPair,
    TwoSetInstance,
    brute_force_factor_r,
    brute_force_two_set,
    check_feasible_semi_restricted,
    encode_factor_r_weights,
    encode_ssr_weights,
    exact_solver,
    fptas_solve,
    scale_instance,
    scaled_pair_value,
    semi_restricted_optima_by_value,
)
from ssratio.cli import main as cli_main
from conftest import GUARANTEE_EPSILONS, occupied, random_pairs
from scaling_checks import check_optimum_scaling, check_pivot_inequalities


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number} ({label}): FAIL")
        raise
    print(f"CRITERION {number} ({label}): PASS")


# ---------------------------------------------------------------------------
# 1. exact-solver correctness against the oracle, every pivot
# ---------------------------------------------------------------------------


def test_criterion_1_exact_solver_matches_oracle(exactness_battery):
    with criterion(1, "exact solver equals oracle on every pivot"):
        started = time.monotonic()
        comparisons = 0
        for pairs in exactness_battery:
            instance = TwoSetInstance.from_pairs(pairs)
            optima = semi_restricted_optima_by_value(instance)
            weights = tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
            for m in range(1, 2 * len(pairs) + 1):
                sol = SolutionPair.from_sets(weights, *exact_solver(weights, m))
                want = optima.get(instance.weight(m))
                if want is None:
                    assert sol.is_empty, (pairs, m)
                else:
                    assert sol.value() == want.optimum, (pairs, m)
                if not sol.is_empty:
                    assert check_feasible_semi_restricted(sol, instance, m), (pairs, m)
                comparisons += 1
        elapsed = time.monotonic() - started
        assert comparisons >= 500 * 2 * 2
        assert elapsed < 60.0, f"criterion-1 suite took {elapsed:.1f}s"
        print(f"  {comparisons} pivot comparisons over "
              f"{len(exactness_battery)} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. FPTAS guarantee
# ---------------------------------------------------------------------------


def test_criterion_2_fptas_guarantee(guarantee_battery):
    with criterion(2, "fptas value within (1+eps) of the optimum"):
        checked = 0
        for pairs in guarantee_battery:
            instance = TwoSetInstance.from_pairs(pairs)
            opt = brute_force_two_set(instance)
            for eps in GUARANTEE_EPSILONS:
                res = fptas_solve(instance, eps)
                assert res.feasible == opt.feasible, (pairs, eps)
                if opt.feasible:
                    value = res.value
                    ceiling = (1 + eps) * opt.optimum
                    assert Fraction(1) <= value <= ceiling, (pairs, eps)
                checked += 1
        assert checked >= 200 * len(GUARANTEE_EPSILONS)
        print(f"  {checked} (instance, epsilon) runs checked exactly")


# ---------------------------------------------------------------------------
# 3. scaling-inequality suite on the same battery
# ---------------------------------------------------------------------------


def test_criterion_3_scaling_lemma_suite(guarantee_battery):
    with criterion(3, "per-pivot scaling inequalities"):
        pivot_checks = 0
        hypothesis_held = 0
        optimum_checks = 0
        for pairs in guarantee_battery:
            instance = TwoSetInstance.from_pairs(pairs)
            count = 2 * instance.n
            opt = brute_force_two_set(instance)
            for eps in GUARANTEE_EPSILONS:
                # per-pivot inequalities on every feasible pivot's returned pair
                for m in range(1, count + 1):
                    scaled = scale_instance(instance.weights, m, eps)
                    s1, s2 = exact_solver(scaled, m)
                    if not s1:
                        continue
                    pivot_checks += 1
                    if check_pivot_inequalities(instance.weights, eps, m, scaled, s1, s2):
                        hypothesis_held += 1
                    if opt.feasible and check_optimum_scaling(
                        instance.weights, eps, m, opt.best.s1, opt.best.s2
                    ):
                        optimum_checks += 1
                # sandwich at a pivot realising the optimum's smaller maximum
                if opt.feasible:
                    max1 = max(instance.weight(i) for i in opt.best.s1)
                    max2 = max(instance.weight(j) for j in opt.best.s2)
                    pivot = next(
                        i for i in range(1, count + 1)
                        if instance.weight(i) == min(max1, max2)
                    )
                    scaled = scale_instance(instance.weights, pivot, eps)
                    s1, s2 = exact_solver(scaled, pivot)
                    assert s1 and s2
                    assert scaled_pair_value(scaled, s1, s2) <= scaled_pair_value(
                        scaled, opt.best.s1, opt.best.s2
                    )
        assert pivot_checks > 0 and optimum_checks > 0
        print(f"  {pivot_checks} pivot inequality checks "
              f"({hypothesis_held} with the scale-step hypothesis), "
              f"{optimum_checks} optimum-scaling checks")


# ---------------------------------------------------------------------------
# 4. DP structural suite
# ---------------------------------------------------------------------------


def _feasible_states(weights: tuple[int, ...], n: int):
    """All feasible pairs as (s1, s2, sum1, sum2, max1, max2), s1 first-side."""
    for assign in product((0, 1, 2), repeat=n):
        s1, s2 = [], []
        sum1 = sum2 = max1 = max2 = 0
        for base, choice in enumerate(assign, 1):
            if choice == 1:
                w = weights[base - 1]
                s1.append(base)
                sum1 += w
                max1 = max(max1, w)
            elif choice == 2:
                w = weights[n + base - 1]
                s2.append(n + base)
                sum2 += w
                max2 = max(max2, w)
        if s1 and s2:
            yield frozenset(s1), frozenset(s2), sum1, sum2, max1, max2


def test_criterion_4_dp_structure(dp_battery):
    with criterion(4, "DP window, index discipline, reachability"):
        reach_checks = 0
        cells_reconstructed = 0
        for pairs in dp_battery:
            n = len(pairs)
            weights = tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
            tables: dict[tuple[int, int], DifferenceTable] = {}

            def table_for(near: int, value: int) -> DifferenceTable:
                key = (near, value)
                if key not in tables:
                    tables[key] = DifferenceTable(weights, n, near, value)
                return tables[key]

            # reachability: every oracle-feasible solution within the window
            # has its final-row cell occupied with at least its total sum
            for s1, s2, sum1, sum2, max1, max2 in _feasible_states(weights, n):
                pivot_value = min(max1, max2)
                orientations = []
                if max1 == pivot_value:
                    orientations.append((0, sum1 - sum2, sum2))
                if max2 == pivot_value:
                    orientations.append((n, sum2 - sum1, sum1))
                for near, diff, far_sum in orientations:
                    table = table_for(near, pivot_value)
                    if far_sum > 2 * table.cap:
                        continue  # outside the window this regime guarantees
                    total = table.total(diff)
                    assert total is not None, (pairs, s1, s2)
                    assert total >= sum1 + sum2, (pairs, s1, s2)
                    reach_checks += 1

            # window bounds and index discipline on every occupied cell
            for (near, value), table in tables.items():
                for col in range(table.width):
                    diff = col - table.offset
                    for hp, hh in product((False, True), repeat=2):
                        if not occupied(table, n, diff, hp, hh):
                            continue
                        assert -2 * table.cap <= diff <= table.cap
                        assert (hp, hh) == (True, True)  # the final row keeps both flags only
                        rs1, rs2 = table.reconstruct(diff)  # raises on violation
                        got = sum(weights[i - 1] for i in rs1) - sum(
                            weights[j - 1] for j in rs2
                        )
                        assert got == diff
                        cells_reconstructed += 1
        assert reach_checks > 0 and cells_reconstructed > 0
        print(f"  {reach_checks} reachability checks, "
              f"{cells_reconstructed} cells reconstructed with discipline asserts")


# ---------------------------------------------------------------------------
# 5. reduction equivalence
# ---------------------------------------------------------------------------


def test_criterion_5_reduction_equivalence():
    with criterion(5, "reductions match direct brute force"):
        rng = random.Random(0x5EED)
        ssr_checked = 0
        for _ in range(200):
            weights = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
            direct = brute_force_factor_r(weights, 1)
            encoded = brute_force_two_set(encode_ssr_weights(weights))
            assert direct.optimum == encoded.optimum, weights
            ssr_checked += 1
        factor_checked = 0
        for r in (Fraction(1), Fraction(3, 2), Fraction(2)):
            for _ in range(67):
                weights = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
                direct = brute_force_factor_r(weights, r)
                encoded = brute_force_two_set(encode_factor_r_weights(weights, r))
                assert direct.optimum == encoded.optimum, (weights, r)
                factor_checked += 1
        assert ssr_checked >= 200 and factor_checked >= 200
        print(f"  {ssr_checked} plain + {factor_checked} factor-r equivalences")


# ---------------------------------------------------------------------------
# 6. runtime shape
# ---------------------------------------------------------------------------


def _fit_slope(sizes, ops):
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_ops = np.log(np.asarray(ops, dtype=float))
    slope, _ = np.polyfit(logs_n, logs_ops, 1)
    return float(slope)


def test_criterion_6_runtime_shape():
    with criterion(6, "cell-operation growth and wall clock"):
        # exact solver: fixed pivot weight, growing n -> slope near 2
        rng = random.Random(0xCAFE)
        sizes = [8, 12, 18, 27, 40]
        mean_ops = []
        for n in sizes:
            trials = []
            for _ in range(3):
                pairs = random_pairs(rng, n, 30)
                pairs[0] = (30, pairs[0][1])   # pin the pivot weight
                pairs[1] = (pairs[1][0], 30)   # keep the far side feasible
                counter = OpCounter()
                weights = tuple(a for a, _ in pairs) + tuple(b for _, b in pairs)
                exact_solver(weights, 1, counter)
                trials.append(counter.cells)
            mean_ops.append(sum(trials) / len(trials))
        solver_slope = _fit_slope(sizes, mean_ops)
        assert 1.5 <= solver_slope <= 2.5, f"solver slope {solver_slope:.2f}"

        # end-to-end driver at fixed epsilon -> slope near 4
        sizes = [6, 9, 14, 20]
        mean_ops = []
        for n in sizes:
            trials = []
            for _ in range(2):
                inst = TwoSetInstance.from_pairs(random_pairs(rng, n, 30))
                trials.append(fptas_solve(inst, Fraction(1, 2)).dp_cell_ops)
            mean_ops.append(sum(trials) / len(trials))
        driver_slope = _fit_slope(sizes, mean_ops)
        assert 3.0 <= driver_slope <= 5.0, f"driver slope {driver_slope:.2f}"

        # wall clock at n = 40, epsilon = 0.25
        inst = TwoSetInstance.from_pairs(random_pairs(random.Random(0xBEEF), 40, 50))
        started = time.monotonic()
        res = fptas_solve(inst, Fraction(1, 4))
        elapsed = time.monotonic() - started
        assert res.feasible
        assert elapsed < 10.0, f"n=40 run took {elapsed:.1f}s"
        print(f"  solver slope {solver_slope:.2f}, driver slope {driver_slope:.2f}, "
              f"n=40 wall {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. determinism of solution files
# ---------------------------------------------------------------------------


def test_criterion_7_byte_identical_outputs(guarantee_battery, tmp_path):
    with criterion(7, "byte-identical solution files"):
        checked = 0
        for index, pairs in enumerate(guarantee_battery):
            instance_path = tmp_path / f"inst{index}.json"
            instance_path.write_text(
                json.dumps({
                    "format": 1,
                    "problem": "two-set",
                    "pairs": [[str(a), str(b)] for a, b in pairs],
                }) + "\n",
                encoding="utf-8",
            )
            for eps in GUARANTEE_EPSILONS:
                blobs = []
                for run in range(3):
                    out = tmp_path / f"out{index}_{eps.numerator}_{run}.json"
                    code = cli_main([
                        "solve", str(instance_path), "--epsilon", str(eps),
                        "--output", str(out),
                    ])
                    assert code in (0, 2)
                    blobs.append(out.read_bytes())
                assert blobs[0] == blobs[1] == blobs[2], (pairs, eps)
                checked += 1
        print(f"  {checked} instance/epsilon combinations byte-compared across "
              f"three runs")
