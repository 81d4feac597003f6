"""Driver tests: scaling, guarantee, pluggable solver, determinism."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from ssratio import (
    OpCounter,
    RatioValue,
    TwoSetInstance,
    brute_force_two_set,
    check_optimum_scaling,
    check_pivot_inequalities,
    decode,
    encode_factor_r_weights,
    encode_ssr_weights,
    exact_solver,
    fptas_solve,
    scale_instance,
    scaled_pair_value,
)
from conftest import GUARANTEE_EPSILONS, random_pairs


class TestScaleInstance:
    def test_worked_example(self):
        ctx = scale_instance([3, 10, 2, 8], 2, Fraction(3, 10))
        assert ctx.delta == Fraction(1, 4)
        assert ctx.scaled == (12, 40, 8, 32)

    def test_pivot_scales_to_floor_3n_over_eps(self):
        rng = random.Random(2)
        for _ in range(25):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 50), rng.randint(1, 7)) for _ in range(count)]
            m = rng.randint(1, count)
            eps = Fraction(rng.randint(1, 19), 20)
            ctx = scale_instance(weights, m, eps)
            target = (Fraction(3 * count) / eps).__floor__()
            assert ctx.scaled[m - 1] == target >= 3 * count

    def test_floor_bounds_and_order_preservation(self):
        rng = random.Random(3)
        for _ in range(25):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(count)]
            ctx = scale_instance(weights, rng.randint(1, count), Fraction(rng.randint(1, 9), 10))
            for w, s in zip(weights, ctx.scaled):
                assert w - ctx.delta <= ctx.delta * s <= w
            for i, j in product(range(count), repeat=2):
                if weights[i] < weights[j]:
                    assert ctx.scaled[i] <= ctx.scaled[j]

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_instance([1, 2], 1, 1)
        with pytest.raises(ValueError):
            scale_instance([1, 2], 1, 0)
        with pytest.raises(ValueError):
            scale_instance([1, -2], 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            scale_instance([1, 2], 3, Fraction(1, 2))
        with pytest.raises(ValueError):
            scale_instance([], 1, Fraction(1, 2))


class TestDriver:
    def test_uniform_instance_value_one(self):
        inst = TwoSetInstance.from_pairs([(2, 2), (2, 2)])
        for eps in GUARANTEE_EPSILONS:
            assert fptas_solve(inst, eps).value == RatioValue.finite(1)

    def test_worked_instance(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        res = fptas_solve(inst, Fraction(1, 2))
        assert res.value == RatioValue.finite(Fraction(6, 5))
        assert res.bound == Fraction(3, 2)
        assert res.status == "approximate"

    def test_single_pair_infeasible(self):
        inst = TwoSetInstance.from_pairs([(2, 2)])
        res = fptas_solve(inst, Fraction(1, 2))
        assert not res.feasible and res.status == "infeasible"
        assert res.pivot_used is None

    def test_epsilon_validation(self):
        inst = TwoSetInstance.from_pairs([(1, 1)])
        with pytest.raises(ValueError):
            fptas_solve(inst, Fraction(3, 2))

    def test_per_pivot_log(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        res = fptas_solve(inst, Fraction(1, 2), collect_log=True)
        assert res.per_pivot_log is not None and len(res.per_pivot_log) == 4
        assert [entry.m for entry in res.per_pivot_log] == [1, 2, 3, 4]
        best = min(e.original_value for e in res.per_pivot_log)
        assert best == res.value

    def test_guarantee_on_battery(self):
        rng = random.Random(17)
        for _ in range(40):
            pairs = random_pairs(rng, rng.randint(1, 6), 40)
            inst = TwoSetInstance.from_pairs(pairs)
            opt = brute_force_two_set(inst)
            for eps in (Fraction(1, 10), Fraction(9, 10)):
                res = fptas_solve(inst, eps)
                assert res.feasible == opt.feasible
                if opt.feasible:
                    got = res.value.as_fraction()
                    assert 1 <= got <= (1 + eps) * opt.optimum.as_fraction()

    def test_custom_exact_solver_interface(self):
        # a tiny independent exact solver plugged through the interface
        calls = []

        def tiny_exact(weights, m):
            calls.append(m)
            n = len(weights) // 2
            pivot = weights[m - 1]
            best = None
            best_key = None
            for assign in product((0, 1, 2), repeat=n):
                s1 = frozenset(b for b, c in enumerate(assign, 1) if c == 1)
                s2 = frozenset(b + n for b, c in enumerate(assign, 1) if c == 2)
                if not s1 or not s2:
                    continue
                if min(max(weights[i - 1] for i in s1), max(weights[j - 1] for j in s2)) != pivot:
                    continue
                sums = (sum(weights[i - 1] for i in s1), sum(weights[j - 1] for j in s2))
                if 0 in sums:
                    continue
                key = Fraction(max(sums), min(sums))
                if best_key is None or key < best_key:
                    best, best_key = (s1, s2), key
            return best if best is not None else (frozenset(), frozenset())

        rng = random.Random(23)
        for _ in range(12):
            pairs = random_pairs(rng, rng.randint(1, 3), 12)
            inst = TwoSetInstance.from_pairs(pairs)
            eps = Fraction(rng.randint(1, 9), 10)
            calls.clear()
            via_custom = fptas_solve(inst, eps, exact=tiny_exact)
            via_default = fptas_solve(inst, eps)
            assert via_custom.value == via_default.value
            # one call per distinct (pivot value, side), at its first pivot
            first = {}
            for m in range(1, 2 * inst.n + 1):
                first.setdefault((inst.weight(m), m <= inst.n), m)
            assert calls == list(first.values())

    def test_determinism(self):
        rng = random.Random(29)
        for _ in range(10):
            pairs = random_pairs(rng, rng.randint(1, 5), 30)
            inst = TwoSetInstance.from_pairs(pairs)
            eps = Fraction(rng.randint(1, 9), 10)
            a = fptas_solve(inst, eps, collect_log=True)
            b = fptas_solve(inst, eps, collect_log=True)
            assert a == b

    def test_counter_accumulates(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        counter = OpCounter()
        res = fptas_solve(inst, Fraction(1, 2), counter=counter)
        assert res.dp_cell_ops == counter.cells > 0


class TestScalingChecks:
    def test_pivot_inequalities_on_battery(self):
        rng = random.Random(37)
        hypothesis_held = 0
        checked = 0
        for _ in range(25):
            pairs = random_pairs(rng, rng.randint(1, 5), 30)
            weights = TwoSetInstance.from_pairs(pairs).weights
            count = len(weights)
            for eps in (Fraction(3, 10), Fraction(9, 10)):
                for m in range(1, count + 1):
                    ctx = scale_instance(weights, m, eps)
                    s1, s2 = exact_solver(ctx.scaled, m)
                    if not s1:
                        continue
                    checked += 1
                    if check_pivot_inequalities(weights, eps, ctx, s1, s2):
                        hypothesis_held += 1
        assert checked > 0
        # the epsilon/3 regime should be the common case, not a rarity
        assert hypothesis_held >= checked * 9 // 10

    def test_optimum_scaling_bound(self):
        rng = random.Random(41)
        for _ in range(20):
            pairs = random_pairs(rng, rng.randint(1, 5), 25)
            inst = TwoSetInstance.from_pairs(pairs)
            opt = brute_force_two_set(inst)
            if not opt.feasible:
                continue
            for eps in (Fraction(1, 10), Fraction(1, 2)):
                for m in range(1, 2 * inst.n + 1):
                    check_optimum_scaling(inst.weights, eps, m, opt.best.s1, opt.best.s2)

    def test_scaled_value_sandwich_at_covering_pivot(self):
        # at a pivot whose weight realises the optimum's smaller maximum,
        # the exact solver's scaled value cannot exceed the optimum's
        rng = random.Random(43)
        for _ in range(25):
            pairs = random_pairs(rng, rng.randint(1, 5), 25)
            inst = TwoSetInstance.from_pairs(pairs)
            opt = brute_force_two_set(inst)
            if not opt.feasible:
                continue
            max1 = max(inst.weight(i) for i in opt.best.s1)
            max2 = max(inst.weight(j) for j in opt.best.s2)
            pivot = next(
                i for i in range(1, 2 * inst.n + 1)
                if inst.weight(i) == min(max1, max2)
            )
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                ctx = scale_instance(inst.weights, pivot, eps)
                s1, s2 = exact_solver(ctx.scaled, pivot)
                assert s1 and s2, "covering pivot must stay feasible after scaling"
                got = scaled_pair_value(ctx, s1, s2)
                ceiling = scaled_pair_value(ctx, opt.best.s1, opt.best.s2)
                assert got <= ceiling


def solve_source(encoded, source, eps):
    """encode -> fptas_solve -> decode, the path `ssratio solve` runs."""
    res = fptas_solve(encoded, eps)
    return res, decode(res.solution, source, encoded.n)


class TestConvenienceFrontends:
    def test_ssr_examples(self):
        res, dec = solve_source(encode_ssr_weights([2, 2]), "ssr", Fraction(1, 10))
        assert res.value == RatioValue.finite(1)
        assert len(dec.s1) == 1 and len(dec.s2) == 1

        res, dec = solve_source(encode_ssr_weights([1, 2, 3]), "ssr", Fraction(1, 10))
        assert res.value == RatioValue.finite(1)
        assert {dec.s1, dec.s2} == {frozenset({3}), frozenset({1, 2})}

        res, dec = solve_source(encode_ssr_weights([1]), "ssr", Fraction(1, 2))
        assert res.status == "infeasible" and dec.is_empty

    def test_ssr_accepts_rational_weights(self):
        res = fptas_solve(encode_ssr_weights(["1/2", "1/4", "3/4"]), Fraction(1, 10))
        assert res.value == RatioValue.finite(1)

    def test_factor_r_example(self):
        res, dec = solve_source(encode_factor_r_weights([1, 1], 2), "factor-r", Fraction(1, 10))
        assert res.value == RatioValue.finite(2)
        assert dec.r_multiplied in ("s1", "s2")

    def test_factor_one_matches_ssr(self):
        rng = random.Random(47)
        for _ in range(10):
            weights = [rng.randint(1, 15) for _ in range(rng.randint(1, 5))]
            eps = Fraction(1, 4)
            assert (
                fptas_solve(encode_factor_r_weights(weights, 1), eps).value
                == fptas_solve(encode_ssr_weights(weights), eps).value
            )


class TestClosedFormOptima:
    """Known optima beyond the oracle's size cap."""

    @pytest.mark.parametrize("n", [16, 20, 24])
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4)])
    def test_powers_of_two(self, n, eps):
        # distinct subset sums: the best pair is {2^(n-1)} against all the rest
        top = 2 ** (n - 1)
        optimum = Fraction(top, top - 1)
        res, dec = solve_source(encode_ssr_weights([2**k for k in range(n)]), "ssr", eps)
        assert optimum <= res.value.as_fraction() <= (1 + eps) * optimum
        assert not dec.is_empty

    def test_all_equal_weights(self):
        res = fptas_solve(encode_ssr_weights([7] * 30), Fraction(1, 4))
        assert res.value == RatioValue.finite(1)
