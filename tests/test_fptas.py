"""Driver tests: scaling, guarantee, side cache, determinism."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from ssratio import (
    OpCounter,
    PivotLog,
    SolutionPair,
    TwoSetInstance,
    brute_force_two_set,
    decode,
    encode_factor_r_weights,
    encode_ssr_weights,
    exact_solver,
    fptas_solve,
    scale_instance,
    scaled_pair_value,
)
from ssratio import semi_restricted
from conftest import GUARANTEE_EPSILONS, random_pairs
from scaling_checks import check_optimum_scaling, check_pivot_inequalities


def reference_driver(inst, eps):
    """The driver loop with no memo, evaluating every pivot's pair in
    Fractions through SolutionPair.from_sets: (solution, value, pivot_used,
    per-pivot log)."""
    best, best_value, pivot_used, log = SolutionPair.empty(), math.inf, None, []
    for m in range(1, 2 * inst.n + 1):
        scaled = scale_instance(inst.weights, m, eps)
        s1, s2 = exact_solver(scaled, m)
        value = math.inf
        if s1 and s2:
            pair = SolutionPair.from_sets(inst.weights, s1, s2)
            value = pair.value()
            if value < best_value:
                best, best_value, pivot_used = pair, value, m
        log.append(PivotLog(m, scaled_pair_value(scaled, s1, s2), value))
    return best, best_value, pivot_used, tuple(log)


class TestScaleInstance:
    def test_worked_example(self):
        # delta = (3/10) * 10 / 12 = 1/4
        assert scale_instance([3, 10, 2, 8], 2, Fraction(3, 10)) == (12, 40, 8, 32)

    def test_pivot_scales_to_floor_3n_over_eps(self):
        rng = random.Random(2)
        for _ in range(25):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 50), rng.randint(1, 7)) for _ in range(count)]
            m = rng.randint(1, count)
            eps = Fraction(rng.randint(1, 19), 20)
            scaled = scale_instance(weights, m, eps)
            target = (Fraction(3 * count) / eps).__floor__()
            assert scaled[m - 1] == target >= 3 * count

    def test_floor_bounds_and_order_preservation(self):
        rng = random.Random(3)
        for _ in range(25):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(count)]
            m, eps = rng.randint(1, count), Fraction(rng.randint(1, 9), 10)
            scaled = scale_instance(weights, m, eps)
            delta = eps * weights[m - 1] / (3 * count)
            for w, s in zip(weights, scaled):
                assert w - delta <= delta * s <= w
            for i, j in product(range(count), repeat=2):
                if weights[i] < weights[j]:
                    assert scaled[i] <= scaled[j]

    def test_integer_floor_matches_fraction_reference(self):
        def reference(weights, m, eps):
            # the Fraction expression scale_instance used before flooring in integers
            w = [Fraction(v) for v in weights]
            delta = eps * w[m - 1] / (3 * len(w))
            return tuple(math.floor(v / delta) for v in w)

        rng = random.Random(29)
        cases = []
        for _ in range(40):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)) for _ in range(count)]
            cases.append((weights, Fraction(rng.randint(1, 99), 100)))
        extremes = ["1e308", "1e-308", "3", "7/2"]
        for eps in ("1/2", "1e-10", "1e-30", "9/10"):
            cases.append((extremes, Fraction(eps)))
        cases.append(([1, 1, 10**9, 10**12], Fraction(1, 10)))  # weights that floor to 0
        zeros = 0
        for weights, eps in cases:
            for m in range(1, len(weights) + 1):
                scaled = scale_instance(weights, m, eps)
                assert scaled == reference(weights, m, eps), (weights, m, eps)
                zeros += scaled.count(0)
        assert zeros > 0

    def test_common_numerators_scale_like_the_weights(self):
        # the driver scales the weights' integer numerators over their common
        # denominator; one factor on every weight leaves each pivot's floors
        rng = random.Random(31)
        for _ in range(40):
            count = 2 * rng.randint(1, 6)
            weights = [Fraction(rng.randint(1, 10**4), rng.randint(1, 30)) for _ in range(count)]
            lcm = math.lcm(*(w.denominator for w in weights))
            numerators = [w.numerator * (lcm // w.denominator) for w in weights]
            eps = Fraction(rng.randint(1, 99), 100)
            for m in range(1, count + 1):
                scaled = scale_instance(numerators, m, eps)
                assert scaled == scale_instance(weights, m, eps), (weights, m, eps)
                assert scaled == scale_instance([str(w) for w in weights], m, eps)
        # an int weight skips parsing, a bool still does not pass for one
        with pytest.raises(ValueError, match="not a rational value"):
            scale_instance([True, 2], 1, Fraction(1, 2))

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
            assert fptas_solve(inst, eps).value == 1

    def test_worked_instance(self):
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        res = fptas_solve(inst, Fraction(1, 2))
        assert res.value == Fraction(6, 5)
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
                    got = res.value
                    assert 1 <= got <= (1 + eps) * opt.optimum

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
        # dp_cell_ops is the exact solver's count over all pivots, one memo
        # per solve
        inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
        eps = Fraction(1, 2)
        counter, memo = OpCounter(), {}
        for m in range(1, 2 * inst.n + 1):
            exact_solver(scale_instance(inst.weights, m, eps), m, counter, memo=memo)
        assert fptas_solve(inst, eps).dp_cell_ops == counter.cells > 0


class TestPairComparison:
    """The driver compares pivot pairs by integer sums over the weights'
    common denominator; the reference evaluates each pair in Fractions."""

    def instances(self):
        rng = random.Random(83)
        yield TwoSetInstance.from_pairs([("1/2", "2/3"), ("3/4", "1/6"), ("5/7", "2/5")])
        for _ in range(6):
            yield TwoSetInstance.from_pairs(
                [(Fraction(rng.randint(1, 40), rng.randint(1, 9)),
                  Fraction(rng.randint(1, 40), rng.randint(1, 9)))
                 for _ in range(rng.randint(2, 5))]
            )
        for r in (Fraction(3, 2), Fraction(7, 3)):
            for _ in range(3):
                yield encode_factor_r_weights([rng.randint(1, 30) for _ in range(5)], r)
        yield encode_ssr_weights(["1e400", 1])
        yield TwoSetInstance.from_pairs([(2, 2)])  # infeasible
        yield TwoSetInstance.from_pairs([(5, 4), (3, 6), (5, 4)])  # pivots tie

    def test_matches_fraction_reference(self):
        ties = infeasible = 0
        for inst in self.instances():
            for eps in (Fraction(1, 10), Fraction(1, 2)):
                res = fptas_solve(inst, eps, collect_log=True)
                solution, value, pivot_used, log = reference_driver(inst, eps)
                where = (inst.weights, eps)
                assert res.solution == solution, where
                assert res.value == value and type(res.value) is type(value), where
                assert res.pivot_used == pivot_used, where
                assert res.per_pivot_log == log, where
                for got, want in zip(res.per_pivot_log, log):
                    assert type(got.original_value) is type(want.original_value), where
                assert fptas_solve(inst, eps).solution == solution, where
                winners = [e.m for e in log if e.original_value == value]
                # the first of several equal-valued pivots wins
                ties += len(winners) > 1 and value < math.inf
                assert pivot_used == (winners[0] if value < math.inf else None), where
                infeasible += value == math.inf
        assert ties > 0 and infeasible > 0


class TestSideCache:
    """The driver shares per-side searches across pivots of equal value."""

    def instances(self):
        rng = random.Random(61)
        for n in (2, 4, 6):
            yield encode_ssr_weights([rng.randint(1, 40) for _ in range(n)])
        yield encode_ssr_weights([7] * 6)
        yield TwoSetInstance.from_pairs([(5, 5)] * 4)
        for r in (1, Fraction(3, 2)):
            yield encode_factor_r_weights([rng.randint(1, 30) for _ in range(5)], r)
        for _ in range(6):
            pairs = random_pairs(rng, rng.randint(2, 6), 15)
            pairs[-1] = (pairs[-1][0], pairs[0][0])  # a value on both sides
            yield TwoSetInstance.from_pairs(pairs)

    @staticmethod
    def symmetric(inst):
        return inst.weights[:inst.n] == inst.weights[inst.n:]

    def test_cached_matches_uncached(self):
        for inst in self.instances():
            for eps in (Fraction(1, 10), Fraction(1, 2)):
                cached = fptas_solve(inst, eps)
                solution, value, pivot_used, _ = reference_driver(inst, eps)
                assert cached.solution == solution, inst.weights
                assert cached.value == value
                assert cached.pivot_used == pivot_used

    def test_no_table_is_built_twice(self, monkeypatch):
        built = []

        class Recording(semi_restricted.DifferenceTable):
            def __init__(self, weights, n, near, pivot_weight, counter=None):
                built.append((tuple(weights), near, pivot_weight))
                super().__init__(weights, n, near, pivot_weight, counter)

        monkeypatch.setattr(semi_restricted, "DifferenceTable", Recording)
        eps = Fraction(1, 4)
        for inst in self.instances():
            built.clear()
            fptas_solve(inst, eps)
            assert built and len(built) == len(set(built)), inst.weights
            if self.symmetric(inst):
                # a side's search mirrors its twin's, so one table per pivot value
                assert len(built) == len(set(inst.weights)), inst.weights
                continue
            # otherwise every (pivot value, side) the pivot value occurs on
            # gets a table when the other side holds a weight at least as large
            expected = set()
            for m in range(1, 2 * inst.n + 1):
                scaled = scale_instance(inst.weights, m, eps)
                v = scaled[m - 1]
                for near in (0, inst.n):
                    far = inst.n - near
                    if v in scaled[near:near + inst.n] and max(scaled[far:far + inst.n]) >= v:
                        expected.add((scaled, near, v))
            assert set(built) == expected, inst.weights

    def test_pivots_that_scale_alike_share_a_table(self, monkeypatch):
        # factor-r [46, 24, 44, 37], r = 5/4: at epsilon 9/10 the pivot values
        # 46 and 185/4 floor to one scaled vector, searched on both sides, so
        # a memo keyed by the weights builds two tables fewer than one memo
        # per pivot value would
        built = []

        class Recording(semi_restricted.DifferenceTable):
            def __init__(self, weights, n, near, pivot_weight, counter=None):
                built.append((tuple(weights), near, pivot_weight))
                super().__init__(weights, n, near, pivot_weight, counter)

        monkeypatch.setattr(semi_restricted, "DifferenceTable", Recording)
        inst = encode_factor_r_weights([46, 24, 44, 37], Fraction(5, 4))
        eps = Fraction(9, 10)
        per_value, per_vector = set(), set()
        for m in range(1, 2 * inst.n + 1):
            scaled = scale_instance(inst.weights, m, eps)
            v = scaled[m - 1]
            for near in (0, inst.n):
                far = inst.n - near
                if v in scaled[near:near + inst.n] and max(scaled[far:far + inst.n]) >= v:
                    per_value.add((inst.weights[m - 1], near))
                    per_vector.add((scaled, near, v))
        res = fptas_solve(inst, eps, collect_log=True)
        assert len(built) == len(per_vector) == len(per_value) - 2
        assert set(built) == per_vector
        solution, value, pivot_used, log = reference_driver(inst, eps)
        assert (res.solution, res.value, res.pivot_used, res.per_pivot_log) == (
            solution, value, pivot_used, log)

    def test_mirrored_sides_match_a_fresh_search(self):
        # on symmetric weights one side of each scaled vector is mirrored
        # from the other (test_no_table_is_built_twice counts the tables);
        # both must equal a search run from scratch, sums and sets
        rng = random.Random(67)
        instances = [encode_ssr_weights([rng.randint(1, 60) for _ in range(rng.randint(2, 7))])
                     for _ in range(8)]
        instances += [encode_ssr_weights([9] * 5), TwoSetInstance.from_pairs([(4, 4)] * 3)]
        instances += [encode_factor_r_weights([rng.randint(1, 25) for _ in range(5)], 1)
                      for _ in range(3)]
        for inst in instances:
            assert self.symmetric(inst)
            for eps in (Fraction(1, 10), Fraction(1, 2)):
                memo: dict = {}
                for m in range(1, 2 * inst.n + 1):
                    scaled = scale_instance(inst.weights, m, eps)
                    exact_solver(scaled, m, memo=memo)
                    assert len(memo[scaled]) == 2
                    for (side, v), result in memo[scaled].items():
                        fresh = semi_restricted._solve_one_side(scaled, inst.n, side, v, None)
                        assert result == fresh, (inst.weights, m, side)


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
                    scaled = scale_instance(weights, m, eps)
                    s1, s2 = exact_solver(scaled, m)
                    if not s1:
                        continue
                    checked += 1
                    if check_pivot_inequalities(weights, eps, m, scaled, s1, s2):
                        hypothesis_held += 1
        assert checked > 0
        # the epsilon/3 regime should be the common case, not a rarity
        assert hypothesis_held >= checked * 9 // 10

    def test_pivot_inequalities_reject_a_wrong_step(self):
        # a vector floored with step 2 * delta, solved as if it were the
        # pivot's scaled weights, fails the checker's own delta
        rng = random.Random(53)
        rejected = 0
        for _ in range(10):
            weights = TwoSetInstance.from_pairs(random_pairs(rng, rng.randint(2, 5), 30)).weights
            count, eps = len(weights), Fraction(1, 4)
            for m in range(1, count + 1):
                step = 2 * eps * weights[m - 1] / (3 * count)
                doubled = tuple(math.floor(w / step) for w in weights)
                s1, s2 = exact_solver(doubled, m)
                if not s1:
                    continue
                with pytest.raises(AssertionError, match="floor sandwich"):
                    check_pivot_inequalities(weights, eps, m, doubled, s1, s2)
                rejected += 1
        assert rejected > 0

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
                scaled = scale_instance(inst.weights, pivot, eps)
                s1, s2 = exact_solver(scaled, pivot)
                assert s1 and s2, "covering pivot must stay feasible after scaling"
                got = scaled_pair_value(scaled, s1, s2)
                ceiling = scaled_pair_value(scaled, opt.best.s1, opt.best.s2)
                assert got <= ceiling


def solve_source(encoded, source, eps):
    """encode -> fptas_solve -> decode, the path `ssratio solve` runs."""
    res = fptas_solve(encoded, eps)
    return res, decode(res.solution, source, encoded.n)


class TestConvenienceFrontends:
    def test_ssr_examples(self):
        res, dec = solve_source(encode_ssr_weights([2, 2]), "ssr", Fraction(1, 10))
        assert res.value == 1
        assert len(dec.s1) == 1 and len(dec.s2) == 1

        res, dec = solve_source(encode_ssr_weights([1, 2, 3]), "ssr", Fraction(1, 10))
        assert res.value == 1
        assert {dec.s1, dec.s2} == {frozenset({3}), frozenset({1, 2})}

        res, dec = solve_source(encode_ssr_weights([1]), "ssr", Fraction(1, 2))
        assert res.status == "infeasible" and not dec.s1

    def test_ssr_accepts_rational_weights(self):
        res = fptas_solve(encode_ssr_weights(["1/2", "1/4", "3/4"]), Fraction(1, 10))
        assert res.value == 1

    def test_ratio_past_float_range_stays_exact(self):
        res = fptas_solve(encode_ssr_weights(["1e400", 1]), Fraction(1, 2))
        assert res.value == 10**400 and type(res.value) is Fraction
        assert res.value < math.inf

    def test_factor_r_example(self):
        res, dec = solve_source(encode_factor_r_weights([1, 1], 2), "factor-r", Fraction(1, 10))
        assert res.value == 2
        assert dec.r_multiplied in ("s1", "s2")

    def test_factor_one_matches_ssr(self):
        rng = random.Random(47)
        for _ in range(10):
            weights = [rng.randint(1, 15) for _ in range(rng.randint(1, 5))]
            eps = Fraction(1, 4)
            factor = fptas_solve(encode_factor_r_weights(weights, 1), eps)
            ssr = fptas_solve(encode_ssr_weights(weights), eps)
            assert factor.value == ssr.value
            assert factor.dp_cell_ops == ssr.dp_cell_ops


class TestClosedFormOptima:
    """Known optima beyond the oracle's size cap."""

    @pytest.mark.parametrize("n", [16, 20, 24])
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 4)])
    def test_powers_of_two(self, n, eps):
        # distinct subset sums: the best pair is {2^(n-1)} against all the rest
        top = 2 ** (n - 1)
        optimum = Fraction(top, top - 1)
        res, dec = solve_source(encode_ssr_weights([2**k for k in range(n)]), "ssr", eps)
        assert optimum <= res.value <= (1 + eps) * optimum
        assert dec.s1

    def test_all_equal_weights(self):
        res = fptas_solve(encode_ssr_weights([7] * 30), Fraction(1, 4))
        assert res.value == 1
