"""Brute-force oracle tests: worked examples, structural properties."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ssratio import (
    SolutionPair,
    TwoSetInstance,
    brute_force_factor_r,
    brute_force_semi_restricted,
    brute_force_ssr,
    brute_force_two_set,
    check_feasible_semi_restricted,
    check_feasible_two_set,
    scale_instance,
    semi_restricted_optima_by_value,
)
from conftest import random_pairs


def inst(pairs):
    return TwoSetInstance.from_pairs(pairs)


class TestTwoSet:
    def test_worked_instance(self):
        res = brute_force_two_set(inst([(5, 4), (3, 6)]))
        assert res.best is not None
        assert (sorted(res.best.s1), sorted(res.best.s2)) == ([1], [4])
        assert res.optimum == Fraction(6, 5)

    def test_single_pair_is_infeasible(self):
        res = brute_force_two_set(inst([(2, 2)]))
        assert res.best is None
        assert res.optimum == math.inf

    def test_uniform_weights(self):
        res = brute_force_two_set(inst([(2, 2), (2, 2)]))
        assert res.optimum == 1

    def test_size_cap(self):
        big = inst([(1, 1)] * 15)
        with pytest.raises(ValueError):
            brute_force_two_set(big)
        with pytest.raises(ValueError):
            brute_force_two_set(inst([(1, 1)] * 3), max_n=2)

    def test_deterministic_tie_break(self):
        # all ratio-1 solutions tie; smallest, lexicographically first wins
        res = brute_force_two_set(inst([(2, 2), (2, 2)]))
        assert (sorted(res.best.s1), sorted(res.best.s2)) == ([1], [4])
        again = brute_force_two_set(inst([(2, 2), (2, 2)]))
        assert res == again


class TestSemiRestricted:
    def test_pivot_one(self):
        res = brute_force_semi_restricted(inst([(5, 4), (3, 6)]), 1)
        assert (sorted(res.best.s1), sorted(res.best.s2)) == ([1], [4])
        assert res.optimum == Fraction(6, 5)

    def test_pivot_two(self):
        res = brute_force_semi_restricted(inst([(5, 4), (3, 6)]), 2)
        assert (sorted(res.best.s1), sorted(res.best.s2)) == ([2], [3])
        assert res.optimum == Fraction(4, 3)

    def test_heavy_element_forces_substitute(self):
        res = brute_force_semi_restricted(inst([(2, 100), (2, 1)]), 1)
        assert (sorted(res.best.s1), sorted(res.best.s2)) == ([2], [3])
        assert res.optimum == 50

    def test_pivot_range(self):
        with pytest.raises(ValueError):
            brute_force_semi_restricted(inst([(1, 1)]), 3)


class TestStructuralProperties:
    def battery(self):
        rng = random.Random(4242)
        return [random_pairs(rng, rng.randint(1, 6), 25) for _ in range(40)]

    def test_result_invariant_and_subsumption(self):
        for pairs in self.battery():
            instance = inst(pairs)
            for m in range(1, 2 * instance.n + 1):
                res = brute_force_semi_restricted(instance, m)
                if res.best is None:
                    assert res.optimum == math.inf
                    continue
                # optimum matches the pair, and the pair is feasible at both levels
                assert res.optimum == res.best.value()
                assert check_feasible_semi_restricted(res.best, instance, m)
                assert check_feasible_two_set(res.best, instance.n)

    def test_cover_over_pivots(self):
        for pairs in self.battery():
            instance = inst(pairs)
            overall = brute_force_two_set(instance)
            if overall.best is None:
                continue
            per_pivot = [
                brute_force_semi_restricted(instance, m).optimum
                for m in range(1, 2 * instance.n + 1)
            ]
            assert min(per_pivot) == overall.optimum

    def test_monotone_scaling_keeps_feasibility(self):
        # floor maps preserve weight order weakly, so a two-set-feasible
        # solution stays feasible for the pivot realising its smaller maximum
        for pairs in self.battery()[:15]:
            instance = inst(pairs)
            overall = brute_force_two_set(instance)
            if overall.best is None:
                continue
            best = overall.best
            max1 = max(instance.weight(i) for i in best.s1)
            max2 = max(instance.weight(j) for j in best.s2)
            min_of_maxes = min(max1, max2)
            pivot = next(
                i for i in range(1, 2 * instance.n + 1) if instance.weight(i) == min_of_maxes
            )
            # scale around the overall minimum weight so no weight floors to 0
            anchor = min(range(1, 2 * instance.n + 1), key=instance.weight)
            n = instance.n
            for eps in (Fraction(1, 3), Fraction(4, 5)):
                ctx = scale_instance(instance.weights, anchor, eps)
                assert all(v >= 1 for v in ctx.scaled)
                mapped = TwoSetInstance.from_pairs(zip(ctx.scaled[:n], ctx.scaled[n:]))
                mapped_sol = SolutionPair.from_sets(ctx.scaled, best.s1, best.s2)
                assert check_feasible_semi_restricted(mapped_sol, mapped, pivot)

    def test_by_value_matches_per_pivot(self):
        for pairs in self.battery()[:20]:
            instance = inst(pairs)
            table = semi_restricted_optima_by_value(instance)
            for m in range(1, 2 * instance.n + 1):
                direct = brute_force_semi_restricted(instance, m)
                from_table = table.get(instance.weight(m))
                if from_table is None:
                    assert direct.best is None
                else:
                    assert direct == from_table


class TestSourceProblems:
    def test_ssr_examples(self):
        assert brute_force_ssr([1, 2, 3]).optimum == 1
        assert brute_force_ssr([2, 2]).optimum == 1
        assert brute_force_ssr([1]).best is None

    def test_ssr_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            brute_force_ssr([0, 1])

    def test_factor_r_examples(self):
        res = brute_force_factor_r([1, 1], 2)
        assert res.optimum == 2
        assert brute_force_factor_r([1, 2], 2).optimum == 1

    def test_factor_one_matches_ssr(self):
        rng = random.Random(11)
        for _ in range(20):
            weights = [rng.randint(1, 20) for _ in range(rng.randint(1, 6))]
            assert brute_force_factor_r(weights, 1).optimum == brute_force_ssr(weights).optimum

    def test_factor_r_rejects_small_r(self):
        with pytest.raises(ValueError):
            brute_force_factor_r([1, 2], Fraction(1, 2))
