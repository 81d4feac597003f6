"""Encoding/decoding tests for the plain and factor-r reductions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ssratio import (
    SolutionPair,
    TwoSetInstance,
    brute_force_factor_r,
    brute_force_ssr,
    brute_force_two_set,
    decode,
    encode_factor_r_weights,
    encode_ssr_weights,
)


class TestEncode:
    def test_ssr_duplicates_weights(self):
        enc = encode_ssr_weights([2, 3])
        assert enc.weights == (2, 3, 2, 3)

    def test_ssr_optimum_carries_over(self):
        enc = encode_ssr_weights([1, 2, 3])
        assert brute_force_two_set(enc).optimum == 1

    def test_ssr_single_weight_infeasible_both_ways(self):
        enc = encode_ssr_weights([1])
        assert brute_force_two_set(enc).best is None
        assert brute_force_ssr([1]).best is None

    def test_factor_r_weights(self):
        enc = encode_factor_r_weights([1, 1], 2)
        assert enc.weights == (1, 1, 2, 2)
        assert brute_force_two_set(enc).optimum == 2

    def test_factor_r_exact_match(self):
        enc = encode_factor_r_weights([1, 2], 2)
        assert brute_force_two_set(enc).optimum == 1

    def test_factor_one_is_plain_encoding(self):
        weights = (3, 5, 9)
        assert encode_factor_r_weights(weights, 1) == encode_ssr_weights(weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_factor_r_weights([1, 2], Fraction(1, 2))
        with pytest.raises(ValueError):
            encode_ssr_weights([1, 0])
        with pytest.raises(ValueError):
            encode_ssr_weights([])


class TestDecode:
    def test_ssr_index_mapping(self):
        sol = SolutionPair.from_sets([2, 3, 2, 3], {1}, {4})
        for source in ("ssr", "two-set"):
            dec = decode(sol, source, 2)
            assert (dec.s1, dec.s2) == (frozenset({1}), frozenset({2}))
            assert dec.r_multiplied is None

    def test_factor_r_labels_scaled_set(self):
        enc = encode_factor_r_weights([1, 1], 2)
        best = brute_force_two_set(enc).best
        dec = decode(best, "factor-r", 2)
        scaled_set = dec.s1 if dec.r_multiplied == "s1" else dec.s2
        plain_set = dec.s2 if dec.r_multiplied == "s1" else dec.s1
        # recompute the source objective from the decoded sets
        scaled_sum = 2 * sum(1 for _ in scaled_set)
        plain_sum = sum(1 for _ in plain_set)
        assert Fraction(max(scaled_sum, plain_sum), min(scaled_sum, plain_sum)) == 2

    def test_empty_passes_through(self):
        dec = decode(SolutionPair.empty(), "factor-r", 3)
        assert dec.is_empty

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decode(SolutionPair.from_sets([1, 1, 1, 1], {1, 3}, {4}), "ssr", 2)
        with pytest.raises(ValueError):
            decode(SolutionPair.from_sets([1, 1, 1, 1], {1}, {2}), "ssr", 2)
        with pytest.raises(ValueError):
            decode(SolutionPair.from_sets([1, 1], {1}, {2}), "nope", 1)


class TestEquivalence:
    def test_ssr_reduction_matches_direct_brute_force(self):
        rng = random.Random(61)
        for _ in range(60):
            weights = [rng.randint(1, 30) for _ in range(rng.randint(1, 7))]
            direct = brute_force_ssr(weights)
            encoded = brute_force_two_set(encode_ssr_weights(weights))
            assert direct.optimum == encoded.optimum

    def test_factor_r_reduction_matches_direct_brute_force(self):
        rng = random.Random(67)
        for r in (Fraction(1), Fraction(3, 2), Fraction(2)):
            for _ in range(20):
                weights = [rng.randint(1, 30) for _ in range(rng.randint(1, 6))]
                direct = brute_force_factor_r(weights, r)
                encoded = brute_force_two_set(encode_factor_r_weights(weights, r))
                assert direct.optimum == encoded.optimum

    def test_round_trip_value_equality_and_disjointness(self):
        rng = random.Random(71)
        for _ in range(30):
            weights = tuple(rng.randint(1, 20) for _ in range(rng.randint(2, 6)))
            r = rng.choice((Fraction(1), Fraction(3, 2), Fraction(2)))
            enc = encode_factor_r_weights(weights, r)
            res = brute_force_two_set(enc)
            if res.best is None:
                continue
            dec = decode(res.best, "factor-r", len(weights))
            # the source objective of the decoded sets is the encoded value
            sum1 = Fraction(sum(weights[i - 1] for i in dec.s1))
            sum2 = Fraction(sum(weights[j - 1] for j in dec.s2))
            sum1, sum2 = (sum1 * r, sum2) if dec.r_multiplied == "s1" else (sum1, sum2 * r)
            assert max(sum1, sum2) / min(sum1, sum2) == res.best.value()
            assert not dec.s1 & dec.s2


class TestInstanceTypes:
    def test_encoded_weights_stay_exact(self):
        enc = encode_factor_r_weights([3], Fraction(3, 2))
        assert enc.weights == (3, Fraction(9, 2))
        assert isinstance(enc, TwoSetInstance)
