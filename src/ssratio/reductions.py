"""Encodings of the plain and factor-r ratio problems as two-set instances.

Plain subset-sum ratio over weights (a_1..a_n) becomes the pair instance
((a_i, a_i)): a pair may not contribute to both sets, which is exactly
disjointness of the source sets, and sums are unchanged, so the optima
coincide.  Factor-r uses pairs (a_i, r*a_i): a second-side set's sum is
already the r-multiplied sum of its base set, so again the objective
carries over unchanged.  Decoding maps flattened indices back to base
indices, of two-set solutions too, and, for factor-r, reports which
decoded set plays the r-multiplied role (the solver may return either
orientation).
A source problem is solved by encode_*_weights, fptas_solve on the pair
instance, then decode of its solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    RationalLike,
    SolutionPair,
    TwoSetInstance,
    check_feasible_two_set,
    parse_rational,
)

__all__ = [
    "DecodedSolution",
    "encode_ssr_weights",
    "encode_factor_r_weights",
    "decode",
]


@dataclass(frozen=True)
class DecodedSolution:
    """Solution mapped back to base indices."""

    s1: frozenset[int]
    s2: frozenset[int]
    r_multiplied: str | None = None  # "s1" or "s2" for factor-r sources

    def __post_init__(self) -> None:
        if self.s1 & self.s2:
            raise ValueError("decoded sets must be disjoint")
        if bool(self.s1) != bool(self.s2):
            raise ValueError("decoded sets must be both empty or both nonempty")

    @property
    def is_empty(self) -> bool:
        return not self.s1 and not self.s2


def encode_ssr_weights(weights: Sequence[RationalLike]) -> TwoSetInstance:
    """Pair encoding ((w_i, w_i)) for arbitrary positive rational weights."""
    return TwoSetInstance.from_pairs((v, v) for v in map(parse_rational, weights))


def encode_factor_r_weights(weights: Sequence[RationalLike], r: RationalLike) -> TwoSetInstance:
    """Pair encoding ((w_i, r*w_i)); second-side sums carry the factor."""
    factor = parse_rational(r)
    if factor < 1:
        raise ValueError("factor r must be >= 1")
    return TwoSetInstance.from_pairs((v, factor * v) for v in map(parse_rational, weights))


def decode(sol: SolutionPair, source: str, n: int) -> DecodedSolution:
    """Map an encoded solution back to base indices of the source problem,
    "two-set", "ssr" or "factor-r".

    The source objective is the encoded pair's own ``sol.value()``: its
    cached sums already include the factor for factor-r.  An empty pair
    decodes to an empty (infeasible) solution; any other pair that is not
    a feasible two-set solution for n pairs raises ValueError.
    """
    if source not in ("two-set", "ssr", "factor-r"):
        raise ValueError(f"unknown source problem: {source!r}")
    if sol.is_empty:
        return DecodedSolution(frozenset(), frozenset())
    if not check_feasible_two_set(sol, n):
        raise ValueError("encoded solution is not a feasible two-set solution")
    s1, s2 = (frozenset((i - 1) % n + 1 for i in enc) for enc in (sol.s1, sol.s2))
    r_multiplied = None
    if source == "factor-r":  # the set drawn from the second side carries r
        r_multiplied = "s1" if max(sol.s1) > n else "s2"
    return DecodedSolution(s1, s2, r_multiplied)
