"""Subset-sum ratio solver toolkit.

Exact pseudo-polynomial solver for the pivoted two-set ratio problem, a
generic FPTAS driver on top of it, reductions that route the plain and
factor-r variants through the same engine, and brute-force oracles for
verification.  All arithmetic is exact, on fractions.Fraction values.

One entry per concept: scale_instance (one pivot's scaled weights),
exact_solver (one pivot), fptas_solve (two-set), encode_*_weights and
decode (source problems), brute_force_factor_r (the SSR oracle at r = 1).
DifferenceTable inspects one side search's table; the scaling-lemma
checkers are test code (tests/scaling_checks.py), not package API.
"""

from .core import (
    OpCounter,
    SolutionPair,
    TwoSetInstance,
    check_feasible_semi_restricted,
    check_feasible_two_set,
    parse_rational,
)
from .oracle import (
    DEFAULT_SIZE_CAP,
    OracleResult,
    brute_force_factor_r,
    brute_force_semi_restricted,
    brute_force_two_set,
    semi_restricted_optima_by_value,
)
from .semi_restricted import (
    DifferenceTable,
    exact_solver,
)
from .fptas import (
    ApproxResult,
    PivotLog,
    fptas_solve,
    scale_instance,
    scaled_pair_value,
)
from .reductions import (
    DecodedSolution,
    decode,
    encode_factor_r_weights,
    encode_ssr_weights,
)

__version__ = "0.1.0"

__all__ = [
    "OpCounter",
    "SolutionPair",
    "TwoSetInstance",
    "check_feasible_semi_restricted",
    "check_feasible_two_set",
    "parse_rational",
    "DEFAULT_SIZE_CAP",
    "OracleResult",
    "brute_force_factor_r",
    "brute_force_semi_restricted",
    "brute_force_two_set",
    "semi_restricted_optima_by_value",
    "DifferenceTable",
    "exact_solver",
    "ApproxResult",
    "PivotLog",
    "fptas_solve",
    "scale_instance",
    "scaled_pair_value",
    "DecodedSolution",
    "decode",
    "encode_factor_r_weights",
    "encode_ssr_weights",
]
