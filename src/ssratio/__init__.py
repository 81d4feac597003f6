"""Subset-sum ratio solver toolkit.

Exact pseudo-polynomial solver for the pivoted two-set ratio problem, a
generic FPTAS driver on top of it, reductions that route the plain and
factor-r variants through the same engine, and brute-force oracles for
verification.  All solver arithmetic is exact-rational.

One entry per concept: exact_solver (one pivot), fptas_solve (two-set),
encode_ssr_weights/encode_factor_r_weights and decode (source problems).
"""

from .core import (
    Fraction,
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
    brute_force_ssr,
    brute_force_two_set,
    semi_restricted_optima_by_value,
)
from .semi_restricted import (
    DifferenceTable,
    DpCell,
    exact_solver,
)
from .fptas import (
    ApproxResult,
    PivotLog,
    ScaleContext,
    check_optimum_scaling,
    check_pivot_inequalities,
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
    "Fraction",
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
    "brute_force_ssr",
    "brute_force_two_set",
    "semi_restricted_optima_by_value",
    "DifferenceTable",
    "DpCell",
    "exact_solver",
    "ApproxResult",
    "PivotLog",
    "ScaleContext",
    "check_optimum_scaling",
    "check_pivot_inequalities",
    "fptas_solve",
    "scale_instance",
    "scaled_pair_value",
    "DecodedSolution",
    "decode",
    "encode_factor_r_weights",
    "encode_ssr_weights",
]
