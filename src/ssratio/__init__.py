"""Subset-sum ratio solver toolkit.

Exact pseudo-polynomial solver for the pivoted two-set ratio problem, a
generic FPTAS driver on top of it, reductions that route the plain and
factor-r variants through the same engine, and brute-force oracles for
verification.  All solver arithmetic is exact-rational.
"""

from .core import (
    Fraction,
    IntegerInstance,
    OpCounter,
    RatioValue,
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
    solve_semi_restricted,
)
from .fptas import (
    ApproxResult,
    ExactSolver,
    PivotLog,
    ScaleContext,
    check_optimum_scaling,
    check_pivot_inequalities,
    fptas_solve,
    scale_instance,
    scaled_pair_value,
    solve_factor_r,
    solve_ssr,
)
from .reductions import (
    DecodedSolution,
    FactorRInstance,
    SsrInstance,
    decode,
    encode_factor_r,
    encode_factor_r_weights,
    encode_ssr,
    encode_ssr_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Fraction",
    "IntegerInstance",
    "OpCounter",
    "RatioValue",
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
    "solve_semi_restricted",
    "ApproxResult",
    "ExactSolver",
    "PivotLog",
    "ScaleContext",
    "check_optimum_scaling",
    "check_pivot_inequalities",
    "fptas_solve",
    "scale_instance",
    "scaled_pair_value",
    "solve_factor_r",
    "solve_ssr",
    "DecodedSolution",
    "FactorRInstance",
    "SsrInstance",
    "decode",
    "encode_factor_r",
    "encode_factor_r_weights",
    "encode_ssr",
    "encode_ssr_weights",
]
