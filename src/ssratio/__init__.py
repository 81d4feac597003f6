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
Each module's `__all__` is the one list of its public names; the package
exports exactly their union.
"""

from . import core, fptas, oracle, reductions, semi_restricted
from .core import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .semi_restricted import *  # noqa: F401,F403
from .fptas import *  # noqa: F401,F403
from .reductions import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = core.__all__ + oracle.__all__ + semi_restricted.__all__ + fptas.__all__ + reductions.__all__
