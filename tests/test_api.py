"""The package's public names.

Pinned so that an export only tests use cannot come back unnoticed: adding
or removing a name means editing this list on purpose.
"""

from __future__ import annotations

import ssratio
from ssratio import core, fptas, oracle, reductions, semi_restricted

MODULES = (core, fptas, oracle, reductions, semi_restricted)


def test_public_names_are_pinned():
    assert sorted(ssratio.__all__) == [
        "ApproxResult",
        "DEFAULT_SIZE_CAP",
        "DecodedSolution",
        "DifferenceTable",
        "OpCounter",
        "OracleResult",
        "PivotLog",
        "SolutionPair",
        "TwoSetInstance",
        "brute_force_factor_r",
        "brute_force_semi_restricted",
        "brute_force_two_set",
        "check_feasible_semi_restricted",
        "check_feasible_two_set",
        "decode",
        "encode_factor_r_weights",
        "encode_ssr_weights",
        "exact_solver",
        "fptas_solve",
        "parse_rational",
        "scale_instance",
        "scaled_pair_value",
        "semi_restricted_optima_by_value",
    ]
    assert all(hasattr(ssratio, name) for name in ssratio.__all__)


def test_module_export_lists_make_up_the_package_list():
    # each module's __all__ is the one statement of its public names
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(names) == set(ssratio.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ssratio, name) is getattr(module, name), (module.__name__, name)
