"""The package's public names.

Pinned so that an export only tests use cannot come back unnoticed: adding
or removing a name means editing this list on purpose.
"""

from __future__ import annotations

import ssratio


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
