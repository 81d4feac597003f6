"""Shared fixtures: seeded instance batteries reused across test modules."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ssratio import TwoSetInstance


def random_pairs(rng: random.Random, n: int, weight_max: int) -> list[tuple[int, int]]:
    return [(rng.randint(1, weight_max), rng.randint(1, weight_max)) for _ in range(n)]


GUARANTEE_EPSILONS = (
    Fraction(1, 10),
    Fraction(3, 10),
    Fraction(1, 2),
    Fraction(9, 10),
)


@pytest.fixture(scope="session")
def exactness_battery() -> list[list[tuple[int, int]]]:
    """500 instances, n in 2..7, weights in [1, 30]."""
    rng = random.Random(0xA11CE)
    return [random_pairs(rng, rng.randint(2, 7), 30) for _ in range(500)]


@pytest.fixture(scope="session")
def guarantee_battery() -> list[list[tuple[int, int]]]:
    """200 instances, n in 1..7, weights in [1, 40]."""
    rng = random.Random(0xB0B)
    return [random_pairs(rng, rng.randint(1, 7), 40) for _ in range(200)]


@pytest.fixture(scope="session")
def dp_battery() -> list[list[tuple[int, int]]]:
    """60 instances, n in 1..6, small weights (keeps tables inspectable)."""
    rng = random.Random(0xD0)
    return [random_pairs(rng, rng.randint(1, 6), 12) for _ in range(60)]


def occupied(table, row: int, diff: int, has_pivot_value: bool, has_heavy: bool) -> bool:
    """Whether a DifferenceTable keeps a pair at this cell.  A cell whose
    flags no later row can complete to both flags reads unoccupied even when
    some pair reaches it, and so does a cell its window cut off."""
    return table._cell(row, 2 * has_pivot_value | has_heavy, table._column(diff)) >= 0


def as_instance(pairs: list[tuple[int, int]]) -> TwoSetInstance:
    return TwoSetInstance.from_pairs(pairs)
