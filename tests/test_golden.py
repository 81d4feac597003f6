"""Golden solutions: the solver must keep returning exactly these answers.

`golden_solutions.json` holds about thirty seeded two-set, ssr and
factor-r instances, each solved at epsilon 1/10, 1/4 and 1/2: the decoded
sets, the exact ratio and the pivot used.  Cell counts are left out, so a
change that only makes the solver cheaper must reproduce the file
unchanged; a change that alters answers must say why and regenerate it
with `python tests/test_golden.py`.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ssratio import (
    TwoSetInstance,
    decode,
    encode_factor_r_weights,
    encode_ssr_weights,
    fptas_solve,
)

FIXTURE = Path(__file__).with_name("golden_solutions.json")
EPSILONS = ("1/10", "1/4", "1/2")


def _instances() -> list[dict]:
    """The seeded instances the fixture was generated from."""
    rng = random.Random(0x601D)
    cases: list[dict] = []
    for k in range(10):
        n = rng.randint(2, 9)
        top = rng.choice((6, 50, 1000))
        pairs = [[rng.randint(1, top), rng.randint(1, top)] for _ in range(n)]
        if k % 3 == 0:  # share values across sides, so pivots repeat by value
            pairs[-1][1] = pairs[0][0]
        cases.append({"problem": "two-set", "pairs": pairs})
    for k in range(10):
        n = rng.randint(2, 7)
        weights = [rng.randint(1, 1000 if k % 2 else 12) for _ in range(n)]
        if k == 0:
            weights = [7] * 6
        cases.append({"problem": "ssr", "weights": weights})
    for k in range(10):
        n = rng.randint(2, 7)
        weights = [rng.randint(1, 1000 if k % 2 else 12) for _ in range(n)]
        r = rng.choice(("1", "5/4", "3/2", "2"))
        cases.append({"problem": "factor-r", "weights": weights, "r": r})
    return cases


def solve_case(case: dict, epsilon: str) -> dict:
    """The fixture record of one (instance, epsilon) solve."""
    if case["problem"] == "two-set":
        inst = TwoSetInstance.from_pairs(case["pairs"])
    elif case["problem"] == "ssr":
        inst = encode_ssr_weights(case["weights"])
    else:
        inst = encode_factor_r_weights(case["weights"], case["r"])
    result = fptas_solve(inst, Fraction(epsilon))
    record = {"epsilon": epsilon, "pivot_used": result.pivot_used, "ratio": str(result.value)}
    if case["problem"] == "two-set":
        record["s1"], record["s2"] = sorted(result.solution.s1), sorted(result.solution.s2)
    else:
        dec = decode(result.solution, case["problem"], inst.n)
        record["s1"], record["s2"] = sorted(dec.s1), sorted(dec.s2)
        record["r_multiplied"] = dec.r_multiplied
    return record


def generate() -> list[dict]:
    return [dict(case, solutions=[solve_case(case, eps) for eps in EPSILONS])
            for case in _instances()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(_instances())))
def test_golden_solution(golden, index):
    entry = golden[index]
    case = {key: value for key, value in entry.items() if key != "solutions"}
    assert case == _instances()[index]
    for want in entry["solutions"]:
        assert solve_case(case, want["epsilon"]) == want, (case, want["epsilon"])


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in generate())
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
