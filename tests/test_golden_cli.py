"""Golden CLI documents: `solve --trace` and `oracle` must keep writing these.

`golden_cli.json` holds eighteen seeded two-set, ssr and factor-r instance
files (one infeasible file of each kind, some with rational weights), each
with the exit code and JSON document of `solve --trace` at one epsilon and
of `oracle`.  `stats` is left out, so a change that only makes the solver
cheaper must reproduce the file unchanged; a change that alters an output
must say why and regenerate it with `python tests/test_golden_cli.py`.
Every stored document also passes `check`, and fails it once any field but
`trace` is edited or deleted.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from ssratio.cli import main

FIXTURE = Path(__file__).with_name("golden_cli.json")
EPSILONS = ("1/10", "1/4", "1/2", "9/10")


def _weight(rng: random.Random, top: int, rational: bool) -> int | str:
    if not rational:
        return rng.randint(1, top)
    return f"{rng.randint(1, top)}/{rng.randint(1, 7)}" if rng.random() < 0.7 else "2.5"


def _instances() -> list[dict]:
    """The seeded instance files the fixture was generated from."""
    rng = random.Random(0xC11)
    cases: list[dict] = [
        {"format": 1, "problem": "two-set", "pairs": [[1, 1]]},
        {"format": 1, "problem": "ssr", "weights": ["3/2"]},
        {"format": 1, "problem": "factor-r", "weights": [4], "r": "5/4"},
    ]
    for k in range(15):
        problem = ("two-set", "ssr", "factor-r")[k % 3]
        n = rng.randint(2, 7)
        top = rng.choice((6, 40, 1000))
        rational = k % 4 == 1
        doc: dict = {"format": 1, "problem": problem}
        if problem == "two-set":
            doc["pairs"] = [[_weight(rng, top, rational), _weight(rng, top, rational)]
                            for _ in range(n)]
        else:
            doc["weights"] = [_weight(rng, top, rational) for _ in range(n)]
        if problem == "factor-r":
            doc["r"] = rng.choice(("1", "5/4", "3/2", "2"))
        cases.append(doc)
    return cases


def _run(*argv: str) -> tuple[int, dict]:
    """Exit code and stdout document of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())


def run_case(index: int, case: dict, workdir: Path) -> dict:
    """The fixture record of one instance file, stats left out."""
    inst = workdir / f"case{index}.json"
    inst.write_text(json.dumps(case) + "\n", encoding="utf-8")
    epsilon = EPSILONS[index % len(EPSILONS)]
    record: dict = {"instance": case, "epsilon": epsilon}
    for name, argv in (("solve", ("solve", str(inst), "--epsilon", epsilon, "--trace")),
                       ("oracle", ("oracle", str(inst)))):
        code, doc = _run(*argv)
        doc.pop("stats")
        record[name] = {"exit": code, "doc": doc}
    return record


def generate() -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return [run_case(k, case, Path(tmp)) for k, case in enumerate(_instances())]


def _stats(name: str, record: dict) -> dict:
    """Stats that `check` accepts for a stored document."""
    if name == "oracle":
        return {"pivots_evaluated": 0, "dp_cell_ops": 0}
    pairs = record["instance"].get("pairs") or record["instance"]["weights"]
    return {"pivots_evaluated": 2 * len(pairs), "dp_cell_ops": 0}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("index", range(len(_instances())))
def test_golden_cli_documents(golden, index, tmp_path, capsys):
    want = golden[index]
    assert want["instance"] == _instances()[index]
    assert run_case(index, want["instance"], tmp_path) == want
    inst = tmp_path / f"case{index}.json"
    for name in ("solve", "oracle"):
        doc = dict(want[name]["doc"], stats=_stats(name, want))
        sol = tmp_path / f"{name}.json"
        sol.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(inst), str(sol)]) == 0, (name, capsys.readouterr().err)
        # every field but the uncertified trace is certified: editing or deleting it fails
        for field in sorted(doc.keys() - {"trace"}):
            rest = {k: v for k, v in doc.items() if k != field}
            for edited in (dict(rest, **{field: "edited"}), rest):
                sol.write_text(json.dumps(edited))
                assert main(["check", str(inst), str(sol)]) == 1, (name, field, edited)


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in generate())
    FIXTURE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
