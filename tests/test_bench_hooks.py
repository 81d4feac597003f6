"""The benchmark tracer's view of the package stays valid.

perfbench/tracing.py wraps ssratio callables by module and attribute name
and reads the `counter` argument at fixed positions.  A refactor that
renames a target or moves `counter` would only surface in a benchmark
run; these checks make it fail the test suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from ssratio import DifferenceTable, OpCounter, TwoSetInstance, cli, fptas_solve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name, class_name, attr):
    owner = importlib.import_module(f"ssratio.{module_name}")
    if class_name is not None:
        owner = getattr(owner, class_name)
        assert attr in vars(owner), f"{module_name}.{class_name}.{attr} missing"
        found = vars(owner)[attr]
        return found.__func__ if isinstance(found, classmethod) else found
    assert hasattr(owner, attr), f"{module_name}.{attr} missing"
    return getattr(owner, attr)


def hooked(name):
    """The callable behind a dotted hook name: module[.class].attr."""
    parts = name.split(".")
    return target(parts[0], parts[1] if len(parts) == 3 else None, parts[-1])


def test_every_target_exists(tracing):
    for module_name, class_name, attr in tracing.TARGETS:
        assert callable(target(module_name, class_name, attr))


def test_counter_hooks_read_the_counter_argument(tracing):
    table = DifferenceTable((5, 3, 4, 6), 2, 0, 5)
    checked = 0
    for name, (before, after) in tracing._HOOKS.items():
        params = list(inspect.signature(hooked(name)).parameters)
        if before is None or "counter" not in params:
            continue
        counter = OpCounter()
        counter.cells = 7
        args = [None] * len(params)
        args[params.index("counter")] = counter
        if params[0] == "self":
            args[0] = table
        info = {}
        before(tuple(args), {}, info)
        assert info["c0"] == 7, name
        counter.cells = 10
        after(tuple(args), {}, None, info)
        assert info["cells"] == 3, name
        checked += 1
    assert checked == 2


def test_result_hooks_read_existing_fields(tracing):
    _, fptas_after = tracing._HOOKS["fptas.fptas_solve"]
    inst = TwoSetInstance.from_pairs([(5, 4), (3, 6)])
    info = {}
    fptas_after((inst, "1/2"), {}, fptas_solve(inst, "1/2"), info)
    assert info["pivots"] == 4
    oracle_before, _ = tracing._HOOKS["oracle.brute_force_two_set"]
    info = {}
    oracle_before((inst,), {}, info)
    assert info["states"] == 9


@pytest.mark.parametrize("doc", [
    {"format": 1, "problem": "ssr", "weights": [3, 5, 7, 5, 9]},
    {"format": 1, "problem": "two-set", "pairs": [[5, 4], [3, 6], [5, 7]]},
])
def test_traced_solve_keeps_the_benchmark_invariants(tracing, tmp_path, doc):
    # what `perfbench/run.py --trace 1` asserts of every traced case; a
    # repeated weight makes pivots share a search but not a scale_instance call
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc), encoding="utf-8")

    def solve(name):
        out = tmp_path / name
        assert cli.main(["solve", str(inst), "--epsilon", "1/4", "--output", str(out)]) == 0
        return out.read_bytes()

    plain = solve("plain.sol.json")
    tracer = tracing.Tracer()
    tracer.instance = "case"
    with tracer.installed(), tracer.span("request.solve"):
        traced = solve("traced.sol.json")
    assert traced == plain
    stats = json.loads(plain)["stats"]
    metrics = tracing.layer_metrics(tracer.spans, {"case": doc["problem"]})
    assert metrics["fptas.scale_calls"][0] == stats["pivots_evaluated"]
    assert metrics["semi_restricted.cells"][0] == stats["dp_cell_ops"] > 0


def test_check_scales_no_pivot(tracing, tmp_path):
    # a traced run counts every scale_instance call as a solver pivot, so
    # `check` tests the pivot claim without calling it
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"format": 1, "problem": "ssr", "weights": [3, 5, 7, 5, 9]}))
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", str(inst), "--epsilon", "1/4", "--output", str(sol)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["check", str(inst), str(sol)]) == 0
    names = {span[1] for span in tracer.spans}
    assert "cli.verify_solution" in names
    assert "fptas.scale_instance" not in names
