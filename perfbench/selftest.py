"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the tracer puts every wrapped ssratio callable back, also
when the traced block raises, and that two traced runs of one seed agree
with each other and with the plain run on every count.  Exits 1 on any
failure.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTS = ("semi_restricted.cells", "semi_restricted.tables_built",
          "semi_restricted.tables_distinct", "fptas.pivots", "fptas.exact_calls",
          "fptas.scale_calls", "oracle.states")
# Small prefixes keep the self-test under a minute.
PREFIX = {"small_cli": 24, "ssr_factor": 6, "twoset_large": 1}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def bindings() -> dict:
    """Every ssratio module and class attribute, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ssratio" or name.startswith("ssratio.")):
            snap.update({(name, key): id(value) for key, value in vars(mod).items()})
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    snap.update({(name, key, attr): id(v) for attr, v in vars(value).items()})
    return snap


def check_restore(cli) -> None:
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = bindings()
        expect(getattr(cli.fptas_solve, "__wrapped__", None) is not None,
               "cli.fptas_solve is not wrapped")
    changed = {key for key in before if during.get(key) != before[key]}
    expect(len(changed) >= len(tracing.TARGETS), f"only {len(changed)} bindings were wrapped")
    expect(bindings() == before, "tracer left wrapped callables behind")

    try:
        with tracing.Tracer().installed():
            raise RuntimeError("raised inside a traced block")
    except RuntimeError:
        pass
    expect(bindings() == before, "tracer left wrappers behind after an exception")


def check_counts(cli, work: Path) -> None:
    for workload, k in PREFIX.items():
        seen = []
        for repeat in range(2):
            harness, cases, _, warm_failed = run.set_up(cli, workload, 7, work)
            expect(warm_failed == 0, f"{workload}: {warm_failed} warm-up cases failed")
            metrics, attempted, failed, problems = run.traced_run(
                harness, cases[:k], work / f"spans-{workload}-{repeat}.json")
            expect(failed == 0, f"{workload}: {failed} of {attempted} cases failed")
            expect(not problems, f"{workload}: {problems}")
            seen.append({name: metrics[name][0] for name in COUNTS})
        expect(seen[0] == seen[1], f"{workload}: counts differ between runs: {seen}")
        expect(seen[0]["semi_restricted.cells"] > 0, f"{workload}: no cells counted")


def main() -> int:
    cli = run.import_ssratio()
    check_restore(cli)
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        check_counts(cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in failures:
        print(f"FAIL {message}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
