"""ssratio benchmark: `ssratio solve` on generated instance files.

    python3 perfbench/run.py --workload small_cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout and never from anywhere else.  One process, one
thread, closed loop: each `ssratio` call starts after the previous one
returns, through `ssratio.cli.main` in-process, on files the benchmark
wrote from `--seed`.  Every solution is verified (exit code, `check`,
oracle or closed-form bound).

--trace 0 loops over the cases for `--seconds` and prints the end-to-end
metrics.  --trace 1 runs a fixed prefix of the cases twice, first plain,
then with layer wrappers installed (tracing.py), asserts that both passes
wrote byte-identical solutions and agree on every count, and prints the
per-layer metrics.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

SETUP_REPEATS = 3
# Cases per traced run: fixed, so that counts repeat exactly per seed.
TRACE_CASES = {"twoset_large": 6, "ssr_factor": 12, "small_cli": 168}
TAIL_MIN_SAMPLES = 100  # p90 needs ten samples beyond it


def import_ssratio():
    """Import the checkout's own package; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "ssratio" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ssratio sources under {src}")
    sys.path.insert(0, str(src))
    import ssratio
    from ssratio import cli

    if Path(ssratio.__file__).resolve().parent != (src / "ssratio").resolve():
        raise SystemExit(f"perfbench: imported ssratio from {ssratio.__file__}, not {src}")
    return cli


class Harness:
    """Runs cases through the CLI and verifies what it wrote."""

    def __init__(self, cli, directory: Path):
        self.cli = cli
        self.dir = directory
        self.tracer = None

    def write_cases(self, cases) -> None:
        for case in cases:
            (self.dir / f"{case.name}.json").write_text(json.dumps(case.doc) + "\n", encoding="utf-8")

    def call(self, kind: str, argv: list[str]) -> tuple[int | None, float, str]:
        """One CLI call; returns (exit code or None on a traceback, seconds, stdout)."""
        out = io.StringIO()
        err = io.StringIO()
        span = self.tracer.span(f"request.{kind}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a traceback is a failed request, not a crashed benchmark
                code = None
                traceback.print_exc(file=err)
            elapsed = time.perf_counter() - start
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, elapsed, out.getvalue()

    def run_case(self, case, tag: str = "") -> dict:
        """solve, oracle where the case asks for it, then check; verify all.
        rec["ok"] is False on a traceback, an unexpected exit code, a failed
        check, an unreadable output or a missed (1+epsilon) guarantee."""
        if self.tracer:
            self.tracer.instance = case.name
        rec = {"ok": False, "solve_s": None, "oracle_s": None, "check_s": None,
               "ratio": None, "doc": None, "files": {}}
        try:
            self._run_case(case, tag, rec)
            rec["ok"] = True
        except CaseFailed as exc:
            sys.stderr.write(f"perfbench: {case.name}: {exc}\n")
        return rec

    def _run_case(self, case, tag: str, rec: dict) -> None:
        inst = str(self.dir / f"{case.name}.json")
        sol = str(self.dir / f"{case.name}{tag}.sol.json")
        rec["solve_s"] = self.expect_ok(
            "solve", ["solve", inst, "--epsilon", case.epsilon, "--output", sol])
        optimum = case.optimum
        if case.run_oracle:
            orc = str(self.dir / f"{case.name}{tag}.orc.json")
            rec["oracle_s"] = self.expect_ok("oracle", ["oracle", inst, "--output", orc])
            self.expect_ok("check", ["check", inst, orc], stdout="OK\n")
            oracle_doc = read_doc(orc, rec["files"], "oracle")
            if oracle_doc.get("status") != "optimal":
                raise CaseFailed(f"oracle status {oracle_doc.get('status')!r}")
            optimum = parse_ratio(oracle_doc)
        rec["check_s"] = self.expect_ok("check", ["check", inst, sol], stdout="OK\n")
        rec["doc"] = read_doc(sol, rec["files"], "solve")
        if rec["doc"].get("status") != "approximate":
            raise CaseFailed(f"solve status {rec['doc'].get('status')!r}")
        rec["ratio"] = value = parse_ratio(rec["doc"])
        if optimum is not None and not optimum <= value <= (1 + Fraction(case.epsilon)) * optimum:
            raise CaseFailed(f"ratio {value} misses the bound for optimum {optimum}, "
                             f"epsilon {case.epsilon}")

    def expect_ok(self, kind: str, argv: list[str], stdout: str | None = None) -> float:
        code, elapsed, out = self.call(kind, argv)
        if code != 0 or (stdout is not None and out != stdout):
            raise CaseFailed(f"{' '.join(argv)} exited {code}")
        return elapsed


class CaseFailed(Exception):
    """A case whose outputs are missing, wrong or unverifiable."""


def read_doc(path: str, files: dict, key: str) -> dict:
    try:
        files[key] = Path(path).read_bytes()
        doc = json.loads(files[key])
    except (OSError, ValueError) as exc:
        raise CaseFailed(f"unreadable solution file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseFailed(f"solution file {path} is not an object")
    return doc


def parse_ratio(doc: dict) -> Fraction:
    try:
        return Fraction(doc["ratio"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CaseFailed(f"bad ratio in solution: {exc}") from exc


def set_up(cli, workload: str, seed: int, work: Path):
    """Generate the cases into a fresh directory and warm every code path.
    Repeated SETUP_REPEATS times; returns the last harness, the cases, all
    timings and the number of failed warm-up cases."""
    timings = []
    harness = None
    warm_failed = 0
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        directory = Path(tempfile.mkdtemp(prefix=f"{workload}-{rep}-", dir=work))
        harness = Harness(cli, directory)
        cases = workloads.generate(workload, seed)
        harness.write_cases(cases)
        warm = workloads.warmup_cases()
        harness.write_cases(warm)
        warm_failed += sum(not harness.run_case(case)["ok"] for case in warm)
        timings.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            shutil.rmtree(directory)
    return harness, cases, timings, warm_failed


def timed_run(harness: Harness, cases, seconds: float, cycle: int) -> tuple[dict, int, int]:
    solve_s, check_s = [], []
    ratios: dict[str, Fraction] = {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        case = cases[attempted % len(cases)]
        rec = harness.run_case(case)
        attempted += 1
        if not rec["ok"]:
            failed += 1
        else:
            solve_s.append(rec["solve_s"])
            check_s.append(rec["check_s"])
            ratios.setdefault(case.name, rec["ratio"])
        if attempted % cycle == 0 and time.perf_counter() >= deadline:
            break
    if not solve_s:
        raise SystemExit("perfbench: every case failed")
    return {
        "solve_p50_ms": (statistics.median(solve_s) * 1e3, "ms"),
        "solves_per_s": (len(solve_s) / sum(solve_s), "1/s"),
        # a throughput, not a median: check calls last ~2 ms, and a median of
        # them jumps with the host's speed from one second to the next
        "checks_per_s": (len(check_s) / sum(check_s), "1/s"),
        "ratio_geomean": (math.exp(statistics.fmean(math.log(r) for r in ratios.values())), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }, attempted, failed


def traced_run(harness: Harness, cases, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """Plain pass, then traced pass, over the same fixed cases."""

    def run_pass(tag: str, tracer: Tracer | None = None):
        harness.tracer = tracer
        start = time.perf_counter()
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                recs = [harness.run_case(case, tag) for case in cases]
        finally:
            harness.tracer = None
        return time.perf_counter() - start, recs

    plain_s, plain = run_pass("")
    tracer = Tracer()
    traced_s, traced = run_pass(".traced", tracer)
    attempted = len(plain) + len(traced)
    failed = sum(not r["ok"] for r in plain + traced)

    problem_of = {case.name: case.doc["problem"] for case in cases}
    tracer.write(str(spans_path), problem_of)
    metrics = layer_metrics(tracer.spans, problem_of)

    problems = [f"{case.name}: traced run wrote different solution bytes"
                for case, a, b in zip(cases, plain, traced) if a["files"] != b["files"]]
    docs = [r["doc"] for r in plain if r["ok"]]
    file_cells = sum(d["stats"]["dp_cell_ops"] for d in docs)
    file_pivots = sum(d["stats"]["pivots_evaluated"] for d in docs)
    traced_cells = sum(r["doc"]["stats"]["dp_cell_ops"] for r in traced if r["ok"])
    expected_states = sum(3 ** case.n for case in cases if case.run_oracle)
    checks = {
        "semi_restricted.cells": (metrics["semi_restricted.cells"][0], file_cells),
        "traced dp_cell_ops": (traced_cells, file_cells),
        "fptas.pivots": (metrics["fptas.pivots"][0], file_pivots),
        "fptas.scale_calls": (metrics["fptas.scale_calls"][0], file_pivots),
        "oracle.states": (metrics["oracle.states"][0], expected_states),
    }
    problems += [f"{name}: traced {got} != expected {want}"
                 for name, (got, want) in checks.items() if got != want]

    # latencies from the plain pass; 0 where not measured
    solve_s = [r["solve_s"] for r in plain if r["ok"]]
    check_s = [r["check_s"] for r in plain if r["ok"]]
    oracle_s = [r["oracle_s"] for r in plain if r["ok"] and r["oracle_s"] is not None]
    p90 = statistics.quantiles(solve_s, n=10)[-1] if len(solve_s) >= TAIL_MIN_SAMPLES else 0.0
    metrics["cli.solve_p90_ms"] = (p90 * 1e3, "ms")
    metrics["cli.check_p50_ms"] = (statistics.median(check_s) * 1e3 if check_s else 0.0, "ms")
    metrics["oracle.p50_ms"] = (statistics.median(oracle_s) * 1e3 if oracle_s else 0.0, "ms")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_ssratio()
    import_s = time.perf_counter() - _T0
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        harness, cases, setup_times, warm_failed = set_up(cli, args.workload, args.seed, work)
        problems = [f"{warm_failed} warm-up cases failed"] if warm_failed else []
        if args.trace:
            spans_path = work_root / f"spans-{args.workload}-{args.seed}.json"
            values, attempted, failed, traced_problems = traced_run(
                harness, cases[:TRACE_CASES[args.workload]], spans_path)
            problems += traced_problems
        else:
            values, attempted, failed = timed_run(
                harness, cases, args.seconds, workloads.PARAMS[args.workload]["cycle"])
            values["setup_s"] = (import_s + statistics.median(setup_times), "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in problems:
        sys.stderr.write(f"perfbench: {message}\n")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
