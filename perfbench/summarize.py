"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --runs 10 --seconds 35 --out summary.json
    python3 perfbench/summarize.py --workloads ssr_factor --seeds 1,2,3,4,5

Runs perfbench/run.py once per (workload, seed), one at a time, and
prints per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread: (third quartile - first quartile) / median, with each
workload's reason and generator parameters.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..runs")
    parser.add_argument("--seeds", default=None, help="explicit comma list of seeds")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    report = {}
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        walls = []
        for seed in seeds:
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, attempted {result['attempted']}",
                  file=sys.stderr)
        report[workload] = {"why": whys.get(workload), "params": workloads.PARAMS[workload],
                            "seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                            "wall_s": summary(walls),
                            "metrics": {k: summary(v) for k, v in per_metric.items()}}
        for name, s in report[workload]["metrics"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:13s} {name:40s} median {s['median']:.6g} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
