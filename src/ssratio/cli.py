"""Command-line interface: solve, oracle, bench, check.

Instance and solution files are JSON with exact rational strings ("p/q"
or decimal); plain JSON numbers are accepted and parsed exactly as
written.  All files carry "format": 1.  Exit codes: 0 success, 1
input/usage error, 2 infeasible instance.

Solution files are self-certifying: the stated sums and ratio can be
recomputed from the stated sets and the instance, which is what the
`check` subcommand does.  Outputs are byte-deterministic; wall-clock
timing is included only with --timings because it would break that.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from .core import SolutionPair, TwoSetInstance, parse_rational
from . import oracle as oracle_mod
from .fptas import ApproxResult, fptas_solve
from .reductions import decode, encode_factor_r_weights, encode_ssr_weights

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class CliError(Exception):
    """User-facing failure with a dedicated exit code."""

    def __init__(self, message: str, code: int = EXIT_INPUT_ERROR):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


def _positive_rational(raw: Any, what: str) -> Fraction:
    try:
        value = parse_rational(raw)
    except ValueError as exc:
        raise CliError(f"malformed instance file: {exc}") from exc
    if value <= 0:
        raise CliError(f"{what} must be positive, got {raw!r}")
    return value


def _read_json(path: str, what: str) -> dict[str, Any]:
    """The JSON object in a file; unreadable, undecodable, invalid or too
    deeply nested input becomes one CliError naming the `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise CliError(f"malformed {what} file: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CliError(f"malformed {what} file: top level must be an object")
    return doc


def load_instance(path: str) -> dict[str, Any]:
    """Parse and validate an instance file into a normalized dict."""
    doc = _read_json(path, "instance")
    if type(doc.get("format")) is not int or doc["format"] != FORMAT_VERSION:
        raise CliError(f"malformed instance file: expected \"format\": {FORMAT_VERSION}")
    problem = doc.get("problem")
    if problem not in ("ssr", "two-set", "factor-r"):
        raise CliError("malformed instance file: problem must be ssr, two-set or factor-r")
    out: dict[str, Any] = {"problem": problem}
    if problem == "two-set":
        pairs = doc.get("pairs")
        if "weights" in doc or not isinstance(pairs, list) or not pairs:
            raise CliError("malformed instance file: two-set needs a nonempty \"pairs\" list")
        parsed = []
        for entry in pairs:
            if not isinstance(entry, list) or len(entry) != 2:
                raise CliError("malformed instance file: each pair must be a 2-element list")
            parsed.append((_positive_rational(entry[0], "weight"), _positive_rational(entry[1], "weight")))
        out["pairs"] = parsed
    else:
        weights = doc.get("weights")
        if "pairs" in doc or not isinstance(weights, list) or not weights:
            raise CliError(f"malformed instance file: {problem} needs a nonempty \"weights\" list")
        out["weights"] = [_positive_rational(v, "weight") for v in weights]
        if problem == "factor-r":
            if "r" not in doc:
                raise CliError("malformed instance file: factor-r needs \"r\"")
            r = _positive_rational(doc["r"], "factor r")
            if r < 1:
                raise CliError("factor r must be >= 1")
            out["r"] = r
    return out


def _encode(instance: dict[str, Any]) -> TwoSetInstance:
    problem = instance["problem"]
    if problem == "two-set":
        return TwoSetInstance.from_pairs(instance["pairs"])
    if problem == "ssr":
        return encode_ssr_weights(instance["weights"])
    return encode_factor_r_weights(instance["weights"], instance["r"])


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------


def _ratio_decimal(ratio: Fraction) -> float | None:
    """Display value of an exact ratio; None when it exceeds float range."""
    try:
        return float(ratio)
    except OverflowError:
        return None


def _present_sets(instance: dict[str, Any], sol: SolutionPair) -> dict[str, Any]:
    """Base-index set presentation plus side labels where they apply."""
    problem = instance["problem"]
    n = len(instance["pairs" if problem == "two-set" else "weights"])
    decoded = decode(sol, problem, n)
    fields: dict[str, Any] = {"s1": sorted(decoded.s1), "s2": sorted(decoded.s2)}
    if problem == "two-set":
        fields["s1_side"] = ("a" if max(sol.s1) <= n else "b") if sol.s1 else None
        fields["s2_side"] = ("a" if max(sol.s2) <= n else "b") if sol.s2 else None
    elif problem == "factor-r":
        fields["r"] = str(instance["r"])
        fields["r_multiplied"] = decoded.r_multiplied
    return fields


def build_solution_doc(
    instance: dict[str, Any],
    sol: SolutionPair,
    mode: str,
    status: str,
    *,
    epsilon: Fraction | None = None,
    pivot_used: int | None = None,
    pivot_m: int | None = None,
    stats: dict[str, Any] | None = None,
    trace: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    value = sol.value()
    doc: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "mode": mode,
        "problem": instance["problem"],
        "status": status,
    }
    doc.update(_present_sets(instance, sol))
    doc["sum1"] = str(sol.sum1)
    doc["sum2"] = str(sol.sum2)
    doc["ratio"] = str(value)
    doc["ratio_decimal"] = _ratio_decimal(value) if value != math.inf else None
    if mode == "fptas":
        assert epsilon is not None
        doc["epsilon"] = str(epsilon)
        doc["bound"] = str(1 + epsilon)
        doc["pivot_used"] = pivot_used
    if pivot_m is not None:
        doc["pivot_m"] = pivot_m
    doc["stats"] = stats or {"pivots_evaluated": 0, "dp_cell_ops": 0}
    if trace is not None:
        doc["trace"] = trace
    return doc


def _emit(doc: dict[str, Any], path: str | None) -> None:
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file: {exc}") from exc


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _parse_epsilon(raw: str) -> Fraction:
    try:
        eps = parse_rational(raw)
    except ValueError as exc:
        raise CliError(f"epsilon out of range: {exc}") from exc
    if not 0 < eps < 1:
        raise CliError(f"epsilon out of range: need 0 < epsilon < 1, got {raw}")
    return eps


def _solve(encoded: TwoSetInstance, eps: Fraction, collect_log: bool = False) -> ApproxResult:
    """fptas_solve; a table too large to build (a tiny epsilon) becomes a CliError."""
    try:
        return fptas_solve(encoded, eps, collect_log=collect_log)
    except ValueError as exc:
        raise CliError(f"cannot solve at epsilon {eps}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    eps = _parse_epsilon(args.epsilon)
    encoded = _encode(instance)
    started = time.perf_counter()
    result = _solve(encoded, eps, collect_log=args.trace)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    stats: dict[str, Any] = {
        "pivots_evaluated": result.pivots_evaluated,
        "dp_cell_ops": result.dp_cell_ops,
    }
    if args.timings:
        stats["wall_time_ms"] = elapsed_ms
    trace = None
    if args.trace and result.per_pivot_log is not None:
        trace = [
            {
                "m": entry.m,
                "scaled_value": str(entry.scaled_value),
                "original_value": str(entry.original_value),
            }
            for entry in result.per_pivot_log
        ]
    doc = build_solution_doc(
        instance,
        result.solution,
        "fptas",
        result.status,
        epsilon=eps,
        pivot_used=result.pivot_used,
        stats=stats,
        trace=trace,
    )
    _emit(doc, args.output)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    encoded = _encode(instance)
    try:
        if args.m is not None:
            result = oracle_mod.brute_force_semi_restricted(encoded, args.m, max_n=args.max_n)
        else:
            result = oracle_mod.brute_force_two_set(encoded, max_n=args.max_n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    sol = result.best if result.best is not None else SolutionPair.empty()
    status = "optimal" if result.feasible else "infeasible"
    doc = build_solution_doc(instance, sol, "oracle", status, pivot_m=args.m)
    _emit(doc, args.output)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def random_two_set(n: int, seed: int, trial: int, weight_max: int) -> TwoSetInstance:
    """Seeded uniform-integer instance: weights in [1, weight_max]."""
    rng = random.Random(f"{seed}:{n}:{trial}")
    pairs = [(rng.randint(1, weight_max), rng.randint(1, weight_max)) for _ in range(n)]
    return TwoSetInstance.from_pairs(pairs)


def _int_list(raw: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise CliError(f"bad {what} list: {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise CliError(f"bad {what} list: {raw!r}")
    return values


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = _int_list(args.sizes, "sizes")
    epsilons = [_parse_epsilon(part) for part in args.epsilons.split(",") if part.strip()]
    if not epsilons:
        raise CliError(f"bad epsilons list: {args.epsilons!r}")
    for flag, value, least in (("--trials", args.trials, 1), ("--weight-max", args.weight_max, 1),
                               ("--oracle-cap", args.oracle_cap, 0)):
        if value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "epsilon", "trial", "optimum", "fptas_value", "ratio_to_optimum",
         "dp_cell_ops", "wall_time_ms"]
    )
    for n in sizes:
        for trial in range(args.trials):
            inst = random_two_set(n, args.seed, trial, args.weight_max)
            optimum = None
            if n <= args.oracle_cap:
                optimum = oracle_mod.brute_force_two_set(inst, max_n=args.oracle_cap).optimum
            for eps in epsilons:
                started = time.perf_counter()
                result = _solve(inst, eps)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                ratio_to_opt = ""
                opt_str = ""
                if optimum is not None:
                    opt_str = str(optimum)
                    if optimum != math.inf and result.feasible:
                        ratio_to_opt = repr(float(result.value / optimum))
                writer.writerow(
                    [n, str(eps), trial, opt_str, str(result.value), ratio_to_opt,
                     result.dp_cell_ops, repr(elapsed_ms)]
                )
    text = buf.getvalue()
    if args.csv is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write CSV file: {exc}") from exc
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _weight_lookup(instance: dict[str, Any]):
    problem = instance["problem"]
    if problem == "two-set":
        pairs = instance["pairs"]

        def lookup(index: int, side: str) -> Fraction:
            a, b = pairs[index - 1]
            return a if side == "a" else b

        return len(pairs), lookup
    weights = instance["weights"]
    r = instance.get("r", Fraction(1))

    def lookup_plain(index: int, side: str) -> Fraction:
        base = Fraction(weights[index - 1])
        return base * r if side == "r" else base

    return len(weights), lookup_plain


def verify_solution(instance: dict[str, Any], doc: dict[str, Any]) -> list[str]:
    """All inconsistencies between a solution file and its instance."""
    problems: list[str] = []
    if type(doc.get("format")) is not int or doc["format"] != FORMAT_VERSION:
        problems.append(f"solution format must be {FORMAT_VERSION}")
        return problems
    problem = instance["problem"]
    if doc.get("problem") != problem:
        problems.append("solution problem kind does not match the instance")
        return problems
    mode = doc.get("mode")
    if mode not in ("fptas", "oracle"):
        problems.append("mode must be fptas or oracle")
        return problems
    status = doc.get("status")
    allowed = ("approximate", "infeasible") if mode == "fptas" else ("optimal", "infeasible")
    if status not in allowed:
        problems.append(f"status {status!r} not allowed for mode {mode}")
        return problems

    n, lookup = _weight_lookup(instance)
    problems.extend(_stats_problems(doc.get("stats"), mode, 2 * n))
    pivot = doc.get("pivot_used")
    pivot_ok = type(pivot) is int and 1 <= pivot <= 2 * n
    if mode == "fptas" and not (pivot is None if status == "infeasible" else pivot_ok):
        problems.append(f"pivot_used must be null when infeasible, else an integer in 1..{2 * n}")
    pivot_m = doc.get("pivot_m")
    pivot_m_ok = type(pivot_m) is int and 1 <= pivot_m <= 2 * n
    if "pivot_m" in doc and not pivot_m_ok:
        problems.append(f"pivot_m must be an integer in 1..{2 * n}")
    if problem == "factor-r" and parse_rational(doc.get("r", "0")) != instance["r"]:
        problems.append(f"stated r {doc.get('r')!r} differs from the instance's r {instance['r']}")
    if mode == "fptas":
        try:
            eps = _parse_epsilon(str(doc.get("epsilon")))
        except CliError:
            problems.append("fptas solutions need a valid epsilon")
            return problems
        if parse_rational(doc.get("bound", "0")) != 1 + eps:
            problems.append("bound must equal 1 + epsilon")
    s1 = doc.get("s1")
    s2 = doc.get("s2")
    if not isinstance(s1, list) or not isinstance(s2, list):
        problems.append("s1/s2 must be index lists")
        return problems
    stated1 = parse_rational(doc.get("sum1", "0"))
    stated2 = parse_rational(doc.get("sum2", "0"))
    if status == "infeasible":
        if s1 or s2:
            problems.append("infeasible solutions must have empty sets")
        if doc.get("ratio") != "inf":
            problems.append("infeasible solutions must state ratio inf")
        if (stated1, stated2) != (0, 0) or doc.get("ratio_decimal") is not None:
            problems.append("infeasible solutions must state sums 0 and ratio_decimal null")
        labels = {"two-set": ("s1_side", "s2_side"), "factor-r": ("r_multiplied",)}.get(problem, ())
        if any(doc.get(label) is not None for label in labels):
            problems.append(f"infeasible solutions must have null {' and '.join(labels)}")
        return problems
    if not s1 or not s2:
        problems.append("feasible solutions need both sets nonempty")
        return problems
    if any(type(i) is not int or not 1 <= i <= n for i in s1 + s2):
        problems.append(f"indices must be integers in 1..{n}")
        return problems
    if len(set(s1)) != len(s1) or len(set(s2)) != len(s2):
        problems.append("an index repeats within a set")
        return problems
    if set(s1) & set(s2):
        problems.append("sets must be disjoint")

    # side roles per problem kind; encoded index i has role side_roles[i > n]
    side_roles = ("a", "b") if problem == "two-set" else ("plain", "r")
    if problem == "two-set":
        sides = doc.get("s1_side"), doc.get("s2_side")
        if set(sides) != {"a", "b"}:
            problems.append("two-set solutions need side labels a and b")
            return problems
        role1, role2 = sides
    elif problem == "factor-r":
        rmul = doc.get("r_multiplied")
        if rmul not in ("s1", "s2"):
            problems.append("factor-r solutions must label the r-multiplied set")
            return problems
        role1 = "r" if rmul == "s1" else "plain"
        role2 = "r" if rmul == "s2" else "plain"
    else:
        role1 = role2 = "plain"

    w1 = [lookup(i, role1) for i in s1]
    w2 = [lookup(j, role2) for j in s2]
    if pivot_m_ok:
        # oracle --m: the smaller set maximum is the encoded element's weight
        if min(max(w1), max(w2)) != lookup((pivot_m - 1) % n + 1, side_roles[pivot_m > n]):
            problems.append(f"the smaller set maximum is not the weight of pivot_m {pivot_m}")
    sum1, sum2 = sum(w1), sum(w2)
    if (sum1, sum2) != (stated1, stated2):
        problems.append(f"stated sums {stated1}/{stated2} differ from recomputed {sum1}/{sum2}")
    recomputed = max(sum1, sum2) / min(sum1, sum2)
    if parse_rational(doc.get("ratio", "0")) != recomputed:
        problems.append(f"stated ratio {doc.get('ratio')} differs from recomputed {recomputed}")
    if doc.get("ratio_decimal") != _ratio_decimal(recomputed):
        problems.append("ratio_decimal does not match the exact ratio")
    if mode == "fptas" and pivot_ok:
        # pivot claim in scaled weights floor(w / delta), delta = epsilon *
        # w_m / 6n: flooring can merge distinct original weights, so the
        # claim on original weights fails for some correct outputs
        per_delta = 6 * n / (eps * lookup((pivot - 1) % n + 1, side_roles[pivot > n]))
        if min(math.floor(max(w) * per_delta) for w in (w1, w2)) != math.floor(6 * n / eps):
            problems.append(f"the smaller set maximum does not scale to pivot {pivot}")
    return problems


def _stats_problems(stats: Any, mode: str, count: int) -> list[str]:
    """Stats must be what `solve` or `oracle` writes for `count` pivots."""
    if not isinstance(stats, dict):
        return ["stats must be an object"]
    problems = []
    pivots, cells = stats.get("pivots_evaluated"), stats.get("dp_cell_ops")
    if mode == "fptas":
        if not (pivots == count and type(pivots) is int and type(cells) is int and cells >= 0):
            problems.append(f"stats need pivots_evaluated {count} and dp_cell_ops >= 0")
    elif not (pivots == cells == 0 and type(pivots) is type(cells) is int):
        problems.append("oracle stats need pivots_evaluated and dp_cell_ops 0")
    wall = stats.get("wall_time_ms", 0)
    if type(wall) not in (int, float) or not 0 <= wall < math.inf:
        problems.append("stats wall_time_ms must be a non-negative number")
    return problems


def cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    doc = _read_json(args.solution, "solution")
    try:
        problems = verify_solution(instance, doc)
    except (ValueError, TypeError) as exc:
        raise CliError(f"malformed solution file: {exc}") from exc
    if problems:
        for message in problems:
            sys.stderr.write(f"check failed: {message}\n")
        return EXIT_INPUT_ERROR
    sys.stdout.write("OK\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssratio", description="Subset-sum ratio solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the FPTAS on an instance file")
    p_solve.add_argument("input", help="instance JSON path")
    p_solve.add_argument("--epsilon", required=True, help="accuracy in (0,1), e.g. 0.25 or 1/4")
    p_solve.add_argument("--output", default=None, help="solution JSON path (default: stdout)")
    p_solve.add_argument("--trace", action="store_true", help="include the per-pivot log")
    p_solve.add_argument("--timings", action="store_true", help="include wall-clock stats")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact brute force for small instances")
    p_oracle.add_argument("input", help="instance JSON path")
    p_oracle.add_argument("--m", type=int, default=None,
                          help="pivot index (1..2n in the encoded instance)")
    p_oracle.add_argument("--output", default=None, help="solution JSON path (default: stdout)")
    p_oracle.add_argument("--max-n", type=int, default=oracle_mod.DEFAULT_SIZE_CAP,
                          help="size cap for the enumeration")
    p_oracle.set_defaults(func=cmd_oracle)

    p_bench = sub.add_parser("bench", help="seeded random benchmark, CSV report")
    p_bench.add_argument("--sizes", default="4,6,8", help="comma list of pair counts")
    p_bench.add_argument("--epsilons", default="0.5", help="comma list of epsilons")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--csv", default=None, help="CSV path (default: stdout)")
    p_bench.add_argument("--weight-max", type=int, default=50, help="uniform weight bound")
    p_bench.add_argument("--oracle-cap", type=int, default=oracle_mod.DEFAULT_SIZE_CAP,
                         help="run the oracle when n is at most this")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="validate a solution file against an instance")
    p_check.add_argument("instance", help="instance JSON path")
    p_check.add_argument("solution", help="solution JSON path")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
