"""Command-line interface: solve, oracle, check.

Instance and solution files are JSON with exact rational strings ("p/q"
or decimal); plain JSON numbers are accepted and parsed exactly as
written.  All files carry "format": 1.  Exit codes: 0 success, 1
input/usage error, 2 infeasible instance.

Solution files are self-certifying: `check` rebuilds a file from its
stated sets and the instance through the same writer `solve` and
`oracle` use, with s1 on either side of the encoding.  Each orientation's
whole rebuilt text is compared with the file first; only when neither
matches is the file compared field for field.  The pivot claims are
checked on the encoded weights.  Outputs are byte-deterministic;
wall-clock timing is included only with --timings because it would break
that.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import Any, Sequence

from .core import (SolutionPair, TwoSetInstance, check_feasible_semi_restricted,
                   common_denominator, parse_rational)
from . import oracle as oracle_mod
from .fptas import _delta, fptas_solve
from .reductions import decode, encode_factor_r_weights, encode_ssr_weights

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class CliError(Exception):
    """User-facing failure: one `error:` line and exit code 1."""


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------


class _Literal(str):
    """A JSON number with a fraction or exponent, kept exactly as written."""
    __repr__ = str.__str__


def _positive_rational(raw: Any, what: str) -> Fraction:
    try:
        value = Fraction(raw) if type(raw) is int else parse_rational(raw)
    except ValueError as exc:
        raise CliError(f"malformed instance file: {exc}") from exc
    if value.numerator <= 0:
        raise CliError(f"{what} must be positive, got {raw!r}")
    return value


def _read_json(path: str, what: str, parse_float: Any = None) -> dict[str, Any]:
    """The JSON object in a file; unreadable, undecodable, invalid or too
    deeply nested input becomes one CliError naming the `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=parse_float)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 errors
        raise CliError(f"malformed {what} file: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CliError(f"malformed {what} file: top level must be an object")
    return doc


def load_instance(path: str) -> dict[str, Any]:
    """Parse and validate an instance file into a normalized dict whose
    "encoded" entry is the two-set instance every command works on."""
    doc = _read_json(path, "instance", parse_float=_Literal)
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
        out["encoded"] = TwoSetInstance.from_pairs(parsed)
    else:
        weights = doc.get("weights")
        if "pairs" in doc or not isinstance(weights, list) or not weights:
            raise CliError(f"malformed instance file: {problem} needs a nonempty \"weights\" list")
        parsed = [_positive_rational(v, "weight") for v in weights]
        if problem == "factor-r":
            if "r" not in doc:
                raise CliError("malformed instance file: factor-r needs \"r\"")
            r = _positive_rational(doc["r"], "factor r")
            if r < 1:
                raise CliError("factor r must be >= 1")
            out["r"] = r
            out["encoded"] = encode_factor_r_weights(parsed, r)
        else:
            out["encoded"] = encode_ssr_weights(parsed)
    return out


# ---------------------------------------------------------------------------
# solution files
# ---------------------------------------------------------------------------


def _exact_text(value: Fraction | float) -> str:
    """str(value); past Python's digit limit for printing an int, a CliError."""
    try:
        return str(value)
    except ValueError as exc:
        raise CliError(f"cannot print a value of over {sys.get_int_max_str_digits()} digits") from exc


def _ratio_decimal(ratio: Fraction) -> float | None:
    """Display value of an exact ratio; None when it exceeds float range."""
    try:
        return float(ratio)
    except OverflowError:
        return None


def _present_sets(instance: dict[str, Any], sol: SolutionPair) -> dict[str, Any]:
    """Base-index set presentation plus side labels where they apply."""
    problem, n = instance["problem"], instance["encoded"].n
    decoded = decode(sol, problem, n)
    fields: dict[str, Any] = {"s1": sorted(decoded.s1), "s2": sorted(decoded.s2)}
    if problem == "two-set":
        fields["s1_side"] = ("a" if max(sol.s1) <= n else "b") if sol.s1 else None
        fields["s2_side"] = ("a" if max(sol.s2) <= n else "b") if sol.s2 else None
    elif problem == "factor-r":
        fields["r"] = _exact_text(instance["r"])
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
    doc["sum1"] = _exact_text(sol.sum1)
    doc["sum2"] = _exact_text(sol.sum2)
    doc["ratio"] = _exact_text(value)
    doc["ratio_decimal"] = _ratio_decimal(value) if value != math.inf else None
    if mode == "fptas":
        assert epsilon is not None
        doc["epsilon"] = _exact_text(epsilon)
        doc["bound"] = _exact_text(1 + epsilon)
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


def cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.input)
    eps = _parse_epsilon(args.epsilon)
    started = time.perf_counter()
    try:
        result = fptas_solve(instance["encoded"], eps, collect_log=args.trace)
    except ValueError as exc:  # a table too large to build (a tiny epsilon)
        raise CliError(f"cannot solve at epsilon {_exact_text(eps)}: {exc}") from exc
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
                "scaled_value": _exact_text(entry.scaled_value),
                "original_value": _exact_text(entry.original_value),
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
    encoded = instance["encoded"]
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
# check
# ---------------------------------------------------------------------------


def _is_index(value: Any, count: int) -> bool:
    return type(value) is int and 1 <= value <= count


def _field_problems(doc: dict[str, Any], want: dict[str, Any]) -> list[str]:
    """One line per top-level field whose JSON differs from `want`, fields
    present on only one side included."""
    got, expected = ({k: json.dumps(v) for k, v in d.items()} for d in (doc, want))
    return [f"{k} is {got.get(k, 'absent')}, expected {expected.get(k, 'absent')}"
            for k in dict.fromkeys([*want, *doc]) if got.get(k) != expected.get(k)]


def verify_solution(instance: dict[str, Any], doc: dict[str, Any]) -> list[str]:
    """All inconsistencies between a solution file and its instance.

    The file must be, field for field, what `build_solution_doc` writes for
    its stated sets (s1 on either side of the encoding) and its own
    epsilon, pivot, stats and trace.  Those inputs are validated here, and
    the pivot claims are checked against the encoded weights.
    """
    if type(doc.get("format")) is not int or doc["format"] != FORMAT_VERSION:
        return [f"solution format must be {FORMAT_VERSION}"]
    mode = doc.get("mode")
    if mode not in ("fptas", "oracle"):
        return ["mode must be fptas or oracle"]
    encoded = instance["encoded"]
    n = encoded.n
    problems = _stats_problems(doc.get("stats"), mode, 2 * n)
    s1, s2 = doc.get("s1"), doc.get("s2")
    if not (isinstance(s1, list) and isinstance(s2, list)
            and all(_is_index(i, n) for i in s1 + s2)):
        return problems + [f"s1 and s2 must be lists of integers in 1..{n}"]
    if bool(s1) != bool(s2) or set(s1) & set(s2):
        return problems + ["s1 and s2 must be disjoint, and both empty or both nonempty"]

    pivot_used = doc.get("pivot_used") if mode == "fptas" else None
    pivot_m = doc.get("pivot_m") if mode == "oracle" else None
    options: dict[str, Any] = {"pivot_used": pivot_used, "pivot_m": pivot_m,
                               "stats": doc.get("stats")}
    if mode == "fptas":
        try:
            options["epsilon"] = _parse_epsilon(str(doc.get("epsilon")))
        except CliError:
            return problems + ["fptas solutions need a valid epsilon"]
        options["trace"] = doc.get("trace")
        if not (pivot_used is None if not s1 else _is_index(pivot_used, 2 * n)):
            problems.append("pivot_used must be null when infeasible, "
                            f"else an integer in 1..{2 * n}")
    if pivot_m is not None and not _is_index(pivot_m, 2 * n):
        problems.append(f"pivot_m must be an integer in 1..{2 * n}")

    status = "infeasible" if not s1 else "approximate" if mode == "fptas" else "optimal"
    rebuilt = []
    for first, second in ((0, n), (n, 0)):  # s1 drawn from the first side, then the second
        sol = SolutionPair.from_sets(encoded.weights, [i + first for i in s1],
                                     [j + second for j in s2])
        want = build_solution_doc(instance, sol, mode, status, **options)
        if json.dumps(doc) == json.dumps(want):
            break
        rebuilt.append((sol, want))
    else:  # neither matches: the orientation with fewer differing fields, the first on a tie
        sol, diffs = min(((sol, _field_problems(doc, want)) for sol, want in rebuilt),
                         key=lambda found: len(found[1]))
        problems += diffs
    if sol.is_empty:
        return problems
    if _is_index(pivot_m, 2 * n) and not check_feasible_semi_restricted(sol, encoded, pivot_m):
        problems.append(f"the smaller set maximum is not the weight of pivot_m {pivot_m}")
    if _is_index(pivot_used, 2 * n):
        # pivot claim in the pivot's scaled weights: flooring can merge
        # distinct original weights, so the claim on original weights fails
        # for some correct outputs.  Floors are monotone, so the smaller set
        # maximum's floor is the smaller of the two sets' scaled maxima,
        # floored on the integer numerators as scale_instance floors them
        _, w = common_denominator(encoded.weights)
        p, q = _delta(options["epsilon"], w[pivot_used - 1], 2 * n)
        smaller_max = min(max(w[i - 1] for i in side) for side in (sol.s1, sol.s2))
        if smaller_max * q // p != w[pivot_used - 1] * q // p:
            problems.append(f"the smaller set maximum does not scale to pivot {pivot_used}")
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
    written = ("pivots_evaluated", "dp_cell_ops") + (("wall_time_ms",) if mode == "fptas" else ())
    extra = [key for key in stats if key not in written]
    if extra:
        problems.append(f"stats of {mode} files never have {', '.join(extra)}")
    wall = stats.get("wall_time_ms", 0)
    if type(wall) not in (int, float) or not 0 <= wall < math.inf:
        problems.append("stats wall_time_ms must be a non-negative number")
    return problems


def cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    doc = _read_json(args.solution, "solution")
    try:
        problems = verify_solution(instance, doc)
    except (ValueError, TypeError, RecursionError) as exc:  # nesting too deep to re-encode
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


@functools.cache  # one parser per process: building it costs about 1 ms a call
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
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
