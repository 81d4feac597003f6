"""End-to-end CLI tests: formats, exit codes, determinism, self-certification."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ssratio import (
    TwoSetInstance,
    encode_factor_r_weights,
    encode_ssr_weights,
    fptas_solve,
    scale_instance,
)
from ssratio import cli
from ssratio.cli import (
    _emit,
    build_parser,
    build_solution_doc,
    main,
    verify_solution,
)


def write_instance(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def worked_two_set(tmp_path):
    return write_instance(
        tmp_path, "two.json",
        {"format": 1, "problem": "two-set", "pairs": [["5", "4"], ["3", "6"]]},
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_worked_instance(self, worked_two_set, capsys):
        code, out, _ = run(capsys, "solve", worked_two_set, "--epsilon", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "approximate"
        assert doc["ratio"] == "6/5"
        assert doc["bound"] == "3/2"
        assert doc["format"] == 1
        assert doc["s1_side"] != doc["s2_side"]

    def test_ssr_exact_partition(self, tmp_path, capsys):
        path = write_instance(tmp_path, "ssr.json", {"format": 1, "problem": "ssr", "weights": [2, 2]})
        code, out, _ = run(capsys, "solve", path, "--epsilon", "0.1")
        assert code == 0
        assert json.loads(out)["ratio"] == "1"

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = write_instance(tmp_path, "one.json", {"format": 1, "problem": "ssr", "weights": [1]})
        code, out, _ = run(capsys, "solve", path, "--epsilon", "0.5")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "infeasible" and doc["ratio"] == "inf"

    def test_trace_and_timings(self, worked_two_set, capsys):
        code, out, _ = run(
            capsys, "solve", worked_two_set, "--epsilon", "0.5", "--trace", "--timings"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["trace"]) == 4
        assert "wall_time_ms" in doc["stats"]

    def test_no_timings_by_default(self, worked_two_set, capsys):
        _, out, _ = run(capsys, "solve", worked_two_set, "--epsilon", "0.5")
        assert "wall_time_ms" not in json.loads(out)["stats"]

    def test_factor_r(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "fr.json",
            {"format": 1, "problem": "factor-r", "weights": [1, 1], "r": "2"},
        )
        code, out, _ = run(capsys, "solve", path, "--epsilon", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == "2" and doc["r_multiplied"] in ("s1", "s2")

    def test_rational_weights_accepted(self, tmp_path, capsys):
        path = write_instance(
            tmp_path, "rat.json",
            {"format": 1, "problem": "ssr", "weights": ["1/2", "0.25", "3/4"]},
        )
        code, out, _ = run(capsys, "solve", path, "--epsilon", "0.1")
        assert code == 0
        assert json.loads(out)["ratio"] == "1"  # 3/4 == 1/2 + 1/4

    def test_json_numbers_parse_as_written(self, tmp_path, capsys):
        # too small, too large and too long for a float
        cases = (("[2, 3, 1e-400]", None), ("[1e400, 3]", "1" + "0" * 400 + "/3"),
                 ("[1.0000000000000000001, 1]", "10000000000000000001/1" + "0" * 19))
        for weights, ratio in cases:
            path = tmp_path / "inst.json"
            path.write_text('{"format": 1, "problem": "ssr", "weights": %s}' % weights)
            sol = str(tmp_path / "sol.json")
            code, _, err = run(capsys, "solve", str(path), "--epsilon", "1/4", "--output", sol)
            assert code == 0 and err == "", (weights, err)
            assert ratio is None or json.loads(Path(sol).read_text())["ratio"] == ratio
            assert run(capsys, "check", str(path), sol)[:2] == (0, "OK\n")


class TestInputErrors:
    # invalid JSON, bytes that are not UTF-8, nesting deeper than the decoder
    # recurses, a top level that is not an object
    MALFORMED = (b"{not json", b"\xff\xfe", b"[" * 200000 + b"]" * 200000, b"[1, 2]")

    def test_malformed_json(self, worked_two_set, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for content in self.MALFORMED:
            path.write_bytes(content)
            for argv, what in ((["solve", str(path), "--epsilon", "0.5"], "instance"),
                               (["check", worked_two_set, str(path)], "solution")):
                code, out, err = run(capsys, *argv)
                assert code == 1 and out == ""
                assert err.startswith(f"error: malformed {what} file") and err.count("\n") == 1

    @pytest.mark.parametrize("fields, message", [
        ({"problem": "knapsack", "weights": [1, 2]}, "problem must be ssr, two-set or factor-r"),
        ({"problem": "two-set", "pairs": [[1, 2]], "weights": [1, 2]},
         'two-set needs a nonempty "pairs" list'),
        ({"problem": "two-set"}, 'two-set needs a nonempty "pairs" list'),
        ({"problem": "two-set", "pairs": [[1, 2, 3]]}, "each pair must be a 2-element list"),
        ({"problem": "ssr", "weights": []}, 'ssr needs a nonempty "weights" list'),
        ({"problem": "ssr", "weights": [1, 2], "pairs": [[1, 2]]},
         'ssr needs a nonempty "weights" list'),
        ({"problem": "factor-r", "weights": [1, 2]}, 'factor-r needs "r"'),
    ], ids=["unknown-problem", "two-set-with-weights", "two-set-without-pairs", "three-element-pair",
            "ssr-without-weights", "ssr-with-pairs", "factor-r-without-r"])
    def test_malformed_instance_fields(self, tmp_path, capsys, fields, message):
        path = write_instance(tmp_path, "bad.json", {"format": 1, **fields})
        for argv in (["solve", path, "--epsilon", "0.5"], ["oracle", path]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: malformed instance file: {message}\n")

    def test_unusable_files_and_r_below_one(self, worked_two_set, tmp_path, capsys):
        doc = {"format": 1, "problem": "factor-r", "weights": [1, 2], "r": "1/2"}
        small_r = write_instance(tmp_path, "r.json", doc)
        cases = [
            (["solve", str(tmp_path / "missing.json"), "--epsilon", "0.5"],
             "error: cannot read instance file: "),
            (["oracle", worked_two_set, "--output", str(tmp_path / "no" / "dir.json")],
             "error: cannot write output file: "),
            (["solve", small_r, "--epsilon", "0.5"], "error: factor r must be >= 1\n"),
        ]
        for argv, prefix in cases:
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and err.count("\n") == 1, (argv, err)
            assert err.startswith(prefix), (argv, err)

    def test_values_past_the_digit_limit_exit_cleanly(self, tmp_path, capsys):
        # Python refuses to print an int of more than 4300 digits: here a sum
        # of 1.8e4300 or 1e4300, r = 9e4300 or epsilon = 1e-4300
        def path(name, **fields):
            return write_instance(tmp_path, f"{name}.json", {"format": 1, **fields})

        ssr = path("ssr", problem="ssr", weights=["9e4299", "9e4299", "1.8e4300"])
        split = path("split", problem="ssr", weights=["1e4300", "6e4299", "4e4299"])
        factor = path("factor", problem="factor-r", weights=[1, 2, 3], r="9e4300")
        small = path("small", problem="ssr", weights=[1, 2, 3])
        one = path("one", problem="two-set", pairs=[[1, 1]])
        output = tmp_path / "out.json"
        for argv in (
            ["solve", ssr, "--epsilon", "1/2"],
            ["solve", ssr, "--epsilon", "1/2", "--trace"],
            ["oracle", split],
            ["solve", split, "--epsilon", "1/2"],
            ["solve", factor, "--epsilon", "1/2"],
            ["solve", small, "--epsilon", "1e-4300"],
            ["solve", one, "--epsilon", "1e-4300", "--output", str(output)],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == "error: cannot print a value of over 4300 digits\n", (argv, err)
        assert not output.exists()

    def test_deep_field_in_solution_fails_cleanly(self, worked_two_set, tmp_path, capsys):
        # nesting that the decoder accepts can still be too deep for `check` to re-encode
        sol = tmp_path / "sol.json"
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", str(sol))
        head = sol.read_text().rstrip()[:-1] + ', "note": '
        limit = sys.getrecursionlimit()
        for depth in range(limit - 300, limit + 1):
            sol.write_text(head + "[" * depth + "]" * depth + "}")
            code, out, err = run(capsys, "check", worked_two_set, str(sol))
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith(("check failed: note is", "error: malformed solution file"))

    def test_epsilon_out_of_range(self, worked_two_set, capsys):
        for bad in ("0", "1", "2", "-0.5"):
            code, _, err = run(capsys, "solve", worked_two_set, "--epsilon", bad)
            assert code == 1 and "epsilon out of range" in err

    def test_nonpositive_weights(self, tmp_path, capsys):
        # JSON literals a weight or r may be written as; true is not 1, a
        # non-positive number is shown as written, and a decimal exponent past
        # 4300 is refused before 10**exponent is built
        path = tmp_path / "bad.json"
        template = '{"format": 1, "problem": "factor-r", "weights": [3, %s], "r": %s}'
        for literal in ("-1", "0", "-3", "-2.50E1", "-1e-400", "true", "false", "NaN", "Infinity",
                        "1e999999999", '"1e-4301"'):
            for text in (template % (literal, 2), template % (2, literal)):
                path.write_text(text, encoding="utf-8")
                code, out, err = run(capsys, "solve", str(path), "--epsilon", "0.5")
                assert code == 1 and out == "" and err.count("\n") == 1, (text, err)
                assert err.startswith("error: "), (text, err)
                if literal[0] in "-0":
                    assert err.endswith(f"must be positive, got {literal}\n"), (text, err)

    def test_missing_format_field(self, tmp_path, capsys):
        path = write_instance(tmp_path, "noformat.json", {"problem": "ssr", "weights": [1, 2]})
        code, _, err = run(capsys, "solve", path, "--epsilon", "0.5")
        assert code == 1 and "format" in err

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_format_must_be_integer_one(self, tmp_path, capsys, version):
        doc = {"format": version, "problem": "ssr", "weights": [1, 2]}
        path = write_instance(tmp_path, "format.json", doc)
        code, out, err = run(capsys, "solve", path, "--epsilon", "0.5")
        assert code == 1 and out == "" and "format" in err

    def test_usage_error_exits_one(self, capsys):
        code, _, _ = run(capsys, "solve")
        assert code == 1

    def test_bench_is_not_a_subcommand(self, capsys):
        # timing lives in perfbench/ and quality against the oracle in
        # demos/approximation_quality.py; `bench` is a usage error
        code, out, err = run(capsys, "bench", "--sizes", "3", "--epsilons", "1e-8")
        assert code == 1 and out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "'bench'" in errors[0], err
        assert "Traceback" not in err

    def test_parser_built_once(self, worked_two_set, capsys):
        assert build_parser() is build_parser()
        assert run(capsys, "solve", worked_two_set, "--epsilon", "1/2")[0] == 0
        code, out, err = run(capsys, "solve")
        assert code == 1 and out == "" and err.count("usage:") == 1

    def test_tiny_epsilon_exits_cleanly(self, tmp_path, capsys):
        # the scaled pivot weight outgrows the DP table's dtype
        path = write_instance(
            tmp_path, "three.json",
            {"format": 1, "problem": "two-set", "pairs": [[1, 2], [3, 4], [5, 6]]},
        )
        code, out, err = run(capsys, "solve", path, "--epsilon", "0.00000001")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


    def test_oversized_table_refused_before_allocation(self, tmp_path, capsys, monkeypatch):
        # pivot 1 scales to cap 1.8e8: an 8 GiB table if it were allocated
        real_full = np.full

        def refuse_large(shape, *args, **kwargs):
            assert np.prod(shape) <= 1 << 24, f"allocation of {shape} requested"
            return real_full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", refuse_large)
        path = write_instance(
            tmp_path, "big.json",
            {"format": 1, "problem": "two-set", "pairs": [[1, 5], [5, 5], [5, 5]]},
        )
        code, out, err = run(capsys, "solve", path, "--epsilon", "0.0000001")
        assert code == 1 and out == ""
        assert err.startswith("error: cannot solve at epsilon 1/10000000: ")
        assert err.count("\n") == 1 and "bytes" in err


class TestOracle:
    def test_optimal(self, worked_two_set, capsys):
        code, out, _ = run(capsys, "oracle", worked_two_set)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal" and doc["ratio"] == "6/5"

    def test_pivot(self, worked_two_set, capsys):
        code, out, _ = run(capsys, "oracle", worked_two_set, "--m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == "4/3" and doc["pivot_m"] == 2

    def test_size_cap(self, tmp_path, capsys):
        doc = {"format": 1, "problem": "two-set", "pairs": [[1, 1]] * 15}
        path = write_instance(tmp_path, "big.json", doc)
        code, _, err = run(capsys, "oracle", str(path))
        assert code == 1 and "too large" in err


class TestCheck:
    def test_solution_files_self_certify(self, tmp_path, capsys):
        for name, doc in (
            ("two.json", {"format": 1, "problem": "two-set", "pairs": [["5", "4"], ["3", "6"]]}),
            ("ssr.json", {"format": 1, "problem": "ssr", "weights": [4, 9, 5]}),
            ("fr.json", {"format": 1, "problem": "factor-r", "weights": [2, 5, 3], "r": "3/2"}),
        ):
            inst = write_instance(tmp_path, name, doc)
            sol = str(tmp_path / (name + ".sol"))
            code, _, _ = run(capsys, "solve", inst, "--epsilon", "0.3", "--output", sol)
            assert code in (0, 2)
            code, out, _ = run(capsys, "check", inst, sol)
            assert code == 0 and out.strip() == "OK"
            code, _, _ = run(capsys, "oracle", inst, "--output", sol)
            assert code in (0, 2)
            code, out, _ = run(capsys, "check", inst, sol)
            assert code == 0 and out.strip() == "OK"
            # the same fields in another order
            doc = json.loads(Path(sol).read_text())
            Path(sol).write_text(json.dumps(dict(reversed(doc.items()))))
            code, out, _ = run(capsys, "check", inst, sol)
            assert code == 0 and out.strip() == "OK"

    def test_second_orientation_builds_no_field_lines(self, tmp_path, capsys, monkeypatch):
        # the answer lies on side b, so only the second orientation's whole
        # text matches; per-field lines are built only when neither does
        inst = write_instance(tmp_path, "b.json",
                              {"format": 1, "problem": "two-set", "pairs": [[4, 5], [6, 3]]})
        sol = str(tmp_path / "b.sol.json")
        assert run(capsys, "solve", inst, "--epsilon", "1/4", "--output", sol)[0] == 0
        assert json.loads(Path(sol).read_text())["s1_side"] == "b"

        def refuse(doc, want):
            raise AssertionError("per-field lines built for a matching file")

        monkeypatch.setattr(cli, "_field_problems", refuse)
        assert run(capsys, "check", inst, sol) == (0, "OK\n", "")

    def test_tampered_ratio_fails(self, worked_two_set, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", sol)
        doc = json.loads(Path(sol).read_text())
        doc["ratio"] = "7/5"
        Path(sol).write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", worked_two_set, sol)
        assert code == 1 and err == 'check failed: ratio is "7/5", expected "6/5"\n'

    def test_tampered_sets_fail(self, worked_two_set, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", sol)
        doc = json.loads(Path(sol).read_text())
        doc["s1"] = [2]
        Path(sol).write_text(json.dumps(doc))
        code, _, _ = run(capsys, "check", worked_two_set, sol)
        assert code == 1

    def test_ratio_beyond_float_range_round_trips(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path, "huge.json", {"format": 1, "problem": "ssr", "weights": ["1e400", 1]}
        )
        sol = str(tmp_path / "huge.sol")
        code, _, _ = run(capsys, "solve", inst, "--epsilon", "0.5", "--output", sol)
        assert code == 0
        doc = json.loads(Path(sol).read_text())
        assert doc["ratio"] == "1" + "0" * 400 and doc["ratio_decimal"] is None
        code, out, _ = run(capsys, "check", inst, sol)
        assert code == 0 and out.strip() == "OK"

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_non_integer_format_fails(self, worked_two_set, tmp_path, capsys, version):
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", sol)
        doc = json.loads(Path(sol).read_text())
        doc["format"] = version
        Path(sol).write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", worked_two_set, sol)
        assert code == 1 and out == "" and "format" in err

    def test_null_ratio_decimal_needs_overflow(self, worked_two_set, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", sol)
        doc = json.loads(Path(sol).read_text())
        doc["ratio_decimal"] = None
        Path(sol).write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", worked_two_set, sol)
        assert code == 1 and "ratio_decimal" in err

    def test_garbage_fields_fail_cleanly(self, worked_two_set, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", worked_two_set, "--epsilon", "0.5", "--output", sol)
        for field, value in (("sum1", "not-a-number"), ("s1_side", None), ("s1_side", 3)):
            doc = json.loads(Path(sol).read_text())
            doc[field] = value
            Path(sol).write_text(json.dumps(doc))
            code, _, err = run(capsys, "check", worked_two_set, sol)
            assert code == 1 and err


    TAMPERED = [
        (None, {"pivot_used": 3, "epsilon": "9/10", "bound": "19/10",
                "stats": {"pivots_evaluated": -5, "dp_cell_ops": "x"}}),
        (None, {"pivot_used": 3}),
        (None, {"pivot_used": 99}),
        (None, {"pivot_used": None}),
        (None, {"pivot_used": True}),
        (None, {"stats": [4, 0]}),
        (None, {"stats": {"pivots_evaluated": 5, "dp_cell_ops": 0}}),
        (None, {"stats": {"pivots_evaluated": 4, "dp_cell_ops": 0, "wall_time_ms": -1}}),
        # 5 + 5 against 3 + 7 holds every other claim, but index 2 counts twice
        ([3, 5, 7, 9], {"s1": [2, 2], "s2": [1, 3], "sum1": "10", "sum2": "10",
                        "ratio": "1", "pivot_used": 2}),
        # 5 + 7 against 3 + 9, with index 1 written as true
        ([3, 5, 7, 9], {"s1": [2, 3], "s2": [True, 4], "sum1": "12", "sum2": "12",
                        "ratio": "1", "pivot_used": 3}),
        (None, {"stats": {"pivots_evaluated": 4, "dp_cell_ops": 0, "foo": 1}}),
    ]

    @pytest.mark.parametrize(
        "ssr_weights, edits", TAMPERED, ids=[f"edits{k}" for k in range(len(TAMPERED))]
    )
    def test_tampered_pivot_and_stats_fail(
        self, worked_two_set, tmp_path, capsys, ssr_weights, edits
    ):
        inst = worked_two_set
        if ssr_weights is not None:
            inst = write_instance(
                tmp_path, "ssr.json", {"format": 1, "problem": "ssr", "weights": ssr_weights}
            )
        sol = str(tmp_path / "sol.json")
        run(capsys, "solve", inst, "--epsilon", "0.5", "--timings", "--output", sol)
        assert run(capsys, "check", inst, sol)[0] == 0
        doc = json.loads(Path(sol).read_text())
        doc.update(edits)
        Path(sol).write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", inst, sol)
        assert code == 1 and out == "" and err.startswith("check failed:")

    DROP = object()  # an edit that deletes the field
    FACTOR_R = {"format": 1, "problem": "factor-r", "weights": [2, 5, 3], "r": "3/2"}
    INFEASIBLE = {"format": 1, "problem": "two-set", "pairs": [[1, 1]]}
    # solve writes s1 [2, 3], s2 [1, 4], sums 12 and pivot_used 3 (weight 7)
    SSR = {"format": 1, "problem": "ssr", "weights": [3, 5, 7, 9]}
    EDITED = [
        (FACTOR_R, {"r": "5"}),
        (FACTOR_R, {"r": [1]}),
        (FACTOR_R, {"r": DROP}),
        (INFEASIBLE, {"epsilon": "x", "bound": "99"}),
        (INFEASIBLE, {"sum1": "7", "ratio_decimal": 3.5}),
        (INFEASIBLE, {"s1_side": "a"}),
        ({"format": 1, "problem": "factor-r", "weights": [4], "r": "5/4"}, {"r_multiplied": "s1"}),
        (SSR, {"note": "x"}),
        (SSR, {"s1": [3, 2]}),
        (SSR, {"sum1": "12.0"}),
        (SSR, {"epsilon": "0.5", "bound": "1.5"}),
        (SSR, {"r": "2"}),
        (SSR, {"r_multiplied": "s1"}),
        (SSR, {"s1_side": "a"}),
        (SSR, {"pivot_m": 3}),
    ]

    @pytest.mark.parametrize(
        "instance, edits", EDITED, ids=[f"edited{k}" for k in range(len(EDITED))]
    )
    def test_edited_r_and_infeasible_fields_fail(self, tmp_path, capsys, instance, edits):
        inst = write_instance(tmp_path, "inst.json", instance)
        sol = tmp_path / "sol.json"
        assert run(capsys, "solve", inst, "--epsilon", "1/2", "--output", str(sol))[0] in (0, 2)
        assert run(capsys, "check", inst, str(sol))[0] == 0
        doc = dict(json.loads(sol.read_text()), **edits)
        sol.write_text(json.dumps({k: v for k, v in doc.items() if v is not self.DROP}))
        code, out, err = run(capsys, "check", inst, str(sol))
        assert code == 1 and out == "" and err

    ORACLE_EDITED = [
        {"pivot_used": 1},
        {"epsilon": "1/2", "bound": "3/2"},
        {"trace": []},
        {"stats": {"pivots_evaluated": 0, "dp_cell_ops": 0, "wall_time_ms": 1.0}},
    ]

    @pytest.mark.parametrize(
        "edits", ORACLE_EDITED, ids=[f"oracle_edited{k}" for k in range(len(ORACLE_EDITED))]
    )
    def test_edited_oracle_fields_fail(self, tmp_path, capsys, edits):
        inst = write_instance(tmp_path, "inst.json", self.SSR)
        sol = tmp_path / "sol.json"
        assert run(capsys, "oracle", inst, "--output", str(sol))[0] == 0
        assert run(capsys, "check", inst, str(sol))[0] == 0
        sol.write_text(json.dumps(dict(json.loads(sol.read_text()), **edits)))
        code, out, err = run(capsys, "check", inst, str(sol))
        assert code == 1 and out == "" and err.startswith("check failed:")

    @pytest.mark.parametrize("pivot_m", [99, "x", None, 4])
    def test_tampered_pivot_m_fails(self, tmp_path, capsys, pivot_m):
        inst = write_instance(
            tmp_path, "four.json",
            {"format": 1, "problem": "two-set", "pairs": [[5, 4], [3, 6], [8, 2], [7, 7]]},
        )
        sol = str(tmp_path / "sol.json")
        assert run(capsys, "oracle", inst, "--m", "1", "--output", sol)[0] == 0
        assert run(capsys, "check", inst, sol)[0] == 0
        doc = json.loads(Path(sol).read_text())
        # with 4 the smaller set maximum is 5, but encoded element 4 weighs 7
        doc["pivot_m"] = pivot_m
        Path(sol).write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", inst, sol)
        assert code == 1 and out == "" and err.startswith("check failed:") and "pivot_m" in err

    def test_pivot_claim_matches_scaled_vector(self):
        # check's verdict on every rewritten pivot_used against the claim on
        # scale_instance's full vector: the smaller set maximum scales to the
        # pivot's scaled weight
        rng = random.Random(0x5CA1E)
        instances = [
            # at epsilon 9/10, 100 and 101 floor alike at pivot 100 (delta
            # 7.5), and 40 and 41 at pivot 41 (delta 3.075)
            {"problem": "ssr", "encoded": encode_ssr_weights([100, 101, 201])},
            {"problem": "two-set", "encoded": TwoSetInstance.from_pairs([(40, 41), (81, 1)])},
        ]
        for _ in range(12):
            n = rng.randint(2, 6)
            weights = [Fraction(rng.randint(1, 60), rng.randint(1, 4)) for _ in range(2 * n)]
            instances.append({"problem": "two-set",
                              "encoded": TwoSetInstance.from_pairs(zip(weights[:n], weights[n:]))})
            instances.append({"problem": "ssr", "encoded": encode_ssr_weights(weights[:n])})
            for r in (Fraction(1), Fraction(3, 2), Fraction(7, 3)):
                instances.append({"problem": "factor-r", "r": r,
                                  "encoded": encode_factor_r_weights(weights[n:], r)})
        verdicts = {True: 0, False: 0}
        merged = 0
        for instance, eps in product(instances, (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))):
            encoded = instance["encoded"]
            result = fptas_solve(encoded, eps)
            sol = result.solution
            if sol.is_empty:
                continue
            stats = {"pivots_evaluated": result.pivots_evaluated, "dp_cell_ops": result.dp_cell_ops}
            for k in range(1, 2 * encoded.n + 1):
                doc = build_solution_doc(instance, sol, "fptas", result.status,
                                         epsilon=eps, pivot_used=k, stats=stats)
                problems = verify_solution(instance, doc)
                claim = f"the smaller set maximum does not scale to pivot {k}"
                assert problems in ([], [claim]), (instance, eps, k, problems)
                scaled = scale_instance(encoded.weights, k, eps)
                want = min(max(scaled[i - 1] for i in side) for side in (sol.s1, sol.s2))
                accepted = want == scaled[k - 1]
                assert (not problems) == accepted, (instance, eps, k)
                verdicts[accepted] += 1
                smaller_max = min(max(encoded.weights[i - 1] for i in side) for side in (sol.s1, sol.s2))
                merged += accepted and smaller_max != encoded.weights[k - 1]
        assert verdicts[True] > 0 and verdicts[False] > 0 and merged > 0

    def test_oracle_stats_must_be_zero(self, worked_two_set, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        run(capsys, "oracle", worked_two_set, "--output", sol)
        doc = json.loads(Path(sol).read_text())
        doc["stats"]["dp_cell_ops"] = 7
        Path(sol).write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", worked_two_set, sol)
        assert code == 1 and "stats" in err


def test_emit_refuses_non_json_floats(capsys):
    with pytest.raises(ValueError):
        _emit({"ratio_decimal": math.inf}, None)
    assert capsys.readouterr().out == ""


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path, capsys):
        inst = write_instance(
            tmp_path, "det.json",
            {"format": 1, "problem": "two-set",
             "pairs": [[7, 9], [3, 14], [11, 2], [5, 5]]},
        )
        outputs = []
        for run_index in range(3):
            out_path = tmp_path / f"out{run_index}.json"
            code = main(["solve", inst, "--epsilon", "0.3", "--output", str(out_path)])
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
