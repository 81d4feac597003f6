"""Span tracer that times ssratio layers from outside the package.

`Tracer.installed()` replaces selected ssratio callables with timing
wrappers and puts the originals back on exit.  A function is replaced at
every ssratio module attribute bound to it, so calls made through names
imported elsewhere (`cli.fptas_solve`, `fptas.exact_solver`) are seen too.
Spans stay in memory as [id, name, start, end, parent id, instance, info]
and are written out once, at the end of a run.  Module names are the layers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "ssratio"
# (module, class or None, attribute): the layer boundaries that are timed.
TARGETS = (
    ("cli", None, "build_parser"),
    ("cli", None, "load_instance"),
    ("cli", None, "build_solution_doc"),
    ("cli", None, "_emit"),
    ("cli", None, "verify_solution"),
    ("reductions", None, "encode_ssr_weights"),
    ("reductions", None, "encode_factor_r_weights"),
    ("reductions", None, "decode"),
    ("fptas", None, "fptas_solve"),
    ("fptas", None, "scale_instance"),
    ("semi_restricted", None, "exact_solver"),
    ("semi_restricted", "DifferenceTable", "__init__"),
    ("semi_restricted", "DifferenceTable", "best_cell"),
    ("semi_restricted", "DifferenceTable", "reconstruct"),
    ("core", "SolutionPair", "from_sets"),
    ("oracle", None, "brute_force_two_set"),
)


def _counter(args, kwargs, position):
    return args[position] if len(args) > position else kwargs.get("counter")


def _cells_before(position):
    def before(args, kwargs, info):
        counter = _counter(args, kwargs, position)
        info["c0"] = counter.cells if counter is not None else None
    return before


def _cells_after(args, kwargs, result, info, position=2):
    counter = _counter(args, kwargs, position)
    c0 = info.pop("c0")
    info["cells"] = counter.cells - c0 if c0 is not None else 0


def _table_after(args, kwargs, result, info):
    _cells_after(args, kwargs, result, info, position=5)
    table = args[0]
    key = repr((table.weights, table.near, table.pivot_weight)).encode()
    info["key"] = hashlib.blake2b(key, digest_size=12).hexdigest()
    info["bytes"] = table.n * 4 * table.width   # uint8 decision codes, computed


def _fptas_after(args, kwargs, result, info):
    info["pivots"] = result.pivots_evaluated


def _oracle_before(args, kwargs, info):
    info["states"] = 3 ** args[0].n


_HOOKS = {
    # exact_solver(weights, m, counter); DifferenceTable.__init__(self, weights, n, near,
    # pivot_weight, counter)
    "semi_restricted.exact_solver": (_cells_before(2), _cells_after),
    "semi_restricted.DifferenceTable.__init__": (_cells_before(5), _table_after),
    "fptas.fptas_solve": (None, _fptas_after),
    "oracle.brute_force_two_set": (_oracle_before, None),
}


class Tracer:
    """Spans of one traced pass; `instance` tags the spans of the case
    being run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, info: dict | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, self.instance, info]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, func):
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            info = {} if before or after else None
            if before:
                before(args, kwargs, info)
            with tracer.span(name, info):
                result = func(*args, **kwargs)
            if after:
                after(args, kwargs, result, info)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        try:
            for module_name, class_name, attr in TARGETS:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if class_name is not None:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    name = f"{module_name}.{class_name}.{attr}"
                    if isinstance(original, classmethod):
                        self._patch(owner, attr, classmethod(self._wrap(name, original.__func__)))
                    else:
                        self._patch(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(f"{module_name}.{attr}", original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, instances: dict[str, str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "instance", "info"],
                       "instances": instances, "spans": self.spans}, fh)


def layer_metrics(spans: list[list], problem_of: dict[str, str]) -> dict[str, tuple]:
    """Per-layer totals from one traced pass, as {name: (value, unit)}.
    `problem_of` maps instance ids to their problem kind so table reuse
    can be split by kind.  A layer's self time is its span minus its
    child spans."""
    dur = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    child = defaultdict(float)
    root = {}
    for sid, name, start, end, parent, _, _ in spans:
        root[sid] = sid if parent is None else root[parent]
        if parent is not None:
            child[parent] += end - start
    for sid, name, start, end, parent, _, _ in spans:
        dur[name] += end - start
        self_time[name] += end - start - child[sid]
        count[name] += 1

    cells = table_cells = table_bytes = pivots = states = 0
    built_by = defaultdict(int)
    distinct_by = defaultdict(set)
    solve_overhead = solve_fill = 0.0
    overhead_names = {"cli.build_parser", "cli.load_instance", "cli.build_solution_doc",
                      "cli._emit", "fptas.scale_instance"}
    for sid, name, start, end, parent, instance, info in spans:
        request = spans[root[sid]][1]
        if name == "semi_restricted.exact_solver":
            cells += info["cells"]
        elif name == "semi_restricted.DifferenceTable.__init__":
            table_cells += info["cells"]
            table_bytes += info["bytes"]
            kind = problem_of[instance]
            built_by[kind] += 1
            distinct_by[kind].add((root[sid], info["key"]))
            if request == "request.solve":
                solve_fill += end - start
        elif name == "fptas.fptas_solve":
            pivots += info["pivots"]
        elif name == "oracle.brute_force_two_set":
            states += info["states"]
        if request == "request.solve" and name in overhead_names:
            solve_overhead += end - start

    built = count["semi_restricted.DifferenceTable.__init__"]
    tables_distinct = sum(len(keys) for keys in distinct_by.values())
    fill_s = dur["semi_restricted.DifferenceTable.__init__"]
    solve_s = dur["request.solve"]

    def share(part, whole):
        return part / whole if whole else 0.0

    seconds = {
        "cli.parser_s": dur["cli.build_parser"],
        "cli.load_s": dur["cli.load_instance"],
        "cli.emit_s": dur["cli.build_solution_doc"] + dur["cli._emit"],
        "cli.verify_s": dur["cli.verify_solution"],
        "reductions.encode_s": dur["reductions.encode_ssr_weights"]
        + dur["reductions.encode_factor_r_weights"],
        "reductions.decode_s": dur["reductions.decode"],
        "fptas.solve_s": dur["fptas.fptas_solve"],
        "fptas.self_s": self_time["fptas.fptas_solve"],
        "fptas.scale_s": dur["fptas.scale_instance"],
        "semi_restricted.exact_s": dur["semi_restricted.exact_solver"],
        "semi_restricted.self_s": self_time["semi_restricted.exact_solver"],
        "semi_restricted.fill_s": fill_s,
        "semi_restricted.best_cell_s": dur["semi_restricted.DifferenceTable.best_cell"],
        "semi_restricted.reconstruct_s": dur["semi_restricted.DifferenceTable.reconstruct"],
        "core.evaluate_s": dur["core.SolutionPair.from_sets"],
        "oracle.enum_s": dur["oracle.brute_force_two_set"],
    }
    counts = {
        "fptas.scale_calls": count["fptas.scale_instance"],
        "fptas.pivots": pivots,
        "fptas.exact_calls": count["semi_restricted.exact_solver"],
        "semi_restricted.cells": cells,
        "semi_restricted.tables_built": built,
        "semi_restricted.tables_distinct": tables_distinct,
        "oracle.states": states,
    }
    ratios = {
        "fptas.dedup_ratio": share(count["semi_restricted.exact_solver"], pivots),
        "semi_restricted.table_reuse_ratio": share(tables_distinct, built),
        "semi_restricted.table_reuse_ratio_ssr": share(len(distinct_by["ssr"]), built_by["ssr"]),
        "semi_restricted.table_reuse_ratio_factor_r": share(
            len(distinct_by["factor-r"]), built_by["factor-r"]),
        "solve.fill_share": share(solve_fill, solve_s),
        "solve.overhead_share": share(solve_overhead, solve_s),
    }
    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    metrics["semi_restricted.mcells_per_s"] = (share(table_cells, fill_s) / 1e6, "Mcell/s")
    metrics["semi_restricted.table_mb_computed"] = (table_bytes / 1e6, "MB")
    return metrics
