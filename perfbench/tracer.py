"""Spans around calls into lrq's layers, installed from outside the package.

Each wrapped call appends one span (name, parent, start, end) to flat arrays
kept in memory; `write` saves them when the run ends.  A span's self time is
its duration minus the durations of its direct children, which nest inside
it because the benchmark runs one thread.

Names bound at import time are rebound too: `from .x import f` copies in
other lrq modules, and closure cells such as the one `bilinear_extend(star_h)`
keeps for `hopfops.star_h_sum`.  Otherwise calls through them would bypass
the tracer and the counts would not match `cache_info()`.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import update_wrapper
from pathlib import Path

# (metric prefix, lrq module, attribute path).  A dotted path names a method,
# which is patched on its class.
TARGETS = (
    ("complexes.matrix_rank", "complexes", "matrix_rank"),
    ("complexes.d_h_graph", "complexes", "d_h_graph"),
    ("complexes.cohomology_dim", "complexes", "cohomology_dim"),
    ("loopgraphs.LoopGraph.new", "loopgraphs", "LoopGraph.__init__"),
    ("loopgraphs.loop_slots", "loopgraphs", "loop_slots"),
    ("loopgraphs.is_regular", "loopgraphs", "is_regular"),
    ("loopgraphs.contract", "loopgraphs", "contract"),
    ("loopgraphs.enumerate_graphs", "loopgraphs", "enumerate_graphs"),
    ("freemodule.LinComb.init", "freemodule", "LinComb.__init__"),
    ("freemodule.LinComb.add", "freemodule", "LinComb.__add__"),
    ("freemodule.LinComb.map_basis", "freemodule", "LinComb.map_basis"),
    ("hopfops.star_h", "hopfops", "star_h"),
    ("hopfops.delta_h", "hopfops", "delta_h"),
    ("hopfops.antipode", "hopfops", "_antipode"),
    ("subalgebras.psi_word", "subalgebras", "psi_word"),
    ("subalgebras.project_regular", "subalgebras", "project_regular"),
    ("airy.airy_correlator", "airy", "airy_correlator"),
    ("airy.residue_at_zero", "airy", "residue_at_zero"),
    ("airy.LaurentPoly.mul", "airy", "LaurentPoly.__mul__"),
    ("airy.QSeries.mul", "airy", "QSeries.__mul__"),
    ("airy.kernel_series", "airy", "kernel_series"),
    ("exprs.parse", "exprs", "parse"),
    ("cli.run", "cli", "run"),
    ("permutations.split", "permutations", "split"),
    ("permutations.star_perm", "permutations", "star_perm"),
)

# The span of the tracer's own matrix_rank shape statistics; not reported.
STATS_SPAN = "trace.matrix_stats"

# Every lru_cache whose hits and misses are reported.
CACHES = {
    "star_h": ("hopfops", "star_h"),
    "delta_h": ("hopfops", "delta_h"),
    "antipode": ("hopfops", "_antipode"),
    "graphs": ("loopgraphs", "_graphs"),
    "trees": ("trees", "_trees"),
}
# Traced memoized functions -> their cache.  Their traced calls must equal
# cache_info() hits + misses.
MEMOIZED = {"hopfops.star_h": "star_h", "hopfops.delta_h": "delta_h",
            "hopfops.antipode": "antipode"}

# Per-layer metrics reported by a traced run: name -> unit.
CALLS_AND_SELF = (
    "complexes.matrix_rank", "complexes.d_h_graph", "loopgraphs.LoopGraph.new",
    "loopgraphs.loop_slots", "loopgraphs.is_regular", "loopgraphs.contract",
    "freemodule.LinComb.init", "freemodule.LinComb.add",
    "freemodule.LinComb.map_basis", "hopfops.star_h", "hopfops.delta_h",
    "hopfops.antipode", "subalgebras.psi_word", "subalgebras.project_regular",
    "airy.airy_correlator", "airy.LaurentPoly.mul", "airy.QSeries.mul",
    "exprs.parse", "permutations.split", "permutations.star_perm",
)
SELF_ONLY = ("complexes.cohomology_dim", "loopgraphs.enumerate_graphs",
             "airy.kernel_series", "cli.run")


def metric_units() -> dict[str, str]:
    units = {}
    for name in CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for name in MEMOIZED:
        units[f"{name}.misses"] = "count"
    units["airy.airy_correlator.misses"] = "count"
    units["hopfops.star_h.hit_ratio"] = "ratio"
    for stat in ("rows", "cols", "nnz"):
        units[f"complexes.matrix_rank.{stat}"] = "count"
    units["complexes.matrix_rank.density"] = "ratio"
    units["airy.residues_per_correlator"] = "ratio"
    for cache in CACHES:
        units[f"cache.{cache}.hits"] = "count"
        units[f"cache.{cache}.misses"] = "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Wraps TARGETS in lrq's modules; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = [prefix for prefix, _, _ in TARGETS] + [STATS_SPAN]
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.matrix = {"rows": 0, "cols": 0, "nnz": 0, "cells": 0}
        self._undo: list = []
        self._caches: dict = {}

    def _wrap(self, index: int, fn):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        update_wrapper(traced, fn)
        return traced

    def _wrap_matrix_rank(self, index: int, fn):
        inner = self._wrap(index, fn)
        m = self.matrix

        def matrix_stats(rows):
            if rows and rows[0]:
                m["rows"] += len(rows)
                m["cols"] += len(rows[0])
                m["cells"] += len(rows) * len(rows[0])
                m["nnz"] += sum(1 for row in rows for x in row if x)

        # The statistics pass has a span of its own, so that its time is
        # taken out of the caller's self time and is not counted anywhere.
        stats = self._wrap(self.names.index(STATS_SPAN), matrix_stats)

        def traced(rows):
            stats(rows)
            return inner(rows)

        update_wrapper(traced, fn)
        return traced

    def install(self) -> None:
        import importlib

        # Cache objects are read through the originals, before rebinding.
        self._caches = {
            cache: getattr(importlib.import_module(f"lrq.{modname}"), attr)
            for cache, (modname, attr) in CACHES.items()
        }
        originals = {}  # id(original function) -> (original, wrapper)
        for index, (prefix, modname, path) in enumerate(TARGETS):
            module = importlib.import_module(f"lrq.{modname}")
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if prefix == "complexes.matrix_rank":
                wrapper = self._wrap_matrix_rank(index, fn)
            else:
                wrapper = self._wrap(index, fn)
            if isinstance(owner, type):
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                originals[id(fn)] = (fn, wrapper)
        # Rebind every module global and closure cell that holds an original.
        lrq_modules = [m for n, m in list(sys.modules.items())
                       if (n == "lrq" or n.startswith("lrq.")) and m is not None]
        for module in lrq_modules:
            for name, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, name, value))
                    setattr(module, name, hit[1])
                for cell in getattr(value, "__closure__", None) or ():
                    try:
                        content = cell.cell_contents
                    except ValueError:  # empty cell
                        continue
                    hit = originals.get(id(content))
                    if hit is not None and hit[0] is content:
                        self._undo.append((cell, "cell_contents", content))
                        cell.cell_contents = hit[1]

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of every reported lru_cache."""
        return {c: tuple(fn.cache_info()[:2]) for c, fn in self._caches.items()}

    def totals(self) -> tuple[list[int], list[float]]:
        """Calls and self time per TARGETS index."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, k in enumerate(self.name_of):
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """Save the spans: a JSON header and the four arrays, back to back."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(f)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter, seconds",
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def layer_metrics(tracer: Tracer, cache_before: dict, cache_after: dict,
                  airy_computed: int, slowdown: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, with self times divided by the
    host's slowdown into reference seconds (hostspeed.py).  trace.overhead_s
    is added by the caller, which also has the untraced time."""
    calls, self_s = tracer.totals()
    by_name = {name: (calls[i], self_s[i]) for i, name in enumerate(tracer.names)}
    out: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = by_name[name][0]
        out[f"{name}.self_s"] = by_name[name][1] / slowdown
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = by_name[name][1] / slowdown
    delta = {c: (cache_after[c][0] - cache_before[c][0], cache_after[c][1] - cache_before[c][1])
             for c in CACHES}
    for cache, (hits, misses) in delta.items():
        out[f"cache.{cache}.hits"] = hits
        out[f"cache.{cache}.misses"] = misses
    for name, cache in MEMOIZED.items():
        out[f"{name}.misses"] = delta[cache][1]
    looked_up = sum(delta["star_h"])
    out["hopfops.star_h.hit_ratio"] = delta["star_h"][0] / looked_up if looked_up else 0.0
    m = tracer.matrix
    out["complexes.matrix_rank.rows"] = m["rows"]
    out["complexes.matrix_rank.cols"] = m["cols"]
    out["complexes.matrix_rank.nnz"] = m["nnz"]
    out["complexes.matrix_rank.density"] = m["nnz"] / m["cells"] if m["cells"] else 0.0
    out["airy.airy_correlator.misses"] = airy_computed
    residues = by_name["airy.residue_at_zero"][0]
    out["airy.residues_per_correlator"] = residues / airy_computed if airy_computed else 0.0
    out["trace.spans"] = len(tracer.start)
    return out
