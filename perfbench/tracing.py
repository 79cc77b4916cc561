"""In-memory spans around every public call into the gridlc layer modules.

A traced run wraps each public function and public static method of the
layer modules under every name its callers look it up by: the defining
module, each other gridlc module that imported it (``gridlc.slicing.grid``
for example) and the package itself.  Each call becomes one span
``[name, layer, start, end, parent, attrs]``; a few calls also record
counts at the same boundary.  Spans stay in memory until the run ends.
Only a traced run installs the wrappers, and it removes them afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("graph", "superline", "slicing", "formula", "fileio", "cli")
NAME, LAYER, START, END, PARENT, ATTRS = range(6)
MB = 2**20


def lex_rank(combo, n: int) -> int:
    """Position of a sorted r-subset of range(n) in lexicographic order."""
    r = len(combo)
    rank, previous = 0, -1
    for i, value in enumerate(combo):
        rank += sum(math.comb(n - 1 - v, r - 1 - i) for v in range(previous + 1, value))
        previous = value
    return rank


def _count_build(args, graph):
    return {"edges": graph.edge_count, "mask_bits": sum(m.bit_length() for m in graph.edge_adjacency)}


def _count_level(args, pair):
    edge_count, r = args["g"].edge_count, args["r"]
    size = math.comb(edge_count, r)
    if pair is None:
        return {"r": r, "subsets": size, "needed": size, "hit": 0}
    # The scan decides outer subsets in lexicographic order and stops at the
    # first one with a partner, which is the witness's S.
    return {"r": r, "subsets": size, "needed": lex_rank(pair.S.indices(), edge_count) + 1, "hit": 1}


def _count_materialise(args, result):
    subsets = math.comb(args["g"].edge_count, args["r"])
    return {"pairs": subsets * (subsets - 1) // 2}


def _count_verify(args, report):
    slicing = args["slicing"]
    return {"endpoint_pairs": slicing.A.cardinality * slicing.B.cardinality}


def _count_write(args, result):
    return {"bytes": os.path.getsize(args["path"])}


COUNTERS = {
    "Graph.from_edges": _count_build,
    "find_nonadjacent_pair": _count_level,
    "super_line_graph": _count_materialise,
    "verify_slicing": _count_verify,
    "write_edge_list": _count_write,
    "write_label_table": _count_write,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span for one benchmark operation."""
        span = self._open(label, "bench")
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span[ATTRS] = counter(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, raw in list(vars(obj).items()):
                        if isinstance(raw, staticmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(layer, f"{name}.{attr}", raw.__func__)
                            self._patch(obj, attr, staticmethod(wrapped))
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def _roots(self) -> list[int]:
        """Index of the root (operation) span above every span."""
        roots = []
        for k, span in enumerate(self.spans):
            roots.append(k if span[PARENT] < 0 else roots[span[PARENT]])
        return roots

    def _runs(self, roots: list[int]) -> dict[str, int]:
        """How many times each operation ran."""
        runs = defaultdict(int)
        for k, root in enumerate(roots):
            if k == root:
                runs[self.spans[k][NAME]] += 1
        return runs

    def calls(self, name: str):
        """``(operation label, runs of it, attrs)`` for every span of the named call."""
        roots = self._roots()
        runs = self._runs(roots)
        labels = [self.spans[root][NAME] for root in roots]
        return [(labels[k], runs[labels[k]], span[ATTRS] or {}) for k, span in enumerate(self.spans) if span[NAME] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for k, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": k, "name": name, "layer": layer, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for one run of every operation.

        A sweep may repeat short operations, so each operation's totals are
        divided by the number of times it ran; counts then repeat exactly.
        A layer's self time is its spans' durations minus the time their
        child spans cover.  A named call's time is inclusive and counts only
        calls not nested inside a call of the same layer, so ``best_slicing``
        is not counted again through the ``slice_grid`` calls it makes.
        """
        spans = self.spans
        roots = self._roots()
        runs = self._runs(roots)
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals = defaultdict(lambda: defaultdict(float))
        for k, (name, layer, start, end, parent, attrs) in enumerate(spans):
            if layer not in LAYERS:
                continue
            total = totals[spans[roots[k]][NAME]]
            duration = end - start
            total["self", layer] += duration - child[k]
            total["calls", name] += 1
            if parent < 0 or spans[parent][LAYER] != layer:
                total["outer", name] += duration
                total["layer", layer] += duration
            for key, value in (attrs or {}).items():
                total[name, key] += value
            if name == "find_nonadjacent_pair" and attrs:
                total["scan", attrs["hit"]] += duration
        per_run = defaultdict(float)
        for label, total in totals.items():
            for key, value in total.items():
                per_run[key] += value / runs[label]

        def inclusive(*names):
            return sum(per_run["outer", n] for n in names)

        scanned = per_run["scan", 0] + per_run["scan", 1]
        subsets = per_run["find_nonadjacent_pair", "subsets"]
        metrics = {f"{layer}.self_s": per_run["self", layer] for layer in LAYERS}
        metrics.update({
            "graph.build_s": per_run["layer", "graph"],
            "graph.builds": per_run["calls", "Graph.from_edges"],
            "graph.edges_built": per_run["Graph.from_edges", "edges"],
            "graph.mask_mb": per_run["Graph.from_edges", "mask_bits"] / 8 / MB,
            "superline.scan_incomplete_s": per_run["scan", 1],
            "superline.scan_complete_s": per_run["scan", 0],
            "superline.levels": per_run["calls", "find_nonadjacent_pair"],
            "superline.level_subsets": subsets,
            "superline.ns_per_subset": scanned / subsets * 1e9 if subsets else 0.0,
            "superline.needed_share": per_run["find_nonadjacent_pair", "needed"] / subsets if subsets else 0.0,
            "superline.materialise_s": inclusive("super_line_graph"),
            "superline.pairs_tested": per_run["super_line_graph", "pairs"],
            "slicing.slice_s": inclusive("best_slicing", "slice_grid"),
            "slicing.codec_s": inclusive("slicing_to_dict", "slicing_from_dict"),
            "slicing.verify_s": inclusive("verify_slicing"),
            "slicing.endpoint_pairs": per_run["verify_slicing", "endpoint_pairs"],
            "formula.calls": per_run["calls", "lc_grid_formula"] + per_run["calls", "lc_path_formula"],
            "formula.s": inclusive("lc_grid_formula", "lc_path_formula"),
            "fileio.read_s": inclusive("read_edge_list", "parse_edge_list"),
            "fileio.write_s": inclusive("write_edge_list", "write_label_table", "format_edge_list", "format_label_table"),
            "fileio.bytes_written": per_run["write_edge_list", "bytes"] + per_run["write_label_table", "bytes"],
            "cli.main_s": inclusive("main"),
        })
        return metrics
