"""Spans around the program's public functions, installed from outside it.

``Tracer.install`` replaces every binding of each function in ``WRAPPED``
across the loaded ``taxicab_ca`` modules (``tca`` is bound in ``taxicab``,
``cli`` and ``ca_classic``, for example) with a wrapper that records the
span name, start, end, parent span and a few counts.  ``uninstall`` puts the
originals back, so untraced rounds run the program untouched.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from math import comb, factorial

PACKAGE = "taxicab_ca"

# span name -> layer its self time is charged to; the span name is
# "<module>.<attribute path>" inside the package.
WRAPPED = {
    "cli.run": "cli.self",
    "io.parse_counts_csv": "io.parse",
    "io.parse_tensor": "io.parse",
    "io.load_tensor": "io.parse",
    "residual.from_counts": "residual.build",
    "residual.correspondence_residual": "residual.build",
    "residual.triple_center": "residual.build",
    "taxicab.tca": "taxicab.tca",
    "taxicab.norm_exact": "taxicab.norm_exact",
    "taxicab.norm_heuristic": "taxicab.norm_heuristic",
    "taxicab.deflate": "taxicab.deflate",
    "taxicab.seriate": "taxicab.seriate",
    "taxicab.rc_axis": "taxicab.seriate",
    "taxicab.cut_norm_matrix": "taxicab.seriate",
    "tensor.tensor_norm_exact": "tensor.exact",
    "tensor.tensor_norm_heuristic": "tensor.heuristic",
    "tensor.octant_report": "tensor.octant",
    "clustering.maximize": "clustering",  # split by the method that ran
    "ca_classic.jacobi_svd": "ca_classic.svd",
    "ca_classic.ca": "ca_classic.ca",
    "ca_classic.compare_ca_tca": "ca_classic.compare",
    "dispersion.relative_contributions": "dispersion.contributions",
    "reports.build_tca_report": "reports.build",
    "reports.build_ca_report": "reports.build",
    "reports.build_dispersion_report": "reports.build",
    "reports.build_compare_report": "reports.build",
    "reports.build_seriation_report": "reports.build",
    "reports.build_cluster_report": "reports.build",
    "reports.build_tensor_report": "reports.build",
    "reports.AnalysisReport.to_json": "reports.to_json",
    "svg.render_map": "svg.render",
}

COMMANDS = ("dispersion", "tca", "ca", "compare", "seriate", "cluster", "tensor")

# (name, unit, better) of every per-layer metric, in print order
PER_LAYER = [
    ("io.parse_s", "s", "lower"),
    ("io.cells_per_s", "1/s", "higher"),
    ("residual.build_s", "s", "lower"),
    ("taxicab.tca_s", "s", "lower"),
    ("taxicab.norm_exact_s", "s", "lower"),
    ("taxicab.enum_candidates_per_s", "1/s", "higher"),
    ("taxicab.norm_heuristic_s", "s", "lower"),
    ("taxicab.deflate_s", "s", "lower"),
    ("taxicab.seriate_s", "s", "lower"),
    ("tensor.exact_s", "s", "lower"),
    ("tensor.enum_pairs_per_s", "1/s", "higher"),
    ("tensor.heuristic_s", "s", "lower"),
    ("tensor.octant_s", "s", "lower"),
    ("clustering.exhaustive_s", "s", "lower"),
    ("clustering.partitions_per_s", "1/s", "higher"),
    ("clustering.local_search_s", "s", "lower"),
    ("ca_classic.svd_s", "s", "lower"),
    ("ca_classic.ca_s", "s", "lower"),
    ("ca_classic.compare_s", "s", "lower"),
    ("dispersion.contributions_s", "s", "lower"),
    ("reports.build_s", "s", "lower"),
    ("reports.to_json_s", "s", "lower"),
    ("reports.json_bytes", "B", "lower"),
    ("svg.render_s", "s", "lower"),
    ("svg.bytes", "B", "lower"),
] + [(f"cli.{cmd}_p50_s", "s", "lower") for cmd in COMMANDS] + [
    ("cli.self_s", "s", "lower"),
    ("cli.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of n items into k nonempty blocks."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1)) // factorial(k)


def _annotate_maximize(args, kwargs, result):
    n, m = args[0].shape
    r, c = args[1], args[2]
    return {"method": result.method, "partitions": stirling2(n, r) * stirling2(m, c)}


def _annotate_tensor_exact(args, kwargs, result):
    q1, q2, _ = sorted(args[0].shape)
    return {"pairs": 1 << (q1 + q2 - 2)}


ANNOTATE = {
    "cli.run": lambda args, kwargs, result: {"command": args[0][0], "exit": result},
    "io.parse_counts_csv": lambda args, kwargs, result: {"cells": int(result.values.size)},
    "io.parse_tensor": lambda args, kwargs, result: {"cells": int(result.size)},
    "taxicab.norm_exact": lambda args, kwargs, result: {
        "candidates": 1 << (min(args[0].shape) - 1)},
    "tensor.tensor_norm_exact": _annotate_tensor_exact,
    "clustering.maximize": _annotate_maximize,
    "reports.AnalysisReport.to_json": lambda args, kwargs, result: {
        "bytes": len(result.encode("utf-8"))},
    "svg.render_map": lambda args, kwargs, result: {"bytes": len(result.encode("utf-8"))},
}


class Tracer:
    """Records spans [name, start, end, parent index, attributes] in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(PACKAGE + ".") and mod is not None}
        wrappers = {}
        for name in WRAPPED:
            module, *path = name.split(".")
            owner = modules[module]
            for attr in path[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, path[-1])
            if len(path) > 1:  # a method: patch the class that defines it
                self._patch(owner, path[-1], self._wrap(name, original))
            else:
                wrappers[id(original)] = (original, self._wrap(name, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-round self times and counts by layer, and rates over the whole run."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    durations: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}
    total = 0.0
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        attrs = attrs or {}
        layer = WRAPPED[name]
        if layer == "clustering":
            layer = f"clustering.{attrs['method']}"
            if attrs["method"] == "exhaustive":
                counts["partitions"] = counts.get("partitions", 0) + attrs["partitions"]
        busy[layer] = busy.get(layer, 0.0) + (end - start) - child_time[index]
        for key in ("cells", "candidates", "pairs"):
            if key in attrs:
                counts[key] = counts.get(key, 0) + attrs[key]
        if name == "reports.AnalysisReport.to_json":
            counts["json_bytes"] = counts.get("json_bytes", 0) + attrs["bytes"]
        if name == "svg.render_map":
            counts["svg_bytes"] = counts.get("svg_bytes", 0) + attrs["bytes"]
        if name == "cli.run":
            durations[attrs["command"]].append(end - start)
            total += end - start

    def rate(count_key: str, layer: str) -> float:
        seconds = busy.get(layer, 0.0)
        return counts.get(count_key, 0) / seconds if seconds > 0 else 0.0

    out = {f"{layer}_s": seconds / rounds for layer, seconds in busy.items()}
    out.update({
        "io.cells_per_s": rate("cells", "io.parse"),
        "taxicab.enum_candidates_per_s": rate("candidates", "taxicab.norm_exact"),
        "tensor.enum_pairs_per_s": rate("pairs", "tensor.exact"),
        "clustering.partitions_per_s": rate("partitions", "clustering.exhaustive"),
        "reports.json_bytes": counts.get("json_bytes", 0) / rounds,
        "svg.bytes": counts.get("svg_bytes", 0) / rounds,
        "cli.total_s": total / rounds,
    })
    for cmd, values in durations.items():
        out[f"cli.{cmd}_p50_s"] = statistics.median(values) if values else 0.0
    return out
