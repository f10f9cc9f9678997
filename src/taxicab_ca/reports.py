"""Analysis reports: a JSON-serializable record of one analysis run.

Report values are plain JSON types from construction on, so
``AnalysisReport.from_json(r.to_json()) == r``: floats keep full precision
via their shortest-repr form.  Reports contain no timestamps, so identical
inputs and flags produce byte-identical output.  The report text is
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, written by
``_dump``, which emits each flat list of floats, ints or strings in one join.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .ca_classic import CaDecomposition, CaTcaComparison
from .clustering import ClusteringResult
from .dispersion import DispersionReport
from .io import LabeledMatrix
from .taxicab import SeriationReport, TcaDecomposition, rc_axis, seriate
from .tensor import OctantReport, TensorAxis

__all__ = [
    "AnalysisReport",
    "build_ca_report",
    "build_cluster_report",
    "build_compare_report",
    "build_dispersion_report",
    "build_seriation_report",
    "build_tca_report",
    "build_tensor_report",
]


_SCALARS = {str, float, int}


def _plain(obj):
    """Convert numpy arrays and scalars, tuples and dict keys into JSON-native values."""
    if isinstance(obj, np.ndarray):
        # tolist() already yields Python scalars; only an object array holds more
        return _plain(obj.tolist()) if obj.dtype == object else obj.tolist()
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= _SCALARS:  # already plain: one copy
            return list(obj)
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


_INF = float("inf")


def _float(x: float) -> str:
    """``x`` as ``json.dumps`` writes it: ``NaN`` and ``Infinity`` are not reprs."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# exact element type of a flat list -> text of one element
_FLAT = {float: float.__repr__, int: int.__repr__, str: _quote}


def _dump(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` of plain JSON values.

    A list whose elements all have the same exact type float, int or str is
    written in one join; ``json.dumps`` with ``indent`` runs the pure-Python
    encoder one element at a time.  A dict key that is not a str, or a value
    of any other type, raises ``TypeError``.
    """
    chunks: list[str] = []
    _emit(payload, "\n", chunks.append)
    return "".join(chunks)


def _emit(obj, nl: str, put) -> None:
    # nl is a newline plus the indent of the line obj starts on
    if isinstance(obj, str):
        put(_quote(obj))
    elif obj is None:
        put("null")
    elif obj is True:  # before int: bool is an int subclass
        put("true")
    elif obj is False:
        put("false")
    elif isinstance(obj, int):
        put(int.__repr__(obj))
    elif isinstance(obj, float):
        put(_float(obj))
    elif isinstance(obj, list):
        if not obj:
            put("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind in _FLAT:
            text = sep.join(map(_FLAT[kind], obj))
            if kind is float and "n" in text:  # nan or inf
                text = sep.join(map(_float, obj))
            put("[" + inner + text + nl + "]")
            return
        lead = "[" + inner
        for value in obj:
            put(lead)
            _emit(value, inner, put)
            lead = sep
        put(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            put("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for key in sorted(obj):
            put(lead + _quote(key) + ": ")
            _emit(obj[key], inner, put)
            lead = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class AnalysisReport:
    """One analysis run: method, input summary, provenance, and results.

    Values are plain JSON from construction: ``from_json(r.to_json()) == r``.
    """

    method: str
    inputs: dict
    provenance: dict
    results: dict

    def __post_init__(self) -> None:
        for name in ("inputs", "provenance", "results"):
            object.__setattr__(self, name, _plain(getattr(self, name)))

    def to_json(self) -> str:
        return _dump(vars(self)) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        payload = json.loads(text)
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


def _inputs_summary(data: LabeledMatrix, name: str) -> dict:
    return {
        "dataset": name,
        "shape": data.shape,
        "total": data.total,
        "row_labels": data.row_labels,
        "col_labels": data.col_labels,
    }


def _tca_axis_record(dec: TcaDecomposition, index: int) -> dict:
    axis = dec.axes[index - 1]
    contrib = rc_axis(dec, index)
    block = seriate(dec, index)
    return {
        "axis": index,
        "delta": axis.delta,
        "u": axis.u,
        "v": axis.v,
        "a": axis.a,
        "b": axis.b,
        "row_scores": axis.f,
        "col_scores": axis.g,
        "rc_rows": contrib.rc_rows,
        "rc_cols": contrib.rc_cols,
        "heavyweight_rows": contrib.heavyweight_rows,
        "heavyweight_cols": contrib.heavyweight_cols,
        "heavyweight_cells": contrib.heavyweight_cells,
        "block_sums": block.block_sums,
        "cut_norm": block.cut_norm,
        "exact": axis.exact,
        "indeterminate_u": axis.u_indeterminate,
        "indeterminate_v": axis.v_indeterminate,
    }


def build_tca_report(
    dec: TcaDecomposition, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    axes = [_tca_axis_record(dec, k + 1) for k in range(len(dec.axes))]
    return AnalysisReport(
        method="tca",
        inputs=_inputs_summary(data, name),
        provenance=provenance,
        results={
            "axes": axes,
            "rank_used": dec.rank_used,
            "row_masses": dec.row_masses,
            "col_masses": dec.col_masses,
        },
    )


def build_ca_report(
    dec: CaDecomposition, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    axes = [
        {
            "axis": k + 1,
            "sigma": dec.singular_values[k],
            "lambda": dec.principal_inertias[k],
            "row_scores": dec.row_scores[k],
            "col_scores": dec.col_scores[k],
            "row_ctr": dec.row_ctr[k],
            "col_ctr": dec.col_ctr[k],
        }
        for k in range(dec.n_axes)
    ]
    return AnalysisReport(
        method="ca",
        inputs=_inputs_summary(data, name),
        provenance=provenance,
        results={"axes": axes, "total_inertia": dec.total_inertia},
    )


def build_dispersion_report(
    rep: DispersionReport, column: str, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    return AnalysisReport(
        method="dispersion",
        inputs=_inputs_summary(data, name) | {"column": column},
        provenance=provenance,
        results={
            "d": rep.d,
            "s": rep.s,
            "s2": rep.s2,
            "lad": rep.lad,
            "median": rep.median,
            "mean": rep.mean,
            "rc_d": rep.rc_d,
            "rc_s2": rep.rc_s2,
            "rc_lad": rep.rc_lad,
            "heavyweight_indices": rep.heavyweight_indices,
            "degenerate": rep.degenerate,
        },
    )


def build_compare_report(
    cmp: CaTcaComparison, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    return AnalysisReport(
        method="compare",
        inputs=_inputs_summary(data, name),
        provenance=provenance,
        results={
            "axis": cmp.axis,
            "rows": [
                {"label": p.label, "ca": p.ca_contribution, "tca": p.tca_contribution}
                for p in cmp.rows
            ],
            "cols": [
                {"label": p.label, "ca": p.ca_contribution, "tca": p.tca_contribution}
                for p in cmp.cols
            ],
            "ca_max_contribution": cmp.ca_max_contribution,
            "tca_max_contribution": cmp.tca_max_contribution,
        },
    )


def build_seriation_report(
    rep: SeriationReport, axis: int, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    return AnalysisReport(
        method="seriate",
        inputs=_inputs_summary(data, name),
        provenance=provenance,
        results={
            "axis": axis,
            "s_opt": rep.s_opt,
            "t_opt": rep.t_opt,
            "block_sums": rep.block_sums,
            "cut_norm": rep.cut_norm,
            "row_order": rep.row_order,
            "col_order": rep.col_order,
            "row_order_labels": [data.row_labels[i] for i in rep.row_order],
            "col_order_labels": [data.col_labels[j] for j in rep.col_order],
        },
    )


def build_cluster_report(
    res: ClusteringResult, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    return AnalysisReport(
        method="cluster",
        inputs=_inputs_summary(data, name),
        provenance=provenance,
        results={
            "row_blocks": res.partition.row_blocks,
            "col_blocks": res.partition.col_blocks,
            "objective": res.objective,
            "p": res.p,
            "method": res.method,
        },
    )


def build_tensor_report(
    axis: TensorAxis, octants: OctantReport, shape: tuple[int, int, int],
    name: str, provenance: dict,
) -> AnalysisReport:
    return AnalysisReport(
        method="tensor",
        inputs={"dataset": name, "shape": shape},
        provenance=provenance,
        results={
            "delta": axis.delta,
            "u": axis.u,
            "v": axis.v,
            "w": axis.w,
            "octant_sums": axis.octant_sums,
            "s_opt": octants.s_opt,
            "t_opt": octants.t_opt,
            "w_opt": octants.w_opt,
            "exact": axis.exact,
        },
    )
