"""Analysis reports: a JSON-serializable record of one analysis run.

Reports round-trip losslessly through JSON (floats keep full precision via
their shortest-repr form) and contain no timestamps, so identical inputs and
flags produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def _plain(obj):
    """Recursively convert numpy containers/scalars into JSON-native values."""
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class AnalysisReport:
    """One analysis run: method, input summary, provenance, and results."""

    method: str
    inputs: dict
    provenance: dict
    results: dict

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "inputs": _plain(self.inputs),
            "provenance": _plain(self.provenance),
            "results": _plain(self.results),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        payload = json.loads(text)
        return cls(
            method=payload["method"],
            inputs=payload["inputs"],
            provenance=payload["provenance"],
            results=payload["results"],
        )


def _inputs_summary(data: LabeledMatrix, name: str) -> dict:
    return {
        "dataset": name,
        "shape": list(data.shape),
        "total": data.total,
        "row_labels": list(data.row_labels),
        "col_labels": list(data.col_labels),
    }


def _tca_axis_record(dec: TcaDecomposition, index: int) -> dict:
    axis = dec.axes[index - 1]
    contrib = rc_axis(dec, index)
    block = seriate(dec, index)
    return {
        "axis": index,
        "delta": axis.delta,
        "u": _plain(axis.u),
        "v": _plain(axis.v),
        "a": _plain(axis.a),
        "b": _plain(axis.b),
        "row_scores": _plain(axis.f),
        "col_scores": _plain(axis.g),
        "rc_rows": _plain(contrib.rc_rows),
        "rc_cols": _plain(contrib.rc_cols),
        "heavyweight_rows": _plain(contrib.heavyweight_rows),
        "heavyweight_cols": _plain(contrib.heavyweight_cols),
        "heavyweight_cells": _plain(contrib.heavyweight_cells),
        "block_sums": _plain(block.block_sums),
        "cut_norm": block.cut_norm,
        "exact": axis.exact,
        "indeterminate_u": _plain(axis.u_indeterminate),
        "indeterminate_v": _plain(axis.v_indeterminate),
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
            "row_masses": _plain(dec.row_masses),
            "col_masses": _plain(dec.col_masses),
        },
    )


def build_ca_report(
    dec: CaDecomposition, data: LabeledMatrix, name: str, provenance: dict
) -> AnalysisReport:
    axes = [
        {
            "axis": k + 1,
            "sigma": float(dec.singular_values[k]),
            "lambda": float(dec.principal_inertias[k]),
            "row_scores": _plain(dec.row_scores[k]),
            "col_scores": _plain(dec.col_scores[k]),
            "row_ctr": _plain(dec.row_ctr[k]),
            "col_ctr": _plain(dec.col_ctr[k]),
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
            "rc_d": _plain(rep.rc_d),
            "rc_s2": _plain(rep.rc_s2),
            "rc_lad": _plain(rep.rc_lad),
            "heavyweight_indices": _plain(rep.heavyweight_indices),
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
            "s_opt": _plain(rep.s_opt),
            "t_opt": _plain(rep.t_opt),
            "block_sums": _plain(rep.block_sums),
            "cut_norm": rep.cut_norm,
            "row_order": _plain(rep.row_order),
            "col_order": _plain(rep.col_order),
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
            "row_blocks": _plain(res.partition.row_blocks),
            "col_blocks": _plain(res.partition.col_blocks),
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
        inputs={"dataset": name, "shape": list(shape)},
        provenance=provenance,
        results={
            "delta": axis.delta,
            "u": _plain(axis.u),
            "v": _plain(axis.v),
            "w": _plain(axis.w),
            "octant_sums": _plain(axis.octant_sums),
            "s_opt": _plain(octants.s_opt),
            "t_opt": _plain(octants.t_opt),
            "w_opt": _plain(octants.w_opt),
            "exact": axis.exact,
        },
    )
