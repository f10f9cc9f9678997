"""Analysis reports: a JSON-serializable record of one analysis run.

Report values are plain JSON types from construction on, so
``AnalysisReport.from_json(r.to_json()) == r``: floats keep full precision
via their shortest-repr form.  Reports contain no timestamps, so identical
inputs and flags produce byte-identical output.  The report text is
``json.dumps(report, sort_keys=True, indent=2)`` plus a newline, written by
``_dump``, which emits each flat list of floats, ints or strings in one join.

A long float list with many repeats (the masses, sign vectors and row
projections of a tall count table, where a row's values follow from a few
small integers) has each distinct value formatted once and joined by
index.  The values are told apart by their 64-bit pattern, not by ``==``:
0.0 and -0.0 compare equal and a NaN equals nothing, yet each bit pattern
has exactly one text, so every value is written as ``json.dumps`` writes it.

The ``results`` of a dispersion, seriate, cluster or tensor report, and the
contribution keys of each tca axis, are the fields of the result dataclasses
(``DispersionReport``, ``SeriationReport``, ``TwoModePartition``,
``TensorAxis``, ``AxisContributions``) under their own names, plus the few
keys each builder adds.  The ca and compare results and the other keys of a
tca axis rename their fields, so those builders map them one by one.
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
from .taxicab import SeriationReport, TcaDecomposition, rc_axis
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


# Writing a float costs from about 75 ns (1.0) to 310 ns (17 digits); the
# bit-keyed path costs about 6 us plus 45 ns a value on top of formatting
# each distinct value once, and the first np.unique of a process maps about
# 0.6 MB of numpy's sort code.  A list of fewer than _DEDUP_MIN values would
# gain at most about 0.13 ms (nothing if it holds only 1.0 and -1.0), so it
# is formatted value by value.  The repeats are counted in every
# _DEDUP_STRIDE-th value only: a set over the whole list costs about 9% of
# writing one without repeats.  A sample shows fewer repeats than its list,
# as it parts equal values; on count tables a list whose sample repeats at
# least one value in 16 held a third or more repeats, and those whose
# dedup lost showed one in 100.
_DEDUP_MIN = 512
_DEDUP_STRIDE = 8


def _join_floats(values: list, sep: str) -> str:
    """``sep`` joined over the ``json.dumps`` text of each float of ``values``.

    A list that passes the gate above has each distinct 64-bit pattern
    formatted once (``np.unique`` of the int64 view) and the texts taken by
    index.  The set that counts the sample's repeats merges 0.0 with -0.0
    and may keep equal NaNs apart; that only moves the gate.
    """
    if len(values) >= _DEDUP_MIN:
        sample = values[::_DEDUP_STRIDE]
        if 16 * (len(sample) - len(set(sample))) >= len(sample):
            bits, index = np.unique(np.array(values).view(np.int64), return_inverse=True)
            distinct = bits.view(np.float64).tolist()
            texts = list(map(float.__repr__, distinct))
            if "n" in "".join(texts):  # nan or inf
                texts = list(map(_float, distinct))
            return sep.join(np.array(texts, dtype=object)[index].tolist())
    text = sep.join(map(float.__repr__, values))
    if "n" in text:  # nan or inf
        text = sep.join(map(_float, values))
    return text


# exact element type of a flat list -> its elements' texts joined by a separator
_FLAT = {
    float: _join_floats,
    int: lambda values, sep: sep.join(map(int.__repr__, values)),
    str: lambda values, sep: sep.join(map(_quote, values)),
}


def _dump(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` of plain JSON values.

    A list whose elements all have the same exact type float, int or str is
    written in one join; ``json.dumps`` with ``indent`` runs the pure-Python
    encoder one element at a time.  A long float list with many repeats
    formats each distinct value once, keyed by its 64-bit pattern
    (``_join_floats``): bits, unlike ``==``, tell 0.0 from -0.0 and match a
    NaN with itself, and one pattern has one text, so the output is the
    same.  A dict key that is not a str, or a value of any other type,
    raises ``TypeError``.
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
            put("[" + inner + _FLAT[kind](obj, sep) + nl + "]")
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


def _fields(obj) -> dict:
    """A dataclass instance's fields by name; ``vars`` would add any other attribute."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
    return {
        "axis": index,
        "delta": axis.delta,
        "u": axis.u,
        "v": axis.v,
        "a": axis.a,
        "b": axis.b,
        "row_scores": axis.f,
        "col_scores": axis.g,
        **_fields(contrib),
        "block_sums": axis.block_sums,
        "cut_norm": axis.block_sums[0],
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
        results=_fields(rep),
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
        results=_fields(rep) | {
            "axis": axis,
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
        results=_fields(res.partition) | {
            "objective": res.objective, "p": res.p, "method": res.method},
    )


def build_tensor_report(
    axis: TensorAxis, octants: OctantReport, shape: tuple[int, int, int],
    name: str, provenance: dict,
) -> AnalysisReport:
    return AnalysisReport(
        method="tensor",
        inputs={"dataset": name, "shape": shape},
        provenance=provenance,
        results=_fields(axis) | {
            "s_opt": octants.s_opt, "t_opt": octants.t_opt, "w_opt": octants.w_opt},
    )
