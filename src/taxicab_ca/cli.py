"""Command-line interface.

Exit codes: 0 success, 2 input/usage error, 3 exhaustive-solver budget
exceeded.  Reports are written as JSON with ``--out`` and factor maps as SVG
with ``--map``; output contains no timestamps, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import stat
import sys
from pathlib import Path

from . import reports as _reports
from .ca_classic import ca, compare_ca_tca
from .clustering import maximize
from .datasets import DATASETS, dataset_bytes
from .dispersion import relative_contributions
from .io import LabeledMatrix, decode_utf8, parse_counts_csv, parse_tensor
from .residual import (
    CENTERING_TOL,
    CorrespondenceMatrix,
    correspondence_residual,
    from_counts,
    triple_center,
)
from .svg import render_map
from .taxicab import (
    ENUM_LIMIT,
    STOP_TOL,
    EnumerationBudgetError,
    seriate,
    tca,
)
from .tensor import octant_report, tensor_norm

__all__ = ["build_parser", "main", "run"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _path(text: str) -> str:
    # an empty path would otherwise read as "not given" or fail half-way
    # through writing the outputs
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taxicab-ca",
        description="Taxicab correspondence analysis, cut norms, seriation, "
                    "and two-mode clustering of labeled count tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("csv", nargs="?", type=_path, help="labeled counts CSV "
                        "(header: column labels; rows: label then values)")
        sp.add_argument("--dataset", choices=DATASETS,
                        help="use an embedded dataset instead of a CSV path")
        sp.add_argument("--out", metavar="FILE", type=_path,
                        help="write the JSON report here")

    sp = sub.add_parser("dispersion", help="dispersion statistics of one CSV column")
    add_source(sp)
    sp.add_argument("--column", required=True, help="column label to analyze")

    sp = sub.add_parser("tca", help="taxicab correspondence analysis")
    add_source(sp)
    sp.add_argument("--axes", type=int, default=None, help="number of axes")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="force exhaustive search")
    mode.add_argument("--heuristic", action="store_true", help="force the heuristic")
    sp.add_argument("--map", metavar="FILE", type=_path,
                    help="write an SVG factor map (axes 1-2)")

    sp = sub.add_parser("ca", help="classical correspondence analysis")
    add_source(sp)
    sp.add_argument("--axes", type=int, default=None, help="number of axes")
    sp.add_argument("--map", metavar="FILE", type=_path,
                    help="write an SVG factor map (axes 1-2)")

    sp = sub.add_parser("compare", help="CA vs TCA contributions on one axis")
    add_source(sp)
    sp.add_argument("--axis", type=int, required=True, help="1-based axis")

    sp = sub.add_parser("seriate", help="balanced 2-block seriation of one axis")
    add_source(sp)
    sp.add_argument("--axis", type=int, required=True, help="1-based axis")

    sp = sub.add_parser("cluster", help="maximal-interaction two-mode clustering")
    add_source(sp)
    sp.add_argument("--r", type=int, required=True, help="number of row blocks")
    sp.add_argument("--c", type=int, required=True, help="number of column blocks")
    sp.add_argument("--p", type=float, default=1.0, help="objective exponent (>= 1)")

    sp = sub.add_parser("tensor", help="tensor sign norm of a 3-way array file")
    sp.add_argument("file", type=_path,
                    help="tensor text file: 'n m t' then n*t rows of m values")
    sp.add_argument("--out", metavar="FILE", type=_path, help="write the JSON report here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls: every call fills a fresh
    # namespace from the actions' defaults
    return build_parser()


def _load_matrix(args: argparse.Namespace) -> tuple[LabeledMatrix, str, bytes]:
    if args.dataset and args.csv:
        raise ValueError("give either a CSV path or --dataset, not both")
    source = args.dataset or args.csv
    if not source:
        raise ValueError("provide a CSV path or --dataset")
    raw = dataset_bytes(source) if args.dataset else Path(source).read_bytes()
    return parse_counts_csv(decode_utf8(raw, source), source=source), source, raw


def _from_counts(data: LabeledMatrix, source: str) -> CorrespondenceMatrix:
    """``from_counts`` of the table, naming an all-zero row or column.

    The row is named by its label and 1-based CSV line, the column by its
    label and 1-based field; a table that is zero throughout keeps the
    error of ``from_counts``.
    """
    try:
        return from_counts(data.values)
    except ValueError:
        if data.values.any():
            rows, cols = data.values.any(axis=1), data.values.any(axis=0)
            if not rows.all():
                i = int(rows.argmin())
                raise ValueError(f"{source}: row {data.row_labels[i]!r} "
                                 f"(line {i + 2}) is all zero") from None
            if not cols.all():
                j = int(cols.argmin())
                raise ValueError(f"{source}: column {data.col_labels[j]!r} "
                                 f"(field {j + 2}) is all zero") from None
        raise


def _provenance(raw: bytes, solver: str) -> dict:
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "solver": solver,
        "tolerances": {
            "centering": CENTERING_TOL,
            "axis_stop_rel": STOP_TOL,
            "exact_enum_limit": ENUM_LIMIT,
            "tensor_enum_limit": ENUM_LIMIT,
        },
    }


def _write_in_place(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, overwriting an existing file in place.

    The file is opened without ``O_TRUNC`` and, if regular, cut at the end of
    the new text afterwards.  ext4 (``auto_da_alloc``) flushes a file to disk
    on close once it has been truncated to zero, which makes rewriting a
    report there cost tens of milliseconds.  Writing in place keeps the
    inode, the mode, symlinks (written through) and hard links.  Devices and
    pipes are written without truncation.  A failed write cuts the file to
    zero, so no old tail is left behind new bytes.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            with open(fd, "w", encoding="utf-8", closefd=False) as fh:
                fh.write(text)
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def _finish(report: _reports.AnalysisReport, args: argparse.Namespace) -> None:
    # render the map before writing anything, so that a run whose map
    # fails (a table of rank below 2) leaves no report behind
    svg = render_map(report) if getattr(args, "map", None) else None
    if getattr(args, "out", None):
        _write_in_place(args.out, report.to_json())
    if svg is not None:
        _write_in_place(args.map, svg)


def _cmd_dispersion(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    if args.column not in data.col_labels:
        raise ValueError(f"column {args.column!r} not in {list(data.col_labels)}")
    j = data.col_labels.index(args.column)
    rep = relative_contributions(data.values[:, j])
    report = _reports.build_dispersion_report(
        rep, args.column, data, name, _provenance(raw, "closed-form"))
    print(f"column {args.column}: d={rep.d:.6g} s={rep.s:.6g} lad={rep.lad:.6g} "
          f"mean={rep.mean:.6g} median={rep.median:.6g}")
    if rep.degenerate:
        print("degenerate sample (zero dispersion); no contributions")
    elif rep.heavyweight_indices:
        labels = [data.row_labels[i] for i in rep.heavyweight_indices]
        print(f"heavyweights: {', '.join(labels)}")
    return report


def _solver_mode(args: argparse.Namespace) -> str:
    if getattr(args, "exact", False):
        return "exact"
    if getattr(args, "heuristic", False):
        return "heuristic"
    return "auto"


def _cmd_tca(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    solver = _solver_mode(args)
    dec = tca(_from_counts(data, name), max_axes=args.axes, solver=solver)
    report = _reports.build_tca_report(dec, data, name, _provenance(raw, solver))
    for record in report.results["axes"]:
        tag = "exact" if record["exact"] else "heuristic"
        print(f"axis {record['axis']}: delta={record['delta']:.6g} "
              f"cut_norm={record['cut_norm']:.6g} ({tag})")
    if not dec.axes and args.axes != 0:
        print("no axes (matrix fits the independence model)")
    return report


def _cmd_ca(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    dec = ca(_from_counts(data, name), max_axes=args.axes)
    report = _reports.build_ca_report(dec, data, name, _provenance(raw, "svd"))
    for record in report.results["axes"]:
        share = record["lambda"] / dec.total_inertia if dec.total_inertia else 0.0
        print(f"axis {record['axis']}: sigma={record['sigma']:.6g} "
              f"inertia={record['lambda']:.6g} ({share:.1%})")
    if not dec.n_axes and args.axes != 0:
        print("no axes (matrix fits the independence model)")
    return report


def _cmd_compare(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    cmp = compare_ca_tca(_from_counts(data, name), args.axis,
                         row_labels=data.row_labels, col_labels=data.col_labels)
    report = _reports.build_compare_report(cmp, data, name, _provenance(raw, "auto"))
    if cmp.empty:
        print(f"axis {args.axis} not available; empty comparison")
        return report
    print(f"contributions to axis {args.axis} (CA vs TCA)")
    width = max(len(p.label) for p in cmp.rows + cmp.cols)
    for section, pts in (("rows", cmp.rows), ("columns", cmp.cols)):
        print(f"{section}:")
        for pt in pts:
            print(f"  {pt.label:<{width}}  CA {pt.ca_contribution:6.3f}  "
                  f"TCA {pt.tca_contribution:6.3f}")
    print(f"max contribution: CA {cmp.ca_max_contribution:.3f}, "
          f"TCA {cmp.tca_max_contribution:.3f}")
    return report


def _cmd_seriate(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    if args.axis < 1:
        raise ValueError("axis must be >= 1")
    dec = tca(_from_counts(data, name), max_axes=args.axis)
    rep = seriate(dec, args.axis)
    report = _reports.build_seriation_report(
        rep, args.axis, data, name, _provenance(raw, "auto"))
    s_labels = [data.row_labels[i] for i in rep.s_opt]
    t_labels = [data.col_labels[j] for j in rep.t_opt]
    print(f"axis {args.axis}: cut_norm={rep.cut_norm:.6g}")
    print(f"S: {{{', '.join(s_labels)}}}  T: {{{', '.join(t_labels)}}}")
    print("block sums: " + ", ".join(f"{b:.6g}" for b in rep.block_sums))
    return report


def _cmd_cluster(args: argparse.Namespace) -> _reports.AnalysisReport:
    data, name, raw = _load_matrix(args)
    X = correspondence_residual(_from_counts(data, name))
    res = maximize(X, args.r, args.c, p=args.p)
    report = _reports.build_cluster_report(res, data, name, _provenance(raw, res.method))
    print(f"objective f_{args.p:g} = {res.objective:.6g} ({res.method})")
    for label, blocks, names in (("row", res.partition.row_blocks, data.row_labels),
                                 ("col", res.partition.col_blocks, data.col_labels)):
        for k, block in enumerate(blocks):
            print(f"  {label} block {k + 1}: {', '.join(names[i] for i in block)}")
    return report


def _cmd_tensor(args: argparse.Namespace) -> _reports.AnalysisReport:
    path = Path(args.file)
    raw = path.read_bytes()
    arr = parse_tensor(decode_utf8(raw, str(path)), source=str(path))
    T = triple_center(arr)
    axis = tensor_norm(T)
    octants = octant_report(T, axis)
    report = _reports.build_tensor_report(
        axis, octants, T.shape, args.file,
        _provenance(raw, "exact" if axis.exact else "heuristic"))
    print(f"delta={axis.delta:.6g} ({'exact' if axis.exact else 'heuristic'})")
    print("octant sums: " + ", ".join(f"{s:.6g}" for s in octants.sums))
    return report


_COMMANDS = {
    "dispersion": _cmd_dispersion,
    "tca": _cmd_tca,
    "ca": _cmd_ca,
    "compare": _cmd_compare,
    "seriate": _cmd_seriate,
    "cluster": _cmd_cluster,
    "tensor": _cmd_tensor,
}


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = _COMMANDS[args.command](args)
        _finish(report, args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
