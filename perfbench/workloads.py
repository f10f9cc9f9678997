"""Inputs and call scripts of the three workloads.

``prepare(name, seed, workdir)`` draws the inputs from the seed, writes them
under ``workdir`` and returns the workload: its ordered list of ``cli.run``
calls (one round), the warm-up calls, and how to compute the heuristic
delta ratio from the checked first-round outputs.  Shapes, means and flags
are fixed; the seed only changes the drawn counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import require

# exact_enum: (label, rows, cols, axes, Poisson mean); the smaller side is
# 14-22, so the auto solver enumerates.  The wide table has its smaller
# side on the rows, so norm_exact enumerates on x.T.
EXACT_TABLES = [
    ("square48x20", 48, 20, 2, 4.0),
    ("square60x22", 60, 22, 1, 4.0),
    ("tall3000x14", 3000, 14, 2, 3.0),
    ("tall2000x16", 2000, 16, 1, 3.0),
    ("wide16x1500", 16, 1500, 2, 3.0),
]
OWN_ENUM_LIMIT = 16  # the benchmark's own enumerator confirms axis 1 up to here

# heuristic_large: smaller side above the enumeration limit of 22; the
# residuals run from 47 KB to 960 KB, around the 2 MiB per-core L2 once
# the temporaries of a solve are added.
LARGE_TABLES = [(100, 60), (150, 100), (200, 120), (300, 200), (400, 300)]
LARGE_MEAN = 3.0
LARGE_AXES = 3
REFERENCE_RANDOM_STARTS = 32


@dataclass
class Op:
    """One ``cli.run`` call, its report files and the check of its first output."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[dict, bytes | None], float | None]
    svg: Path | None = None


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[list[str]]
    # maps the first-round check values to (sum heuristic delta, sum reference delta)
    delta_sums: Callable[[dict[str, float | None]], tuple[float, float]]


def _counts(rng: np.random.Generator, n: int, m: int, mean: float) -> np.ndarray:
    counts = rng.poisson(mean, size=(n, m)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] += 1.0  # from_counts rejects empty lines
    counts[0, counts.sum(axis=0) == 0] += 1.0
    return counts


def write_counts(path: Path, counts: np.ndarray) -> None:
    n, m = counts.shape
    lines = [",".join(f"c{j + 1}" for j in range(m))]
    for i, row in enumerate(counts.astype(np.int64).tolist()):
        lines.append(f"r{i + 1}," + ",".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_tensor(path: Path, values: np.ndarray) -> None:
    n, m, t = values.shape
    lines = [f"{n} {m} {t}"]
    ints = values.astype(np.int64)
    for k in range(t):
        for i in range(n):
            lines.append(" ".join(map(str, ints[i, :, k].tolist())))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_dataset(root: Path, name: str) -> np.ndarray:
    """Counts of an embedded dataset, read with the csv module."""
    with open(root / "src" / "taxicab_ca" / "data" / f"{name}.csv", newline="",
              encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]])


def _files(workdir: Path, label: str, svg: bool = False) -> tuple[Path, Path | None]:
    return workdir / f"{label}.json", (workdir / f"{label}.svg" if svg else None)


def _exact_enum(seed: int, workdir: Path, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    pairs = []
    for label, n, m, axes, mean in EXACT_TABLES:
        counts = _counts(rng, n, m, mean)
        path = workdir / f"{label}.csv"
        write_counts(path, counts)

        def exact_check(report, svg, counts=counts, axes=axes):
            deltas = checks.check_tca(report, counts, axes=axes, exact=True, flips=True)
            if min(counts.shape) <= OWN_ENUM_LIMIT:
                best = checks.max_norm(checks.residual(counts)[0])
                require(abs(deltas[0] - best) <= checks.REL * best,
                        f"axis 1 delta {deltas[0]!r} != enumerated maximum {best!r}")
            return deltas[0]

        def heuristic_check(report, svg, counts=counts):
            return checks.check_tca(report, counts, axes=1, exact=False)[0]

        out, _ = _files(workdir, label)
        ops.append(Op(label, ["tca", str(path), "--axes", str(axes), "--out", str(out)],
                      out, exact_check))
        out, _ = _files(workdir, label + "-heuristic")
        ops.append(Op(label + "-heuristic",
                      ["tca", str(path), "--heuristic", "--axes", "1", "--out", str(out)],
                      out, heuristic_check))
        pairs.append((label + "-heuristic", label))

    warm, _ = _files(workdir, "warmup")
    return Workload(
        ops,
        [["tca", "--dataset", "asbestos", "--axes", "2", "--out", str(warm)]],
        lambda values: _paired_sums(values, pairs),
    )


def _paired_sums(values: dict, pairs: list[tuple[str, str]]) -> tuple[float, float]:
    heuristic = reference = 0.0
    for h_label, e_label in pairs:
        require(values[h_label] <= values[e_label] * (1.0 + checks.REL),
                f"{h_label}: heuristic delta {values[h_label]!r} exceeds exact "
                f"{values[e_label]!r}")
        heuristic += values[h_label]
        reference += values[e_label]
    return heuristic, reference


def _heuristic_large(seed: int, workdir: Path, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    references = {}
    for n, m in LARGE_TABLES:
        label = f"table{n}x{m}"
        counts = _counts(rng, n, m, LARGE_MEAN)
        path = workdir / f"{label}.csv"
        write_counts(path, counts)

        def check(report, svg, counts=counts, label=label):
            deltas = checks.check_tca(report, counts, axes=LARGE_AXES, exact=False)
            checks.check_map(svg, report)
            reference = checks.fixed_point_search(
                checks.residual(counts)[0], REFERENCE_RANDOM_STARTS, seed)
            references[label] = max(reference, deltas[0])
            return deltas[0]

        out, svg = _files(workdir, label, svg=True)
        ops.append(Op(label, ["tca", str(path), "--axes", str(LARGE_AXES), "--out", str(out),
                              "--map", str(svg)], out, check, svg))

    def sums(values):
        return (sum(values[k] for k in references), sum(references.values()))

    warm, warm_svg = _files(workdir, "warmup", svg=True)
    return Workload(
        ops,
        [["tca", "--dataset", "asbestos", "--heuristic", "--axes", "2", "--out", str(warm),
          "--map", str(warm_svg)]],
        sums,
    )


def _cli_session(seed: int, workdir: Path, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    asbestos = read_dataset(root, "asbestos")
    americas = read_dataset(root, "americas")
    ca_table = _counts(rng, 110, 92, 4.0)
    q15_table = _counts(rng, 40, 15, 4.0)
    clus7 = _counts(rng, 7, 7, 6.0)
    clus_ls = _counts(rng, 40, 30, 4.0)
    tensors = {
        "tensor11x11x72": (rng.poisson(4.0, size=(11, 11, 72)).astype(float), True),
        "tensor11x11x48": (rng.poisson(4.0, size=(11, 11, 48)).astype(float), True),
        "tensor14x15x16": (rng.poisson(4.0, size=(14, 15, 16)).astype(float), False),
        "tensor20x24x30": (rng.poisson(4.0, size=(20, 24, 30)).astype(float), False),
    }
    files = {}
    for label, table in (("ca110x92", ca_table), ("q15_40x15", q15_table),
                         ("cluster7x7", clus7), ("cluster40x30", clus_ls)):
        files[label] = workdir / f"{label}.csv"
        write_counts(files[label], table)
    for label, (values, _) in tensors.items():
        files[label] = workdir / f"{label}.txt"
        write_tensor(files[label], values)

    ops: list[Op] = []

    def add(label, argv, check, svg=False):
        out, svg_path = _files(workdir, label, svg)
        extra = ["--out", str(out)] + (["--map", str(svg_path)] if svg else [])
        ops.append(Op(label, argv + extra, out, check, svg_path))

    def src(label):
        return ["--dataset", label] if label in ("asbestos", "americas") else [str(files[label])]

    counts_of = {"asbestos": asbestos, "americas": americas, "ca110x92": ca_table,
                 "q15_40x15": q15_table, "cluster7x7": clus7, "cluster40x30": clus_ls}

    add("dispersion-asbestos", ["dispersion", *src("asbestos"), "--column", "G1"],
        lambda rep, svg: checks.check_dispersion(rep, asbestos[:, 1]))
    add("dispersion-ca110x92", ["dispersion", *src("ca110x92"), "--column", "c7"],
        lambda rep, svg: checks.check_dispersion(rep, ca_table[:, 6]))

    def tca_check(label, axes, table2=False):
        def check(rep, svg):
            checks.check_tca(rep, counts_of[label], axes=axes, exact=True, flips=True)
            checks.check_map(svg, rep)
            if table2:
                checks.check_asbestos_table2(rep)
        return check

    add("tca-asbestos", ["tca", *src("asbestos"), "--axes", "2"],
        tca_check("asbestos", 2, table2=True), svg=True)
    add("tca-americas", ["tca", *src("americas"), "--axes", "2"],
        tca_check("americas", 2), svg=True)
    add("tca-q15_40x15", ["tca", *src("q15_40x15"), "--axes", "3"],
        tca_check("q15_40x15", 3), svg=True)
    q15_best = {}

    def q15_heuristic(rep, svg):
        delta = checks.check_tca(rep, q15_table, axes=1, exact=False)[0]
        q15_best["exact"] = checks.max_norm(checks.residual(q15_table)[0])
        return delta

    add("tca-q15_40x15-heuristic", ["tca", *src("q15_40x15"), "--heuristic", "--axes", "1"],
        q15_heuristic)

    def ca_check(label, axes):
        def check(rep, svg):
            checks.check_ca(rep, counts_of[label], axes=axes)
            checks.check_map(svg, rep)
        return check

    add("ca-asbestos", ["ca", *src("asbestos")], ca_check("asbestos", 3), svg=True)
    add("ca-americas", ["ca", *src("americas"), "--axes", "3"], ca_check("americas", 3), svg=True)
    add("ca-ca110x92", ["ca", *src("ca110x92"), "--axes", "4"], ca_check("ca110x92", 4), svg=True)
    add("compare-americas", ["compare", *src("americas"), "--axis", "2"],
        lambda rep, svg: checks.check_compare(rep, expected=checks.AMERICAS_AXIS2))
    add("compare-ca110x92", ["compare", *src("ca110x92"), "--axis", "2"],
        lambda rep, svg: checks.check_compare(rep))
    add("seriate-asbestos", ["seriate", *src("asbestos"), "--axis", "1"],
        lambda rep, svg: checks.check_seriation(rep, asbestos))
    add("seriate-americas", ["seriate", *src("americas"), "--axis", "1"],
        lambda rep, svg: checks.check_seriation(rep, americas))

    def cluster_check(label, r, c, p, optimum=None):
        def check(rep, svg):
            best = optimum() if optimum else None
            checks.check_cluster(rep, counts_of[label], r=r, c=c, p=p, optimum=best)
        return check

    add("cluster-asbestos", ["cluster", *src("asbestos"), "--r", "2", "--c", "2", "--p", "1"],
        cluster_check("asbestos", 2, 2, 1.0,
                      lambda: checks.max_norm(checks.residual(asbestos)[0])))
    add("cluster-7x7", ["cluster", *src("cluster7x7"), "--r", "3", "--c", "3", "--p", "1"],
        cluster_check("cluster7x7", 3, 3, 1.0, lambda: checks.brute_force_cluster(
            checks.residual(clus7)[0], 3, 3, 1.0)))
    add("cluster-40x30", ["cluster", *src("cluster40x30"), "--r", "4", "--c", "3", "--p", "2"],
        cluster_check("cluster40x30", 4, 3, 2.0))

    def tensor_check(values, exact):
        def check(rep, svg):
            heuristic = None
            if exact:
                from taxicab_ca.residual import triple_center
                from taxicab_ca.tensor import tensor_norm_heuristic
                heuristic = tensor_norm_heuristic(triple_center(values)).delta
            checks.check_tensor(rep, values, exact=exact, heuristic_delta=heuristic)
        return check

    for label, (values, exact) in tensors.items():
        add(label, ["tensor", str(files[label])], tensor_check(values, exact))

    def sums(values):
        require(values["tca-q15_40x15-heuristic"] <= q15_best["exact"] * (1.0 + checks.REL),
                "heuristic delta exceeds the enumerated maximum")
        return values["tca-q15_40x15-heuristic"], q15_best["exact"]

    tiny = workdir / "warmup-tensor.txt"
    write_tensor(tiny, rng.poisson(4.0, size=(3, 3, 3)).astype(float))
    warm = str(workdir / "warmup.json")
    warmup = [
        ["dispersion", "--dataset", "asbestos", "--column", "G0", "--out", warm],
        ["tca", "--dataset", "asbestos", "--out", warm],
        ["ca", "--dataset", "asbestos", "--out", warm],
        ["compare", "--dataset", "asbestos", "--axis", "1", "--out", warm],
        ["seriate", "--dataset", "asbestos", "--axis", "2", "--out", warm],
        ["cluster", "--dataset", "asbestos", "--r", "2", "--c", "2", "--out", warm],
        ["tensor", str(tiny), "--out", warm],
    ]
    return Workload(ops, warmup, sums)


def prepare(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    builders = {"exact_enum": _exact_enum, "heuristic_large": _heuristic_large,
                "cli_session": _cli_session}
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[name](seed, workdir, root)

