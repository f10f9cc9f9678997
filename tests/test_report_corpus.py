"""A golden corpus of reports: the bytes the CLI writes for fixed inputs.

Each pinned sha256 fixes every byte of a report: its partition, the bits of
its floats, its labels, provenance and layout.  A change that moves one bit
of a pinned report fails here, whatever tolerance the other tests allow.

The pinned reports are those whose bytes were the same under OpenBLAS's
default, Haswell and Sandybridge kernels (``OPENBLAS_CORETYPE``) and with
two BLAS threads: ``cluster`` on both datasets and on a seeded 40 x 30
table at p = 1 and 2, ``seriate`` and ``dispersion`` on asbestos,
``dispersion`` on americas, ``seriate`` on a seeded 15 x 15 table, and
``tensor`` on five seeded files.  CI runs this file under each of those.  At p = 1.5
the ``cluster`` objective goes through numpy's SIMD-dispatched ``power``,
whose last bit was not compared across CPUs, so those reports pin the
partition exactly and the objective to a relative 1e-12.

The other reports come from BLAS products whose last bits differ between
kernels.  ``report_corpus.json`` holds them as the CLI wrote them under the
default kernel, with each float rounded to 12 significant digits.  Every
key, label, integer, sign, partition and index set is pinned exactly, and
each float to a relative 1e-9 of the largest magnitude in its list (of
itself, outside a list); the kernels moved none by more than 1e-12.  The
rows and columns of the americas seriations tie in score (its table is
binary), as rows 9 and 31 of the seeded 40 x 30 table's first axis and
columns 0 and 28 of the seeded 12 x 40 table's do, and tied entries swap
between kernels, so those orders are pinned as sorts of the pinned ``tca``
scores of the axis, ties to the same 1e-9.

The seeded 12 x 40 table is wide, so its exact search enumerates the
rows; the 15 x 15 table is square, so its search enumerates the columns,
and the 10 x 12 x 12 tensor ties in its two largest modes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from taxicab_ca.cli import run
from taxicab_ca.io import format_tensor

CLUSTER_SHA256 = {
    ("asbestos", 2, 2, "1"): "5ed9b82511c7a15bce4ff4c32e1c49a3903b199ebf679ae388a57586d662ff79",
    ("asbestos", 2, 2, "2"): "ac6023cb643b94fe2cebb9d8023443cf37aaeaf7590ee36d2159f5c0c0edf905",
    ("asbestos", 3, 2, "1"): "d3fc283bda884665abbb6a6d79c64c06f50ebdf2934bdbfab13499f0bcfa01ff",
    ("asbestos", 3, 2, "2"): "0c501396e21f46266d4f9a5d86e00a93c0b68dda8c0934b801d418ab58d18cc5",
    ("asbestos", 4, 3, "1"): "9ddc258c1f3dcd62a895689e0dbb01fddcd1e718d95a6938ea42e4cf972d65fc",
    ("asbestos", 4, 3, "2"): "4425cef397947b346b64af48fb2a8877438613a0bbc883697ec1c967744f09a0",
    ("americas", 2, 2, "1"): "b0f9925590d5d7e5f66e67889fa7f8d6faeb1aa49b8a9cf297d9c2ff0035ca2c",
    ("americas", 2, 2, "2"): "7b2743eba31e5e468178468bf9c480ddf88b4890bafe96bdc05272d260fe2315",
    ("americas", 3, 2, "1"): "ef9e64877ae44998c2eb922aa3159ba233404462cad382b226fd29f44de28c4a",
    ("americas", 3, 2, "2"): "479cfeaaa2b6200ca97e0e71b025645107a66afdc8b295495dfa3cb771f24c13",
    ("americas", 4, 3, "1"): "49c702b9b28844ae53387054cce7f985a45c0e00d01483638ab1d8b2fdb39ce4",
    ("americas", 4, 3, "2"): "ca20e4444ef547d7e4eaf6aba3a732d8bd8d0faffc160e9242614835b9d8c1f4",
}

# (row blocks, column blocks, objective) at p = 1.5
CLUSTER_P15 = {
    ("asbestos", 2, 2): (((0, 1), (2, 3, 4)), ((0,), (1, 2, 3)), 0.0984987731880416),
    ("asbestos", 3, 2): (((0,), (1,), (2, 3, 4)), ((0,), (1, 2, 3)), 0.11120729211500563),
    ("asbestos", 4, 3): (((0,), (1,), (2,), (3, 4)), ((0,), (1,), (2, 3)), 0.1283852030942754),
    ("americas", 2, 2): (
        ((0, 2, 3, 5, 6, 8, 13, 16, 17, 20, 21), (1, 4, 7, 9, 10, 11, 12, 14, 15, 18, 19)),
        ((0, 4, 5, 8, 10, 11, 12, 13, 14), (1, 2, 3, 6, 7, 9)),
        0.01529541177022441),
    ("americas", 3, 2): (
        ((0, 5, 13, 20), (1, 4, 7, 9, 10, 11, 12, 14, 15, 18, 19), (2, 3, 6, 8, 16, 17, 21)),
        ((1, 2, 3, 6, 7, 9), (0, 4, 5, 8, 10, 11, 12, 13, 14)),
        0.015660243028668433),
    ("americas", 4, 3): (
        ((0, 5, 13, 16, 20), (1, 4, 7, 9, 10, 12, 14, 15, 19), (11, 18), (2, 3, 6, 8, 17, 21)),
        ((2, 3), (1, 6, 7, 9), (0, 4, 5, 8, 10, 11, 12, 13, 14)),
        0.019311385460014596),
}


def _cluster_report(tmp_path, dataset: str, r: int, c: int, p: str) -> bytes:
    out = tmp_path / "report.json"
    assert run(["cluster", "--dataset", dataset, "--r", str(r), "--c", str(c),
                "--p", p, "--out", str(out)]) == 0
    return out.read_bytes()


def _id(key: tuple) -> str:
    return "-".join(map(str, key))


@pytest.mark.parametrize("key", sorted(CLUSTER_SHA256), ids=_id)
def test_cluster_report_bytes(tmp_path, capsys, key):
    dataset, r, c, p = key
    raw = _cluster_report(tmp_path, dataset, r, c, p)
    assert hashlib.sha256(raw).hexdigest() == CLUSTER_SHA256[key]


@pytest.mark.parametrize("key", sorted(CLUSTER_P15), ids=_id)
def test_cluster_report_at_p_1_5(tmp_path, capsys, key):
    results = json.loads(_cluster_report(tmp_path, *key, "1.5"))["results"]
    row_blocks, col_blocks, objective = CLUSTER_P15[key]
    assert tuple(map(tuple, results["row_blocks"])) == row_blocks
    assert tuple(map(tuple, results["col_blocks"])) == col_blocks
    assert results["objective"] == pytest.approx(objective, rel=1e-12, abs=0)


REPORT_SHA256 = {
    "seriate --dataset asbestos --axis 1":
        "11e7dabf37784c0b4baf5cbcf664584a08be006cdec0d9fd2e76f44b18bbfb7f",
    "seriate --dataset asbestos --axis 2":
        "fb9592bef0afddd7658fb6964e4c3bb4d7d0326925c19adb30d97da6569aad22",
    "seriate table15x15.csv --axis 1":
        "b95eea5e15c5226a04e64f241be4e55bfec450104ac8dc712c24e92006e26bee",
    "cluster table40x30.csv --r 2 --c 2 --p 1":
        "8bf2770f9a4d44a1b6b563d52cf3de56aec2170b1a107f960c8b5d66e57be513",
    "cluster table40x30.csv --r 3 --c 2 --p 2":
        "af5ddef3b09671f1ce46f4d233f2390226b45570aea101179c6ba6a7719eec13",
    "dispersion --dataset asbestos --column G1":
        "c2a5ff454bcf9d91d1bd3f3e94350dfacc9d74d8d6bdf873f4d21de7d6464c44",
    "dispersion --dataset americas --column MERCOSUR":
        "a2216eff5eb0d709e81d5d1f28fd2c259f8610a0c2d6568047857458011d1673",
    # the tensors that ``_write_inputs`` writes: 5 x 6 x 7, 10 x 12 x 12 and
    # 11 x 11 x 12 are solved exactly, 12 x 12 x 13 and 20 x 24 x 30 by the
    # heuristic
    "tensor tensor5x6x7.txt":
        "6d0c663829a32680f3c1e45d3e9409cf414fe043492ef10f1239ac015b36a5ef",
    "tensor tensor10x12x12.txt":
        "a912847750f8dd9b65825fca52be2935c100dd3a7de2cf3652d63c460ede2665",
    "tensor tensor11x11x12.txt":
        "3b30a5fed5640fcb747043b944af65bc392b915bd4d8f57e0bae43152e840966",
    "tensor tensor12x12x13.txt":
        "58f0e04ee4d09cf7e9d666998e6f1260e3bacf65c5bea9dabc8deadbd5d9fcf0",
    "tensor tensor20x24x30.txt":
        "b8df82ca178f086fd5f48d28984d6c6673eed3ba47e5e7b0d264a98e65211e67",
}

NEAR_REPORTS = json.loads((Path(__file__).parent / "report_corpus.json").read_text())

# seriation reports whose orders are pinned as sorts of the tca scores of their axis
SERIATIONS = {"seriate --dataset americas --axis 1": ("tca --dataset americas", 1),
              "seriate --dataset americas --axis 2": ("tca --dataset americas", 2),
              "seriate table40x30.csv --axis 1": ("tca table40x30.csv --heuristic --axes 2", 1),
              "seriate table12x40.csv --axis 1": ("tca table12x40.csv --axes 3", 1)}


def _write_inputs() -> None:
    """The seeded inputs, under the relative names the reports record."""
    for rows, cols in ((40, 30), (15, 15), (12, 40)):
        counts = np.random.default_rng(rows).poisson(3.0, size=(rows, cols)) + 1
        lines = ["," + ",".join(f"c{j}" for j in range(cols))]
        lines += [f"r{i}," + ",".join(map(str, row.tolist())) for i, row in enumerate(counts)]
        Path(f"table{rows}x{cols}.csv").write_text("\n".join(lines) + "\n")
    for shape in ((5, 6, 7), (10, 12, 12), (11, 11, 12), (12, 12, 13), (20, 24, 30)):
        values = np.random.default_rng(sum(shape)).poisson(4.0, size=shape).astype(float)
        Path("tensor{}x{}x{}.txt".format(*shape)).write_text(format_tensor(values))


def _report(tmp_path, monkeypatch, command: str) -> bytes:
    monkeypatch.chdir(tmp_path)
    _write_inputs()
    assert run(command.split() + ["--out", "report.json"]) == 0
    return Path("report.json").read_bytes()


def _assert_near(got, want, path: str = "report") -> None:
    """``got`` is ``want``, each float to 1e-9 of the largest |float| of its list."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_near(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        tol = 1e-9 * max((abs(w) for w in want if isinstance(w, float)), default=0.0)
        for i, (g, w) in enumerate(zip(got, want)):
            if isinstance(w, float):
                assert type(g) is float and abs(g - w) <= tol, (f"{path}[{i}]", g, w)
            else:
                _assert_near(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float and abs(got - want) <= 1e-9 * abs(want), (path, got, want)
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


def _assert_sorted_by(order: list, first: list, scores: list) -> None:
    """``order`` lists ``first``, then the rest, each by descending score, ties to 1e-9."""
    assert sorted(order) == list(range(len(scores)))
    assert sorted(order[:len(first)]) == first
    tol = 1e-9 * max(map(abs, scores))
    for group in (order[:len(first)], order[len(first):]):
        for i, j in zip(group, group[1:]):
            assert scores[i] >= scores[j] - tol, (i, j)


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_report_bytes(tmp_path, monkeypatch, capsys, command):
    raw = _report(tmp_path, monkeypatch, command)
    assert hashlib.sha256(raw).hexdigest() == REPORT_SHA256[command]


@pytest.mark.parametrize("command", sorted(NEAR_REPORTS))
def test_report_to_float_tolerance(tmp_path, monkeypatch, capsys, command):
    got = json.loads(_report(tmp_path, monkeypatch, command))
    want = json.loads(json.dumps(NEAR_REPORTS[command]))  # a copy, whose orders may go
    if command in SERIATIONS:
        source, axis = SERIATIONS[command]
        axis_scores = NEAR_REPORTS[source]["results"]["axes"][axis - 1]
        results, inputs = got["results"], got["inputs"]
        for key, first, scores, labels in (
                ("row_order", "s_opt", "row_scores", "row_labels"),
                ("col_order", "t_opt", "col_scores", "col_labels")):
            order = results.pop(key)
            _assert_sorted_by(order, results[first], axis_scores[scores])
            assert results.pop(f"{key}_labels") == [inputs[labels][i] for i in order]
            del want["results"][key], want["results"][f"{key}_labels"]
    _assert_near(got, want)
