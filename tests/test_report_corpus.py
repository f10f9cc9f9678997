"""A golden corpus of reports: the bytes the CLI writes for fixed inputs.

Each pinned sha256 fixes every byte of a report: its partition, the bits of
its floats, its labels, provenance and layout.  A change that moves one bit
of a pinned report fails here, whatever tolerance the other tests allow.

So far the corpus holds the ``cluster`` reports on both datasets.  At p = 1
and p = 2 their bytes were the same under OpenBLAS's default, Haswell and
Sandybridge kernels (``OPENBLAS_CORETYPE``), and CI runs this file under
Haswell too.  At p = 1.5 the objective goes through numpy's SIMD-dispatched
``power``, whose last bit was not compared across CPUs, so those reports pin
the partition exactly and the objective to a relative 1e-12.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from taxicab_ca.cli import run

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
