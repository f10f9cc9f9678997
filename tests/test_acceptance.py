"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``); a
failure also fails the test the normal way.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import align_sign, assert_match_up_to_sign
from oracles import (
    brute_cut_norm_matrix,
    brute_matrix_norm,
    brute_tensor_norm,
    random_double_centered,
    random_triple_centered,
)
from taxicab_ca.ca_classic import ca
from taxicab_ca.clustering import maximize
from taxicab_ca.datasets import load_dataset
from taxicab_ca.dispersion import (
    center,
    cut_norm_vec,
    lad,
    mad_mean,
    variance_and_std,
)
from taxicab_ca.residual import ResidualMatrix, Tensor3, correspondence_residual, from_counts
from taxicab_ca.taxicab import cut_norm_matrix, deflate, norm_exact, rc_axis, seriate, tca
from taxicab_ca.tensor import tensor_norm_exact


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-15)


# Table 2 of the asbestos analysis (18 tabulated projection/score values)
U1 = np.array([-1.0, 1.0, 1.0, 1.0])
V1 = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
A1 = np.array([-0.2362, -0.0303, 0.0334, 0.1340, 0.0990])
B1 = np.array([-0.2664, 0.0780, 0.1302, 0.0582])
F1 = np.array([-0.7624, -0.0892, 0.4841, 0.7718, 0.9138])
G1 = np.array([-0.5175, 0.2380, 1.1553, 1.2981])
B2 = np.array([0.0, -0.1066, 0.0640, 0.0426])
G2 = np.array([0.0, -0.3257, 0.5681, 0.9521])


def test_criterion_1_asbestos_axis1():
    with criterion(1, "asbestos axis 1 reproduces all tabulated values in < 1 s"):
        start = time.perf_counter()
        data = load_dataset("asbestos")
        dec = tca(from_counts(data.values), max_axes=1)
        elapsed = time.perf_counter() - start
        axis = dec.axes[0]
        assert axis.delta == pytest.approx(0.5328, abs=5e-4)
        flip = align_sign(axis.u, U1)
        np.testing.assert_array_equal(flip * axis.u, U1)
        np.testing.assert_array_equal(flip * axis.v, V1)
        np.testing.assert_allclose(flip * axis.a, A1, atol=5e-4)
        np.testing.assert_allclose(flip * axis.b, B1, atol=5e-4)
        np.testing.assert_allclose(flip * axis.f, F1, atol=5e-4)
        np.testing.assert_allclose(flip * axis.g, G1, atol=5e-4)
        assert elapsed < 1.0, f"axis 1 took {elapsed:.3f}s"


def test_criterion_2_asbestos_axis2():
    with criterion(2, "asbestos axis 2: delta, scores, heavyweight deflation"):
        data = load_dataset("asbestos")
        P = from_counts(data.values)
        dec = tca(P, max_axes=2)
        axis2 = dec.axes[1]
        assert axis2.delta == pytest.approx(0.2132, abs=5e-4)
        assert_match_up_to_sign(axis2.b, B2, atol=1e-3)
        assert_match_up_to_sign(axis2.g, G2, atol=1e-3)
        deflated = deflate(correspondence_residual(P), dec.axes[0])
        assert np.abs(deflated.x[:, 0]).max() <= 1e-12
        contrib = rc_axis(dec, 1)
        assert contrib.rc_cols[0] == pytest.approx(0.5, abs=1e-10)


def test_criterion_3_cut_norm_certificates():
    with criterion(3, "both asbestos axes certify 4 equal blocks of +-delta/4"):
        data = load_dataset("asbestos")
        dec = tca(from_counts(data.values), max_axes=2)
        expected_mag = {1: (0.1332, 2e-4), 2: (0.0533, 2e-4)}
        for k in (1, 2):
            axis = dec.axes[k - 1]
            report = seriate(dec, k)
            quarter = axis.delta / 4.0
            rel = 1e-10 * max(quarter, 1e-15)
            b = report.block_sums
            for value, sign in zip(b, (1, -1, -1, 1)):
                assert abs(value - sign * quarter) <= rel
            mag, tol = expected_mag[k]
            assert abs(b[0]) == pytest.approx(mag, abs=tol)


def test_criterion_4_americas_comparison():
    with criterion(4, "americas axis 2: CA 0.409/0.821 vs TCA 0.088/0.10 in < 5 s"):
        start = time.perf_counter()
        data = load_dataset("americas")
        P = from_counts(data.values)
        ca_dec = ca(P, max_axes=2)
        tca_dec = tca(P, max_axes=2)
        contrib = rc_axis(tca_dec, 2)
        elapsed = time.perf_counter() - start
        i_ca = data.row_labels.index("Canada")
        i_us = data.row_labels.index("UnitedStates")
        j_nafta = data.col_labels.index("NAFTA")
        assert ca_dec.row_ctr[1, i_ca] == pytest.approx(0.409, abs=0.005)
        assert ca_dec.row_ctr[1, i_us] == pytest.approx(0.409, abs=0.005)
        assert ca_dec.col_ctr[1, j_nafta] == pytest.approx(0.821, abs=0.005)
        assert contrib.rc_rows[i_ca] == pytest.approx(0.088, abs=0.005)
        assert contrib.rc_rows[i_us] == pytest.approx(0.088, abs=0.005)
        assert contrib.rc_cols[j_nafta] == pytest.approx(0.10, abs=0.005)
        assert elapsed < 5.0, f"comparison took {elapsed:.3f}s"


def test_criterion_5_oracle_equivalence():
    with criterion(5, "norm_exact and cut_norm_matrix match brute force on 500 matrices"):
        rng = np.random.default_rng(1234)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 13 - n))
            X = ResidualMatrix(x=random_double_centered(rng, n, m))
            axis = norm_exact(X)
            assert _rel_close(axis.delta, brute_matrix_norm(X.x), 1e-12)
            report = cut_norm_matrix(X)
            assert _rel_close(report.cut_norm, brute_cut_norm_matrix(X.x), 1e-12)


def test_criterion_6_lemma1_property_suite():
    with criterion(6, "d = 2 cut-norm / n and LAD <= d <= s on 10^4 samples"):
        rng = np.random.default_rng(5678)
        for _ in range(10_000):
            n = int(rng.integers(1, 13))
            y = rng.uniform(-100.0, 100.0, size=n)
            d = mad_mean(y)
            x = center(y)
            value, _ = cut_norm_vec(x)
            assert _rel_close(d, 2.0 * value / n, 1e-12)
            for _ in range(3):
                u = rng.choice([-1.0, 1.0], size=n)
                assert d >= float(x @ u) / n - 1e-12 * (1.0 + d)
            _, s = variance_and_std(y)
            l = lad(y)
            slack = 1e-12 * (1.0 + s)
            assert l <= d + slack <= s + 2 * slack


def test_criterion_7_reconstruction_identities():
    with criterion(7, "TCA and CA reconstruct the asbestos table to 1e-8"):
        data = load_dataset("asbestos")
        P = from_counts(data.values)
        tca_dec = tca(P)
        approx = np.outer(tca_dec.row_masses, tca_dec.col_masses)
        for axis in tca_dec.axes:
            approx = approx + np.outer(axis.a, axis.b) / axis.delta
        np.testing.assert_allclose(approx, P.p, atol=1e-8)
        ca_dec = ca(P)
        series = np.zeros_like(P.p)
        for k in range(ca_dec.n_axes):
            series += (
                np.outer(ca_dec.row_scores[k], ca_dec.col_scores[k])
                / ca_dec.singular_values[k]
            )
        expected = np.outer(P.row_masses, P.col_masses)
        np.testing.assert_allclose(expected * (1.0 + series), P.p, atol=1e-8)
        assert ca_dec.principal_inertias.sum() == pytest.approx(
            ca_dec.total_inertia, abs=1e-8
        )


def test_criterion_8_tensor_suite():
    with criterion(8, "sign tensor gives delta 8; exact tensor norm matches brute force"):
        s = np.array([1.0, -1.0])
        T = Tensor3(x=np.einsum("i,j,k->ijk", s, s, s))
        axis = tensor_norm_exact(T)
        assert axis.delta == pytest.approx(8.0, abs=1e-12)
        np.testing.assert_allclose([abs(v) for v in axis.octant_sums], 1.0, atol=1e-12)
        rng = np.random.default_rng(999)
        shapes = [(2, 2, 2), (4, 3, 3), (5, 4, 3), (4, 4, 4), (6, 5, 2)]
        for shape in shapes:
            for _ in range(10):
                T = Tensor3(x=random_triple_centered(rng, *shape))
                axis = tensor_norm_exact(T)
                assert _rel_close(axis.delta, brute_tensor_norm(T.x), 1e-12)


def test_criterion_9_clustering_bridge():
    with criterion(9, "max f_1 over 2x2 partitions equals the taxicab norm on 200 matrices"):
        rng = np.random.default_rng(4321)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 13 - n))
            X = ResidualMatrix(x=random_double_centered(rng, n, m))
            res = maximize(X, 2, 2, p=1.0)
            axis = norm_exact(X)
            assert abs(res.objective - axis.delta) <= 1e-10 * (1.0 + axis.delta)


def test_criterion_10_robustness_bound():
    with criterion(10, "TCA contributions stay <= 0.5 while americas CA exceeds 0.5"):
        for name in ("asbestos", "americas"):
            P = from_counts(load_dataset(name).values)
            dec = tca(P)
            for k in range(len(dec.axes)):
                contrib = rc_axis(dec, k + 1)
                assert max(contrib.rc_rows) <= 0.5 + 1e-12
                assert max(contrib.rc_cols) <= 0.5 + 1e-12
        am = from_counts(load_dataset("americas").values)
        ca_dec = ca(am)
        assert max(ca_dec.row_ctr.max(), ca_dec.col_ctr.max()) > 0.5
