from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxicab_ca.ca_classic import ca, compare_ca_tca, jacobi_svd
from taxicab_ca.residual import from_counts
from taxicab_ca.taxicab import tca


def _count_tables():
    """Count tables of 2-8 rows and columns with no empty row or column."""
    return st.tuples(st.integers(2, 8), st.integers(2, 8)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(0, 30), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    ).map(lambda rows: np.array(rows, dtype=float)).filter(
        lambda c: (c.sum(axis=1) > 0).all() and (c.sum(axis=0) > 0).all()
    )


def _standardized_residual(P):
    expected = np.outer(P.row_masses, P.col_masses)
    return (P.p - expected) / np.sqrt(expected)


def _assert_sign_rule(V):
    for k in range(V.shape[1]):
        assert V[np.argmax(np.abs(V[:, k])), k] > 0.0


class TestJacobiSvd:
    def test_diagonal(self):
        U, s, V = jacobi_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 1.0])

    def test_zero_matrix(self):
        U, s, V = jacobi_svd(np.zeros((3, 2)))
        np.testing.assert_allclose(s, 0.0)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-12)
        _assert_sign_rule(V)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for shape in [(6, 4), (4, 6), (5, 5), (9, 2), (1, 3), (3, 1)] * 5:
            M = rng.normal(size=shape)
            U, s, V = jacobi_svd(M)
            k = min(shape)
            assert U.shape == (shape[0], k) and V.shape == (shape[1], k)
            assert (np.diff(s) <= 0).all()
            norm = np.linalg.norm(M)
            np.testing.assert_allclose(U @ np.diag(s) @ V.T, M, atol=1e-10 * norm)
            np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-10)
            np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-10)
            _assert_sign_rule(V)

    def test_wide_matrix(self):
        rng = np.random.default_rng(22)
        M = rng.normal(size=(3, 7))
        U, s, V = jacobi_svd(M)
        np.testing.assert_allclose(U @ np.diag(s) @ V.T, M, atol=1e-10 * np.linalg.norm(M))
        assert U.shape == (3, 3) and V.shape == (7, 3)

    def test_rank_deficient_orthonormal_completion(self):
        u = np.array([1.0, 2.0, -1.0])
        w = np.array([0.5, -1.5])
        M = np.outer(u, w)
        U, s, V = jacobi_svd(M)
        assert s[1] <= 1e-12 * s[0]
        np.testing.assert_allclose(U @ np.diag(s) @ V.T, M, atol=1e-12)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(2), atol=1e-10)

    def test_sign_rule_first_index_wins_ties(self):
        # every column of V is (1, +-1)/sqrt(2) up to sign: an exact |value| tie
        for M in ([[2.0, -2.0], [1.0, -1.0]], [[-2.0, 2.0], [-1.0, 1.0]]):
            U, s, V = jacobi_svd(np.array(M))
            assert (np.abs(V[0]) == np.abs(V[1])).all()
            assert (V[0] > 0).all()
            np.testing.assert_allclose(U @ np.diag(s) @ V.T, M, atol=1e-12)

    def test_sign_rule_flips_u_with_v(self):
        rng = np.random.default_rng(25)
        M = rng.normal(size=(5, 4))
        U, s, V = jacobi_svd(M)
        U2, s2, V2 = jacobi_svd(-M)
        np.testing.assert_array_equal(s, s2)
        np.testing.assert_allclose(V2, V, atol=1e-12)
        np.testing.assert_allclose(U2, -U, atol=1e-12)

    def test_identical_input_identical_bits(self):
        rng = np.random.default_rng(26)
        M = rng.normal(size=(12, 9))
        first = jacobi_svd(M)
        for again in (jacobi_svd(M), jacobi_svd(M.copy()), jacobi_svd(M.tolist())):
            for a, b in zip(first, again):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [
        np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2, 2)),
        np.array([[1.0, np.nan]]), np.array([[np.inf, 1.0]]),
    ])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            jacobi_svd(bad)


class TestCa:
    def test_asbestos_axis_count(self, asbestos_P):
        dec = ca(asbestos_P)
        assert dec.n_axes == 3  # min(5, 4) - 1

    def test_americas_axis2_contributions(self, americas, americas_P):
        dec = ca(americas_P)
        i_ca = americas.row_labels.index("Canada")
        i_us = americas.row_labels.index("UnitedStates")
        j_nafta = americas.col_labels.index("NAFTA")
        assert dec.row_ctr[1, i_ca] == pytest.approx(0.409, abs=0.005)
        assert dec.row_ctr[1, i_us] == pytest.approx(0.409, abs=0.005)
        assert dec.col_ctr[1, j_nafta] == pytest.approx(0.821, abs=0.005)

    def test_independence_model_no_axes(self):
        r = np.array([0.5, 0.3, 0.2])
        c = np.array([0.25, 0.75])
        dec = ca(from_counts(np.outer(r, c) * 400))
        assert dec.n_axes == 0
        assert dec.total_inertia == pytest.approx(0.0, abs=1e-15)

    def test_contributions_sum_to_one(self, asbestos_P):
        dec = ca(asbestos_P)
        np.testing.assert_allclose(dec.row_ctr.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(dec.col_ctr.sum(axis=1), 1.0, atol=1e-10)

    def test_total_inertia_equals_sum_of_squares(self, asbestos_P, americas_P):
        for P in (asbestos_P, americas_P):
            dec = ca(P)
            assert dec.principal_inertias.sum() == pytest.approx(
                dec.total_inertia, abs=1e-8
            )

    def test_reconstruction(self, asbestos_P):
        dec = ca(asbestos_P)
        expected = np.outer(dec.row_masses, dec.col_masses)
        series = np.zeros_like(expected)
        for k in range(dec.n_axes):
            series += np.outer(dec.row_scores[k], dec.col_scores[k]) / dec.singular_values[k]
        np.testing.assert_allclose(expected * (1.0 + series), asbestos_P.p, atol=1e-8)

    def test_max_axes_cap(self, asbestos_P):
        dec = ca(asbestos_P, max_axes=1)
        assert dec.n_axes == 1

    def test_axis_count_is_the_rank(self, asbestos_P, americas_P):
        # beyond its rank, americas has four singular values of ~1e-16 sigma_1: rounding noise
        rng = np.random.default_rng(110)
        counts = rng.poisson(4.0, size=(110, 92)).astype(float)
        counts[counts.sum(axis=1) == 0, 0] += 1.0
        counts[0, counts.sum(axis=0) == 0] += 1.0
        tables = (asbestos_P, americas_P, from_counts(counts))
        assert [ca(P).n_axes for P in tables] == [3, 11, 91]
        for P in tables:
            rank = np.linalg.matrix_rank(_standardized_residual(P))
            assert ca(P).n_axes == rank <= min(P.shape) - 1

    @settings(max_examples=200, deadline=None)
    @given(_count_tables())
    def test_property_random_count_tables(self, counts):
        P = from_counts(counts)
        dec = ca(P)
        s = dec.singular_values
        assert (np.diff(s) <= 0).all()
        # S = D_r^(-1/2) (P - r c') D_c^(-1/2) has the rank of the integer matrix
        # N_total N - rowsums colsums', which floats hold exactly; matrix_rank(S)
        # itself can count a rounding-noise axis (2x2 [[0, 1], [1, 3]]: 8e-16 s_1)
        exact = counts.sum() * counts - np.outer(counts.sum(axis=1), counts.sum(axis=0))
        assert dec.n_axes == np.linalg.matrix_rank(exact) <= min(P.shape) - 1
        np.testing.assert_allclose(dec.row_ctr.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(dec.col_ctr.sum(axis=1), 1.0, atol=1e-10)
        assert dec.principal_inertias.sum() == pytest.approx(
            dec.total_inertia, rel=1e-10, abs=1e-14
        )
        expected = np.outer(dec.row_masses, dec.col_masses)
        series = np.zeros_like(expected)
        for k in range(dec.n_axes):
            series += np.outer(dec.row_scores[k], dec.col_scores[k]) / s[k]
        np.testing.assert_allclose(expected * (1.0 + series), P.p, atol=1e-8)


class TestCompareCaTca:
    def test_americas_axis2(self, americas, americas_P):
        cmp = compare_ca_tca(americas_P, 2, americas.row_labels, americas.col_labels)
        nafta = next(p for p in cmp.cols if p.label == "NAFTA")
        assert nafta.ca_contribution == pytest.approx(0.821, abs=0.005)
        assert nafta.tca_contribution == pytest.approx(0.10, abs=0.005)
        assert cmp.tca_max_contribution <= 0.5 + 1e-12
        assert cmp.ca_max_contribution > 0.5

    def test_symmetric_toy_same_sign_structure(self):
        P = from_counts(np.array([[0.4, 0.1], [0.1, 0.4]]) * 100)
        ca_dec = ca(P)
        tca_dec = tca(P)
        ca_signs = np.sign(ca_dec.row_scores[0])
        tca_signs = np.sign(tca_dec.axes[0].f)
        assert (ca_signs == tca_signs).all() or (ca_signs == -tca_signs).all()

    def test_independence_empty(self):
        r = np.array([0.6, 0.4])
        c = np.array([0.5, 0.5])
        cmp = compare_ca_tca(from_counts(np.outer(r, c) * 10), 1)
        assert cmp.empty

    @pytest.mark.parametrize("row_labels, col_labels, message", [
        (("a", "b"), ("x",), "expected 5 row labels, got 2"),
        (tuple("abcde"), ("x",), "expected 4 column labels, got 1"),
        (tuple("abcdefg"), tuple("wxyz"), "expected 5 row labels, got 7"),
        (tuple("abcde"), tuple("vwxyz"), "expected 4 column labels, got 5"),
    ])
    def test_labels_must_match_the_table(self, asbestos_P, row_labels, col_labels, message):
        with pytest.raises(ValueError, match=message):
            compare_ca_tca(asbestos_P, 1, row_labels, col_labels)
