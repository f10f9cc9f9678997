from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import random_double_centered, random_triple_centered
from taxicab_ca.residual import (
    CENTERING_TOL,
    CorrespondenceMatrix,
    ResidualMatrix,
    Tensor3,
    additive_double_center,
    correspondence_residual,
    from_counts,
    triple_center,
)


class TestFromCounts:
    def test_asbestos_margins(self, asbestos):
        P = from_counts(asbestos.values)
        assert P.row_masses[0] == pytest.approx(0.3098, abs=5e-5)
        assert P.col_masses[0] == pytest.approx(0.5148, abs=5e-5)
        assert P.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_cell(self):
        P = from_counts(np.array([[5.0]]))
        np.testing.assert_allclose(P.p, [[1.0]])

    def test_americas_idb_mass(self, americas):
        # the printed 22x15 body totals 148; the IDB column holds all 22 countries
        P = from_counts(americas.values)
        assert americas.values.sum() == 148
        assert P.col_masses[8] == pytest.approx(22 / 148, abs=1e-12)

    def test_zero_total(self):
        with pytest.raises(ValueError, match="zero total"):
            from_counts(np.zeros((2, 2)))

    def test_zero_row_named(self):
        with pytest.raises(ValueError, match="row 1"):
            from_counts(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_zero_column_named(self):
        with pytest.raises(ValueError, match="column 0"):
            from_counts(np.array([[0.0, 2.0], [0.0, 3.0]]))

    def test_negative(self):
        with pytest.raises(ValueError, match="negative"):
            from_counts(np.array([[1.0, -1.0], [1.0, 1.0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_total(self):
        with pytest.raises(ValueError, match="counts total overflows"):
            from_counts(np.full((2, 2), 1e308))

    def test_keeps_the_matrix_it_builds(self):
        # p = c / total is the one n x m array kept; a copy of it on
        # construction would peak at 2.15 n m floats
        counts = np.random.default_rng(16).poisson(3.0, size=(400, 300)) + 1.0
        tracemalloc.start()
        try:
            P = from_counts(counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * counts.size * 8
        for a in (P.p, P.row_masses, P.col_masses):
            assert a.flags.owndata and not a.flags.writeable


class TestCorrespondenceResidual:
    def test_asbestos_cells(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        assert X.kind == "multiplicative"
        assert X.x[0, 0] == pytest.approx(0.1181, abs=5e-5)
        assert X.x[4, 3] == pytest.approx(0.0202, abs=5e-5)

    def test_rank_one_gives_zero(self):
        r = np.array([0.2, 0.3, 0.5])
        c = np.array([0.6, 0.4])
        P = CorrespondenceMatrix(p=np.outer(r, c), row_masses=r, col_masses=c)
        X = correspondence_residual(P)
        np.testing.assert_allclose(X.x, 0.0, atol=1e-15)

    def test_double_centered(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        np.testing.assert_allclose(X.x.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(X.x.sum(axis=1), 0.0, atol=1e-12)


class TestAdditiveDoubleCenter:
    def test_constant(self):
        X = additive_double_center(np.full((3, 4), 2.5))
        np.testing.assert_allclose(X.x, 0.0, atol=1e-15)

    def test_additive_model_exact(self):
        X = additive_double_center(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(X.x, 0.0, atol=1e-15)

    def test_identity_pattern(self):
        X = additive_double_center(np.eye(2))
        np.testing.assert_allclose(X.x, [[0.5, -0.5], [-0.5, 0.5]])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        X = additive_double_center(rng.normal(size=(6, 4)))
        again = additive_double_center(X.x)
        np.testing.assert_allclose(again.x, X.x, atol=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow(self):
        # the means overflow in the first; in the second only the scale sum|y| does
        for y in (np.full((2, 2), 1e308), np.array([[1e308, -1e308], [-1e308, 1e308]])):
            with pytest.raises(ValueError, match="double centering overflows"):
                additive_double_center(y)


def _own_mass_rejects(x: np.ndarray) -> bool:
    """Whether a line of x sums to more than the tolerance times x's own L1 mass."""
    worst = max(np.abs(x.sum(axis=axis)).max() for axis in range(x.ndim))
    return bool(worst > CENTERING_TOL * np.abs(x).sum())


class TestResidualMatrixValidation:
    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="not double-centered"):
            ResidualMatrix(x=np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_near_zero_matrix_passes(self):
        ResidualMatrix(x=np.full((3, 3), 1e-17))

    def test_near_independence_is_measured_against_its_input(self):
        # the rounding of p - r c' scales with sum(p) = 1, not with the
        # 1e-7 mass of the residual
        counts = np.array([[1e6, 1e6], [1e6, 1e6 + 1]])
        X = correspondence_residual(from_counts(counts))
        assert X.scale == pytest.approx(1.0)
        assert _own_mass_rejects(X.x)
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m = rng.integers(2, 7, size=2)
            counts = np.round(1e7 * rng.uniform(1, 2, size=(n, 1)) * rng.uniform(1, 2, size=m))
            correspondence_residual(from_counts(counts + rng.integers(0, 3, size=(n, m))))

    def test_near_constant_additive_input(self):
        y = np.array([[0.6, 0.6000000112329102], [0.6000000112329102, 0.6]])
        X = additive_double_center(y)
        assert X.scale == pytest.approx(2.4)
        assert _own_mass_rejects(X.x)

    def test_uncentered_still_raises_against_the_input_scale(self):
        with pytest.raises(ValueError, match="not double-centered"):
            ResidualMatrix(x=np.array([[1.0, 2.0], [3.0, 4.0]]), scale=1e6)
        x = random_double_centered(np.random.default_rng(13), 4, 3)
        off = x.copy()
        off[0] += 2 * CENTERING_TOL * 10.0 / off.shape[1]
        ResidualMatrix(x=x, scale=10.0)
        with pytest.raises(ValueError, match="not double-centered"):
            ResidualMatrix(x=off, scale=10.0)

    def test_scale_must_be_finite_and_nonnegative(self):
        for scale in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="scale"):
                ResidualMatrix(x=np.zeros((2, 2)), scale=scale)

    def test_callers_arrays_are_copied(self):
        rng = np.random.default_rng(14)
        # a writeable array, a read-only view of one, and a 3-way array
        y = random_double_centered(rng, 4, 3)
        base = y.copy()
        view = base[:, :]
        view.setflags(write=False)
        t = random_triple_centered(rng, 2, 3, 4)
        kept = [(ResidualMatrix(x=y), y), (ResidualMatrix(x=view), base), (Tensor3(x=t), t)]
        before = [X.x.copy() for X, _ in kept]
        for X, given in kept:
            assert not X.x.flags.writeable
            given += 1.0
        for (X, _), x in zip(kept, before):
            np.testing.assert_array_equal(X.x, x)

    def test_a_frozen_buffer_is_kept(self):
        x = random_double_centered(np.random.default_rng(15), 4, 3)
        x.setflags(write=False)
        assert ResidualMatrix(x=x).x is x
        for X in (correspondence_residual(from_counts(np.arange(1.0, 7.0).reshape(2, 3))),
                  additive_double_center(np.arange(6.0).reshape(2, 3)),
                  triple_center(np.arange(8.0).reshape(2, 2, 2))):
            assert X.x.flags.owndata and not X.x.flags.writeable

    def test_block_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, m = rng.integers(2, 8, size=2)
            x = random_double_centered(rng, n, m)
            s = rng.random(n) < 0.5
            t = rng.random(m) < 0.5
            b_st = x[np.ix_(s, t)].sum()
            assert x[np.ix_(s, ~t)].sum() == pytest.approx(-b_st, abs=1e-10)
            assert x[np.ix_(~s, t)].sum() == pytest.approx(-b_st, abs=1e-10)
            assert x[np.ix_(~s, ~t)].sum() == pytest.approx(b_st, abs=1e-10)


class TestTripleCenter:
    def test_constant(self):
        T = triple_center(np.full((2, 3, 2), 4.2))
        np.testing.assert_allclose(T.x, 0.0, atol=1e-15)

    def test_main_effects_removed(self):
        rng = np.random.default_rng(2)
        a, b, c = rng.normal(size=3), rng.normal(size=4), rng.normal(size=2)
        y = a[:, None, None] + b[None, :, None] + c[None, None, :]
        T = triple_center(y)
        np.testing.assert_allclose(T.x, 0.0, atol=1e-14)

    def test_sign_tensor_unchanged(self):
        s = np.array([1.0, -1.0])
        y = np.einsum("i,j,k->ijk", s, s, s)
        T = triple_center(y)
        np.testing.assert_allclose(T.x, y, atol=1e-15)
        for axis in range(3):
            np.testing.assert_allclose(y.sum(axis=axis), 0.0, atol=1e-15)

    def test_fiber_sums_zero(self):
        rng = np.random.default_rng(4)
        T = triple_center(rng.normal(size=(4, 3, 5)))
        for axis in range(3):
            np.testing.assert_allclose(T.x.sum(axis=axis), 0.0, atol=1e-12)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="not triple-centered"):
            Tensor3(x=np.arange(8.0).reshape(2, 2, 2))
        with pytest.raises(ValueError, match="not triple-centered"):
            Tensor3(x=np.arange(8.0).reshape(2, 2, 2), scale=1e6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow(self):
        # finite values whose fiber sums leave the float64 range
        y = np.array([[[1e308], [1e308]], [[-1e308], [1e308]]])
        with pytest.raises(ValueError, match="triple centering overflows"):
            triple_center(y)

    def test_near_constant_input(self):
        rng = np.random.default_rng(14)
        y = 1e3 + 1e-6 * rng.integers(0, 3, size=(3, 4, 2))
        T = triple_center(y)
        assert T.scale == pytest.approx(float(y.sum()))
        assert _own_mass_rejects(T.x)
