from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    brute_tensor_norm,
    lexicographic_first_tensor_signs,
    random_triple_centered,
)
from taxicab_ca import tensor
from taxicab_ca.cli import run
from taxicab_ca.io import format_tensor
from taxicab_ca.reports import AnalysisReport
from taxicab_ca.residual import Tensor3, triple_center
from taxicab_ca.taxicab import EnumerationBudgetError
from taxicab_ca.tensor import (
    octant_report,
    tensor_norm,
    tensor_norm_exact,
    tensor_norm_heuristic,
)


def _sign_tensor() -> Tensor3:
    s = np.array([1.0, -1.0])
    return Tensor3(x=np.einsum("i,j,k->ijk", s, s, s))


def _rand_tensor(rng, n, m, t) -> Tensor3:
    return Tensor3(x=random_triple_centered(rng, n, m, t))


class TestTensorNormExact:
    def test_sign_tensor(self):
        axis = tensor_norm_exact(_sign_tensor())
        assert axis.delta == pytest.approx(8.0)
        assert axis.exact
        mags = [abs(s) for s in axis.octant_sums]
        np.testing.assert_allclose(mags, 1.0)
        assert axis.delta == pytest.approx(brute_tensor_norm(_sign_tensor().x))

    def test_zero_tensor(self):
        axis = tensor_norm_exact(Tensor3(x=np.zeros((2, 3, 2))))
        assert axis.delta == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            T = _rand_tensor(rng, 4, 3, 3)
            axis = tensor_norm_exact(T)
            assert axis.delta == pytest.approx(brute_tensor_norm(T.x), rel=1e-12)

    def test_various_shapes_vs_brute_force(self):
        rng = np.random.default_rng(32)
        for shape in [(2, 2, 2), (5, 2, 3), (3, 4, 2), (2, 5, 4)]:
            T = _rand_tensor(rng, *shape)
            axis = tensor_norm_exact(T)
            assert axis.delta == pytest.approx(brute_tensor_norm(T.x), rel=1e-12)

    def test_trilinear_value_at_signs(self):
        rng = np.random.default_rng(33)
        T = _rand_tensor(rng, 3, 3, 3)
        axis = tensor_norm_exact(T)
        value = float(np.einsum("ijk,i,j,k->", T.x, axis.u, axis.v, axis.w))
        assert value == pytest.approx(axis.delta, rel=1e-12)

    def test_budget_error(self):
        rng = np.random.default_rng(34)
        T = _rand_tensor(rng, 12, 12, 12)  # two smallest modes sum to 24 > 22
        with pytest.raises(EnumerationBudgetError, match="tensor_norm_heuristic"):
            tensor_norm_exact(T)


    @pytest.mark.parametrize("budget", [64, None])
    def test_blocked_scan_matches_brute_force(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(tensor, "_ENUM_BLOCK_BYTES", budget)
        rng = np.random.default_rng(35)
        for shape in [(5, 4, 3), (2, 6, 3), (4, 4, 4)]:
            T = _rand_tensor(rng, *shape)
            axis = tensor_norm_exact(T)
            assert axis.delta == pytest.approx(brute_tensor_norm(T.x), rel=1e-12)

    def test_exact_ties_resolve_lexicographically_first(self):
        # integer counts scaled by n*m*t triple-center to exact integers
        rng = np.random.default_rng(36)
        for shape in [(3, 4, 5), (4, 3, 3), (2, 2, 6), (3, 3, 3)]:
            y = rng.integers(0, 3, size=shape).astype(float) * np.prod(shape)
            y[:, 0, :] = y[:, 1, :]  # duplicate slices make exact ties likely
            T = triple_center(y)
            assert np.array_equal(T.x, np.round(T.x))
            axis = tensor_norm_exact(T)
            for got, ref in zip((axis.u, axis.v, axis.w), lexicographic_first_tensor_signs(T.x)):
                np.testing.assert_array_equal(got, ref)


class TestTensorNormHeuristic:
    def test_sign_tensor(self):
        axis = tensor_norm_heuristic(_sign_tensor())
        assert axis.delta == pytest.approx(8.0)
        assert not axis.exact

    def test_zero_tensor(self):
        assert tensor_norm_heuristic(Tensor3(x=np.zeros((2, 2, 2)))).delta == 0.0

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(35)
        hits = 0
        for _ in range(50):
            T = _rand_tensor(rng, 5, 4, 3)
            exact = tensor_norm_exact(T).delta
            heur = tensor_norm_heuristic(T).delta
            assert heur <= exact + 1e-10 * (1.0 + exact)
            if heur >= exact - 1e-10 * (1.0 + exact):
                hits += 1
        print(f"tensor heuristic equality rate: {hits}/50")
        assert hits >= 30


class TestTensorNorm:
    @pytest.mark.parametrize("shape, exact", [
        ((11, 11, 12), True),   # two smallest modes sum to 22, the limit
        ((12, 11, 11), True),
        ((11, 12, 12), False),  # 23: over the limit
        ((12, 12, 11), False),
    ])
    def test_solver_boundary_in_library_and_cli(self, tmp_path, capsys, shape, exact):
        y = np.random.default_rng(39).poisson(3.0, size=shape).astype(float)
        T = triple_center(y)
        axis = tensor_norm(T)
        assert axis.exact is exact
        solver = tensor_norm_exact if exact else tensor_norm_heuristic
        assert repr(axis.delta) == repr(solver(T).delta)
        path, out = tmp_path / "t.txt", tmp_path / "r.json"
        path.write_text(format_tensor(y))
        assert run(["tensor", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        report = AnalysisReport.from_json(out.read_text())
        assert report.results["exact"] is exact
        assert report.provenance["solver"] == ("exact" if exact else "heuristic")
        assert report.results["delta"] == axis.delta


class TestOctantReport:
    def test_sign_tensor_octants(self):
        T = _sign_tensor()
        axis = tensor_norm_exact(T)
        report = octant_report(T, axis)
        np.testing.assert_allclose([abs(s) for s in report.sums], 1.0)

    def test_zero_tensor(self):
        T = Tensor3(x=np.zeros((2, 2, 3)))
        report = octant_report(T, tensor_norm_exact(T))
        assert all(s == 0.0 for s in report.sums)

    def test_eight_equal_parts(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            T = _rand_tensor(rng, 3, 3, 3)
            axis = tensor_norm_exact(T)
            report = octant_report(T, axis)
            eighth = axis.delta / 8.0
            signs = (1, -1, -1, 1, -1, 1, 1, -1)
            for s, sign in zip(report.sums, signs):
                assert s == pytest.approx(sign * eighth, abs=1e-10 * (1 + axis.delta))

    def test_parity_identity_random_subsets(self):
        # complementing any one subset negates the block sum
        rng = np.random.default_rng(37)
        for _ in range(25):
            x = random_triple_centered(rng, 3, 3, 3)
            s = rng.random(3) < 0.5
            t = rng.random(3) < 0.5
            w = rng.random(3) < 0.5
            base = x[np.ix_(s, t, w)].sum()
            assert x[np.ix_(~s, t, w)].sum() == pytest.approx(-base, abs=1e-12)
            assert x[np.ix_(s, ~t, w)].sum() == pytest.approx(-base, abs=1e-12)
            assert x[np.ix_(s, t, ~w)].sum() == pytest.approx(-base, abs=1e-12)


class TestTripleCenterIntegration:
    def test_centered_input_is_fixed_point(self):
        rng = np.random.default_rng(38)
        x = random_triple_centered(rng, 4, 3, 2)
        again = triple_center(x)
        np.testing.assert_allclose(again.x, x, atol=1e-14)
