from __future__ import annotations

import itertools
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import screen_split
from oracles import (
    brute_tensor_norm,
    lexicographic_first_tensor_signs,
    random_triple_centered,
)
from taxicab_ca import kernels
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
            monkeypatch.setattr(kernels, "BLOCK_BYTES", budget)
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


def _budget(budget: int | None) -> ExitStack:
    """Shrink the contraction chunks and the kernel's working sets alike."""
    stack = ExitStack()
    if budget is not None:
        stack.enter_context(mock.patch.object(kernels, "BLOCK_BYTES", budget))
    return stack


def _integer_centered(y: np.ndarray) -> np.ndarray:
    """Triple-center integer counts scaled by n*m*t, which leaves exact integers."""
    x = triple_center(y * np.prod(y.shape)).x
    assert np.array_equal(x, np.round(x))
    return x


@st.composite
def _tie_prone_tensors(draw):
    """Integer tensors with duplicate and zero slices, some split by near ties.

    The near tie adds 2^-20 or 2^-30 times a second integer centered tensor:
    still exactly triple-centered and exact in float64 at these sizes, but
    rounded by float32 (2^-20 is a few float32 units of the entries) or
    lost in it (2^-30).
    """
    shape = tuple(draw(st.integers(1, 4)) for _ in range(3))
    size = int(np.prod(shape))
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)),
                 dtype=float).reshape(shape)
    axis = draw(st.integers(0, 2))
    if shape[axis] > 1 and draw(st.booleans()):
        np.moveaxis(y, axis, 0)[-1] = np.moveaxis(y, axis, 0)[0]
    if draw(st.booleans()):
        np.moveaxis(y, axis, 0)[0] = 0.0
    x = _integer_centered(y)
    if draw(st.booleans()):
        d = np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
                     dtype=float).reshape(shape)
        x = x + 2.0 ** -draw(st.sampled_from([20, 30])) * _integer_centered(d)
    return x


class TestScreenedTensorSearch:
    """The screened kernel returns the signs of scanning every pair in float64."""

    @settings(max_examples=80, deadline=None)
    @given(x=_tie_prone_tensors(), budget=st.sampled_from([64, 1024, None]),
           workers=st.sampled_from([1, 2, 3]))
    def test_matches_lexicographic_oracle(self, x, budget, workers):
        with _budget(budget), screen_split(workers):
            axis = tensor_norm_exact(Tensor3(x=x))
        for got, ref in zip((axis.u, axis.v, axis.w), lexicographic_first_tensor_signs(x)):
            np.testing.assert_array_equal(got, ref)

    def test_float32_misranking_is_confirmed_away(self):
        # one second-mode candidate per prefix and entries a few float32
        # units off the integers: the screen misranks some pairs
        rng = np.random.default_rng(39)
        with _budget(64):
            for _ in range(150):
                shape = tuple(int(v) for v in rng.integers(2, 5, size=3))
                x = (_integer_centered(rng.integers(0, 3, size=shape).astype(float))
                     + 2.0**-20 * _integer_centered(rng.integers(0, 2, size=shape).astype(float)))
                axis = tensor_norm_exact(Tensor3(x=x))
                for got, ref in zip((axis.u, axis.v, axis.w), lexicographic_first_tensor_signs(x)):
                    np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("budget", [64, 1024, None])
    def test_near_tie_below_float32_resolution(self, budget):
        # a duplicated slice ties three (s1, s2) pairs exactly; 2^-30 times
        # the centered sign tensor of the last of them, far below float32
        # resolution, makes that one the float64 maximum
        y = np.random.default_rng(9).integers(0, 2, size=(3, 3, 4)).astype(float)
        y[:, 2, :] = y[:, 1, :]
        base = _integer_centered(y)
        pairs = [(np.array((1.0,) + t1), np.array((1.0,) + t2))
                 for t1 in itertools.product((1.0, -1.0), repeat=2)
                 for t2 in itertools.product((1.0, -1.0), repeat=2)]
        fibers = [np.einsum("ijk,i,j->k", base, s1, s2) for s1, s2 in pairs]
        values = [np.abs(f).sum() for f in fibers]
        last = max(i for i, v in enumerate(values) if v == max(values))
        s1, s2 = pairs[last]
        s3 = np.where(fibers[last] >= 0.0, 1.0, -1.0)
        x = base + 2.0**-30 * _integer_centered(np.einsum("i,j,k->ijk", s1, s2, s3))
        with _budget(budget):
            axis = tensor_norm_exact(Tensor3(x=x))
        for got, ref in zip((axis.u, axis.v, axis.w), (s1, s2, s3)):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip((axis.u, axis.v, axis.w), lexicographic_first_tensor_signs(x)):
            np.testing.assert_array_equal(got, ref)
        first = lexicographic_first_tensor_signs(base)
        assert not all(np.array_equal(g, r) for g, r in zip((axis.u, axis.v, axis.w), first))

    @pytest.mark.parametrize("budget", [64, None])
    @pytest.mark.parametrize("x", [np.zeros((2, 3, 2)), np.zeros((4, 4, 4)),
                                   _sign_tensor().x], ids=["zero232", "zero444", "sign"])
    def test_all_ties_return_first_signs(self, budget, x):
        with _budget(budget):
            axis = tensor_norm_exact(Tensor3(x=x))
        for got, ref in zip((axis.u, axis.v, axis.w), lexicographic_first_tensor_signs(x)):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("exponent", [900, -900])
    def test_power_of_two_scaling_keeps_signs(self, exponent):
        rng = np.random.default_rng(38)
        for x in (random_triple_centered(rng, 4, 5, 6),
                  _integer_centered(rng.integers(0, 3, size=(5, 3, 4)).astype(float)),
                  random_triple_centered(rng, 11, 11, 72)):
            axis = tensor_norm_exact(Tensor3(x=x))
            # two workers and the module's threshold: every stack is a whole
            # grid, screened on the calling thread under its errstate
            with np.errstate(all="raise"), screen_split(2, share_work=None) as shares:
                scaled = tensor_norm_exact(Tensor3(x=np.ldexp(x, exponent)))  # no overflow or underflow
            assert shares == []
            for got, ref in zip((scaled.u, scaled.v, scaled.w), (axis.u, axis.v, axis.w)):
                np.testing.assert_array_equal(got, ref)
            assert scaled.delta == np.ldexp(axis.delta, exponent)


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

    def test_axis_of_another_shape(self):
        axis = tensor_norm_exact(_rand_tensor(np.random.default_rng(39), 3, 4, 2))
        with pytest.raises(ValueError, match="does not fit a tensor of shape"):
            octant_report(_rand_tensor(np.random.default_rng(40), 4, 3, 2), axis)

    @pytest.mark.parametrize("shape", [(3, 4, 2), (12, 12, 13)])
    def test_cli_sums_the_octants_once(self, shape, tmp_path, capsys):
        # (12, 12, 13) is over the enumeration budget: the heuristic runs
        path = tmp_path / "t.txt"
        path.write_text(format_tensor(np.random.default_rng(41).normal(size=shape)))
        with mock.patch.object(kernels, "block_sums", wraps=kernels.block_sums) as spy:
            assert run(["tensor", str(path)]) == 0
        capsys.readouterr()
        assert spy.call_count == 1

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


class TestCertificatesAtEveryScale:
    """The octant certificate holds to ``kernels.certificate_slack`` at every scale 2^k."""

    SCALES = range(-600, 601, 100)

    @staticmethod
    def _tensor(k) -> Tensor3:
        counts = np.random.default_rng(5).poisson(3.0, size=(5, 6, 7)).astype(float)
        return Tensor3(x=np.ldexp(triple_center(counts).x, k))

    @pytest.mark.parametrize("k", SCALES)
    def test_genuine_axes_pass(self, k):
        X, X1 = self._tensor(k), self._tensor(0)
        for solve in (tensor_norm_exact, tensor_norm_heuristic):
            axis, axis1 = solve(X), solve(X1)
            assert axis.delta == np.ldexp(axis1.delta, k)
            assert axis.octant_sums == tuple(np.ldexp(axis1.octant_sums, k))

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("octant", range(8))
    def test_octant_sum_moved_past_the_slack_raises(self, k, octant):
        X = self._tensor(k)
        _, slack = kernels.certificate_slack(X.x)
        sign = (1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0)[octant]
        for solve, (slacks, raises) in itertools.product(
                (tensor_norm_exact, tensor_norm_heuristic), ((0.5, False), (1.5, True))):
            target = sign * solve(X).delta / 8.0

            def moved(*args, real=kernels.block_sums):
                sums = list(real(*args))
                sums[octant] = target + slacks * slack
                return tuple(sums)

            with mock.patch.object(kernels, "block_sums", side_effect=moved):
                if raises:
                    with pytest.raises(kernels.InvariantError, match="block sum"):
                        solve(X)
                else:
                    solve(X)
