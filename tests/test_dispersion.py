from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_cut_norm_vec, brute_gain_d
from taxicab_ca.dispersion import (
    center,
    cut_norm_vec,
    gain_d,
    gain_s,
    lad,
    mad_mean,
    median,
    relative_contributions,
    sign_pm,
    variance_and_std,
)

# row projections of the first axis of the asbestos table; a centered vector
A1 = np.array([-0.2362, -0.0303, 0.0334, 0.1340, 0.0990])

samples = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=12,
)


class TestMadMean:
    def test_basic(self):
        assert mad_mean([1, 2, 3, 6]) == pytest.approx(1.5)

    def test_constant(self):
        assert mad_mean([3.7] * 5) == 0.0

    def test_axis_projection_column(self):
        # equals one fifth of the axis dispersion 4 * 0.1332
        assert mad_mean(A1 - A1.mean()) == pytest.approx(0.10658, abs=2e-4)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty sample"):
            mad_mean([])


class TestVarianceAndStd:
    def test_basic(self):
        s2, s = variance_and_std([1, 2, 3, 6])
        assert s2 == pytest.approx(3.5)
        assert s == pytest.approx(np.sqrt(3.5))

    def test_constant(self):
        assert variance_and_std([2, 2, 2]) == (0.0, 0.0)

    def test_heavy(self):
        s2, _ = variance_and_std([0, 0, 0, 4])
        assert s2 == pytest.approx(3.0)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty sample"):
            variance_and_std([])


class TestLad:
    def test_even_median_midpoint(self):
        assert median([1, 2, 3, 6]) == pytest.approx(2.5)
        assert lad([1, 2, 3, 6]) == pytest.approx(1.5)

    def test_constant(self):
        assert lad([5, 5, 5]) == 0.0

    def test_heavy(self):
        assert median([0, 0, 0, 4]) == 0.0
        assert lad([0, 0, 0, 4]) == pytest.approx(1.0)


class TestCenter:
    def test_basic(self):
        np.testing.assert_allclose(center([1, 2, 3, 6]), [-2, -1, 0, 3])

    def test_constant(self):
        np.testing.assert_allclose(center([4, 4, 4]), [0, 0, 0])


class TestCutNormVec:
    def test_basic(self):
        value, s_opt = cut_norm_vec([-2, -1, 0, 3])
        assert value == pytest.approx(3.0)
        assert s_opt == (2, 3)

    def test_matches_brute_force(self):
        assert cut_norm_vec([-2, -1, 0, 3])[0] == pytest.approx(
            brute_cut_norm_vec([-2, -1, 0, 3])
        )

    def test_zero_vector(self):
        value, s_opt = cut_norm_vec([0.0, 0.0])
        assert value == 0.0
        assert s_opt == (0, 1)

    def test_axis_projection_column(self):
        value, _ = cut_norm_vec(A1 - A1.mean())
        assert value == pytest.approx(0.2664, abs=2e-4)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("statistic", [cut_norm_vec, gain_d])
    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0],
                                        [5e-11, -3.0, -4.0], [1e308, -1e308, -1e308]])
    def test_not_centered(self, statistic, values):
        # no positive mass, or too little to be seen against the centering
        # tolerance, or a negative mass past float64: none is centered
        with pytest.raises(ValueError, match="^not centered$"):
            statistic(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("statistic", [cut_norm_vec, gain_d])
    @pytest.mark.parametrize("values", [[np.nan, 1.0, -1.0], [np.inf, -1.0],
                                        [-np.inf, np.inf], [[1.0, np.nan], [-1.0, 0.0]]])
    def test_non_finite_sample_raises(self, statistic, values):
        # the centering check cannot see them: its comparisons are false
        # on a nan or inf mass, so the sample itself is checked first
        with pytest.raises(ValueError, match="^sample contains non-finite values$"):
            statistic(values)


class TestGainD:
    def test_basic(self):
        value, u = gain_d([-2, -1, 0, 3])
        assert value == pytest.approx(1.5)
        np.testing.assert_array_equal(u, [-1, -1, 1, 1])

    def test_matches_brute_force(self):
        assert gain_d([-2, -1, 0, 3])[0] == pytest.approx(brute_gain_d([-2, -1, 0, 3]))

    def test_zero_vector(self):
        value, u = gain_d([0.0, 0.0, 0.0])
        assert value == 0.0
        np.testing.assert_array_equal(u, [1, 1, 1])

    def test_axis_projection_column(self):
        value, _ = gain_d(A1 - A1.mean())
        assert value == pytest.approx(0.10658, abs=2e-4)


class TestGainLad:
    """``lad`` is the gain maximum of the median-centered sample over sign vectors."""

    def test_basic_brute(self):
        y = np.array([1.0, 2, 3, 6])
        # oracle: centered at the median, best sign vector
        assert lad(y) == pytest.approx(brute_gain_d(y - median(y)))
        assert lad(y) == pytest.approx(1.5)

    def test_constant(self):
        assert lad([2, 2]) == 0.0

    def test_heavy(self):
        assert lad([0, 0, 0, 4]) == pytest.approx(1.0)
        assert lad([0, 0, 0, 4]) == pytest.approx(brute_gain_d(np.array([0.0, 0, 0, 4])))


class TestGainS:
    def test_basic(self):
        assert gain_s([1, 2, 3, 6]) == pytest.approx(np.sqrt(3.5))

    def test_constant(self):
        assert gain_s([1, 1, 1]) == 0.0

    def test_heavy(self):
        assert gain_s([0, 0, 0, 4]) == pytest.approx(np.sqrt(3.0))


class TestRelativeContributions:
    def test_heavy_sample(self):
        rep = relative_contributions([0, 0, 0, 4])
        np.testing.assert_allclose(rep.rc_d, [1 / 6, 1 / 6, 1 / 6, 1 / 2])
        assert rep.heavyweight_indices == (3,)
        np.testing.assert_allclose(rep.rc_s2, [1 / 12, 1 / 12, 1 / 12, 3 / 4])
        assert max(rep.rc_s2) < 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, name", [([1e200, 0.0, 5.0], "s2"),
                                              ([1e308, 1e308], "mean"),
                                              ([1e308, -1.7e308, 1e308, 1e308], "median"),
                                              ([1e308, -1e308], "d")])
    def test_overflow_names_statistic(self, values, name):
        with pytest.raises(ValueError, match=f"^{name} overflows"):
            relative_contributions(values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("statistic, values, name", [
        (variance_and_std, [1e200, 0.0, 5.0], "s2"),
        (gain_s, [1e200, 0.0, 5.0], "s"),
        (mad_mean, [1e308, -1e308], "d"),
        (lad, [1e308, -1e308], "lad"),
        (median, [1e308, 1e308], "median"),
        (cut_norm_vec, [1e308, 1e308, -1e308, -1e308], "cut norm"),
    ])
    def test_each_statistic_raises_on_overflow(self, statistic, values, name):
        with pytest.raises(ValueError, match=f"^{name} overflows float64"):
            statistic(values)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("statistic, values, name", [
        (center, [1e308, 1e308], "mean"),
        (center, [1.7e308, -1.7e308, -1.7e308], "x"),
        (gain_d, [1e308, -1e308], "d"),
    ])
    def test_center_and_gain_d_raise_on_overflow(self, statistic, values, name):
        # gain_d of a centered sample is its mad_mean, which raises as well
        with pytest.raises(ValueError, match=f"^{name} overflows float64"):
            statistic(values)

    def test_degenerate(self):
        rep = relative_contributions([7, 7, 7])
        assert rep.degenerate
        assert rep.rc_d == () and rep.rc_s2 == () and rep.rc_lad == ()
        assert rep.heavyweight_indices == ()

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            y = rng.normal(size=rng.integers(2, 20)) * 10
            rep = relative_contributions(y)
            if rep.degenerate:
                continue
            assert sum(rep.rc_d) == pytest.approx(1.0, abs=1e-10)
            assert sum(rep.rc_s2) == pytest.approx(1.0, abs=1e-10)
            assert sum(rep.rc_lad) == pytest.approx(1.0, abs=1e-10)

    def test_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            y = rng.normal(size=rng.integers(1, 30)) * rng.uniform(0.1, 50)
            rep = relative_contributions(y)
            if rep.degenerate:
                continue
            assert all(0 <= v <= 0.5 + 1e-12 for v in rep.rc_d)
            assert all(0 <= v < 1 for v in rep.rc_s2)
            assert all(0 <= v <= 1 + 1e-12 for v in rep.rc_lad)

    def test_heavyweight_never_maxes_s2_or_lad(self):
        # heavyweight with spread among the other elements: x = (-(a+b+c), a, b, c)
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b, c = np.sort(rng.uniform(0.5, 10.0, size=3) * np.array([1, 2, 4]))
            y = np.array([-(a + b + c), a, b, c]) + rng.uniform(-5, 5)
            rep = relative_contributions(y)
            assert rep.heavyweight_indices == (0,)
            assert rep.rc_s2[0] < 1.0
            assert rep.rc_lad[0] < 1.0


class TestLemma1Property:
    """d equals twice the cut-norm of the centered sample, above all subset sums."""

    @settings(max_examples=300, deadline=None)
    @given(samples)
    def test_d_equals_twice_cut_norm_brute(self, values):
        x = center(values)
        value, _ = cut_norm_vec(x)
        assert value == pytest.approx(brute_cut_norm_vec(x), abs=1e-9)
        assert mad_mean(values) == pytest.approx(
            2.0 * value / len(values), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(samples)
    def test_gain_d_dominates_random_signs(self, values):
        x = center(values)
        best, _ = gain_d(x)
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.choice([-1.0, 1.0], size=len(values))
            assert best >= float(x @ u) / len(values) - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(samples)
    def test_ordering_lad_d_s(self, values):
        d = mad_mean(values)
        _, s = variance_and_std(values)
        l = lad(values)
        slack = 1e-12 * (1.0 + abs(s))
        assert l <= d + slack
        assert d <= s + slack


class TestInvariance:
    @settings(max_examples=200, deadline=None)
    @given(samples, st.floats(-50, 50), st.floats(-10, 10))
    def test_translation_and_scale(self, values, shift, scale):
        y = np.asarray(values, dtype=float)
        d0 = mad_mean(y)
        s0 = variance_and_std(y)[1]
        l0 = lad(y)
        shifted = y + shift
        assert mad_mean(shifted) == pytest.approx(d0, abs=1e-9)
        assert variance_and_std(shifted)[1] == pytest.approx(s0, abs=1e-9)
        assert lad(shifted) == pytest.approx(l0, abs=1e-9)
        scaled = y * scale
        assert mad_mean(scaled) == pytest.approx(abs(scale) * d0, abs=1e-9)
        assert variance_and_std(scaled)[1] == pytest.approx(abs(scale) * s0, abs=1e-9)
        assert lad(scaled) == pytest.approx(abs(scale) * l0, abs=1e-9)


class TestSignPm:
    """sign_pm maps x >= 0 to +1 and everything else (nan included) to -1."""

    @staticmethod
    def _where(x) -> np.ndarray:
        return np.where(np.asarray(x, dtype=float) >= 0.0, 1.0, -1.0)

    def test_zero_nan_and_infinities(self):
        x = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324])
        s = sign_pm(x)
        np.testing.assert_array_equal(s, [1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        assert s.tobytes() == self._where(x).tobytes()  # no -0.0 or other stray bits

    @pytest.mark.parametrize("shape", [(), (0,), (1,), (7,), (3, 5), (86, 1500), (2, 3, 4)])
    def test_random_arrays_match_where(self, shape):
        rng = np.random.default_rng(sum(shape) + len(shape))
        x = rng.normal(size=shape)
        if x.size:
            x.flat[rng.integers(0, x.size, size=3)] = [0.0, -0.0, np.nan]
        expected = self._where(x)
        s = sign_pm(x)
        assert s.dtype == np.float64 and s.shape == x.shape
        assert s.tobytes() == expected.tobytes()
        out = np.full(shape, 7.0)
        assert sign_pm(x, out=out) is out
        assert out.tobytes() == expected.tobytes()

    def test_integer_and_list_inputs(self):
        assert sign_pm([3, 0, -2]).tobytes() == np.array([1.0, 1.0, -1.0]).tobytes()
        assert sign_pm(np.arange(-2, 3)).dtype == np.float64
        # a strided view into a preallocated output, as the heuristic uses it
        x = np.arange(-6.0, 6.0).reshape(3, 4)
        out = np.empty((4, 3))
        sign_pm(x.T, out=out)
        assert out.tobytes() == self._where(x.T).tobytes()
