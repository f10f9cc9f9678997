from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import align_sign, assert_match_up_to_sign, screen_split
from oracles import (
    brute_cut_norm_matrix,
    brute_matrix_norm,
    lexicographic_first_max,
    loop_norm_heuristic,
    loop_restart_finals,
    loop_restart_visits,
    loop_walk_finals,
    random_double_centered,
)
from taxicab_ca import kernels, taxicab
from taxicab_ca.dispersion import sign_pm
from taxicab_ca.residual import (
    CorrespondenceMatrix,
    ResidualMatrix,
    Tensor3,
    correspondence_residual,
    from_counts,
    triple_center,
)
from taxicab_ca.taxicab import (
    ENUM_LIMIT,
    EnumerationBudgetError,
    block_sums,
    cut_norm_matrix,
    deflate,
    norm_exact,
    norm_heuristic,
    rc_axis,
    seriate,
    tca,
)
from taxicab_ca.tensor import tensor_norm_exact

# first and second axes of the asbestos table
U1 = np.array([-1.0, 1.0, 1.0, 1.0])
V1 = np.array([-1.0, -1.0, 1.0, 1.0, 1.0])
A1 = np.array([-0.2362, -0.0303, 0.0334, 0.1340, 0.0990])
B1 = np.array([-0.2664, 0.0780, 0.1302, 0.0582])
F1 = np.array([-0.7624, -0.0892, 0.4841, 0.7718, 0.9138])
G1 = np.array([-0.5175, 0.2380, 1.1553, 1.2981])
DELTA1 = 0.5328
DELTA2 = 0.2132
B2 = np.array([0.0, -0.1066, 0.0640, 0.0426])
G2 = np.array([0.0, -0.3257, 0.5681, 0.9521])


def _rand_residual(rng, n, m) -> ResidualMatrix:
    return ResidualMatrix(x=random_double_centered(rng, n, m))


def _zero_residual(n, m) -> ResidualMatrix:
    return ResidualMatrix(x=np.zeros((n, m)))


def _kernel(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum and first maximizer of ||m s||_1 from the kernel, m as a stack of one."""
    val, index, s = kernels.enumerate_best([m[None]])
    assert index == 0
    return val, s


def _budget(budget: int | None):
    """Shrink the kernel's working-set budget, or leave it as it is."""
    if budget is None:
        return nullcontext()
    return mock.patch.object(kernels, "BLOCK_BYTES", budget)


# 2^-30 (about 1e-9) is below float32 resolution, so the screen cannot
# separate the candidates it splits, while float64 holds every sum exactly.
NEAR_TIE = 1.0 + 2.0**-30


def _fine(ints) -> np.ndarray:
    """Integers up to 1024 times 2^-31: float32 rounds them, float64 adds them exactly."""
    return np.asarray(ints, dtype=float) * 2.0**-31


@st.composite
def _tie_prone_matrices(draw):
    """Small integer matrices with duplicate and zero lines, and near ties.

    One column may be scaled by ``NEAR_TIE``, or every entry moved by a few
    float32 units (``_fine``): either splits exact ties by less than the
    screen's rounding, and every sum stays exact in float64, so the oracle
    and the kernel see the same values.
    """
    n, q = draw(st.integers(1, 12)), draw(st.integers(1, 9))
    cells = draw(st.lists(st.integers(-3, 3), min_size=n * q, max_size=n * q))
    m = np.array(cells, dtype=float).reshape(n, q)
    col, row = st.integers(0, q - 1), st.integers(0, n - 1)
    if draw(st.booleans()):
        m[:, draw(col)] = m[:, draw(col)]
    if draw(st.booleans()):
        m[draw(row)] = m[draw(row)]
    if draw(st.booleans()):
        m[:, draw(col)] = 0.0
    if draw(st.booleans()):
        m[draw(row)] = 0.0
    if draw(st.booleans()):
        m[:, draw(col)] *= NEAR_TIE
    elif draw(st.booleans()):
        fine = draw(st.lists(st.integers(-1024, 1024), min_size=n * q, max_size=n * q))
        m += _fine(fine).reshape(n, q)
    return m


class TestNormExact:
    def test_asbestos_axis1(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        axis = norm_exact(X)
        assert axis.exact
        assert axis.delta == pytest.approx(DELTA1, abs=5e-4)
        flip = align_sign(axis.u, U1)
        np.testing.assert_array_equal(flip * axis.u, U1)
        np.testing.assert_array_equal(flip * axis.v, V1)
        np.testing.assert_allclose(flip * axis.a, A1, atol=5e-4)
        np.testing.assert_allclose(flip * axis.b, B1, atol=5e-4)

    def test_zero_matrix(self):
        axis = norm_exact(_zero_residual(3, 4))
        assert axis.delta == 0.0
        assert axis.u_indeterminate == (0, 1, 2, 3)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            X = _rand_residual(rng, 5, 4)
            axis = norm_exact(X)
            assert axis.delta == pytest.approx(brute_matrix_norm(X.x), rel=1e-12)

    def test_transition_fixed_point_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            X = _rand_residual(rng, 6, 5)
            axis = norm_exact(X)
            np.testing.assert_array_equal(axis.v, sign_pm(X.x @ axis.u))
            np.testing.assert_array_equal(axis.u, sign_pm(X.x.T @ axis.v))

    def test_identities_sum_and_norms(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            X = _rand_residual(rng, 5, 6)
            axis = norm_exact(X)
            slack = 1e-10 * (1.0 + axis.delta)
            assert abs(axis.a.sum()) <= slack
            assert abs(axis.b.sum()) <= slack
            assert abs(np.abs(axis.a).sum() - axis.delta) <= slack
            assert abs(np.abs(axis.b).sum() - axis.delta) <= slack

    @pytest.mark.parametrize(("shape", "width"), [((30, 8), 8), ((8, 30), 8), ((22, 22), 22),
                                                  ((11, 11, 72), 22), ((72, 5, 11), 16)])
    def test_enumeration_width(self, shape, width):
        # the d - 1 smallest mode sizes, which every solver picker and budget check reads
        assert kernels.enum_width(shape) == width

    def test_budget_error(self):
        rng = np.random.default_rng(3)
        X = _rand_residual(rng, 24, 23)
        with pytest.raises(EnumerationBudgetError, match="norm_heuristic"):
            norm_exact(X)


class TestEnumerationKernel:
    """The blocked sign-enumeration kernel against one-at-a-time scans."""

    @pytest.mark.parametrize("q", range(1, 13))
    def test_matches_oracles(self, q):
        rng = np.random.default_rng(100 + q)
        for n in sorted({q, q + 3, 40}):
            m = rng.normal(size=(n, q))
            ref_val, ref_s = lexicographic_first_max(m)
            for workers in (1, 3):  # one share, and three wherever a screen has the items
                with screen_split(workers):
                    val, s = _kernel(m)
                np.testing.assert_array_equal(s, ref_s)
                assert val == pytest.approx(ref_val, rel=1e-12)
                assert val == pytest.approx(brute_matrix_norm(m), rel=1e-12)

    @pytest.mark.parametrize("budget", [64, 1024, 8192])
    def test_small_budgets_split_and_agree(self, monkeypatch, budget):
        monkeypatch.setattr(kernels, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(budget)
        for q in (1, 2, 5, 9):
            m = rng.normal(size=(12, q))
            ref_val, ref_s = lexicographic_first_max(m)
            val, s = _kernel(m)
            np.testing.assert_array_equal(s, ref_s)
            assert val == pytest.approx(ref_val, rel=1e-12)

    def test_tall_table_splits_into_blocks(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4000, 12))
        k, block = kernels._enum_split(*m.shape)
        assert k < 11 and (1 << (11 - k)) > block  # several prefix blocks
        val, s = _kernel(m)
        ref_val, ref_s = lexicographic_first_max(m)
        np.testing.assert_array_equal(s, ref_s)
        assert val == pytest.approx(ref_val, rel=1e-12)

    @pytest.mark.parametrize("budget", [64, None])
    def test_exact_ties_resolve_lexicographically_first(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(kernels, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(8)
        for _ in range(30):
            q = int(rng.integers(2, 9))
            m = rng.integers(-3, 4, size=(int(rng.integers(q, 12)), q)).astype(float)
            m[:, rng.integers(0, q)] = 0.0                  # a zero column
            m[:, rng.integers(0, q)] = m[:, rng.integers(0, q)]  # a duplicate column
            val, s = _kernel(m)
            ref_val, ref_s = lexicographic_first_max(m)
            assert val == ref_val
            np.testing.assert_array_equal(s, ref_s)

    def test_all_ties_pick_first_vector(self):
        val, s = _kernel(np.zeros((3, 6)))
        assert val == 0.0
        np.testing.assert_array_equal(s, np.ones(6))

    def test_working_memory_is_bounded(self):
        X = _rand_residual(np.random.default_rng(9), 5000, 14)
        tracemalloc.start()
        try:
            norm_exact(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_tensor_working_memory_is_bounded(self):
        # 1024 x 1024 (first-mode, second-mode) pairs: a score array over
        # them would take 4 MiB in float32 and 8 MiB in float64
        rng = np.random.default_rng(10)
        T = triple_center(rng.poisson(4.0, size=(11, 11, 72)).astype(float))
        tracemalloc.start()
        try:
            tensor_norm_exact(T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestScreenedKernel:
    """The float32 screen with float64 confirmation returns the float64 scan's signs."""

    @settings(max_examples=80, deadline=None)
    @given(m=_tie_prone_matrices(), budget=st.sampled_from([64, 1024, None]),
           workers=st.sampled_from([1, 2, 3]))
    def test_matches_lexicographic_oracle(self, m, budget, workers):
        with _budget(budget), screen_split(workers):
            val, s = _kernel(m)
        ref_val, ref_s = lexicographic_first_max(m)
        assert val == ref_val
        np.testing.assert_array_equal(s, ref_s)

    @pytest.mark.parametrize("budget", [64, 1024, None])
    @pytest.mark.parametrize("q", [2, 5, 9])
    def test_near_tie_below_float32_resolution(self, budget, q):
        # the identity ties every candidate at q; -2^-30 in row 0 lifts the
        # ones with s[1] = -1 by 2^-30, which float32 cannot see
        m = np.eye(q)
        m[0, 1] = 1.0 - NEAR_TIE
        with _budget(budget):
            val, s = _kernel(m)
        ref_val, ref_s = lexicographic_first_max(m)
        assert val == ref_val == q + 2.0**-30
        np.testing.assert_array_equal(s, ref_s)
        assert s[1] == -1.0  # not the first of the candidates the screen ties

    # (shape, budget, tile values, table rows r side by side): at a 64-byte
    # budget k is 0 or 1; the others are prefix screens with k = q / 2,
    # whose rows hold r > 1 table rows, or one on 5000 rows or with tiling off
    @pytest.mark.parametrize("shape,budget,tile,reps", [
        ((7, 3), 64, None, 2), ((60, 9), 64, None, 1), ((400, 8), 64, None, 1),
        ((7, 8), 1024, None, 16), ((60, 8), 4096, None, 16), ((60, 8), 4096, 1, 1),
        ((5000, 4), 1 << 17, None, 1)])
    @pytest.mark.parametrize("cancel", [False, True])
    @pytest.mark.parametrize("exponent", [0, 700, -700])
    def test_margin_bounds_the_screen_error(self, shape, budget, tile, reps, cancel, exponent):
        # k_ref = 0 makes every reference prefix one candidate, so the
        # screened maxima are the screened scores of single candidates
        rng = np.random.default_rng(13)
        n, q = shape
        m = rng.normal(size=shape)
        if cancel:
            # the last q // 2 columns are minus the first a few float32 units
            # off: where the signs of the two halves agree, the row sums
            # nearly cancel, and with k = q / 2 the screen's h = -l nearly
            half = q // 2
            off = rng.uniform(-2.0**-20, 2.0**-20, size=(n, half))
            m[:, q - half:] = -m[:, :half] * (1.0 + off)
        m = np.ldexp(m, exponent)
        tiling = nullcontext() if tile is None else mock.patch.object(kernels, "_TILE_VALUES", tile)
        with _budget(budget), tiling:
            k, _ = kernels._enum_split(n, q, itemsize=4)
            assert k < q - 1 and kernels._tile_reps(n, k) == reps
            maxima, margin = kernels._screen(m[None], 0)
        signs = kernels.sign_grid(q, 0, 1 << (q - 1))
        reference = np.abs(m @ signs.T).sum(axis=0)
        error = np.abs(maxima[0] - reference)
        assert 0.0 < error.max() <= margin

    @pytest.mark.parametrize("shape,whole", [((3, 30, 9), True), ((2, 72, 11), True),
                                             ((3, 30, 17), False), ((1, 3000, 14), False)])
    def test_margin_of_each_path(self, shape, whole):
        # integers up to 2^10 times 2^-7: every sum of |entries| is exact
        stack = np.random.default_rng(28).integers(-1024, 1025, size=shape) * 2.0**-7
        count, n, q = shape
        k, _ = kernels._enum_split(n, q, itemsize=4)
        assert (k == q - 1) == whole
        _, margin = kernels._screen(stack, kernels._enum_split(n, q)[0])
        abs_sum = np.abs(stack).sum(axis=(1, 2)).max()
        eps = float(np.finfo(np.float32).eps)
        if whole:  # the whole grid keeps rounding_margin
            assert margin == (n + q + 4) * eps * abs_sum
        else:  # gamma_(3n+q+5) of float32
            terms = (3 * n + q + 5) * eps / 2
            assert margin == terms / (1.0 - terms) * abs_sum
            assert (n + q + 4) * eps * abs_sum < margin < 2 * (n + q + 4) * eps * abs_sum

    def test_float32_misranking_is_confirmed_away(self):
        # one candidate per prefix, and entries a few float32 units off the
        # integers: the screen ranks some prefixes above the float64 winner's
        rng = np.random.default_rng(12)
        with _budget(64):
            for _ in range(300):
                q = int(rng.integers(2, 7))
                shape = (int(rng.integers(q, q + 8)), q)
                m = rng.integers(-2, 3, size=shape) + _fine(rng.integers(-1024, 1025, size=shape))
                val, s = _kernel(m)
                ref_val, ref_s = lexicographic_first_max(m)
                assert val == ref_val
                np.testing.assert_array_equal(s, ref_s)

    @pytest.mark.parametrize("budget", [64, None])
    @pytest.mark.parametrize("shape", [(3, 6), (40, 12), (1, 1)])
    def test_all_ties_confirm_every_candidate(self, budget, shape):
        zero = np.zeros(shape)
        with _budget(budget):
            k_ref, _ = kernels._enum_split(*shape)
            maxima, margin = kernels._screen(zero[None], k_ref)
            val, s = _kernel(zero)
        assert margin == 0.0 and np.all(maxima == 0.0)  # every pair reaches the floor
        assert val == 0.0
        np.testing.assert_array_equal(s, np.ones(shape[1]))

    @pytest.mark.parametrize("exponent", [900, -900])
    def test_power_of_two_scaling_keeps_signs(self, exponent):
        rng = np.random.default_rng(11)
        ties = rng.integers(-2, 3, size=(20, 8)).astype(float)
        ties[:, 3] = ties[:, 5] * NEAR_TIE
        for m in (rng.normal(size=(30, 9)), ties, rng.normal(size=(3000, 12))):
            val, s = _kernel(m)
            # two workers and the module's threshold: the 3000 x 12 prefix
            # screen splits, and its worker thread runs under the caller's
            # errstate; the whole grids of the others take no share round
            with np.errstate(all="raise"), screen_split(2, share_work=None) as shares:
                scaled_val, scaled_s = _kernel(np.ldexp(m, exponent))  # no overflow or underflow
            assert shares == ([2] if m.shape == (3000, 12) else [])
            np.testing.assert_array_equal(scaled_s, s)
            assert scaled_val == np.ldexp(val, exponent)


def _screens(call) -> list[tuple[np.ndarray, float]]:
    """Every (maxima, margin) that ``_screen`` returns while ``call()`` runs."""
    results = []
    real = kernels._screen

    def recorded(stack, k_ref):
        results.append(real(stack, k_ref))
        return results[-1]

    with mock.patch.object(kernels, "_screen", recorded):
        call()
    return results


def _unchecked(cls, x):
    """A ResidualMatrix or Tensor3 holding x, past its validation."""
    obj = object.__new__(cls)
    object.__setattr__(obj, "x", x)
    return obj


class TestScreenShares:
    """A screen split into shares returns the bits of a one-share screen."""

    # (stack shape, budget, most shares): the whole grid at once, 34
    # matrices a block, on the calling thread with no share round; one block
    # of prefix projections; several matrices with two blocks each; several
    # matrices with one block each.  A prefix screen takes one share more
    # than the budget holds sum buffers of 2^k x n float32 values.
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("shape,budget,most", [((40, 30, 9), None, 34), ((1, 60, 17), None, 3),
                                                   ((5, 40, 12), 8192, 2), ((7, 30, 9), 4096, 3)])
    def test_maxima_and_margin_are_bit_identical(self, shape, budget, most, workers):
        stack = np.random.default_rng(21).normal(size=shape)
        with _budget(budget):
            k_ref, _ = kernels._enum_split(*shape[1:])
            whole = kernels._enum_split(*shape[1:], itemsize=4)[0] == shape[2] - 1
            with screen_split(1) as shares:
                maxima, margin = kernels._screen(stack, k_ref)
            assert set(shares) == (set() if whole else {1})
            with screen_split(workers) as shares:
                split_maxima, split_margin = kernels._screen(stack, k_ref)
        assert set(shares) == (set() if whole else {min(workers, most)})
        np.testing.assert_array_equal(split_maxima, maxima)
        assert split_margin == margin

    @pytest.mark.parametrize("workers", [2, 3])
    def test_tensor_stacks_are_bit_identical(self, workers):
        # 512 contracted 40 x 10 matrices, in stacks of 6 under a 20 KiB
        # budget: prefix screens of eight prefixes, which split in up to
        # three shares (whole grids do not split:
        # test_whole_grids_screen_on_the_calling_thread)
        T = triple_center(np.random.default_rng(22).poisson(4.0, size=(10, 10, 40)).astype(float))
        with _budget(20 << 10):
            with screen_split(1):
                one = _screens(lambda: tensor_norm_exact(T))
            with screen_split(workers) as shares:
                split = _screens(lambda: tensor_norm_exact(T))
        assert set(shares) == {workers}
        assert len(one) == len(split) == 86
        for (maxima, margin), (split_maxima, split_margin) in zip(one, split):
            np.testing.assert_array_equal(split_maxima, maxima)
            assert split_margin == margin

    def test_more_shares_than_cpus_switching_often(self):
        # eight shares on any machine, and the interpreter switching threads
        # every microsecond: a share that touched another's buffers or
        # maxima would change some bits.  The prefix screen of 4 x 20 has
        # sum buffers of 8192 x 4 float32 values, so eight fit the budget;
        # the whole grid of 40 x 30 x 9 stays on the calling thread.
        rng = np.random.default_rng(25)
        stacks = [rng.normal(size=(40, 30, 9)), rng.normal(size=(1, 4, 20))]
        k_refs = [kernels._enum_split(*stack.shape[1:])[0] for stack in stacks]
        with screen_split(1):
            expected = [kernels._screen(stack, k_ref) for stack, k_ref in zip(stacks, k_refs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with screen_split(8) as shares:
                got = [kernels._screen(stack, k_ref) for stack, k_ref in zip(stacks, k_refs)]
        finally:
            sys.setswitchinterval(interval)
        assert shares == [8]
        for (maxima, margin), (split_maxima, split_margin) in zip(expected, got):
            np.testing.assert_array_equal(split_maxima, maxima)
            assert split_margin == margin

    @pytest.mark.parametrize("shape", [(34, 72, 11), (1, 40, 15), (1, 22, 15)])
    def test_small_screens_stay_on_one_thread(self, shape):
        # at most 2.5M table entries in all: the prefix screens are under two
        # shares of _SHARE_WORK, and the whole grid of 72 x 11 takes no round
        stack = np.random.default_rng(24).normal(size=shape)
        with screen_split(2, share_work=None) as shares:
            kernels._screen(stack, kernels._enum_split(*shape[1:])[0])
        assert shares == ([] if shape == (34, 72, 11) else [1])

    @pytest.mark.parametrize("shape,split", [((40, 30, 9), 2), ((3, 30, 17), 1)])
    def test_each_stack_is_cast_once(self, shape, split):
        # the whole grid (k = q - 1) with two workers, on the calling thread,
        # and three matrices of 16 prefixes each in one share
        stack = np.random.default_rng(27).normal(size=shape)
        k, _ = kernels._enum_split(*shape[1:], itemsize=4)
        assert (k == shape[2] - 1) == (split == 2)
        with screen_split(split) as shares, \
                mock.patch.object(kernels, "_to_float32", wraps=kernels._to_float32) as cast:
            kernels._screen(stack, kernels._enum_split(*shape[1:])[0])
        assert shares == ([] if split == 2 else [1, 1, 1])
        assert cast.call_count == 1

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_whole_grids_screen_on_the_calling_thread(self, workers):
        # a stack of 40 matrices of 30 x 9 and the 11 x 11 x 72 tensor's
        # stacks of 72 x 11 contractions: every sign grid fits one block, so
        # no screen asks for shares or makes a round, however many could run
        rng = np.random.default_rng(26)
        stack = rng.normal(size=(40, 30, 9))
        T = triple_center(rng.poisson(4.0, size=(11, 11, 72)).astype(float))
        k_ref, _ = kernels._enum_split(*stack.shape[1:])
        expected = [kernels._screen(stack, k_ref)] + _screens(lambda: tensor_norm_exact(T))
        with screen_split(workers) as shares, \
                mock.patch.object(kernels, "_share_bounds", wraps=kernels._share_bounds) as bounds:
            got = [kernels._screen(stack, k_ref)] + _screens(lambda: tensor_norm_exact(T))
        assert shares == [] and bounds.call_count == 0
        assert len(got) == len(expected) == 8
        for (maxima, margin), (got_maxima, got_margin) in zip(expected, got):
            np.testing.assert_array_equal(got_maxima, maxima)
            assert got_margin == margin

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="np.errstate is a context variable from numpy 2 on")
    def test_shares_run_under_the_callers_context(self):
        seen = {}

        def share(i, lo, hi):
            seen[i] = (np.geterr()["over"], threading.get_ident(), (lo, hi))

        with np.errstate(over="raise"):
            assert kernels._run_shares(share, [0, 2, 5, 9]) is None
        assert [seen[i][2] for i in range(3)] == [(0, 2), (2, 5), (5, 9)]
        assert [seen[i][0] for i in range(3)] == ["raise"] * 3
        assert seen[0][1] == threading.get_ident()
        assert threading.get_ident() not in (seen[1][1], seen[2][1])

    @pytest.mark.parametrize("failing", [{0}, {1}, {1, 2}, {0, 2}])
    def test_errors_are_raised_after_every_share_ends(self, failing):
        done = []

        def share(i, lo, hi):
            if i in failing:
                raise ValueError(f"share {i}")
            time.sleep(0.05)
            done.append(i)
            return 0.0

        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"share {min(failing)}"):
            kernels._run_shares(share, [0, 1, 2, 3])
        assert sorted(done) == sorted({0, 1, 2} - failing)
        assert threading.active_count() == threads


class TestEnumerationStacks:
    """The kernel reads its stacks once, screening and confirming each in turn."""

    def test_tensor_contractions_are_built_once(self):
        # 512 contracted 40 x 10 matrices, in stacks of 327
        T = triple_center(np.random.default_rng(22).poisson(4.0, size=(10, 10, 40)).astype(float))
        built, screened = [], []
        real_kernel, real_screen = kernels.enumerate_best, kernels._screen

        def kernel(stacks):
            assert iter(stacks) is stacks  # a one-shot iterator

            def counted():
                for stack in stacks:
                    built.append(id(stack))
                    yield stack
            return real_kernel(counted())

        def screen(stack, k_ref):
            screened.append(id(stack))
            return real_screen(stack, k_ref)

        with mock.patch.object(kernels, "enumerate_best", kernel), \
                mock.patch.object(kernels, "_screen", screen):
            axis = tensor_norm_exact(T)
        assert len(built) == 2
        assert screened == built
        plain = tensor_norm_exact(T)
        for got, want in zip((axis.u, axis.v, axis.w), (plain.u, plain.v, plain.w)):
            np.testing.assert_array_equal(got, want)

    def test_ties_across_stacks_keep_the_first_matrix(self):
        rng = np.random.default_rng(26)
        A = rng.normal(size=(12, 6))
        ref_val, ref_s = lexicographic_first_max(A)
        val, index, s = kernels.enumerate_best(iter([A[None], A[None]]))
        assert (val, index) == (ref_val, 0)
        np.testing.assert_array_equal(s, ref_s)
        # a weaker first stack, also one below float32 resolution, does not
        # hide the later maximum
        for factor in (0.5, 1.0 - 2.0**-30):
            B = A * factor
            assert lexicographic_first_max(B)[0] < ref_val
            val, index, s = kernels.enumerate_best(iter([B[None], A[None]]))
            assert (val, index) == (ref_val, 1)
            np.testing.assert_array_equal(s, ref_s)
            val, index, s = kernels.enumerate_best(iter([A[None], B[None]]))
            assert (val, index) == (ref_val, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stack_after_a_finite_one_raises(self, bad):
        A = np.random.default_rng(27).normal(size=(12, 6))
        C = A.copy()
        C[3, 2] = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(taxicab.InvariantError, match="confirmed no candidate"):
            kernels.enumerate_best(iter([A[None], C[None]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("shape", [(1, 6, 5), (1, 40, 20)])
    def test_non_finite_stack_raises_without_a_warning(self, bad, shape):
        # a whole-grid screen and a prefix screen: the nan that a non-finite
        # entry makes in the products and the floor (inf - inf) warns of
        # nothing, and the error says what is wrong
        stack = np.random.default_rng(28).normal(size=shape)
        stack[0, 1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(taxicab.InvariantError, match="confirmed no candidate"):
                kernels.enumerate_best(iter([stack]))


def _rescored(call) -> tuple[list[int], list[tuple[np.ndarray, float]], object]:
    """The prefixes the reference scan scores while ``call()`` runs, the screens, and its result."""
    scanned, result = [], []
    real = kernels._reference_scan

    def recorded(M):
        scan = real(M)

        def scored(prefix):
            scanned.append(prefix)
            return scan(prefix)
        return scored

    with mock.patch.object(kernels, "_reference_scan", recorded):
        screens = _screens(lambda: result.append(call()))
    return scanned, screens, result[0]


class TestRisingFloor:
    """Prefixes below best - margin, best the best reference score so far, are not rescored."""

    @staticmethod
    def _static(maxima: np.ndarray, margin: float) -> list[int]:
        """The prefixes of a one-matrix screen that reach the stack's floor S - 2m."""
        return np.flatnonzero(maxima[0] >= maxima.max() - 2.0 * margin).tolist()

    @settings(max_examples=80, deadline=None)
    @given(m=_tie_prone_matrices(), budget=st.sampled_from([64, 1024, None]))
    def test_rescores_a_subset_of_the_static_floor(self, m, budget):
        with _budget(budget):
            scanned, screens, (val, s) = _rescored(lambda: _kernel(m))
        (maxima, margin), = screens
        assert scanned == sorted(set(scanned))  # ascending, each prefix once
        assert set(scanned) <= set(self._static(maxima, margin))
        ref_val, ref_s = lexicographic_first_max(m)
        assert val == ref_val
        np.testing.assert_array_equal(s, ref_s)

    def test_skips_prefixes_on_a_tall_table(self):
        # 14 prefixes of this 3000 x 14 residual reach the static floor and 6
        # the rising one (another BLAS may round a few prefixes differently)
        x = _poisson_residual(3, 3000, 14).x
        scanned, screens, (val, s) = _rescored(lambda: _kernel(x))
        (maxima, margin), = screens
        static = self._static(maxima, margin)
        assert set(scanned) < set(static)
        ref_val, ref_s = lexicographic_first_max(x)
        np.testing.assert_array_equal(s, ref_s)
        assert val == pytest.approx(ref_val, rel=1e-12)


class TestLowSignGrid:
    def test_built_once_per_width_and_read_only(self):
        grid = kernels._low_sign_grid(5)
        assert kernels._low_sign_grid(5) is grid
        assert not grid.flags.writeable
        np.testing.assert_array_equal(grid, kernels.sign_grid(5, 0, 32))


class TestInvariantErrors:
    """Invariant checks raise real exceptions, also with assertions stripped."""

    def test_raised_under_optimize_flag(self):
        script = textwrap.dedent("""
            import numpy as np
            from taxicab_ca import ca_classic, clustering, kernels, taxicab, tensor
            from taxicab_ca.residual import ResidualMatrix, Tensor3, from_counts

            assert False, "assertions must be stripped under -O"

            def unchecked(cls, x):
                obj = object.__new__(cls)
                object.__setattr__(obj, "x", x)
                return obj

            nan = np.full((3, 3), np.nan)
            inf = np.array([[np.inf, -1.0, 1.0], [-1.0, 1.0, 0.0], [1.0, 0.0, -1.0]])
            cases = {
                "norm_exact": lambda: taxicab.norm_exact(unchecked(ResidualMatrix, nan)),
                "norm_exact_inf": lambda: taxicab.norm_exact(unchecked(ResidualMatrix, inf)),
                "norm_heuristic": lambda: taxicab.norm_heuristic(unchecked(ResidualMatrix, nan)),
                "norm_heuristic_inf": lambda: taxicab.norm_heuristic(unchecked(ResidualMatrix, inf)),
                "tensor_exact": lambda: tensor.tensor_norm_exact(
                    unchecked(Tensor3, np.full((2, 2, 2), np.nan))),
                "tensor_exact_inf": lambda: tensor.tensor_norm_exact(
                    unchecked(Tensor3, np.stack([inf, -inf]))),
                "tensor_heuristic": lambda: tensor.tensor_norm_heuristic(
                    unchecked(Tensor3, np.full((2, 2, 2), np.nan))),
                "cluster_exhaustive": lambda: clustering.maximize(
                    unchecked(ResidualMatrix, nan), 2, 2, method="exhaustive"),
                "cluster_local_search": lambda: clustering.maximize(
                    unchecked(ResidualMatrix, nan), 2, 2, method="local_search"),
            }
            # every matrix axis sums and checks its four blocks where it is
            # made: a first block sum off by c = delta / 4 raises on each path
            real = kernels.block_sums
            def skewed(x, *signs):
                sums = real(x, *signs)
                return (2 * sums[0], *sums[1:])
            kernels.block_sums = skewed
            X = ResidualMatrix(x=np.array([[1.0, -1.0], [-1.0, 1.0]]))
            P = from_counts(np.array([[4.0, 1.0, 2.0], [1.0, 3.0, 2.0]]))
            cases["cut_norm_matrix"] = lambda: taxicab.cut_norm_matrix(X)
            cases["tca"] = lambda: taxicab.tca(P)
            cases["seriate"] = lambda: taxicab.seriate(taxicab.tca(P, max_axes=1), 1)
            cases["compare_ca_tca"] = lambda: ca_classic.compare_ca_tca(P, 1)
            for name, call in cases.items():
                try:
                    call()
                except taxicab.InvariantError as exc:
                    print(name, "raised:", exc)
                else:
                    raise SystemExit(f"{name}: no InvariantError")
        """)
        src = os.path.dirname(os.path.dirname(taxicab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.count("raised:") == 13
        for name in ("cut_norm_matrix", "tca", "seriate", "compare_ca_tca"):
            assert f"{name} raised: block sum" in proc.stdout
        # the four exact searches stop where the screen confirms no candidate
        assert proc.stdout.count("confirmed no candidate") == 4
        # the heuristic refuses nan and inf before its first step
        for name in ("norm_heuristic", "norm_heuristic_inf"):
            assert f"{name} raised: norm_heuristic: the matrix holds non-finite values" in proc.stdout

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_split_screens_of_non_finite_input_raise(self, bad):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3000, 12))
        x[5, 3] = bad
        t = rng.normal(size=(11, 11, 72))
        t[2, 7, 40] = bad
        # the matrix's prefix screen splits in two; the tensor's whole grids
        # run on the calling thread
        for call, rounds in ((lambda: norm_exact(_unchecked(ResidualMatrix, x)), [2]),
                             (lambda: tensor_norm_exact(_unchecked(Tensor3, t)), [])):
            with screen_split(2, share_work=None) as shares, np.errstate(invalid="ignore"):
                with pytest.raises(taxicab.InvariantError, match="confirmed no candidate"):
                    call()
            assert shares == rounds


class TestNormHeuristic:
    def test_asbestos_matches_exact(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        exact = norm_exact(X)
        heur = norm_heuristic(X)
        assert not heur.exact
        assert heur.delta == pytest.approx(exact.delta, rel=1e-12)
        np.testing.assert_array_equal(heur.u, exact.u)
        np.testing.assert_array_equal(heur.v, exact.v)

    def test_zero_matrix(self):
        assert norm_heuristic(_zero_residual(2, 3)).delta == 0.0

    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(6)
        hits = 0
        for _ in range(100):
            X = _rand_residual(rng, 8, 6)
            exact = norm_exact(X).delta
            heur = norm_heuristic(X).delta
            assert heur <= exact + 1e-10 * (1.0 + exact)
            if heur >= exact - 1e-10 * (1.0 + exact):
                hits += 1
        print(f"heuristic equality rate: {hits}/100")
        assert hits >= 80  # the deterministic restarts find the optimum almost always


def _centered_integers(core: np.ndarray) -> np.ndarray:
    """n m z - n r_i - m c_j + T: exactly double-centered when z holds small integers."""
    n, m = core.shape
    return (n * m * core - n * core.sum(axis=1, keepdims=True)
            - m * core.sum(axis=0, keepdims=True) + core.sum())


@st.composite
def _tie_prone_residuals(draw):
    """Exactly double-centered integer matrices with duplicate and zero lines.

    A core of integers in [-2, 2], square-ish, tall, wide, 1 x k or k x 1,
    may repeat a row and a column before it is centered; zero rows and
    columns inserted afterwards keep every line sum zero.  All products are
    integers, so exact-zero projections are common: a zero column starts
    its restart from v = 1, whose products 1'x are the zero column sums.
    """
    shape = draw(st.sampled_from(["square", "tall", "wide", "row", "column"]))
    small, large = st.integers(1, 6), st.integers(7, 40)
    n, m = {
        "square": (small, small), "tall": (large, st.integers(1, 4)),
        "wide": (st.integers(1, 4), large), "row": (st.just(1), large),
        "column": (large, st.just(1)),
    }[shape]
    n, m = draw(n), draw(m)
    core = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * m, max_size=n * m)),
                    dtype=float).reshape(n, m)
    if n > 1 and draw(st.booleans()):
        core[-1] = core[0]
    if m > 1 and draw(st.booleans()):
        core[:, -1] = core[:, 0]
    x = _centered_integers(core)
    for axis in (0, 1):
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, x.shape[axis]))
            x = np.insert(x, at, 0.0, axis=axis)
    return x


def _assert_same_axis(got, ref) -> None:
    assert got.exact is ref.exact is False
    assert got.delta == ref.delta
    for name in ("u", "v", "a", "b"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    assert got.u_indeterminate == ref.u_indeterminate
    assert got.v_indeterminate == ref.v_indeterminate


def _poisson_table(seed: int, n: int, m: int) -> CorrespondenceMatrix:
    counts = np.random.default_rng(seed).poisson(3.0, size=(n, m)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] += 1.0
    counts[0, counts.sum(axis=0) == 0] += 1.0
    return from_counts(counts)


def _poisson_residual(seed: int, n: int, m: int) -> ResidualMatrix:
    return correspondence_residual(_poisson_table(seed, n, m))


def _walks(x: np.ndarray, budget: int | None = None,
           starts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """``_restart_walks`` on x from ``starts``, by default the column starts
    of ``norm_heuristic`` (each restart's packed last u and batched
    dispersion), and the float32 margin the walks are confirmed with, the
    last two brought back from the walk's scaled units to x's."""
    with _budget(budget):
        finals, deltas, margin = kernels._restart_walks(x, x.T if starts is None else starts)
    shift = kernels._float32_shift(x)
    return finals, np.ldexp(deltas, -shift), float(np.ldexp(margin, -shift))


def _restart_bytes(n: int, m: int) -> int:
    """Block bytes of one restart of ``_restart_walks`` on an n x m x: a
    float32 row each of u, v and the product, and a bool row as wide."""
    w = max(n, m)
    return 4 * (m + n + w) + w


def _block_size(x: np.ndarray, budget: int | None = None) -> int:
    """The most restarts ``_restart_walks`` walks at once on x."""
    with mock.patch.object(
            kernels, "_certified_product", wraps=kernels._certified_product) as product:
        _walks(x, budget)
    return max(call.args[0].shape[0] for call in product.call_args_list)


def _packed(us) -> np.ndarray:
    """Sign vectors as ``_restart_walks`` keeps them: one row of packed u < 0 bits each."""
    return np.packbits(np.array(us) < 0, axis=1)


def _unpacked(bits: np.ndarray, m: int) -> np.ndarray:
    return 1.0 - 2.0 * np.unpackbits(bits, count=m)


class TestBatchedHeuristic:
    """The blocked GEMM iteration returns the one-restart-at-a-time loop's axis bits."""

    @settings(max_examples=150, deadline=None)
    @given(x=_tie_prone_residuals(), budget=st.sampled_from([64, 4096, None]))
    @example(x=np.array([[0.0, 1.0, -1.0], [0.0, -1.0, 1.0]]), budget=None)
    @example(x=np.array([[0.0, 2.0, -2.0], [0.0, -1.0, 1.0], [0.0, -1.0, 1.0]]), budget=64)
    def test_matches_restart_loop(self, x, budget):
        X = ResidualMatrix(x=x)
        with _budget(budget), mock.patch.object(
                kernels, "_reference_rows", wraps=kernels._reference_rows) as fallback:
            got = norm_heuristic(X)
        _assert_same_axis(got, loop_norm_heuristic(X))
        if np.any(x) and not np.all(np.any(x, axis=0)):
            # the zero column's restart has 1'x = 0 exactly: inside every band
            assert fallback.call_count > 0

    @pytest.mark.parametrize("shape", [(30, 25), (24, 400), (200, 30)])
    def test_matches_restart_loop_on_deflated_tables(self, shape):
        # three heuristic axes: the second and third come from deflated residuals
        X = _poisson_residual(sum(shape), *shape)
        for _ in range(3):
            got = norm_heuristic(X)
            _assert_same_axis(got, loop_norm_heuristic(X))
            X = deflate(X, got)

    @pytest.mark.parametrize(("workers", "sizes"), [(1, (1, 20, 33)), (2, (1, 17, 17)),
                                                    (3, (1, 11, 11))])
    def test_block_boundaries_do_not_matter(self, workers, sizes):
        # a restart of 40 x 33 takes 492 block bytes: one restart per block,
        # blocks of 20 and a last one of 13, and a single block of 33; split
        # into shares of 17 and 16 or of 11 restarts, a share's block holds
        # at most its own restarts
        X = _poisson_residual(4, 40, 33)
        ref = loop_norm_heuristic(X)
        for budget, size in zip((64, 20 * 492, 33 * 492), sizes):
            with screen_split(workers) as shares:
                assert _block_size(X.x, budget) == size
                with _budget(budget):
                    _assert_same_axis(norm_heuristic(X), ref)
            assert set(shares) == {workers}

    @pytest.mark.parametrize(("shape", "budget", "shares", "size"), [
        ((40, 33), 20 * 492 - 1, 1, 19),
        ((40, 33), None, 1, 33),
        # two shares of 150 restarts, each in a block of its own
        ((400, 300), None, 2, 150),
        # the property tests' budgets: 64 walks one restart at a time, 4096
        # one block of a small table and several of a wide one, the last
        # of them partial on 3 x 25 (17, 8)
        ((6, 6), 64, 1, 1),
        ((6, 6), 4096, 1, 6),
        ((3, 25), 4096, 1, 17),
        ((4, 40), 4096, 1, 10),
    ])
    def test_block_size(self, shape, budget, shares, size):
        x = _poisson_residual(sum(shape), *shape).x
        limit = kernels.BLOCK_BYTES if budget is None else budget
        assert size == max(1, min(-(-shape[1] // shares), limit // _restart_bytes(*shape)))
        with screen_split(2, share_work=None) as split:
            assert _block_size(x, budget) == size
        assert split == [shares]

    @pytest.mark.parametrize(("shape", "shares"), [
        ((400, 300), 2), ((300, 200), 2), ((16, 1500), 2),
        ((200, 120), 1), ((110, 92), 1), ((40, 15), 1),
    ])
    def test_walks_split_at_the_share_threshold(self, shape, shares):
        # n m^2 products a step of all restarts: two shares need 2^22
        x = _poisson_residual(sum(shape), *shape).x
        assert (x.size * shape[1] >= 2 * kernels._SHARE_WORK) == (shares == 2)
        with screen_split(2, share_work=None) as split:
            _walks(x)
        assert split == [shares]

    @pytest.mark.parametrize("budget", [4 * 370, None])
    def test_rows_behind_a_stopped_restart_walk_on(self, budget):
        # in blocks of 4 and of all 25, restart 0 stops before a restart
        # behind it, whose u row is then copied down and walks on
        x = _poisson_residual(11, 30, 25).x
        size = _block_size(x, budget)
        visits = loop_restart_visits(x)
        assert visits[0] < max(visits[1:size])
        finals, _, _ = _walks(x, budget)
        for j, u in enumerate(loop_restart_finals(x)):
            assert _unpacked(finals[j], 25).tobytes() == u.tobytes(), j

    @settings(max_examples=100, deadline=None)
    @given(x=_tie_prone_residuals(), budget=st.sampled_from([64, 4096, None]),
           workers=st.sampled_from([1, 2, 3]))
    def test_every_restart_ends_where_the_loop_does(self, x, budget, workers):
        with screen_split(workers):
            finals, deltas, margin = _walks(x, budget)
        for j, u in enumerate(loop_restart_finals(x)):
            assert _unpacked(finals[j], x.shape[1]).tobytes() == u.tobytes(), j
            assert abs(deltas[j] - float(np.abs(x @ u).sum())) <= margin

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(40, 15), (120, 80), (16, 300)])
    def test_caller_starts_end_where_the_loop_does(self, shape, workers):
        # start blocks of k rows of length n: signs, real values (only their
        # signs count), repeated rows, one row, and more rows than columns;
        # every split into shares and blocks runs over the k restarts
        n, m = shape
        x = _poisson_residual(sum(shape), *shape).x
        rng = np.random.default_rng(17)
        real = rng.normal(size=(9, n))
        blocks = {
            "signs": rng.choice([-1.0, 1.0], size=(7, n)),
            "real": real,
            "repeated": real[[0, 0, 3, 1, 3, 0]],
            "one": real[4:5],
            "more than m": rng.normal(size=(m + 13, n)),
        }
        for label, starts in blocks.items():
            finals = loop_walk_finals(x, starts)
            scores = [float(np.abs(x @ u).sum()) for u in finals]
            first = max(range(len(finals)), key=scores.__getitem__)  # the first of equals
            for budget in (None, 4096):
                with screen_split(workers) as split:
                    got, deltas, margin = _walks(x, budget, starts)
                    with _budget(budget):
                        best = kernels.best_restart(x, starts)
                assert split == [min(workers, len(starts))] * 2, label
                assert len(got) == len(starts), label
                for j, u in enumerate(finals):
                    assert _unpacked(got[j], m).tobytes() == u.tobytes(), (label, j)
                    assert abs(deltas[j] - scores[j]) <= margin, (label, j)
                u = finals[first]
                v = sign_pm(x @ u)
                for got_part, want in zip(best, (u, v, x @ u, x.T @ v, scores[first])):
                    assert np.asarray(got_part).tobytes() == np.asarray(want).tobytes(), label

    @pytest.mark.parametrize("shape", [(30, 25), (24, 400), (200, 30)])
    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_margin_bounds_the_batched_error(self, shape, exponent):
        x = np.ldexp(_poisson_residual(sum(shape), *shape).x, exponent)
        finals, deltas, margin = _walks(x)
        for final, delta in zip(finals, deltas):
            u = _unpacked(final, shape[1])
            assert abs(delta - float(np.abs(x @ u).sum())) <= margin

    @pytest.mark.parametrize("tiny", [1e-50, 1e-40, 2.0**-140])
    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_matches_restart_loop_across_float32_range(self, tiny, exponent):
        # an O(1) block beside a tiny one: float32 flushes the tiny block of
        # the scaled copy to zero (1e-50) or keeps a few of its bits
        # (subnormal), so its rows and columns fall back to float64, whose
        # signs are those of values far below float32's range
        rng = np.random.default_rng(15)
        big = _centered_integers(rng.integers(-2, 3, size=(9, 7)).astype(float))
        small = _centered_integers(rng.integers(-2, 3, size=(6, 8)).astype(float))
        x = np.zeros((15, 15))
        x[:9, :7], x[9:, 7:] = big, tiny * small
        X = ResidualMatrix(x=np.ldexp(x, exponent))
        with mock.patch.object(
                kernels, "_reference_rows", wraps=kernels._reference_rows) as fallback:
            got = norm_heuristic(X)
        assert fallback.call_count > 0
        _assert_same_axis(got, loop_norm_heuristic(X))
        finals, deltas, margin = _walks(X.x)
        for j, u in enumerate(loop_restart_finals(X.x)):
            assert _unpacked(finals[j], 15).tobytes() == u.tobytes(), j
            assert abs(deltas[j] - float(np.abs(X.x @ u).sum())) <= margin

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_subnormal_rounding_stays_inside_the_band(self, exponent):
        # a 2 x 5 block of +-0.6 and +-2.4 float32 subnormal steps beside an
        # O(1) block whose peak needs no scaling: float32 rounds them to
        # +-1 and +-2 steps, so a row whose exact product with u = 1 is 0
        # (sign +1) sums to -2 steps there, a sign that only the subnormal
        # terms of the band leave unsure
        rng = np.random.default_rng(16)
        big = _centered_integers(rng.integers(-2, 3, size=(9, 7)).astype(float))
        big = np.ldexp(big, -int(np.frexp(np.abs(big).max())[1]))
        step = float(np.finfo(np.float32).smallest_subnormal)
        x = np.zeros((11, 12))
        x[:9, :7] = big
        x[9:, 7:] = 0.6 * step * np.array([[-1.0] * 4 + [4.0], [1.0] * 4 + [-4.0]])
        X = ResidualMatrix(x=np.ldexp(x, exponent))
        _assert_same_axis(norm_heuristic(X), loop_norm_heuristic(X))
        finals, _, _ = _walks(X.x)
        for j, u in enumerate(loop_restart_finals(X.x)):
            assert _unpacked(finals[j], 12).tobytes() == u.tobytes(), j

    def test_float32_leaves_real_rows_to_the_reference(self):
        # a Poisson table of the size of the benchmark's: float32 leaves a
        # few percent of the product rows inside the band
        X = _poisson_residual(16, 300, 200)
        with mock.patch.object(
                kernels, "_reference_rows", wraps=kernels._reference_rows) as fallback:
            got = norm_heuristic(X)
        assert fallback.call_count > 0
        _assert_same_axis(got, loop_norm_heuristic(X))

    @pytest.mark.parametrize(("margins", "raises"), [(1.5, False), (2.5, True)])
    def test_ascent_check_allows_two_margins(self, margins, raises):
        # restart 0 of this table takes two steps; its second dispersion is
        # forced to its first minus the given number of margins
        x = _poisson_residual(11, 30, 25).x
        expected, _, margin = kernels._restart_walks(x, x.T)
        real = kernels._certified_product
        dispersions = []  # restart 0's, while it leads the block

        def lowered(signs, mat, reference, shift, band, out, magnitude, sure):
            real(signs, mat, reference, shift, band, out, magnitude, sure)
            if out.shape[1] == 30:  # half-step A, whose magnitudes sum to the dispersions
                dispersions.append(magnitude[0].sum(dtype=float))
                if len(dispersions) == 2:
                    magnitude[0] = 0.0
                    magnitude[0, 0] = dispersions[0] - margins * margin

        with mock.patch.object(kernels, "_certified_product", side_effect=lowered):
            if raises:
                with pytest.raises(taxicab.InvariantError, match="dispersion decreased"):
                    kernels._restart_walks(x, x.T)
            else:
                finals, _, _ = kernels._restart_walks(x, x.T)
                assert finals.tobytes() == expected.tobytes()
        assert len(dispersions) >= 2

    @pytest.mark.parametrize(("margins", "raises"), [(1.5, False), (2.5, True)])
    def test_float64_ascent_check_allows_two_margins(self, margins, raises):
        # the float64 walk from restart 0's start takes two steps; its
        # second product x @ u is scaled, signs kept, so that the second
        # dispersion is the first minus the given number of margins
        x = _poisson_residual(11, 30, 25).x
        margin, _ = kernels.certificate_slack(x)
        u0 = sign_pm(x.T @ sign_pm(x[:, 0]))
        dispersions = []

        class Lowered(np.ndarray):
            def __matmul__(self, other):
                out = np.asarray(self) @ other
                if out.shape == (30,):  # x @ u, whose |entries| sum to the dispersion
                    dispersions.append(float(np.abs(out).sum()))
                    if len(dispersions) == 2:
                        out *= (dispersions[0] - margins * margin) / dispersions[1]
                return out

        lowered = x.view(Lowered)
        if raises:
            with pytest.raises(taxicab.InvariantError, match="dispersion decreased"):
                kernels.reference_walk(lowered, u0, margin)
        else:
            u, *_ = kernels.reference_walk(lowered, u0, margin)
            assert u.tobytes() == kernels.reference_walk(x, u0, margin)[0].tobytes()
        assert len(dispersions) >= 2

    def test_share_errors_are_raised_after_every_share_ends(self):
        # in two shares, share 1 (restarts 12-24, its own thread) reports a
        # zero dispersion for its first row at its second step, while share
        # 0 on the calling thread is slowed down; the error surfaces only
        # after share 0 has walked every one of its restarts
        x = _poisson_residual(11, 30, 25).x
        real = kernels._certified_product
        caller = threading.get_ident()
        calls = []

        def counted(signs, mat, reference, shift, band, out, magnitude, sure):
            real(signs, mat, reference, shift, band, out, magnitude, sure)
            calls.append(threading.get_ident())

        with screen_split(2), mock.patch.object(kernels, "_certified_product", side_effect=counted):
            kernels._restart_walks(x, x.T)
        own = calls.count(caller)  # share 0's products in a clean run
        calls.clear()
        worker_steps = []

        def failing(signs, mat, reference, shift, band, out, magnitude, sure):
            real(signs, mat, reference, shift, band, out, magnitude, sure)
            if threading.get_ident() == caller:
                time.sleep(0.005)
                calls.append(caller)
            elif out.shape[1] == 30:  # half-step A, whose magnitudes sum to the dispersions
                worker_steps.append(len(calls))
                if len(worker_steps) == 2:
                    magnitude[0] = 0.0

        threads = threading.active_count()
        with screen_split(2) as shares, \
                mock.patch.object(kernels, "_certified_product", side_effect=failing):
            with pytest.raises(taxicab.InvariantError, match="dispersion decreased"):
                kernels._restart_walks(x, x.T)
        assert shares == [2]
        assert worker_steps[1] < own  # share 1 failed while share 0 was walking
        assert len(calls) == own
        assert threading.active_count() == threads

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="np.errstate is a context variable from numpy 2 on")
    def test_walk_shares_run_under_the_callers_context(self):
        x = _poisson_residual(11, 30, 25).x
        real = kernels._certified_product
        seen = {}

        def recorded(*args):
            # keyed by the thread object: a finished share's thread id may be reused
            seen.setdefault(threading.current_thread(), set()).add(np.geterr()["over"])
            real(*args)

        with np.errstate(over="raise"), screen_split(3) as shares, \
                mock.patch.object(kernels, "_certified_product", side_effect=recorded):
            kernels._restart_walks(x, x.T)
        assert shares == [3]
        assert threading.current_thread() in seen and len(seen) == 3
        assert all(modes == {"raise"} for modes in seen.values())

    def test_confirmation_looks_past_the_batched_order(self):
        # u and -u score the same bits; the batched values may rank -u first
        # by up to two margins, and the first restart must still win
        x, u, score, margin = self._tied_pair()
        best = kernels._confirm_restarts(
            x, _packed([u, -u]), np.array([score - margin, score + margin]), margin)
        self._assert_state_of(best, x, u, score)

    def test_restarts_sharing_a_final_u_keep_the_first(self):
        # restarts 0 and 2 end at u with different batched values, restart 1
        # at -u with a value between them; restart 0's u wins
        x, u, score, margin = self._tied_pair()
        best = kernels._confirm_restarts(
            x, _packed([u, -u, u]), np.array([score - margin, score, score + margin]), margin)
        self._assert_state_of(best, x, u, score)

    @staticmethod
    def _tied_pair():
        rng = np.random.default_rng(14)
        x = _centered_integers(rng.integers(-2, 3, size=(7, 5)).astype(float))
        u = sign_pm(rng.normal(size=5))
        margin = kernels.rounding_margin(7, 5, float(np.abs(x).sum()), np.float64)
        return x, u, float(np.abs(x @ u).sum()), margin

    @staticmethod
    def _assert_state_of(best, x, u, score):
        assert best[0].tobytes() == u.tobytes()
        assert best[4] == score
        assert best[2].tobytes() == (x @ u).tobytes()

    @pytest.mark.parametrize("shape", [(400, 300), (16, 1500)])
    def test_working_memory_is_bounded(self, shape):
        # both walks split into two shares that run at once, and the bound
        # sums over them: each share's block of ``size`` restarts, within
        # BLOCK_BYTES; the seen sets of its largest block, one packed
        # key per distinct u of its restarts; and 128 KiB for one step's
        # temporaries (numpy's 64 KiB ufunc buffer for the broadcast band
        # compare, the packed keys).  Once for the walk: the float32 copy
        # of x takes 4 n m bytes, and finals and deltas keep a row of
        # packed u bits and a float per restart.
        X = _poisson_residual(1, *shape)
        m = shape[1]
        with screen_split(2, share_work=None) as split:
            size = _block_size(X.x)
            bounds = kernels._share_bounds(m, X.x.size, m)
        assert split == [2] and len(bounds) == 3
        visits = loop_restart_visits(X.x)
        key = sys.getsizeof(bytes((m + 7) // 8))
        seen = sum(max(sum(sys.getsizeof(set(range(c))) + c * key
                           for c in visits[s:min(s + size, hi)])
                       for s in range(lo, hi, size))
                   for lo, hi in zip(bounds, bounds[1:]))
        bound = (2 * (size * _restart_bytes(*shape) + 128 * 1024) + seen
                 + 4 * X.x.size + m * ((m + 7) // 8 + 8))
        tracemalloc.start()
        try:
            with screen_split(2, share_work=None):
                norm_heuristic(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestCutNormMatrix:
    def test_asbestos(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        report = cut_norm_matrix(X)
        assert report.cut_norm == pytest.approx(0.1332, abs=2e-4)
        pair = (set(report.s_opt), set(report.t_opt))
        complement = ({0, 1, 2, 3, 4} - pair[0], {0, 1, 2, 3} - pair[1])
        assert pair == ({2, 3, 4}, {1, 2, 3}) or complement == ({2, 3, 4}, {1, 2, 3})

    def test_zero_matrix(self):
        report = cut_norm_matrix(_zero_residual(3, 3))
        assert report.block_sums == (0.0, 0.0, 0.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            X = _rand_residual(rng, 6, 5)
            report = cut_norm_matrix(X)
            assert report.cut_norm == pytest.approx(
                brute_cut_norm_matrix(X.x), rel=1e-12
            )

    def test_four_block_structure(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            X = _rand_residual(rng, 5, 5)
            report = cut_norm_matrix(X)
            c = report.cut_norm
            slack = 1e-10 * (1.0 + abs(c))
            b = report.block_sums
            assert b[0] == pytest.approx(c, abs=slack)
            assert b[1] == pytest.approx(-c, abs=slack)
            assert b[2] == pytest.approx(-c, abs=slack)
            assert b[3] == pytest.approx(c, abs=slack)


class TestBlockSums:
    def test_product_order_plus_set_first(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3, 5))
        s, t, w = (np.where(rng.random(q) < 0.5, -1.0, 1.0) for q in x.shape)
        S, T, W = s > 0, t > 0, w > 0
        m = x[:, :, 0]
        assert block_sums(m, s, t) == tuple(
            float(m[np.ix_(a, b)].sum()) for a, b in ((S, T), (S, ~T), (~S, T), (~S, ~T)))
        octants = [(a, b, c) for a in (S, ~S) for b in (T, ~T) for c in (W, ~W)]
        assert block_sums(x, s, t, w) == tuple(float(x[np.ix_(*o)].sum()) for o in octants)


class TestDeflate:
    def test_asbestos_heavyweight_column_zeroed(self, asbestos_P):
        X1 = correspondence_residual(asbestos_P)
        axis = norm_exact(X1)
        X2 = deflate(X1, axis)
        assert np.abs(X2.x[:, 0]).max() <= 1e-12
        assert X2.x[0, 1] == pytest.approx(-0.0347, abs=5e-4)
        assert X2.kind == "deflated"

    def test_rank_one_becomes_zero(self):
        u = np.array([1.0, -2.0, 1.0])
        w = np.array([3.0, -1.0, -1.0, -1.0])
        X = ResidualMatrix(x=np.outer(u, w))
        X2 = deflate(X, norm_exact(X))
        np.testing.assert_allclose(X2.x, 0.0, atol=1e-14)

    def test_stays_centered(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            X = _rand_residual(rng, 6, 4)
            X2 = deflate(X, norm_exact(X))
            assert np.abs(X2.x.sum(axis=0)).max() <= 1e-12
            assert np.abs(X2.x.sum(axis=1)).max() <= 1e-12

    def test_rank_drops_by_one(self):
        rng = np.random.default_rng(12)
        X = _rand_residual(rng, 5, 4)
        before = np.linalg.matrix_rank(X.x, tol=1e-10)
        after = np.linalg.matrix_rank(deflate(X, norm_exact(X)).x, tol=1e-10)
        assert after == before - 1

    def test_null_axis_error(self):
        X = _zero_residual(2, 2)
        axis = norm_exact(X)
        with pytest.raises(ValueError, match="null axis"):
            deflate(X, axis)

    @pytest.mark.parametrize("k", [600, -600])
    def test_deflation_scales_bit_for_bit(self, k):
        # formed directly, a b' / delta underflows to zero at 2^-600 (the
        # deflated residual would be its input, and axis 2 axis 1) and
        # overflows at 2^600
        X1 = _poisson_residual(3, 30, 8)
        X = ResidualMatrix(x=np.ldexp(X1.x, k))
        axis, axis1 = norm_exact(X), norm_exact(X1)
        assert axis.delta == np.ldexp(axis1.delta, k)
        for name in ("a", "b"):
            assert getattr(axis, name).tobytes() == np.ldexp(getattr(axis1, name), k).tobytes()
        second, second1 = deflate(X, axis), deflate(X1, axis1)
        assert second.x.tobytes() == np.ldexp(second1.x, k).tobytes()
        axis2, axis2_1 = norm_exact(second), norm_exact(second1)
        assert axis2.delta == np.ldexp(axis2_1.delta, k) < axis.delta
        assert (axis2.u.tobytes(), axis2.v.tobytes()) != (axis.u.tobytes(), axis.v.tobytes())

    def test_builders_hand_over_their_buffer(self):
        # correspondence_residual and deflate each fill one n x m buffer that
        # the ResidualMatrix keeps; a copy on construction peaks at 2.13 n m floats
        P = _poisson_table(1, 400, 300)
        X = correspondence_residual(P)
        axis = norm_heuristic(X)
        for build in (lambda: correspondence_residual(P), lambda: deflate(X, axis)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * X.x.size * 8


class TestTca:
    def test_asbestos_axis1_scores(self, asbestos_P):
        dec = tca(asbestos_P)
        assert dec.rank_used == 3
        axis = dec.axes[0]
        flip = align_sign(axis.f, F1)
        np.testing.assert_allclose(flip * axis.f, F1, atol=5e-4)
        np.testing.assert_allclose(flip * axis.g, G1, atol=5e-4)

    def test_asbestos_axis2(self, asbestos_P):
        dec = tca(asbestos_P)
        axis = dec.axes[1]
        assert axis.delta == pytest.approx(DELTA2, abs=5e-4)
        assert_match_up_to_sign(axis.b, B2, atol=1e-3)
        assert_match_up_to_sign(axis.g, G2, atol=1e-3)
        assert axis.u_indeterminate == (0,)

    def test_independence_model_empty(self):
        r = np.array([0.5, 0.3, 0.2])
        c = np.array([0.25, 0.75])
        P = from_counts(np.outer(r, c) * 1000)
        dec = tca(P)
        assert dec.axes == ()
        assert dec.rank_used == 0

    def test_max_axes_zero(self, asbestos_P):
        assert tca(asbestos_P, max_axes=0).axes == ()

    def test_reconstruction_full_rank(self, asbestos_P):
        dec = tca(asbestos_P)
        approx = np.outer(dec.row_masses, dec.col_masses)
        for axis in dec.axes:
            approx = approx + np.outer(axis.a, axis.b) / axis.delta
        np.testing.assert_allclose(approx, asbestos_P.p, atol=1e-8)

    def test_heavyweight_deflation(self, asbestos_P):
        dec = tca(asbestos_P)
        contrib = rc_axis(dec, 1)
        assert contrib.heavyweight_cols == (0,)
        deflated = deflate(correspondence_residual(asbestos_P), dec.axes[0])
        assert np.abs(deflated.x[:, 0]).max() <= 1e-12

    def test_equivalent_partitioning(self, asbestos):
        counts = asbestos.values
        split = np.insert(counts, 2, counts[:, 1] / 2.0, axis=1)
        split[:, 1] = counts[:, 1] / 2.0
        base = tca(from_counts(counts))
        clone = tca(from_counts(split))
        assert len(clone.axes) == len(base.axes)
        for ax_base, ax_clone in zip(base.axes, clone.axes):
            flip = align_sign(ax_clone.f, ax_base.f)
            np.testing.assert_allclose(flip * ax_clone.f, ax_base.f, atol=1e-8)
            g_clone = flip * ax_clone.g
            np.testing.assert_allclose(g_clone[0], ax_base.g[0], atol=1e-8)
            np.testing.assert_allclose(g_clone[3:], ax_base.g[2:], atol=1e-8)
            assert g_clone[1] == pytest.approx(g_clone[2], abs=1e-8)
            assert g_clone[1] == pytest.approx(ax_base.g[1], abs=1e-8)

    def test_auto_takes_the_heuristic_past_the_limit(self, monkeypatch):
        counts = np.random.default_rng(66).poisson(4.0, size=(30, 23)) + 1.0
        assert min(counts.shape) == ENUM_LIMIT + 1
        P = from_counts(counts)
        X = correspondence_residual(P)
        heur = tca(P, solver="heuristic")
        best = norm_heuristic(X)

        def refuse(stacks):
            raise AssertionError("auto enumerated past ENUM_LIMIT")

        monkeypatch.setattr(taxicab, "enumerate_best", refuse)
        auto = tca(P)
        assert len(auto.axes) == len(heur.axes) > 1
        for got, want in zip(auto.axes, heur.axes):
            assert not got.exact
            assert got.delta == want.delta
            for name in ("u", "v", "a", "b", "f", "g"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.u_indeterminate == want.u_indeterminate
            assert got.v_indeterminate == want.v_indeterminate
        report = cut_norm_matrix(X)
        assert report.s_opt == tuple(np.flatnonzero(best.v > 0).tolist())
        assert report.t_opt == tuple(np.flatnonzero(best.u > 0).tolist())
        assert report.block_sums == block_sums(X.x, best.v, best.u)

    @pytest.mark.parametrize("shape", [(400, 300), (300, 200), (3000, 14)])
    def test_working_memory_holds_one_residual(self, shape):
        # tca keeps only the residual of the axis it is solving: its peak
        # exceeds that of one solve on the first residual by that residual
        # and the next one's buffer at most.  Two workers measured an
        # excess of 1.01-1.06 n m floats on the heuristic tables and 1.45
        # on 3000 x 14 (exact); a kept deflation history took 3.0-3.45
        P = _poisson_table(1, *shape)
        X = correspondence_residual(P)

        def peak(call) -> int:
            tracemalloc.start()
            try:
                with screen_split(2, share_work=None):
                    call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solve = peak(lambda: taxicab._best_axis(X))
        assert peak(lambda: tca(P, max_axes=3)) - solve <= 2 * X.x.size * 8

    def test_solver_override(self, asbestos_P):
        exact = tca(asbestos_P, max_axes=1, solver="exact")
        heur = tca(asbestos_P, max_axes=1, solver="heuristic")
        assert exact.axes[0].exact and not heur.axes[0].exact
        assert heur.axes[0].delta == pytest.approx(exact.axes[0].delta, rel=1e-12)


class TestRcAxis:
    def test_asbestos_g0_heavyweight(self, asbestos_P):
        dec = tca(asbestos_P)
        contrib = rc_axis(dec, 1)
        assert contrib.rc_cols[0] == pytest.approx(0.5, abs=1e-10)
        assert contrib.heavyweight_cols == (0,)
        assert contrib.heavyweight_rows == ()
        assert contrib.heavyweight_cells == ()

    def test_americas_axis2(self, americas, americas_P):
        dec = tca(americas_P, max_axes=2)
        contrib = rc_axis(dec, 2)
        i_ca = americas.row_labels.index("Canada")
        i_us = americas.row_labels.index("UnitedStates")
        j_nafta = americas.col_labels.index("NAFTA")
        assert contrib.rc_rows[i_ca] == pytest.approx(0.088, abs=0.005)
        assert contrib.rc_rows[i_us] == pytest.approx(0.088, abs=0.005)
        assert contrib.rc_cols[j_nafta] == pytest.approx(0.10, abs=0.005)

    def test_sums_to_one(self, asbestos_P):
        dec = tca(asbestos_P)
        for k in range(len(dec.axes)):
            contrib = rc_axis(dec, k + 1)
            assert sum(contrib.rc_rows) == pytest.approx(1.0, abs=1e-10)
            assert sum(contrib.rc_cols) == pytest.approx(1.0, abs=1e-10)

    def test_bound_half(self, asbestos_P, americas_P):
        for P in (asbestos_P, americas_P):
            dec = tca(P)
            for k in range(len(dec.axes)):
                contrib = rc_axis(dec, k + 1)
                assert max(contrib.rc_rows) <= 0.5 + 1e-12
                assert max(contrib.rc_cols) <= 0.5 + 1e-12

    def test_missing_axis(self, asbestos_P):
        dec = tca(asbestos_P, max_axes=1)
        with pytest.raises(ValueError, match="axis 2"):
            rc_axis(dec, 2)


class TestSeriate:
    def test_asbestos_axis1_blocks(self, asbestos_P):
        dec = tca(asbestos_P)
        report = seriate(dec, 1)
        mags = [abs(b) for b in report.block_sums]
        signs = [np.sign(b) for b in report.block_sums]
        for mag in mags:
            assert mag == pytest.approx(0.1332, abs=2e-4)
        assert signs == [1, -1, -1, 1]

    def test_asbestos_axis2_magnitude(self, asbestos_P):
        dec = tca(asbestos_P)
        report = seriate(dec, 2)
        assert abs(report.cut_norm) == pytest.approx(0.0533, abs=2e-4)

    def test_lemma3_identity(self, asbestos_P):
        dec = tca(asbestos_P)
        for k, axis in enumerate(dec.axes, start=1):
            report = seriate(dec, k)
            assert report.cut_norm == pytest.approx(
                axis.delta / 4.0, rel=1e-10, abs=1e-15
            )

    def test_zero_matrix_degenerate(self):
        r = np.array([0.5, 0.5])
        c = np.array([0.5, 0.5])
        dec = tca(from_counts(np.outer(r, c)))
        report = seriate(dec, 1)
        assert report.s_opt == () and report.t_opt == ()
        assert report.block_sums == (0.0, 0.0, 0.0, 0.0)
        assert report.row_order == ()

    def test_orders_are_permutations_grouped_by_sign(self, asbestos_P):
        dec = tca(asbestos_P)
        axis = dec.axes[0]
        report = seriate(dec, 1)
        assert sorted(report.row_order) == list(range(5))
        assert sorted(report.col_order) == list(range(4))
        v_signs = [axis.v[i] for i in report.row_order]
        assert v_signs == sorted(v_signs, reverse=True)  # +1 group first
        f_in_pos = [axis.f[i] for i in report.row_order if axis.v[i] > 0]
        assert f_in_pos == sorted(f_in_pos, reverse=True)


class TestLemma3Bridge:
    def test_delta_equals_four_cut_norm_random(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 13 - n))
            X = _rand_residual(rng, n, m)
            axis = norm_exact(X)
            report = cut_norm_matrix(X)
            assert axis.delta == pytest.approx(4.0 * report.cut_norm, rel=1e-10)
            assert report.cut_norm == pytest.approx(
                brute_cut_norm_matrix(X.x), rel=1e-12
            )


def _moved(target, index: int, value):
    """``target`` with entry ``index`` of its tuple result replaced by ``value(result)``."""
    def call(*args):
        result = list(target(*args))
        result[index] = value(result)
        return tuple(result)
    return call


class TestCertificatesAtEveryScale:
    """Each certificate holds to ``kernels.certificate_slack`` at every scale 2^k.

    Scaling by a power of two is exact, so every result at 2^k is the one at
    scale 1 scaled, and a result moved past its slack raises at every k.
    """

    SCALES = range(-600, 601, 100)

    @staticmethod
    def _matrices(k):
        X = _poisson_residual(3, 30, 8)
        second = deflate(X, norm_exact(X))  # deflated at scale 1, then scaled
        return [ResidualMatrix(x=np.ldexp(Y.x, k)) for Y in (X, second)]

    @pytest.mark.parametrize("k", SCALES)
    def test_genuine_results_pass(self, k):
        for X, X1 in zip(self._matrices(k), self._matrices(0)):
            for solve in (norm_exact, norm_heuristic):
                axis, axis1 = solve(X), solve(X1)
                assert axis.delta == np.ldexp(axis1.delta, k)
                assert axis.u.tobytes() == axis1.u.tobytes()
                assert axis.v.tobytes() == axis1.v.tobytes()
            report = cut_norm_matrix(X)
            assert report.block_sums == tuple(np.ldexp(cut_norm_matrix(X1).block_sums, k))

    @pytest.mark.parametrize("k", SCALES)
    def test_moved_delta_raises(self, k):
        # delta one unit in the last place above the sum of |a| it was summed as
        X = self._matrices(k)[0]
        up = _moved(taxicab._canonical_state, 4, lambda state: np.nextafter(state[4], np.inf))
        with mock.patch.object(taxicab, "_canonical_state", side_effect=up):
            for solve in (norm_exact, norm_heuristic):
                with pytest.raises(taxicab.InvariantError, match="is not the sum of"):
                    solve(X)

    @pytest.mark.parametrize("k", SCALES)
    @pytest.mark.parametrize("block", range(4))
    def test_block_sum_moved_past_the_slack_raises(self, k, block):
        X = self._matrices(k)[1]
        axis = norm_exact(X)
        _, slack = kernels.certificate_slack(X.x)
        target = (1.0, -1.0, -1.0, 1.0)[block] * axis.delta / 4.0
        for slacks, raises in ((0.5, False), (1.5, True)):
            moved = _moved(kernels.block_sums, block, lambda sums: target + slacks * slack)
            with mock.patch.object(kernels, "block_sums", side_effect=moved):
                if raises:
                    with pytest.raises(taxicab.InvariantError, match="block sum"):
                        cut_norm_matrix(X)
                else:
                    cut_norm_matrix(X)

    def test_doubled_delta_of_a_tiny_residual_raises(self):
        # a 30 x 8 residual of Poisson(4) + 1 counts, scaled by 1e-12: its
        # delta is 1.4e-13, far below any fixed slack of the form tol (1 + delta)
        counts = np.random.default_rng(3).poisson(4.0, size=(30, 8)) + 1.0
        X = ResidualMatrix(x=correspondence_residual(from_counts(counts)).x * 1e-12)
        assert norm_exact(X).delta < 1e-12
        walk = _moved(taxicab.reference_walk, 4, lambda state: 2.0 * state[4])
        with mock.patch.object(taxicab, "reference_walk", side_effect=walk):
            with pytest.raises(taxicab.InvariantError):
                norm_exact(X)
