from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _rgs_exact,
    brute_two_mode_best,
    loop_exhaustive,
    loop_local_search,
    random_double_centered,
)
from taxicab_ca import clustering
from taxicab_ca.clustering import TwoModePartition, maximize, objective
from taxicab_ca.residual import (
    ResidualMatrix,
    additive_double_center,
    correspondence_residual,
    from_counts,
)
from taxicab_ca.taxicab import norm_exact


def _rand_residual(rng, n, m) -> ResidualMatrix:
    return ResidualMatrix(x=random_double_centered(rng, n, m))


class TestObjective:
    def test_p1_is_sum_of_absolute_block_sums(self):
        rng = np.random.default_rng(41)
        X = _rand_residual(rng, 4, 4)
        part = TwoModePartition(row_blocks=((0, 1), (2, 3)), col_blocks=((0,), (1, 2, 3)))
        manual = 0.0
        for S in part.row_blocks:
            for T in part.col_blocks:
                manual += abs(X.x[np.ix_(S, T)].sum())
        assert objective(X, part, p=1.0) == pytest.approx(manual, rel=1e-12)

    def test_asbestos_optimal_2x2_p1(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        part = TwoModePartition(row_blocks=((0, 1), (2, 3, 4)), col_blocks=((0,), (1, 2, 3)))
        assert objective(X, part, p=1.0) == pytest.approx(0.5328, abs=5e-4)

    def test_zero_matrix(self):
        X = ResidualMatrix(x=np.zeros((3, 3)))
        part = TwoModePartition(row_blocks=((0,), (1, 2)), col_blocks=((0, 1), (2,)))
        assert objective(X, part, p=2.0) == 0.0

    def test_singletons_give_entrywise_l1(self):
        rng = np.random.default_rng(42)
        X = _rand_residual(rng, 3, 4)
        part = TwoModePartition(
            row_blocks=tuple((i,) for i in range(3)),
            col_blocks=tuple((j,) for j in range(4)),
        )
        assert objective(X, part, p=1.0) == pytest.approx(np.abs(X.x).sum(), rel=1e-12)

    def test_invalid_partitions(self):
        X = ResidualMatrix(x=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="empty"):
            TwoModePartition(row_blocks=((0, 1, 2), ()), col_blocks=((0, 1, 2),))
        with pytest.raises(ValueError, match="overlap"):
            TwoModePartition(row_blocks=((0, 1), (1, 2)), col_blocks=((0, 1, 2),))
        part = TwoModePartition(row_blocks=((0, 1),), col_blocks=((0, 1, 2),))
        with pytest.raises(ValueError, match="cover"):
            objective(X, part, p=1.0)
        with pytest.raises(ValueError, match="p must be"):
            objective(
                X,
                TwoModePartition(row_blocks=((0, 1, 2),), col_blocks=((0, 1, 2),)),
                p=0.5,
            )


class TestMaximize:
    def test_asbestos_2x2_p1(self, asbestos_P):
        X = correspondence_residual(asbestos_P)
        res = maximize(X, 2, 2, p=1.0)
        assert res.method == "exhaustive"
        assert res.objective == pytest.approx(0.5328, abs=5e-4)
        rows = {frozenset(b) for b in res.partition.row_blocks}
        assert rows == {frozenset({0, 1}), frozenset({2, 3, 4})}

    def test_full_singleton_partition(self):
        rng = np.random.default_rng(43)
        X = _rand_residual(rng, 3, 3)
        res = maximize(X, 3, 3, p=1.0)
        assert res.objective == pytest.approx(np.abs(X.x).sum(), rel=1e-10)

    def test_matches_brute_force_p2(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            X = _rand_residual(rng, 5, 4)
            res = maximize(X, 2, 2, p=2.0)
            assert res.objective == pytest.approx(
                brute_two_mode_best(X.x, 2, 2, 2.0), rel=1e-10
            )

    def test_matches_brute_force_3x2(self):
        rng = np.random.default_rng(45)
        X = _rand_residual(rng, 5, 4)
        res = maximize(X, 3, 2, p=1.5)
        assert res.objective == pytest.approx(
            brute_two_mode_best(X.x, 3, 2, 1.5), rel=1e-10
        )

    def test_bad_block_counts(self):
        X = ResidualMatrix(x=np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"r must be"):
            maximize(X, 4, 2)
        with pytest.raises(ValueError, match=r"c must be"):
            maximize(X, 2, 0)

    @pytest.mark.parametrize("p", [0.5, float("inf"), float("nan")])
    def test_p_must_be_finite_and_at_least_one(self, p):
        X = _rand_residual(np.random.default_rng(53), 4, 4)
        part = TwoModePartition(row_blocks=((0, 1), (2, 3)), col_blocks=((0,), (1, 2, 3)))
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            objective(X, part, p)
        with pytest.raises(ValueError, match="p must be finite and >= 1"):
            maximize(X, 2, 2, p=p)

    def test_huge_p_still_scores(self):
        # |x| < 1 makes every |x|^p underflow; the screen's tolerance stays
        # finite.  With one column block every block sum is zero, so f_p = 0 is
        # the optimum; with two row and two column blocks it is not, and the
        # underflow is an error rather than an arbitrary partition.
        X = correspondence_residual(from_counts(np.arange(1.0, 21.0).reshape(5, 4)))
        for method in ("exhaustive", "local_search"):
            res = maximize(X, 2, 1, p=1e308, method=method)
            assert res.objective == objective(X, res.partition, 1e308) == 0.0
            with pytest.raises(ValueError, match=r"f_p underflows at p=1e\+308"):
                maximize(X, 2, 2, p=1e308, method=method)

    @pytest.mark.parametrize("method", ["exhaustive", "local_search"])
    def test_underflowing_p_is_rejected(self, asbestos_P, method):
        # max |x| = 0.118 on asbestos: 0.118^400 underflows, 0.118^300 does not
        X = correspondence_residual(asbestos_P)
        with pytest.raises(ValueError, match=r"f_p underflows at p=400: .* use a smaller p"):
            maximize(X, 2, 2, p=400.0, method=method)
        res = maximize(X, 2, 2, p=300.0, method="exhaustive")
        assert res.objective == 4.432096273276446e-279
        assert res.partition.row_blocks == ((0,), (1, 2, 3, 4))
        assert res.partition.col_blocks == ((0,), (1, 2, 3))

    @pytest.mark.parametrize("r, c", [(1, 1), (2, 1), (1, 3)])
    def test_single_block_mode_scores_zero_at_any_p(self, asbestos_P, r, c):
        # every block sum of a double-centered matrix is zero when one mode is
        # a single block: f_p = 0 is the true optimum, not an underflow
        X = correspondence_residual(asbestos_P)
        res = maximize(X, r, c, p=400.0)
        assert res.objective == 0.0
        assert len(res.partition.row_blocks) == r and len(res.partition.col_blocks) == c

    def test_local_search_close_to_exhaustive(self):
        rng = np.random.default_rng(46)
        gap_count = 0
        for _ in range(20):
            X = _rand_residual(rng, 6, 5)
            exact = maximize(X, 2, 2, p=1.0, method="exhaustive")
            local = maximize(X, 2, 2, p=1.0, method="local_search")
            assert local.objective <= exact.objective + 1e-10
            if local.objective < exact.objective - 1e-10:
                gap_count += 1
        print(f"local search optimality gaps: {gap_count}/20")

    def test_tall_table_counts_its_search_space(self):
        # counting the set partitions of 1200 rows must not recurse 1200 calls deep
        X = _rand_residual(np.random.default_rng(52), 1200, 4)
        res = maximize(X, 2, 2, p=1.0)
        assert res.method == "local_search"
        assert clustering._rgs_counts(1200, 2)[1, 1199] >= clustering.EXHAUSTIVE_SPACE_LIMIT

    def test_local_search_blocks_nonempty(self):
        rng = np.random.default_rng(47)
        X = _rand_residual(rng, 7, 6)
        res = maximize(X, 3, 3, p=2.0, method="local_search")
        assert res.method == "local_search"
        assert all(len(b) >= 1 for b in res.partition.row_blocks)
        assert all(len(b) >= 1 for b in res.partition.col_blocks)


class TestTaxicabBridge:
    def test_max_f1_over_2x2_equals_matrix_norm(self):
        rng = np.random.default_rng(48)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, max(3, 13 - n)))
            X = _rand_residual(rng, n, m)
            res = maximize(X, 2, 2, p=1.0)
            axis = norm_exact(X)
            assert res.objective == pytest.approx(axis.delta, rel=1e-10, abs=1e-10)


@st.composite
def _tie_prone_residuals(draw):
    """Small double-centered matrices with duplicate and all-zero rows and columns.

    Centering keeps duplicate lines of y duplicate; a zero line inserted into
    a centered matrix keeps it centered and adds nothing to its scale.  Small
    integers make exact ties common; near-constant floats leave residuals far
    smaller than the rounding of their centering.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = st.integers(-3, 3).map(float) if draw(st.booleans()) else st.floats(-1, 1)
    y = np.array(draw(st.lists(cells, min_size=n * m, max_size=n * m))).reshape(n, m)
    if m > 1 and draw(st.booleans()):
        y[:, -1] = y[:, 0]
    if n > 1 and draw(st.booleans()):
        y[-1] = y[0]
    X = additive_double_center(y)
    x = X.x
    if draw(st.booleans()):
        x = np.insert(x, draw(st.integers(0, n)), 0.0, axis=0)
    if draw(st.booleans()):
        x = np.insert(x, draw(st.integers(0, m)), 0.0, axis=1)
    return ResidualMatrix(x=x, scale=X.scale)


# centering rounds at 1e-16 of the 0.6 cells; the residual itself is 1e-8
_NEAR_CONSTANT = additive_double_center(
    np.array([[0.6, 0.6000000112329102], [0.6000000112329102, 0.6]]))


# residuals near 1e-277, which ``_tie_prone_residuals`` can draw: at p = 1.5
# every block term underflows to 0
_TINY = ResidualMatrix(x=np.array([[5.49e-278, -5.49e-278], [-5.49e-278, 5.49e-278]]))


def _underflows(X: ResidualMatrix, r: int, c: int, p: float) -> bool:
    """Whether ``maximize`` rejects X, r, c at p because f_p underflows."""
    peak = float(np.abs(X.x).max())
    return r > 1 and c > 1 and 0.0 < peak < 1.0 and peak ** p == 0.0


def _same_as_oracle(res, oracle, r: int, c: int) -> None:
    rows, cols, obj = oracle
    assert repr(res.objective) == repr(obj)
    assert res.partition.row_blocks == clustering._blocks_from_assign(rows, r)
    assert res.partition.col_blocks == clustering._blocks_from_assign(cols, c)


class TestScreenedSearch:
    """The screened searches return the one-candidate-at-a-time loops' results, bit for bit."""

    def test_rgs_range_matches_recursive_order(self):
        for n in range(1, 8):
            for r in range(1, n + 1):
                counts = clustering._rgs_counts(n, r)
                total = int(counts[1, n - 1])
                expected = np.array(list(_rgs_exact(n, r)))
                np.testing.assert_array_equal(clustering._rgs_range(counts, 0, total), expected)
                mid = total // 2
                np.testing.assert_array_equal(
                    clustering._rgs_range(counts, mid, total), expected[mid:])

    @settings(max_examples=60, deadline=None)
    @given(X=_tie_prone_residuals(), r=st.integers(1, 3), c=st.integers(1, 3),
           p=st.sampled_from([1.0, 1.5, 2.0]))
    @example(X=_TINY, r=2, c=2, p=1.5)
    def test_exhaustive_matches_loop(self, X, r, c, p):
        r, c = min(r, X.shape[0]), min(c, X.shape[1])
        if _underflows(X, r, c, p):
            with pytest.raises(ValueError, match="f_p underflows"):
                maximize(X, r, c, p=p, method="exhaustive")
            return
        res = maximize(X, r, c, p=p, method="exhaustive")
        _same_as_oracle(res, loop_exhaustive(X.x, r, c, p), r, c)

    @settings(max_examples=60, deadline=None)
    @given(X=_tie_prone_residuals(), r=st.integers(1, 3), c=st.integers(1, 3),
           p=st.sampled_from([1.0, 1.5, 2.0]))
    @example(X=_NEAR_CONSTANT, r=1, c=1, p=1.0)
    @example(X=_TINY, r=2, c=2, p=1.5)
    def test_local_search_matches_loop(self, X, r, c, p):
        r, c = min(r, X.shape[0]), min(c, X.shape[1])
        if _underflows(X, r, c, p):
            with pytest.raises(ValueError, match="f_p underflows"):
                maximize(X, r, c, p=p, method="local_search")
            return
        res = maximize(X, r, c, p=p, method="local_search")
        _same_as_oracle(res, loop_local_search(X.x, r, c, p), r, c)

    @settings(max_examples=60, deadline=None)
    @given(X=_tie_prone_residuals(), r=st.integers(1, 3), c=st.integers(1, 3),
           p=st.sampled_from([1.0, 1.5, 2.0]),
           method=st.sampled_from(["exhaustive", "local_search"]))
    @example(X=additive_double_center(np.random.default_rng(4).normal(size=(6, 5))),
             r=3, c=2, p=1.5, method="exhaustive")
    @example(X=_TINY, r=2, c=2, p=1.5, method="exhaustive")
    def test_objective_of_result_partition_is_result_objective(self, X, r, c, p, method):
        r, c = min(r, X.shape[0]), min(c, X.shape[1])
        if _underflows(X, r, c, p):
            with pytest.raises(ValueError, match="f_p underflows"):
                maximize(X, r, c, p=p, method=method)
            return
        res = maximize(X, r, c, p=p, method=method)
        assert repr(objective(X, res.partition, p)) == repr(res.objective)

    @pytest.mark.parametrize("budget", [64, 1024])
    def test_chunked_screen_matches_loop(self, monkeypatch, budget):
        # budgets this small split the column stack, screen several row
        # partitions per column chunk, and regenerate the column labels
        monkeypatch.setattr(clustering, "_SCREEN_BYTES", budget)
        rng = np.random.default_rng(49)
        for k in range(12):
            n, m = int(rng.integers(3, 7)), int(rng.integers(3, 7))
            x = random_double_centered(rng, n, m)
            r, c, p = 2 + k % 2, 3 - k % 2, (1.0, 1.5, 2.0)[k % 3]
            res = maximize(ResidualMatrix(x=x), r, c, p=p, method="exhaustive")
            _same_as_oracle(res, loop_exhaustive(x, r, c, p), r, c)
        # cells in {-1, 0, 1}: many partitions tie exactly, and the earliest
        # of them must win although the chunks are not screened in that order
        for _ in range(60):
            n, m = 3, int(rng.integers(4, 7))
            x = np.zeros((n, m))
            x[:-1, :-1] = rng.integers(-1, 2, size=(n - 1, m - 1))
            x[:-1, -1] = -x[:-1, :-1].sum(axis=1)
            x[-1] = -x[:-1].sum(axis=0)
            res = maximize(ResidualMatrix(x=x), 2, 2, p=1.0, method="exhaustive")
            _same_as_oracle(res, loop_exhaustive(x, 2, 2, 1.0), 2, 2)

    def test_local_search_matches_loop_on_larger_tables(self):
        rng = np.random.default_rng(50)
        cases = []
        for p in (1.0, 1.5, 2.0):
            counts = rng.poisson(3.0, size=(14, 11)).astype(float) + 1.0
            counts[:, 3] = counts[:, 7]
            cases.append((counts, 4, 3, p))
        # the benchmark's cluster shape, and a tall table
        cases.append((rng.poisson(4.0, size=(40, 30)).astype(float) + 1.0, 4, 3, 2.0))
        cases.append((rng.poisson(4.0, size=(60, 8)).astype(float) + 1.0, 5, 3, 1.5))
        for counts, r, c, p in cases:
            x = correspondence_residual(from_counts(counts)).x
            res = maximize(ResidualMatrix(x=x), r, c, p=p, method="local_search")
            _same_as_oracle(res, loop_local_search(x, r, c, p), r, c)

    def test_zero_matrix_keeps_first_partition(self):
        x = np.zeros((5, 4))
        for method, oracle in (("exhaustive", loop_exhaustive), ("local_search", loop_local_search)):
            res = maximize(ResidualMatrix(x=x), 2, 3, p=1.5, method=method)
            _same_as_oracle(res, oracle(x, 2, 3, 1.5), 2, 3)

    def test_exhaustive_memory_is_bounded(self):
        # 9330 x 966 = 9.0M candidates; the screen works in fixed-size blocks
        X = _rand_residual(np.random.default_rng(51), 10, 8)
        tracemalloc.start()
        try:
            maximize(X, 3, 3, p=1.0, method="exhaustive")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
