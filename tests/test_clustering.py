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

    def test_exhaustive_over_the_limit_is_refused(self):
        X = _rand_residual(np.random.default_rng(54), 30, 4)  # S(30, 2) S(4, 2) > 10**7
        limit = clustering.EXHAUSTIVE_SPACE_LIMIT
        with pytest.raises(ValueError, match=f"exceeds exhaustive limit {limit}: use local_search"):
            maximize(X, 2, 2, method="exhaustive")

    def test_unknown_method_is_refused(self):
        X = _rand_residual(np.random.default_rng(55), 4, 4)
        with pytest.raises(ValueError, match="unknown method 'greedy'"):
            maximize(X, 2, 2, method="greedy")

    @pytest.mark.parametrize("blocks, name", [
        ({"row_blocks": ((0, 1), (2, 4)), "col_blocks": ((0, 1), (2, 3))}, "row"),
        ({"row_blocks": ((0, 1), (2, 3)), "col_blocks": ((0,), (1, 2, 3, -1))}, "column"),
    ])
    def test_objective_refuses_an_index_out_of_range(self, blocks, name):
        X = _rand_residual(np.random.default_rng(56), 4, 4)
        with pytest.raises(ValueError, match=rf"{name} index -?\d+ out of range"):
            objective(X, TwoModePartition(**blocks))

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

    @staticmethod
    def _count_reference_calls(monkeypatch) -> list[int]:
        calls = [0]
        reference = clustering._objective_from_assign

        def counted(*args):
            calls[0] += 1
            return reference(*args)

        monkeypatch.setattr(clustering, "_objective_from_assign", counted)
        return calls

    @staticmethod
    def _starts(n: int, m: int, r: int, c: int) -> int:
        return len(clustering._balanced_starts(n, r)) * len(clustering._balanced_starts(m, c))

    def test_local_search_scores_only_moves_within_tol(self, monkeypatch):
        # the benchmark's cluster shape: every move's screened gain is beyond
        # tol of zero, so each start scores only the state it ends in (one
        # call per start, plus at most two per move with |gain| <= tol); the
        # loop that scored every screened-in move made 332 calls here
        rng = np.random.default_rng(52)
        x = correspondence_residual(from_counts(rng.poisson(4.0, size=(40, 30)).astype(float))).x
        calls = self._count_reference_calls(monkeypatch)
        res = maximize(ResidualMatrix(x=x), 4, 3, p=2.0, method="local_search")
        assert calls[0] == self._starts(40, 30, 4, 3) == 4
        _same_as_oracle(res, loop_local_search(x, 4, 3, 2.0), 4, 3)

    def test_local_search_scores_tied_moves(self, monkeypatch):
        # cells in {-1, 0, 1} at p = 1: many moves change f_p by exactly 0,
        # so their gains fall within tol and only the reference score can
        # decide them
        rng = np.random.default_rng(53)
        calls = self._count_reference_calls(monkeypatch)
        for k in range(12):
            n, m = int(rng.integers(6, 11)), int(rng.integers(6, 11))
            x = np.zeros((n, m))
            x[:-1, :-1] = rng.integers(-1, 2, size=(n - 1, m - 1))
            x[:-1, -1] = -x[:-1, :-1].sum(axis=1)
            x[-1] = -x[:-1].sum(axis=0)
            r, c = 2 + k % 2, 3 - k % 2
            calls[0] = 0
            res = maximize(ResidualMatrix(x=x), r, c, p=1.0, method="local_search")
            assert calls[0] > self._starts(n, m, r, c)  # the scored branch ran
            _same_as_oracle(res, loop_local_search(x, r, c, 1.0), r, c)

    @staticmethod
    def _near_overflow(method: str, oracle) -> None:
        """Both searches against their loops on tables with max |x|^3 near 1e307, at p = 3."""
        rng = np.random.default_rng(54)
        for _ in range(4):
            n, m = int(rng.integers(5, 12)), int(rng.integers(4, 10))
            counts = rng.poisson(3.0, size=(n, m)).astype(float) + 1.0
            x0 = correspondence_residual(from_counts(counts)).x
            for exponent in (307.0, 307.5):
                x = x0 / np.abs(x0).max() * 10 ** (exponent / 3)
                with np.errstate(over="ignore", invalid="ignore"):
                    res = maximize(ResidualMatrix(x=x), 3, 2, p=3.0, method=method)
                    expected = oracle(x, 3, 2, 3.0)
                _same_as_oracle(res, expected, 3, 2)

    def test_local_search_matches_loop_near_overflow(self):
        # a screened |block sum|^3 overflows to inf (or inf - inf = nan)
        # while the reference terms stay finite, and at the larger scale
        # sum |x|^3, so tol, overflows too; such a gain proves nothing, and
        # the move is scored
        self._near_overflow("local_search", loop_local_search)

    def test_exhaustive_matches_loop_near_overflow(self):
        # the exhaustive screen's |block sum|^3 times the size weights
        # overflows the same way; such a candidate (every candidate, when
        # tol overflowed) is scored
        self._near_overflow("exhaustive", loop_exhaustive)

    def test_exhaustive_matches_loop_where_scores_overflow(self):
        # past max |x|^3 = 10^308 some partitions score inf in the loop, and
        # an inf objective ranks no partitions (local search ends at inf on
        # another partition than its loop's): both searches refuse
        rng = np.random.default_rng(54)
        for _ in range(3):
            n, m = int(rng.integers(5, 9)), int(rng.integers(4, 7))
            counts = rng.poisson(3.0, size=(n, m)).astype(float) + 1.0
            x0 = correspondence_residual(from_counts(counts)).x
            for exponent in (308.3, 309.0):
                x = x0 / np.abs(x0).max() * 10 ** (exponent / 3)
                with np.errstate(over="ignore", invalid="ignore"):
                    assert loop_exhaustive(x, 3, 2, 3.0)[2] == np.inf
                    for method in ("exhaustive", "local_search"):
                        with pytest.raises(ValueError, match="f_p overflows"):
                            maximize(ResidualMatrix(x=x), 3, 2, p=3.0, method=method)

    def test_both_searches_refuse_an_overflowing_objective(self):
        # a finite table whose best f_p at p = 1.1 is 4 (1e307)^1.1: inf
        X = ResidualMatrix(x=1e307 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        for method in ("exhaustive", "local_search"):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="f_p overflows"):
                maximize(X, 2, 2, p=1.1, method=method)

    def test_exhaustive_scores_a_few_candidates_near_overflow(self, monkeypatch):
        # the 10 x 6 table of _near_overflow at max |x|^3 = 10^307.5: sum
        # |x|^3 overflows, but the screens run on x 2^-e, where nothing can
        rng = np.random.default_rng(54)
        for _ in range(4):
            n, m = int(rng.integers(5, 12)), int(rng.integers(4, 10))
            counts = rng.poisson(3.0, size=(n, m)).astype(float) + 1.0
        assert (n, m) == (10, 6)
        space = int(clustering._rgs_counts(n, 3)[1, n - 1] * clustering._rgs_counts(m, 2)[1, m - 1])
        assert space == 289230
        x0 = correspondence_residual(from_counts(counts)).x
        x = x0 / np.abs(x0).max() * 10 ** (307.5 / 3)
        calls = self._count_reference_calls(monkeypatch)
        maximize(ResidualMatrix(x=x), 3, 2, p=3.0, method="exhaustive")
        assert calls[0] <= space // 100
        calls[0] = 0
        maximize(ResidualMatrix(x=x), 3, 2, p=3.0, method="local_search")
        assert calls[0] <= 2 * self._starts(n, m, 3, 2)

    @pytest.mark.parametrize("peak, p", [(1e-160, 2.0), (1e-318, 1.0)])
    def test_both_searches_match_loops_at_subnormal_scale(self, peak, p):
        # every f_p is subnormal, where a relative tolerance alone is 0:
        # local search took a move "proven" to rise that its loop rejects
        # (draws 16 and 47 at p = 2, 23 at p = 1), and the exhaustive search
        # kept a later partition of an equal score (draw 50 at p = 1)
        rng = np.random.default_rng(5)
        for _ in range(60):
            n, m = int(rng.integers(4, 8)), int(rng.integers(3, 6))
            counts = rng.poisson(3.0, size=(n, m)).astype(float) + 1.0
            x0 = correspondence_residual(from_counts(counts)).x
            X = ResidualMatrix(x=x0 / np.abs(x0).max() * peak)
            for method, oracle in (("exhaustive", loop_exhaustive),
                                   ("local_search", loop_local_search)):
                res = maximize(X, 2, 2, p=p, method=method)
                _same_as_oracle(res, oracle(X.x, 2, 2, p), 2, 2)

    def test_exhaustive_scores_nan_screens(self):
        # at p = 600 to 1500 with max |x| in [1.5, 4) the loop's best score
        # overflows to inf on every draw, while the screens, on x 2^-e, stay
        # finite: both searches refuse
        rng = np.random.default_rng(7)
        for _ in range(6):
            n, m = int(rng.integers(4, 8)), int(rng.integers(3, 6))
            counts = rng.poisson(3.0, size=(n, m)).astype(float) + 1.0
            x = correspondence_residual(from_counts(counts)).x
            x = x / np.abs(x).max() * float(rng.uniform(1.5, 4.0))
            p = float(rng.choice([600.0, 900.0, 1100.0, 1500.0]))
            with np.errstate(all="ignore"):
                assert loop_exhaustive(x, 3, 2, p)[2] == np.inf
                for method in ("exhaustive", "local_search"):
                    with pytest.raises(ValueError, match="f_p overflows"):
                        maximize(ResidualMatrix(x=x), 3, 2, p=p, method=method)

    def test_zero_matrix_keeps_first_partition(self):
        x = np.zeros((5, 4))
        for method, oracle in (("exhaustive", loop_exhaustive), ("local_search", loop_local_search)):
            res = maximize(ResidualMatrix(x=x), 2, 3, p=1.5, method=method)
            _same_as_oracle(res, oracle(x, 2, 3, 1.5), 2, 3)

    def test_zero_matrix_scores_one_candidate_a_start(self, monkeypatch):
        # a constant table's residual is exactly zero: every value is exactly
        # 0, so the screens' bound is 0 and ties need no scoring
        X = correspondence_residual(from_counts(np.ones((7, 6))))
        assert not X.x.any()
        calls = self._count_reference_calls(monkeypatch)
        maximize(X, 3, 3, p=1.0, method="exhaustive")
        assert calls[0] == 1
        calls[0] = 0
        maximize(X, 3, 3, p=1.0, method="local_search")
        assert calls[0] == self._starts(7, 6, 3, 3)

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
