"""Maximal-interaction two-mode clustering of a double-centered matrix.

Partitions rows into r blocks and columns into c blocks to maximize the
overall interaction

    f_p = sum over blocks of |S| |T| (|blocksum| / (|S| |T|))^p,   p >= 1.

At p = 1 with r = c = 2 the optimum equals the taxicab norm of the matrix
(four times its cut-norm); at p = 2 the objective is the classical maximal
overall interaction criterion.  Small instances are solved exhaustively over
set partitions; larger ones by deterministic single-move local search.

Both searches screen, then confirm.  The screens run on x' = x 2^-e
(``_scaled``), the power of two at which sum |x'| is below 1/2, so no
screened value can overflow or be nan; they decide only what to score.
Scoring is ``_objective_from_assign`` on the unscaled x, the one scorer that
``objective()`` also uses, so a result's objective is bit for bit the
``objective()`` of its partition.  ``_screen_tol`` proves a bound tol on the
gap between a screened value and 2^-ep times the score, and 2 tol on the gap
for a change of it.  The exhaustive search enumerates row and column
partitions as restricted growth strings, read off their ranks in blocks.  It
screens a block of (row, column) pairs at once: the row-block aggregates of
x' times the column indicator stack give every block sum, and abs, power and
size weights turn them into f_p.  The stack is built once when it fits
``_SCREEN_BYTES`` and in chunks otherwise, so working memory is fixed
whatever S(n, r) S(m, c) is.  A candidate more than 2 tol below the block's
best screened value or the incumbent's is dropped unscored.  Local search
keeps the block sums and each line's sums over the other mode's blocks.
From them it screens every move of every line in O(r c): a move whose
screened gain is at most -2 tol is rejected and one whose gain exceeds 2 tol
is taken, both without scoring, and only a move in between is scored.  A
run's objective is the score of the state it ends in.  Either way the
partitions and the objective bits are those of scoring every candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residual import ResidualMatrix
from .taxicab import EnumerationBudgetError, InvariantError

__all__ = [
    "EXHAUSTIVE_SPACE_LIMIT",
    "ClusteringResult",
    "TwoModePartition",
    "maximize",
    "objective",
]

EXHAUSTIVE_SPACE_LIMIT = 10**7

# Float working set of one screened block of candidates (block sums, and the
# column indicator stack, which is built once when it fits and in chunks
# otherwise); small enough to stay in cache and out of the peak RSS.
_SCREEN_BYTES = 1 << 18


@dataclass(frozen=True)
class TwoModePartition:
    """Disjoint, nonempty, exhaustive blocks over row and column index sets."""

    row_blocks: tuple[tuple[int, ...], ...]
    col_blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for name, blocks in (("row", self.row_blocks), ("column", self.col_blocks)):
            seen: set[int] = set()
            for block in blocks:
                if not block:
                    raise ValueError(f"empty {name} block")
                if seen.intersection(block):
                    raise ValueError(f"{name} blocks overlap")
                seen.update(block)


def _assignments(blocks: tuple[tuple[int, ...], ...], size: int, name: str) -> np.ndarray:
    assign = np.full(size, -1, dtype=int)
    for label, block in enumerate(blocks):
        for idx in block:
            if not 0 <= idx < size:
                raise ValueError(f"{name} index {idx} out of range")
            assign[idx] = label
    if np.any(assign < 0):
        raise ValueError(f"{name} blocks do not cover all indices")
    return assign


def _objective_from_assign(
    x: np.ndarray, row_assign: np.ndarray, col_assign: np.ndarray,
    r: int, c: int, p: float,
) -> float:
    block = np.zeros((r, c))
    np.add.at(block, (row_assign[:, None], col_assign[None, :]), x)
    sizes = np.outer(np.bincount(row_assign, minlength=r),
                     np.bincount(col_assign, minlength=c)).astype(float)
    return float((sizes * (np.abs(block) / sizes) ** p).sum())


def objective(X: ResidualMatrix, partition: TwoModePartition, p: float = 1.0) -> float:
    """Overall interaction f_p of a partition; at p=1 the sum of |block sums|."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p!r}")
    n, m = X.shape
    row_assign = _assignments(partition.row_blocks, n, "row")
    col_assign = _assignments(partition.col_blocks, m, "column")
    return _objective_from_assign(X.x, row_assign, col_assign,
                                  len(partition.row_blocks),
                                  len(partition.col_blocks), p)


@dataclass(frozen=True)
class ClusteringResult:
    partition: TwoModePartition
    objective: float
    p: float
    method: str


def _rgs_counts(n: int, r: int) -> np.ndarray:
    """``counts[u, k]``: ways to finish a restricted growth string that has u
    labels in use and k entries left so that exactly r labels appear.

    Counts are capped at 2**62, so ``counts[1, n - 1]`` is min(S(n, r), 2**62);
    the other capped cells belong to prefixes no string in an enumerable
    search space has.
    """
    counts = [[0] * n for _ in range(r + 2)]
    counts[r][0] = 1
    for k in range(1, n):
        for u in range(1, r + 1):
            counts[u][k] = min(u * counts[u][k - 1] + counts[u + 1][k - 1], 1 << 62)
    return np.array(counts, dtype=np.int64)


def _rgs_range(counts: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Restricted growth strings ``start:stop`` in lexicographic order, one per row.

    Entry i of string number s is read off its rank: the ``u * counts[u, k]``
    strings that reuse one of the u labels in use come before those that open
    label u.  These are the set partitions with exactly r blocks, labelled in
    order of first appearance.
    """
    n = counts.shape[1]
    rank = np.arange(start, stop, dtype=np.int64)
    labels = np.zeros((rank.size, n), dtype=np.intp)
    used = np.ones_like(rank)
    for i in range(1, n):
        each = counts[used, n - 1 - i]
        reused = used * each
        opens = rank >= reused
        label, rest = np.divmod(rank, np.maximum(each, 1))
        labels[:, i] = np.where(opens, used, label)
        rank = np.where(opens, rank - reused, rest)
        used += opens
    return labels


def _blocks_from_assign(assign: np.ndarray, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(np.flatnonzero(assign == label).tolist()) for label in range(r)
    )


def _balanced_starts(size: int, blocks: int) -> list[np.ndarray]:
    contiguous = (np.arange(size) * blocks) // size
    strided = np.arange(size) % blocks
    starts = [contiguous]
    if not np.array_equal(contiguous, strided):
        starts.append(strided)
    return starts


def _scaled(x: np.ndarray) -> np.ndarray:
    """x 2^-e, e >= 0 the least exponent at which sum |x 2^-e| is below 1/2.

    e is read off max |x| (and is 1 for a zero x): x is first brought below
    1 in magnitude by a power of two, so the sum taken of it is at most n m
    and cannot overflow.  A power of two scales exactly except where it
    makes an entry subnormal.  e is never negative: the reference's
    roundings in the subnormal range, which shrink by 2^-ep in x 2^-e units,
    would grow, and a reference that underflowed to a tie would be split by
    a finer screen.
    """
    shift = int(np.frexp(np.abs(x).max())[1])
    mass = float(np.abs(np.ldexp(x, -shift)).sum())
    e = max(0, shift + int(np.frexp(mass)[1]) + 1)
    return np.ldexp(x, -e)


def _screen_tol(x: np.ndarray, r: int, c: int, p: float) -> float:
    """Bound tol on |S - 2^-ep R| for a screened f_p S; 2 tol for a screened change.

    x is ``_scaled``'s x' = x 2^-e, the screens' input, and everything is
    in its units; R is ``_objective_from_assign`` of the same partition on
    the unscaled x, and a local-search gain G is within 2 tol of 2^-ep times
    the change of R.  The bound is

        tol = (p (n m + 4 (n + m)) + r c + 24) eps A~ + 32 n m eta,

    ``kernels.rounding_margin``'s form, with A~ the computed sum |x'|^p; a
    zero x, on which every value is exactly 0, gets tol = 0.  u
    is the float64 unit roundoff (eps = 2 u), eta the smallest subnormal and
    gamma_k = k u / (1 - k u); numpy's power is taken to be within 4 units
    in the last place, a relative 8 u and an absolute 4 eta.  A block of s
    cells has exact sum b of x 2^-e, mean a = |b| / s, mass W (the sum of
    its |x'|) and term phi = s a^p; A_k, its cells' share of A = sum |x'|^p,
    is at least s (W / s)^p >= phi by the power mean.  R is taken with the
    roundings of its own arithmetic in an unbounded exponent range, R^ in
    ``_exhaustive``, where a computed R that overflows is refused.  Every
    bound is to first order; the spare in the constants covers the
    second-order terms and the roundings of A~, of tol and of a floor
    S - 2 tol.

    Range.  sum |x'| < 1/2 (to rounding), so every mean is below 1/2, every
    computed |block sum| below 1, every size weight s^(1-p) at most 1, and
    no power, term or sum of terms can overflow or make a nan.

    Block sums.  A screened block sum adds its cells in at most n + m - 1
    roundings (row-block aggregates, then their product with the column
    indicators; in local search, each line's sums over the other mode's
    blocks, a block's sum of them, and one line joined or taken away), and
    the reference's ``np.add.at`` chain in at most n m - 1.  So a computed
    sum is within gamma W of b, with gamma = gamma_(n+m) or gamma_(nm), and
    W the block's mass, or for a block that a line leaves at most twice the
    mass W' of its s' <= 2 s cells before the move.  An error d of b moves
    phi by at most p a~^(p-1) d, a~ the larger of the exact and computed
    means.  While p (n m + n + m) u <= 1/16, (1 + 4 gamma)^p <= 1.3, so that
    is at most 1.07 p gamma A_k; for a leave, with w = W' / s' and Young's
    p a^(p-1) w <= (p - 1) a^p + w^p, at most 8 p gamma A_k', the share of
    the cells before the move.  The reference's division by s adds
    1.07 p u A_k the same way.  For larger p (over 2^11 while
    n m + n + m < 2^38) every exact and computed |block sum| is below 0.51
    and 0.51^p vanishes, so a term is below 5 eta screened, (4 s + 1) eta
    as a reference and eta exactly.

    Terms.  The exhaustive screen rounds |b~|^p, two weights and two
    products (26 u and 13 eta a term), then sums r c terms ((r c - 1) u);
    the reference rounds the division (0.75 s eta through the power, as
    p a~^(p-1) <= 1.5), the power (times s: 8 u and 4 s eta), the product
    by s (u and eta / 2) and the sum.  Entries that the scaling made
    subnormal move a screened sum by s eta / 2, 0.75 s eta through the
    power.  Summed over the blocks: 1.07 p (gamma_(n+m) + gamma_(nm) + u) A,
    within the p part of tol; (2 r c + 33) u A, within its constant part;
    and under 6 n m + 14 r c eta, which with the underflow of A~ (below
    4 n m eta, times a coefficient under 0.7 while p is moderate) is within
    32 n m eta.

    Changes.  A gain adds four rows of the other mode's terms, its two
    blocks before and after the move (cells that make up A at most twice),
    and rounds three times (4 u A).  Its block sums give at most 10 p
    gamma_(n+m) A (three blocks at 1.07 p gamma, the leave at 8 p gamma),
    the two reference values twice their part, and the term roundings at
    most twice the screen's; all of it is within 2 tol, whose p part is
    4 p (n m + 4 (n + m)) u.  So a screened value more than 2 tol below
    another proves a smaller R, and G <= -2 tol (G > 2 tol) proves that R
    does not rise (rises), as the strict ``>`` of both searches decides.
    """
    n, m = x.shape
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    rel = (n * m + 4 * (n + m)) * eps * p + (r * c + 24) * eps
    subnormal = 32 * n * m * tiny if x.any() else 0.0
    return rel * float((np.abs(x) ** p).sum()) + subnormal


def _indicators(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of shape (..., size) -> 0/1 floats of shape (..., k, size)."""
    return (labels[..., None, :] == np.arange(k)[:, None]).astype(float)


def _exhaustive(
    x: np.ndarray, scaled: np.ndarray, tol: float, r: int, c: int, p: float,
    row_counts: np.ndarray, col_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """First maximizer of f_p in (row RGS, column RGS) order, or None if none scores.

    ``row_counts`` and ``col_counts`` are the ``_rgs_counts`` tables of the
    two modes.  A screen scores a block of candidates at once on ``scaled``,
    x 2^-e: one matmul of the row-block aggregates with the column indicator
    stack gives every block sum.  Let R^ be a candidate's
    ``_objective_from_assign`` score on x with the same roundings in an
    unbounded exponent range.  For a finite sum |x| its terms and partial
    sums are nonnegative and at most R^, so the computed score is R^ unless
    R^ reaches float64's overflow threshold, and inf then.  By
    ``_screen_tol`` a candidate whose screened value is more than 2 ``tol``
    below another's has a smaller R^.  So only candidates within 2 tol of
    the block's best screened value and of the incumbent's (at 2 tol itself
    only if earlier than the incumbent, which a tie would keep) are scored.
    The largest screened value is always scored, and every candidate left
    unscored has a smaller R^ than a scored one, or an equal R^ and a later
    place.

    Overflow.  If any score overflows, a scored candidate's R^ reaches the
    threshold too, its score is inf, and the incumbent, the largest score,
    is at least 2^1023, which ``maximize`` refuses.  Below 2^1023 no score
    overflowed, every score is its R^, and the incumbent is the largest
    score, the earliest candidate on ties: the winner and its objective bits
    are those of scoring every candidate in enumeration order under the
    strict ``>``.  Screened values are compared only with screened values.
    """
    n, m = x.shape
    n_rows, n_cols = int(row_counts[1, n - 1]), int(col_counts[1, m - 1])
    if 8 * m * c * n_cols <= _SCREEN_BYTES:  # the whole column stack is built once
        cols_per = n_cols
        rows_per = max(1, _SCREEN_BYTES // (8 * r * c * n_cols))
    else:  # column chunks; building one costs about what scoring it does
        cols_per = max(1, _SCREEN_BYTES // (8 * c * max(m, r)))
        rows_per = max(1, m // r)
    rows_per = min(rows_per, n_rows)
    # row partitions are generated and aggregated a budget's worth at a time
    rows_batch = min(max(rows_per, _SCREEN_BYTES // (8 * r * max(n, m))), n_rows)

    def column_chunk(c0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cols = _rgs_range(col_counts, c0, min(c0 + cols_per, n_cols))
        hot = _indicators(cols.T, c)                                 # (m, c, K)
        return cols, hot.reshape(m, -1), hot.sum(axis=0) ** (1 - p)

    whole = column_chunk(0) if cols_per == n_cols else None
    buf = np.empty(rows_per * r * c * cols_per)
    best_val, best_idx = -np.inf, n_rows * n_cols
    best_screened = -np.inf  # the incumbent's screened value
    best: tuple[np.ndarray, np.ndarray, float] | None = None

    def may_win(screened: float, idx: int) -> bool:
        floor = best_screened - 2 * tol
        return screened > floor or (screened >= floor and idx < best_idx)

    for b0 in range(0, n_rows, rows_batch):
        batch = _rgs_range(row_counts, b0, min(b0 + rows_batch, n_rows))
        hot = _indicators(batch, r)                                  # (B, r, n)
        batch_agg = (hot.reshape(-1, n) @ scaled).reshape(len(batch), r, m)
        batch_w = hot.sum(axis=2) ** (1 - p)                         # (B, r)
        del hot
        for r0 in range(0, len(batch), rows_per):
            rows = batch[r0:r0 + rows_per]
            agg = batch_agg[r0:r0 + rows_per].reshape(-1, m)         # (b*r, m)
            row_w = batch_w[r0:r0 + rows_per]
            for c0 in range(0, n_cols, cols_per):
                cols, col_hot, col_w = whole or column_chunk(c0)
                k = len(cols)
                out = buf[:agg.shape[0] * c * k].reshape(-1, c * k)
                np.matmul(agg, col_hot, out=out)   # block sums, column d*K + s
                np.abs(out, out=out)
                if p != 1:
                    np.power(out, p, out=out)
                    blocks = out.reshape(len(rows), r, c, k)
                    blocks *= row_w[:, :, None, None]
                    blocks *= col_w
                scores = out.reshape(len(rows), r * c, k).sum(axis=1)  # (b, K)
                first = (b0 + r0) * n_cols + c0
                floor = max(scores.max(), best_screened) - 2 * tol
                for flat in np.flatnonzero(scores >= floor):
                    b, s = divmod(int(flat), k)
                    idx = first + b * n_cols + s
                    if not may_win(scores[b, s], idx):
                        continue
                    val = _objective_from_assign(x, rows[b], cols[s], r, c, p)
                    if val > best_val or (val == best_val and idx < best_idx):
                        best_val, best_idx, best_screened = val, idx, scores[b, s]
                        best = (rows[b].copy(), cols[s].copy(), val)
    return best


def _local_search(
    x: np.ndarray, scaled: np.ndarray, tol: float, r: int, c: int, p: float,
    row_assign: np.ndarray, col_assign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-element moves in sweep order while ``_objective_from_assign`` rises.

    Lines are swept in order and each line's targets in order, and a move is
    taken when its ``_objective_from_assign`` value on x is strictly larger.
    The screened gain of a move comes from the block sums of ``scaled`` and
    each line's sums over the other mode's blocks, O(other count) a move; by
    ``_screen_tol`` it is within 2 ``tol`` of 2^-ep times the change of the
    score.  So a move whose gain is at most -2 tol is rejected and one whose
    gain exceeds 2 tol is taken, both without scoring, as the score would
    decide them.  Only a move with a gain in (-2 tol, 2 tol] is scored,
    against the current state's score, computed when it is not already
    known.  The trajectory is that of scoring every move, and the objective
    is ``_objective_from_assign`` of the state it ends in.  A run whose
    objective is below 2^1023 scored nothing that overflowed: R^
    (``_exhaustive``) rises with each move taken, and a scored move that is
    not taken scores at most the current state.  So every score that
    scoring every move computes is its R^ too.

    Within one mode's sweep the other mode's labels are fixed, so the lines'
    sums g over its blocks and the size weights (s |T|)^(1-p) are built once
    a sweep.  After each move the gains are rebuilt from one array holding,
    for every line, its target blocks' sums with it joined and its own
    block's sum with it gone.
    """
    row_assign = row_assign.copy()
    col_assign = col_assign.copy()
    bound = 2 * tol
    obj: float | None = None  # the reference f_p of the current state, once scored
    moved = True
    while moved:
        moved = False
        for assign, count, lines, other, other_count in (
            (row_assign, r, scaled, col_assign, c),
            (col_assign, c, scaled.T, row_assign, r),
        ):
            n_lines = assign.size
            other_hot = _indicators(other, other_count).T              # (other, oc)
            g = lines @ other_hot                                      # (L, oc)
            # weights[s] = (max(s, 1) |T|)^(1-p) over the other mode's block
            # sizes |T|, for s up to L + 1 (a line joined to its own block); a
            # line alone in its block never moves, and the clamp keeps its
            # unused leave term finite
            weights = (np.maximum(np.arange(n_lines + 2.0), 1.0)[:, None]
                       * other_hot.sum(axis=0)) ** (1 - p)
            hot = _indicators(assign, count)                           # (count, L)
            sizes = np.bincount(assign, minlength=count)
            # row i < L: line i joined to block t (column t) and gone from its
            # own block (column count); row L: the blocks as they are
            cand = np.zeros((n_lines + 1, count + 1, other_count))
            cand_sizes = np.zeros((n_lines + 1, count + 1), dtype=np.intp)

            def move_gains() -> list[list[float]]:
                block = np.matmul(hot, g, out=cand[n_lines, :count])   # (count, oc)
                np.add(block, g[:, None, :], out=cand[:n_lines, :count])
                np.subtract(block[assign], g, out=cand[:n_lines, count])
                t = np.abs(cand)
                if p != 1:
                    np.add(sizes, 1, out=cand_sizes[:n_lines, :count])
                    np.subtract(sizes[assign], 1, out=cand_sizes[:n_lines, count])
                    cand_sizes[n_lines, :count] = sizes
                    t = t ** p * weights[cand_sizes]
                t = t.sum(axis=-1)
                base = t[n_lines, :count]
                leave = t[:n_lines, count] - base[assign]
                return (leave[:, None] + (t[:n_lines, :count] - base)).tolist()

            gains = move_gains()
            for i in range(n_lines):
                cur = int(assign[i])
                if sizes[cur] == 1:
                    continue  # moving would empty the source block
                for tgt in range(count):
                    gain = gains[i][tgt]
                    if tgt == cur or gain <= -bound:
                        continue  # its own block, or a proven fall or tie
                    if gain > bound:
                        obj = None  # a proven rise; its value is not needed yet
                    else:
                        if obj is None:
                            obj = _objective_from_assign(x, row_assign, col_assign, r, c, p)
                        assign[i] = tgt
                        val = _objective_from_assign(x, row_assign, col_assign, r, c, p)
                        assign[i] = cur
                        if not val > obj:
                            continue
                        obj = val
                    assign[i] = tgt
                    hot[cur, i], hot[tgt, i] = 0.0, 1.0
                    sizes[cur] -= 1
                    sizes[tgt] += 1
                    cur = tgt
                    moved = True
                    gains = move_gains()
    if obj is None:
        obj = _objective_from_assign(x, row_assign, col_assign, r, c, p)
    return row_assign, col_assign, obj


def maximize(
    X: ResidualMatrix, r: int, c: int, p: float = 1.0, method: str = "auto"
) -> ClusteringResult:
    """Best two-mode partition into r row blocks and c column blocks.

    ``method`` is "exhaustive", "local_search", or "auto" (exhaustive when
    the set-partition search space is at most ``EXHAUSTIVE_SPACE_LIMIT``;
    "exhaustive" past it raises ``EnumerationBudgetError``).
    Local search sweeps single-element reassignments in deterministic order,
    one run per balanced initial split, and never decreases the objective.
    With r and c at least 2 the optimum is at least max |x_ij|^p > 0 for a
    nonzero x; a p at which that underflows to 0 raises ``ValueError``.
    (With r or c equal to 1 every block sum of a double-centered matrix is
    zero, so f_p = 0 is the true optimum.)  A best objective that is not
    below 2^1023, inf included, raises ``ValueError`` too, for both
    methods: some score may then have overflowed, and an inf objective
    ranks no partitions.  Below it, both searches return what scoring every
    candidate with ``_objective_from_assign`` returns, wherever x's block
    sums do not overflow as they are added up (a finite sum |x| is enough).
    """
    n, m = X.shape
    if not 1 <= r <= n:
        raise ValueError(f"r must be in [1, {n}]")
    if not 1 <= c <= m:
        raise ValueError(f"c must be in [1, {m}]")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be finite and >= 1, got {p!r}")
    row_counts, col_counts = _rgs_counts(n, r), _rgs_counts(m, c)
    space = int(row_counts[1, n - 1]) * int(col_counts[1, m - 1])
    if method == "auto":
        method = "exhaustive" if space <= EXHAUSTIVE_SPACE_LIMIT else "local_search"
    if method not in ("exhaustive", "local_search"):
        raise ValueError(f"unknown method {method!r}")

    x = X.x
    if r > 1 and c > 1:
        # a single-cell block scores |x_ij|^p, and no block term exceeds
        # size * max |x|^p; if that underflows, every partition scores 0
        peak = float(np.abs(x).max())
        if 0.0 < peak < 1.0 and peak ** p == 0.0:
            raise ValueError(
                f"f_p underflows at p={p:g}: the largest |x_ij| = {peak:.6g} raised "
                "to p rounds to 0, and so does every block term; use a smaller p"
            )
    scaled = _scaled(x)
    tol = _screen_tol(scaled, r, c, p)
    if method == "exhaustive":
        if space > EXHAUSTIVE_SPACE_LIMIT:
            raise EnumerationBudgetError(
                f"search space {space} exceeds exhaustive limit "
                f"{EXHAUSTIVE_SPACE_LIMIT}: use local_search"
            )
        found = _exhaustive(x, scaled, tol, r, c, p, row_counts, col_counts)
        if found is None:
            raise InvariantError("exhaustive search scored no partition (non-finite matrix?)")
        row_assign, col_assign, obj = found
    else:
        best_run: tuple[np.ndarray, np.ndarray, float] | None = None
        for rows0 in _balanced_starts(n, r):
            for cols0 in _balanced_starts(m, c):
                run = _local_search(x, scaled, tol, r, c, p, rows0, cols0)
                if best_run is None or run[2] > best_run[2]:
                    best_run = run
        row_assign, col_assign, obj = best_run
        if np.isnan(obj):  # a finite x scores no nan
            raise InvariantError(f"local search ended at objective {obj!r} (non-finite matrix?)")
    if not obj < 2.0 ** 1023:  # some score may have overflowed, and inf ranks nothing
        raise ValueError(f"f_p overflows at p={p:g}: the best score {obj!r} is not below 2^1023")

    partition = TwoModePartition(
        row_blocks=_blocks_from_assign(row_assign, r),
        col_blocks=_blocks_from_assign(col_assign, c),
    )
    return ClusteringResult(partition=partition, objective=obj, p=p, method=method)
