"""Maximal-interaction two-mode clustering of a double-centered matrix.

Partitions rows into r blocks and columns into c blocks to maximize the
overall interaction

    f_p = sum over blocks of |S| |T| (|blocksum| / (|S| |T|))^p,   p >= 1.

At p = 1 with r = c = 2 the optimum equals the taxicab norm of the matrix
(four times its cut-norm); at p = 2 the objective is the classical maximal
overall interaction criterion.  Small instances are solved exhaustively over
set partitions; larger ones by deterministic single-move local search.

Both searches screen, then confirm.  The exhaustive search enumerates row and
column partitions as restricted growth strings, read off their ranks in
blocks.  It scores a block of (row, column) pairs at once: the row-block
aggregates of x times the column indicator stack give every block sum, and
abs, power and size weights turn them into f_p.  The stack is built once when
it fits ``_SCREEN_BYTES`` and in chunks otherwise, so working memory is fixed
whatever S(n, r) S(m, c) is.  Only candidates within a rounding tolerance of
the block's best are rescored with the reference arithmetic, and the earliest
of the best rescored candidates wins.  Local search keeps the block sums and
each line's sums over the other mode's blocks.  From them it screens every
move of every line in O(r c), and rescores only the moves the screen cannot
rule out.  The reference arithmetic is ``_objective_from_assign``, the one
scorer that ``objective()`` also uses, so a result's objective is bit for bit
the ``objective()`` of its partition.  Either way the partitions and the
objective bits are those of scoring every candidate with it; the tolerance
(``_screen_tol``) bounds the rounding gap between the screens and it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residual import ResidualMatrix
from .taxicab import InvariantError

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
# Relative floor of the screen's rounding tolerance (see _screen_tol).
_SCREEN_RTOL = 1e-9


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
        tuple(int(i) for i in np.flatnonzero(assign == label)) for label in range(r)
    )


def _balanced_starts(size: int, blocks: int) -> list[np.ndarray]:
    contiguous = (np.arange(size) * blocks) // size
    strided = np.arange(size) % blocks
    starts = [contiguous]
    if not np.array_equal(contiguous, strided):
        starts.append(strided)
    return starts


def _screen_tol(x: np.ndarray, p: float) -> float:
    """Bound on |screened - reference| f_p, and on the same for a change of f_p.

    A block sum over cells of mass S, added in any order, is off by at most
    n*m*eps*S; through the term s (|b|/s)^p that moves f_p by at most p times
    as much in units of the block's sum of |x|^p (Hoelder), and the terms'
    own rounding is relative to f_p <= sum |x|^p.  The floor leaves room.
    Both values lie in [0, sum |x|^p], so a relative bound past 1 (a huge p)
    is capped there.
    """
    n, m = x.shape
    rel = min(max(_SCREEN_RTOL, 32 * p * n * m * np.finfo(float).eps), 1.0)
    return rel * float((np.abs(x) ** p).sum())


def _indicators(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of shape (..., size) -> 0/1 floats of shape (..., k, size)."""
    return (labels[..., None, :] == np.arange(k)[:, None]).astype(float)


def _exhaustive(
    x: np.ndarray, r: int, c: int, p: float,
    row_counts: np.ndarray, col_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """First maximizer of f_p in (row RGS, column RGS) order, or None if none scores.

    ``row_counts`` and ``col_counts`` are the ``_rgs_counts`` tables of the
    two modes.  A screen scores a block of candidates at once: one matmul of
    the row-block aggregates with the column indicator stack gives every
    block sum.  Only candidates within 2 * tol of the block's top that might
    still beat the incumbent are scored with ``_objective_from_assign``, and
    the incumbent is the largest score, the earliest candidate on ties, so
    the winner and its objective bits are those of scoring every candidate
    with ``_objective_from_assign`` in enumeration order under the strict
    ``>`` rule.
    """
    n, m = x.shape
    tol = _screen_tol(x, p)
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
    best: tuple[np.ndarray, np.ndarray, float] | None = None

    def may_win(score: float, idx: int) -> bool:
        return score > best_val - tol or (score >= best_val - tol and idx < best_idx)

    for b0 in range(0, n_rows, rows_batch):
        batch = _rgs_range(row_counts, b0, min(b0 + rows_batch, n_rows))
        hot = _indicators(batch, r)                                  # (B, r, n)
        batch_agg = (hot.reshape(-1, n) @ x).reshape(len(batch), r, m)
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
                top = scores.max()
                if not may_win(top, first):
                    continue
                for flat in np.flatnonzero(scores >= max(top - 2 * tol, best_val - tol)):
                    b, s = divmod(int(flat), k)
                    idx = first + b * n_cols + s
                    if not may_win(scores[b, s], idx):
                        continue
                    val = _objective_from_assign(x, rows[b], cols[s], r, c, p)
                    if val > best_val or (val == best_val and idx < best_idx):
                        best_val, best_idx = val, idx
                        best = (rows[b].copy(), cols[s].copy(), val)
    return best


def _move_gains(
    lines: np.ndarray, assign: np.ndarray, count: int,
    other: np.ndarray, other_count: int, p: float,
) -> np.ndarray:
    """Screened change of f_p when line i moves to block t, as a (lines, count) array.

    ``lines`` holds the lines being moved (rows of x, or rows of x.T for
    columns); ``other`` labels the other mode.  From the block sums and each
    line's sums over the other mode's blocks, every move costs O(other_count).
    """
    other_hot = _indicators(other, other_count).T                  # (other, oc)
    g = lines @ other_hot                                          # (L, oc)
    hot = _indicators(assign, count)                               # (count, L)
    block = hot @ g                                                # (count, oc)
    sizes = hot.sum(axis=1)
    other_sizes = other_hot.sum(axis=0)

    def terms(b: np.ndarray, s: np.ndarray) -> np.ndarray:
        t = np.abs(b)
        if p != 1:
            t = t ** p * (s[..., None] * other_sizes) ** (1 - p)
        return t.sum(axis=-1)

    base = terms(block, sizes)
    # a line alone in its block never moves; clamping keeps its (unused) gain finite
    leave = terms(block[assign] - g, np.maximum(sizes[assign] - 1, 1)) - base[assign]
    join = terms(block + g[:, None, :], sizes + 1) - base
    return leave[:, None] + join


def _local_search(
    x: np.ndarray, r: int, c: int, p: float,
    row_assign: np.ndarray, col_assign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Single-element moves in sweep order while ``_objective_from_assign`` rises.

    Lines are swept in order and each line's targets in order, and a move is
    taken when its ``_objective_from_assign`` value is strictly larger.
    ``_move_gains`` screens every target of every line at once; a move it
    shows cannot raise f_p by more than the rounding tolerance is rejected
    without scoring, as the reference score would reject it, so the
    trajectory is the same as scoring every move.
    """
    row_assign = row_assign.copy()
    col_assign = col_assign.copy()
    tol = _screen_tol(x, p)
    obj = _objective_from_assign(x, row_assign, col_assign, r, c, p)
    moved = True
    while moved:
        moved = False
        for assign, count, lines, other, other_count in (
            (row_assign, r, x, col_assign, c),
            (col_assign, c, x.T, row_assign, r),
        ):
            sizes = np.bincount(assign, minlength=count)
            gains = _move_gains(lines, assign, count, other, other_count, p)
            for i in range(assign.size):
                cur = int(assign[i])
                if sizes[cur] == 1:
                    continue  # moving would empty the source block
                for tgt in range(count):
                    if tgt == cur or not gains[i, tgt] > -tol:
                        continue
                    assign[i] = tgt
                    val = _objective_from_assign(x, row_assign, col_assign, r, c, p)
                    if val > obj:
                        obj = val
                        sizes[cur] -= 1
                        sizes[tgt] += 1
                        cur = tgt
                        moved = True
                        gains = _move_gains(lines, assign, count, other, other_count, p)
                    else:
                        assign[i] = cur
    return row_assign, col_assign, obj


def maximize(
    X: ResidualMatrix, r: int, c: int, p: float = 1.0, method: str = "auto"
) -> ClusteringResult:
    """Best two-mode partition into r row blocks and c column blocks.

    ``method`` is "exhaustive", "local_search", or "auto" (exhaustive when
    the set-partition search space is at most ``EXHAUSTIVE_SPACE_LIMIT``).
    Local search sweeps single-element reassignments in deterministic order,
    one run per balanced initial split, and never decreases the objective.
    With r and c at least 2 the optimum is at least max |x_ij|^p > 0 for a
    nonzero x; a p at which that underflows to 0 raises ``ValueError``.
    (With r or c equal to 1 every block sum of a double-centered matrix is
    zero, so f_p = 0 is the true optimum.)
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
    if method == "exhaustive":
        if space > EXHAUSTIVE_SPACE_LIMIT:
            raise ValueError(
                f"search space {space} exceeds exhaustive limit "
                f"{EXHAUSTIVE_SPACE_LIMIT}: use local_search"
            )
        found = _exhaustive(x, r, c, p, row_counts, col_counts)
        if found is None:
            raise InvariantError("exhaustive search scored no partition (non-finite matrix?)")
        row_assign, col_assign, obj = found
    else:
        best_run: tuple[np.ndarray, np.ndarray, float] | None = None
        for rows0 in _balanced_starts(n, r):
            for cols0 in _balanced_starts(m, c):
                run = _local_search(x, r, c, p, rows0, cols0)
                if best_run is None or run[2] > best_run[2]:
                    best_run = run
        row_assign, col_assign, obj = best_run
        if not np.isfinite(obj):
            raise InvariantError(f"local search ended at objective {obj!r} (non-finite matrix?)")

    partition = TwoModePartition(
        row_blocks=_blocks_from_assign(row_assign, r),
        col_blocks=_blocks_from_assign(col_assign, c),
    )
    return ClusteringResult(partition=partition, objective=obj, p=p, method=method)
