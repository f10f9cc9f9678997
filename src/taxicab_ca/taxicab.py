"""Taxicab matrix norm, taxicab SVD via deflation, and balanced 2-block seriation.

The taxicab norm of a double-centered matrix X is the maximum of v'Xu over
sign vectors u, v.  It equals four times the cut-norm of X, so every computed
axis certifies a row/column bipartition whose four blocks have equal-magnitude
sums.  Repeated rank-1 deflation yields an L1 analogue of the singular value
decomposition; applied to a correspondence matrix this is taxicab
correspondence analysis, with factor scores obtained by dividing the axis
projections by the row/column masses.

Exhaustive search is exact up to ``EXACT_ENUM_LIMIT`` on the smaller matrix
dimension (sign symmetry halves the space); beyond that an alternating
sign-iteration heuristic with deterministic restarts is available.

The heuristic walks all its column restarts at once, in blocks of restarts
that fit ``_ENUM_BLOCK_BYTES``, on a float32 copy of the matrix scaled by a
power of two so that nothing overflows.  A block holds three float32 buffers
(u signs, v signs and one product) and a bool mask, and each half-step is
one whole-width float32 GEMM over the block's active restarts, one sign
vector per row.  A float32 GEMM does not add up the values of the float64
reference gemv, so every sign is certified: ``_sign_bands`` bounds the
rounding of both, from the float64 line sums of |x|, so an entry above the
bound has the gemv's sign, and a row with an entry inside it is recomputed
by the reference matvec and takes its signs from the float64 values.  Each
restart thus walks the one-at-a-time float64 trajectory and stops where it
does.  Only the restarts whose batched final dispersion lies within twice a
proven float32 rounding margin of the best are rescored with the reference
arithmetic, in restart order, so the winner and every bit of its axis are
those of the one-at-a-time loop.

The enumeration kernel, shared with the tensor norm, screens and then
confirms each stack of matrices in turn.  The screen scores every sign
candidate in float32, after scaling the stack by a power of two so that
nothing overflows: one table row per candidate, so that adding a
high-prefix projection to the table of low-suffix projections is a
contiguous add, and the whole sign grid in a single matmul when all
candidates fit ``_ENUM_BLOCK_BYTES`` (1 MiB, inside a per-core L2).  It
keeps only the best screened score of each matrix and float64 prefix.  The
confirmation then rescores in float64, in lexicographic order and with the
reference arithmetic (a column-per-candidate table of the 2^k low suffixes
plus one prefix at a time), only the (matrix, prefix) pairs whose screened
best lies within twice the stack's proven rounding margin
(``_rounding_margin``) of its best screened score and within one of the
best float64 score so far, so the maximizer, ties included, is the one a
full float64 scan returns.  Working memory stays at a few MiB whatever q is.

A large screen scans in shares at once, one per CPU the process may use
(``_SCREEN_WORKERS``): ranges of matrices when the whole grid fits, else
ranges of the high prefixes.  The calling thread casts each stack to
float32 once and allocates every buffer, then runs the first share while
a short-lived thread runs each other one under a copy of the caller's
context; all are joined before the screen returns.  Only a screen with
``_SHARE_WORK`` table entries for each share splits.  The shares only
scan, each on its own matrices or prefixes with exactly the operations a
one-share screen runs, so the maxima and the margin are bit-identical
however the screen is split; with one usable CPU no thread starts.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dispersion import HEAVYWEIGHT_TOL, sign_pm
from .residual import CorrespondenceMatrix, ResidualMatrix, correspondence_residual

__all__ = [
    "EXACT_ENUM_LIMIT",
    "STOP_TOL",
    "AxisContributions",
    "EnumerationBudgetError",
    "InvariantError",
    "SeriationReport",
    "TaxicabAxis",
    "TcaDecomposition",
    "cut_norm_matrix",
    "deflate",
    "norm_exact",
    "norm_heuristic",
    "rc_axis",
    "seriate",
    "tca",
]

EXACT_ENUM_LIMIT = 22
STOP_TOL = 1e-12          # axis cutoff relative to the first dispersion
INDETERMINATE_TOL = 1e-9  # |projection| below this (relative to delta) has arbitrary sign
_IDENTITY_TOL = 1e-10
# rounding slack, times 1 + value, within which a sign-ascent step (or an axis
# flip) counts as not lowering the value
_ASCENT_SLACK = 1e-12
_ENUM_BLOCK_BYTES = 1 << 20  # working set of one enumeration block, within a per-core L2
# threads that may screen at once: one per CPU this process may run on
_SCREEN_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
# float32 table entries (candidates x n) each share of a screen must get.  On
# two CPUs with one BLAS thread a thread start and join took 30-50 us and one
# thread screened about 4 entries a ns, yet forced splits only broke even at
# about 1.3M entries in all on the prefix path and 4.4M on whole grids of
# 72 x 11 matrices: the shares' numpy calls contend for the GIL and for the
# shared cache.  2^21 a share keeps the 22 x 15 (0.36M) and 40 x 15 (0.66M)
# screens on one thread and splits the 12M of an 11 x 11 x 72 tensor stack.
_SHARE_WORK = 1 << 21


class EnumerationBudgetError(ValueError):
    """Requested exhaustive search exceeds the enumeration budget."""


class InvariantError(ArithmeticError):
    """A computed result broke an identity that holds in exact arithmetic."""


@dataclass(frozen=True)
class TaxicabAxis:
    """One taxicab principal axis.

    ``a = X u`` and ``b = X' v`` are the row/column projections; at output the
    transition identities v = sign(a), u = sign(b) hold exactly under the
    sign(0) = +1 convention, and delta = ||a||_1 = ||b||_1 with sum(a) =
    sum(b) = 0.  ``f``/``g`` are mass-standardized factor scores, set only
    when the axis was computed from a correspondence matrix.  Coordinates
    listed in ``*_indeterminate`` have projections so small that their sign
    is arbitrary.
    """

    delta: float
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    exact: bool
    f: np.ndarray | None = None
    g: np.ndarray | None = None
    u_indeterminate: tuple[int, ...] = ()
    v_indeterminate: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if not np.all(np.abs(u) == 1.0) or not np.all(np.abs(v) == 1.0):
            raise ValueError("sign vectors must have entries exactly +-1")
        slack = _IDENTITY_TOL * (1.0 + abs(self.delta))
        a1 = float(np.abs(self.a).sum())
        b1 = float(np.abs(self.b).sum())
        if abs(float(self.a.sum())) > slack or abs(float(self.b.sum())) > slack:
            raise ValueError("axis projections do not sum to zero")
        if abs(a1 - self.delta) > slack or abs(b1 - self.delta) > slack:
            raise ValueError("axis dispersion inconsistent with projections")


@dataclass(frozen=True)
class TcaDecomposition:
    """Ordered taxicab axes of a correspondence matrix.

    ``residuals[k]`` is the double-centered matrix axis k was computed from
    (the deflation history); ``rank_used`` is the number of retained axes.
    """

    axes: tuple[TaxicabAxis, ...]
    row_masses: np.ndarray
    col_masses: np.ndarray
    rank_used: int
    residuals: tuple[ResidualMatrix, ...]


@dataclass(frozen=True)
class SeriationReport:
    """Balanced 2-block seriation certificate for one axis.

    The four block sums over (S,T), (S,T-bar), (S-bar,T), (S-bar,T-bar) come
    out as (+c, -c, -c, +c) with c the cut-norm (= delta/4).  Row and column
    orders sort each sign group by descending score, positive group first.
    """

    s_opt: tuple[int, ...]
    t_opt: tuple[int, ...]
    block_sums: tuple[float, float, float, float]
    cut_norm: float
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]


@dataclass(frozen=True)
class AxisContributions:
    """Relative contributions of rows/columns to one axis, with heavyweights."""

    rc_rows: tuple[float, ...]
    rc_cols: tuple[float, ...]
    heavyweight_rows: tuple[int, ...]
    heavyweight_cols: tuple[int, ...]
    heavyweight_cells: tuple[tuple[int, int], ...]


def _sign_grid(width: int, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of the 2^width sign vectors of length ``width``.

    Rows are in lexicographic order with +1 before -1, so row i holds the
    binary digits of i (most significant first) mapped 0 -> +1, 1 -> -1, and
    the first half of the grid is exactly the vectors with first entry +1.
    """
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = (np.arange(start, stop, dtype=np.int64)[:, None] >> shifts) & 1
    return 1.0 - 2.0 * bits


@lru_cache(maxsize=None)
def _low_sign_grid(width: int) -> np.ndarray:
    """The whole 2^width sign grid as read-only int8, built once per width.

    The kernel asks for the same widths for every matrix of a stack.
    Bytes, not floats, keep the cache small (at most 104 KiB for one width,
    under 200 KiB for all the widths ``_enum_split`` can pick) so that it
    does not pin heap memory; callers convert it to float.
    """
    grid = _sign_grid(width, 0, 1 << width).astype(np.int8)
    grid.flags.writeable = False
    return grid


def _enum_split(n: int, q: int, itemsize: int = 8) -> tuple[int, int]:
    """Low-suffix width k and high prefixes per block for an n x q search.

    k is the largest width (at most q - 1) whose table of 2^k lines of
    length n, with its 2^k x k sign grid, fits ``_ENUM_BLOCK_BYTES`` at
    ``itemsize`` bytes a value; the prefix projections are computed
    ``block`` at a time within the same budget.  The float32 screen gets a
    k at least as large as the float64 reference, so each screened table
    covers whole reference prefixes.
    """
    k = 0
    while k < q - 1 and (2 << k) * (n + k + 1) * itemsize <= _ENUM_BLOCK_BYTES:
        k += 1
    return k, max(1, _ENUM_BLOCK_BYTES // (itemsize * n))


def _rounding_margin(n: int, q: int, abs_sum: float, dtype: type) -> float:
    """Bound on the gap between two computed values of ||M s||_1, M n x q, s signs.

    Both values add up the same terms +-M_ij: q - 1 additions for each row
    projection, in whatever order, and n - 1 for the sum of the
    |projections|.  Each addition is off by at most the unit roundoff times
    the magnitudes of its terms, which sum to at most ``abs_sum`` = sum
    |M_ij|.  A value computed in ``dtype`` (after rounding each entry to it)
    thus lies within (n + q - 1) unit roundoffs of ``dtype`` times
    ``abs_sum`` of the exact one, and a float64 reference within (n + q - 2)
    float64 ones.  The bound is (n + q - 1) eps of ``dtype`` for the two
    (eps is two unit roundoffs) plus five eps, which cover the second-order
    terms, the rounding of ``abs_sum`` and the entries that a scaling or a
    cast made subnormal.  The enumeration screen and the batched restarts of
    the heuristic both take float32.
    """
    return (n + q + 4) * float(np.finfo(dtype).eps) * abs_sum


def _float32_shift(values: np.ndarray) -> int:
    """The power of two that brings the largest magnitude of ``values`` into [1/2, 1).

    Zero for all-zero values, and for values holding nan.
    """
    peak = float(np.maximum(values.max(), -values.min()))  # nan stays nan
    return -int(np.frexp(peak)[1])


def _to_float32(values: np.ndarray, shift: int, out: np.ndarray) -> np.ndarray:
    """``values`` times 2^shift, rounded once to float32 into ``out``.

    The scaling is exact in float64 unless it makes a value subnormal there,
    and such a value rounds to +-0 in float32 either way.  So each entry is
    off by at most a float32 unit roundoff of its scaled magnitude, or by
    half the smallest float32 subnormal; with ``_float32_shift``'s power of
    two nothing overflows.
    """
    return np.ldexp(values, shift, out=out, casting="same_kind")


def _share_bounds(items: int, item_work: int, most: int) -> list[int]:
    """Bounds of the shares that split ``range(items)`` into contiguous ranges.

    One share per screen worker (``_SCREEN_WORKERS``), at most ``most``, and
    only as many as each get ``_SHARE_WORK`` table entries at ``item_work``
    entries an item; share i is ``bounds[i]:bounds[i + 1]``, and the sizes
    differ by at most one.
    """
    shares = max(1, min(_SCREEN_WORKERS, most, items, items * item_work // _SHARE_WORK))
    return [items * i // shares for i in range(shares + 1)]


def _run_shares(share: Callable[[int, int, int], None], bounds: list[int]) -> None:
    """``share(i, lo, hi)`` for each share of ``bounds``, all at once.

    The calling thread runs share 0, and each other share runs in a thread
    of its own, under its own copy of the caller's context, so that
    ``np.errstate`` and every other context variable hold there as they do
    in the caller.  Every thread is joined before this returns or raises;
    an exception raised in a share is re-raised here after the joins, the
    caller's own first, then the first by share.
    """
    errors: list[BaseException | None] = [None] * (len(bounds) - 1)

    def run(i: int, context: contextvars.Context) -> None:
        try:
            context.run(share, i, bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised in the caller
            errors[i] = exc

    threads = []
    try:
        for i in range(1, len(errors)):
            thread = threading.Thread(target=run, args=(i, contextvars.copy_context()), daemon=True)
            thread.start()
            threads.append(thread)
        share(0, bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _screen(stack: np.ndarray, k_ref: int) -> tuple[np.ndarray, float]:
    """Float32 screen of a stack of B x n x q matrices.

    Returns the screened maximum over each reference prefix (the 2^k_ref
    candidates the float64 scan scores in one step), B x 2^(q-1-k_ref) in
    the input's units, and the stack's ``_rounding_margin``.  The stack is
    scaled by a power of two to a largest magnitude in [1/2, 1) and cast
    once, transposed, to float32 (half its bytes), so nothing overflows and
    the scaling is exact; the margin takes the largest of the matrices'
    sums of |float32 entries| (``max``, which keeps a nan).  Scores are
    the row sums of |table|, the table holding one candidate per row: the
    whole sign grid times M' when all candidates fit the budget, else the
    low-suffix table plus one high-prefix projection at a time.

    The scan is split into shares that run at once (``_run_shares``): a
    range of matrices when the whole grid fits, else a range of the
    prefixes of one block of high-prefix projections.  A screen splits only
    where each share gets at least ``_SHARE_WORK`` table entries, so small
    screens stay on the calling thread.  That thread casts the stack and
    allocates every buffer, and the shares only scan.  A whole-grid share
    gets its part of the one-share block of tables, so together they fit
    ``_ENUM_BLOCK_BYTES``.  A prefix share reads the low-suffix table and
    the projections the calling thread computed, and adds into a sum
    buffer of its own of 2^k x n float32 values, which fits the budget; the
    buffers of the shares beyond the first together fit it too.  Each
    share writes its own rows or prefixes of the maxima, with the
    operations a one-share screen runs on them, so the maxima are
    bit-identical however the screen is split.
    """
    count, n, q = stack.shape
    shift = _float32_shift(stack)
    k, block = _enum_split(n, q, itemsize=4)
    prefixes = 1 << (q - 1 - k)
    maxima = np.empty((count, 1 << (q - 1 - k_ref)), dtype=np.float32)
    per_table = maxima.shape[1] // prefixes  # reference prefixes per screened table
    ones = np.ones(n, dtype=np.float32)
    parts = _to_float32(stack.transpose(0, 2, 1), shift, np.empty((count, q, n), dtype=np.float32))
    abs_sum = np.abs(parts).sum(axis=(1, 2), dtype=float).max()
    if prefixes == 1:
        grid = _low_sign_grid(q)[: 1 << (q - 1)].astype(np.float32)
        step = min(count, max(1, _ENUM_BLOCK_BYTES // (4 * grid.shape[0] * n)))
        bounds = _share_bounds(count, grid.shape[0] * n, step)
        shares = len(bounds) - 1
        step //= shares
        tables = np.empty((shares, step, grid.shape[0], n), dtype=np.float32)
        scores = np.empty((shares, step, grid.shape[0]), dtype=np.float32)

        def grid_share(i: int, lo: int, hi: int) -> None:
            """Matrices lo:hi, ``step`` at a time."""
            for start in range(lo, hi, step):
                stop = min(start + step, hi)
                table, score = tables[i, :stop - start], scores[i, :stop - start]
                np.matmul(grid, parts[start:stop], out=table)
                np.abs(table, out=table)
                np.matmul(table, ones, out=score)
                score.reshape(stop - start, per_table, -1).max(axis=2, out=maxima[start:stop])

        _run_shares(grid_share, bounds)
    else:
        grid = _low_sign_grid(k).astype(np.float32)
        extra = _ENUM_BLOCK_BYTES // (4 * n << k)  # sum buffers beyond the first: at least 1
        most = len(_share_bounds(min(block, prefixes), n << k, 1 + extra)) - 1
        bufs = np.empty((most, 1 << k, n), dtype=np.float32)
        rows = 8  # prefixes whose sums one max reduces: fewer calls for the shares to contend on
        sums = np.empty((most, rows, 1 << k), dtype=np.float32)

        def prefix_share(i: int, lo: int, hi: int) -> None:
            """Prefixes lo:hi of matrix b, from its ``table`` and the ``heads`` from ``start``."""
            buf = bufs[i]
            for first in range(lo, hi, rows):
                last = min(first + rows, hi)
                scores = sums[i, :last - first]
                for row, prefix in enumerate(range(first, last)):
                    np.add(table, heads[prefix - start], out=buf)
                    np.abs(buf, out=buf)
                    np.matmul(buf, ones, out=scores[row])
                scores.reshape(last - first, per_table, -1).max(
                    axis=2, out=maxima[b, first * per_table:last * per_table].reshape(-1, per_table))

        for b in range(count):
            m = parts[b]
            table = grid @ m[q - k:]  # (2^k, n)
            for start in range(0, prefixes, block):
                stop = min(start + block, prefixes)
                heads = _sign_grid(q - k, start, stop).astype(np.float32) @ m[:q - k]
                bounds = _share_bounds(stop - start, n << k, most)
                _run_shares(prefix_share, [start + bound for bound in bounds])
    margin = _rounding_margin(n, q, float(abs_sum), np.float32)
    return np.ldexp(maxima.astype(float), -shift), float(np.ldexp(margin, -shift))


def _enumerate_best(stacks: Iterable[np.ndarray]) -> tuple[float, int, np.ndarray]:
    """Maximize ||M s||_1 over sign vectors s with s[0] = +1 and over matrices M.

    ``stacks`` yields B x n x q stacks of float64 matrices and is read once.
    Returns the maximum, the index of its matrix counted over all stacks,
    and the maximizer.  Candidates are ordered by matrix, then
    lexicographically (+1 before -1), and only a strict improvement
    replaces the incumbent, so on ties the first maximizer is returned.

    Each stack is screened in float32 (``_screen``), which gives the
    screened maximum of each (matrix, reference prefix) pair and the
    stack's margin m, and then the pairs whose screened maximum reaches the
    floor max(S - 2m, best - m) are rescored in float64 with the reference
    scan, in order; S is the stack's best screened score and best the best
    reference score so far.  A screened maximum lies within m of the
    pair's reference maximum, so S is at most the global reference maximum
    plus m.  The first pair that reaches the global reference maximum thus
    has a screened maximum of at least S - 2m, and, as every reference score
    before it is lower, above best - m: it is rescored, and the strict
    ``>`` keeps it against every later pair.  The reference scan splits q
    into the high prefix and the low suffix of ``_enum_split`` and scores
    each prefix h = M_high s_high over all 2^k suffixes at once as the
    column sums of |L + h|, L = M_low S_low'.
    """
    best_val = -np.inf
    best: tuple[int, int] | None = None
    offset = 0
    for stack in stacks:
        q = stack.shape[2]
        maxima, margin = _screen(stack, _enum_split(*stack.shape[1:])[0])
        floor = np.maximum(maxima.max() - 2.0 * margin, best_val - margin)  # nan propagates
        if not np.isfinite(floor):
            raise InvariantError("sign enumeration confirmed no candidate (non-finite input?)")
        for b in np.flatnonzero((maxima >= floor).any(axis=1)).tolist():
            found = _rescore(stack[b], np.flatnonzero(maxima[b] >= floor).tolist(), best_val)
            if found is not None:
                best_val, candidate = found
                best = (offset + b, candidate)
        offset += len(stack)
    if best is None:
        raise InvariantError("sign enumeration confirmed no candidate (non-finite input?)")
    index, candidate = best
    return best_val, index, _sign_grid(q, candidate, candidate + 1)[0]


def _rescore(M: np.ndarray, prefixes: list[int], best_val: float) -> tuple[float, int] | None:
    """Reference float64 scan of the given prefixes of M, in ascending order.

    Returns the value and index of the best of their candidates (the first
    of equals) if it beats ``best_val``, else None.  The table and the
    prefix projections are computed in the blocks of a full scan, so every
    score has the bits that a scan of all prefixes gives it.
    """
    n, q = M.shape
    k, block = _enum_split(n, q)
    table = M[:, q - k:] @ _low_sign_grid(k).astype(float).T  # (n, 2^k)
    buf = np.empty_like(table)
    scores = np.empty(table.shape[1])
    m_high = M[:, :q - k]
    found = None
    heads_block = -1
    for prefix in prefixes:
        if prefix // block != heads_block:
            heads_block = prefix // block
            start = heads_block * block
            stop = min(start + block, 1 << (q - 1 - k))
            heads = _sign_grid(q - k, start, stop) @ m_high.T  # (stop - start, n)
        np.add(table, heads[prefix - start][:, None], out=buf)
        np.abs(buf, out=buf)
        np.sum(buf, axis=0, out=scores)
        j = int(np.argmax(scores))
        if scores[j] > best_val:
            best_val = float(scores[j])
            found = (best_val, (prefix << k) | j)
    return found


def _transition_fixed_point(
    x: np.ndarray, u0: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Alternate v = sign(Xu), u = sign(X'v) from u0 until (u, v) repeats.

    The dispersion estimate is non-decreasing along the iteration, so the
    walk terminates at a fixed point of the transition maps (a cycle through
    equal-dispersion states is cut short, keeping the current state).
    """
    u = np.asarray(u0, dtype=float)
    seen = {u.tobytes()}
    delta_prev = -np.inf
    while True:
        a = x @ u
        v = sign_pm(a)
        delta = float(np.abs(a).sum())
        if not delta >= delta_prev - _ASCENT_SLACK * (1.0 + delta):
            raise InvariantError(f"dispersion decreased from {delta_prev!r} to {delta!r}")
        delta_prev = delta
        b = x.T @ v
        u_next = sign_pm(b)
        if np.array_equal(u_next, u):
            return u, v, a, b, delta
        key = u_next.tobytes()
        if key in seen:
            return u, v, a, b, delta
        seen.add(key)
        u = u_next


def _canonical_state(
    x: np.ndarray,
    state: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Flip the axis sign so the largest-magnitude b coordinate is positive."""
    u, v, a, b, delta = state
    if delta <= 0.0:
        return state
    for _ in range(4):
        j = int(np.argmax(np.abs(b)))
        if b[j] >= 0.0:
            break
        flipped = _transition_fixed_point(x, -u)
        if flipped[4] < delta - _ASCENT_SLACK * (1.0 + delta):
            break
        u, v, a, b, delta = flipped
    return u, v, a, b, delta


def _axis_from_state(
    state: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float],
    exact: bool,
) -> TaxicabAxis:
    u, v, a, b, delta = state
    if delta > 0.0:
        floor = INDETERMINATE_TOL * delta
        u_ind = tuple(int(j) for j in np.flatnonzero(np.abs(b) <= floor))
        v_ind = tuple(int(i) for i in np.flatnonzero(np.abs(a) <= floor))
    else:
        u_ind = tuple(range(b.size))
        v_ind = tuple(range(a.size))
    return TaxicabAxis(
        delta=delta, u=u, v=v, a=a, b=b, exact=exact,
        u_indeterminate=u_ind, v_indeterminate=v_ind,
    )


def norm_exact(X: ResidualMatrix) -> TaxicabAxis:
    """Globally optimal taxicab norm by exhaustive sign enumeration.

    Enumerates 2^(q-1) sign vectors on the smaller side q = min(n, m); the
    other side follows from the transition formulas.  Requires q <=
    ``EXACT_ENUM_LIMIT``.
    """
    n, m = X.shape
    q = min(n, m)
    if q > EXACT_ENUM_LIMIT:
        raise EnumerationBudgetError(
            f"min dimension {q} exceeds exhaustive budget {EXACT_ENUM_LIMIT}: "
            "use norm_heuristic"
        )
    x = X.x
    if m <= n:
        _, _, u0 = _enumerate_best([x[None]])
    else:
        _, _, v0 = _enumerate_best([x.T[None]])
        u0 = sign_pm(x.T @ v0)
    state = _transition_fixed_point(x, u0)
    return _axis_from_state(_canonical_state(x, state), exact=True)


def _sign_bands(x: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Float32 thresholds above which an entry of U x' (rows) or V x (columns) has a sure sign.

    ``_restart_walks`` computes entry i of x @ u, u a sign vector, as one
    entry of a float32 GEMM over x times 2^shift rounded to float32
    (``_to_float32``).  Let R be 2^shift sum_j |x_ij|, the scaled float64
    row mass, and u the float32 unit roundoff.  The entry then lies within
    u R (the cast), gamma_m (1 + u) R (the m - 1 additions, in any order;
    gamma_k = k u / (1 - k u)) and 3 m tiny (entries and partial sums in
    float32's subnormal range, also where a BLAS kernel flushes them to
    zero) of 2^shift times the exact sum.  The reference gemv lies within
    float64's gamma_m times the row mass, plus 2 m of float64's tiny, of the
    exact sum.  An entry whose magnitude exceeds both bands together thus
    has the sign of the reference's value, which is nonzero.

    The threshold takes (m + 2) u / (1 - m u) R: it exceeds the cast's,
    the GEMM's and float64's gamma_m R by u / (1 - m u) - gamma_m of
    float64 times R, nearly u R, which covers the rounding of the mass and
    of the threshold, rounded up to float32.  That holds while 2 m u < 1
    (lines shorter than 2^23); a longer line gets an infinite threshold, so
    every product row is recomputed.  The masses are summed in float64 from
    the float64 x, so a line whose float32 copy underflows to zero still
    gets a positive threshold.  A zero line sums to +-0 in every order,
    which ``sign_pm`` maps to +1, so its threshold is -inf.  The third
    value is sum |x_ij|, unscaled.
    """
    unit, tiny32 = float(np.finfo(np.float32).eps) / 2, float(np.finfo(np.float32).tiny)
    tiny64 = float(np.finfo(float).tiny)
    n, m = x.shape
    magnitude = np.abs(x)
    rows, cols = magnitude.sum(axis=1), magnitude.sum(axis=0)

    def band(mass: np.ndarray, k: int) -> np.ndarray:
        rate = (k + 2) * unit / (1 - k * unit) if 2 * k * unit < 1 else np.inf
        width = rate * np.ldexp(mass, shift) + k * (3 * tiny32 + 2 * np.ldexp(tiny64, shift))
        width = np.nextafter(width.astype(np.float32), np.float32(np.inf))
        return np.where(mass == 0.0, np.float32(-np.inf), width)

    return band(rows, m), band(cols, n), float(rows.sum())


def _certified_product(
    signs: np.ndarray, mat: np.ndarray, reference: np.ndarray, shift: int,
    band: np.ndarray, out: np.ndarray, magnitude: np.ndarray, sure: np.ndarray,
) -> None:
    """``out = signs @ mat`` in float32, with every sign equal to the reference matvec's.

    ``mat`` is the float64 ``reference`` times 2^shift, rounded to float32.
    One SGEMM computes the whole product.  ``magnitude`` receives |out| and
    ``sure`` marks the entries above ``band`` (``_sign_bands``).  A row with
    any entry inside the band is recomputed by ``_reference_rows`` from the
    float64 ``reference``, and takes its signs from those float64 values.
    OpenBLAS packs ``mat`` into its level-3 buffer, whose pages stay
    resident for the life of the process.
    """
    np.matmul(signs, mat, out=out)
    np.abs(out, out=magnitude)
    np.greater(magnitude, band, out=sure)
    unsure = np.flatnonzero(~sure.all(axis=1))
    if unsure.size:
        _reference_rows(signs, reference, shift, unsure, out)
        magnitude[unsure] = np.abs(out[unsure])


def _reference_rows(
    signs: np.ndarray, mat: np.ndarray, shift: int, rows: np.ndarray, out: np.ndarray,
) -> None:
    """Rows ``rows`` of ``signs @ mat`` by the float64 reference matvec, one sign vector at a time.

    Each row goes to ``out`` times 2^shift, rounded to float32.  A negative
    value that rounds to -0 there is written as the negative float32 nearest
    zero, so that ``sign_pm`` gives it -1, as it gives the float64 value.
    """
    nearest = np.nextafter(np.float32(0.0), np.float32(-1.0))
    for r in rows.tolist():
        value = mat.T @ signs[r].astype(float)
        row = _to_float32(value, shift, out[r])
        np.copyto(row, nearest, where=(row == 0.0) & (value < 0.0))


def _restart_walks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Walk every column restart of x to its stop, a block of restarts at a time.

    Returns ``finals[j]``, the packed bits of u < 0 for restart j's last u,
    ``deltas[j]``, the last dispersion the GEMM computed for it, and the
    margin (``_rounding_margin`` in float32) within which each of those
    lies of the reference dispersion of the same u.  Dispersions and margin
    are in the units of the float32 copy of x, x times 2^shift
    (``_float32_shift``, ``_to_float32``), made once per call.

    Restart j starts from v = sign(column j), u = sign(X' v) and steps
    v = sign(X u), u = sign(X' v), one float32 GEMM per half-step over the
    block's active restarts, until the new u is one that restart has
    already seen (the stop of ``_transition_fixed_point``).
    ``_certified_product`` gives every sign the reference matvec's value,
    so each restart walks the reference trajectory.  Along it the exact
    dispersion falls only by the float64 rounding of the products whose
    signs the reference got wrong, far inside the margin's spare, so a step
    whose dispersion falls by more than two margins raises
    ``InvariantError``.

    A block holds three float32 buffers, reused across steps: u signs
    (k x m), v signs (k x n) and one product of k x max(n, m), plus a bool
    buffer of the product's size: 4 (m + n + max(n, m)) + max(n, m) bytes a
    restart, and k restarts fit ``_ENUM_BLOCK_BYTES`` (218 on 400 x 300).
    Half-step A puts U X' in the product, |U X'| in V (its row sums, a
    float32 matvec with ones, are the dispersions) and then the signs in
    V.  Half-step B puts V X in the product, |V X| in U, which the old u no
    longer needs (it lives on only as packed keys), and then the signs in
    U.  A stopped restart's row of U is closed up by copying the later rows
    down.
    """
    n, m = x.shape
    w = max(n, m)
    shift = _float32_shift(x)
    row_band, col_band, mass = _sign_bands(x, shift)
    margin = _rounding_margin(n, m, float(np.ldexp(mass, shift)), np.float32)
    x32 = _to_float32(x, shift, np.empty((n, m), dtype=np.float32))
    ones = np.ones(n, dtype=np.float32)
    size = max(1, min(m, _ENUM_BLOCK_BYTES // (4 * (m + n + w) + w)))
    u = np.empty((size, m), dtype=np.float32)
    v = np.empty((size, n), dtype=np.float32)
    prod = np.empty(size * w, dtype=np.float32)
    flags = np.empty(size * w, dtype=bool)
    finals = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    deltas = np.empty(m)

    def step_u(k: int) -> np.ndarray:
        """u = sign(X' v) for the first k rows, and the packed bits of u < 0."""
        b, negative = prod[:k * m].reshape(k, m), flags[:k * m].reshape(k, m)
        _certified_product(v[:k], x32, x, shift, col_band, b, u[:k], negative)
        sign_pm(b, out=u[:k])
        np.less(u[:k], 0.0, out=negative)
        return np.packbits(negative, axis=1)

    for start in range(0, m, size):
        ids = np.arange(start, min(start + size, m))
        k = ids.size
        sign_pm(x[:, start:start + k].T, out=v[:k])
        keys = step_u(k)
        seen = [{key.tobytes()} for key in keys]
        delta_prev = np.full(k, -np.inf)
        while k:
            a = prod[:k * n].reshape(k, n)
            _certified_product(
                u[:k], x32.T, x.T, shift, row_band, a, v[:k], flags[:k * n].reshape(k, n))
            delta = v[:k] @ ones
            fell = ~(delta >= delta_prev - 2.0 * margin)
            if fell.any():
                r = int(np.argmax(fell))
                before, after = np.ldexp([delta_prev[r], delta[r]], -shift).tolist()
                raise InvariantError(f"dispersion decreased from {before!r} to {after!r}")
            sign_pm(a, out=v[:k])
            new_keys = step_u(k)
            stop = np.zeros(k, dtype=bool)
            for r, key in enumerate(new_keys):
                key = key.tobytes()
                if key in seen[r]:
                    stop[r] = True
                else:
                    seen[r].add(key)
            finals[ids[stop]] = keys[stop]
            deltas[ids[stop]] = delta[stop]
            go = np.flatnonzero(~stop)
            k = go.size
            for i, r in enumerate(go.tolist()):
                if r != i:  # go ascends: row r is read before any copy writes it
                    u[i] = u[r]
            ids, keys, delta_prev = ids[go], new_keys[go], delta[go]
            seen = [seen[r] for r in go.tolist()]
    return finals, deltas, margin


def _confirm_restarts(
    x: np.ndarray, finals: np.ndarray, deltas: np.ndarray, margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The reference state (u, v, a, b, delta) of the best restart, the first on ties.

    ``finals``, ``deltas`` and ``margin`` are ``_restart_walks``'s last u,
    batched dispersion of each restart and margin, in any one unit.
    Rescores, in restart order and with the reference ``x @ u`` and
    ``x.T @ v``, every restart whose batched dispersion lies within twice
    ``margin`` of the best batched one; a strict ``>`` replaces the
    incumbent.  Each restart's batched dispersion is within one margin of
    the reference dispersion of its own last u, so the first restart that
    reaches the reference maximum is within two margins of the best batched
    dispersion, and is rescored.
    """
    m = x.shape[1]
    floor = deltas.max() - 2.0 * margin
    best: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float] | None = None
    for j in np.flatnonzero(~(deltas < floor)).tolist():
        u = 1.0 - 2.0 * np.unpackbits(finals[j], count=m)
        a = x @ u
        delta = float(np.abs(a).sum())
        if best is None or delta > best[4]:
            v = sign_pm(a)
            best = (u, v, a, x.T @ v, delta)
    if best is None:
        raise InvariantError("no restart produced a fixed point")
    return best


def norm_heuristic(X: ResidualMatrix) -> TaxicabAxis:
    """Taxicab norm lower bound by alternating sign iteration.

    One deterministic restart per column j, seeded with v = sign(column j)
    and u = sign(X' v), then v = sign(X u), u = sign(X' v) until u repeats
    (``_transition_fixed_point``); the best dispersion across restarts wins
    (first restart on ties).  The result is a transition fixed point but
    not necessarily the global optimum.

    All restarts run at once, in blocks that fit ``_ENUM_BLOCK_BYTES``,
    each half-step one float32 GEMM over the block's active restarts and a
    float32 copy of X scaled by a power of two (``_restart_walks``).  Every
    sign is certified: an entry outside the rounding band of
    ``_sign_bands`` has the float64 reference matvec's sign, and a row with
    an entry inside it is recomputed by the reference matvec, so each
    restart walks exactly the one-at-a-time trajectory and stops where it
    does.  Only the restarts whose batched final dispersion lies within
    twice the proven float32 margin (``_rounding_margin``) of the best one
    are rescored with the reference arithmetic, in restart order
    (``_confirm_restarts``), so the winner and its bits are those of the
    one-at-a-time float64 loop.  A matrix holding nan or inf raises
    ``InvariantError`` before the first step.
    """
    x = X.x
    if not np.isfinite(x).all():
        raise InvariantError("norm_heuristic: the matrix holds non-finite values")
    best = _confirm_restarts(x, *_restart_walks(x))
    return _axis_from_state(_canonical_state(x, best), exact=False)


def _best_axis(X: ResidualMatrix, solver: str = "auto") -> TaxicabAxis:
    if solver == "exact":
        return norm_exact(X)
    if solver == "heuristic":
        return norm_heuristic(X)
    if solver != "auto":
        raise ValueError(f"unknown solver {solver!r}")
    if min(X.shape) <= EXACT_ENUM_LIMIT:
        return norm_exact(X)
    return norm_heuristic(X)


def deflate(X: ResidualMatrix, axis: TaxicabAxis) -> ResidualMatrix:
    """Rank-1 reduction X - a b'/delta; stays double-centered, rank drops by 1."""
    if axis.delta <= 0.0:
        raise ValueError("cannot deflate null axis")
    x = X.x - np.outer(axis.a, axis.b) / axis.delta
    return ResidualMatrix(x=x, kind="deflated", scale=X.scale)


def tca(
    P: CorrespondenceMatrix, max_axes: int | None = None, solver: str = "auto"
) -> TcaDecomposition:
    """Taxicab correspondence analysis of a correspondence matrix.

    Alternates norm computation (exact within the enumeration budget, else
    heuristic; override with ``solver``) with rank-1 deflation until
    ``max_axes`` axes are found or the dispersion falls below ``STOP_TOL``
    relative to the first axis.  Factor scores f = a / row_masses and
    g = b / col_masses are attached per axis.
    """
    if max_axes is not None and max_axes < 0:
        raise ValueError("max_axes must be nonnegative")
    X = correspondence_residual(P)
    n, m = X.shape
    cap = min(n, m) - 1 if max_axes is None else max_axes
    axes: list[TaxicabAxis] = []
    residuals: list[ResidualMatrix] = []
    delta1: float | None = None
    while len(axes) < cap:
        axis = _best_axis(X, solver)
        if delta1 is None:
            delta1 = axis.delta
        # P has total 1, so deltas at the double-precision floor are rank exhaustion
        if axis.delta <= STOP_TOL or axis.delta < STOP_TOL * delta1:
            break
        axis = replace(axis, f=axis.a / P.row_masses, g=axis.b / P.col_masses)
        axes.append(axis)
        residuals.append(X)
        if len(axes) < cap:
            X = deflate(X, axis)
    return TcaDecomposition(
        axes=tuple(axes),
        row_masses=P.row_masses,
        col_masses=P.col_masses,
        rank_used=len(axes),
        residuals=tuple(residuals),
    )


def _grouped_order(signs: np.ndarray, scores: np.ndarray) -> tuple[int, ...]:
    pos = np.flatnonzero(signs > 0)
    neg = np.flatnonzero(signs < 0)
    pos = pos[np.argsort(-scores[pos], kind="stable")]
    neg = neg[np.argsort(-scores[neg], kind="stable")]
    return tuple(int(i) for i in np.concatenate([pos, neg]))


def _seriation_from_axis(
    X: ResidualMatrix,
    axis: TaxicabAxis,
    row_scores: np.ndarray | None = None,
    col_scores: np.ndarray | None = None,
) -> SeriationReport:
    x = X.x
    s_mask = axis.v > 0
    t_mask = axis.u > 0
    b_st = float(x[np.ix_(s_mask, t_mask)].sum())
    b_st_c = float(x[np.ix_(s_mask, ~t_mask)].sum())
    b_sc_t = float(x[np.ix_(~s_mask, t_mask)].sum())
    b_sc_tc = float(x[np.ix_(~s_mask, ~t_mask)].sum())
    rs = axis.a if row_scores is None else row_scores
    cs = axis.b if col_scores is None else col_scores
    return SeriationReport(
        s_opt=tuple(int(i) for i in np.flatnonzero(s_mask)),
        t_opt=tuple(int(j) for j in np.flatnonzero(t_mask)),
        block_sums=(b_st, b_st_c, b_sc_t, b_sc_tc),
        cut_norm=b_st,
        row_order=_grouped_order(axis.v, rs),
        col_order=_grouped_order(axis.u, cs),
    )


def cut_norm_matrix(X: ResidualMatrix) -> SeriationReport:
    """Cut-norm of a double-centered matrix with its 4-block certificate.

    S and T are the positive-sign index sets of the optimal axis; the four
    block sums are (+c, -c, -c, +c) with c = cut_norm = delta/4.
    """
    axis = _best_axis(X)
    report = _seriation_from_axis(X, axis)
    slack = _IDENTITY_TOL * (1.0 + axis.delta)
    if not abs(report.cut_norm - axis.delta / 4.0) <= slack:
        raise InvariantError(
            f"block sum {report.cut_norm!r} is not a quarter of delta {axis.delta!r}"
        )
    return report


def rc_axis(decomposition: TcaDecomposition, axis_index: int) -> AxisContributions:
    """Relative contributions |a|/delta, |b|/delta for 1-based axis ``axis_index``.

    Each contribution is at most 1/2; rows/columns attaining the bound are
    heavyweights, and a cell is heavyweight (contributing exactly 1/4) when
    both its row and column are.
    """
    axes = decomposition.axes
    if not 1 <= axis_index <= len(axes):
        raise ValueError(f"axis {axis_index} not computed")
    axis = axes[axis_index - 1]
    rc_rows = np.abs(axis.a) / axis.delta
    rc_cols = np.abs(axis.b) / axis.delta
    heavy_rows = tuple(int(i) for i in np.flatnonzero(np.abs(rc_rows - 0.5) <= HEAVYWEIGHT_TOL))
    heavy_cols = tuple(int(j) for j in np.flatnonzero(np.abs(rc_cols - 0.5) <= HEAVYWEIGHT_TOL))
    cells = tuple((i, j) for i in heavy_rows for j in heavy_cols)
    return AxisContributions(
        rc_rows=tuple(float(r) for r in rc_rows),
        rc_cols=tuple(float(c) for c in rc_cols),
        heavyweight_rows=heavy_rows,
        heavyweight_cols=heavy_cols,
        heavyweight_cells=cells,
    )


def seriate(decomposition: TcaDecomposition, axis_index: int) -> SeriationReport:
    """Seriation report for 1-based axis ``axis_index`` of a decomposition.

    Rows are ordered by descending factor score within v-sign groups
    (positive group first), columns likewise within u-sign groups.  An empty
    decomposition yields a degenerate all-empty report for axis 1.
    """
    axes = decomposition.axes
    if not axes and axis_index == 1:
        return SeriationReport(
            s_opt=(), t_opt=(), block_sums=(0.0, 0.0, 0.0, 0.0),
            cut_norm=0.0, row_order=(), col_order=(),
        )
    if not 1 <= axis_index <= len(axes):
        raise ValueError(f"axis {axis_index} not computed")
    axis = axes[axis_index - 1]
    return _seriation_from_axis(
        decomposition.residuals[axis_index - 1], axis,
        row_scores=axis.f, col_scores=axis.g,
    )
