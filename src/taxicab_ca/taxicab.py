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
that fit ``_ENUM_BLOCK_BYTES``: each half-step is one GEMM over the block's
active restarts, one sign vector per row.  A GEMM does not add up in the
order of the reference gemv, so every sign is certified: both sums lie
within gamma_k times the line's sum of |x| of the exact value, so an entry
above twice that band has the gemv's sign, and a row with an entry inside
it is recomputed by the reference matvec.  Each restart thus walks the
one-at-a-time trajectory and stops where it does.  Only the restarts whose
batched final dispersion lies within twice a proven rounding margin of the
best are rescored with the reference arithmetic, in restart order, so the
winner and every bit of its axis are those of the one-at-a-time loop.

The enumeration kernel, shared with the tensor norm, searches a stack of
matrices in two phases.  The screen scores every sign candidate in float32,
after scaling the stack by a power of two so that nothing overflows: one
table row per candidate, so that adding a high-prefix projection to the
table of low-suffix projections is a contiguous add, and the whole sign
grid in a single matmul when all candidates fit ``_ENUM_BLOCK_BYTES``
(1 MiB, inside a per-core L2).  It keeps only the best screened score of
each matrix and float64 prefix.  The confirmation then rescores in float64,
in lexicographic order and with the reference arithmetic (a column-per-
candidate table of the 2^k low suffixes plus one prefix at a time), only
those (matrix, prefix) pairs whose screened best lies within twice the
proven rounding margin (``_rounding_margin``) of the best screened score.
Every pair that could hold the float64 maximum is among them, so the
maximizer, ties included, is the one a full float64 scan returns.  Working
memory stays at a few MiB whatever q is.
"""

from __future__ import annotations

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
    cast made subnormal.  The enumeration screen takes float32, the batched
    restarts of the heuristic float64.
    """
    return (n + q + 4) * float(np.finfo(dtype).eps) * abs_sum


def _screen(stack: np.ndarray, k_ref: int) -> tuple[np.ndarray, float]:
    """Float32 screen of a stack of B x n x q matrices.

    Returns the screened maximum over each reference prefix (the 2^k_ref
    candidates the float64 scan scores in one step), B x 2^(q-1-k_ref) in
    the input's units, and the stack's ``_rounding_margin``.  The stack is
    scaled by a power of two to a largest magnitude in [1/2, 1) before the
    cast, so no float32 value overflows and the scaling itself is exact.
    Scores are the row sums of |table|, the table holding one candidate per
    row: the whole sign grid times M' when all candidates fit the budget,
    else the low-suffix table plus one high-prefix projection at a time.
    """
    count, n, q = stack.shape
    peak = float(np.maximum(stack.max(), -stack.min()))  # nan stays nan
    shift = -int(np.frexp(peak)[1])
    k, block = _enum_split(n, q, itemsize=4)
    prefixes = 1 << (q - 1 - k)
    maxima = np.empty((count, 1 << (q - 1 - k_ref)), dtype=np.float32)
    per_table = maxima.shape[1] // prefixes  # reference prefixes per screened table
    ones = np.ones(n, dtype=np.float32)
    abs_sum = 0.0

    def cast(start: int, stop: int, out: np.ndarray) -> np.ndarray:
        """Matrices start:stop, transposed, scaled and rounded to float32."""
        nonlocal abs_sum
        np.ldexp(stack[start:stop].transpose(0, 2, 1), shift, out=out, casting="same_kind")
        abs_sum = np.maximum(abs_sum, np.abs(out).sum(axis=(1, 2), dtype=float).max())
        return out

    if prefixes == 1:
        grid = _low_sign_grid(q)[: 1 << (q - 1)].astype(np.float32)
        step = min(count, max(1, _ENUM_BLOCK_BYTES // (4 * grid.shape[0] * n)))
        parts = np.empty((step, q, n), dtype=np.float32)
        tables = np.empty((step, grid.shape[0], n), dtype=np.float32)
        scores = np.empty((step, grid.shape[0]), dtype=np.float32)
        for start in range(0, count, step):
            stop = min(start + step, count)
            table, score = tables[:stop - start], scores[:stop - start]
            np.matmul(grid, cast(start, stop, parts[:stop - start]), out=table)
            np.abs(table, out=table)
            np.matmul(table, ones, out=score)
            maxima[start:stop] = score.reshape(stop - start, per_table, -1).max(axis=2)
    else:
        grid = _low_sign_grid(k).astype(np.float32)
        part = np.empty((1, q, n), dtype=np.float32)
        buf = np.empty((1 << k, n), dtype=np.float32)
        scores = np.empty(1 << k, dtype=np.float32)
        for b in range(count):
            m = cast(b, b + 1, part)[0]
            table = grid @ m[q - k:]  # (2^k, n)
            for start in range(0, prefixes, block):
                stop = min(start + block, prefixes)
                heads = _sign_grid(q - k, start, stop).astype(np.float32) @ m[:q - k]
                for prefix, h in enumerate(heads, start):
                    np.add(table, h, out=buf)
                    np.abs(buf, out=buf)
                    np.matmul(buf, ones, out=scores)
                    maxima[b, prefix * per_table:(prefix + 1) * per_table] = (
                        scores.reshape(per_table, -1).max(axis=1))
    margin = _rounding_margin(n, q, float(abs_sum), np.float32)
    return np.ldexp(maxima.astype(float), -shift), float(np.ldexp(margin, -shift))


def _enumerate_best(stacks: Callable[[], Iterable[np.ndarray]]) -> tuple[float, int, np.ndarray]:
    """Maximize ||M s||_1 over sign vectors s with s[0] = +1 and over matrices M.

    ``stacks()`` yields B x n x q stacks of float64 matrices; it is called
    once per phase and must yield the same values both times.  Returns the
    maximum, the index of its matrix counted over all stacks, and the
    maximizer.  Candidates are ordered by matrix, then lexicographically
    (+1 before -1), and only a strict improvement replaces the incumbent,
    so on ties the first maximizer is returned.

    Phase 1 screens every candidate in float32 (``_screen``) and keeps the
    screened maximum of each (matrix, reference prefix).  Phase 2 rescores
    in float64, with the reference scan, every pair whose screened maximum
    lies within twice the margin of the best screened score: the reference
    winner's screened score is at least its reference score minus one
    margin, which is at least the screened best minus two.  The reference
    scan splits q into the high prefix and the low suffix of
    ``_enum_split`` and scores each prefix h = M_high s_high over all 2^k
    suffixes at once as the column sums of |L + h|, L = M_low S_low'.
    """
    screened = []
    margin = 0.0
    for stack in stacks():
        k_ref, _ = _enum_split(*stack.shape[1:])
        maxima, stack_margin = _screen(stack, k_ref)
        screened.append(maxima)
        margin = np.maximum(margin, stack_margin)  # a nan margin stays nan
        del stack  # let the next stack take its memory
    floor = np.max([m.max() for m in screened]) - 2.0 * margin  # nan propagates
    best_val = -np.inf
    best: tuple[int, int] | None = None
    offset = 0
    pending = iter(screened)  # not zip(): its reused tuple would keep the last stack alive
    for stack in stacks():
        maxima = next(pending)
        q = stack.shape[2]
        for b in np.flatnonzero((maxima >= floor).any(axis=1)).tolist():
            found = _rescore(stack[b], np.flatnonzero(maxima[b] >= floor).tolist(), best_val)
            if found is not None:
                best_val, candidate = found
                best = (offset + b, candidate)
        offset += len(stack)
        del stack
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
        _, _, u0 = _enumerate_best(lambda: [x[None]])
    else:
        _, _, v0 = _enumerate_best(lambda: [x.T[None]])
        u0 = sign_pm(x.T @ v0)
    state = _transition_fixed_point(x, u0)
    return _axis_from_state(_canonical_state(x, state), exact=True)


def _sign_bands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Thresholds above which a computed x @ u (rows) or v @ x (columns) has a sure sign.

    Entry i of x @ u, u a sign vector, adds up the m terms +-x_ij.  Added in
    any order, by a GEMM or by the reference gemv, it lies within
    gamma_m * sum_j |x_ij| of the exact sum (gamma_k = k u / (1 - k u), u
    the unit roundoff).  So an entry whose magnitude exceeds twice that band
    has the exact sum's sign, and the reference gemv gives it the same sign.
    The thresholds take (m + 2) eps for the 2 gamma_m (eps = 2 u; the
    spare eps covers the rounding of the band itself) and add 2 m tiny for
    underflow.  A zero line sums to +-0 in every order, which ``sign_pm``
    maps to +1, so its threshold is -inf.  The third value is sum |x_ij|.
    """
    eps, tiny = float(np.finfo(float).eps), float(np.finfo(float).tiny)
    n, m = x.shape
    magnitude = np.abs(x)
    rows, cols = magnitude.sum(axis=1), magnitude.sum(axis=0)

    def band(mass: np.ndarray, k: int) -> np.ndarray:
        return np.where(mass == 0.0, -np.inf, (k + 2) * eps * mass + 2 * k * tiny)

    return band(rows, m), band(cols, n), float(rows.sum())


def _certified_product(
    signs: np.ndarray, mat: np.ndarray, band: np.ndarray,
    out: np.ndarray, magnitude: np.ndarray, sure: np.ndarray,
) -> None:
    """``out = signs @ mat`` with every sign equal to the reference matvec's.

    GEMMs compute the product, a panel of ``mat`` columns (lines of x) of
    at most an eighth of ``_ENUM_BLOCK_BYTES`` at a time: OpenBLAS packs the
    panel into a buffer whose pages stay resident for the life of the
    process, and a whole 400 x 300 x would take 0.8 MB of it.
    ``magnitude`` receives |out| and ``sure`` marks the entries above
    ``band``.  A row with any entry inside the band (or nan) is recomputed
    by ``_reference_rows``, so that it carries the bits of the reference
    ``mat.T @ s``.
    """
    lines = max(1, _ENUM_BLOCK_BYTES // (64 * mat.shape[0]))
    for j in range(0, mat.shape[1], lines):
        np.matmul(signs, mat[:, j:j + lines], out=out[:, j:j + lines])
    np.abs(out, out=magnitude)
    np.greater(magnitude, band, out=sure)
    unsure = np.flatnonzero(~sure.all(axis=1))
    if unsure.size:
        _reference_rows(signs, mat, unsure, out)
        magnitude[unsure] = np.abs(out[unsure])


def _reference_rows(signs: np.ndarray, mat: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Rows ``rows`` of ``signs @ mat`` by the reference matvec, one sign vector at a time."""
    for r in rows.tolist():
        out[r] = mat.T @ signs[r]


def _restart_walks(
    x: np.ndarray, row_band: np.ndarray, col_band: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk every column restart of x to its stop, a block of restarts at a time.

    Returns two arrays indexed by restart: ``finals[j]``, the packed bits
    of u < 0 for restart j's last u, and ``deltas[j]``, the last dispersion
    the GEMM computed for it.  Restart j starts from v = sign(column j),
    u = sign(X' v) and steps v = sign(X u), u = sign(X' v), one GEMM per
    half-step over the block's active restarts, until the new u is one that
    restart has already seen (the stop of ``_transition_fixed_point``).
    ``_certified_product`` gives every sign the reference matvec's value,
    so each restart walks the reference trajectory.  The block's buffers
    fit ``_ENUM_BLOCK_BYTES`` and are reused across steps.
    """
    n, m = x.shape
    size = max(1, min(m, _ENUM_BLOCK_BYTES // (8 * (3 * m + 2 * n) + max(n, m))))
    u_cur, u_new, prod_b = (np.empty((size, m)) for _ in range(3))
    prod_a, v = np.empty((size, n)), np.empty((size, n))
    sure = np.empty((size, max(n, m)), dtype=bool)
    finals = np.empty((m, (m + 7) // 8), dtype=np.uint8)
    deltas = np.empty(m)

    def step_u(k: int) -> np.ndarray:
        """u_new = sign(X' v) for the first k rows, and the packed bits of u_new < 0."""
        _certified_product(v[:k], x, col_band, prod_b[:k], u_new[:k], sure[:k, :m])
        sign_pm(prod_b[:k], out=u_new[:k])
        np.less(u_new[:k], 0.0, out=sure[:k, :m])
        return np.packbits(sure[:k, :m], axis=1)

    for start in range(0, m, size):
        ids = np.arange(start, min(start + size, m))
        k = ids.size
        sign_pm(x[:, start:start + k].T, out=v[:k])
        keys = step_u(k)
        u_cur, u_new = u_new, u_cur
        seen = [{key.tobytes()} for key in keys]
        delta_prev = np.full(k, -np.inf)
        while k:
            _certified_product(u_cur[:k], x.T, row_band, prod_a[:k], v[:k], sure[:k, :n])
            delta = v[:k].sum(axis=1)
            fell = ~(delta >= delta_prev - _ASCENT_SLACK * (1.0 + delta))
            if fell.any():
                r = int(np.argmax(fell))
                raise InvariantError(
                    f"dispersion decreased from {float(delta_prev[r])!r} to {float(delta[r])!r}")
            sign_pm(prod_a[:k], out=v[:k])
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
            np.take(u_new, go, axis=0, out=u_cur[:k])
            ids, keys, delta_prev = ids[go], new_keys[go], delta[go]
            seen = [seen[r] for r in go.tolist()]
    return finals, deltas


def _confirm_restarts(
    x: np.ndarray, finals: np.ndarray, deltas: np.ndarray, margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The reference state (u, v, a, b, delta) of the best restart, the first on ties.

    ``finals`` and ``deltas`` are ``_restart_walks``'s last u and batched
    dispersion of each restart.  Rescores, in restart order and with the
    reference ``x @ u`` and ``x.T @ v``, every restart whose batched
    dispersion lies within twice ``margin`` of the best batched one; a
    strict ``>`` replaces the incumbent.  Each restart's batched dispersion
    is within one margin of the reference dispersion of its own last u, so
    the first restart that reaches the reference maximum is within two
    margins of the best batched dispersion, and is rescored.
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
    each half-step one GEMM over the block's active restarts
    (``_restart_walks``).  Every sign is certified: an entry outside the
    rounding band of ``_sign_bands`` has the reference matvec's sign, and a
    row with an entry inside it is recomputed by the reference matvec, so
    each restart walks exactly the one-at-a-time trajectory and stops where
    it does.  Only the restarts whose batched final dispersion lies within
    twice the proven margin (``_rounding_margin``) of the best one are
    rescored with the reference arithmetic, in restart order
    (``_confirm_restarts``), so the winner and its bits are those of the
    one-at-a-time loop.  A matrix holding nan or inf raises
    ``InvariantError`` before the first step.
    """
    x = X.x
    if not np.isfinite(x).all():
        raise InvariantError("norm_heuristic: the matrix holds non-finite values")
    row_band, col_band, mass = _sign_bands(x)
    finals, deltas = _restart_walks(x, row_band, col_band)
    margin = _rounding_margin(*x.shape, mass, np.float64)
    best = _confirm_restarts(x, finals, deltas, margin)
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
