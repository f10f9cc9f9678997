"""The float32 sign search behind the taxicab and tensor norms.

``enumerate_best`` maximizes ||M s||_1 over sign vectors s exactly, by a
float32 screen and a float64 confirmation.  ``reference_walk`` is the
float64 alternating sign iteration of a matrix, and ``best_restart(x,
starts)`` walks it from each of its caller's starts at once, in certified
float32 GEMMs, and confirms the best end in float64.  Each bound is proved
once, in the docstring of the function whose bound it is;
``certificate_slack`` proves the float64 slack of every certificate that the
taxicab and tensor modules check.  Other modules use only ``BLOCK_BYTES``,
``ENUM_LIMIT``, ``enum_width``, ``sign_grid``, ``enumerate_best``,
``reference_walk``, ``best_restart``, ``rounding_margin``,
``certificate_slack``, ``block_sums``, ``check_block_sums``,
``EnumerationBudgetError`` and ``InvariantError``.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections.abc import Callable, Iterable
from functools import lru_cache
from itertools import product

import numpy as np

from .dispersion import sign_pm

BLOCK_BYTES = 1 << 20  # working set of one enumeration block: fills a 1 MiB per-core L2
ENUM_LIMIT = 22  # most sign coordinates an exact search enumerates (``enum_width``)
# threads that may screen or walk at once: one per CPU this process may run on
_SCREEN_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
# units of work each share of a prefix screen or a walk must get: float32
# table entries (prefixes x 2^k x n) for a screen, n m products a restart
# for a walk on n x m.  On two CPUs with one BLAS thread forced splits broke
# even at about 1.3M entries: the shares' numpy calls contend for the GIL
# and the shared cache.  2^21 a share keeps the 22 x 15 (0.36M) and 40 x 15
# (0.66M) screens on one thread and splits 500 x 20 (norm_exact 66-73 ms in
# two shares, 112-115 in one) and the walks of n m^2 units on 400 x 300
# (36M; 30-32 ms against 49-54), 300 x 200 and 16 x 1500, not 200 x 120
# (2.9M).  Whole-grid screens run on the calling thread: the 11 x 11 x 72
# tensor's took 39-45 ms in two shares, 34-35 in one.
_SHARE_WORK = 1 << 21
# values in one row of the prefix screen's tiled table: it lays the smallest
# power of two r of table rows side by side with n r at least this many
# (``_tile_reps``), so that np.maximum broadcasts the tiled prefix over long
# rows.  On two CPUs with one BLAS thread, norm_exact over the 24 axes of
# the exact benchmark tables at seeds 1-3 took 35.4-36.8 ms a seed with
# rows of at least 4096 values, against 37.0-38.0 at 8192, 39.6-40.1 at
# 2048, 41-42 at 16384 and 51.0 untiled (medians of 9; 49-51 with an add,
# an abs and a sum per prefix).  On 2048 x 48 (r = 128), 1024 x 60 (128),
# 32 x 3000 (2), 64 x 2000 (4) and 64 x 1500 (4) each row then holds
# 6144 to 8000 values, 24-32 KiB.
_TILE_VALUES = 1 << 12


class InvariantError(ArithmeticError):
    """A computed result broke an identity that holds in exact arithmetic."""


class EnumerationBudgetError(ValueError):
    """Requested exhaustive search exceeds the enumeration budget."""


def enum_width(shape: tuple[int, ...]) -> int:
    """Sign coordinates an exact search enumerates on an array of ``shape``: the
    sum of its d - 1 smallest mode sizes, min(n, m) for a matrix."""
    return sum(sorted(shape)[:-1])


def sign_grid(width: int, start: int, stop: int) -> np.ndarray:
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
    grid = sign_grid(width, 0, 1 << width).astype(np.int8)
    grid.flags.writeable = False
    return grid


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


def _enum_split(n: int, q: int, itemsize: int = 8) -> tuple[int, int]:
    """Low-suffix width k and high prefixes per block for an n x q search.

    k is the largest width (at most q - 1) whose table of 2^k lines of
    length n, with its 2^k x k sign grid, fits ``BLOCK_BYTES`` at
    ``itemsize`` bytes a value; the prefix projections are computed
    ``block`` at a time within the same budget.  The float32 screen gets a
    k at least as large as the float64 reference, so each screened table
    covers whole reference prefixes.
    """
    k = 0
    while k < q - 1 and (2 << k) * (n + k + 1) * itemsize <= BLOCK_BYTES:
        k += 1
    return k, max(1, BLOCK_BYTES // (itemsize * n))


def rounding_margin(n: int, q: int, abs_sum: float, dtype: type) -> float:
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
    cast made subnormal.
    """
    return (n + q + 4) * float(np.finfo(dtype).eps) * abs_sum


def certificate_slack(x: np.ndarray) -> tuple[float, float]:
    """Float64 slacks of the certificates of a result computed from x: (margin, slack).

    x is an n x m matrix or an n x m x t array, d its number of modes, N
    its entries and A = sum |x|; u is the float64 unit roundoff, gamma_k =
    k u / (1 - k u), and a sum of k terms, in any order, lies within
    gamma_(k-1) times the sum of their magnitudes of the exact sum.  Let W
    be the sum over the modes of the terms of one entry of the contraction
    that leaves only that mode: n + m for a matrix, m t + n t + n m for a
    3-way array.  ``margin`` is ``rounding_margin`` with n + q = W, that is
    (W + 4) eps A; ``slack`` is 2^(d - 2) L plus ``rounding_margin`` of N
    and 2 W, with L the sum over the modes of the float64 sum of the
    |sums of x along that mode|, each a product with a vector of ones (L is
    zero for an exactly centred x).  Every bit
    of the results is computed in float64 from x with sign vectors, so each
    product is exact, and a sum whose value is subnormal is exact too.

    Walks.  A step of a matrix walk takes v = sign(a~), a~ = fl(x u), then u
    = sign(b~), b~ = fl(x' v); a 3-way walk takes the signs of one mode at a
    time from the contraction of x with the other two.  Its dispersion
    delta~ is fl(sum |a~|) (fl(sum |f~|), f~ the third mode's contraction),
    which lies within gamma_W A of the exact dispersion of the same signs.
    A sign that differs from that of the exact entry belongs to an entry of
    magnitude at most its own rounding, gamma_k times the mass of its line,
    so taking it lowers the exact bilinear (trilinear) form by at most
    twice that; in exact arithmetic no update lowers the form.  One step thus
    lowers the exact dispersion by at most 2 gamma_W A, and a computed
    dispersion falls by at most 4 gamma_W A from one step to the next,
    within two margins, 4 (W + 4) u A: while N W u < 1/2, the 16 u A to
    spare cover the second-order terms and the roundings of A and of the
    check.  This rests on the step alone, so it holds whether the walk then
    stops at u = sign(b~) or at a u it has visited before.  A walk that
    falls by more raises; the axis flip of a matrix takes the flipped
    walk's state unless its dispersion is more than two margins lower.

    Identities.  Each holds for any sign vectors, so at any stop of a walk
    and for any result of an enumeration.  With v = sign(a~) and delta~ =
    fl(sum |a~|), the exact v'x u = u'x'v lies within gamma_W A of delta~,
    and fl(u . b~) within 2 gamma_W A of delta~; at u = sign(b~) that is
    sum |b~| = delta~.  sum(a) is sum_j u_j c_j, c the column sums of x,
    so fl(sum a~) lies within the sum of |c| plus gamma_W A of zero, and
    sum(b) likewise with the row sums.  The 2^d block sums B of the sign
    vectors (``block_sums`` order) give the exact form as P =
    sum sigma B, sigma the parities.  B - sigma P / 2^d is (I - prod_k
    (I - M_k)) B, M_k the average over mode k of the 2 x ... x 2 array B:
    2^d - 1 products of averages, each whose first average is over mode k
    at most half the sum of |sums along mode k| per entry, and 2^(d - k)
    of them first average over mode k, so |B - sigma P / 2^d| is at most
    2^(d - 2) times the exact L.  A computed block sum of at most N terms
    lies within gamma_N A of B, the matrix delta~ within gamma_W A of P (the
    tensor's trilinear sum of N terms within gamma_N A), and the exact L
    within 2 gamma_W A of the computed one.  Each identity thus holds to
    2^(d - 2) L + (9 N / 8 + 4 W) u A to first order, inside ``slack``'s
    2^(d - 2) L + (2 N + 4 W + 8) u A.  An identity of a float sum with
    itself, delta~ = fl(sum |a~|), holds exactly.
    """
    abs_sum = float(np.abs(x).sum())
    widths = [x.size // size for size in x.shape]
    margin = rounding_margin(widths[-1], sum(widths[:-1]), abs_sum, np.float64)
    lines = sum(float(np.abs(np.moveaxis(x, mode, -1) @ np.ones(size)).sum())
                for mode, size in enumerate(x.shape))
    rounding = rounding_margin(x.size, 2 * sum(widths), abs_sum, np.float64)
    return margin, (1 << x.ndim) / 4 * lines + rounding


def block_sums(x: np.ndarray, *signs: np.ndarray) -> tuple[float, ...]:
    """Sums of the blocks that one sign vector per axis cuts ``x`` into.

    Blocks come in ``itertools.product`` order, the +1 set before the -1 set
    on each axis: (S,T), (S,T-bar), (S-bar,T), (S-bar,T-bar) for a matrix,
    and the eight octants likewise for a 3-way array.
    """
    sides = [(mask, ~mask) for mask in (np.asarray(s) > 0 for s in signs)]
    return tuple(float(x[np.ix_(*sets)].sum()) for sets in product(*sides))


def check_block_sums(x: np.ndarray, delta: float, slack: float,
                     *signs: np.ndarray) -> tuple[float, ...]:
    """The ``block_sums`` of x, each checked to be its parity times delta / 2^d.

    Each to within ``slack``, ``certificate_slack``'s for x; a sum outside
    it raises ``InvariantError``.  The parity of block i is -1 to the number
    of complemented sets, the one bits of i.
    """
    sums = block_sums(x, *signs)
    for i, sum_ in enumerate(sums):
        target = (-1) ** bin(i).count("1") * delta / len(sums)
        if not abs(sum_ - target) <= slack:
            raise InvariantError(f"block sum {sum_!r} is not {target!r} to within {slack!r}")
    return sums


def _prefix_margin(n: int, q: int, abs_sum: float) -> float:
    """Bound on the gap between a prefix screen's score of ||M s||_1 and the float64 reference's.

    M is n x q, in the screen's units (scaled by a power of two), and
    ``abs_sum`` the float64 sum of the |entries| of its float32 copy; u is
    the float32 unit roundoff and gamma_k = k u / (1 - k u).  A candidate s
    splits into a high prefix and a low suffix.  With h~ and l~ the float32
    projections of the two column blocks, the screen takes t_i =
    max(l~_i, -h~_i), which is exact, and scores fl(fl(2 S - L) + H), where
    S, L and H are the float32 sums over i of t_i, l~_i and h~_i.  As
    |h + l| = 2 max(l, -h) + h - l, that expression is sum_i |h~_i + l~_i|
    in exact arithmetic.  Let A = sum |M_ij| and h, l be the exact
    projections.

    - Each term M_ij s_j reaches h~_i or l~_i through the cast and at most
      q - 1 additions, so sum_i (|h~_i - h_i| + |l~_i - l_i|) <= gamma_q A
      and sum_i (|h~_i| + |l~_i|) <= (1 + gamma_q) A.
    - t_i, l~_i and h~_i each pass through the n - 1 additions of their
      sum (doubling is exact) and then at most the two roundings of the
      score, so the score lies within gamma_(n+1) sum_i (2 |t_i| + |l~_i|
      + |h~_i|) of sum_i |h~_i + l~_i|.  As |t_i| <= max(|l~_i|, |h~_i|),
      that is at most 3 gamma_(n+1) (1 + gamma_q) A.

    As gamma_j + gamma_k + gamma_j gamma_k <= gamma_(j+k), the score lies
    within gamma_(3n+q+3) A of sum_i |h_i + l_i|.  A exceeds ``abs_sum`` by
    at most a factor (1 + u) (the cast) times 1 + n q float64 unit
    roundoffs (its sum), which the next gamma covers.  The float64
    reference lies within float64's gamma_(n+q-2) A of the exact value,
    entries and partial sums in float32's subnormal range add at most
    (n q + 3 n) 2^-126 in all (also where BLAS flushes them to zero), and A
    is at least 1/2 for the stack's largest matrix, so one more float32
    unit covers these and the rounding of the bound.  The margin is thus
    gamma_(3n+q+5) ``abs_sum``, and infinite once (3n + q + 5) u reaches 1.
    That is about (1.5 n + 0.5 q + 2.5) float32 eps (2 u) times
    ``abs_sum``, against (n + q + 4) for the whole-grid screen's abs and
    row sums (``rounding_margin``).
    """
    terms = (3 * n + q + 5) * float(np.finfo(np.float32).eps) / 2
    return terms / (1.0 - terms) * abs_sum if terms < 1.0 else np.inf


def _tile_reps(n: int, k: int) -> int:
    """Table rows r that the prefix screen lays side by side in one row of n r values.

    The smallest power of two with n r >= ``_TILE_VALUES``, at most 2^k.
    """
    reps = 1
    while reps < 1 << k and reps * n < _TILE_VALUES:
        reps <<= 1
    return reps


def _share_bounds(items: int, item_work: int, most: int) -> list[int]:
    """Bounds of the shares that split ``range(items)`` into contiguous ranges.

    One share per worker (``_SCREEN_WORKERS``), at most ``most``, and only
    as many as each get ``_SHARE_WORK`` units of work at ``item_work`` units
    an item; share i is ``bounds[i]:bounds[i + 1]``, and the sizes differ by
    at most one.  With one usable CPU there is one share, and no thread starts.
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

    The calling thread makes every input and buffer.  A share that runs on
    its own items exactly the operations a one-share run gives them, and
    writes only their results, leaves every bit of the results as one share
    would, however ``bounds`` splits the items.
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


@np.errstate(invalid="ignore")
def _screen(stack: np.ndarray, k_ref: int) -> tuple[np.ndarray, float]:
    """Float32 screen of a stack of B x n x q matrices.

    Returns the screened maximum over each reference prefix (the 2^k_ref
    candidates the float64 scan scores in one step), B x 2^(q-1-k_ref) in
    the input's units, and the stack's rounding margin.  The stack is
    scaled by a power of two to a largest magnitude in [1/2, 1) and cast
    once, transposed, to float32 (half its bytes), so nothing overflows and
    the scaling is exact; the margin takes the largest of the matrices'
    sums of |float32 entries| (``max``, which keeps a nan).  The table
    holds one candidate per row.  When all candidates fit the budget it is
    the whole sign grid times M', and scores are the row sums of |table|
    (``rounding_margin``).  Else it holds the low-suffix projections l,
    and each high-prefix projection h scores its 2^k candidates as
    fl(2 S - L) + H (``_prefix_margin``): S the row sums of max(l, -h), L
    those of l (once a matrix) and H the sum of h (once a block of
    prefixes).  The max runs on the table viewed as rows of r table rows
    (``_tile_reps``), against r copies of -h laid side by side; a share
    makes the copies for eight prefixes at once, in one broadcast
    ``np.negative``.  The best of fl(2 S - L) over each reference prefix
    plus H is the best of its scores, as adding H is monotone.

    A whole grid is scored on the calling thread, as many matrices at a
    time as one block of tables within ``BLOCK_BYTES`` holds.  Else a share
    (``_run_shares``) scans a range of prefixes of one block of heads, with
    a max buffer of 2^k x n float32 values (those beyond the first together
    fit ``BLOCK_BYTES``) and at most 8 x max(n, 8191) values of copies of -h.

    It runs with numpy's invalid-operation warnings off, also in the shares,
    which run under copies of its context: a non-finite stack makes nan
    maxima or a nan margin, on which ``enumerate_best`` raises, and products
    of finite float32 tables make no nan, whatever status flag a BLAS thread
    left set.
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
        step = min(count, max(1, BLOCK_BYTES // (4 * grid.shape[0] * n)))
        tables = np.empty((step, grid.shape[0], n), dtype=np.float32)
        scores = np.empty((step, grid.shape[0]), dtype=np.float32)
        for start in range(0, count, step):
            stop = min(start + step, count)
            table, score = tables[:stop - start], scores[:stop - start]
            np.matmul(grid, parts[start:stop], out=table)
            np.abs(table, out=table)
            np.matmul(table, ones, out=score)
            score.reshape(stop - start, per_table, -1).max(axis=2, out=maxima[start:stop])
    else:
        grid = _low_sign_grid(k).astype(np.float32)
        reps = _tile_reps(n, k)
        extra = BLOCK_BYTES // (4 * n << k)  # sum buffers beyond the first: at least 1
        most = len(_share_bounds(min(block, prefixes), n << k, 1 + extra)) - 1
        bufs = np.empty((most, 1 << k, n), dtype=np.float32)
        rows = 8  # prefixes whose sums one max reduces: fewer calls for the shares to contend on
        sums = np.empty((most, rows, 1 << k), dtype=np.float32)
        tiles = np.empty((most, rows, reps, n), dtype=np.float32)
        twos = np.full(n, 2.0, dtype=np.float32)

        def prefix_share(i: int, lo: int, hi: int) -> None:
            """Prefixes lo:hi of matrix b, from its ``table`` and the ``heads`` from ``start``."""
            buf, tile = bufs[i], tiles[i]
            tiled = buf.reshape(-1, reps * n)
            for first in range(lo, hi, rows):
                last = min(first + rows, hi)
                scores = sums[i, :last - first]
                np.negative(heads[first - start:last - start, None], out=tile[:last - first])
                for row in range(last - first):
                    np.maximum(table, tile[row].reshape(-1), out=tiled)
                    np.matmul(buf, twos, out=scores[row])
                np.subtract(scores, low_sums, out=scores)
                best = maxima[b, first * per_table:last * per_table].reshape(-1, per_table)
                scores.reshape(last - first, per_table, -1).max(axis=2, out=best)
                np.add(best, head_sums[first - start:last - start, None], out=best)

        for b in range(count):
            m = parts[b]
            table = grid @ m[q - k:]  # (2^k, n)
            low_sums = table @ ones
            table = table.reshape(-1, reps * n)
            for start in range(0, prefixes, block):
                stop = min(start + block, prefixes)
                heads = sign_grid(q - k, start, stop).astype(np.float32) @ m[:q - k]
                head_sums = heads @ ones
                bounds = _share_bounds(stop - start, n << k, most)
                _run_shares(prefix_share, [start + bound for bound in bounds])
    margin = (rounding_margin(n, q, float(abs_sum), np.float32) if prefixes == 1
              else _prefix_margin(n, q, float(abs_sum)))
    return np.ldexp(maxima.astype(float), -shift), float(np.ldexp(margin, -shift))


def enumerate_best(stacks: Iterable[np.ndarray]) -> tuple[float, int, np.ndarray]:
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
    scan (``_reference_scan``), in order; S is the stack's best screened
    score and best the best reference score so far, which rises as the
    rescoring goes.  A screened maximum lies within m of the pair's
    reference maximum, so S is at most the global reference maximum plus m,
    and a pair below best - m has a reference maximum below best, which the
    strict ``>`` would not take.  The first pair that reaches the global
    reference maximum thus has a screened maximum of at least S - 2m, and,
    as every reference score before it is lower, of at least best - m: it
    is rescored, and the strict ``>`` keeps it against every later pair.
    """
    best_val = -np.inf
    best: tuple[int, int] | None = None
    offset = 0
    for stack in stacks:
        q = stack.shape[2]
        maxima, margin = _screen(stack, _enum_split(*stack.shape[1:])[0])
        with np.errstate(invalid="ignore"):  # inf - inf: a non-finite stack, raised below
            floor = np.maximum(maxima.max() - 2.0 * margin, best_val - margin)  # nan propagates
        if np.isnan(floor):
            raise InvariantError("sign enumeration confirmed no candidate (non-finite input?)")
        for b in np.flatnonzero((maxima >= floor).any(axis=1)).tolist():
            found = _rescore(stack[b], maxima[b], floor, margin, best_val)
            if found is not None:
                best_val, candidate = found
                best = (offset + b, candidate)
        offset += len(stack)
    if best is None:
        raise InvariantError("sign enumeration confirmed no candidate (non-finite input?)")
    index, candidate = best
    return best_val, index, sign_grid(q, candidate, candidate + 1)[0]


def _rescore(
    M: np.ndarray, screened: np.ndarray, floor: float, margin: float, best_val: float,
) -> tuple[float, int] | None:
    """Reference float64 scan of the prefixes of M above a floor that rises, in ascending order.

    ``screened`` holds the screened maximum of each prefix.  A prefix is
    scanned if its screened maximum reaches ``floor`` and best - ``margin``,
    best the best reference score so far, from ``best_val`` on.  Returns
    the value and index of the best candidate scanned (the first of equals)
    if it beats ``best_val``, else None.
    """
    found = None
    scan = None
    values = screened.tolist()
    for prefix in np.flatnonzero(screened >= floor).tolist():
        if values[prefix] < best_val - margin:
            continue
        scan = scan or _reference_scan(M)
        value, candidate = scan(prefix)
        if value > best_val:
            best_val = value
            found = (value, candidate)
    return found


def _reference_scan(M: np.ndarray) -> Callable[[int], tuple[float, int]]:
    """The reference float64 scan of M, one high prefix at a time.

    The returned function takes a prefix and gives the best score of its
    candidates and the index of the first that reaches it.  The scan splits
    q into the high prefix and the low suffix of ``_enum_split`` and scores
    each prefix h = M_high s_high over all 2^k suffixes at once as the
    column sums of |L + h|, L = M_low S_low'.  The table and the prefix
    projections are computed in the blocks of a full scan, so every score
    has the bits that a scan of all prefixes gives it.
    """
    n, q = M.shape
    k, block = _enum_split(n, q)
    table = M[:, q - k:] @ _low_sign_grid(k).astype(float).T  # (n, 2^k)
    buf = np.empty_like(table)
    scores = np.empty(table.shape[1])
    m_high = M[:, :q - k]

    @lru_cache(maxsize=1)  # the block of the last prefix scanned
    def heads(start: int) -> np.ndarray:
        """The projections of the block of prefixes from ``start``, one row each."""
        return sign_grid(q - k, start, min(start + block, 1 << (q - 1 - k))) @ m_high.T

    def scan(prefix: int) -> tuple[float, int]:
        start = prefix - prefix % block
        np.add(table, heads(start)[prefix - start][:, None], out=buf)
        np.abs(buf, out=buf)
        np.sum(buf, axis=0, out=scores)
        j = int(np.argmax(scores))
        return float(scores[j]), (prefix << k) | j

    return scan


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
        _reference_rows(signs, reference, shift, unsure, out, magnitude)


def _reference_rows(
    signs: np.ndarray, mat: np.ndarray, shift: int, rows: np.ndarray, out: np.ndarray,
    magnitude: np.ndarray,
) -> None:
    """Rows ``rows`` of ``signs @ mat`` by the float64 reference matvec, one sign vector at a time.

    Each row goes to ``out`` times 2^shift, rounded to float32, and its
    absolute value to ``magnitude``.  A negative value that rounds to -0
    there is written as the negative float32 nearest zero, so that
    ``sign_pm`` gives it -1, as it gives the float64 value.
    """
    nearest = np.nextafter(np.float32(0.0), np.float32(-1.0))
    for r in rows.tolist():
        value = mat.T @ signs[r].astype(float)
        row = _to_float32(value, shift, out[r])
        np.copyto(row, nearest, where=(row == 0.0) & (value < 0.0))
        np.abs(row, out=magnitude[r])


def _reference_state(
    x: np.ndarray, u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The float64 state (u, v, a, b, delta) of u: a = x u, v = sign(a), b = x'v, delta = sum |a|."""
    a = x @ u
    v = sign_pm(a)
    return u, v, a, x.T @ v, float(np.abs(a).sum())


def reference_walk(
    x: np.ndarray, u0: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Alternate v = sign(Xu), u = sign(X'v) from u0 until (u, v) repeats, in float64.

    The dispersion estimate is non-decreasing along the iteration, so the
    walk terminates at a fixed point of the transition maps (a cycle through
    equal-dispersion states is cut short, keeping the current state).  A
    step whose dispersion falls by more than two ``margin`` raises
    ``InvariantError`` (``certificate_slack``).
    """
    u = np.asarray(u0, dtype=float)
    seen = {u.tobytes()}
    delta_prev = -np.inf
    while True:
        state = _reference_state(x, u)
        if not state[4] >= delta_prev - 2.0 * margin:
            raise InvariantError(f"dispersion decreased from {delta_prev!r} to {state[4]!r}")
        delta_prev = state[4]
        u = sign_pm(state[3])
        key = u.tobytes()
        if key in seen:  # the state's own u is in seen: a fixed point stops here too
            return state
        seen.add(key)


def _restart_walks(x: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Walk x from each row of ``starts`` to its stop, a block of restarts at a time.

    ``starts`` is a real k x n array, k >= 1, read a block of rows at a
    time.  Returns ``finals[r]``, the packed bits of u < 0 for restart r's
    last u, ``deltas[r]``, the last dispersion the GEMM computed for it, and
    the margin (``rounding_margin`` in float32) within which each of those
    lies of the reference dispersion of the same u.  Dispersions and margin
    are in the units of the float32 copy of x, x times 2^shift
    (``_float32_shift``, ``_to_float32``), made once per call.

    Restart r starts from v = sign(starts[r]), u = sign(X' v) and steps
    v = sign(X u), u = sign(X' v), one float32 GEMM per half-step over the
    block's active restarts with every sign certified
    (``_certified_product``), so it walks the reference trajectory and
    stops where ``reference_walk`` from that u does, at a u it has already
    seen.  Along it the exact dispersion falls only by the float64 rounding
    of the products whose signs the reference got wrong, far inside the
    margin's spare, so a step whose dispersion falls by more than two
    margins raises ``InvariantError``.

    A share (``_run_shares``) walks a contiguous range of restarts in
    blocks of its own; a restart's signs do not depend on its block.  A
    block holds three float32 buffers, reused across steps: u signs
    (b x m), v signs (b x n) and one product of b x max(n, m), plus a bool
    buffer of the product's size: 4 (m + n + max(n, m)) + max(n, m) bytes a
    restart.  b is at most a share's restarts, and b restarts fit
    ``BLOCK_BYTES`` (1 MiB): on 400 x 300 from 300 starts each of two
    shares walks its 150 restarts in one block.
    Half-step A puts U X' in the product, |U X'| in V (its row sums, a
    float32 matvec with ones, are the dispersions) and then the signs in
    V.  Half-step B puts V X in the product, |V X| in U, which the old u no
    longer needs (it lives on only as packed keys), and then the signs in
    U.  A stopped restart's row of U is closed up by copying the later rows
    down.
    """
    n, m = x.shape
    count = len(starts)
    w = max(n, m)
    shift = _float32_shift(x)
    row_band, col_band, mass = _sign_bands(x, shift)
    margin = rounding_margin(n, m, float(np.ldexp(mass, shift)), np.float32)
    x32 = _to_float32(x, shift, np.empty((n, m), dtype=np.float32))
    ones = np.ones(n, dtype=np.float32)
    bounds = _share_bounds(count, n * m, count)
    shares = len(bounds) - 1
    size = max(1, min(-(-count // shares), BLOCK_BYTES // (4 * (m + n + w) + w)))
    us = np.empty((shares, size, m), dtype=np.float32)
    vs = np.empty((shares, size, n), dtype=np.float32)
    prods = np.empty((shares, size * w), dtype=np.float32)
    masks = np.empty((shares, size * w), dtype=bool)
    finals = np.empty((count, (m + 7) // 8), dtype=np.uint8)
    deltas = np.empty(count)

    def walk_share(i: int, lo: int, hi: int) -> None:
        """Restarts lo:hi, ``size`` at a time, in share i's block."""
        u, v, prod, flags = us[i], vs[i], prods[i], masks[i]

        def step_u(k: int) -> np.ndarray:
            """u = sign(X' v) for the first k rows, and the packed bits of u < 0."""
            b, negative = prod[:k * m].reshape(k, m), flags[:k * m].reshape(k, m)
            _certified_product(v[:k], x32, x, shift, col_band, b, u[:k], negative)
            sign_pm(b, out=u[:k])
            np.less(u[:k], 0.0, out=negative)
            return np.packbits(negative, axis=1)

        for start in range(lo, hi, size):
            ids = np.arange(start, min(start + size, hi))
            k = ids.size
            sign_pm(starts[start:start + k], out=v[:k])
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
                for j, r in enumerate(go.tolist()):
                    if r != j:  # go ascends: row r is read before any copy writes it
                        u[j] = u[r]
                ids, keys, delta_prev = ids[go], new_keys[go], delta[go]
                seen = [seen[r] for r in go.tolist()]

    _run_shares(walk_share, bounds)
    return finals, deltas, margin


def _confirm_restarts(
    x: np.ndarray, finals: np.ndarray, deltas: np.ndarray, margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The reference state (u, v, a, b, delta) of the best restart, the first on ties.

    ``finals``, ``deltas`` and ``margin`` are ``_restart_walks``'s last u,
    batched dispersion of each restart and margin, in any one unit.
    Rescores, in restart order and with ``_reference_state``, every restart
    whose batched dispersion lies within twice ``margin`` of the best
    batched one; ``max`` keeps the first of equals, as a strict ``>``
    would.  Each restart's batched dispersion is within one margin of the
    reference dispersion of its own last u, so the first restart that
    reaches the reference maximum is within two margins of the best batched
    dispersion, and is rescored.  The restart with the best batched
    dispersion always reaches its own floor, also when a nan or an infinite
    margin makes the floor nan or -inf, so some restart is rescored.
    """
    m = x.shape[1]
    floor = deltas.max() - 2.0 * margin
    return max((_reference_state(x, 1.0 - 2.0 * np.unpackbits(finals[j], count=m))
                for j in np.flatnonzero(~(deltas < floor)).tolist()), key=lambda state: state[4])


def best_restart(
    x: np.ndarray, starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """The reference state (u, v, a, b, delta) of the best walk of x from the
    rows of ``starts`` (``_restart_walks``), the first on ties."""
    return _confirm_restarts(x, *_restart_walks(x, starts))
