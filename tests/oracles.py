"""Independent brute-force oracles for the test suite.

Everything here enumerates exhaustively with its own code paths (itertools
products of raw sign choices, full subset lattices, recursive partition
generation) so it shares no logic with the library implementations it checks.
The code at the end is the exception: the two centering formulas as they
were before the inclusion-exclusion loop over the modes, the seriation order
as two stable argsorts before ``np.lexsort``, the taxicab heuristic's
restart loop as it was before its batched rewrite, the two-mode clustering
search as it was before its screened rewrite, and the report serialiser as
it was before reports converted their values on construction, kept as the
references whose bits the rewrites must reproduce.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def all_sign_vectors(q: int) -> np.ndarray:
    """All 2^q sign vectors as a (2^q, q) array."""
    return np.array(list(itertools.product((1.0, -1.0), repeat=q)))


def brute_cut_norm_vec(x: np.ndarray) -> float:
    """Max subset sum over all 2^n subsets."""
    x = np.asarray(x, dtype=float)
    best = -np.inf
    for r in range(x.size + 1):
        for subset in itertools.combinations(range(x.size), r):
            best = max(best, float(x[list(subset)].sum()))
    return best


def brute_gain_d(x: np.ndarray) -> float:
    """Max of x'u/n over all sign vectors."""
    x = np.asarray(x, dtype=float)
    vals = all_sign_vectors(x.size) @ x
    return float(vals.max()) / x.size


def brute_matrix_norm(x: np.ndarray) -> float:
    """Max of ||X u||_1 over all 2^m sign vectors (no symmetry shortcuts)."""
    x = np.asarray(x, dtype=float)
    signs = all_sign_vectors(x.shape[1])
    return float(np.abs(x @ signs.T).sum(axis=0).max())


def brute_cut_norm_matrix(x: np.ndarray) -> float:
    """Max submatrix sum over all 2^n x 2^m subset pairs."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    rows = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    cols = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    vals = rows @ x @ cols.T
    return float(vals.max())


def brute_tensor_norm(x: np.ndarray) -> float:
    """Max trilinear form over all 2^(n+m+t) sign assignments."""
    x = np.asarray(x, dtype=float)
    n, m, t = x.shape
    su = all_sign_vectors(n)
    sv = all_sign_vectors(m)
    sw = all_sign_vectors(t)
    contracted = np.einsum("ai,ijk->ajk", su, x)
    contracted = np.einsum("bj,ajk->abk", sv, contracted)
    vals = np.einsum("ck,abk->abc", sw, contracted)
    return float(vals.max())


def partitions_exact(n: int, r: int):
    """All set partitions of range(n) into exactly r labeled-by-order blocks."""
    if r > n:
        return
    if n == 0:
        if r == 0:
            yield []
        return

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            if len(blocks) == r:
                yield [list(b) for b in blocks]
            return
        if len(blocks) + (n - i) < r:
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < r:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def brute_two_mode_best(x: np.ndarray, r: int, c: int, p: float) -> float:
    """Max overall interaction over all r x c set-partition pairs."""
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    best = -np.inf
    for row_blocks in partitions_exact(n, r):
        for col_blocks in partitions_exact(m, c):
            total = 0.0
            for S in row_blocks:
                for T in col_blocks:
                    size = len(S) * len(T)
                    block = float(x[np.ix_(S, T)].sum())
                    total += size * (abs(block) / size) ** p
            best = max(best, total)
    return best


def random_double_centered(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Additively double-center an i.i.d. normal matrix (independent of the library)."""
    return formula_double_center(rng.normal(size=(n, m)))


def random_triple_centered(
    rng: np.random.Generator, n: int, m: int, t: int
) -> np.ndarray:
    """Triple-center an i.i.d. normal array by sweeping out means directly."""
    return formula_triple_center(rng.normal(size=(n, m, t)))


def lexicographic_first_max(m: np.ndarray) -> tuple[float, np.ndarray]:
    """First maximizer of ||M s||_1 over s with s[0] = +1, scanning one sign vector at a time.

    Candidates come in itertools order (+1 before -1 at every position) and
    only a strictly larger value replaces the incumbent.
    """
    m = np.asarray(m, dtype=float)
    best_val, best_s = -np.inf, None
    for tail in itertools.product((1.0, -1.0), repeat=m.shape[1] - 1):
        s = np.array((1.0,) + tail)
        val = float(np.abs(m @ s).sum())
        if val > best_val:
            best_val, best_s = val, s
    return best_val, best_s


def lexicographic_first_tensor_signs(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sign triple of the first maximizing (s1, s2) pair over the two smallest modes.

    The two smallest modes (ties by mode index) are scanned as nested
    itertools products with the first entry of each pinned to +1; the third
    mode takes the signs of its fiber sums, with sign(0) = +1.
    """
    x = np.asarray(x, dtype=float)
    e1, e2, free = sorted(range(3), key=lambda ax: (x.shape[ax], ax))
    xp = np.transpose(x, (e1, e2, free))
    best_val, best = -np.inf, None
    for t1 in itertools.product((1.0, -1.0), repeat=xp.shape[0] - 1):
        s1 = np.array((1.0,) + t1)
        for t2 in itertools.product((1.0, -1.0), repeat=xp.shape[1] - 1):
            s2 = np.array((1.0,) + t2)
            fiber = np.einsum("ijk,i,j->k", xp, s1, s2)
            val = float(np.abs(fiber).sum())
            if val > best_val:
                best_val, best = val, (s1, s2, np.where(fiber >= 0.0, 1.0, -1.0))
    signs = dict(zip((e1, e2, free), best))
    return signs[0], signs[1], signs[2]


# The taxicab heuristic as it was before the batched rewrite: one restart
# at a time (one per column, or one per row of a start block), each a loop
# of two matvecs a step, stopping when u repeats.  The library must return
# the same axis bits, so the winner goes through the library's own
# axis-sign rule and indeterminate sets, which the rewrite left as they were.


def formula_double_center(y: np.ndarray) -> np.ndarray:
    """Additive double centering, written out: y - rowmean - colmean + grandmean."""
    with np.errstate(over="ignore", invalid="ignore"):
        return y - y.mean(axis=1, keepdims=True) - y.mean(axis=0, keepdims=True) + y.mean()


def formula_triple_center(y: np.ndarray) -> np.ndarray:
    """Triple centering, written out: the two-way means off, the one-way means back, the grand mean off."""
    with np.errstate(over="ignore", invalid="ignore"):
        m_ij = y.mean(axis=2, keepdims=True)
        m_ik = y.mean(axis=1, keepdims=True)
        m_jk = y.mean(axis=0, keepdims=True)
        m_i = y.mean(axis=(1, 2), keepdims=True)
        m_j = y.mean(axis=(0, 2), keepdims=True)
        m_k = y.mean(axis=(0, 1), keepdims=True)
        return y - m_ij - m_ik - m_jk + m_i + m_j + m_k - y.mean()


def grouped_order_by_argsort(signs: np.ndarray, scores: np.ndarray) -> tuple[int, ...]:
    """Seriation order as two stable argsorts: +1 signs by descending score, then -1 signs."""
    pos = np.flatnonzero(signs > 0)
    neg = np.flatnonzero(signs < 0)
    pos = pos[np.argsort(-scores[pos], kind="stable")]
    neg = neg[np.argsort(-scores[neg], kind="stable")]
    return tuple(np.concatenate([pos, neg]).tolist())


def _loop_sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1.0, -1.0)


def _loop_fixed_point(x: np.ndarray, u: np.ndarray):
    """The last state (u, v, a, b, delta) from u, and the number of distinct u seen."""
    seen = {u.tobytes()}
    while True:
        a = x @ u
        v = _loop_sign(a)
        delta = float(np.abs(a).sum())
        b = x.T @ v
        u_next = _loop_sign(b)
        if np.array_equal(u_next, u) or u_next.tobytes() in seen:
            return (u, v, a, b, delta), len(seen)
        seen.add(u_next.tobytes())
        u = u_next


def _loop_walk(x: np.ndarray, start: np.ndarray):
    return _loop_fixed_point(x, _loop_sign(x.T @ _loop_sign(start)))


def loop_walk_finals(x: np.ndarray, starts: np.ndarray) -> list[np.ndarray]:
    """The last u of the walk from v = sign(start) for each row of ``starts``, in order."""
    return [_loop_walk(x, start)[0][0] for start in starts]


def loop_restart_finals(x: np.ndarray) -> list[np.ndarray]:
    """Each column restart's last u, in restart order: the walks from the rows of x'."""
    return loop_walk_finals(x, x.T)


def loop_restart_visits(x: np.ndarray) -> list[int]:
    """How many distinct u each column restart sees, in restart order."""
    return [_loop_walk(x, start)[1] for start in x.T]


def loop_norm_heuristic(X):
    """The heuristic's axis (a ``TaxicabAxis``) from one restart per column, first best wins."""
    from taxicab_ca import kernels, taxicab

    x = X.x
    best = None
    for start in x.T:
        state, _ = _loop_walk(x, start)
        if best is None or state[4] > best[4]:
            best = state
    margin, slack = kernels.certificate_slack(x)
    return taxicab._axis_from_state(x, taxicab._canonical_state(x, best, margin), slack,
                                    exact=False)


# The two-mode clustering search as it was before the screened rewrite: one
# candidate at a time, each scored with one row-major np.add.at pass, the
# order in which objective() sums a partition.  The library must return the
# same partitions and the same objective bits.


def _rgs_exact(n: int, r: int):
    """Restricted growth strings on n elements with exactly r blocks, in order."""
    a = np.zeros(n, dtype=int)

    def rec(i: int, used: int):
        if n - i < r - used:
            return
        if i == n:
            if used == r:
                yield a.copy()
            return
        for b in range(used):
            a[i] = b
            yield from rec(i + 1, used)
        if used < r:
            a[i] = used
            yield from rec(i + 1, used + 1)

    yield from rec(0, 0)


def _objective_from_assign(
    x: np.ndarray, row_assign: np.ndarray, col_assign: np.ndarray,
    r: int, c: int, p: float,
) -> float:
    block = np.zeros((r, c))
    np.add.at(block, (row_assign[:, None], col_assign[None, :]), x)
    sizes = np.outer(np.bincount(row_assign, minlength=r),
                     np.bincount(col_assign, minlength=c)).astype(float)
    return float((sizes * (np.abs(block) / sizes) ** p).sum())


def loop_exhaustive(x: np.ndarray, r: int, c: int, p: float):
    """First maximizer (row labels, column labels, objective) in RGS order."""
    n, m = x.shape
    best_val = -np.inf
    best = None
    for row_assign in _rgs_exact(n, r):
        for col_assign in _rgs_exact(m, c):
            val = _objective_from_assign(x, row_assign, col_assign, r, c, p)
            if val > best_val:
                best_val = val
                best = (row_assign.copy(), col_assign.copy())
    row_assign, col_assign = best
    return row_assign, col_assign, best_val


def _local_search(
    x: np.ndarray, r: int, c: int, p: float,
    row_assign: np.ndarray, col_assign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    row_assign = row_assign.copy()
    col_assign = col_assign.copy()
    obj = _objective_from_assign(x, row_assign, col_assign, r, c, p)
    moved = True
    while moved:
        moved = False
        for assign, count, k in ((row_assign, r, 0), (col_assign, c, 1)):
            sizes = np.bincount(assign, minlength=count)
            for i in range(assign.size):
                cur = assign[i]
                if sizes[cur] == 1:
                    continue  # moving would empty the source block
                for tgt in range(count):
                    if tgt == cur:
                        continue
                    assign[i] = tgt
                    val = _objective_from_assign(x, row_assign, col_assign, r, c, p)
                    if val > obj:
                        obj = val
                        sizes[cur] -= 1
                        sizes[tgt] += 1
                        cur = tgt
                        moved = True
                    else:
                        assign[i] = cur
    return row_assign, col_assign, obj


def _balanced_starts(size: int, blocks: int) -> list[np.ndarray]:
    contiguous = (np.arange(size) * blocks) // size
    strided = np.arange(size) % blocks
    starts = [contiguous]
    if not np.array_equal(contiguous, strided):
        starts.append(strided)
    return starts


def loop_local_search(x: np.ndarray, r: int, c: int, p: float):
    """Best (row labels, column labels, objective) over the balanced starts."""
    n, m = x.shape
    best_run = None
    for rows0 in _balanced_starts(n, r):
        for cols0 in _balanced_starts(m, c):
            run = _local_search(x, r, c, p, rows0, cols0)
            if best_run is None or run[2] > best_run[2]:
                best_run = run
    return best_run


# The report serialiser as it was before reports converted their values on
# construction: the payload is walked element by element at dump time.


def _report_plain(obj):
    if isinstance(obj, np.ndarray):
        return [_report_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_report_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _report_plain(v) for k, v in obj.items()}
    return obj


def report_json(method: str, inputs: dict, provenance: dict, results: dict) -> str:
    """The JSON text of a report with these fields, as the old ``to_json`` wrote it."""
    payload = {
        "method": method,
        "inputs": _report_plain(inputs),
        "provenance": _report_plain(provenance),
        "results": _report_plain(results),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
