"""Taxicab matrix norm, taxicab SVD via deflation, and balanced 2-block seriation.

The taxicab norm of a double-centered matrix X is the maximum of v'Xu over
sign vectors u, v.  It equals four times the cut-norm of X, so every computed
axis certifies a row/column bipartition whose four blocks have equal-magnitude
sums.  Repeated rank-1 deflation yields an L1 analogue of the singular value
decomposition; applied to a correspondence matrix this is taxicab
correspondence analysis, with factor scores obtained by dividing the axis
projections by the row/column masses.

Exhaustive search is exact up to ``ENUM_LIMIT`` on the smaller matrix
dimension (sign symmetry halves the space); beyond that an alternating
sign-iteration heuristic with deterministic restarts is available.  Both
run on the sign search and the walks of ``kernels``, where their proofs
are, and each axis, with its four block sums, is checked against its
identities to the float64 slack that ``kernels.certificate_slack`` proves
from the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import HEAVYWEIGHT_TOL, sign_pm
from .kernels import (ENUM_LIMIT, EnumerationBudgetError, InvariantError, best_restart, block_sums,
                      certificate_slack, check_block_sums, enum_width, enumerate_best,
                      reference_walk)
from .residual import CorrespondenceMatrix, ResidualMatrix, correspondence_residual

__all__ = [
    "ENUM_LIMIT",
    "STOP_TOL",
    "AxisContributions",
    "EnumerationBudgetError",
    "InvariantError",
    "SeriationReport",
    "TaxicabAxis",
    "TcaDecomposition",
    "block_sums",
    "cut_norm_matrix",
    "deflate",
    "norm_exact",
    "norm_heuristic",
    "rc_axis",
    "seriate",
    "tca",
]

STOP_TOL = 1e-12          # axis cutoff relative to the first dispersion
INDETERMINATE_TOL = 1e-9  # |projection| below this (relative to delta) has arbitrary sign


@dataclass(frozen=True)
class TaxicabAxis:
    """One taxicab principal axis.

    ``a = X u`` and ``b = X' v`` are the row/column projections; at output
    v = sign(a) holds exactly under the sign(0) = +1 convention, and delta
    = ||a||_1 = u'b with sum(a) = sum(b) = 0, checked when the axis is made
    from X; u = sign(b), and so delta = ||b||_1, unless the walk stopped at
    a u it had visited.  ``block_sums``, of the four blocks v and u cut X
    into, are (+c, -c, -c, +c) with c = delta/4; they and the identities
    hold to ``kernels.certificate_slack``'s slack for X.  ``f``/``g`` are
    mass-standardized factor scores, set only when the axis was computed from
    a correspondence matrix.  Coordinates listed in ``*_indeterminate`` have
    projections so small that their sign is arbitrary.
    """

    delta: float
    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    exact: bool
    block_sums: tuple[float, float, float, float]
    f: np.ndarray | None = None
    g: np.ndarray | None = None
    u_indeterminate: tuple[int, ...] = ()
    v_indeterminate: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if not np.all(np.abs(u) == 1.0) or not np.all(np.abs(v) == 1.0):
            raise ValueError("sign vectors must have entries exactly +-1")


@dataclass(frozen=True)
class TcaDecomposition:
    """Ordered taxicab axes of a correspondence matrix.

    Each axis carries its certified block sums on the residual it was
    computed from; ``rank_used`` is the number of retained axes.
    """

    axes: tuple[TaxicabAxis, ...]
    row_masses: np.ndarray
    col_masses: np.ndarray
    rank_used: int


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


def _canonical_state(
    x: np.ndarray,
    state: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float],
    margin: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Flip the axis sign so the largest-magnitude b coordinate is positive.

    A flip whose walk ends more than two ``margin`` below delta is not taken.
    """
    u, v, a, b, delta = state
    if delta <= 0.0:
        return state
    for _ in range(4):
        j = int(np.argmax(np.abs(b)))
        if b[j] >= 0.0:
            break
        flipped = reference_walk(x, -u, margin)
        if flipped[4] < delta - 2.0 * margin:
            break
        u, v, a, b, delta = flipped
    return u, v, a, b, delta


def _axis_from_state(
    x: np.ndarray,
    state: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float],
    slack: float,
    exact: bool,
) -> TaxicabAxis:
    """The axis of a walk's state on x, its identities and block sums checked to ``slack``.

    ``slack`` is ``kernels.certificate_slack``'s for x.
    """
    u, v, a, b, delta = state
    if not delta == float(np.abs(a).sum()):
        raise InvariantError(f"delta {delta!r} is not the sum of |a|")
    for name, value in (("sum(a)", float(a.sum())), ("sum(b)", float(b.sum())),
                        ("u'b - delta", float(u @ b) - delta)):
        if not abs(value) <= slack:
            raise InvariantError(f"{name} is {value!r}, outside the rounding slack {slack!r}")
    sums = check_block_sums(x, delta, slack, v, u)
    if delta > 0.0:
        floor = INDETERMINATE_TOL * delta
        u_ind = tuple(np.flatnonzero(np.abs(b) <= floor).tolist())
        v_ind = tuple(np.flatnonzero(np.abs(a) <= floor).tolist())
    else:
        u_ind = tuple(range(b.size))
        v_ind = tuple(range(a.size))
    return TaxicabAxis(
        delta=delta, u=u, v=v, a=a, b=b, exact=exact, block_sums=sums,
        u_indeterminate=u_ind, v_indeterminate=v_ind,
    )


def norm_exact(X: ResidualMatrix) -> TaxicabAxis:
    """Globally optimal taxicab norm by exhaustive sign enumeration.

    Enumerates 2^(q-1) sign vectors on the smaller side q = min(n, m); the
    other side follows from the transition formulas.  Requires q <=
    ``ENUM_LIMIT``.
    """
    if (width := enum_width(X.shape)) > ENUM_LIMIT:
        raise EnumerationBudgetError(
            f"min dimension {width} exceeds exhaustive budget {ENUM_LIMIT}: "
            "use norm_heuristic"
        )
    x = X.x
    if x.shape[1] <= x.shape[0]:
        _, _, u0 = enumerate_best([x[None]])
    else:
        _, _, v0 = enumerate_best([x.T[None]])
        u0 = sign_pm(x.T @ v0)
    margin, slack = certificate_slack(x)
    state = reference_walk(x, u0, margin)
    return _axis_from_state(x, _canonical_state(x, state, margin), slack, exact=True)


def norm_heuristic(X: ResidualMatrix) -> TaxicabAxis:
    """Taxicab norm lower bound by alternating sign iteration.

    One deterministic restart per column j, seeded with v = sign(column j)
    and u = sign(X' v), then v = sign(X u), u = sign(X' v) until u repeats
    (``kernels.reference_walk``); the best dispersion across restarts wins
    (first restart on ties).  The result is a transition fixed point but
    not necessarily the global optimum.

    ``kernels.best_restart`` walks the restarts in float32 from the rows of
    X', which are X's columns without a copy, and returns the one-at-a-time
    float64 loop's winner, every bit of it.  A matrix holding
    nan or inf raises ``InvariantError`` before the first step.
    """
    x = X.x
    if not np.isfinite(x).all():
        raise InvariantError("norm_heuristic: the matrix holds non-finite values")
    margin, slack = certificate_slack(x)
    state = best_restart(x, x.T)
    return _axis_from_state(x, _canonical_state(x, state, margin), slack, exact=False)


def _best_axis(X: ResidualMatrix, solver: str = "auto") -> TaxicabAxis:
    """The axis that ``solver`` finds on X.

    ``auto`` enumerates within ``ENUM_LIMIT`` and takes the heuristic past it.
    The solver is looked up by its module-level name at each call, so a
    wrapper bound to that name sees every axis.
    """
    if solver == "auto":
        solver = "exact" if enum_width(X.shape) <= ENUM_LIMIT else "heuristic"
    if solver == "exact":
        return norm_exact(X)
    if solver == "heuristic":
        return norm_heuristic(X)
    raise ValueError(f"unknown solver {solver!r}")


def deflate(X: ResidualMatrix, axis: TaxicabAxis) -> ResidualMatrix:
    """Rank-1 reduction X - a b'/delta; stays double-centered, rank drops by 1."""
    if axis.delta <= 0.0:
        raise ValueError("cannot deflate null axis")
    e = int(np.frexp(axis.delta)[1])  # a and delta over 2^e: a b' in range at every scale
    x = np.outer(np.ldexp(axis.a, -e), axis.b)
    x /= np.ldexp(axis.delta, -e)
    np.subtract(X.x, x, out=x)
    x.setflags(write=False)
    return ResidualMatrix(x=x, scale=X.scale)


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
        if len(axes) < cap:
            X = deflate(X, axis)
    return TcaDecomposition(
        axes=tuple(axes),
        row_masses=P.row_masses,
        col_masses=P.col_masses,
        rank_used=len(axes),
    )


def _grouped_order(signs: np.ndarray, scores: np.ndarray) -> tuple[int, ...]:
    """Indices of the +1 signs, then the -1 ones, each by descending score, ties in index order."""
    return tuple(np.lexsort((-scores, signs < 0)).tolist())


def _seriation_from_axis(
    axis: TaxicabAxis,
    row_scores: np.ndarray | None = None,
    col_scores: np.ndarray | None = None,
) -> SeriationReport:
    rs = axis.a if row_scores is None else row_scores
    cs = axis.b if col_scores is None else col_scores
    return SeriationReport(
        s_opt=tuple(np.flatnonzero(axis.v > 0).tolist()),
        t_opt=tuple(np.flatnonzero(axis.u > 0).tolist()),
        block_sums=axis.block_sums,
        cut_norm=axis.block_sums[0],
        row_order=_grouped_order(axis.v, rs),
        col_order=_grouped_order(axis.u, cs),
    )


def cut_norm_matrix(X: ResidualMatrix) -> SeriationReport:
    """Cut-norm of a double-centered matrix with its 4-block certificate.

    S and T are the positive-sign index sets of the optimal axis; the four
    block sums are the axis's own, (+c, -c, -c, +c) with c = cut_norm =
    delta/4, each checked to ``kernels.certificate_slack``'s slack.
    """
    return _seriation_from_axis(_best_axis(X))


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
    heavy_rows = tuple(np.flatnonzero(np.abs(rc_rows - 0.5) <= HEAVYWEIGHT_TOL).tolist())
    heavy_cols = tuple(np.flatnonzero(np.abs(rc_cols - 0.5) <= HEAVYWEIGHT_TOL).tolist())
    cells = tuple((i, j) for i in heavy_rows for j in heavy_cols)
    return AxisContributions(
        rc_rows=tuple(rc_rows.tolist()),
        rc_cols=tuple(rc_cols.tolist()),
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
    return _seriation_from_axis(axis, row_scores=axis.f, col_scores=axis.g)
