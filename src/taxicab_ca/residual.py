"""Correspondence matrices and centered residual arrays.

A correspondence matrix is a nonnegative matrix normalized to total 1 with
row/column masses.  Its multiplicative residual against the independence model
is double-centered (all row and column sums vanish).  The additive
double-centering of an arbitrary matrix and the triple-centering of a 3-way
array are one inclusion-exclusion over the sets of modes, which removes every
lower-order effect and leaves an array whose fibers all sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import ClassVar, TypeVar

import numpy as np

__all__ = [
    "CENTERING_TOL",
    "CorrespondenceMatrix",
    "ResidualMatrix",
    "Tensor3",
    "additive_double_center",
    "centering_scale",
    "correspondence_residual",
    "from_counts",
    "triple_center",
]

CENTERING_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a`` if it is a read-only float64 array that owns its data, else a read-only copy."""
    if type(a) is not np.ndarray or a.dtype != float or a.flags.writeable or not a.flags.owndata:
        a = np.array(a, dtype=float)
        a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CorrespondenceMatrix:
    """Nonnegative matrix summing to 1, with row masses p_i* and column masses p_*j."""

    p: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _readonly(self.p))
        object.__setattr__(self, "row_masses", _readonly(self.row_masses))
        object.__setattr__(self, "col_masses", _readonly(self.col_masses))
        p = self.p
        if p.ndim != 2 or p.size == 0:
            raise ValueError("correspondence matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("correspondence matrix contains non-finite values")
        if np.any(p < 0):
            raise ValueError("correspondence matrix has negative entries")
        if abs(float(p.sum()) - 1.0) > CENTERING_TOL:
            raise ValueError("correspondence matrix does not sum to 1")
        if not np.allclose(self.row_masses, p.sum(axis=1), rtol=0, atol=CENTERING_TOL):
            raise ValueError("row masses inconsistent with matrix")
        if not np.allclose(self.col_masses, p.sum(axis=0), rtol=0, atol=CENTERING_TOL):
            raise ValueError("column masses inconsistent with matrix")
        zero_rows = np.flatnonzero(self.row_masses == 0)
        if zero_rows.size:
            raise ValueError(f"row {int(zero_rows[0])} has zero mass")
        zero_cols = np.flatnonzero(self.col_masses == 0)
        if zero_cols.size:
            raise ValueError(f"column {int(zero_cols[0])} has zero mass")

    @property
    def shape(self) -> tuple[int, int]:
        return self.p.shape


def from_counts(counts: np.ndarray) -> CorrespondenceMatrix:
    """Normalize a nonnegative count matrix by its grand total."""
    c = np.asarray(counts, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError("counts must be a nonempty 2-d array")
    if not np.all(np.isfinite(c)):
        raise ValueError("counts contain non-finite values")
    if np.any(c < 0):
        i, j = np.argwhere(c < 0)[0]
        raise ValueError(f"negative count at row {int(i)}, column {int(j)}")
    with np.errstate(over="ignore"):
        total = float(c.sum())
    if not np.isfinite(total):
        raise ValueError("counts total overflows float64")
    if total <= 0.0:
        raise ValueError("zero total")
    row_sums = c.sum(axis=1)
    col_sums = c.sum(axis=0)
    zr = np.flatnonzero(row_sums == 0)
    if zr.size:
        raise ValueError(f"row {int(zr[0])} is all zero")
    zc = np.flatnonzero(col_sums == 0)
    if zc.size:
        raise ValueError(f"column {int(zc[0])} is all zero")
    # frozen buffers are kept by _readonly, not copied
    p, row_masses, col_masses = c / total, row_sums / total, col_sums / total
    for a in (p, row_masses, col_masses):
        a.setflags(write=False)
    return CorrespondenceMatrix(p=p, row_masses=row_masses, col_masses=col_masses)


def centering_scale(x: np.ndarray, scale: float | None, error: str) -> float:
    """Check that every line of ``x`` sums to zero within CENTERING_TOL * scale.

    ``scale`` is the L1 mass of what ``x`` was computed from: the rounding of
    a centering step grows with its input, which near independence is far
    larger than the residual itself.  ``None`` means the entrywise L1 mass
    of ``x``.  A scale below the tolerance counts as (numerically) zero, so
    ``x`` is trivially centered.  Returns the scale.
    """
    scale = float(np.abs(x).sum()) if scale is None else float(scale)
    if not (np.isfinite(scale) and scale >= 0.0):
        raise ValueError("centering scale must be finite and nonnegative")
    if scale > CENTERING_TOL:
        worst = max(float(np.abs(x.sum(axis=axis)).max()) for axis in range(x.ndim))
        if worst > CENTERING_TOL * scale:
            raise ValueError(error)
    return scale


@dataclass(frozen=True)
class _Centered:
    """Array of ``_ndim`` modes whose fibers along every mode sum to zero.

    Centering is validated relative to ``scale`` (see ``centering_scale``);
    it defaults to the entrywise L1 mass.  A subclass names its number of
    modes and the words of its errors.
    """

    x: np.ndarray
    scale: float | None = None

    _ndim: ClassVar[int]
    _noun: ClassVar[str]
    _uncentered: ClassVar[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _readonly(self.x))
        x = self.x
        if x.ndim != self._ndim or x.size == 0:
            raise ValueError(f"{self._noun} must be a nonempty {self._ndim}-d array")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{self._noun} contains non-finite values")
        object.__setattr__(self, "scale", centering_scale(x, self.scale, self._uncentered))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.x.shape


class ResidualMatrix(_Centered):
    """Double-centered matrix: every row sum and column sum is zero.

    ``scale`` is sum(p) for a correspondence residual, sum(|y|) for an
    additive one and the parent's scale for a deflated one.
    """

    _ndim, _noun, _uncentered = 2, "residual matrix", "matrix is not double-centered"


class Tensor3(_Centered):
    """Triple-centered 3-way array: all mode-wise fiber sums are zero.

    ``scale`` is sum(|y|) when built by ``triple_center``.
    """

    _ndim, _noun, _uncentered = 3, "tensor", "tensor is not triple-centered"


_CenteredT = TypeVar("_CenteredT", bound=_Centered)


def _interactions(Y: np.ndarray, centered: type[_CenteredT], step: str) -> _CenteredT:
    """The highest-order interactions of Y, as a ``centered`` array.

    Inclusion-exclusion over the sets of modes: subtract the means over each
    single mode, add back the means over each pair, and so on with
    alternating signs up to the grand mean.  The sets of each size come in
    ``combinations`` order of the modes taken last to first.  ``step`` names
    the centering when it overflows.
    """
    d = centered._ndim
    y = np.asarray(Y, dtype=float)
    if y.ndim != d or y.size == 0:
        raise ValueError(f"input must be a nonempty {d}-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        x = y.copy(order="K")
        for k in range(1, d + 1):
            signed = np.subtract if k % 2 else np.add
            for modes in combinations(range(d - 1, -1, -1), k):
                signed(x, y.mean(axis=modes, keepdims=True), out=x)
        scale = float(np.abs(y).sum())
    if not (np.isfinite(scale) and np.all(np.isfinite(x))):
        raise ValueError(f"{step} overflows float64: input values too large")
    x.setflags(write=False)
    return centered(x=x, scale=scale)


def correspondence_residual(P: CorrespondenceMatrix) -> ResidualMatrix:
    """Residual of P against the independence model: x_ij = p_ij - p_i* p_*j."""
    x = np.outer(P.row_masses, P.col_masses)
    np.subtract(P.p, x, out=x)
    x.setflags(write=False)
    return ResidualMatrix(x=x, scale=float(P.p.sum()))


def additive_double_center(Y: np.ndarray) -> ResidualMatrix:
    """Additive two-way interactions: y_ij - rowmean_i - colmean_j + grandmean."""
    return _interactions(Y, ResidualMatrix, "double centering")


def triple_center(Y: np.ndarray) -> Tensor3:
    """Additive three-way interactions of a 3-way array.

    Subtracts all three two-way means, adds back the three one-way means,
    and subtracts the grand mean, leaving an array whose fibers along every
    mode sum to zero.
    """
    return _interactions(Y, Tensor3, "triple centering")
