"""Correspondence matrices and centered residual arrays.

A correspondence matrix is a nonnegative matrix normalized to total 1 with
row/column masses.  Its multiplicative residual against the independence model
is double-centered (all row and column sums vanish), as is the additive
double-centering of an arbitrary matrix.  The three-way analogue removes all
main effects and two-way interactions, leaving an array whose fibers all sum
to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "CorrespondenceMatrix":
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
        return cls(p=p, row_masses=row_masses, col_masses=col_masses)


def from_counts(counts: np.ndarray) -> CorrespondenceMatrix:
    """Build a CorrespondenceMatrix from a nonnegative count matrix."""
    return CorrespondenceMatrix.from_counts(counts)


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


def _check_overflow(x: np.ndarray, scale: float, step: str) -> None:
    """Reject finite input whose centering or L1 mass left the float64 range."""
    if not (np.isfinite(scale) and np.all(np.isfinite(x))):
        raise ValueError(f"{step} overflows float64: input values too large")


@dataclass(frozen=True)
class ResidualMatrix:
    """Double-centered matrix: every row sum and column sum is zero.

    Centering is validated relative to ``scale`` (see ``centering_scale``):
    sum(p) for a correspondence residual, sum(|y|) for an additive one and
    the parent's scale for a deflated one.  It defaults to the entrywise L1
    mass.
    """

    x: np.ndarray
    kind: str = "additive"
    scale: float | None = None

    _KINDS = ("multiplicative", "additive", "deflated")

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _readonly(self.x))
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown residual kind {self.kind!r}")
        x = self.x
        if x.ndim != 2 or x.size == 0:
            raise ValueError("residual matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(x)):
            raise ValueError("residual matrix contains non-finite values")
        object.__setattr__(self, "scale", centering_scale(
            x, self.scale, "matrix is not double-centered"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape


def correspondence_residual(P: CorrespondenceMatrix) -> ResidualMatrix:
    """Residual of P against the independence model: x_ij = p_ij - p_i* p_*j."""
    x = np.outer(P.row_masses, P.col_masses)
    np.subtract(P.p, x, out=x)
    x.setflags(write=False)
    return ResidualMatrix(x=x, kind="multiplicative", scale=float(P.p.sum()))


def additive_double_center(Y: np.ndarray) -> ResidualMatrix:
    """Additive two-way interactions: y_ij - rowmean_i - colmean_j + grandmean."""
    y = np.asarray(Y, dtype=float)
    if y.ndim != 2 or y.size == 0:
        raise ValueError("input must be a nonempty 2-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        x = y - y.mean(axis=1, keepdims=True) - y.mean(axis=0, keepdims=True) + y.mean()
        scale = float(np.abs(y).sum())
    _check_overflow(x, scale, "double centering")
    x.setflags(write=False)
    return ResidualMatrix(x=x, kind="additive", scale=scale)


@dataclass(frozen=True)
class Tensor3:
    """Triple-centered 3-way array: all mode-wise fiber sums are zero.

    Centering is validated as for ``ResidualMatrix``: relative to sum(|y|)
    when built by ``triple_center``, else to the entrywise L1 mass.
    """

    x: np.ndarray
    scale: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _readonly(self.x))
        x = self.x
        if x.ndim != 3 or x.size == 0:
            raise ValueError("tensor must be a nonempty 3-d array")
        if not np.all(np.isfinite(x)):
            raise ValueError("tensor contains non-finite values")
        object.__setattr__(self, "scale", centering_scale(
            x, self.scale, "tensor is not triple-centered"))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.x.shape


def triple_center(Y: np.ndarray) -> Tensor3:
    """Additive three-way interactions of a 3-way array.

    Subtracts all three two-way means, adds back the three one-way means,
    and subtracts the grand mean, leaving an array whose fibers along every
    mode sum to zero.
    """
    y = np.asarray(Y, dtype=float)
    if y.ndim != 3 or y.size == 0:
        raise ValueError("input must be a nonempty 3-d array")
    if not np.all(np.isfinite(y)):
        raise ValueError("input contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        m_ij = y.mean(axis=2, keepdims=True)
        m_ik = y.mean(axis=1, keepdims=True)
        m_jk = y.mean(axis=0, keepdims=True)
        m_i = y.mean(axis=(1, 2), keepdims=True)
        m_j = y.mean(axis=(0, 2), keepdims=True)
        m_k = y.mean(axis=(0, 1), keepdims=True)
        x = y - m_ij - m_ik - m_jk + m_i + m_j + m_k - y.mean()
        scale = float(np.abs(y).sum())
    _check_overflow(x, scale, "triple centering")
    x.setflags(write=False)
    return Tensor3(x=x, scale=scale)
