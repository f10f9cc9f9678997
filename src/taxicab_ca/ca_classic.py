"""Classical correspondence analysis via LAPACK's SVD.

Standard CA: singular value decomposition of the standardized residuals
s_ij = (p_ij - p_i* p_*j) / sqrt(p_i* p_*j), factor scores scaled by the
masses, and per-axis contributions mass * score^2 / inertia.  Contributions
here can concentrate arbitrarily close to 1 on a single point, unlike the
taxicab variant where they are capped at 1/2; ``compare_ca_tca`` puts the two
side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .residual import CorrespondenceMatrix
from .taxicab import rc_axis, tca

__all__ = [
    "CaDecomposition",
    "CaTcaComparison",
    "PointComparison",
    "ca",
    "compare_ca_tca",
    "jacobi_svd",
]

# CA singular values are canonical correlations in [0, 1]; below this they are
# rounding noise, whatever the first one is
_RANK_TOL = 1e-12


def jacobi_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact SVD M = U diag(s) V' (k = min(n, m)), singular values descending.

    The name is historical: the decomposition is LAPACK's ``np.linalg.svd``,
    which replaced a one-sided Jacobi routine.  Each axis is signed so that the
    largest |entry| of its column of V is positive (the first one on ties), as
    ``taxicab._canonical_state`` makes the largest |b| of a TCA axis positive.
    Raises ValueError on empty, non-2-d or non-finite input.
    """
    A = np.array(M, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("input must be a nonempty 2-d array")
    if not np.all(np.isfinite(A)):
        raise ValueError("input contains non-finite values")
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    signs = np.sign(Vt[np.arange(s.size), np.argmax(np.abs(Vt), axis=1)])
    return U * signs, s, Vt.T * signs


@dataclass(frozen=True)
class CaDecomposition:
    """Classical CA axes: singular values, inertias, scores and contributions.

    Arrays are axis-major: ``row_scores[k]`` is the length-n score vector of
    axis k+1.  Contributions per axis sum to 1 over rows and over columns,
    and the principal inertias sum to the total inertia.
    """

    singular_values: np.ndarray
    principal_inertias: np.ndarray
    row_scores: np.ndarray
    col_scores: np.ndarray
    row_ctr: np.ndarray
    col_ctr: np.ndarray
    total_inertia: float
    row_masses: np.ndarray
    col_masses: np.ndarray

    @property
    def n_axes(self) -> int:
        return int(self.singular_values.size)


def ca(P: CorrespondenceMatrix, max_axes: int | None = None) -> CaDecomposition:
    """Correspondence analysis of P, keeping axes with nonnegligible inertia."""
    if max_axes is not None and max_axes < 0:
        raise ValueError("max_axes must be nonnegative")
    expected = np.outer(P.row_masses, P.col_masses)
    S = (P.p - expected) / np.sqrt(expected)
    total_inertia = float((S**2).sum())
    U, s, V = jacobi_svd(S)
    keep = int(np.count_nonzero(s > _RANK_TOL))
    if max_axes is not None:
        keep = min(keep, max_axes)
    U, s, V = U[:, :keep], s[:keep], V[:, :keep]
    inv_sqrt_r = 1.0 / np.sqrt(P.row_masses)
    inv_sqrt_c = 1.0 / np.sqrt(P.col_masses)
    row_scores = (s[None, :] * U * inv_sqrt_r[:, None]).T
    col_scores = (s[None, :] * V * inv_sqrt_c[:, None]).T
    # every kept axis has s > _RANK_TOL, so the divisions are safe
    row_ctr = P.row_masses[None, :] * row_scores**2 / (s**2)[:, None]
    col_ctr = P.col_masses[None, :] * col_scores**2 / (s**2)[:, None]
    return CaDecomposition(
        singular_values=s,
        principal_inertias=s**2,
        row_scores=row_scores,
        col_scores=col_scores,
        row_ctr=row_ctr,
        col_ctr=col_ctr,
        total_inertia=total_inertia,
        row_masses=P.row_masses,
        col_masses=P.col_masses,
    )


@dataclass(frozen=True)
class PointComparison:
    label: str
    ca_contribution: float
    tca_contribution: float


@dataclass(frozen=True)
class CaTcaComparison:
    """Per-point CA vs TCA contributions on one axis that both analyses computed."""

    axis: int
    rows: tuple[PointComparison, ...]
    cols: tuple[PointComparison, ...]
    ca_max_contribution: float
    tca_max_contribution: float


def compare_ca_tca(
    P: CorrespondenceMatrix,
    axis: int,
    row_labels: tuple[str, ...] | None = None,
    col_labels: tuple[str, ...] | None = None,
) -> CaTcaComparison:
    """Side-by-side CA and TCA contributions on a 1-based axis.

    An axis that CA or TCA lacks raises ``ValueError``, as ``taxicab.rc_axis``
    does.
    """
    if axis < 1:
        raise ValueError("axis must be >= 1")
    n, m = P.shape
    if row_labels is None:
        row_labels = tuple(f"row{i}" for i in range(n))
    if col_labels is None:
        col_labels = tuple(f"col{j}" for j in range(m))
    for name, labels, size in (("row", row_labels, n), ("column", col_labels, m)):
        if len(labels) != size:
            raise ValueError(f"expected {size} {name} labels, got {len(labels)}")
    ca_dec = ca(P, max_axes=axis)
    if ca_dec.n_axes < axis:
        raise ValueError(f"axis {axis} not computed")
    contrib = rc_axis(tca(P, max_axes=axis), axis)
    k = axis - 1
    rows = tuple(
        PointComparison(label, float(ca_dec.row_ctr[k, i]), contrib.rc_rows[i])
        for i, label in enumerate(row_labels)
    )
    cols = tuple(
        PointComparison(label, float(ca_dec.col_ctr[k, j]), contrib.rc_cols[j])
        for j, label in enumerate(col_labels)
    )
    all_ca = [p.ca_contribution for p in rows + cols]
    all_tca = [p.tca_contribution for p in rows + cols]
    return CaTcaComparison(
        axis=axis, rows=rows, cols=cols,
        ca_max_contribution=max(all_ca), tca_max_contribution=max(all_tca),
    )
