"""Univariate dispersion statistics and their gain-function optimality certificates.

Three dispersion measures of a sample: the mean absolute deviation about the
mean ``d``, the population variance/standard deviation ``s2``/``s``, and the
mean absolute deviation about the median (``lad``).  Each maximizes a gain
function over sign vectors (or the unit sphere), and ``d`` equals twice the
cut-norm of the centered sample.  Relative contributions per element quantify
robustness: contributions to ``d`` are bounded by 1/2, contributions to the
variance can approach (but never reach) 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .residual import CENTERING_TOL

__all__ = [
    "HEAVYWEIGHT_TOL",
    "DispersionReport",
    "center",
    "cut_norm_vec",
    "gain_d",
    "gain_s",
    "lad",
    "mad_mean",
    "median",
    "relative_contributions",
    "sign_pm",
    "variance_and_std",
]

HEAVYWEIGHT_TOL = 1e-10


def sign_pm(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sign with the convention sign(0) = +1; entries are exactly +-1.

    -0.0 maps to +1 and nan to -1.  The comparison is cast to x's float
    type and mapped to +-1 in place, a few times cheaper than ``np.where``
    with two scalar branches.  A float32 x gives a float32 result, without a
    float64 copy; anything else is compared as float64.  ``out``, a float
    array of x's shape, receives the result when given.
    """
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = np.asarray(x, dtype=float)
    if out is None:
        out = np.asarray(x >= 0.0, dtype=x.dtype)
    else:
        np.greater_equal(x, 0.0, out=out)
    out *= 2.0
    out -= 1.0
    return out


def _as_sample(values: Sequence[float] | np.ndarray) -> np.ndarray:
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        y = y.reshape(-1)
    if y.size == 0:
        raise ValueError("empty sample")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample contains non-finite values")
    return y


def _statistic(name: str, compute: Callable[[], Any]) -> Any:
    """``compute()``, raising ``ValueError`` naming ``name`` if it overflows.

    A scalar comes back as a float, an array as it is.  Overflow warnings
    are silenced inside: a statistic of finite values that is not finite
    has overflowed float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} overflows float64: sample values too large")
    return value if isinstance(value, np.ndarray) else float(value)


def mad_mean(values: Sequence[float] | np.ndarray) -> float:
    """Mean absolute deviation about the mean: sum |y_i - mean| / n."""
    y = _as_sample(values)
    return _statistic("d", lambda: np.abs(y - y.mean()).sum() / y.size)


def variance_and_std(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Population variance (divisor n) and standard deviation."""
    y = _as_sample(values)
    s2 = _statistic("s2", lambda: ((y - y.mean()) ** 2).sum() / y.size)
    return s2, float(np.sqrt(s2))


def median(values: Sequence[float] | np.ndarray) -> float:
    """Sample median; for even n, the midpoint of the two middle order statistics."""
    y = np.sort(_as_sample(values))
    mid, odd = divmod(y.size, 2)
    return _statistic("median", lambda: y[mid] if odd else 0.5 * (y[mid - 1] + y[mid]))


def lad(values: Sequence[float] | np.ndarray) -> float:
    """Mean absolute deviation about the median: sum |y_i - median| / n.

    Also the gain maximum of (y - median 1)'u/n over sign vectors u.
    """
    y = _as_sample(values)
    med = median(y)
    return _statistic("lad", lambda: np.abs(y - med).sum() / y.size)


def center(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Centered sample x = y - mean(y); entries sum to zero up to rounding.

    Raises ``ValueError`` naming ``mean`` or ``x`` if either overflows float64.
    """
    y = _as_sample(values)
    mean_ = _statistic("mean", y.mean)
    return _statistic("x", lambda: y - mean_)


def _check_centered(x: np.ndarray, tol: float) -> None:
    mass = float(np.abs(x).sum())
    if mass <= tol:
        return
    if abs(float(x.sum())) > tol * mass:
        raise ValueError("not centered")


def cut_norm_vec(
    x: Sequence[float] | np.ndarray, tol: float = CENTERING_TOL
) -> tuple[float, tuple[int, ...]]:
    """Cut-norm of a centered vector: the largest subset sum.

    For a centered x the maximizing subset is exactly the nonnegative entries,
    so the value is computed in closed form.  Returns ``(value, indices)``
    where ``indices`` are the 0-based positions of the maximizing subset.

    Raises:
        ValueError: if x is empty, holds nan or inf, or is not centered
            within ``tol`` (relative to the entrywise L1 mass; an all-zero
            vector is trivially centered).
    """
    x = _as_sample(x)
    _check_centered(x, tol)
    mask = x >= 0.0
    value = float(x[mask].sum())
    return value, tuple(np.flatnonzero(mask).tolist())


def gain_d(
    x: Sequence[float] | np.ndarray, tol: float = CENTERING_TOL
) -> tuple[float, np.ndarray]:
    """Maximum of x'u/n over sign vectors u, with the maximizing u.

    Equals twice the cut-norm divided by n, hence equals ``mad_mean`` of the
    original sample, and like it raises ``ValueError`` naming ``d`` if that
    overflows float64, and on an empty sample or one holding nan or inf.
    The maximizer puts +1 on nonnegative entries.
    """
    x = _as_sample(x)
    value = _statistic("d", lambda: 2.0 * cut_norm_vec(x, tol)[0] / x.size)
    return value, sign_pm(x)


def gain_s(values: Sequence[float] | np.ndarray) -> float:
    """Maximum of (y - mean 1)'u/sqrt(n) over unit-L2 u; equals the std dev."""
    y = _as_sample(values)
    return _statistic("s", lambda: np.linalg.norm(y - y.mean()) / np.sqrt(y.size))


@dataclass(frozen=True)
class DispersionReport:
    """All three dispersion measures with per-element relative contributions.

    ``rc_*`` lists are empty and ``degenerate`` is True for zero-dispersion
    (constant) samples.  ``heavyweight_indices`` are the elements whose
    contribution to d attains the 1/2 bound.
    """

    d: float
    s: float
    s2: float
    lad: float
    median: float
    mean: float
    rc_d: tuple[float, ...]
    rc_s2: tuple[float, ...]
    rc_lad: tuple[float, ...]
    heavyweight_indices: tuple[int, ...]
    degenerate: bool


def relative_contributions(values: Sequence[float] | np.ndarray) -> DispersionReport:
    """Per-element relative contributions to d, s2 and lad, with heavyweights.

    Raises ``ValueError`` naming the first statistic that overflows float64.
    """
    y = _as_sample(values)
    n = y.size
    mean_ = _statistic("mean", y.mean)
    med = median(y)
    d = mad_mean(y)
    s2, s = variance_and_std(y)
    lad_ = lad(y)
    if d <= 0.0:
        return DispersionReport(
            d=d, s=s, s2=s2, lad=lad_, median=med, mean=mean_,
            rc_d=(), rc_s2=(), rc_lad=(),
            heavyweight_indices=(), degenerate=True,
        )
    abs_dev = np.abs(y - mean_)
    rc_d = abs_dev / (n * d)
    rc_s2 = abs_dev**2 / (n * s2)
    rc_lad = np.abs(y - med) / (n * lad_)
    heavy = np.flatnonzero(np.abs(rc_d - 0.5) <= HEAVYWEIGHT_TOL)
    return DispersionReport(
        d=d, s=s, s2=s2, lad=lad_, median=med, mean=mean_,
        rc_d=tuple(rc_d.tolist()),
        rc_s2=tuple(rc_s2.tolist()),
        rc_lad=tuple(rc_lad.tolist()),
        heavyweight_indices=tuple(heavy.tolist()),
        degenerate=False,
    )
