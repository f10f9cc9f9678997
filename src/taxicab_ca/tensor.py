"""Tensor sign norm of triple-centered 3-way arrays with 8-block certificates.

The norm maximizes the trilinear form sum_ijk u_i v_j w_k x_ijk over sign
vectors on all three modes.  For a triple-centered array the optimum splits
the index cube into eight octants whose block sums all have magnitude
delta/8, the sign given by the parity of complemented subsets.  Only the
single-axis norm is defined for tensors; there is no deflation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .dispersion import sign_pm
from .residual import Tensor3

__all__ = [
    "OctantReport",
    "TensorAxis",
    "octant_report",
    "tensor_norm",
    "tensor_norm_exact",
    "tensor_norm_heuristic",
]


@dataclass(frozen=True)
class TensorAxis:
    """Optimal sign vectors of the trilinear norm with the octant certificate.

    ``u``, ``v``, ``w`` are sign vectors over the first, second and third
    mode; ``delta`` is the attained trilinear value and each octant block sum
    has magnitude delta/8 with sign equal to the parity of complemented sets,
    checked when the axis is made from X.
    """

    delta: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    octant_sums: tuple[float, ...]
    exact: bool

    def __post_init__(self) -> None:
        for vec in (self.u, self.v, self.w):
            if not np.all(np.abs(np.asarray(vec, dtype=float)) == 1.0):
                raise ValueError("sign vectors must have entries exactly +-1")
        if len(self.octant_sums) != 8:
            raise ValueError("expected eight octant sums")


@dataclass(frozen=True)
class OctantReport:
    """The eight octant block sums with the optimal subset triple."""

    sums: tuple[float, ...]
    s_opt: tuple[int, ...]
    t_opt: tuple[int, ...]
    w_opt: tuple[int, ...]


def _axis_from_signs(x: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                     exact: bool, slack: float) -> TensorAxis:
    """The axis of three sign vectors, its octant sums checked to ``slack``.

    ``slack`` is ``kernels.certificate_slack``'s for x.
    """
    delta = float(np.einsum("ijk,i,j,k->", x, u, v, w))
    sums = kernels.check_block_sums(x, delta, slack, u, v, w)
    return TensorAxis(delta=delta, u=u, v=v, w=w, octant_sums=sums, exact=exact)


def tensor_norm_exact(X: Tensor3) -> TensorAxis:
    """Globally optimal tensor sign norm by enumerating the two smallest modes.

    ``kernels.exact_signs`` finds the signs, and states the pinning and the
    tie rule.  The two smallest mode sizes must sum to at most
    ``kernels.ENUM_LIMIT``; past it ``kernels.over_budget``'s refusal is raised.
    """
    x = X.x
    return _axis_from_signs(x, *kernels.exact_signs(x, "tensor_norm_heuristic"), exact=True,
                            slack=kernels.certificate_slack(x)[1])


def tensor_norm_heuristic(X: Tensor3) -> TensorAxis:
    """Tensor sign norm lower bound by cyclic alternating sign updates.

    One deterministic restart per second-mode slice: the slice's heaviest
    column seeds starting signs for the first and third modes, then the three
    modes are updated cyclically until the sign triple repeats.  The trilinear
    value is non-decreasing within each run; a step whose value falls by
    more than two margins of ``kernels.certificate_slack`` raises.
    """
    x = X.x
    n, m, t = x.shape
    margin, slack = kernels.certificate_slack(x)
    best: tuple[float, np.ndarray, np.ndarray, np.ndarray] | None = None
    for j in range(m):
        slab = x[:, j, :]
        k0 = int(np.argmax(np.abs(slab).sum(axis=0)))
        u = sign_pm(slab[:, k0])
        w = sign_pm(slab.T @ u)
        v = sign_pm(np.einsum("ijk,i,k->j", x, u, w))
        delta_prev = -np.inf
        seen = {(u.tobytes(), v.tobytes(), w.tobytes())}
        while True:
            u = sign_pm(np.einsum("ijk,j,k->i", x, v, w))
            v = sign_pm(np.einsum("ijk,i,k->j", x, u, w))
            fiber = np.einsum("ijk,i,j->k", x, u, v)
            w = sign_pm(fiber)
            delta = float(np.abs(fiber).sum())
            if not delta >= delta_prev - 2.0 * margin:
                raise kernels.InvariantError(
                    f"trilinear value decreased from {delta_prev!r} to {delta!r}")
            delta_prev = delta
            key = (u.tobytes(), v.tobytes(), w.tobytes())
            if key in seen:
                break
            seen.add(key)
        if best is None or delta_prev > best[0]:
            best = (delta_prev, u, v, w)
    _, u, v, w = best
    return _axis_from_signs(x, u, v, w, exact=False, slack=slack)


def tensor_norm(X: Tensor3) -> TensorAxis:
    """Tensor sign norm, exact when the two smallest mode sizes sum to at most
    ``kernels.ENUM_LIMIT`` and the heuristic lower bound otherwise."""
    if kernels.over_budget(X.shape, "tensor_norm_heuristic"):
        return tensor_norm_heuristic(X)
    return tensor_norm_exact(X)


def octant_report(X: Tensor3, axis: TensorAxis) -> OctantReport:
    """Eight octant block sums of X with the subset triple of a computed axis.

    The sums are the axis's own ``octant_sums``: the solver that made the
    axis from X has summed the octants already.  An axis whose sign vectors
    do not fit the shape of X raises ``ValueError``.
    """
    if (axis.u.size, axis.v.size, axis.w.size) != X.shape:
        raise ValueError(f"axis of sign lengths {(axis.u.size, axis.v.size, axis.w.size)} "
                         f"does not fit a tensor of shape {X.shape}")
    return OctantReport(
        sums=axis.octant_sums,
        s_opt=tuple(np.flatnonzero(axis.u > 0).tolist()),
        t_opt=tuple(np.flatnonzero(axis.v > 0).tolist()),
        w_opt=tuple(np.flatnonzero(axis.w > 0).tolist()),
    )
