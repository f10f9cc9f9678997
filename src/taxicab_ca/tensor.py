"""Tensor sign norm of triple-centered 3-way arrays with 8-block certificates.

The norm maximizes the trilinear form sum_ijk u_i v_j w_k x_ijk over sign
vectors on all three modes.  For a triple-centered array the optimum splits
the index cube into eight octants whose block sums all have magnitude
delta/8, the sign given by the parity of complemented subsets.  Only the
single-axis norm is defined for tensors; there is no deflation.

The exact norm contracts the first enumerated mode with each of its sign
vectors, ``_ENUM_BLOCK_BYTES`` of contracted matrices at a time, and hands
those stacks, each built once, to the matrix kernel
``taxicab._enumerate_best``.  The kernel screens every (first-mode,
second-mode) sign pair of a stack in float32, keeps only the best screened
score of each matrix and prefix, and rescores in float64, with the matrix
search's own arithmetic, only the matrices and prefixes within the proven
rounding margin (``taxicab._rounding_margin``) of the stack's screened best
and of the best float64 score so far, so the signs, and every report byte,
are those of scanning all pairs in float64.  The calling thread casts
each stack to float32 once and allocates every buffer; the shares of a
stack with ``taxicab._SHARE_WORK`` table entries each (11 x 11 x 72 and
11 x 11 x 48 have) only scan its matrices, one share per usable CPU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import sign_pm
from .residual import Tensor3
from .taxicab import (
    _ASCENT_SLACK,
    _ENUM_BLOCK_BYTES,
    _IDENTITY_TOL,
    EnumerationBudgetError,
    InvariantError,
    _enumerate_best,
    _sign_grid,
)

__all__ = [
    "TENSOR_ENUM_LIMIT",
    "OctantReport",
    "TensorAxis",
    "octant_report",
    "tensor_norm",
    "tensor_norm_exact",
    "tensor_norm_heuristic",
]

TENSOR_ENUM_LIMIT = 22  # sum of the two smallest mode sizes

# octant order: (S,T,W),(S,T,W~),(S,T~,W),(S,T~,W~),(S~,T,W),(S~,T,W~),(S~,T~,W),(S~,T~,W~)
_OCTANT_SIGNS = (1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class TensorAxis:
    """Optimal sign vectors of the trilinear norm with the octant certificate.

    ``u``, ``v``, ``w`` are sign vectors over the first, second and third
    mode; ``delta`` is the attained trilinear value and each octant block sum
    has magnitude delta/8 with sign equal to the parity of complemented sets.
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
        slack = _IDENTITY_TOL * (1.0 + abs(self.delta))
        eighth = self.delta / 8.0
        for sum_, sign in zip(self.octant_sums, _OCTANT_SIGNS):
            if abs(sum_ - sign * eighth) > slack:
                raise ValueError("octant sums violate the 8-equal-parts identity")


@dataclass(frozen=True)
class OctantReport:
    """The eight octant block sums with the optimal subset triple."""

    sums: tuple[float, ...]
    s_opt: tuple[int, ...]
    t_opt: tuple[int, ...]
    w_opt: tuple[int, ...]


def _octant_sums(x: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> tuple[float, ...]:
    mi, mj, mk = u > 0, v > 0, w > 0
    sums = []
    for si in (mi, ~mi):
        for sj in (mj, ~mj):
            for sk in (mk, ~mk):
                sums.append(float(x[np.ix_(si, sj, sk)].sum()))
    return tuple(sums)


def _axis_from_signs(x: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray,
                     exact: bool) -> TensorAxis:
    delta = float(np.einsum("ijk,i,j,k->", x, u, v, w))
    return TensorAxis(delta=delta, u=u, v=v, w=w,
                      octant_sums=_octant_sums(x, u, v, w), exact=exact)


def tensor_norm_exact(X: Tensor3) -> TensorAxis:
    """Globally optimal tensor sign norm by enumerating the two smallest modes.

    Sign symmetry pins the first entry of both enumerated vectors to +1; the
    third mode's optimal signs follow from the contracted fiber sums.  On
    ties the lexicographically first (first-mode, second-mode) pair wins.
    The two smallest mode sizes must sum to at most ``TENSOR_ENUM_LIMIT``.
    """
    x = X.x
    dims = x.shape
    order = sorted(range(3), key=lambda ax: (dims[ax], ax))
    e1, e2, free = order
    q1, q2, q3 = dims[e1], dims[e2], dims[free]
    if q1 + q2 > TENSOR_ENUM_LIMIT:
        raise EnumerationBudgetError(
            f"two smallest mode sizes sum to {q1 + q2}, over budget "
            f"{TENSOR_ENUM_LIMIT}: use tensor_norm_heuristic"
        )
    xp = np.transpose(x, (e1, e2, free))
    flat = xp.reshape(q1, q2 * q3)
    count = 1 << (q1 - 1)
    block = max(1, _ENUM_BLOCK_BYTES // (8 * q2 * q3))
    _, index, s2 = _enumerate_best(
        (_sign_grid(q1, start, min(start + block, count)) @ flat)
        .reshape(-1, q2, q3).transpose(0, 2, 1) for start in range(0, count, block))
    s1 = _sign_grid(q1, index, index + 1)[0]
    fiber = np.einsum("ijk,i,j->k", xp, s1, s2)
    s3 = sign_pm(fiber)
    by_mode: dict[int, np.ndarray] = {e1: s1, e2: s2, free: s3}
    return _axis_from_signs(x, by_mode[0], by_mode[1], by_mode[2], exact=True)


def tensor_norm_heuristic(X: Tensor3) -> TensorAxis:
    """Tensor sign norm lower bound by cyclic alternating sign updates.

    One deterministic restart per second-mode slice: the slice's heaviest
    column seeds starting signs for the first and third modes, then the three
    modes are updated cyclically until the sign triple repeats.  The trilinear
    value is non-decreasing within each run.
    """
    x = X.x
    n, m, t = x.shape
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
            if not delta >= delta_prev - _ASCENT_SLACK * (1.0 + delta):
                raise InvariantError(f"trilinear value decreased from {delta_prev!r} to {delta!r}")
            delta_prev = delta
            key = (u.tobytes(), v.tobytes(), w.tobytes())
            if key in seen:
                break
            seen.add(key)
        if best is None or delta_prev > best[0]:
            best = (delta_prev, u, v, w)
    if best is None:
        raise InvariantError("no restart produced a fixed point")
    _, u, v, w = best
    return _axis_from_signs(x, u, v, w, exact=False)


def tensor_norm(X: Tensor3) -> TensorAxis:
    """Tensor sign norm, exact when the two smallest mode sizes sum to at most
    ``TENSOR_ENUM_LIMIT`` and the heuristic lower bound otherwise."""
    q1, q2, _ = sorted(X.shape)
    if q1 + q2 <= TENSOR_ENUM_LIMIT:
        return tensor_norm_exact(X)
    return tensor_norm_heuristic(X)


def octant_report(X: Tensor3, axis: TensorAxis) -> OctantReport:
    """Eight octant block sums of X with the subset triple of a computed axis."""
    sums = _octant_sums(X.x, axis.u, axis.v, axis.w)
    return OctantReport(
        sums=sums,
        s_opt=tuple(int(i) for i in np.flatnonzero(axis.u > 0)),
        t_opt=tuple(int(j) for j in np.flatnonzero(axis.v > 0)),
        w_opt=tuple(int(k) for k in np.flatnonzero(axis.w > 0)),
    )
