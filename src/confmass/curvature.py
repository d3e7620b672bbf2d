"""Levi-Civita connection, curvature tensors, and divergence operators.

All functions act on the batched jets produced by ``chart.metric_jets``.
A quantity carried at jet order q holds Taylor data through total degree
q at every sample point; each explicit derivative lowers the order by
one, and mixed-order products are truncated to the lower order first.

Index conventions
-----------------
Each tensor is one Jet whose coefficient array is (m, B, *index): the
jet axis, the batch of B points, then the tensor indices in the order
named here.  ``Jet.grad`` puts a new derivative index d_v right after
the batch axis.

* ``christoffel`` (m, B, k, i, j) is Gamma^k_ij (symmetric in i, j).
* ``riemann`` (m, B, l, k, i, j) is the dx^l component of R(e_i, e_j) e_k.
* ``ricci`` (m, B, i, j) contracts riemann over l paired with i.
* ``scal`` (m, B) is g^{ij} ricci_ij; positive on round spheres (and on
  conformally flat g = u^4 delta in three dimensions it equals
  +8 u^{-5} laplacian(u) with the sign convention below, which the
  tests pin numerically).
* a one-form theta is (m, B, i).
* ``codiff_oneform`` is the negative divergence, so ``laplacian`` is
  codiff after d and takes x1^2 to -2 on the flat metric.

Every index sum (the Christoffel symbols, the quadratic Riemann terms,
the Gamma theta term of ``covd_oneform``, the scalar curvature and the
divergences) is one stacked matrix product, ``jets.tensor_matmul`` on
BLAS, whose rows and columns are tensor indices and whose broadcast
axes hold the batch; the Ricci trace is a sum of n slices.  That each
point's result is bitwise the same whatever batch it is computed in is
held by ``tests/test_curvature.py::TestBatchIndependence``, at batch
widths 1, 7 and 257.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .chart import MetricData
from .jets import Jet, tensor_matmul, tensor_mul

__all__ = [
    "ConnectionData",
    "CurvatureData",
    "christoffels",
    "curvature",
    "covd_oneform",
    "trace_covd_oneform",
    "codiff_oneform",
    "laplacian",
]


class ConnectionData(NamedTuple):
    """Christoffel symbols of a metric sample, one jet order below it."""

    md: MetricData
    christoffel: Jet  # (m, B, k, i, j)

    @property
    def order(self) -> int:
        return self.christoffel.space.order


class CurvatureData(NamedTuple):
    """Riemann/Ricci/scalar curvature jets, two orders below the metric."""

    cd: ConnectionData
    riemann: Jet  # (m, B, l, k, i, j)
    ricci: Jet  # (m, B, i, j)
    scal: Jet  # (m, B)

    @property
    def order(self) -> int:
        return self.scal.space.order


def christoffels(md: MetricData) -> ConnectionData:
    """Gamma^k_ij = g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    K = md.space.order
    if K < 1:
        raise ValueError("christoffels needs jet order >= 1")
    dg = md.g.grad()  # [v, i, j] = d_v g_ij
    sp = dg.space
    D = dg.c
    low = 0.5 * (np.einsum("zbijl->zblij", D) + np.einsum("zbjil->zblij", D) - D)
    # g^{kl} (m, B, k, l) times low as (m, B, l, i*j)
    gam = tensor_matmul(sp, md.ginv.c[:sp.m], low.reshape(low.shape[:3] + (-1,)))
    return ConnectionData(md=md, christoffel=Jet(sp, gam.reshape(low.shape)))


def _trace(sp, ginv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g^{ij} t_ij as (m, B): the flattened (1, n^2) @ (n^2, 1) product."""
    m, B = t.shape[:2]
    return tensor_matmul(sp, ginv.reshape(m, B, 1, -1), t.reshape(m, B, -1, 1))[..., 0, 0]


def curvature(cd: ConnectionData) -> CurvatureData:
    """Riemann, Ricci, and scalar curvature from the Christoffel jets.

    riemann^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik
    """
    n = cd.md.n
    if cd.order < 1:
        raise ValueError("curvature needs metric jet order >= 2")
    sp = cd.christoffel.space.lower(cd.order - 1)
    G = cd.christoffel.c[:sp.m]

    # d_i G^l_jk at [l, k, i, j] plus G^l_im G^m_jk, the product of G as
    # (l*i, m) and as (m, j*k), at [l, k, i, j]; each antisymmetrised in (i, j)
    Q = tensor_matmul(sp, G.reshape(G.shape[:2] + (n * n, n)), G.reshape(G.shape[:2] + (n, -1)))
    T = (np.einsum("zbiljk->zblkij", cd.christoffel.grad().c)
         + np.einsum("zblijk->zblkij", Q.reshape(G.shape + (n,))))
    riem = T - np.swapaxes(T, -1, -2)

    ric = riem[:, :, 0, :, 0, :]
    for l in range(1, n):
        ric = ric + riem[:, :, l, :, l, :]
    ric = np.swapaxes(ric, -1, -2)
    scal = _trace(sp, cd.md.ginv.c[:sp.m], ric)
    return CurvatureData(cd=cd, riemann=Jet(sp, riem), ricci=Jet(sp, ric),
                         scal=Jet(sp, scal))


def covd_oneform(cd: ConnectionData, theta: Jet) -> Jet:
    """nabla_i theta_j = d_i theta_j - Gamma^k_ij theta_k, as (m, B, i, j).

    Returned at one order below ``theta`` (bounded by the Christoffel
    order).
    """
    sp = theta.space.lower(min(theta.space.order - 1, cd.order))
    G = cd.christoffel.c[:sp.m]
    # theta_k Gamma^k_ij as (1, k) @ (k, i*j)
    thG = tensor_matmul(sp, theta.c[:sp.m, :, None, :], G.reshape(G.shape[:3] + (-1,)))
    return Jet(sp, theta.grad().c[:sp.m] - thG.reshape(G.shape[:2] + G.shape[3:]))


def trace_covd_oneform(cd: ConnectionData, theta: Jet) -> Jet:
    """g^{ij} nabla_i theta_j; equals -codiff_oneform on the same data."""
    nab = covd_oneform(cd, theta)
    sp = nab.space
    return Jet(sp, _trace(sp, cd.md.ginv.c[:sp.m], nab.c))


def codiff_oneform(md: MetricData, theta: Jet) -> Jet:
    """delta theta = -(det g)^{-1/2} d_i ((det g)^{1/2} g^{ij} theta_j)."""
    sp = theta.space
    q = sp.order
    if q < 1:
        raise ValueError("codiff needs jet order >= 1")
    v = tensor_matmul(sp, md.ginv.c[:sp.m], theta.c[..., None])[..., 0]
    dv = Jet(sp, tensor_mul(sp, md.sqrt_det.c[:sp.m, :, None], v)).grad()
    div = dv.c[:, :, 0, 0]
    for i in range(1, md.n):
        div = div + dv.c[:, :, i, i]
    return -(Jet(dv.space, div) / md.sqrt_det.truncate(q - 1))


def laplacian(md: MetricData, f: Jet) -> Jet:
    """Lap f = codiff(df); equals -div grad, so Lap(x1^2) = -2 when flat."""
    return codiff_oneform(md, f.grad())
