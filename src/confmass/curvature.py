"""Levi-Civita connection, curvature tensors, and divergence operators.

All functions act on the batched jets produced by ``chart.metric_jets``.
A quantity carried at jet order q holds Taylor data through total degree
q at every sample point; each explicit derivative lowers the order by
one, and mixed-order products are truncated to the lower order first.

Index conventions
-----------------
* ``christoffel[k][i][j]``  is Gamma^k_ij (symmetric in i, j).
* ``riemann[l][k][i][j]``   is the dx^l component of R(e_i, e_j) e_k.
* ``ricci[i][j]``           contracts riemann over l paired with i.
* ``scal``                  is g^{ij} ricci[i][j]; positive on round
  spheres (and on conformally flat g = u^4 delta in three dimensions it
  equals +8 u^{-5} laplacian(u) with the sign convention below, which
  the tests pin numerically).
* ``codiff_oneform`` is the negative divergence, so ``laplacian`` is
  codiff after d and takes x1^2 to -2 on the flat metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chart import MetricData
from .jets import Jet

__all__ = [
    "ConnectionData",
    "CurvatureData",
    "christoffels",
    "curvature",
    "covd_oneform",
    "trace_covd_oneform",
    "codiff_oneform",
    "laplacian",
    "gradient_vector",
]


def _zero_like(j: Jet) -> Jet:
    return Jet(j.space, np.zeros_like(j.c))


@dataclass
class ConnectionData:
    """Christoffel symbols of a metric sample, one jet order below it."""

    md: MetricData
    christoffel: list  # [k][i][j] -> Jet of order K-1

    @property
    def order(self) -> int:
        return self.christoffel[0][0][0].space.order


@dataclass
class CurvatureData:
    """Riemann/Ricci/scalar curvature jets, two orders below the metric."""

    cd: ConnectionData
    riemann: list  # [l][k][i][j] -> Jet of order K-2
    ricci: list  # [i][j] -> Jet
    scal: Jet

    @property
    def order(self) -> int:
        return self.scal.space.order


def christoffels(md: MetricData) -> ConnectionData:
    """Gamma^k_ij = g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) / 2."""
    n = md.chart.n
    K = md.space.order
    if K < 1:
        raise ValueError("christoffels needs jet order >= 1")
    # dg[i][j][v] = d_v g_ij at order K-1; g is stored with shared
    # mirror objects, so only the upper triangle is differentiated.
    dg = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = [md.g[i][j].derive(v) for v in range(n)]
            dg[i][j] = d
            dg[j][i] = d
    ginv = [[md.ginv[k][l].truncate(K - 1) for l in range(n)] for k in range(n)]

    gam = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            low = [0.5 * (dg[j][l][i] + dg[i][l][j] - dg[i][j][l]) for l in range(n)]
            for k in range(n):
                acc = ginv[k][0] * low[0]
                for l in range(1, n):
                    acc = acc + ginv[k][l] * low[l]
                gam[k][i][j] = acc
                gam[k][j][i] = acc
    return ConnectionData(md=md, christoffel=gam)


def curvature(cd: ConnectionData) -> CurvatureData:
    """Riemann, Ricci, and scalar curvature from the Christoffel jets.

    riemann[l][k][i][j] = d_i G^l_jk - d_j G^l_ik
                          + G^l_im G^m_jk - G^l_jm G^m_ik
    """
    md = cd.md
    n = md.chart.n
    gam = cd.christoffel
    Kc = cd.order
    if Kc < 1:
        raise ValueError("curvature needs metric jet order >= 2")
    tgt = Kc - 1

    dgam = [[[None] * n for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for a in range(n):
            for b in range(a, n):
                d = [gam[l][a][b].derive(v) for v in range(n)]
                dgam[l][a][b] = d
                dgam[l][b][a] = d
    g2 = [[[gam[l][a][b].truncate(tgt) for b in range(n)] for a in range(n)]
          for l in range(n)]

    zero = _zero_like(dgam[0][0][0][0])
    riem = [[[[zero] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    acc = dgam[l][j][k][i] - dgam[l][i][k][j]
                    for m in range(n):
                        acc = acc + (g2[l][i][m] * g2[m][j][k]
                                     - g2[l][j][m] * g2[m][i][k])
                    riem[l][k][i][j] = acc
                    riem[l][k][j][i] = -acc

    ric = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = riem[0][j][0][i]
            for l in range(1, n):
                acc = acc + riem[l][j][l][i]
            ric[i][j] = acc

    ginv = [[md.ginv[i][j].truncate(tgt) for j in range(n)] for i in range(n)]
    scal = None
    for i in range(n):
        for j in range(n):
            t = ginv[i][j] * ric[i][j]
            scal = t if scal is None else scal + t
    return CurvatureData(cd=cd, riemann=riem, ricci=ric, scal=scal)


def covd_oneform(cd: ConnectionData, theta: list) -> list:
    """nabla_i theta_j = d_i theta_j - Gamma^k_ij theta_k.

    Returned at one order below ``theta`` (bounded by the Christoffel
    order).
    """
    n = cd.md.chart.n
    q = theta[0].space.order
    tgt = min(q - 1, cd.order)
    th = [t.truncate(tgt) for t in theta]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = theta[j].derive(i).truncate(tgt)
            for k in range(n):
                acc = acc - cd.christoffel[k][i][j].truncate(tgt) * th[k]
            out[i][j] = acc
    return out


def trace_covd_oneform(cd: ConnectionData, theta: list) -> Jet:
    """g^{ij} nabla_i theta_j; equals -codiff_oneform on the same data."""
    n = cd.md.chart.n
    nab = covd_oneform(cd, theta)
    tgt = nab[0][0].space.order
    ginv = [[cd.md.ginv[i][j].truncate(tgt) for j in range(n)] for i in range(n)]
    acc = None
    for i in range(n):
        for j in range(n):
            t = ginv[i][j] * nab[i][j]
            acc = t if acc is None else acc + t
    return acc


def codiff_oneform(md: MetricData, theta: list) -> Jet:
    """delta theta = -(det g)^{-1/2} d_i ((det g)^{1/2} g^{ij} theta_j)."""
    n = md.chart.n
    q = theta[0].space.order
    if q < 1:
        raise ValueError("codiff needs jet order >= 1")
    w = md.sqrt_det.truncate(q)
    ginv = [[md.ginv[i][j].truncate(q) for j in range(n)] for i in range(n)]
    acc = None
    for i in range(n):
        vi = ginv[i][0] * theta[0]
        for j in range(1, n):
            vi = vi + ginv[i][j] * theta[j]
        term = (w * vi).derive(i)
        acc = term if acc is None else acc + term
    return -(acc / md.sqrt_det.truncate(q - 1))


def laplacian(md: MetricData, f: Jet) -> Jet:
    """Lap f = codiff(df); equals -div grad, so Lap(x1^2) = -2 when flat."""
    n = md.chart.n
    df = [f.derive(j) for j in range(n)]
    return codiff_oneform(md, df)


def gradient_vector(md: MetricData, f: Jet) -> list:
    """(grad f)^i = g^{ij} d_j f at one order below f."""
    n = md.chart.n
    df = [f.derive(j) for j in range(n)]
    tgt = df[0].space.order
    ginv = [[md.ginv[i][j].truncate(tgt) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        acc = ginv[i][0] * df[0]
        for j in range(1, n):
            acc = acc + ginv[i][j] * df[j]
        out.append(acc)
    return out
