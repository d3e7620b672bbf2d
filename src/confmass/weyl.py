"""Weyl connections: torsion-free connections preserving a conformal class.

A Weyl structure on (M, [g]) is encoded against a background metric g by
its Lee form theta (a 1-form); the associated connection has coefficients

    G~^k_ij = G^k_ij + theta_i d^k_j + theta_j d^k_i - g_ij theta^k.

Under a conformal change g -> f g the same connection is encoded by
theta - df / (2 f) (see ``chart.conformal_rescale``), and its scalar
curvature scales by f^{-1} (weight -2 in the convention where a weight-w
quantity picks up f^{w/2}).

``weyl_scalar`` evaluates the contracted second Bianchi reduction

    Scal^D = Scal^g - 2 (n-1) tr_g(nabla theta) - (n-1)(n-2) |theta|^2_g

and cross-checks tr_g(nabla theta) against the negative codifferential
along the way; ``weyl_scalar_via_curvature`` instead contracts the
curvature tensor of G~ directly and serves as an independent oracle for
the reduction (no symmetrization is applied: the antisymmetric part of
the Ricci-type contraction drops under the g^{ij} trace).

The Lee form is one jet (m, B, i) and the connection coefficients
``gamma`` are (m, B, k, i, j), laid out as ``curvature``'s Christoffel
symbols; contractions sum in index order as there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chart import MetricData
from .curvature import (ConnectionData, CurvatureData, christoffels,
                        codiff_oneform, curvature, trace_covd_oneform)
from .jets import Jet, tensor_dot, tensor_mul

__all__ = [
    "WeylData",
    "TwoPathError",
    "weyl_connection",
    "theta_norm2",
    "weyl_scalar",
    "weyl_scalar_via_curvature",
]

TWO_PATH_TOL = 1e-11


class TwoPathError(ArithmeticError):
    """Raised when redundant evaluations of one quantity disagree."""


@dataclass
class WeylData:
    """Weyl-connection sample built over a metric connection sample."""

    cd: ConnectionData
    theta: Jet  # Lee form (m, B, i)
    trace_nabla_theta: Jet
    norm2_theta: Jet
    scal: Jet  # scalar curvature of the Weyl connection

    @cached_property
    def gamma(self) -> Jet:
        """Weyl connection coefficients (m, B, k, i, j), built on first read."""
        return weyl_connection(self.cd, self.theta)


def weyl_connection(cd: ConnectionData, theta: Jet) -> Jet:
    """Connection coefficients of the Weyl connection for Lee form theta."""
    md = cd.md
    sp = theta.space.lower(min(cd.order, theta.space.order))
    th = theta.c[:sp.m]
    thup = tensor_dot(sp, "bkl,bl->bk", md.ginv.c[:sp.m], th)
    g = md.g.c[:sp.m]
    gam = cd.christoffel.c[:sp.m].copy()
    for k in range(md.n):
        gam[:, :, k] -= tensor_mul(sp, "bij,b->bij", g, thup[:, :, k])
    for k in range(md.n):
        gam[:, :, k, :, k] += th  # delta^k_j theta_i
    for k in range(md.n):
        gam[:, :, k, k, :] += th  # delta^k_i theta_j
    return Jet(sp, gam)


def theta_norm2(md: MetricData, theta: Jet) -> Jet:
    """|theta|^2_g = g^{ij} theta_i theta_j."""
    sp = theta.space
    t = tensor_mul(sp, "bij,bi->bij", md.ginv.c[:sp.m], theta.c)
    return Jet(sp, tensor_dot(sp, "bij,bj->b", t, theta.c))


def weyl_scalar(cv: CurvatureData, theta: Jet,
                check_two_path: bool = True) -> WeylData:
    """Scalar curvature of the Weyl connection with Lee form theta.

    The divergence term is computed both as g^{ij} nabla_i theta_j and as
    -delta(theta); with ``check_two_path`` the two evaluations must agree
    to TWO_PATH_TOL (relative to scale) or TwoPathError is raised.
    """
    cd = cv.cd
    md = cd.md
    n = md.chart.n
    tgt = cv.order

    tr = trace_covd_oneform(cd, theta)
    if check_two_path:
        other = -codiff_oneform(md, theta)
        a, b = tr.value, other.value
        err = float(np.max(np.abs(a - b)))
        scale = max(1.0, float(np.max(np.abs(a))))
        if err > TWO_PATH_TOL * scale:
            raise TwoPathError(
                f"divergence paths disagree: |diff|={err:.3e} at scale {scale:.3e}")

    tr = tr.truncate(tgt)
    nrm = theta_norm2(md, theta.truncate(tgt))
    scal = cv.scal - (2.0 * (n - 1)) * tr - float((n - 1) * (n - 2)) * nrm
    return WeylData(cd=cd, theta=theta, trace_nabla_theta=tr, norm2_theta=nrm, scal=scal)


def weyl_scalar_via_curvature(cd: ConnectionData, theta: Jet) -> Jet:
    """Scal^D by contracting the Weyl connection's curvature tensor.

    Independent of :func:`weyl_scalar`: the coefficients G~ are formed
    first and then run through the ordinary curvature contraction.
    """
    gam = weyl_connection(cd, theta)
    fake = ConnectionData(md=cd.md, christoffel=gam)
    return curvature(fake).scal


def weyl_data(md: MetricData, theta: Jet, check_two_path: bool = True) -> WeylData:
    """One-call pipeline: connection, curvature, and Weyl scalar."""
    cv = curvature(christoffels(md))
    return weyl_scalar(cv, theta, check_two_path=check_two_path)
