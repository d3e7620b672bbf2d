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

and its ``WeylData`` holds tr_g(nabla theta) and, on first read, the
codifferential delta(theta) computed through the volume density
(``codiff``).  The two divergence paths agree (tr_g(nabla theta) =
-delta(theta)) on consistent metric data; the batteries report their
gap, chunk by chunk (``suites._gap_maxima``), and nothing here raises
on it.  ``weyl_scalar_via_curvature`` instead contracts the
curvature tensor of G~ directly and serves as an independent oracle for
the reduction (no symmetrization is applied: the antisymmetric part of
the Ricci-type contraction drops under the g^{ij} trace).

The Lee form is one jet (m, B, i) and the connection coefficients
``gamma`` are (m, B, k, i, j), laid out as ``curvature``'s Christoffel
symbols.  The contractions with g^{-1} are ``jets.tensor_matmul``
products with the batch on a broadcast axis, and the g_ij theta^k term
of the connection is one broadcast ``jets.tensor_mul`` over every k;
their batch independence is held by
``tests/test_curvature.py::TestBatchIndependence``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .chart import MetricData
from .curvature import (ConnectionData, CurvatureData, christoffels,
                        codiff_oneform, curvature, trace_covd_oneform)
from .jets import Jet, tensor_matmul, tensor_mul

__all__ = [
    "WeylData",
    "weyl_connection",
    "theta_norm2",
    "weyl_scalar",
    "weyl_scalar_via_curvature",
]

class WeylData:
    """Weyl-connection sample built over a metric connection sample:
    the Lee form ``theta`` (m, B, i), tr_g(nabla theta), |theta|^2 and
    ``scal``, the scalar curvature of the Weyl connection."""

    def __init__(self, cd: ConnectionData, theta: Jet, trace_nabla_theta: Jet,
                 norm2_theta: Jet, scal: Jet):
        self.cd = cd
        self.theta = theta
        self.trace_nabla_theta = trace_nabla_theta
        self.norm2_theta = norm2_theta
        self.scal = scal

    @cached_property
    def gamma(self) -> Jet:
        """Weyl connection coefficients (m, B, k, i, j), built on first read."""
        return weyl_connection(self.cd, self.theta)

    @cached_property
    def codiff(self) -> Jet:
        """The codifferential delta(theta) through the volume density."""
        return codiff_oneform(self.cd.md, self.theta)


def weyl_connection(cd: ConnectionData, theta: Jet) -> Jet:
    """Connection coefficients of the Weyl connection for Lee form theta."""
    md = cd.md
    sp = theta.space.lower(min(cd.order, theta.space.order))
    th = theta.c[:sp.m]
    thup = tensor_matmul(sp, md.ginv.c[:sp.m], th[..., None])
    g_thup = tensor_mul(sp, md.g.c[:sp.m, :, None], thup[..., None])  # g_ij theta^k
    delta = np.eye(md.n)
    return Jet(sp, cd.christoffel.c[:sp.m] - g_thup
               + delta[:, None, :] * th[:, :, None, :, None]  # delta^k_j theta_i
               + delta[:, :, None] * th[:, :, None, None, :])  # delta^k_i theta_j


def theta_norm2(md: MetricData, theta: Jet) -> Jet:
    """|theta|^2_g = g^{ij} theta_i theta_j."""
    sp = theta.space
    up = tensor_matmul(sp, md.ginv.c[:sp.m], theta.c[..., None])
    return Jet(sp, tensor_matmul(sp, theta.c[..., None, :], up)[..., 0, 0])


def weyl_scalar(cv: CurvatureData, theta: Jet) -> WeylData:
    """Scalar curvature of the Weyl connection with Lee form theta, with
    the divergence term taken as g^{ij} nabla_i theta_j."""
    cd = cv.cd
    md = cd.md
    n = md.chart.n
    tgt = cv.order

    tr = trace_covd_oneform(cd, theta).truncate(tgt)
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


def weyl_data(md: MetricData, theta: Jet) -> WeylData:
    """One-call pipeline: connection, curvature, and Weyl scalar."""
    return weyl_scalar(curvature(christoffels(md)), theta)
