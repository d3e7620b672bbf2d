"""Spinor fields over a chart: spin connection, weighted derivatives,
Dirac operators, and the two conformal Lichnerowicz identities.

Trivialization
--------------
A spinor field is one :class:`Jet` whose coefficient array is complex
with shape (m, B, N): the jet axis first, then the batch of B points,
then the N = 2^(n//2) components in the orthonormal-frame
trivialization.  The frame is E_a = columns of A^{-1/2} where A is the
metric coefficient matrix, so "constant spinor" is meaningful and
asymptotically constant data is literally constant.  Spinor-valued
tensors, and stacks of S fields (m, B, S, N), put their extra axes
before the spinor axis: ``covd_coord`` takes (m, B, ..., N) and returns
(m, B, n, ..., N), the coordinate direction third, and every other
operator carries the extra axes the same way.
``spinor_jets`` runs the program that ``chart.spinor_program`` lowers
from the component sources of S fields to one stacked field (m, B, S, N).

The frame data are real jets stacked the same way: ``E`` and ``S`` are
(m, B, i, a), ``omega`` is (m, B, i, a, b), as are the metric,
connection and Lee-form jets of ``chart``, ``curvature`` and ``weyl``.
Constant Clifford actions (gamma_a, gamma_a gamma_b) are ``@`` with the
stacked matrices of :class:`clifford.CliffordRep`, whose rows hold one
entry 1, -1, i or -i each, so they act exactly; every index sum of jets
is one ``jets.tensor_matmul``.  Under the rule of ``jets``, the batch
and a stack of fields stay broadcast axes of ``np.matmul``; only i, a,
the N components and the pairs a < b are matrix rows or columns.

Weighted derivative
-------------------
For a Lee form theta and weight k,

    D_X psi = nabla_X psi - (1/2) X^flat . theta . psi + (k - 1/2) theta(X) psi

with nabla the metric spin connection d + (1/4) omega_i^{ab} gamma_a
gamma_b and ``.`` the Clifford action; X^flat has frame components
(A^{1/2})_{ia} when X = d/dx_i.  The weighted Dirac operator is
Dirac^{(k)} = gamma_a D_{E_a}; its square is taken as the composition
with the outer application at weight k-1.

Calculator and calling convention
---------------------------------
``spinor_calc(md, theta)`` builds the spin frame, the Clifford module
and theta(E_b); the curvature and the Weyl scalar are built on the
first read of ``scal`` (metric jets of order >= 2), so boundary-flux
integrands on order-1 jets use the same calculator and never pay for
them.  Operators on a field take its derivative
``Dc = covd_coord(calc, psi, weight)``, with weight None for the
Riemannian derivative, so each first derivative is computed once by
the caller and shared by every operator that reads it; every operator,
``conf_trace_second`` included, takes a stack of fields on its extra
axes.  The residuals read the caller's ``Dc``, Dirac square
``dirac_composed`` and trace ``conf_trace_second``, and differentiate
nothing themselves.

All operators evaluate on a batch of points (n, B); every derivative
drops the jet order by one and mixed-order products truncate to the
lower order.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import clifford
from . import jetlinalg
from .chart import MetricData, spinor_components
from .curvature import (ConnectionData, CurvatureData, christoffels, codiff_oneform,
                        curvature)
from .exprdsl import Program
from .jets import Jet, evaluate_jet, tensor_matmul, tensor_mul

__all__ = [
    "SpinFrame",
    "SpinorCalc",
    "spinor_jets",
    "frame_spin_connection",
    "spinor_calc",
    "covd_coord",
    "covd_frame",
    "dirac",
    "coframe_action",
    "conf_trace_second",
    "dirac_composed",
    "dirac_squared_expansion",
    "lichnerowicz_I_residual",
    "lichnerowicz_II_residual",
    "norm_identity_residual",
    "h_jet",
    "spinor_values",
]


# ---------------------------------------------------------------------------
# Clifford action and pairing on coefficient arrays

def _stacked(M: np.ndarray, ndim: int) -> np.ndarray:
    """M (m, B, r, c) broadcast over the extra axes of (m, B, ..., k, l)."""
    return M.reshape(M.shape[:2] + (1,) * (ndim - M.ndim) + M.shape[2:])


def _act(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Constant matrices G (k, N, N) on the spinor axis of c (..., N),
    giving (..., k, N): each spinor the row of one (1, N) @ (N, k N).  The
    batch stays a broadcast axis, never GEMM rows: a rule that rests on
    review, as a test of it would depend on the BLAS build."""
    return (c[..., None, :] @ G.reshape(-1, G.shape[-1]).T).reshape(c.shape[:-1] + G.shape[:2])


def _slash(rep: clifford.CliffordRep, F: Jet) -> Jet:
    """gamma_a F_a for a frame-indexed field F (m, B, a, ..., N), giving
    (m, B, ..., N): each point's (a, t) the row of one (1, n N) @ (n N, N)."""
    Fa = np.moveaxis(F.c, 2, -2)  # [z, b, ..., a, t]
    G = np.swapaxes(rep.gamma, 1, 2).reshape(-1, rep.N)  # rows (a, t)
    return Jet(F.space, (Fa.reshape(Fa.shape[:-2] + (1, -1)) @ G)[..., 0, :])


def h_jet(psi: Jet, phi: Jet) -> Jet:
    """Hermitian pairing sum_s conj(psi_s) phi_s as a complex jet."""
    pair = tensor_matmul(psi.space, np.conj(psi.c)[..., None, :], phi.c[..., None])
    return Jet(psi.space, pair[..., 0, 0])


def _h_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairing of value arrays (B, ..., N), summed over all but the batch."""
    prod = np.conj(x) * y
    return np.sum(prod.reshape(prod.shape[0], -1), axis=1)


def spinor_values(psi: Jet) -> np.ndarray:
    """(N, B) complex value array."""
    return psi.value.T


# ---------------------------------------------------------------------------
# field values

def spinor_jets(fields: Program, coords: list) -> Jet:
    """Run a ``chart.spinor_program`` of S fields over the coordinate jets
    to one complex jet (m, B, S, N)."""
    return Jet(coords[0].space, spinor_components(evaluate_jet(fields, coords).c, fields.n))


# ---------------------------------------------------------------------------
# frame + spin connection

class SpinFrame(NamedTuple):
    """Orthonormal frame data for one metric sample, as stacked jets.

    ``E`` (m, B, i, a) holds the coordinate components of the frame
    vectors E_a (columns of A^{-1/2}), ``S = A^{1/2}`` (m, B, i, a)
    doubles as the frame components of the coordinate covectors, and
    ``omega`` (m-1, B, i, a, b) is g(nabla_i E_a, E_b), computed raw
    (antisymmetry in (a, b) is a measured property, not enforced).
    """

    md: MetricData
    cd: ConnectionData
    E: Jet
    S: Jet
    omega: Jet


def frame_spin_connection(md: MetricData) -> SpinFrame:
    """Orthonormal frame and spin-connection coefficient jets.

    omega_iab = g_jk (nabla_i E_a)^j E_kb with
    (nabla_i E_a)^j = d_i E_ja + Gamma^j_im E_ma, at one order below the
    metric, as whole-array jet products over the stacked coefficients.
    """
    if md.space.order < 1:
        raise ValueError("frame_spin_connection needs jet order >= 1")
    cd = christoffels(md)
    S = jetlinalg.spd_sqrt(md.g)
    E = jetlinalg.mat_inv(S)  # [z, b, j, a]

    sp = cd.christoffel.space
    Et = E.c[:sp.m]
    G = cd.christoffel.c  # [z, b, j, i, m], as (j*i, m) @ E
    GE = tensor_matmul(sp, G.reshape(G.shape[:2] + (-1, G.shape[-1])), Et).reshape(G.shape)
    nab = E.grad().c + np.swapaxes(GE, 2, 3)  # [z, b, i, j, a]
    # omega_i = (nabla_i E)^T (g E) for every i
    gE = tensor_matmul(sp, md.g.c[:sp.m], Et)
    omega = tensor_matmul(sp, np.swapaxes(nab, -1, -2), gE[:, :, None])
    return SpinFrame(md=md, cd=cd, E=E, S=S, omega=Jet(sp, omega))


# ---------------------------------------------------------------------------
# calculator

class SpinorCalc:
    """Everything needed to differentiate spinor fields on one sample.

    ``theta`` is the Lee form (m, B, i) and ``theta_frame`` its frame
    components theta(E_b) (m, B, b), both None without a Lee form.  The
    Levi-Civita curvature ``curv`` and the Weyl data ``weyl`` built on it
    (None without a Lee form) are computed on first read and need metric
    jets of order >= 2; the first-derivative operators (``covd_coord``,
    ``covd_frame``, ``dirac``) never read them.
    """

    def __init__(self, frame: SpinFrame, rep: clifford.CliffordRep,
                 theta: Jet | None, theta_frame: Jet | None):
        self.frame = frame
        self.rep = rep
        self.theta = theta
        self.theta_frame = theta_frame

    @property
    def n(self) -> int:
        return self.frame.md.chart.n

    @property
    def md(self) -> MetricData:
        return self.frame.md

    @cached_property
    def curv(self) -> CurvatureData:
        return curvature(self.frame.cd)

    @cached_property
    def weyl(self):
        """The ``weyl.WeylData`` of the sample, None without a Lee form.
        The Weyl layer is imported here: only the identity battery reads it."""
        from .weyl import weyl_scalar
        return None if self.theta is None else weyl_scalar(self.curv, self.theta)

    @property
    def connection(self) -> Jet:
        """The vector-field connection used for the frame correction in
        the second-derivative trace: Weyl with a Lee form, else Levi-Civita."""
        return self.frame.cd.christoffel if self.theta is None else self.weyl.gamma

    @property
    def scal(self) -> Jet:
        """Scalar curvature of ``connection``."""
        return self.curv.scal if self.theta is None else self.weyl.scal


def spinor_calc(md: MetricData, theta: Jet | None = None) -> SpinorCalc:
    """Frame, Clifford module and frame components theta(E_b) of the Lee
    form; the curvature waits until it is read."""
    frame = frame_spin_connection(md)
    tf = None
    if theta is not None:
        sp = theta.space
        tf = Jet(sp, tensor_matmul(sp, theta.c[..., None, :],
                                   frame.E.truncate(sp.order).c)[..., 0, :])
    return SpinorCalc(frame=frame, rep=clifford.build_rep(md.n), theta=theta,
                      theta_frame=tf)


def covd_coord(calc: SpinorCalc, psi: Jet, weight: float | None) -> Jet:
    """D_i psi for every coordinate direction i, one jet order down: a
    field (m, B, ..., N) gives one jet (m, B, i, ..., N).

    With ``weight`` None (or when the calculator has no Lee form) this is
    the metric spin-connection derivative; otherwise the weighted Weyl
    derivative at that weight.  Since gamma_a gamma_b = -gamma_b
    gamma_a for a != b and gamma_a^2 = -1, and sum_a S_ia theta(E_a) =
    theta_i, both are

        D_i psi = d_i psi + sum_{a<b} C_iab gamma_a gamma_b psi + k theta_i psi,
        C_iab = (1/4)(omega_iab - omega_iba) - (1/2)(S_ia theta_b - S_ib theta_a),

    with theta_b the frame components and the theta terms dropped in the
    Riemannian case.  The connection matrix C_i . gamma gamma + k theta_i
    is built once per direction i and applied to every field the extra
    axes hold, which keeps the gathered jet-product operands at
    (P, B, ..., N, N) for the P pairs of the multiplication table.
    """
    n = calc.n
    fr = calc.frame
    t = min(psi.space.order - 1, fr.omega.space.order)
    if t < 0:
        raise ValueError("spinor jets exhausted: need order >= 1")
    use_theta = calc.theta is not None and weight is not None

    sp = psi.space.lower(t)
    psi_t = psi.c[:sp.m]
    om = fr.omega.c[:sp.m]
    a, b = np.triu_indices(n, 1)
    pairs = calc.rep.pairs  # gamma_a gamma_b, a < b: (p, N, N)
    diag = np.arange(pairs.shape[-1])
    dpsi = psi.grad().c[:sp.m]
    out = np.empty(dpsi.shape, dtype=dpsi.dtype)
    for i in range(n):
        C = 0.25 * (om[:, :, i, a, b] - om[:, :, i, b, a])
        if use_theta:
            X = tensor_mul(sp, fr.S.c[:sp.m, :, i, :, None], calc.theta_frame.c[:sp.m, :, None])
            C = C - 0.5 * (X[..., a, b] - X[..., b, a])
        # the batch stays a broadcast axis: a rule that rests on review, as
        # a test of it would depend on the BLAS build (see _act)
        A = (C[..., None, :] @ pairs.reshape(len(a), -1)).reshape(C.shape[:2] + pairs.shape[1:])
        if use_theta:
            A[..., diag, diag] += weight * calc.theta.c[:sp.m, :, i, None]
        Apsi = tensor_matmul(sp, _stacked(A, psi_t.ndim + 1), psi_t[..., None])
        out[:, :, i] = dpsi[:, :, i] + Apsi[..., 0]
    return Jet(sp, out)


def covd_frame(calc: SpinorCalc, Dc: Jet) -> Jet:
    """D_{E_a} psi for every frame index a, as one jet (m, B, a, ..., N),
    from ``Dc = covd_coord(calc, psi, weight)`` of a field (m, B, ..., N)."""
    sp = Dc.space
    Di = np.moveaxis(Dc.c, 2, -2)  # [z, b, ..., i, s]
    ET = np.swapaxes(calc.frame.E.c[:sp.m], -1, -2)
    return Jet(sp, np.moveaxis(tensor_matmul(sp, _stacked(ET, Di.ndim), Di), -2, 2))


def dirac(calc: SpinorCalc, Dc: Jet) -> Jet:
    """gamma_a D_{E_a} psi from ``Dc = covd_coord(calc, psi, weight)``; a
    field (m, B, ..., N) gives (m, B, ..., N)."""
    return _slash(calc.rep, covd_frame(calc, Dc))


def coframe_action(calc: SpinorCalc, chi: Jet) -> Jet:
    """dx_j^flat . chi for every coordinate direction j: a field
    (m, B, ..., N) gives one jet (m, B, j, ..., N)."""
    sp = chi.space
    ga = _act(calc.rep.gamma, chi.c)  # [z, b, ..., a, s]
    Sga = tensor_matmul(sp, _stacked(calc.frame.S.c[:sp.m], ga.ndim), ga)
    return Jet(sp, np.moveaxis(Sga, -2, 2))


def conf_trace_second(calc: SpinorCalc, Dc: Jet, weight: float | None) -> Jet:
    """-(D_{E_a}(D_{E_a} psi) - D_{W_a} psi) summed over a, from
    ``Dc = covd_coord(calc, psi, weight)`` of a field (m, B, ..., N), giving (m, B, ..., N).

    W_a is the Weyl-connection derivative of the frame field E_a along
    itself; both spinor derivative applications use the same weight.
    """
    E = calc.frame.E
    t2 = Dc.space.order - 1
    if t2 < 0:
        raise ValueError("conf_trace_second needs spinor jets of order >= 2")
    sp = Dc.space.lower(t2)

    # W_a^m = E_ja (d_j E_ma + G~^m_jl E_la); only w^m = sum_a W_a^m is
    # read, as (m, j*a) @ (j*a, 1) with nab at [z, b, m, j, a]
    Et = E.c[:sp.m]
    conn = calc.connection.c[:sp.m]
    z, B, n = conn.shape[:3]
    nab = (np.swapaxes(E.grad().c[:sp.m], 2, 3)
           + tensor_matmul(sp, conn.reshape(z, B, n * n, n), Et).reshape(conn.shape))
    w = tensor_matmul(sp, nab.reshape(z, B, n, n * n), Et.reshape(z, B, n * n, 1))

    DF = np.moveaxis(covd_coord(calc, covd_frame(calc, Dc), weight).c, (2, 3), (-3, -2))
    DF = DF.reshape(DF.shape[:-3] + (n * n, DF.shape[-1]))  # [z, b, ..., i*a, s]
    G = tensor_matmul(sp, _stacked(Et.reshape(z, B, 1, n * n), DF.ndim), DF)
    Di = np.moveaxis(Dc.c[:sp.m], 2, -2)  # [z, b, ..., i, s]
    H = tensor_matmul(sp, _stacked(np.swapaxes(w, -1, -2), Di.ndim), Di)
    return Jet(sp, (H - G)[..., 0, :])


def dirac_composed(calc: SpinorCalc, Dc: Jet, weight: float | None) -> Jet:
    """Dirac^{(k-1)} Dirac^{(k)} psi from ``Dc = covd_coord(calc, psi, k)``:
    the outer derivative is taken at weight k - 1 (Riemannian for None)."""
    first = dirac(calc, Dc)
    return dirac(calc, covd_coord(calc, first, None if weight is None else weight - 1.0))


def dirac_squared_expansion(calc: SpinorCalc, psi: Jet, weight: float) -> Jet:
    """Five-term expansion of the weighted Dirac square.

    (Dirac^g)^2 psi + c1 (dtheta + delta theta) . psi - theta . Dirac^g psi
      - c2 nabla_{theta^sharp} psi - c3 |theta|^2 psi,
    c1 = k + (n-1)/2, c2 = 2k + n - 1, c3 = c1 (c1 - 1).

    Independent of :func:`dirac_composed`; the two must agree.
    """
    nab_full = covd_coord(calc, psi, None)
    if calc.theta is None:
        return dirac_composed(calc, nab_full, None)
    n = calc.n
    k = float(weight)
    c1 = k + 0.5 * (n - 1)
    c2 = 2.0 * k + n - 1.0
    c3 = c1 * (c1 - 1.0)
    md = calc.md
    rep = calc.rep
    E = calc.frame.E
    th = calc.theta

    # Riemannian Dirac operator and square of psi
    dg1_full = dirac(calc, nab_full)
    dg2 = dirac(calc, covd_coord(calc, dg1_full, None))
    sp = dg2.space
    psi2 = psi.c[:sp.m]

    # dtheta in frame components E_ia E_jb (d_i theta_j - d_j theta_i), a < b
    dth = th.grad().c[:sp.m]  # [z, b, i, j]
    curl = dth - np.swapaxes(dth, 2, 3)
    Et = E.c[:sp.m]
    dth_f = tensor_matmul(sp, np.swapaxes(Et, -1, -2), tensor_matmul(sp, curl, Et))
    a, b = np.triu_indices(n, 1)
    term_dth = tensor_matmul(sp, dth_f[..., a, b][..., None, :], _act(rep.pairs, psi2))

    delth = calc.weyl.codiff.c[:sp.m]
    term_thdg = tensor_matmul(sp, calc.theta_frame.c[:sp.m, :, None],
                              _act(rep.gamma, dg1_full.c[:sp.m]))

    # nabla_{theta sharp} psi (Riemannian), theta^sharp^i = g^{ij} theta_j
    nab = nab_full.c[:sp.m]
    sharp = tensor_matmul(sp, md.ginv.c[:sp.m], th.c[:sp.m, ..., None])
    term_nab = tensor_matmul(sp, np.swapaxes(sharp, -1, -2), nab)

    nrm = calc.weyl.norm2_theta.c[:sp.m]

    out = dg2.c + c1 * term_dth[:, :, 0]
    out = out + tensor_mul(sp, c1 * delth[..., None], psi2)
    out = out - term_thdg[:, :, 0] - c2 * term_nab[:, :, 0]
    out = out - tensor_mul(sp, c3 * nrm[..., None], psi2)
    return Jet(sp, out)


# ---------------------------------------------------------------------------
# identity residuals

def lichnerowicz_I_residual(calc: SpinorCalc, psi: Jet, D2: Jet, tr: Jet):
    """Dirac-square minus trace-second minus quarter-Scal, at the
    distinguished weight k = (2 - n)/2, from ``D2 = dirac_composed(calc, Dc, k)``
    and ``tr = conf_trace_second(calc, Dc, k)`` of ``Dc = covd_coord(calc, psi, k)``.

    Returns (residual (N, batch) complex array, scale) with scale the
    largest constituent term, for relative comparison.
    """
    d2 = spinor_values(D2)
    trv = spinor_values(tr)
    quarter = 0.25 * calc.scal.value * spinor_values(psi)
    res = d2 - trv - quarter
    scale = max(np.max(np.abs(d2)), np.max(np.abs(trv)), np.max(np.abs(quarter)))
    return res, float(scale)


def lichnerowicz_II_residual(calc: SpinorCalc, fields: Jet, Dc: Jet, D2: Jet,
                             tr: Jet) -> dict:
    """Pairing form of the identity for psi and phi, the fields 0 and 1 of
    the stack ``fields`` (m, B, S, N), with its two sub-residuals.

    main:    h(D psi, D phi) + (1/4) Scal^D h(psi, phi)
             - h(Dirac psi, Dirac phi) + delta(omega),
             omega_j = h(psi, dx_j^flat . Dirac phi + D_j phi)
    first:   h(D psi, D phi) - h(psi, trace-second phi) + delta(alpha),
             alpha_j = h(psi, D_j phi)
    second:  h(Dirac psi, Dirac phi) - h(psi, Dirac^2 phi) - delta(beta),
             beta_j = h(psi, dx_j^flat . Dirac phi)

    The divergences are taken with the background metric codifferential
    (the weight of the pairing makes the Weyl and metric
    codifferentials coincide there).  Returns per-point complex
    residuals plus the scale of the largest term.  ``Dc``, ``D2`` and ``tr``
    are the stack's ``covd_coord``, ``dirac_composed`` and ``conf_trace_second``
    at weight (2 - n)/2.
    """
    md = calc.md
    psi0, phi0 = fields.value[:, 0], fields.value[:, 1]
    h_tr = _h_values(psi0, tr.value[:, 1])
    h_d2 = _h_values(psi0, D2.value[:, 1])

    sp = Dc.space
    F = covd_frame(calc, Dc)  # [z, b, a, s, t]
    d = _slash(calc.rep, F)  # [z, b, s, t]

    hDD_v = _h_values(F.value[:, :, 0], F.value[:, :, 1])
    hdd_v = _h_values(d.value[:, 0], d.value[:, 1])
    quarter_v = 0.25 * calc.scal.value * _h_values(psi0, phi0)

    # beta_j = h(psi, dx_j^flat . Dirac phi), alpha_j = h(psi, D_j phi)
    cpsi = np.conj(fields.c[:sp.m, :, 0])
    beta = tensor_matmul(sp, coframe_action(calc, Jet(sp, d.c[:, :, 1])).c,
                         cpsi[..., None])[..., 0]
    alpha = tensor_matmul(sp, Dc.c[:, :, :, 1], cpsi[..., None])[..., 0]

    def codiff(w):
        return codiff_oneform(md, Jet(sp, w)).value

    d_omega = codiff(beta + alpha)
    d_alpha = codiff(alpha)
    d_beta = codiff(beta)

    main = hDD_v + quarter_v - hdd_v + d_omega
    first = hDD_v - h_tr + d_alpha
    second = hdd_v - h_d2 - d_beta

    scale = max(np.max(np.abs(hDD_v)), np.max(np.abs(hdd_v)),
                np.max(np.abs(quarter_v)), np.max(np.abs(d_omega)), 1e-300)
    return {"main": main, "first": first, "second": second, "scale": float(scale)}


def norm_identity_residual(calc: SpinorCalc, psi: Jet, direction, Dc: Jet) -> tuple:
    """d|psi|^2(X) - 2 Re h(D_X psi, psi) - (n-2) theta(X) |psi|^2.

    ``direction`` is a constant coordinate coefficient vector and ``Dc``
    is ``covd_coord(calc, psi, (2 - n)/2)``, at the distinguished weight.
    Returns (residual, scale) with scale the largest |psi|^2.
    """
    n = calc.n
    X = np.asarray(direction, dtype=np.float64)
    nrm = h_jet(psi, psi)  # |psi|^2, real up to an exactly zero imaginary part
    lhs = sum(X[i] * nrm.derive(i).value.real for i in range(n))

    DX = np.einsum("i,bis->bs", X, Dc.value)
    rhs1 = 2.0 * np.real(_h_values(DX, psi.value))

    thX = 0.0 if calc.theta is None else sum(X[i] * calc.theta.value[:, i]
                                             for i in range(n))
    rhs2 = (n - 2.0) * thX * nrm.value.real
    return lhs - rhs1 - rhs2, float(np.max(np.abs(nrm.value.real)))
