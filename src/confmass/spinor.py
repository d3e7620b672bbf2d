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
(m, B, n, ..., N), the coordinate direction third, and ``covd_frame``,
``dirac`` and ``coframe_action`` carry the extra axes the same way.
``spinor_jets`` evaluates a ``SpinorFieldSpec`` (parsed in ``chart``
with the rest of a config, and re-exported here) to a field.

The frame data are real jets stacked the same way: ``E`` and ``S`` are
(m, B, i, a), ``omega`` is (m, B, i, a, b), as are the metric,
connection and Lee-form jets of ``chart``, ``curvature`` and ``weyl``.
Constant Clifford actions (gamma_a, gamma_a gamma_b) are ``np.einsum``
with the stacked matrices of :class:`clifford.CliffordRep`; every row of
those matrices holds one entry 1, -1, i or -i, so they act exactly.
Products with real jets (omega, S, E, theta) and the hermitian pairing
go through ``jets.tensor_mul``.

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
the caller and shared by every operator that reads it.

All operators evaluate on a batch of points (n, B); every derivative
drops the jet order by one and mixed-order products truncate to the
lower order.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import clifford
from . import jetlinalg
from . import weyl as weylmod
from .chart import MetricData, SpinorFieldSpec, make_spinor_spec
from .curvature import (ConnectionData, CurvatureData, christoffels, codiff_oneform,
                        curvature)
from .jets import Jet, evaluate_jet, tensor_mul

__all__ = [
    "SpinorFieldSpec",
    "SpinFrame",
    "SpinorCalc",
    "make_spinor_spec",
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

def _act(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Constant matrices G (k, N, N) on the spinor axis of c (..., N),
    giving (..., k, N)."""
    return np.einsum("kst,...t->...ks", G, c)


def _slash(rep: clifford.CliffordRep, F: Jet) -> Jet:
    """gamma_a F_a for a frame-indexed field F (m, B, a, ..., N), giving
    (m, B, ..., N)."""
    return Jet(F.space, np.einsum("ast,zba...t->zb...s", rep.gamma, F.c))


def h_jet(psi: Jet, phi: Jet) -> Jet:
    """Hermitian pairing sum_s conj(psi_s) phi_s as a complex jet."""
    return Jet(psi.space, tensor_mul(psi.space, "bs,bs->b", np.conj(psi.c), phi.c))


def _h_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairing of value arrays (B, ..., N), summed over all but the batch."""
    prod = np.conj(x) * y
    return np.sum(prod.reshape(prod.shape[0], -1), axis=1)


def spinor_values(psi: Jet) -> np.ndarray:
    """(N, B) complex value array."""
    return psi.value.T


# ---------------------------------------------------------------------------
# field values

def spinor_jets(spec: SpinorFieldSpec | Sequence[SpinorFieldSpec], coords: list,
                params=None) -> Jet:
    """Evaluate a field spec to one complex jet of shape (m, B, N), or a
    sequence of S specs, in one program run, to one stacked field
    (m, B, S, N)."""
    single = isinstance(spec, SpinorFieldSpec)
    specs = [spec] if single else list(spec)
    v = evaluate_jet([t for sp in specs for pair in sp.components for t in pair],
                     coords, params).c
    c = v[..., 0::2].astype(np.complex128)
    c.imag = v[..., 1::2]
    if not single:
        c = c.reshape(c.shape[:2] + (len(specs), -1))
    return Jet(coords[0].space, c)


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
    nab = E.grad().c + tensor_mul(sp, "bjim,bma->bija", cd.christoffel.c, Et)
    gnab = tensor_mul(sp, "bjk,bija->bika", md.g.c[:sp.m], nab)
    omega = tensor_mul(sp, "bika,bkc->biac", gnab, Et)
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
    def weyl(self) -> weylmod.WeylData | None:
        return None if self.theta is None else weylmod.weyl_scalar(self.curv, self.theta)

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
        tf = Jet(sp, tensor_mul(sp, "bj,bja->ba", theta.c, frame.E.truncate(sp.order).c))
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
    (P, B, ..., N) for the P pairs of the multiplication table.
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
    diag = np.arange(psi_t.shape[-1])
    dpsi = psi.grad().c[:sp.m]
    out = np.empty(dpsi.shape, dtype=dpsi.dtype)
    for i in range(n):
        C = 0.25 * (om[:, :, i, a, b] - om[:, :, i, b, a])
        if use_theta:
            X = tensor_mul(sp, "ba,bc->bac", fr.S.c[:sp.m, :, i], calc.theta_frame.c[:sp.m])
            C = C - 0.5 * (X[..., a, b] - X[..., b, a])
        A = np.einsum("zbp,pst->zbst", C, calc.rep.pairs)
        if use_theta:
            A[..., diag, diag] += weight * calc.theta.c[:sp.m, :, i, None]
        out[:, :, i] = dpsi[:, :, i] + tensor_mul(sp, "bst,b...t->b...s", A, psi_t)
    return Jet(sp, out)


def covd_frame(calc: SpinorCalc, Dc: Jet) -> Jet:
    """D_{E_a} psi for every frame index a, as one jet (m, B, a, ..., N),
    from ``Dc = covd_coord(calc, psi, weight)`` of a field (m, B, ..., N)."""
    sp = Dc.space
    return Jet(sp, tensor_mul(sp, "bia,bi...s->ba...s", calc.frame.E.c[:sp.m], Dc.c))


def dirac(calc: SpinorCalc, Dc: Jet) -> Jet:
    """gamma_a D_{E_a} psi from ``Dc = covd_coord(calc, psi, weight)``; a
    field (m, B, ..., N) gives (m, B, ..., N)."""
    return _slash(calc.rep, covd_frame(calc, Dc))


def coframe_action(calc: SpinorCalc, chi: Jet) -> Jet:
    """dx_j^flat . chi for every coordinate direction j: a field
    (m, B, ..., N) gives one jet (m, B, j, ..., N)."""
    sp = chi.space
    return Jet(sp, tensor_mul(sp, "bja,b...as->bj...s", calc.frame.S.c[:sp.m],
                              _act(calc.rep.gamma, chi.c)))


def conf_trace_second(calc: SpinorCalc, Dc: Jet, weight: float | None) -> Jet:
    """-(D_{E_a}(D_{E_a} psi) - D_{W_a} psi) summed over a, from
    ``Dc = covd_coord(calc, psi, weight)``.

    W_a is the Weyl-connection derivative of the frame field E_a along
    itself; both spinor derivative applications use the same weight.
    """
    E = calc.frame.E
    t2 = Dc.space.order - 1
    if t2 < 0:
        raise ValueError("conf_trace_second needs spinor jets of order >= 2")
    sp = Dc.space.lower(t2)

    # W_a^m = E_ja (d_j E_ma + G~^m_jl E_la)
    Et = E.c[:sp.m]
    nab = E.grad().c[:sp.m] + tensor_mul(sp, "bmjl,bla->bjma",
                                         calc.connection.c[:sp.m], Et)
    W = tensor_mul(sp, "bja,bjma->bam", Et, nab)

    F = covd_frame(calc, Dc)
    DF = covd_coord(calc, F, weight).c  # [z, b, i, a, s]
    G = tensor_mul(sp, "bia,bias->bs", Et, DF)
    H = tensor_mul(sp, "bam,bms->bs", W, Dc.c[:sp.m])
    return Jet(sp, H - G)


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
    dth_f = tensor_mul(sp, "bia,bic->bac", Et, tensor_mul(sp, "bij,bjc->bic", curl, Et))
    a, b = np.triu_indices(n, 1)
    term_dth = tensor_mul(sp, "bp,bps->bs", dth_f[..., a, b], _act(rep.pairs, psi2))

    delth = calc.weyl.codiff.c[:sp.m]
    term_thdg = tensor_mul(sp, "ba,bas->bs", calc.theta_frame.c[:sp.m],
                           _act(rep.gamma, dg1_full.c[:sp.m]))

    # nabla_{theta sharp} psi (Riemannian), theta^sharp^i = g^{ij} theta_j
    nab = nab_full.c[:sp.m]
    sharp = tensor_mul(sp, "bij,bj->bi", md.ginv.c[:sp.m], th.c[:sp.m])
    term_nab = tensor_mul(sp, "bi,bis->bs", sharp, nab)

    nrm = calc.weyl.norm2_theta.c[:sp.m]

    out = dg2.c + c1 * term_dth
    out = out + tensor_mul(sp, "b,bs->bs", c1 * delth, psi2)
    out = out - term_thdg - c2 * term_nab
    out = out - tensor_mul(sp, "b,bs->bs", c3 * nrm, psi2)
    return Jet(sp, out)


# ---------------------------------------------------------------------------
# identity residuals

def lichnerowicz_I_residual(calc: SpinorCalc, psi: Jet, Dc: Jet):
    """Dirac-square minus trace-second minus quarter-Scal, at the
    distinguished weight k = (2 - n)/2, with ``Dc = covd_coord(calc, psi, k)``.

    Returns (residual (N, batch) complex array, scale) with scale the
    largest constituent term, for relative comparison.
    """
    k = 0.5 * (2.0 - calc.n)
    d2 = spinor_values(dirac_composed(calc, Dc, k))
    tr = spinor_values(conf_trace_second(calc, Dc, k))
    quarter = 0.25 * calc.scal.value * spinor_values(psi)
    res = d2 - tr - quarter
    scale = max(np.max(np.abs(d2)), np.max(np.abs(tr)), np.max(np.abs(quarter)))
    return res, float(scale)


def lichnerowicz_II_residual(calc: SpinorCalc, psi: Jet, phi: Jet,
                             Dc_psi: Jet, Dc_phi: Jet) -> dict:
    """Pairing form of the identity, with its two sub-residuals.

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
    residuals plus the scale of the largest term.  ``Dc_psi`` and
    ``Dc_phi`` are ``covd_coord`` of psi and of phi at weight (2 - n)/2.
    """
    md = calc.md
    k = 0.5 * (2.0 - calc.n)
    psi0 = psi.value
    h_tr = _h_values(psi0, conf_trace_second(calc, Dc_phi, k).value)
    h_d2 = _h_values(psi0, dirac_composed(calc, Dc_phi, k).value)

    sp = Dc_psi.space
    F_psi = covd_frame(calc, Dc_psi)
    F_phi = covd_frame(calc, Dc_phi)
    d_phi = _slash(calc.rep, F_phi)

    hDD_v = _h_values(F_psi.value, F_phi.value)
    hdd_v = _h_values(_slash(calc.rep, F_psi).value, d_phi.value)
    quarter_v = 0.25 * calc.scal.value * _h_values(psi0, phi.value)

    # beta_j = h(psi, dx_j^flat . Dirac phi), alpha_j = h(psi, D_j phi)
    cpsi = np.conj(psi.c[:sp.m])
    beta = tensor_mul(sp, "bs,bjs->bj", cpsi, coframe_action(calc, d_phi).c)
    alpha = tensor_mul(sp, "bs,bjs->bj", cpsi, Dc_phi.c)

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
    return {
        "main": main,
        "first": first,
        "second": second,
        "scale": float(scale),
    }


def norm_identity_residual(calc: SpinorCalc, psi: Jet, direction, Dc: Jet) -> np.ndarray:
    """d|psi|^2(X) - 2 Re h(D_X psi, psi) - (n-2) theta(X) |psi|^2.

    ``direction`` is a constant coordinate coefficient vector and ``Dc``
    is ``covd_coord(calc, psi, (2 - n)/2)``, at the distinguished weight.
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
    return lhs - rhs1 - rhs2
