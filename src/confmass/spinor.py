"""Spinor fields over a chart: spin connection, weighted derivatives,
Dirac operators, and the two conformal Lichnerowicz identities.

Trivialization
--------------
Spinor fields are lists of N = 2^(n//2) complex jets giving the
components in the orthonormal-frame trivialization: the frame is
E_a = columns of A^{-1/2} where A is the metric coefficient matrix, so
"constant spinor" is meaningful and asymptotically constant data is
literally constant.  Complex jets (:class:`CJet`) carry the real and
imaginary parts as separate real jets.

Weighted derivative
-------------------
For a Lee form theta and weight k,

    D_X psi = nabla_X psi - (1/2) X^flat . theta . psi + (k - 1/2) theta(X) psi

with nabla the metric spin connection d + (1/4) omega_i^{ab} gamma_a
gamma_b and ``.`` the Clifford action; X^flat has frame components
(A^{1/2})_{ia} when X = d/dx_i.  The weighted Dirac operator is
Dirac^{(k)} = gamma_a D_{E_a}; its square is taken as the composition
with the outer application at weight k-1.

All operators evaluate on batched jets; every derivative drops the jet
order by one and mixed-order products truncate to the lower order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import clifford
from . import exprdsl
from . import jetlinalg
from . import weyl as weylmod
from .chart import MetricChart, MetricData
from .curvature import ConnectionData, christoffels, codiff_oneform, curvature
from .jets import Jet, evaluate_jet, tensor_mul

__all__ = [
    "CJet",
    "SpinorFieldSpec",
    "SpinFrame",
    "SpinorCalc",
    "make_spinor_spec",
    "spinor_jets",
    "frame_spin_connection",
    "spinor_calc",
    "spinor_calc_light",
    "covd_coord",
    "covd_frame",
    "weyl_spinor_derivative",
    "dirac",
    "conf_trace_second",
    "dirac_composed",
    "dirac_squared_expansion",
    "lichnerowicz_I_residual",
    "lichnerowicz_II_residual",
    "norm_identity_residual",
    "h_jet",
    "spinor_values",
    "spinor_max_abs",
]


# ---------------------------------------------------------------------------
# complex jets

class CJet:
    """A complex-valued jet stored as (real part, imaginary part)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Jet, im: Jet):
        self.re = re
        self.im = im

    @classmethod
    def from_real(cls, re: Jet) -> "CJet":
        return cls(re, Jet(re.space, np.zeros_like(re.c)))

    @property
    def space(self):
        return self.re.space

    @property
    def value(self):
        return self.re.value + 1j * self.im.value

    def derive(self, v: int) -> "CJet":
        return CJet(self.re.derive(v), self.im.derive(v))

    def truncate(self, order: int) -> "CJet":
        if order == self.re.space.order:
            return self
        return CJet(self.re.truncate(order), self.im.truncate(order))

    def __add__(self, other: "CJet") -> "CJet":
        return CJet(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CJet") -> "CJet":
        return CJet(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CJet":
        return CJet(-self.re, -self.im)

    def scale(self, z) -> "CJet":
        """Multiply by a complex (or real) constant."""
        zr, zi = float(np.real(z)), float(np.imag(z))
        if zi == 0.0:
            return CJet(zr * self.re, zr * self.im)
        if zr == 0.0:
            return CJet((-zi) * self.im, zi * self.re)
        return CJet(zr * self.re - zi * self.im, zr * self.im + zi * self.re)

    def mul_jet(self, j: Jet) -> "CJet":
        """Multiply by a real jet."""
        return CJet(self.re * j, self.im * j)

    def conj_mul(self, other: "CJet") -> "CJet":
        """conj(self) * other as a complex jet."""
        return CJet(self.re * other.re + self.im * other.im,
                    self.re * other.im - self.im * other.re)


# a spinor field sample is a list of N CJets; helpers below keep that
# representation flat rather than wrapping it in another class.

def _czero(like: CJet) -> CJet:
    z = Jet(like.re.space, np.zeros_like(like.re.c))
    return CJet(z, Jet(z.space, np.zeros_like(z.c)))


def s_truncate(psi: list, order: int) -> list:
    return [c.truncate(order) for c in psi]


def s_add(x: list, y: list) -> list:
    return [a + b for a, b in zip(x, y)]


def s_sub(x: list, y: list) -> list:
    return [a - b for a, b in zip(x, y)]


def s_neg(x: list) -> list:
    return [-a for a in x]


def s_scale(x: list, z) -> list:
    return [a.scale(z) for a in x]


def s_mul_jet(x: list, j: Jet) -> list:
    return [a.mul_jet(j) for a in x]


def mat_apply(M: np.ndarray, psi: list) -> list:
    """Apply a constant complex matrix to a spinor of complex jets."""
    N = len(psi)
    out = []
    for s in range(N):
        acc = None
        for t in range(N):
            z = M[s, t]
            if z == 0.0:
                continue
            term = psi[t].scale(z)
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else _czero(psi[0]))
    return out


def cliff_vector_jets(rep, coeffs: list, psi: list) -> list:
    """(sum_a coeffs_a gamma_a) psi with real-jet coefficients."""
    acc = None
    for a in range(rep.n):
        term = s_mul_jet(mat_apply(rep.gamma[a], psi), coeffs[a])
        acc = term if acc is None else s_add(acc, term)
    return acc


def h_jet(psi: list, phi: list) -> CJet:
    """Hermitian pairing sum_s conj(psi_s) phi_s as a complex jet."""
    acc = None
    for a, b in zip(psi, phi):
        t = a.conj_mul(b)
        acc = t if acc is None else acc + t
    return acc


def spinor_values(psi: list) -> np.ndarray:
    """(N, batch) complex value array."""
    return np.stack([c.value for c in psi], axis=0)


def spinor_max_abs(psi: list) -> float:
    return float(np.max(np.abs(spinor_values(psi))))


# ---------------------------------------------------------------------------
# field specifications

@dataclass(frozen=True)
class SpinorFieldSpec:
    """Component expressions (real, imaginary pairs) in the frame
    trivialization, plus the weight."""

    components: tuple  # N pairs of ExprAst
    weight: float

    @property
    def n_components(self) -> int:
        return len(self.components)


def make_spinor_spec(sources, weight: float) -> SpinorFieldSpec:
    """Parse N (real, imaginary) source pairs into a field spec."""
    comps = []
    for pair in sources:
        re_src, im_src = pair
        re_ast = exprdsl.parse(re_src) if isinstance(re_src, str) else re_src
        im_ast = exprdsl.parse(im_src) if isinstance(im_src, str) else im_src
        comps.append((re_ast, im_ast))
    k = int(np.log2(len(comps)))
    if 2 ** k != len(comps):
        raise ValueError(f"component count {len(comps)} is not a power of two")
    return SpinorFieldSpec(components=tuple(comps), weight=float(weight))


def spinor_jets(spec: SpinorFieldSpec, coords: list,
                params=None) -> list:
    """Evaluate a field spec to a list of complex jets."""
    out = []
    for re_ast, im_ast in spec.components:
        out.append(CJet(evaluate_jet(re_ast, coords, params),
                        evaluate_jet(im_ast, coords, params)))
    return out


# ---------------------------------------------------------------------------
# frame + spin connection

@dataclass
class SpinFrame:
    """Orthonormal frame data for one metric sample.

    ``E[i][a]`` are the coordinate components of the frame vector E_a
    (columns of A^{-1/2}), ``S = A^{1/2}`` doubles as the frame
    components of the coordinate covectors, and ``omega[i][a][b]`` is
    g(nabla_i E_a, E_b), computed raw (antisymmetry in (a, b) is a
    measured property, not enforced).
    """

    md: MetricData
    cd: ConnectionData
    E: list
    S: list
    omega: list

    @property
    def omega_order(self) -> int:
        return self.omega[0][0][0].space.order


def frame_spin_connection(md: MetricData, cd: ConnectionData | None = None) -> SpinFrame:
    """Orthonormal frame and spin-connection coefficient jets.

    omega_iab = g_jk (nabla_i E_a)^j E_kb with
    (nabla_i E_a)^j = d_i E_ja + Gamma^j_im E_ma, at one order below the
    metric, as whole-array jet products over the stacked coefficients.
    """
    n = md.chart.n
    if md.space.order < 1:
        raise ValueError("frame_spin_connection needs jet order >= 1")
    if cd is None:
        cd = christoffels(md)
    S = jetlinalg.spd_sqrt(md.g)
    E = jetlinalg.mat_inv(S)

    sp = cd.christoffel[0][0][0].space
    Ec = jetlinalg.stack(E)  # [z, b, j, a]
    Et = Ec[:sp.m]
    dE = np.stack([Jet(md.space, Ec).derive(i).c for i in range(n)], axis=2)
    nab = dE + tensor_mul(sp, "bjim,bma->bija", jetlinalg.stack(cd.christoffel), Et)
    gnab = tensor_mul(sp, "bjk,bija->bika", jetlinalg.stack(md.g)[:sp.m], nab)
    omega = tensor_mul(sp, "bika,bkc->biac", gnab, Et)
    return SpinFrame(md=md, cd=cd, E=E, S=S,
                     omega=jetlinalg.unstack(sp, omega, md.points.ndim == 2))


# ---------------------------------------------------------------------------
# calculator

@dataclass
class SpinorCalc:
    """Everything needed to differentiate spinor fields on one sample.

    ``weyl_gamma`` holds the vector-field connection used for the frame
    correction in the second-derivative trace: the Weyl connection when
    a Lee form is present, the Levi-Civita connection otherwise.
    ``scal_weyl`` is the scalar curvature of that connection.
    """

    frame: SpinFrame
    rep: clifford.CliffordRep
    theta: list | None
    theta_frame: list | None
    weyl_gamma: list
    scal_weyl: Jet | None

    @property
    def n(self) -> int:
        return self.frame.md.chart.n

    @property
    def md(self) -> MetricData:
        return self.frame.md


def _make_calc(cd: ConnectionData, theta: list | None, weyl_gamma: list,
               scal_weyl: Jet | None) -> SpinorCalc:
    """Frame, Clifford module and frame components theta(E_b) of the Lee form."""
    md = cd.md
    n = md.chart.n
    frame = frame_spin_connection(md, cd)
    tf = None
    if theta is not None:
        tK = theta[0].space.order
        tf = []
        for b in range(n):
            acc = None
            for j in range(n):
                term = theta[j] * frame.E[j][b].truncate(tK)
                acc = term if acc is None else acc + term
            tf.append(acc)
    return SpinorCalc(frame=frame, rep=clifford.build_rep(n), theta=theta,
                      theta_frame=tf, weyl_gamma=weyl_gamma, scal_weyl=scal_weyl)


def spinor_calc(md: MetricData, theta: list | None = None,
                check_two_path: bool = True) -> SpinorCalc:
    """Build the frame, connections, and curvature for spinor work."""
    if md.space.order < 2:
        raise ValueError("spinor calculus needs metric jets of order >= 2")
    cd = christoffels(md)
    cv = curvature(cd)
    if theta is None:
        return _make_calc(cd, None, cd.christoffel, cv.scal)
    wd = weylmod.weyl_scalar(cv, theta, check_two_path=check_two_path)
    return _make_calc(cd, theta, wd.gamma, wd.scal)


def spinor_calc_light(md: MetricData, theta: list | None = None) -> SpinorCalc:
    """First-derivative-only calculator (no curvature, no Weyl scalar).

    Enough for ``covd_coord`` / ``covd_frame`` / ``dirac`` on order-1
    metric jets, as used by boundary-flux integrands; ``scal_weyl`` is
    None and ``conf_trace_second`` must not be called on it.
    """
    cd = christoffels(md)
    return _make_calc(cd, theta, cd.christoffel, None)


def covd_coord(calc: SpinorCalc, psi: list, weight: float | None = None,
               riemannian: bool = False) -> list:
    """D_i psi for every coordinate direction i, one jet order down.

    With ``riemannian`` (or when the calculator has no Lee form) this is
    the metric spin-connection derivative; otherwise the weighted Weyl
    derivative at the given weight.
    """
    n = calc.n
    rep = calc.rep
    fr = calc.frame
    q = psi[0].space.order
    t = min(q - 1, fr.omega_order)
    if t < 0:
        raise ValueError("spinor jets exhausted: need order >= 1")
    use_theta = (calc.theta is not None) and not riemannian
    if use_theta and weight is None:
        raise ValueError("weighted derivative needs a weight")

    psi_t = s_truncate(psi, t)
    # gamma_a gamma_b psi for a < b, shared across directions
    pair = {}
    for a in range(n):
        for b in range(a + 1, n):
            pair[(a, b)] = mat_apply(clifford.gamma_product(n, (a, b)), psi_t)

    if use_theta:
        th_f = [x.truncate(t) for x in calc.theta_frame]
        th_c = [x.truncate(t) for x in calc.theta]
        chi = cliff_vector_jets(rep, th_f, psi_t)  # theta . psi

    out = []
    for i in range(n):
        acc = [c.derive(i).truncate(t) for c in psi]
        for a in range(n):
            for b in range(a + 1, n):
                w = 0.25 * (fr.omega[i][a][b].truncate(t) - fr.omega[i][b][a].truncate(t))
                acc = s_add(acc, s_mul_jet(pair[(a, b)], w))
        if use_theta:
            xflat = [fr.S[i][a].truncate(t) for a in range(n)]
            acc = s_add(acc, s_scale(cliff_vector_jets(rep, xflat, chi), -0.5))
            acc = s_add(acc, s_mul_jet(psi_t, (weight - 0.5) * th_c[i]))
        out.append(acc)
    return out


def covd_frame(calc: SpinorCalc, psi: list, weight: float | None = None,
               riemannian: bool = False, coord_fields: list | None = None,
               frame_cols: list | None = None) -> list:
    """D_{E_a} psi for every frame index a (contraction of covd_coord)."""
    n = calc.n
    if coord_fields is None:
        coord_fields = covd_coord(calc, psi, weight, riemannian)
    t = coord_fields[0][0].space.order
    E = frame_cols if frame_cols is not None else calc.frame.E
    out = []
    for a in range(n):
        acc = None
        for i in range(n):
            term = s_mul_jet(coord_fields[i], E[i][a].truncate(t))
            acc = term if acc is None else s_add(acc, term)
        out.append(acc)
    return out


def weyl_spinor_derivative(calc: SpinorCalc, psi: list, weight: float,
                           direction: int) -> list:
    """D^{(weight)}_{E_a} psi for one frame direction a."""
    return covd_frame(calc, psi, weight)[direction]


def dirac(calc: SpinorCalc, psi: list, weight: float | None = None) -> list:
    """gamma_a D_{E_a} psi; Riemannian when ``weight`` is None."""
    riem = weight is None
    F = covd_frame(calc, psi, weight, riemannian=riem)
    acc = None
    for a in range(calc.n):
        term = mat_apply(calc.rep.gamma[a], F[a])
        acc = term if acc is None else s_add(acc, term)
    return acc


def _frame_columns(calc: SpinorCalc, rotation, scale: float) -> list:
    E = calc.frame.E
    n = calc.n
    if rotation is None and scale == 1.0:
        return E
    R = np.eye(n) if rotation is None else np.asarray(rotation, dtype=np.float64)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for a in range(n):
            acc = None
            for b in range(n):
                if R[b, a] == 0.0:
                    continue
                term = (scale * R[b, a]) * E[i][b]
                acc = term if acc is None else acc + term
            out[i][a] = acc if acc is not None else 0.0 * E[i][0]
    return out


def conf_trace_second(calc: SpinorCalc, psi: list, weight: float | None = None,
                      frame_rotation=None, frame_scale: float = 1.0) -> list:
    """-(D_{E_a}(D_{E_a} psi) - D_{W_a} psi) summed over a, times scale^-2.

    W_a is the Weyl-connection derivative of the frame field E_a along
    itself; both spinor derivative applications use the same weight.
    The optional rotation/scale replace the contraction frame by
    E'_a = scale * (E R)_a, with the compensating scale^-2 factor, and
    must leave the result unchanged.
    """
    n = calc.n
    fr = calc.frame
    riem = (calc.theta is None)
    Dc = covd_coord(calc, psi, weight, riemannian=riem)  # order t1
    t1 = Dc[0][0].space.order
    t2 = t1 - 1
    if t2 < 0:
        raise ValueError("conf_trace_second needs spinor jets of order >= 2")
    cols = _frame_columns(calc, frame_rotation, frame_scale)

    # W_a^m = E'_ja (d_j E'_ma + G~^m_jl E'_la), truncated to t2
    gam = calc.weyl_gamma
    tg = min(t2, gam[0][0][0].space.order)
    W = [[None] * n for _ in range(n)]  # [a][m]
    for a in range(n):
        for m in range(n):
            acc = None
            for j in range(n):
                inner = cols[m][a].derive(j).truncate(tg)
                for l in range(n):
                    inner = inner + gam[m][j][l].truncate(tg) * cols[l][a].truncate(tg)
                term = cols[j][a].truncate(tg) * inner
                acc = term if acc is None else acc + term
            W[a][m] = acc

    F = covd_frame(calc, psi, weight, riemannian=riem,
                   coord_fields=Dc, frame_cols=cols)
    acc = None
    for a in range(n):
        Ga_fields = covd_coord(calc, F[a], weight, riemannian=riem)
        Ga = None
        for i in range(n):
            term = s_mul_jet(Ga_fields[i], cols[i][a].truncate(t2))
            Ga = term if Ga is None else s_add(Ga, term)
        Ha = None
        for m in range(n):
            term = s_mul_jet(s_truncate(Dc[m], tg), W[a][m])
            Ha = term if Ha is None else s_add(Ha, term)
        contrib = s_sub(Ga, s_truncate(Ha, t2))
        acc = contrib if acc is None else s_add(acc, contrib)
    res = s_neg(acc)
    if frame_scale != 1.0:
        res = s_scale(res, frame_scale ** -2.0)
    return res


def dirac_composed(calc: SpinorCalc, psi: list, weight: float | None = None) -> list:
    """Dirac^{(k-1)} Dirac^{(k)} psi (outer weight dropped by one)."""
    first = dirac(calc, psi, weight)
    return dirac(calc, first, None if weight is None else weight - 1.0)


def dirac_squared_expansion(calc: SpinorCalc, psi: list, weight: float) -> list:
    """Five-term expansion of the weighted Dirac square.

    (Dirac^g)^2 psi + c1 (dtheta + delta theta) . psi - theta . Dirac^g psi
      - c2 nabla_{theta^sharp} psi - c3 |theta|^2 psi,
    c1 = k + (n-1)/2, c2 = 2k + n - 1, c3 = c1 (c1 - 1).

    Independent of :func:`dirac_composed`; the two must agree.
    """
    if calc.theta is None:
        return dirac_composed(calc, psi, None)
    n = calc.n
    k = float(weight)
    c1 = k + 0.5 * (n - 1)
    c2 = 2.0 * k + n - 1.0
    c3 = c1 * (c1 - 1.0)
    md = calc.md
    fr = calc.frame

    dg2 = dirac_composed(calc, psi, None)  # Riemannian square
    t2 = dg2[0].space.order
    psi2 = s_truncate(psi, t2)

    # dtheta in frame components: E_ia E_jb (d_i theta_j - d_j theta_i)
    dth_c = [[calc.theta[j].derive(i) - calc.theta[i].derive(j)
              for j in range(n)] for i in range(n)]
    term_dth = None
    for a in range(n):
        for b in range(a + 1, n):
            coef = None
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    t = fr.E[i][a].truncate(t2) * fr.E[j][b].truncate(t2) \
                        * dth_c[i][j].truncate(t2)
                    coef = t if coef is None else coef + t
            part = s_mul_jet(mat_apply(clifford.gamma_product(n, (a, b)), psi2), coef)
            term_dth = part if term_dth is None else s_add(term_dth, part)
    if term_dth is None:
        term_dth = [_czero(psi2[0]) for _ in psi2]

    delth = codiff_oneform(md, calc.theta).truncate(t2)
    dg1 = s_truncate(dirac(calc, psi, None), t2)
    th_f2 = [x.truncate(t2) for x in calc.theta_frame]
    term_thdg = cliff_vector_jets(calc.rep, th_f2, dg1)

    # nabla_{theta sharp} psi (Riemannian), theta^sharp^i = g^{ij} theta_j
    nab = covd_coord(calc, psi, riemannian=True)
    sharp = []
    for i in range(n):
        acc = None
        for j in range(n):
            t = md.ginv[i][j].truncate(t2) * calc.theta[j].truncate(t2)
            acc = t if acc is None else acc + t
        sharp.append(acc)
    term_nab = None
    for i in range(n):
        t = s_mul_jet(s_truncate(nab[i], t2), sharp[i])
        term_nab = t if term_nab is None else s_add(term_nab, t)

    nrm = weylmod.theta_norm2(md, calc.theta).truncate(t2)

    out = s_add(dg2, s_scale(term_dth, c1))
    out = s_add(out, s_mul_jet(psi2, c1 * delth))
    out = s_sub(out, term_thdg)
    out = s_sub(out, s_scale(term_nab, c2))
    out = s_sub(out, s_mul_jet(psi2, c3 * nrm))
    return out


# ---------------------------------------------------------------------------
# identity residuals

def lichnerowicz_I_residual(calc: SpinorCalc, psi: list):
    """Dirac-square minus trace-second minus quarter-Scal, at the
    distinguished weight (2 - n)/2.

    Returns (residual (N, batch) complex array, scale) with scale the
    largest constituent term, for relative comparison.
    """
    n = calc.n
    k = 0.5 * (2.0 - n)
    d2 = spinor_values(dirac_composed(calc, psi, k))
    tr = spinor_values(conf_trace_second(calc, psi, k))
    t2 = 0
    sc = calc.scal_weyl.truncate(min(t2, calc.scal_weyl.space.order))
    quarter = 0.25 * sc.value * spinor_values(s_truncate(psi, 0))
    res = d2 - tr - quarter
    scale = max(np.max(np.abs(d2)), np.max(np.abs(tr)), np.max(np.abs(quarter)))
    return res, float(scale)


def _codiff_complex(md: MetricData, comps: list) -> np.ndarray:
    re = codiff_oneform(md, [c.re for c in comps])
    im = codiff_oneform(md, [c.im for c in comps])
    return re.value + 1j * im.value


def lichnerowicz_II_residual(calc: SpinorCalc, psi: list, phi: list) -> dict:
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
    residuals plus the scale of the largest term.
    """
    n = calc.n
    md = calc.md
    k = 0.5 * (2.0 - n)
    fr = calc.frame

    Dc_psi = covd_coord(calc, psi, k)
    Dc_phi = covd_coord(calc, phi, k)
    t1 = Dc_psi[0][0].space.order
    F_psi = covd_frame(calc, psi, k, coord_fields=Dc_psi)
    F_phi = covd_frame(calc, phi, k, coord_fields=Dc_phi)

    hDD = None
    for a in range(n):
        t = h_jet(F_psi[a], F_phi[a])
        hDD = t if hDD is None else t + hDD
    hDD_v = hDD.value

    d_psi = None
    d_phi = None
    for a in range(n):
        tp = mat_apply(calc.rep.gamma[a], F_psi[a])
        tq = mat_apply(calc.rep.gamma[a], F_phi[a])
        d_psi = tp if d_psi is None else s_add(d_psi, tp)
        d_phi = tq if d_phi is None else s_add(d_phi, tq)
    hdd_v = h_jet(d_psi, d_phi).value

    psi1 = s_truncate(psi, t1)
    sc = calc.scal_weyl.truncate(0)
    hpp_v = h_jet(s_truncate(psi, 0), s_truncate(phi, 0)).value
    quarter_v = 0.25 * sc.value * hpp_v

    # omega_j = h(psi, dx_j^flat . Dirac phi + D_j phi)
    omega = []
    alpha = []
    beta = []
    for j in range(n):
        xflat = [fr.S[j][a].truncate(t1) for a in range(n)]
        cl = cliff_vector_jets(calc.rep, xflat, d_phi)
        beta_j = h_jet(psi1, cl)
        alpha_j = h_jet(psi1, Dc_phi[j])
        omega.append(beta_j + alpha_j)
        alpha.append(alpha_j)
        beta.append(beta_j)
    d_omega = _codiff_complex(md, omega)
    d_alpha = _codiff_complex(md, alpha)
    d_beta = _codiff_complex(md, beta)

    main = hDD_v + quarter_v - hdd_v + d_omega

    tr_phi = spinor_values(conf_trace_second(calc, phi, k))
    h_tr = np.sum(np.conjugate(spinor_values(s_truncate(psi, 0))) * tr_phi, axis=0)
    first = hDD_v - h_tr + d_alpha

    d2_phi = spinor_values(dirac_composed(calc, phi, k))
    h_d2 = np.sum(np.conjugate(spinor_values(s_truncate(psi, 0))) * d2_phi, axis=0)
    second = hdd_v - h_d2 - d_beta

    scale = max(np.max(np.abs(hDD_v)), np.max(np.abs(hdd_v)),
                np.max(np.abs(quarter_v)), np.max(np.abs(d_omega)), 1e-300)
    return {
        "main": main,
        "first": first,
        "second": second,
        "scale": float(scale),
    }


def norm_identity_residual(calc: SpinorCalc, psi: list, direction) -> np.ndarray:
    """d|psi|^2(X) - 2 Re h(D_X psi, psi) - (n-2) theta(X) |psi|^2.

    ``direction`` is a constant coordinate coefficient vector; the
    weight is the distinguished (2-n)/2.
    """
    n = calc.n
    k = 0.5 * (2.0 - n)
    X = np.asarray(direction, dtype=np.float64)
    nrm = h_jet(psi, psi).re  # real jet |psi|^2
    lhs = None
    for i in range(n):
        t = X[i] * nrm.derive(i)
        lhs = t if lhs is None else lhs + t
    lhs_v = lhs.value

    Dc = covd_coord(calc, psi, k, riemannian=(calc.theta is None))
    DX = None
    for i in range(n):
        t = s_scale(Dc[i], X[i])
        DX = t if DX is None else s_add(DX, t)
    t1 = DX[0].space.order
    rhs1 = 2.0 * np.real(h_jet(DX, s_truncate(psi, t1)).value)

    if calc.theta is None:
        thX = 0.0
    else:
        acc = None
        for i in range(n):
            t = X[i] * calc.theta[i].value
            acc = t if acc is None else acc + t
        thX = acc
    rhs2 = (n - 2.0) * thX * h_jet(s_truncate(psi, 0), s_truncate(psi, 0)).re.value
    return lhs_v - rhs1 - rhs2
