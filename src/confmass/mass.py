"""Sphere quadrature, boundary fluxes, radius extrapolation, and masses.

Fluxes are surface integrals over coordinate spheres S_r.  Two measure
conventions are supported everywhere:

* ``euclidean``: nu = x/r, flat area element;
* ``g``: nu = the g-unit vector along x/r, area element induced by g.

Their limits agree on valid charts and the suite asserts it; reported
masses default to the raw convention (no 1/(2(n-1) omega_{n-1})
factor), with ``normalize="adm"`` dividing by that constant.

The mass of a Weyl structure combines the metric mass with the Lee-form
flux as

    m(D) = m(g0) - 2 (n-1) lim_r  integral_{S_r} theta_0(nu) dA,

and its report keeps the metric mass m(g0) of each end (``MassReport.metric``)
for callers that need it again.  Every flux series becomes a limit
through ``series_limit``.

The sign of the Lee term is fixed by conformal invariance: with it,
m(D) computed against g0 and against f g0 (rescaling the Lee form
accordingly) agree, and the spinor boundary flux converges to
(1/4) m(D) |psi_0|^2 for asymptotically constant psi_0.  Both facts are
enforced by the acceptance tests.

Quadrature: every flux function takes the radii of its series and
returns one flux per radius.  Each radius climbs the order ladder
``QUAD_ORDERS`` of exact sphere rules (see ``sphere_rule``), skipping
rungs of more than ``QUAD_MAX_NODES`` nodes, and gets the finer value of
the first adjacent pair that agrees within ``QUAD_RTOL`` times the sum
of the absolute node terms plus ``QUAD_ATOL`` (the floor that lets
integrands vanishing node by node, such as a rotational Lee form, pass),
else the last rung's value.  A series runs one sample per rung: the
first holds the first pair at every radius, each later one the next rung
at the radii that have not yet agreed.  A flux function's ``orders``
runs that one rule alone at every radius (the tests' reference path;
the masses always climb the ladder).  Sphere rules, and so fluxes, exist
for 3 <= n <= ``FLUX_MAX_DIM``.  The CLI echoes both tolerances.

Determinism: a sample lays its rules' nodes end to end and evaluates
them in fixed ``util.CHUNK``-node chunks cut across the whole sample,
each built from the cached unit rule scaled by its radius.  Integrands
are column-independent bit for bit, and each rule's node terms are
reduced with a fixed pairwise tree (see util) as soon as its last node
is in, then released; so every flux is byte-identical from run to run,
and equal to the flux a single-radius call returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import exprdsl, util
from .chart import (End, EndSystem, MetricChart, lee_jets, metric_entry_jets,
                    metric_jets)
from .jets import seed_point
from .spinor import (SpinorFieldSpec, coframe_action, covd_coord, dirac,
                     spinor_calc, spinor_jets)

__all__ = [
    "SphereRule",
    "MassReport",
    "ExtrapolationResult",
    "sphere_rule",
    "adm_flux",
    "lee_flux",
    "gradient_flux",
    "weyl_flux",
    "witten_flux",
    "extrapolate",
    "series_limit",
    "riemannian_mass",
    "weyl_mass",
    "two_path_mass_delta",
    "sphere_area",
]

# the order ladder, its node budget and tolerances (see the module
# docstring); the budget tops the ladder at 48/48/24/12 for n = 3/4/5/6
QUAD_ORDERS = (6, 12, 16, 24, 32, 48)
QUAD_MAX_NODES = 700_000
QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-15
# the largest dimension with a sphere rule, so with fluxes and masses
FLUX_MAX_DIM = 6


def sphere_area(n: int, r: float = 1.0) -> float:
    """Surface area of S_r in R^n: 2 pi^{n/2} / Gamma(n/2) * r^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * r ** (n - 1)


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes on S_r with Euclidean surface weights."""

    r: float
    nodes: np.ndarray  # (n, M)
    weights: np.ndarray  # (M,)

    @property
    def count(self) -> int:
        return self.nodes.shape[1]


def sphere_rule(n: int, r: float, orders: int) -> SphereRule:
    """Product rule of order N = ``orders`` on the sphere of radius r: for
    each polar angle theta_k (k = 1..n-2) N Gauss-Jacobi nodes in
    cos(theta_k) for the weight (1 - t^2)^((n-2-k)/2) of the surface
    element, and 2N uniform azimuth nodes.  Its 2 N^(n-1) nodes are exact
    on polynomials of degree up to 2N - 1.  The unit-sphere rule is built
    once per (n, N) and scaled by r on every call."""
    N = _rule_order(n, orders)
    if r <= 0:
        raise ValueError("radius must be positive")
    x, w = _unit_rule(n, N)
    return SphereRule(r=float(r), nodes=r * x, weights=(r ** (n - 1)) * w)


def _rule_order(n: int, orders: int) -> int:
    """The order N of a sphere rule in dimension n, checked."""
    if not 3 <= n <= FLUX_MAX_DIM:
        raise ValueError(f"sphere_rule supports 3 <= n <= {FLUX_MAX_DIM}, got {n}")
    N = int(orders)
    if N < 2:
        raise ValueError("quadrature order must be >= 2")
    return N


def _polar_rule(N: int, a: float) -> tuple:
    """N-node Gauss rule in t on (-1, 1) for the weight (1 - t^2)^a: for
    a > 0 the eigenvalues of the Jacobi matrix of the Jacobi polynomials
    P^(a,a), weighted mu_0 v_0^2 (Golub & Welsch, Math. Comp. 23, 1969)."""
    if a == 0:
        return leggauss(N)
    j = np.arange(1.0, N)
    b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    t, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    return t, mu0 * v[0] ** 2


@functools.lru_cache(maxsize=32)
def _unit_rule(n: int, N: int) -> tuple:
    """Read-only nodes (n, M) and weights (M,) of the rule on the unit sphere:
    x[n-1] = t_1, x[n-2] = s_1 t_2, ..., x[0] = S cos(phi), x[1] = S sin(phi)
    with s_k = sqrt(1 - t_k^2), S = prod s_k, t_1 slowest and phi fastest."""
    M = 2 * N
    phi = 2.0 * math.pi * np.arange(M) / M
    shape = (N,) * (n - 2) + (M,)
    x = np.empty((n,) + shape)
    w = np.ones(shape)
    S = np.ones(shape)
    for k in range(1, n - 1):
        t, wt = _polar_rule(N, 0.5 * (n - 2 - k))
        axis = (N,) + (1,) * (n - 1 - k)
        x[n - k] = S * t.reshape(axis)
        S = S * np.sqrt(1.0 - t ** 2).reshape(axis)
        w = w * wt.reshape(axis)
    x[0] = S * np.cos(phi)
    x[1] = S * np.sin(phi)
    w = w * np.full(M, 2.0 * math.pi / M)
    x, w = x.reshape(n, -1), w.ravel()
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# measure factors

def _small_det(A: np.ndarray) -> np.ndarray:
    """Determinant of (..., d, d) arrays by cofactor expansion (d <= 5)."""
    d = A.shape[-1]
    if d == 1:
        return A[..., 0, 0]
    if d == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    acc = None
    cols = list(range(d))
    for j in range(d):
        rest = cols[:j] + cols[j + 1:]
        minor = _small_det(A[..., 1:, :][..., :, rest])
        term = ((-1.0) ** j) * A[..., 0, j] * minor
        acc = term if acc is None else acc + term
    return acc


def _metric_values(chart: MetricChart, X: np.ndarray) -> np.ndarray:
    """g_ij values at columns of X as an (B, n, n) array."""
    n = chart.n
    iu, ju = np.triu_indices(n)
    upper = exprdsl.evaluate([chart.metric[i][j] for i, j in zip(iu, ju)], X, chart.params)
    G = np.empty((X.shape[1], n, n))
    G[:, iu, ju] = upper
    G[:, ju, iu] = upper
    return G


def _measure_factors(chart: MetricChart, X: np.ndarray, measure: str):
    """Outward normal components nu (n, B) and area factor (B,).

    The factor multiplies the Euclidean quadrature weights; for the
    ``g`` measure nu is the g-unit radial vector and the factor is the
    induced-area density sqrt(det T^t G T) over a Householder tangent
    basis.
    """
    n, B = X.shape
    r = np.sqrt(np.sum(X * X, axis=0))
    xhat = X / r
    if measure == "euclidean":
        return xhat, np.ones(B)
    if measure != "g":
        raise ValueError(f"unknown measure {measure!r} (euclidean | g)")
    G = _metric_values(chart, X)
    qn = np.einsum("ib,bij,jb->b", xhat, G, xhat)
    nu = xhat / np.sqrt(qn)
    # Householder reflection sending e_n to -s*xhat; first n-1 columns
    # span the tangent space of S_r at each node
    s = np.where(xhat[n - 1] >= 0.0, 1.0, -1.0)
    v = xhat.copy()
    v[n - 1] += s
    vn = np.sum(v * v, axis=0)
    H = np.eye(n)[None, :, :] - 2.0 * np.einsum("ib,jb->bij", v, v) / vn[:, None, None]
    T = H[:, :, : n - 1]
    induced = np.einsum("bki,bkl,blj->bij", T, G, T)
    fac = np.sqrt(_small_det(induced))
    return nu, fac


# ---------------------------------------------------------------------------
# fluxes

def _flux(chart: MetricChart, r: Sequence[float], integrand, measure: str,
          orders: int | None, dtype=np.float64) -> np.ndarray:
    """Fluxes of ``integrand`` over S_r for each radius of the series ``r``,
    as an (R,) array, or (R, S) when the integrand returns (S, B); each
    climbs the order ladder until every column agrees (see the module
    docstring), or runs the one rule ``orders``.  The first sample holds
    the first two rungs at every radius, each later one the next rung at
    the radii still open."""
    radii = tuple(float(x) for x in r)
    for x in radii:
        if x < 2.0 * chart.r_min:
            raise ValueError(f"flux radius {x} below validity (need >= {2.0 * chart.r_min})")
    if orders is None:
        ladder = [N for N in QUAD_ORDERS if 2 * N ** (chart.n - 1) <= QUAD_MAX_NODES]
    else:
        ladder = [orders]
    rungs, ladder = ladder[:2], ladder[2:]
    lo = [None] * len(radii)
    out = [None] * len(radii)
    todo = list(range(len(radii)))
    while todo:
        rules = [(k, N) for k in todo for N in rungs]
        sums = _sample(chart, [(radii[k], N) for k, N in rules], integrand, measure, dtype)
        for (k, _), (hi, scale) in zip(rules, sums):
            if lo[k] is not None and np.all(np.abs(hi - lo[k]) <= QUAD_RTOL * scale + QUAD_ATOL):
                out[k] = hi
            lo[k] = hi
        todo = [k for k in todo if out[k] is None]
        if not ladder:
            for k in todo:
                out[k] = lo[k]
            break
        rungs, ladder = ladder[:1], ladder[1:]
    return np.array(out)


def _sample(chart: MetricChart, rules, integrand, measure: str, dtype) -> list:
    """The flux and the pairwise sum of the absolute node terms of every
    (radius, order) rule of one sample.

    The rules' nodes are laid end to end and evaluated in ``util.CHUNK``
    chunks cut across the whole sample, each built from the cached unit
    rule scaled by its radius; a rule's weighted node terms (M, ...) are
    reduced as soon as its last node is in, then released.
    """
    n = chart.n
    units = [_unit_rule(n, _rule_order(n, N)) for _, N in rules]
    ends = list(itertools.accumulate(w.size for _, w in units))
    starts = [0] + ends[:-1]
    parts = [[] for _ in rules]
    sums = [None] * len(rules)

    def chunk(a: int, b: int) -> None:
        # (rule, its first and end node in this chunk, in its own numbering)
        cut = [(k, max(a, starts[k]) - starts[k], min(b, ends[k]) - starts[k])
               for k in range(bisect.bisect_right(ends, a), bisect.bisect_left(ends, b) + 1)]
        Xc = np.concatenate([rules[k][0] * units[k][0][:, i:j] for k, i, j in cut], axis=1)
        w = np.concatenate([(rules[k][0] ** (n - 1)) * units[k][1][i:j] for k, i, j in cut])
        nu, fac = _measure_factors(chart, Xc, measure)
        terms = np.asarray(integrand(Xc, nu), dtype=dtype) * fac * w
        at = 0
        for k, i, j in cut:
            parts[k].append(terms[..., at:at + j - i])
            at += j - i
            if starts[k] + j == ends[k]:
                t = np.concatenate(parts[k], axis=-1).T
                parts[k] = None
                sums[k] = (util.pairwise_sum(t), util.pairwise_sum(np.abs(t)))

    # integrands may return (S, B): S fluxes over one shared sample
    util.chunked_map(chunk, ends[-1] if ends else 0)
    return sums


def _normal_part(v: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """sum_j v[..., j] nu[j] for a covector field v (..., B, n), summed
    from zero in j order."""
    acc = np.zeros(v.shape[:-1], dtype=v.dtype)
    for j in range(v.shape[-1]):
        acc = acc + v[..., j] * nu[j]
    return acc


def adm_flux(chart: MetricChart, radii: Sequence[float], measure: str = "euclidean",
             orders: int | None = None) -> tuple:
    """Integral over S_r of (d_i g_ij - d_j g_ii) nu_j, one per radius."""
    n = chart.n

    def integrand(Xc, nu):
        B = Xc.shape[1]
        dg = metric_entry_jets(chart, seed_point(Xc, 1)[1]).grad().value  # [b, k, i, j]
        s = np.zeros((B, n))  # s_j = sum_i d_i g_ij - d_j g_ii
        for i in range(n):
            s = s + dg[:, i, i, :] - dg[:, :, i, i]
        return _normal_part(s, nu)

    return tuple(_flux(chart, radii, integrand, measure, orders).tolist())


def lee_flux(chart: MetricChart, radii: Sequence[float], measure: str = "euclidean",
             orders: int | None = None) -> tuple:
    """Integral over S_r of theta(nu), one per radius."""
    def integrand(Xc, nu):
        return _normal_part(exprdsl.evaluate(chart.lee, Xc, chart.params), nu)

    return tuple(_flux(chart, radii, integrand, measure, orders).tolist())


def gradient_flux(chart: MetricChart, f, radii: Sequence[float], measure: str = "euclidean",
                  orders: int | None = None, over_f: bool = False) -> tuple:
    """Integral over S_r of df(nu), or of (df/f)(nu) with ``over_f``, one
    per radius."""
    n = chart.n
    ast = exprdsl.as_expr(f)
    dfs = [exprdsl.derivative(ast, f"x{i + 1}") for i in range(n)]

    def integrand(Xc, nu):
        vals = exprdsl.evaluate(dfs + [ast] if over_f else dfs, Xc, chart.params)
        acc = _normal_part(vals[:, :n], nu)
        return acc / vals[:, n] if over_f else acc

    return tuple(_flux(chart, radii, integrand, measure, orders).tolist())


def weyl_flux(chart: MetricChart, radii: Sequence[float], measure: str = "euclidean",
              orders: int | None = None) -> tuple:
    """ADM flux minus 2(n-1) times the Lee flux (the mass series), one per
    radius."""
    n = chart.n
    return tuple(a - 2.0 * (n - 1) * l for a, l in zip(
        adm_flux(chart, radii, measure, orders), lee_flux(chart, radii, measure, orders)))


def witten_flux(chart: MetricChart, specs: Sequence[SpinorFieldSpec],
                radii: Sequence[float], measure: str = "euclidean",
                orders: int | None = None) -> np.ndarray:
    """Integral over S_r of omega_psi(nu), with
    omega_psi(X) = h(psi, X^flat . Dirac psi + D_X psi) at weight (2-n)/2,
    as a complex (R, S) array: one row per radius, one column per spec.

    The specs are one stacked field (m, B, S, N) on one sample per chunk:
    the metric jets, the Lee jets and the spin frame are built once, and
    each flux is bitwise equal to the one a call with that spec alone
    returns.  The metric is checked positive definite at every node.

    The imaginary part is a diagnostic: it must vanish in the limit.
    """
    k = 0.5 * (2.0 - chart.n)
    specs = list(specs)

    def integrand(Xc, nu):
        md = metric_jets(chart, Xc, order=1)
        theta = lee_jets(chart, Xc, coords=md.coords) if chart.has_lee else None
        calc = spinor_calc(md, theta)
        psi = spinor_jets(specs, md.coords, chart.params)  # [z, b, s, t]
        Dc = covd_coord(calc, psi, k)
        cl = coframe_action(calc, dirac(calc, Dc))  # [z, b, j, s, t]
        omega = np.einsum("bst,bjst->sbj", np.conj(psi.value), cl.value + Dc.value)
        return _normal_part(omega, nu)

    return _flux(chart, radii, integrand, measure, orders, dtype=np.complex128)


# ---------------------------------------------------------------------------
# extrapolation

@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    error: float
    p: float
    coefficient: float
    fallback: bool = False


def _power_fit(r: np.ndarray, v: np.ndarray, p: float):
    basis = r ** (-p)
    A = np.stack([np.ones_like(r), basis], axis=1)
    sol, *_ = np.linalg.lstsq(A, v, rcond=None)
    resid = float(np.sqrt(np.mean((A @ sol - v) ** 2)))
    return float(sol[0]), float(sol[1]), resid


def _power_fit_refined(r: np.ndarray, v: np.ndarray, p: float) -> float:
    """Limit of a two-term fit m + c r^-p + d r^-(p+1).

    The shift against the one-term fit estimates the truncation error of
    the power-law model.
    """
    A = np.stack([np.ones_like(r), r ** (-p), r ** (-(p + 1.0))], axis=1)
    sol, *_ = np.linalg.lstsq(A, v, rcond=None)
    return float(sol[0])


def _fit_residuals(r: np.ndarray, vc: np.ndarray, ps) -> np.ndarray:
    """RMS residuals of the fits v = m + c r^-p, one per entry of ``ps``.

    ``vc`` is v minus its mean.  Projecting out the constant column leaves
    a one-column regression of vc on centred r^-p, so every p is fitted in
    one array pass.
    """
    k = r.size
    b = r ** -np.reshape(ps, (-1, 1))
    b -= np.add.reduce(b, axis=1, keepdims=True) / k
    c = (b @ vc) / np.einsum("ij,ij->i", b, b)
    e = vc - c[:, None] * b
    return np.sqrt(np.einsum("ij,ij->i", e, e) / k)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# width at which the golden-section search for p stops
P_XTOL = 1e-10


def _golden_min(f, a: float, b: float, xtol: float = P_XTOL) -> float:
    """Golden-section search (Kiefer 1953) for a minimum of f on [a, b].

    The bracket shrinks by the golden ratio per evaluation until it is at
    most ``xtol`` wide, so the evaluation count is set by (b - a) / xtol
    alone; the midpoint of the last bracket is returned.
    """
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _best_exponent(resid, lo: float, hi: float) -> float:
    """The p in [lo, hi] that minimises ``resid`` (vectorised over p).

    A 64-point grid picks the best cell, and golden-section search refines
    p within one grid step of it; the grid point stands when the refined p
    is not finite or fits no better.
    """
    grid = np.linspace(lo, hi, 64)
    rg = resid(grid)
    best = int(np.argmin(rg))
    span = grid[1] - grid[0]
    p = _golden_min(lambda q: float(resid(q)[0]),
                    max(lo, grid[best] - span), min(hi, grid[best] + span))
    if np.isfinite(p) and float(resid(p)[0]) < rg[best]:
        return float(p)
    return float(grid[best])


def extrapolate(samples, p_bounds: tuple = (0.3, 8.0),
                fallback_p: float | None = None) -> ExtrapolationResult:
    """Fit value(r) = limit + c r^{-p} and estimate the limit.

    Needs >= 4 samples at increasing radii with successive ratios
    >= 1.5.  p is optimized inside ``p_bounds`` (coarse grid plus a
    golden-section search).  The error estimate is twice the
    largest of four probes: the fit residual, the limit shift when the
    smallest radius is dropped (p kept, and p re-optimized), and the
    limit shift under a two-term fit with an r^-(p+1) correction; the
    factor two covers the systematic part those probes underestimate
    on slowly converging series.  If the optimization degenerates, p
    falls back to ``fallback_p`` (flagged in the result).
    """
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) < 4:
        raise ValueError(f"extrapolation needs >= 4 samples, got {len(pts)}")
    r = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if np.any(r[1:] / r[:-1] < 1.5):
        raise ValueError("radii must increase with ratio >= 1.5")

    spread = float(np.max(np.abs(v - v.mean())))
    scale = max(np.max(np.abs(v)), 1e-300)
    if spread <= 1e-13 * scale:
        return ExtrapolationResult(limit=float(v[-1]), error=0.0, p=0.0,
                                   coefficient=0.0)

    lo, hi = p_bounds

    def best_p(rr: np.ndarray, vv: np.ndarray) -> float:
        vc = vv - vv.mean()
        return _best_exponent(lambda ps: _fit_residuals(rr, vc, ps), lo, hi)

    fallback = False
    p = best_p(r, v)
    m_inf, c, resid = _power_fit(r, v, p)
    if not (np.isfinite(m_inf) and np.isfinite(resid)):
        if fallback_p is None:
            raise ValueError("power-law fit failed and no fallback exponent given")
        p = float(fallback_p)
        m_inf, c, resid = _power_fit(r, v, p)
        fallback = True
    m_drop_keep, _, _ = _power_fit(r[1:], v[1:], p)
    m_drop_re, _, _ = _power_fit(r[1:], v[1:], best_p(r[1:], v[1:]))
    m_aug = _power_fit_refined(r, v, p)
    error = 2.0 * max(resid, abs(m_inf - m_drop_keep),
                      abs(m_inf - m_drop_re), abs(m_inf - m_aug))
    return ExtrapolationResult(limit=m_inf, error=error, p=p, coefficient=c,
                               fallback=fallback)


# ---------------------------------------------------------------------------
# masses

@dataclass(frozen=True)
class MassReport:
    kind: str  # "riemannian" | "weyl"
    radii: tuple
    flux: tuple  # per-radius series of the reported quantity
    limit: float
    error: float
    measure: str
    normalize: str
    components: dict
    warnings: tuple = ()
    # the raw riemannian_mass of each end a Weyl mass was built on
    metric: tuple = ()

    def csv_rows(self):
        """(r, flux, cumulative extrapolation) rows; the cumulative
        column holds the running extrapolated limit once 4 samples
        exist, before that the latest flux."""
        rows = []
        for k in range(len(self.radii)):
            if k + 1 >= 4:
                est = extrapolate(list(zip(self.radii[:k + 1], self.flux[:k + 1]))).limit
            else:
                est = self.flux[k]
            rows.append((self.radii[k], self.flux[k], est))
        return rows


def default_radii(chart: MetricChart) -> tuple:
    return tuple(20.0 * (2.0 ** k) * chart.r_min for k in range(4))


def _normalizer(n: int, normalize: str) -> float:
    if normalize == "raw":
        return 1.0
    if normalize == "adm":
        return 1.0 / (2.0 * (n - 1) * sphere_area(n))
    raise ValueError(f"unknown normalization {normalize!r} (raw | adm)")


FALLBACK_WARNING = "extrapolation fell back to the declared decay rate"
DIVERGENCE_WARNING = ("flux series does not converge: its increments per unit "
                      "log-radius stop shrinking")


def _diverges(radii, flux) -> bool:
    """True when the flux series stops settling as the radius grows.

    The increment between successive radii, divided by the log-ratio of
    the radii, is the mean slope in ln r; for any series that tends to a
    limit as a power law these slopes shrink outward, so a slope that
    does not shrink (beyond a 1e-9 relative rounding floor) means the
    series has no limit to extrapolate to.
    """
    order = np.argsort(radii)
    r = np.asarray(radii, dtype=np.float64)[order]
    f = np.asarray(flux, dtype=np.float64)[order]
    step = np.abs(np.diff(f))
    slope = step / np.log(r[1:] / r[:-1])
    floor = 1e-9 * max(1.0, float(np.max(np.abs(f))))
    return bool(np.any((slope[1:] >= slope[:-1]) & (step[1:] > floor)))


def _series_warnings(radii, flux, fell_back: bool) -> tuple:
    warn = []
    if fell_back:
        warn.append(FALLBACK_WARNING)
    if _diverges(radii, flux):
        warn.append(DIVERGENCE_WARNING)
    return tuple(warn)


def _radii(chart: MetricChart, radii) -> tuple:
    return tuple(float(r) for r in (default_radii(chart) if radii is None else radii))


def series_limit(chart: MetricChart, radii, series, decay: float) -> ExtrapolationResult:
    """The extrapolated limit of a flux ``series`` of ``chart`` at ``radii``:
    the power is fitted in (0.3, 2n), with ``decay`` as its fallback."""
    return extrapolate(list(zip(radii, series)), p_bounds=(0.3, 2.0 * chart.n),
                       fallback_p=decay)


def riemannian_mass(chart: MetricChart, radii=None, measure: str = "euclidean",
                    normalize: str = "raw") -> MassReport:
    """Extrapolated ADM-type flux of the chart metric."""
    n = chart.n
    radii = _radii(chart, radii)
    flux = adm_flux(chart, radii, measure)
    ext = series_limit(chart, radii, flux, chart.tau)
    norm = _normalizer(n, normalize)
    warnings = _series_warnings(radii, flux, ext.fallback)
    return MassReport(kind="riemannian", radii=radii,
                      flux=tuple(f * norm for f in flux),
                      limit=ext.limit * norm, error=ext.error * norm,
                      measure=measure, normalize=normalize,
                      components={"riemannian": ext.limit * norm, "lee": 0.0,
                                  "total": ext.limit * norm},
                      warnings=warnings)


def _end_mass(chart: MetricChart, radii, measure: str):
    """The raw metric mass of one end, its Weyl flux series, the Lee part
    of its mass, the error and the warnings of that series."""
    n = chart.n
    riem = riemannian_mass(chart, radii, measure)
    radii = riem.radii
    lee = lee_flux(chart, radii, measure)
    series = tuple(a - 2.0 * (n - 1) * l for a, l in zip(riem.flux, lee))
    el = series_limit(chart, radii, lee, chart.tau + 1.0)
    leepart = -2.0 * (n - 1) * el.limit
    err = riem.error + 2.0 * (n - 1) * el.error
    fell_back = FALLBACK_WARNING in riem.warnings or el.fallback
    return riem, series, leepart, err, _series_warnings(radii, series, fell_back)


def weyl_mass(system, radii=None, measure: str = "euclidean",
              normalize: str = "raw") -> MassReport:
    """Mass of an asymptotically flat Weyl structure.

    Accepts a chart, an End, or an EndSystem; per end,
    m_l = m(g0) - 2(n-1) lim lee_flux, and the total weighs each end by
    a_l^{(n-2)/2}.  The report's ``metric`` holds the raw
    ``riemannian_mass`` report m(g0) of each end, in end order.
    """
    if isinstance(system, MetricChart):
        system = EndSystem(ends=(End(chart=system),), name=system.name)
    elif isinstance(system, End):
        system = EndSystem(ends=(system,), name=system.chart.name)
    n = system.n
    norm = _normalizer(n, normalize)

    parts = []
    metric = []
    warnings: list = []
    total = 0.0
    err = 0.0
    for endobj in system.ends:
        riem, series, leepart, e, warn = _end_mass(endobj.chart, radii, measure)
        metric.append(riem)
        w = endobj.a ** (0.5 * (n - 2))
        parts.append({"a": endobj.a, "radii": riem.radii,
                      "flux": tuple(f * norm for f in series),
                      "riemannian": riem.limit * norm, "lee": leepart * norm,
                      "total": (riem.limit + leepart) * norm})
        warnings.extend(warn)
        total += w * (riem.limit + leepart)
        err += w * e

    first = parts[0]
    components = {
        "riemannian": first["riemannian"], "lee": first["lee"],
        "total": total * norm,
    }
    if len(parts) > 1:
        components["ends"] = parts
        components["riemannian"] = sum(p["a"] ** (0.5 * (n - 2)) * p["riemannian"] for p in parts)
        components["lee"] = sum(p["a"] ** (0.5 * (n - 2)) * p["lee"] for p in parts)
    return MassReport(kind="weyl", radii=first["radii"], flux=first["flux"],
                      limit=total * norm, error=err * norm, measure=measure,
                      normalize=normalize, components=components,
                      warnings=tuple(dict.fromkeys(warnings)), metric=tuple(metric))


def two_path_mass_delta(chart: MetricChart, f, base: MassReport,
                        path_a: MassReport) -> dict:
    """Two-path check of the conformal mass-change law.

    ``base`` is the raw ``riemannian_mass`` of ``chart`` and ``path_a``
    that of the rescaled chart (f g); the df(nu) fluxes are taken at the
    radii and with the measure of ``base``, which ``path_a`` must share.
    Path B adds (n-1) times the negative limit of the df(nu) flux to the
    mass of g.  The companion record compares the limits of (df/f)(nu)
    and df(nu) fluxes, which must agree.
    """
    if (path_a.radii, path_a.measure) != (base.radii, base.measure):
        raise ValueError("path_a must be taken at the radii and measure of base")
    n = chart.n
    radii, measure = base.radii, base.measure
    ast = exprdsl.as_expr(f)
    df_series = gradient_flux(chart, ast, radii, measure)
    dff_series = gradient_flux(chart, ast, radii, measure, over_f=True)
    e_df = series_limit(chart, radii, df_series, chart.tau + 1.0)
    e_dff = series_limit(chart, radii, dff_series, chart.tau + 1.0)
    path_b = base.limit + (n - 1.0) * (-e_df.limit)

    scale = max(abs(path_a.limit), abs(path_b), 1e-300)
    return {
        "path_a": path_a.limit,
        "path_b": path_b,
        "base_mass": base.limit,
        "delta": path_a.limit - path_b,
        "rel_delta": abs(path_a.limit - path_b) / scale,
        "errors": {"path_a": path_a.error, "base": base.error,
                   "df": e_df.error, "df_over_f": e_dff.error},
        "flux_equality": {
            "df_limit": e_df.limit,
            "df_over_f_limit": e_dff.limit,
            "diff": abs(e_df.limit - e_dff.limit),
            "budget": e_df.error + e_dff.error,
        },
        "radii": radii,
        "measure": measure,
    }
