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

    m(D) = m(g0) - 2 (n-1) lim_r  integral_{S_r} theta_0(nu) dA.

The sign of the Lee term is fixed by conformal invariance: with it,
m(D) computed against g0 and against f g0 (rescaling the Lee form
accordingly) agree, and the spinor boundary flux converges to
(1/4) m(D) |psi_0|^2 for asymptotically constant psi_0.  Both facts are
enforced by the acceptance tests.

Quadrature: every flux is first evaluated on an embedded pair of product
rules, Gauss-Legendre orders ``COARSE_ORDERS`` = (6, 12).  When the two
agree within ``QUAD_RTOL`` times the sum of the absolute node terms plus
``QUAD_ATOL`` (the floor that lets integrands vanishing node by node,
such as a rotational Lee form, pass), the order-12 value is returned.
Otherwise the top order, ``DEFAULT_ORDERS[n]`` (48/24/12/12 for
n = 3/4/5/6) or the caller's ``orders``, runs and its value is returned;
a top order of 12 or less runs alone.  The CLI echoes both tolerances.

Determinism: quadrature nodes are evaluated in fixed ``util.CHUNK``-node
chunks and reduced with a fixed pairwise tree (see util), so every flux
is byte-identical from run to run.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import exprdsl, util
from .chart import (End, EndSystem, MetricChart, conformal_rescale, lee_jets,
                    metric_entry_jets, metric_jets)
from .jets import seed_point
from .spinor import (SpinorFieldSpec, coframe_action, covd_coord, dirac,
                     spinor_calc_light, spinor_jets)

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
    "riemannian_mass",
    "weyl_mass",
    "two_path_mass_delta",
    "sphere_area",
]

# top Gauss-Legendre order per dimension; the coarse pair and its
# tolerances are described in the module docstring
DEFAULT_ORDERS = {3: 48, 4: 24, 5: 12, 6: 12}
COARSE_ORDERS = (6, 12)
QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-15


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


def sphere_rule(n: int, r: float, orders: int | None = None) -> SphereRule:
    """Product quadrature on the coordinate sphere of radius r.

    n=3 uses Gauss-Legendre in cos(polar) x uniform azimuth; n in 4..6
    iterates Gauss-Legendre rules over the polar angles with their
    sin-power Jacobians, again with a uniform (trigonometrically exact)
    azimuth.  ``orders`` is the Gauss-Legendre node count (azimuth gets
    twice that), ``DEFAULT_ORDERS[n]`` when None.  The unit-sphere rule
    is built once per (n, orders) and scaled by r on every call.

    Fluxes do not always run this order: ``_flux`` first compares the
    rules of orders ``COARSE_ORDERS`` and runs the given (top) order
    only when they disagree beyond ``QUAD_RTOL``/``QUAD_ATOL``.
    """
    if not 3 <= n <= 6:
        raise ValueError(f"sphere_rule supports 3 <= n <= 6, got {n}")
    if r <= 0:
        raise ValueError("radius must be positive")
    N = int(orders) if orders is not None else DEFAULT_ORDERS[n]
    if N < 2:
        raise ValueError("quadrature order must be >= 2")
    x, w = _unit_rule(n, N)
    return SphereRule(r=float(r), nodes=r * x, weights=(r ** (n - 1)) * w)


@functools.lru_cache(maxsize=32)
def _unit_rule(n: int, N: int) -> tuple:
    """Read-only nodes (n, M) and weights (M,) of the rule on the unit sphere."""
    M = 2 * N
    phi = 2.0 * math.pi * np.arange(M) / M
    wphi = np.full(M, 2.0 * math.pi / M)

    if n == 3:
        t, wt = leggauss(N)
        st = np.sqrt(1.0 - t ** 2)
        x = np.empty((3, N * M))
        cosphi, sinphi = np.cos(phi), np.sin(phi)
        x[0] = (st[:, None] * cosphi[None, :]).ravel()
        x[1] = (st[:, None] * sinphi[None, :]).ravel()
        x[2] = np.broadcast_to(t[:, None], (N, M)).ravel()
        w = (wt[:, None] * wphi[None, :]).ravel()
    else:
        # polar angles theta_1..theta_{n-2} in (0, pi), azimuth phi
        xi, wxi = leggauss(N)
        theta = 0.5 * math.pi * (xi + 1.0)
        wtheta = 0.5 * math.pi * wxi
        grids = [theta] * (n - 2) + [phi]
        wlist = []
        for k in range(n - 2):
            wlist.append(wtheta * np.sin(theta) ** (n - 2 - k))
        wlist.append(wphi)
        mesh = np.meshgrid(*grids, indexing="ij")
        wmesh = np.meshgrid(*wlist, indexing="ij")
        w = np.ones_like(wmesh[0])
        for wm in wmesh:
            w = w * wm
        x = np.empty((n,) + mesh[0].shape)
        sin_prod = np.ones_like(mesh[0])
        for k in range(n - 2):
            x[k] = sin_prod * np.cos(mesh[k])
            sin_prod = sin_prod * np.sin(mesh[k])
        x[n - 2] = sin_prod * np.cos(mesh[n - 2])
        x[n - 1] = sin_prod * np.sin(mesh[n - 2])
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

def _flux(chart: MetricChart, r: float, integrand, measure: str,
          orders: int | None, dtype=np.float64):
    """Flux of ``integrand`` over S_r: the finer rule of the coarse pair
    when the pair agrees in every column (integrands may return (S, B)),
    else the top order alone (see the module docstring)."""
    if r < 2.0 * chart.r_min:
        raise ValueError(f"flux radius {r} below validity (need >= {2.0 * chart.r_min})")
    top = int(orders) if orders is not None else DEFAULT_ORDERS.get(chart.n, 0)
    if top > COARSE_ORDERS[-1]:
        (lo, _), (hi, terms) = (_rule_flux(chart, r, integrand, measure, N, dtype)
                                for N in COARSE_ORDERS)
        scale = util.pairwise_sum(np.abs(terms))
        if np.all(np.abs(hi - lo) <= QUAD_RTOL * scale + QUAD_ATOL):
            return hi
    return _rule_flux(chart, r, integrand, measure, orders, dtype)[0]


def _rule_flux(chart: MetricChart, r: float, integrand, measure: str,
               orders: int | None, dtype):
    """The flux on one sphere rule and its weighted node terms (M, ...)."""
    rule = sphere_rule(chart.n, r, orders)
    X, w = rule.nodes, rule.weights

    def chunk(a: int, b: int) -> np.ndarray:
        Xc = X[:, a:b]
        nu, fac = _measure_factors(chart, Xc, measure)
        vals = integrand(Xc, nu)
        return np.asarray(vals, dtype=dtype) * fac * w[a:b]

    # integrands may return (S, B): S fluxes over one shared sample
    parts = util.chunked_map(chunk, rule.count)
    terms = np.concatenate(parts, axis=-1).T
    return util.pairwise_sum(terms), terms


def adm_flux(chart: MetricChart, r: float, measure: str = "euclidean",
             orders: int | None = None) -> float:
    """Integral over S_r of (d_i g_ij - d_j g_ii) nu_j."""
    n = chart.n

    def integrand(Xc, nu):
        B = Xc.shape[1]
        dg = metric_entry_jets(chart, seed_point(Xc, 1)[1]).grad().value  # [b, k, i, j]
        s = np.zeros((B, n))  # s_j = sum_i d_i g_ij - d_j g_ii
        for i in range(n):
            s = s + dg[:, i, i, :] - dg[:, :, i, i]
        acc = np.zeros(B)
        for j in range(n):
            acc = acc + s[:, j] * nu[j]
        return acc

    return float(_flux(chart, r, integrand, measure, orders))


def lee_flux(chart: MetricChart, r: float, measure: str = "euclidean",
             orders: int | None = None) -> float:
    """Integral over S_r of theta(nu)."""
    n = chart.n

    def integrand(Xc, nu):
        th = exprdsl.evaluate(chart.lee, Xc, chart.params)
        acc = np.zeros(Xc.shape[1])
        for j in range(n):
            acc = acc + th[:, j] * nu[j]
        return acc

    return float(_flux(chart, r, integrand, measure, orders))


def gradient_flux(chart: MetricChart, f, r: float, measure: str = "euclidean",
                  orders: int | None = None, over_f: bool = False) -> float:
    """Integral over S_r of df(nu), or of (df/f)(nu) with ``over_f``."""
    n = chart.n
    ast = exprdsl.parse(f) if isinstance(f, str) else f
    dfs = [exprdsl.derivative(ast, f"x{i + 1}") for i in range(n)]

    def integrand(Xc, nu):
        vals = exprdsl.evaluate(dfs + [ast] if over_f else dfs, Xc, chart.params)
        acc = np.zeros(Xc.shape[1])
        for j in range(n):
            acc = acc + vals[:, j] * nu[j]
        return acc / vals[:, n] if over_f else acc

    return float(_flux(chart, r, integrand, measure, orders))


def weyl_flux(chart: MetricChart, r: float, measure: str = "euclidean",
              orders: int | None = None) -> float:
    """ADM flux minus 2(n-1) times the Lee flux (per-radius mass series)."""
    n = chart.n
    return adm_flux(chart, r, measure, orders) \
        - 2.0 * (n - 1) * lee_flux(chart, r, measure, orders)


def witten_flux(chart: MetricChart, spec: SpinorFieldSpec | Sequence[SpinorFieldSpec],
                r: float, measure: str = "euclidean",
                orders: int | None = None) -> complex | list[complex]:
    """Integral over S_r of omega_psi(nu), with
    omega_psi(X) = h(psi, X^flat . Dirac psi + D_X psi) at weight (2-n)/2.

    ``spec`` is one SpinorFieldSpec (the result is one complex) or a
    sequence of them (the result is a list with one complex per spec).
    All specs share one sample per chunk: the metric jets, the Lee jets
    and the spin frame are built once, and each flux is bitwise equal to
    the one a separate call returns.

    The imaginary part is a diagnostic: it must vanish in the limit.
    """
    n = chart.n
    k = 0.5 * (2.0 - n)
    single = isinstance(spec, SpinorFieldSpec)
    specs = [spec] if single else list(spec)

    def integrand(Xc, nu):
        B = Xc.shape[1]
        md = metric_jets(chart, Xc, order=1, check_spd=False)
        theta = lee_jets(chart, Xc, coords=md.coords) if chart.has_lee else None
        calc = spinor_calc_light(md, theta)
        out = np.zeros((len(specs), B), dtype=np.complex128)
        for s, sp in enumerate(specs):
            psi = spinor_jets(sp, md.coords, chart.params)
            Dc = covd_coord(calc, psi, k)
            cl = coframe_action(calc, dirac(calc, psi, k, coord_fields=Dc))
            omega = np.einsum("bs,bjs->bj", np.conj(psi.value), cl.value + Dc.value)
            for j in range(n):
                out[s] = out[s] + omega[:, j] * nu[j]
        return out

    flux = _flux(chart, r, integrand, measure, orders, dtype=np.complex128)
    fluxes = [complex(f) for f in flux]
    return fluxes[0] if single else fluxes


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


def _metric_mass(chart: MetricChart, radii: tuple, measure: str, orders,
                 reuse: MassReport | None) -> MassReport:
    """The raw metric mass of ``chart``: ``reuse`` when the caller has it."""
    if reuse is None:
        return riemannian_mass(chart, radii, measure, "raw", orders)
    if (reuse.kind, reuse.normalize, reuse.measure, reuse.radii) != (
            "riemannian", "raw", measure, radii):
        raise ValueError("a reused metric mass must be a raw riemannian_mass "
                         "report at the same radii and measure")
    return reuse


def riemannian_mass(chart: MetricChart, radii=None, measure: str = "euclidean",
                    normalize: str = "raw", orders: int | None = None) -> MassReport:
    """Extrapolated ADM-type flux of the chart metric."""
    n = chart.n
    radii = _radii(chart, radii)
    flux = tuple(adm_flux(chart, r, measure, orders) for r in radii)
    ext = extrapolate(list(zip(radii, flux)), p_bounds=(0.3, 2.0 * n),
                      fallback_p=chart.tau)
    norm = _normalizer(n, normalize)
    warnings = _series_warnings(radii, flux, ext.fallback)
    return MassReport(kind="riemannian", radii=radii,
                      flux=tuple(f * norm for f in flux),
                      limit=ext.limit * norm, error=ext.error * norm,
                      measure=measure, normalize=normalize,
                      components={"riemannian": ext.limit * norm, "lee": 0.0,
                                  "total": ext.limit * norm},
                      warnings=warnings)


def _end_mass(chart: MetricChart, radii, measure, orders, riem=None):
    n = chart.n
    radii = _radii(chart, radii)
    riem = _metric_mass(chart, radii, measure, orders, riem)
    lee = [lee_flux(chart, r, measure, orders) for r in radii]
    series = tuple(a - 2.0 * (n - 1) * l for a, l in zip(riem.flux, lee))
    el = extrapolate(list(zip(radii, lee)), p_bounds=(0.3, 2.0 * n),
                     fallback_p=chart.tau + 1.0)
    leepart = -2.0 * (n - 1) * el.limit
    err = riem.error + 2.0 * (n - 1) * el.error
    fell_back = FALLBACK_WARNING in riem.warnings or el.fallback
    return (radii, series, riem.limit, leepart, err,
            _series_warnings(radii, series, fell_back))


def weyl_mass(system, radii=None, measure: str = "euclidean",
              normalize: str = "raw", orders: int | None = None,
              riemannian: MassReport | None = None) -> MassReport:
    """Mass of an asymptotically flat Weyl structure.

    Accepts a chart, an End, or an EndSystem; per end,
    m_l = m(g0) - 2(n-1) lim lee_flux, and the total weighs each end by
    a_l^{(n-2)/2}.  For a chart, ``riemannian`` may hand in its raw
    ``riemannian_mass`` at the same radii, measure and quadrature orders,
    which then stands for m(g0) instead of a second computation of the
    same ADM series.
    """
    if riemannian is not None and not isinstance(system, MetricChart):
        raise ValueError("a metric mass can be reused for a single chart only")
    if isinstance(system, MetricChart):
        system = EndSystem(ends=(End(chart=system),), name=system.name)
    elif isinstance(system, End):
        system = EndSystem(ends=(system,), name=system.chart.name)
    n = system.n
    norm = _normalizer(n, normalize)

    parts = []
    warnings: list = []
    total = 0.0
    err = 0.0
    for endobj in system.ends:
        radii_l, series, riem, leepart, e, warn = _end_mass(
            endobj.chart, radii, measure, orders, riemannian)
        w = endobj.a ** (0.5 * (n - 2))
        parts.append({"a": endobj.a, "radii": radii_l,
                      "flux": tuple(f * norm for f in series),
                      "riemannian": riem * norm, "lee": leepart * norm,
                      "total": (riem + leepart) * norm})
        warnings.extend(warn)
        total += w * (riem + leepart)
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
                      warnings=tuple(dict.fromkeys(warnings)))


def two_path_mass_delta(chart: MetricChart, f, radii=None, measure: str = "euclidean",
                        orders: int | None = None,
                        base: MassReport | None = None,
                        rescaled=None) -> dict | list[dict]:
    """Two-path check of the conformal mass-change law.

    Path A is the mass of the rescaled chart (f g); path B adds
    (n-1) times the negative limit of the df(nu) flux to the mass of g.
    The companion record compares the limits of (df/f)(nu) and df(nu)
    fluxes, which must agree.

    ``f`` is one factor (the result is one record) or a sequence of them
    (the result is a list with one record per factor).  The mass of g is
    computed once for all factors, or taken from ``base``, a raw
    ``riemannian_mass`` of the chart at the same radii, measure and
    quadrature orders.  ``rescaled`` likewise hands in path A: one such
    report of the rescaled chart for a single factor, or a sequence with
    one report or None per factor.
    """
    single = not isinstance(f, (list, tuple))
    factors = [f] if single else list(f)
    reuse = [rescaled] if single else list(rescaled or [None] * len(factors))
    if len(reuse) != len(factors):
        raise ValueError("rescaled needs one entry per factor")
    radii = _radii(chart, radii)
    base = _metric_mass(chart, radii, measure, orders, base)
    records = [_two_path_record(chart, fk, radii, measure, orders, base, rk)
               for fk, rk in zip(factors, reuse)]
    return records[0] if single else records


def _two_path_record(chart: MetricChart, f, radii: tuple, measure: str,
                     orders: int | None, base: MassReport,
                     rescaled: MassReport | None) -> dict:
    n = chart.n
    ast = exprdsl.parse(f) if isinstance(f, str) else f
    path_a = _metric_mass(conformal_rescale(chart, ast), radii, measure, orders,
                          rescaled)

    df_series = [gradient_flux(chart, ast, r, measure, orders) for r in radii]
    dff_series = [gradient_flux(chart, ast, r, measure, orders, over_f=True)
                  for r in radii]
    e_df = extrapolate(list(zip(radii, df_series)), p_bounds=(0.3, 2.0 * n),
                       fallback_p=chart.tau + 1.0)
    e_dff = extrapolate(list(zip(radii, dff_series)), p_bounds=(0.3, 2.0 * n),
                        fallback_p=chart.tau + 1.0)
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
