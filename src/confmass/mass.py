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
for callers that need it again.

Every flux series becomes a limit through one unit-free Richardson table
of power-law fits, ``extrapolate(radii, series, n)``, finite for every
finite series.
A mass counts unless its report lists a reason under ``warnings``
(``_warnings``): a diverging flux series, a non-finite limit, or an
error beyond ``CONVERGENCE_REL`` times ``util.scale(limit)``, on the
reported limit and error; every flux command fails a mass that does not count.
The radius rules live here too, and the CLI checks ``--radii`` with the
same functions: a flux radius is finite, at least 2 r_min, and keeps
r^(n-1) finite (``check_radius``, run by every flux); a series has at
least 4 finite positive radii whose sorted successive ratios are at
least 1.5 (``check_series``, run by ``extrapolate``).  Whether the chart
can be evaluated on S_r is decided here alone, where it is evaluated:
a flux sample refuses, by its radius, a sphere where evaluating the
chart overflows or gives a non-finite node term (``_sample``).

The sign of the Lee term is fixed by conformal invariance: with it,
m(D) computed against g0 and against f g0 (rescaling the Lee form
accordingly) agree, and the spinor boundary flux converges to
(1/4) m(D) |psi_0|^2 for asymptotically constant psi_0.  Both facts are
enforced by the acceptance tests.

Measures: under ``g`` the area factor is the induced density
sqrt(det T^t G T) for an orthonormal tangent basis T of the unit normal
x^, in the closed form det(T^t G T) = det G * x^t G^-1 x^ (T and x^
complete an orthogonal matrix; the Schur complement does the rest).

Quadrature: every flux function takes the radii of its series and
returns one flux per radius.  Each radius climbs the order ladder
``QUAD_ORDERS`` = 4, 6, 8, 12, 16, 24, 32, 48 of exact sphere rules (see
``_unit_rule``), one ladder for every n, skipping rungs of more than
``QUAD_MAX_NODES`` nodes, and gets the finer value of the first adjacent
pair that agrees within ``QUAD_RTOL`` times the sum of the absolute node
terms plus ``QUAD_ATOL`` (the floor that lets integrands vanishing node
by node, such as a rotational Lee form, pass), else the last rung's
value.  A series runs one sample per rung: the first holds the pair
(4, 6) at every radius, each later one the next rung at the radii that
have not yet agreed.  A pair passes falsely only on an integrand both
its rules miss by the same amount: cos(24 phi) reads 1 on the 8- and the
12-node azimuth grids alike, so a degree-24 harmonic is told apart by
the polar rules alone (tested).  The ``orders`` of ``adm_flux``,
``lee_flux`` and ``witten_flux`` runs that one rule alone at every
radius (the tests' reference path; the masses always climb the ladder).
Sphere rules, and so fluxes, exist for 3 <= n <= ``FLUX_MAX_DIM``.  The
CLI echoes both tolerances.

Determinism: a sample lays its rules' nodes end to end and evaluates
them in ``util.chunked_map`` chunks of at most ``util.CHUNK`` nodes,
each built from the cached unit rule scaled by its radius.  Integrands
are column-independent bit for bit, and numpy's pairwise summation
(Higham, *Accuracy and Stability*, 2nd ed., 4.2) sums each rule's
joined node terms along the contiguous node axis; so every flux is
byte-identical from run to run, whatever the chunk width, and equal to
the flux a single-radius call returns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import exprdsl, util
from .chart import (ChartError, End, EndSystem, MetricChart, lee_jets, metric_entry_jets,
                    metric_jets, metric_values)
from .jets import seed_point

__all__ = [
    "MassReport",
    "ExtrapolationResult",
    "adm_flux",
    "lee_flux",
    "gradient_flux",
    "witten_flux",
    "extrapolate",
    "check_radius",
    "check_series",
    "riemannian_mass",
    "weyl_mass",
    "two_path_mass_delta",
    "sphere_area",
]

# the order ladder, its node budget and tolerances (see the module
# docstring); the budget tops the ladder at 48/48/24/12 for n = 3/4/5/6,
# and its first pair (4, 6) costs 2 (4^(n-1) + 6^(n-1)) nodes per radius
QUAD_ORDERS = (4, 6, 8, 12, 16, 24, 32, 48)
QUAD_MAX_NODES = 700_000
QUAD_RTOL = 1e-12
QUAD_ATOL = 1e-15
# the largest dimension with a sphere rule, so with fluxes and masses
FLUX_MAX_DIM = 6
# the condition number at which a ladder of the Richardson table stops
FIT_MAX_COND = 1e8


def sphere_area(n: int, r: float = 1.0) -> float:
    """Surface area of S_r in R^n: 2 pi^{n/2} / Gamma(n/2) * r^{n-1}."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0) * r ** (n - 1)


def _polar_rule(N: int, a: float) -> tuple:
    """N-node Gauss rule in t on (-1, 1) for the weight (1 - t^2)^a: the
    eigenvalues of the Jacobi matrix of the Jacobi polynomials P^(a,a),
    weighted mu_0 v_0^2 (Golub & Welsch, Math. Comp. 23, 1969); a = 0 is
    Gauss-Legendre, with mu_0 = 2."""
    j = np.arange(1.0, N)
    b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    t, v = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    return t, mu0 * v[0] ** 2


@functools.lru_cache(maxsize=32)
def _unit_rule(n: int, N: int) -> tuple:
    """Product rule of order N on the unit sphere, as read-only nodes
    (n, M) and weights (M,): for each polar angle theta_k (k = 1..n-2) N
    Gauss-Jacobi nodes in t_k = cos(theta_k) for the weight
    (1 - t^2)^((n-2-k)/2) of the surface element, and 2N uniform azimuth
    nodes phi.  Its M = 2 N^(n-1) nodes are exact on polynomials of
    degree up to 2N - 1.  x[n-1] = t_1, x[n-2] = s_1 t_2, ...,
    x[0] = S cos(phi), x[1] = S sin(phi) with s_k = sqrt(1 - t_k^2),
    S = prod s_k, t_1 slowest and phi fastest.  Built once per (n, N) and
    scaled by each radius in ``_sample``; ValueError unless
    3 <= n <= ``FLUX_MAX_DIM`` and N >= 2."""
    if not 3 <= n <= FLUX_MAX_DIM:
        raise ValueError(f"sphere rules exist for 3 <= n <= {FLUX_MAX_DIM}, got {n}")
    if N < 2:
        raise ValueError("quadrature order must be >= 2")
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

def _measure_factors(chart: MetricChart, X: np.ndarray, measure: str):
    """Outward normal components nu (n, B) and area factor (B,).

    The factor multiplies the Euclidean quadrature weights; for the
    ``g`` measure nu is the g-unit radial vector and the factor is the
    induced-area density sqrt(det G * x^t G^-1 x^) (see the module
    docstring), its contraction summed in index order.
    """
    r = np.sqrt(np.sum(X * X, axis=0))
    xhat = X / r
    if measure == "euclidean":
        return xhat, np.ones(X.shape[1])
    if measure != "g":
        raise ValueError(f"unknown measure {measure!r} (euclidean | g)")
    G = metric_values(chart, X)
    qn = np.einsum("ib,bij,jb->b", xhat, G, xhat)
    nu = xhat / np.sqrt(qn)
    ginv_x = np.linalg.solve(G, xhat.T[:, :, None])[:, :, 0]
    fac = np.sqrt(np.linalg.det(G) * _normal_part(ginv_x, xhat))
    return nu, fac


# ---------------------------------------------------------------------------
# fluxes

def check_radius(chart: MetricChart, r: float) -> None:
    """Raise ChartError unless ``r`` is a usable flux radius of ``chart``:
    finite, at least 2 r_min, and with r^(n-1) (its weight factor) finite."""
    if not math.isfinite(r):
        raise ChartError(f"radius {r!r} is not finite")
    if r < 2.0 * chart.r_min:
        raise ChartError(f"radius {r!r} is below 2 r_min = {2.0 * chart.r_min!r}")
    try:
        r ** (chart.n - 1)
    except OverflowError:
        raise ChartError(f"radius {r!r} is too large: r^{chart.n - 1} overflows") from None


def _overflow(r: float) -> ChartError:
    return ChartError(f"radius {r!r} is too large: evaluating the chart there overflows")


def _non_finite(r: float) -> ChartError:
    return ChartError(f"radius {r!r} is singular: the chart evaluates to a "
                      "non-finite value on that sphere")


def _flux(chart: MetricChart, r: Sequence[float], integrand, measure: str,
          orders: int | None) -> np.ndarray:
    """Fluxes of ``integrand`` over S_r for each radius of the series ``r``,
    as an (R,) array, or (R, S) when the integrand returns (S, B); each
    climbs the order ladder until every column agrees (see the module
    docstring), or runs the one rule ``orders``.  The first sample holds
    the first two rungs at every radius, each later one the next rung at
    the radii still open."""
    radii = tuple(float(x) for x in r)
    for x in radii:
        check_radius(chart, x)
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
        sums = _sample(chart, [(radii[k], N) for k, N in rules], integrand, measure)
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


def _sample(chart: MetricChart, rules, integrand, measure: str) -> list:
    """The flux and the sum of the absolute node terms of every (radius,
    order) rule of one sample.

    The rules' nodes are laid end to end and evaluated in chunks of at
    most ``util.CHUNK`` cut across the whole sample, each built from the
    cached unit rule scaled by its radius; a rule's weighted node terms
    (..., M) are joined and summed along the node axis as soon as its
    last node is in, then released.  A chunk whose evaluation overflows
    or gives a non-finite node term raises ChartError naming a radius
    that does so on its own: past an overflow, x/inf reads as 0 and the
    flux would be wrong, and a non-finite term has no limit to fit.  A
    rule whose finite terms sum past the largest float raises too.
    """
    n = chart.n
    units = [_unit_rule(n, N) for _, N in rules]
    ends = list(itertools.accumulate(w.size for _, w in units))
    starts = [0] + ends[:-1]
    parts = [[] for _ in rules]
    sums = [None] * len(rules)

    def terms_at(X: np.ndarray, w: np.ndarray) -> np.ndarray:
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            nu, fac = _measure_factors(chart, X, measure)
            return integrand(X, nu) * fac * w

    def chunk(a: int, b: int) -> None:
        # (rule, its first and end node in this chunk, in its own numbering)
        cut = [(k, max(a, starts[k]) - starts[k], min(b, ends[k]) - starts[k])
               for k in range(bisect.bisect_right(ends, a), bisect.bisect_left(ends, b) + 1)]
        nodes = [rules[k][0] * units[k][0][:, i:j] for k, i, j in cut]
        weights = [(rules[k][0] ** (n - 1)) * units[k][1][i:j] for k, i, j in cut]
        try:
            terms = terms_at(np.concatenate(nodes, axis=1), np.concatenate(weights))
            finite = np.all(np.isfinite(terms))
        except FloatingPointError:
            finite = False
        if not finite:
            # the columns are independent: some rule fails on its own
            for (k, _, _), X, w in zip(cut, nodes, weights):
                try:
                    if not np.all(np.isfinite(terms_at(X, w))):
                        raise _non_finite(rules[k][0])
                except FloatingPointError:
                    raise _overflow(rules[k][0]) from None
        at = 0
        for k, i, j in cut:
            parts[k].append(terms[..., at:at + j - i])
            at += j - i
            if starts[k] + j == ends[k]:
                t = np.concatenate(parts[k], axis=-1)
                parts[k] = None
                with np.errstate(over="ignore"):
                    sums[k] = (t.sum(axis=-1), np.abs(t).sum(axis=-1))
                if not np.all(np.isfinite(sums[k][1])):  # it bounds the flux
                    raise _overflow(rules[k][0])

    # integrands may return (S, B): S fluxes over one shared sample
    util.chunked_map(chunk, ends[-1] if ends else 0, util.CHUNK)
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
    """Integral over S_r of (d_i g_ij - d_j g_ii) nu_j, one per radius;
    ``orders``, one rule at every radius, is a test oracle."""
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
    """Integral over S_r of theta(nu), one per radius (``orders`` as in
    ``adm_flux``)."""
    def integrand(Xc, nu):
        return _normal_part(exprdsl.evaluate(chart.lee, Xc), nu)

    return tuple(_flux(chart, radii, integrand, measure, orders).tolist())


def gradient_flux(chart: MetricChart, f: exprdsl.Program, radii: Sequence[float],
                  measure: str = "euclidean") -> tuple:
    """Integrals over S_r of df(nu) and of (df/f)(nu), f given as its
    ``chart.factor_program``: two series with one flux per radius, from
    one ladder that climbs until both agree."""
    prog = exprdsl.derivative(f)  # f, then its n derivatives

    def integrand(Xc, nu):
        vals = exprdsl.evaluate(prog, Xc)
        df = _normal_part(vals[:, 1:], nu)
        return np.stack([df, df / vals[:, 0]])

    out = _flux(chart, radii, integrand, measure, None)
    return tuple(out[:, 0].tolist()), tuple(out[:, 1].tolist())


def witten_flux(chart: MetricChart, fields: exprdsl.Program,
                radii: Sequence[float], measure: str = "euclidean",
                orders: int | None = None) -> np.ndarray:
    """Integral over S_r of omega_psi(nu), with
    omega_psi(X) = h(psi, X^flat . Dirac psi + D_X psi) at weight (2-n)/2,
    as a complex (R, S) array: one row per radius, one column per field of
    the ``chart.spinor_program`` ``fields``, run as one stacked field
    (m, B, S, N) on one sample per chunk: the metric jets, the Lee jets
    and the spin frame are built once, and each flux is bitwise equal to
    the one a program of that field alone gives.  The metric is checked
    positive definite at every node.

    The imaginary part is a diagnostic: it must vanish in the limit.
    ``orders`` is the test oracle of ``adm_flux``.  Imports the spinor
    layer when called: the metric masses never load it.
    """
    from .spinor import coframe_action, covd_coord, dirac, spinor_calc, spinor_jets

    k = 0.5 * (2.0 - chart.n)

    def integrand(Xc, nu):
        md = metric_jets(chart, Xc, order=1)
        theta = lee_jets(chart, md.coords) if chart.has_lee else None
        calc = spinor_calc(md, theta)
        psi = spinor_jets(fields, md.coords)  # [z, b, s, t]
        Dc = covd_coord(calc, psi, k)
        cl = coframe_action(calc, dirac(calc, Dc))  # [z, b, j, s, t]
        omega = np.einsum("bst,bjst->sbj", np.conj(psi.value), cl.value + Dc.value)
        return _normal_part(omega, nu)

    return _flux(chart, radii, integrand, measure, orders)


# ---------------------------------------------------------------------------
# extrapolation

class ExtrapolationResult(NamedTuple):
    limit: float
    error: float
    p: float  # the leading power of the winning ladder, 0 for a constant series


def _fit(r: np.ndarray, v: np.ndarray, powers) -> tuple | None:
    """Limit A of the least-squares fit v = A + sum_k c_k r^-p_k over
    ``powers`` by one SVD, and the larger of its largest leave-one-out
    shift w_i e_i / (1 - h_ii) and its propagated quadrature tolerance
    QUAD_RTOL sum_i |w_i v_i| (w the limit's row of the pseudo-inverse, e
    the residual, h the hat diagonal); None past ``FIT_MAX_COND``."""
    X = np.stack([np.ones_like(r)] + [r ** -p for p in powers], axis=1)
    U, s, Vt = np.linalg.svd(X)
    if s[0] > FIT_MAX_COND * s[-1]:
        return None
    w = (Vt[:, 0] / s) @ U[:, :s.size].T
    Q = U[:, s.size:]
    # 1 - h_ii summed over the residual space does not cancel, and a
    # sample of leverage 1 to rounding divides by epsilon, not by zero
    one_minus_h = np.maximum(np.einsum("ij,ij->i", Q, Q), np.finfo(float).eps)
    loo = np.max(np.abs(w * (Q @ (Q.T @ v))) / one_minus_h)
    return float(w @ v), max(float(loo), QUAD_RTOL * float(np.abs(w) @ np.abs(v)))


def check_series(radii) -> None:
    """Raise ValueError unless ``radii`` can carry an extrapolation: at
    least 4 of them, each finite and positive, with sorted successive
    ratios of at least 1.5."""
    r = sorted(radii)
    for x in r:
        if not (math.isfinite(x) and x > 0):
            raise ValueError(f"radius {x!r} is not finite and positive")
    if len(r) < 4:
        raise ValueError(f"extrapolation needs at least 4 radii, got {len(r)}")
    for lo, hi in zip(r, r[1:]):
        if hi / lo < 1.5:
            raise ValueError(f"successive radii {lo!r}, {hi!r} have a ratio below 1.5")


def extrapolate(radii, series, n: int) -> ExtrapolationResult:
    """Limit at r = infinity of a flux ``series`` of a chart of dimension
    ``n`` at ``radii``, from one Richardson table (L. F. Richardson 1927;
    A. Sidi, *Practical Extrapolation Methods*, CUP 2003).

    The radii must pass ``check_series`` and the series must be finite
    (else ValueError).  The fit runs in units of the smallest radius and
    of the power of two at the largest |value| (an exact scaling), so it
    is finite for every such series and scales with the length unit.
    Ladders p, p + q, ... (p in 1/2, 1, ..., n - 2; q in 1, 1/2) fit
    A_K + sum_{k<K} c_k r^-(p + k q) (``_fit``), 1 <= K <= R - 2 of R radii,
    until ``FIT_MAX_COND``.  The entry with the smallest bar, the largest
    of |A_K - A_{K-1}| (A_0 the mean) and ``_fit``'s, wins; ``p`` is its
    ladder's leading power.
    """
    pts = sorted(zip(map(float, radii), map(float, series)))
    check_series([p[0] for p in pts])
    r = np.array([p[0] for p in pts]) / pts[0][0]
    v = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(v)):
        raise ValueError(f"flux series {v.tolist()} is not finite")
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(v))))[1] - 1)
    v = v / unit

    if np.max(np.abs(v - v.mean())) <= 1e-13 * np.max(np.abs(v)):
        return ExtrapolationResult(limit=float(v[-1]) * unit, error=0.0, p=0.0)

    error = math.inf
    for lead, q in itertools.product(np.arange(1, 2 * n - 3) / 2.0, (1.0, 0.5)):
        prev = float(v.mean())
        for K in range(1, r.size - 1):
            fit = _fit(r, v, lead + q * np.arange(K))
            if fit is None:
                break
            bar = max(abs(fit[0] - prev), fit[1])
            if bar < error:
                error, limit, p = bar, fit[0], float(lead)
            prev = fit[0]
    return ExtrapolationResult(limit=limit * unit, error=error * unit, p=p)


# ---------------------------------------------------------------------------
# masses

class MassReport(NamedTuple):
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

    def csv_rows(self, chart: MetricChart):
        """(r, flux, cumulative extrapolation) rows; the cumulative
        column holds the running ``extrapolate`` limit, with the n of
        ``chart``, once 4 samples exist, before that the latest flux."""
        rows = []
        for k in range(len(self.radii)):
            if k + 1 >= 4:
                est = extrapolate(self.radii[:k + 1], self.flux[:k + 1], chart.n).limit
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


# a mass counts only with an error within this fraction of util.scale(limit)
CONVERGENCE_REL = 0.05

DIVERGENCE_WARNING = ("flux series does not converge: its increments per unit "
                      "log-radius stop shrinking")
NON_FINITE_WARNING = "mass limit is not finite"
ERROR_BAR_WARNING = (f"extrapolation error exceeds {CONVERGENCE_REL:g} times the "
                     "mass scale max(1, |limit|)")


def _warnings(diverging: bool, limit: float, error: float) -> tuple:
    """Every reason the mass ``limit`` +- ``error`` does not count (a NaN
    error never fits the bar)."""
    return tuple(text for failed, text in (
        (diverging, DIVERGENCE_WARNING), (not math.isfinite(limit), NON_FINITE_WARNING),
        (not error <= CONVERGENCE_REL * util.scale(limit), ERROR_BAR_WARNING)) if failed)


def _diverges(radii, flux) -> bool:
    """True when the flux series stops settling at its asymptotic end.

    The increment between successive radii, divided by the log-ratio of
    the radii, is the mean slope in ln r; for any series that tends to a
    limit as a power law these slopes shrink outward, so an outermost
    slope that does not shrink (over a step beyond a 1e-9 relative
    rounding floor) means the series has no limit to extrapolate to.
    Inner intervals can be pre-asymptotic, so they are not judged.
    """
    order = np.argsort(radii)
    r = np.asarray(radii, dtype=np.float64)[order]
    f = np.asarray(flux, dtype=np.float64)[order]
    step = np.abs(np.diff(f))
    slope = step / np.log(r[1:] / r[:-1])
    floor = 1e-9 * util.scale(float(np.max(np.abs(f))))
    return bool(slope[-1] >= slope[-2] and step[-1] > floor)


def _radii(chart: MetricChart, radii) -> tuple:
    return tuple(float(r) for r in (default_radii(chart) if radii is None else radii))


def riemannian_mass(chart: MetricChart, radii=None, measure: str = "euclidean",
                    normalize: str = "raw") -> MassReport:
    """Extrapolated ADM-type flux of the chart metric."""
    n = chart.n
    radii = _radii(chart, radii)
    flux = adm_flux(chart, radii, measure)
    ext = extrapolate(radii, flux, n)
    norm = _normalizer(n, normalize)
    limit, error = ext.limit * norm, ext.error * norm
    return MassReport(kind="riemannian", radii=radii, flux=tuple(f * norm for f in flux),
                      limit=limit, error=error, measure=measure, normalize=normalize,
                      components={"riemannian": limit, "lee": 0.0, "total": limit},
                      warnings=_warnings(_diverges(radii, flux), limit, error))


def _end_mass(chart: MetricChart, radii, measure: str):
    """The raw metric mass of one end, its Weyl flux series adm - 2(n-1) lee,
    the Lee part of its mass, the error, and whether that series diverges."""
    n = chart.n
    riem = riemannian_mass(chart, radii, measure)
    radii = riem.radii
    lee = lee_flux(chart, radii, measure)
    series = tuple(a - 2.0 * (n - 1) * l for a, l in zip(riem.flux, lee))
    el = extrapolate(radii, lee, n)
    leepart = -2.0 * (n - 1) * el.limit
    err = riem.error + 2.0 * (n - 1) * el.error
    return riem, series, leepart, err, _diverges(radii, series)


def weyl_mass(system, radii=None, measure: str = "euclidean",
              normalize: str = "raw") -> MassReport:
    """Mass of an asymptotically flat Weyl structure.

    Accepts a chart or an EndSystem; per end,
    m_l = m(g0) - 2(n-1) lim lee_flux, and the total weighs each end by
    a_l^{(n-2)/2}.  The report's ``metric`` holds the raw
    ``riemannian_mass`` report m(g0) of each end, in end order.  Its
    warnings judge the Weyl flux series of every end and the total.
    """
    if isinstance(system, MetricChart):
        system = EndSystem(ends=(End(chart=system),), name=system.name)
    n = system.n
    norm = _normalizer(n, normalize)

    parts = []
    metric = []
    diverging = False
    total = 0.0
    err = 0.0
    for endobj in system.ends:
        riem, series, leepart, e, diverges = _end_mass(endobj.chart, radii, measure)
        metric.append(riem)
        w = endobj.a ** (0.5 * (n - 2))
        parts.append({"a": endobj.a, "radii": riem.radii,
                      "flux": tuple(f * norm for f in series),
                      "riemannian": riem.limit * norm, "lee": leepart * norm,
                      "total": (riem.limit + leepart) * norm})
        diverging = diverging or diverges
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
                      warnings=_warnings(diverging, total * norm, err * norm), metric=tuple(metric))


def two_path_mass_delta(chart: MetricChart, f: exprdsl.Program, base: MassReport,
                        path_a: MassReport) -> dict:
    """Two-path check of the conformal mass-change law, f given as its
    ``chart.factor_program``.

    ``base`` is the raw ``riemannian_mass`` of ``chart`` and ``path_a``
    that of the rescaled chart (f g); the df(nu) fluxes are taken at the
    radii and with the measure of ``base``, which ``path_a`` must share.
    Path B adds (n-1) times the negative limit of the df(nu) flux to the
    mass of g.  The companion record compares the limits of (df/f)(nu)
    and df(nu) fluxes, which must agree.
    ``rel_delta`` has no ``util.scale`` floor: it shows what the floored
    ``laws`` check hides on masses far below 1.
    """
    if (path_a.radii, path_a.measure) != (base.radii, base.measure):
        raise ValueError("path_a must be taken at the radii and measure of base")
    n = chart.n
    radii, measure = base.radii, base.measure
    df_series, dff_series = gradient_flux(chart, f, radii, measure)
    e_df = extrapolate(radii, df_series, n)
    e_dff = extrapolate(radii, dff_series, n)
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
