"""Seeded identity, law, and flux batteries.

Shared by the CLI and the acceptance tests so both report the same
numbers for the same (config, seed, flags).  Every battery returns a
plain dict::

    {"battery": <name>, "pass": bool, "tolerances": {...},
     "checks": [{"name": ..., "value": ..., "tolerance": ...,
                 "pass": bool, ...}, ...]}

with residuals reported relative to the scale of the largest
constituent term unless marked absolute.

Randomness uses numpy's PCG64 generator explicitly (a fixed, documented
algorithm), so a seed reproduces the same points, fields, and reports
on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from . import exprdsl, util
from .chart import (MetricChart, SpinorFieldSpec, conformal_rescale, lee_jets,
                    make_spinor_spec, metric_jets, scale_coordinates)
from .config import LoadedConfig
from .exprdsl import Call, Num, Var, eadd, emul
from .jets import seed_point

__all__ = [
    "TOLERANCES",
    "rng_for",
    "sample_points",
    "random_spinor_spec",
    "identity_battery",
    "clifford_battery",
    "curvature_battery",
    "laws_scaled_chart",
    "laws_battery",
    "witten_spinors",
    "witten_battery",
]

TOLERANCES = {
    # relative, jet-exact identities
    "two_path_rel": 1e-10,
    "weyl_scalar_covariance_rel": 1e-10,
    "lichnerowicz_rel": 1e-8,
    "dirac_expansion_rel": 1e-8,
    "norm_identity_rel": 1e-8,
    # Clifford algebra
    "clifford_exact": 0.0,
    "clifford_identity": 1e-14,
    # mass laws
    "mass_law_rel": 5e-3,
    "scaling_match": 1e-6,
    "aggregate_consistency": 1e-9,
    # spinor flux
    "witten_rel": 1e-2,
    "witten_imag": 1e-8,
}

#: the coordinate scaling z~ = sqrt(a) z of the laws battery's scaling check
LAWS_SCALING = 4.0


def laws_scaled_chart(chart: MetricChart, radii) -> tuple:
    """The chart in the coordinates scaled by ``LAWS_SCALING`` = a, and the
    radii sqrt(a) r at which the laws battery integrates it for a series
    at ``radii``."""
    k = math.sqrt(LAWS_SCALING)
    return scale_coordinates(chart, LAWS_SCALING), [k * float(r) for r in radii]


def rng_for(seed: int) -> np.random.Generator:
    """The package RNG: PCG64 seeded explicitly."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def sample_points(chart: MetricChart, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random points in the annulus [5 r_min, 50 r_min], shape (n, count)."""
    n = chart.n
    d = rng.normal(size=(n, count))
    d /= np.sqrt(np.sum(d * d, axis=0))
    r = chart.r_min * rng.uniform(5.0, 50.0, size=count)
    return d * r


def _random_part(n: int, rng: np.random.Generator):
    """Low-degree polynomial plus a trig term, with short coefficients."""
    c = np.round(rng.uniform(-1.0, 1.0, size=4), 3)
    idx = rng.integers(1, n + 1, size=4)
    e = Num(float(c[0]))
    e = eadd(e, emul(Num(float(c[1])), Var(f"x{idx[0]}")))
    e = eadd(e, emul(Num(float(c[2])),
                     emul(Var(f"x{idx[1]}"), Var(f"x{idx[2]}"))))
    e = eadd(e, emul(Num(float(c[3])), Call("sin", (Var(f"x{idx[3]}"),))))
    return e


def random_spinor_spec(n: int, rng: np.random.Generator) -> SpinorFieldSpec:
    """A spinor field with random polynomial+trig components."""
    from .clifford import build_rep

    comps = [(_random_part(n, rng), _random_part(n, rng))
             for _ in range(build_rep(n).N)]
    return make_spinor_spec(comps)


def _check(name: str, value: float, tolerance: float, **extra) -> dict:
    entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
             "pass": bool(value <= tolerance)}
    entry.update(extra)
    return entry


def _convergence_checks(name: str, masses: dict) -> list:
    """A failing check ``name`` when a mass report of ``masses`` (label ->
    report) carries a warning, listing those masses under ``diverging``:
    their flux series do not converge, so the limits the battery read
    from them mean nothing.  No check when every one converges."""
    diverging = [label for label, rep in masses.items() if rep.warnings]
    return [_check(name, len(diverging), 0.0, diverging=diverging)] if diverging else []


def _finish(battery: str, checks: list, tolerances: dict, **extra) -> dict:
    out = {"battery": battery, "checks": checks,
           "pass": all(c["pass"] for c in checks), "tolerances": tolerances}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# identities

#: the pointwise batteries cut their sample (``util.chunked_map``) into
#: the fewest equal chunks whose points times n^3 times the jet space
#: size stay within this budget, so their memory does not grow with the
#: point count: 100 points at order 2 are one chunk for n <= 4, two for
#: n = 5 and three for n = 6; at order 3, two for n = 4.  Every check and
#: statistic is a maximum over the whole sample, which does not depend on
#: the chunking.
POINT_BUDGET = 216_000


def _sample_maxima(maxima, pts: np.ndarray, jet_order: int) -> dict:
    """``maxima(chunk)``, a dict of maxima over the points of one chunk of
    the sample ``pts`` (n, P), run chunk by chunk and combined into the
    maxima over the whole sample."""
    n, count = pts.shape
    width = max(1, POINT_BUDGET // (math.comb(n + jet_order, n) * n ** 3))
    parts = util.chunked_map(lambda a, b: maxima(pts[:, a:b]), count, width)
    return {key: float(np.max([p[key] for p in parts])) for key in parts[0]}


def _gap_maxima(wd) -> dict:
    """The gap max|tr_g(nabla theta) + delta(theta)| between the two
    divergence paths of ``weyl`` on one chunk, and its scale
    max|tr_g(nabla theta)|; ``_divergence_gap`` combines them."""
    a = wd.trace_nabla_theta.value
    return {"gap": np.max(np.abs(a + wd.codiff.value)), "trace": np.max(np.abs(a))}


def _divergence_gap(m: dict) -> float:
    return m["gap"] / max(1.0, m["trace"])


def _weyl_scal_values(chart: MetricChart, pts: np.ndarray, jet_order: int) -> np.ndarray:
    """Values of the Weyl scalar curvature of ``chart`` at ``pts``; the
    jets behind them are freed on return."""
    from .weyl import weyl_data

    md = metric_jets(chart, pts, order=jet_order)
    return weyl_data(md, lee_jets(chart, md.coords)).scal.value


#: the conformal factor f of the identity battery's covariance check
COVARIANCE_FACTOR = "1 + 0.3/sqrt(r^2 + 1)"


def _identity_maxima(chart: MetricChart, rescaled: MetricChart, pts: np.ndarray,
                     jet_order: int, specs: tuple, direction: np.ndarray) -> dict:
    """The maxima behind every check of ``identity_battery`` on the points
    ``pts``; ``rescaled`` is ``chart`` rescaled by ``COVARIANCE_FACTOR``,
    ``specs`` the two spinor fields and ``direction`` the unit vector of
    the norm identity."""
    from .spinor import (covd_coord, dirac_composed, dirac_squared_expansion, h_jet,
                         lichnerowicz_I_residual, lichnerowicz_II_residual,
                         norm_identity_residual, spinor_calc, spinor_jets,
                         spinor_values)

    n = chart.n
    md = metric_jets(chart, pts, order=jet_order)
    theta = lee_jets(chart, md.coords) if chart.has_lee else None
    calc = spinor_calc(md, theta)
    k = 0.5 * (2.0 - n)
    out = _gap_maxima(calc.weyl) if theta is not None else {}

    # conformal covariance: f Scal(fg, theta - df/2f) = Scal(g, theta)
    scal_weyl = calc.scal.value
    fv = exprdsl.evaluate(exprdsl.parse(COVARIANCE_FACTOR), pts, chart.params)
    lhs = fv * _weyl_scal_values(rescaled, pts, jet_order)
    out["covariance"] = np.max(np.abs(lhs - scal_weyl))
    out["scal"] = np.max(np.abs(scal_weyl))

    # spinor identities on two independent random fields
    psi, phi = (spinor_jets(spec, md.coords, chart.params) for spec in specs)
    # D_i psi and D_i phi at weight k, shared by every residual below
    Dpsi = covd_coord(calc, psi, k)
    Dphi = covd_coord(calc, phi, k)

    res, out["first_scale"] = lichnerowicz_I_residual(calc, psi, Dpsi)
    out["first"] = np.max(np.abs(res))

    pairing = lichnerowicz_II_residual(calc, psi, phi, Dpsi, Dphi)
    out["pairing_scale"] = pairing["scale"]
    for key in ("main", "first", "second"):
        out[f"pairing_{key}"] = np.max(np.abs(pairing[key]))

    if theta is not None:
        d2 = spinor_values(dirac_composed(calc, Dpsi, k))
        ex = spinor_values(dirac_squared_expansion(calc, psi, k))
        out["expansion"] = np.max(np.abs(d2 - ex))
        out["d2"] = np.max(np.abs(d2))

    nres = norm_identity_residual(calc, psi, direction, Dpsi)
    out["norm"] = np.max(np.abs(nres))
    out["norm_scale"] = np.max(np.abs(h_jet(psi, psi).value.real))
    return out


def identity_battery(chart: MetricChart, points: int = 100, seed: int = 42,
                     jet_order: int = 2) -> dict:
    """All pointwise identities on one chart at seeded random points.

    The random inputs are drawn first (the points, the two spinor fields,
    the norm-identity direction); the points are then evaluated in chunks
    (``POINT_BUDGET``), and each check is a maximum over all of them.
    """
    rng = rng_for(seed)
    n = chart.n
    pts = sample_points(chart, points, rng)
    specs = (random_spinor_spec(n, rng), random_spinor_spec(n, rng))
    direction = rng.normal(size=n)
    direction /= math.sqrt(float(np.sum(direction * direction)))
    rescaled = conformal_rescale(chart, COVARIANCE_FACTOR)
    m = _sample_maxima(lambda p: _identity_maxima(chart, rescaled, p, jet_order,
                                                  specs, direction),
                       pts, jet_order)

    tol = TOLERANCES
    checks = []
    if chart.has_lee:
        # divergence two-path (trace of nabla theta vs -codifferential)
        checks.append(_check("weyl-scalar-two-path", _divergence_gap(m),
                             tol["two_path_rel"]))
    checks.append(_check("weyl-scalar-conformal-covariance",
                         m["covariance"] / max(1.0, m["scal"]),
                         tol["weyl_scalar_covariance_rel"]))
    checks.append(_check("lichnerowicz-first", m["first"] / m["first_scale"],
                         tol["lichnerowicz_rel"]))
    for name, key in (("lichnerowicz-pairing", "main"),
                      ("pairing-connection-part", "first"),
                      ("pairing-dirac-part", "second")):
        checks.append(_check(name, m[f"pairing_{key}"] / m["pairing_scale"],
                             tol["lichnerowicz_rel"]))
    if chart.has_lee:
        checks.append(_check("dirac-square-expansion",
                             m["expansion"] / max(1.0, m["d2"]),
                             tol["dirac_expansion_rel"]))
    checks.append(_check("norm-identity", m["norm"] / max(1.0, m["norm_scale"]),
                         tol["norm_identity_rel"]))

    cliff = clifford_battery(n, seed=seed)
    checks.extend(cliff["checks"])

    used = {key: tol[key] for key in
            ("two_path_rel", "weyl_scalar_covariance_rel", "lichnerowicz_rel",
             "dirac_expansion_rel", "norm_identity_rel", "clifford_exact",
             "clifford_identity")}
    return _finish("identities", checks, used, chart=chart.name,
                   points=points, seed=seed, jet_order=jet_order)


def clifford_battery(n: int, trials: int = 1000, seed: int = 42) -> dict:
    """Algebra relations (exact) and the module identities (1e-14)."""
    from . import clifford

    rng = rng_for(seed)
    rep = clifford.build_rep(n)
    tol = TOLERANCES
    checks = []

    # anticommutators: gamma_a gamma_b + gamma_b gamma_a = -2 delta_ab
    worst = 0.0
    for a in range(n):
        for b in range(n):
            acom = rep.gamma[a] @ rep.gamma[b] + rep.gamma[b] @ rep.gamma[a]
            target = -2.0 * np.eye(rep.N) if a == b else np.zeros((rep.N, rep.N))
            worst = max(worst, float(np.max(np.abs(acom - target))))
    checks.append(_check("clifford-anticommutators", worst, tol["clifford_exact"]))

    worst = max(float(np.max(np.abs(g + np.conjugate(g.T))))
                for g in rep.gamma)
    checks.append(_check("clifford-anti-hermitian", worst, tol["clifford_exact"]))

    def unit(a):
        return a / np.sqrt(np.sum(np.abs(a) ** 2, axis=0))

    # every trial at once, one column each: unit x, psi, phi and a degree p
    x = unit(rng.normal(size=(n, trials)))
    psi = unit(rng.normal(size=(rep.N, trials)) + 1j * rng.normal(size=(rep.N, trials)))
    phi = unit(rng.normal(size=(rep.N, trials)) + 1j * rng.normal(size=(rep.N, trials)))
    degree = rng.integers(1, n + 1, size=trials)
    # omega: three random increasing p-tuples (a repeated one overwrites)
    # with normal coefficients, scaled to unit dense Frobenius norm
    counts = np.array([math.comb(n, p) for p in range(n + 1)])
    rows = rng.integers(0, counts[degree], size=(3, trials))
    coefs = rng.normal(size=(3, trials))

    # metric compatibility: h(x.psi, phi) + h(psi, x.phi) = 0
    xpsi = clifford.mul_vector(rep, x, psi)
    xphi = clifford.mul_vector(rep, x, phi)
    worst_c = float(np.max(np.abs(clifford.inner(rep, xpsi, phi)
                                  + clifford.inner(rep, psi, xphi))))

    # x . (omega . psi) = (x wedge omega) . psi - (x contract omega) . psi,
    # one batch per degree
    worst_w = 0.0
    for p in range(1, n + 1):
        cols = np.flatnonzero(degree == p)
        if not cols.size:
            continue
        omega = np.zeros((counts[p], cols.size))
        for k in range(3):
            omega[rows[k, cols], np.arange(cols.size)] = coefs[k, cols]
        omega /= math.sqrt(math.factorial(p)) * np.sqrt(np.sum(omega * omega, axis=0))
        xp, psip = x[:, cols], psi[:, cols]
        lhs = clifford.mul_vector(rep, xp, clifford.mul_form(rep, p, omega, psip))
        rhs = -clifford.mul_form(rep, p - 1, clifford.contract(xp, omega, p), psip)
        if p < n:
            rhs = rhs + clifford.mul_form(rep, p + 1, clifford.wedge(xp, omega, p), psip)
        worst_w = max(worst_w, float(np.max(np.abs(lhs - rhs))))
    checks.append(_check("clifford-pairing-compatibility", worst_c,
                         tol["clifford_identity"]))
    checks.append(_check("clifford-wedge-contract", worst_w,
                         tol["clifford_identity"]))

    used = {"clifford_exact": tol["clifford_exact"],
            "clifford_identity": tol["clifford_identity"]}
    return _finish("clifford", checks, used, n=n, trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# curvature summary

def _curvature_maxima(chart: MetricChart, pts: np.ndarray, jet_order: int) -> dict:
    """The maxima behind the stats and checks of ``curvature_battery`` on
    the points ``pts``."""
    from .curvature import christoffels, curvature
    from .weyl import weyl_scalar

    md = metric_jets(chart, pts, order=jet_order)
    cd = christoffels(md)
    cv = curvature(cd)
    out = {name: np.max(np.abs(t.value)) for name, t in
           (("christoffel", cd.christoffel), ("riemann", cv.riemann),
            ("ricci", cv.ricci), ("scal", cv.scal))}
    if chart.has_lee:
        wd = weyl_scalar(cv, lee_jets(chart, md.coords))
        out.update(_gap_maxima(wd), weyl_scal=np.max(np.abs(wd.scal.value)))
    return out


def curvature_battery(chart: MetricChart, points: int = 50, seed: int = 42,
                      jet_order: int = 2) -> dict:
    """Curvature magnitudes and internal consistency at random points,
    evaluated in chunks like ``identity_battery``."""
    pts = sample_points(chart, points, rng_for(seed))
    m = _sample_maxima(lambda p: _curvature_maxima(chart, p, jet_order), pts, jet_order)

    stats = {f"max_abs_{name}": m[name]
             for name in ("christoffel", "riemann", "ricci", "scal")}
    checks = []
    if chart.has_lee:
        checks.append(_check("weyl-scalar-two-path", _divergence_gap(m),
                             TOLERANCES["two_path_rel"]))
        stats["max_abs_weyl_scal"] = m["weyl_scal"]

    used = {"two_path_rel": TOLERANCES["two_path_rel"]} if checks else {}
    out = _finish("curvature", checks, used, chart=chart.name,
                  points=points, seed=seed, jet_order=jet_order)
    out["stats"] = stats
    return out


# ---------------------------------------------------------------------------
# mass laws

def laws_battery(cfg: LoadedConfig, radii=None, measure: str = "euclidean",
                 seed: int = 42, expected_total: float | None = None) -> dict:
    """Global mass laws for a chart or an end system.  A mass the laws
    read whose flux series does not converge fails ``mass-convergence``."""
    from . import mass

    tol = TOLERANCES
    checks = []
    details = {}

    if cfg.kind == "end_system":
        system = cfg.system
        n = system.n
        rep = mass.weyl_mass(system, radii=radii, measure=measure)
        # each end's own mass, as weyl_mass of that end's chart returns it
        parts = rep.components.get("ends")
        singles = ([p["total"] for p in parts] if parts else
                   [rep.components["riemannian"] + rep.components["lee"]])
        combined = sum(e.a ** (0.5 * (n - 2)) * m
                       for e, m in zip(system.ends, singles))
        scale = max(1.0, abs(combined))
        checks.append(_check("weyl-mass-multi-end-consistency",
                             abs(rep.limit - combined) / scale,
                             tol["aggregate_consistency"]))
        if expected_total is not None:
            checks.append(_check("weyl-mass-multi-end-expected",
                                 abs(rep.limit - expected_total) / max(1.0, abs(expected_total)),
                                 tol["mass_law_rel"]))
        checks.extend(_convergence_checks("mass-convergence", {"weyl-mass": rep}))
        details["per_end"] = singles
        details["total"] = rep.limit
        used = {k: tol[k] for k in ("aggregate_consistency", "mass_law_rel")}
        out = _finish("laws", checks, used, config=cfg.name, measure=measure)
        out["details"] = details
        return out

    chart = cfg.chart
    n = chart.n

    # conformal invariance of the Weyl-structure mass; the two Weyl masses
    # carry the metric masses of the chart and of its rescaling by the
    # second factor, which the two-path checks below read again.  Both
    # factors decay like the chart, r^-(n-2); n = 3 keeps its spelling
    factors = (("1 + 1/sqrt(r^2 + 1)", "1 + 0.3/sqrt(r^2 + 1)") if n == 3 else
               tuple(f"1 + {c}pow(r^2 + 1, {(2 - n) / 2:g})" for c in ("", "0.3*")))
    base = mass.weyl_mass(chart, radii=radii, measure=measure)
    moved = mass.weyl_mass(conformal_rescale(chart, factors[1]), radii=radii,
                           measure=measure)
    riem = base.metric[0]

    # two-path conformal change of the metric mass, two factors
    paths_a = (mass.riemannian_mass(conformal_rescale(chart, factors[0]),
                                    riem.radii, measure), moved.metric[0])
    change_records = [mass.two_path_mass_delta(chart, f, riem, path_a)
                      for f, path_a in zip(factors, paths_a)]
    for f, rec in zip(factors, change_records):
        scale = max(1.0, abs(rec["path_a"]), abs(rec["path_b"]))
        checks.append(_check(f"mass-conformal-change[{f}]",
                             abs(rec["path_a"] - rec["path_b"]) / scale,
                             tol["mass_law_rel"]))
        err_budget = rec["flux_equality"]["budget"] + 1e-9 * scale
        checks.append(_check(f"gradient-flux-agreement[{f}]",
                             rec["flux_equality"]["diff"], err_budget,
                             budget=err_budget, absolute=True))
    details["conformal_change"] = change_records

    scale = max(1.0, abs(base.limit))
    checks.append(_check("weyl-mass-conformal-invariance",
                         abs(base.limit - moved.limit) / scale,
                         tol["mass_law_rel"]))
    details["weyl_mass"] = base.limit
    details["weyl_mass_rescaled"] = moved.limit

    # coordinate scaling: matched finite radii, exact change of variables
    a = LAWS_SCALING
    s = a ** (0.5 * (n - 2))
    worst = 0.0
    pairs = []
    # base.flux holds weyl_flux(chart, base.radii), bit for bit
    flux_scaled = mass.weyl_flux(*laws_scaled_chart(chart, base.radii), measure=measure)
    for r, f0, fs in zip(base.radii, base.flux, flux_scaled):
        mismatch = abs(fs - s * f0) / max(1.0, abs(f0), abs(fs))
        worst = max(worst, mismatch)
        pairs.append({"r": float(r), "flux": f0, "flux_scaled": fs})
    checks.append(_check("weyl-mass-coordinate-scaling", worst,
                         tol["scaling_match"], a=a, expected_ratio=s))
    details["scaling"] = pairs
    checks.extend(_convergence_checks("mass-convergence", {
        "weyl-mass": base, "weyl-mass-rescaled": moved, "metric-mass": riem,
        **{f"metric-mass[{f}]": path_a for f, path_a in zip(factors, paths_a)}}))

    used = {k: tol[k] for k in ("mass_law_rel", "scaling_match")}
    out = _finish("laws", checks, used, config=cfg.name, measure=measure,
                  seed=seed)
    out["details"] = details
    return out


# ---------------------------------------------------------------------------
# spinor flux vs mass

def _asymptotic_value(spec: SpinorFieldSpec, chart: MetricChart) -> np.ndarray:
    """The field's value at a far reference point on the first axis."""
    from .spinor import spinor_jets, spinor_values

    far = np.zeros((chart.n, 1))
    far[0, 0] = 1e7 * chart.r_min
    _, coords = seed_point(far, 1)
    psi = spinor_jets(spec, coords, chart.params)
    return spinor_values(psi)[:, 0]


def _default_spinors(n: int) -> list:
    """Three constant spinors of weight (2-n)/2 for configs that name none."""
    from .clifford import build_rep

    N = build_rep(n).N
    zero = ("0", "0")
    base = [[zero] * N for _ in range(3)]
    base[0][0] = ("1", "0")
    base[1][min(1, N - 1)] = ("1", "0")
    base[2][0] = ("0.6", "0")
    base[2][min(1, N - 1)] = ("0", "0.8")
    return [(f"const{i}", make_spinor_spec(rows)) for i, rows in enumerate(base)]


def witten_spinors(cfg: LoadedConfig) -> list:
    """The (name, spec) pairs whose fluxes ``witten`` integrates: the
    config's own spinors, or the default constant ones."""
    return list(cfg.spinors) or _default_spinors(cfg.n)


def _witten_end(chart: MetricChart, specs: list, radii, measure: str,
                label: str) -> tuple:
    """Checks and field records of the spinor fluxes on one chart.

    Every limit is compared with this chart's own Weyl mass, whose
    warnings (a diverging series) the record carries and fail a
    ``mass-convergence`` check; ``label`` prefixes the check names.
    """
    from . import mass

    tol = TOLERANCES
    mrep = mass.weyl_mass(chart, radii=radii, measure=measure)
    radii = mrep.radii
    # one shared sample per rung for every field and radius: (R, S)
    fluxes = mass.witten_flux(chart, [spec for _, spec in specs], radii,
                              measure=measure)
    checks = []
    fields = []
    for s, (name, spec) in enumerate(specs):
        psi0 = _asymptotic_value(spec, chart)
        nrm2 = float(np.sum(np.abs(psi0) ** 2))
        series = [complex(v) for v in fluxes[:, s]]
        real_series = [v.real for v in series]
        imag_max = max(abs(v.imag) for v in series)
        ext = mass.extrapolate(radii, real_series, chart.n)
        expect = 0.25 * mrep.limit * nrm2
        scale = max(1.0, abs(expect))
        checks.append(_check(f"witten-limit[{label}{name}]",
                             abs(ext.limit - expect) / scale,
                             tol["witten_rel"]))
        checks.append(_check(f"witten-imag[{label}{name}]", imag_max,
                             tol["witten_imag"], absolute=True))
        fields.append({"name": name, "norm2": nrm2, "series": real_series,
                       "limit": ext.limit, "expected": expect,
                       "imag_max": imag_max})
    checks.extend(_convergence_checks(f"mass-convergence[{label}weyl-mass]",
                                      {"weyl-mass": mrep}))
    return checks, {"mass": mrep.limit, "radii": list(radii), "fields": fields,
                    "warnings": list(mrep.warnings)}


def witten_battery(cfg: LoadedConfig, radii=None, measure: str = "euclidean") -> dict:
    """Spinor boundary flux against one quarter mass times |psi_0|^2.

    On an end system every end is checked against its own Weyl mass: the
    check names carry the end (``witten-limit[end1/const0]``) and the
    per-end masses, radii, fields and mass warnings are listed under
    ``ends``.
    """
    specs = witten_spinors(cfg)
    used = {k: TOLERANCES[k] for k in ("witten_rel", "witten_imag")}
    if cfg.chart is not None:
        checks, end = _witten_end(cfg.chart, specs, radii, measure, "")
        out = _finish("witten", checks, used, config=cfg.name, measure=measure)
        out.update(end)
        return out
    checks = []
    ends = []
    for k, e in enumerate(cfg.system.ends):
        c, end = _witten_end(e.chart, specs, radii, measure, f"end{k}/")
        checks.extend(c)
        ends.append({"end": k, "chart": e.chart.name, "a": e.a, **end})
    out = _finish("witten", checks, used, config=cfg.name, measure=measure)
    out["ends"] = ends
    return out
