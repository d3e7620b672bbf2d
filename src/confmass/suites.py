"""Seeded identity, law, and flux batteries.

Shared by the CLI and the acceptance tests so both report the same
numbers for the same (config, seed, flags).  Every battery returns a
plain dict::

    {"battery": <name>, "pass": bool, "tolerances": {...},
     "checks": [{"name": ..., "value": ..., "tolerance": ...,
                 "pass": bool, ...}, ...]}

with residuals relative unless marked absolute: to their own terms for
``lichnerowicz-*`` and ``pairing-*``, else to ``util.scale`` of what
they compare.  The identity battery runs its two random spinor fields,
one ``chart.spinor_program``, as one stack through each spinor operator.

Randomness uses numpy's PCG64 generator explicitly (a fixed, documented
algorithm), so a seed reproduces the same points, fields, and reports
on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from . import exprdsl, util
from .chart import (ChartError, MetricChart, conformal_rescale, factor_program, lee_jets,
                    metric_jets, scale_coordinates, spinor_components, spinor_count,
                    spinor_program)
from .config import LoadedConfig
from .exprdsl import BinOp, Call, Num, Var
from .jets import Jet

__all__ = [
    "TOLERANCES",
    "rng_for",
    "sample_points",
    "random_spinor",
    "identity_battery",
    "clifford_battery",
    "curvature_battery",
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
    # spinor flux
    "witten_rel": 1e-2,
    "witten_imag": 1e-8,
}

#: the coordinate scaling z~ = sqrt(a) z of the laws battery's scaling
#: check: a = 1/4 integrates the scaled chart at r/2, on the base chart's
#: own nodes halved, an exact power-of-two scaling
LAWS_SCALING = 0.25


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
    """Low-degree polynomial plus a trig term, with short coefficients: a
    zero constant or term is left out of the sum, a coefficient 1 unwritten."""
    c = np.round(rng.uniform(-1.0, 1.0, size=4), 3).tolist()
    x = [Var(f"x{i}") for i in rng.integers(1, n + 1, size=4).tolist()]
    e = Num(c[0])
    for a, t in zip(c[1:], (x[0], BinOp("*", x[1], x[2]), Call("sin", (x[3],)))):
        t = Num(0.0) if a == 0.0 else t if a == 1.0 else BinOp("*", Num(a), t)
        e = t if e == Num(0.0) else e if t == Num(0.0) else BinOp("+", e, t)
    return e


def random_spinor(n: int, rng: np.random.Generator) -> list:
    """The (re, im) component trees of a spinor field with random
    polynomial+trig components."""
    return [(_random_part(n, rng), _random_part(n, rng)) for _ in range(spinor_count(n))]


def _check(name: str, value: float, tolerance: float, **extra) -> dict:
    entry = {"name": name, "value": float(value), "tolerance": float(tolerance),
             "pass": bool(value <= tolerance)}
    entry.update(extra)
    return entry


def _convergence_checks(name: str, masses: dict) -> list:
    """A failing check ``name`` when a mass report of ``masses`` (label ->
    report) carries a warning, listing those masses under ``diverging``:
    they do not count (``mass._warnings``: a diverging series, a limit
    that is not finite or too wide an error), so the limits the battery
    read from them mean nothing.  No check when every one counts."""
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
    return m["gap"] / util.scale(m["trace"])


def _weyl_scal_values(chart: MetricChart, pts: np.ndarray, jet_order: int) -> np.ndarray:
    """Values of the Weyl scalar curvature of ``chart`` at ``pts``; the
    jets behind them are freed on return."""
    from .weyl import weyl_data

    md = metric_jets(chart, pts, order=jet_order)
    return weyl_data(md, lee_jets(chart, md.coords)).scal.value


#: the conformal factor f of the identity battery's covariance check
COVARIANCE_FACTOR = "1 + 0.3/sqrt(r^2 + 1)"


def _identity_maxima(chart: MetricChart, rescaled: MetricChart, factor: exprdsl.Program,
                     pts: np.ndarray, jet_order: int, fields: exprdsl.Program,
                     direction: np.ndarray) -> dict:
    """The maxima behind every check of ``identity_battery`` on the points
    ``pts``; ``rescaled`` is ``chart`` rescaled by ``COVARIANCE_FACTOR``,
    ``factor`` that factor lowered, ``fields`` the program of the two
    spinor fields and ``direction`` the unit vector of the norm identity."""
    from .spinor import (conf_trace_second, covd_coord, dirac_composed,
                         dirac_squared_expansion, lichnerowicz_I_residual,
                         lichnerowicz_II_residual, norm_identity_residual, spinor_calc,
                         spinor_jets, spinor_values)

    n = chart.n
    # conformal covariance: f Scal(fg, theta - df/2f) = Scal(g, theta); the
    # rescaled chart's jets are freed before the base chart's are built
    fv = exprdsl.evaluate(factor, pts)[:, 0]
    lhs = fv * _weyl_scal_values(rescaled, pts, jet_order)

    md = metric_jets(chart, pts, order=jet_order)
    theta = lee_jets(chart, md.coords) if chart.has_lee else None
    calc = spinor_calc(md, theta)
    k = 0.5 * (2.0 - n)
    out = _gap_maxima(calc.weyl) if theta is not None else {}

    scal_weyl = calc.scal.value
    out["covariance"] = np.max(np.abs(lhs - scal_weyl))
    out["scal"] = np.max(np.abs(scal_weyl))

    # spinor identities on two independent random fields psi and phi, one
    # stack (m, B, 2, N): their derivatives D_i at weight k, Dirac squares
    # and trace-second fields are one call each, shared by every residual
    psiphi = spinor_jets(fields, md.coords)
    D = covd_coord(calc, psiphi, k)
    D2 = dirac_composed(calc, D, k)
    tr = conf_trace_second(calc, D, k)
    psi, Dpsi, D2psi, trpsi = (Jet(t.space, t.c[..., 0, :]) for t in (psiphi, D, D2, tr))

    res, out["first_scale"] = lichnerowicz_I_residual(calc, psi, D2psi, trpsi)
    out["first"] = np.max(np.abs(res))

    pairing = lichnerowicz_II_residual(calc, psiphi, D, D2, tr)
    out["pairing_scale"] = pairing["scale"]
    for key in ("main", "first", "second"):
        out[f"pairing_{key}"] = np.max(np.abs(pairing[key]))

    if theta is not None:
        d2 = spinor_values(D2psi)
        ex = spinor_values(dirac_squared_expansion(calc, psi, k))
        out["expansion"] = np.max(np.abs(d2 - ex))
        out["d2"] = np.max(np.abs(d2))

    nres, out["norm_scale"] = norm_identity_residual(calc, psi, direction, Dpsi)
    out["norm"] = np.max(np.abs(nres))
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
    fields = spinor_program(chart, [random_spinor(n, rng) for _ in range(2)])
    direction = rng.normal(size=n)
    direction /= math.sqrt(float(np.sum(direction * direction)))
    factor = factor_program(chart, COVARIANCE_FACTOR)
    rescaled = conformal_rescale(chart, factor)
    m = _sample_maxima(lambda p: _identity_maxima(chart, rescaled, factor, p, jet_order,
                                                  fields, direction),
                       pts, jet_order)

    tol = TOLERANCES
    checks = []
    if chart.has_lee:
        # divergence two-path (trace of nabla theta vs -codifferential)
        checks.append(_check("weyl-scalar-two-path", _divergence_gap(m),
                             tol["two_path_rel"]))
    checks.append(_check("weyl-scalar-conformal-covariance",
                         m["covariance"] / util.scale(m["scal"]),
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
                             m["expansion"] / util.scale(m["d2"]),
                             tol["dirac_expansion_rel"]))
    checks.append(_check("norm-identity", m["norm"] / util.scale(m["norm_scale"]),
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
    read that does not count (its report carries a warning) fails
    ``mass-convergence``.  An end system is checked against
    ``expected_total`` when given, and otherwise only for convergence.
    A chart's flux series is compared with that of the chart in the
    coordinates scaled by ``LAWS_SCALING`` = a, at the matched radii
    sqrt(a) r, where it is the chart's flux times a^((n-2)/2)."""
    from . import mass

    tol = TOLERANCES
    checks = []
    details = {}

    if cfg.kind == "end_system":
        rep = mass.weyl_mass(cfg.system, radii=radii, measure=measure)
        if expected_total is not None:
            checks.append(_check("weyl-mass-multi-end-expected",
                                 abs(rep.limit - expected_total) / util.scale(expected_total),
                                 tol["mass_law_rel"]))
        checks.extend(_convergence_checks("mass-convergence", {"weyl-mass": rep}))
        # each end's own mass, as weyl_mass of that end's chart returns it
        parts = rep.components.get("ends")
        details["per_end"] = ([p["total"] for p in parts] if parts else
                              [rep.components["riemannian"] + rep.components["lee"]])
        details["total"] = rep.limit
        out = _finish("laws", checks, {"mass_law_rel": tol["mass_law_rel"]},
                      config=cfg.name, measure=measure)
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
    progs = [factor_program(chart, f) for f in factors]
    base = mass.weyl_mass(chart, radii=radii, measure=measure)
    moved = mass.weyl_mass(conformal_rescale(chart, progs[1]), radii=radii,
                           measure=measure)
    riem = base.metric[0]

    # two-path conformal change of the metric mass, two factors
    paths_a = (mass.riemannian_mass(conformal_rescale(chart, progs[0]),
                                    riem.radii, measure), moved.metric[0])
    change_records = [mass.two_path_mass_delta(chart, f, riem, path_a)
                      for f, path_a in zip(progs, paths_a)]
    for f, rec in zip(factors, change_records):
        checks.append(_check(f"mass-conformal-change[{f}]",
                             abs(rec["path_a"] - rec["path_b"])
                             / util.scale(rec["path_a"], rec["path_b"]),
                             tol["mass_law_rel"]))
        budget = rec["flux_equality"]["budget"]
        checks.append(_check(f"gradient-flux-agreement[{f}]",
                             rec["flux_equality"]["diff"], budget,
                             budget=budget, absolute=True))
    details["conformal_change"] = change_records

    checks.append(_check("weyl-mass-conformal-invariance",
                         abs(base.limit - moved.limit) / util.scale(base.limit),
                         tol["mass_law_rel"]))
    details["weyl_mass"] = base.limit
    details["weyl_mass_rescaled"] = moved.limit

    # coordinate scaling: matched finite radii, exact change of variables
    a = LAWS_SCALING
    s = a ** (0.5 * (n - 2))
    worst = 0.0
    pairs = []
    flux_scaled = mass.weyl_mass(scale_coordinates(chart, a),
                                 [math.sqrt(a) * r for r in base.radii], measure).flux
    for r, f0, fs in zip(base.radii, base.flux, flux_scaled):
        mismatch = abs(fs - s * f0) / util.scale(f0, fs)
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

def _default_spinors(n: int) -> list:
    """Three constant spinors of weight (2-n)/2 for configs that name none."""
    rest = [("0", "0")] * (spinor_count(n) - 2)
    heads = ([("1", "0"), ("0", "0")], [("0", "0"), ("1", "0")], [("0.6", "0"), ("0", "0.8")])
    return [(f"const{i}", head + rest) for i, head in enumerate(heads)]


def witten_spinors(cfg: LoadedConfig) -> tuple:
    """The names of the spinor fields whose fluxes ``witten`` integrates,
    and their program on each chart of ``cfg.charts``: the config's own,
    lowered at load, or the default constant ones, lowered here."""
    if cfg.spinors:
        return list(cfg.spinors), cfg.spinor_programs
    defaults = _default_spinors(cfg.n)
    fields = [field for _, field in defaults]
    return [name for name, _ in defaults], [spinor_program(c, fields) for c in cfg.charts]


def _witten_end(chart: MetricChart, names: list, fields, radii, measure: str,
                label: str) -> tuple:
    """Checks and field records of the fluxes of the spinor fields
    ``names`` (the program ``fields``) on one chart.

    Every limit is compared with this chart's own Weyl mass, whose
    warnings (the reasons it does not count) the record carries and fail
    a ``mass-convergence`` check; ``label`` prefixes the check names.
    """
    from . import mass

    tol = TOLERANCES
    mrep = mass.weyl_mass(chart, radii=radii, measure=measure)
    radii = mrep.radii
    # one shared sample per rung for every field and radius: (R, S)
    fluxes = mass.witten_flux(chart, fields, radii, measure=measure)
    # every field's value psi_0 at a far reference point on the first axis;
    # an overflow is silent there (an infinite norm fails ``witten-limit``)
    far = np.zeros(chart.n)
    far[0] = 1e7 * chart.r_min
    with np.errstate(over="ignore"):
        psi0 = spinor_components(exprdsl.evaluate(fields, far), chart.n)
        norms = [float(np.sum(np.abs(p) ** 2)) for p in psi0]
    checks = []
    records = []
    for s, (name, nrm2) in enumerate(zip(names, norms)):
        if not np.isfinite(psi0[s]).all():
            raise ChartError(f"spinor {name!r} is not finite at the far point {far.tolist()}")
        series = [complex(v) for v in fluxes[:, s]]
        real_series = [v.real for v in series]
        imag_max = max(abs(v.imag) for v in series)
        ext = mass.extrapolate(radii, real_series, chart.n)
        expect = 0.25 * mrep.limit * nrm2
        checks.append(_check(f"witten-limit[{label}{name}]",
                             abs(ext.limit - expect) / util.scale(expect),
                             tol["witten_rel"]))
        checks.append(_check(f"witten-imag[{label}{name}]", imag_max,
                             tol["witten_imag"], absolute=True))
        records.append({"name": name, "norm2": nrm2, "series": real_series,
                        "limit": ext.limit, "expected": expect,
                        "imag_max": imag_max})
    checks.extend(_convergence_checks(f"mass-convergence[{label}weyl-mass]",
                                      {"weyl-mass": mrep}))
    return checks, {"mass": mrep.limit, "radii": list(radii), "fields": records,
                    "warnings": list(mrep.warnings)}


def witten_battery(cfg: LoadedConfig, radii=None, measure: str = "euclidean") -> dict:
    """Spinor boundary flux against one quarter mass times |psi_0|^2.

    On an end system every end is checked against its own Weyl mass: the
    check names carry the end (``witten-limit[end1/const0]``) and the
    per-end masses, radii, fields and mass warnings are listed under
    ``ends``.
    """
    names, programs = witten_spinors(cfg)
    used = {k: TOLERANCES[k] for k in ("witten_rel", "witten_imag")}
    if cfg.chart is not None:
        checks, end = _witten_end(cfg.chart, names, programs[0], radii, measure, "")
        return _finish("witten", checks, used, config=cfg.name, measure=measure, **end)
    checks, ends = [], []
    for k, (e, fields) in enumerate(zip(cfg.system.ends, programs)):
        c, end = _witten_end(e.chart, names, fields, radii, measure, f"end{k}/")
        checks.extend(c)
        ends.append({"end": k, "chart": e.chart.name, "a": e.a, **end})
    return _finish("witten", checks, used, config=cfg.name, measure=measure, ends=ends)
