"""End-to-end acceptance suite.

Each test pins one advertised guarantee of the package — closed-form mass
values, pointwise identity residuals, transformation laws, algebraic
exactness, and report determinism — at its stated tolerance, so a verbose
run shows one pass/fail line per guarantee.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import confmass
from confmass.chart import (
    conformal_rescale,
    factor_program,
    lee_jets,
    metric_jets,
    scale_coordinates,
    spinor_components,
    spinor_program,
)
from confmass.curvature import christoffels, curvature
from confmass.exprdsl import evaluate
from confmass.jets import Jet
from confmass.mass import (
    extrapolate,
    riemannian_mass,
    two_path_mass_delta,
    weyl_mass,
    witten_flux,
)
from confmass.spinor import (
    covd_coord,
    dirac_composed,
    lichnerowicz_I_residual,
    lichnerowicz_II_residual,
    spinor_calc,
    spinor_jets,
)
from confmass.suites import (
    clifford_battery,
    random_spinor,
    rng_for,
    sample_points,
)
from confmass.weyl import weyl_data

RADII = (20.0, 40.0, 80.0, 160.0)


def _tensor_max(obj) -> float:
    """Largest |value| over a nested list of jets."""
    if isinstance(obj, (list, tuple)):
        return max((_tensor_max(x) for x in obj), default=0.0)
    return float(np.max(np.abs(obj.value)))


def _chart_theta_jets(chart, coords):
    """Lee-form jets, or None when the chart's Lee form vanishes identically."""
    return lee_jets(chart, coords) if chart.has_lee else None


def _field(chart, field, coords):
    """The jet (m, B, N) of one spinor field, lowered on ``chart``."""
    psi = spinor_jets(spinor_program(chart, [field]), coords)
    return Jet(psi.space, psi.c[:, :, 0])


def _spinor_setup(cfg, points, seed, order=2):
    """Calculator plus two generic random spinor fields at seeded points."""
    chart = cfg.chart
    rng = rng_for(seed)
    pts = sample_points(chart, points, rng)
    md = metric_jets(chart, pts, order=order)
    theta = _chart_theta_jets(chart, md.coords)
    calc = spinor_calc(md, theta)
    psi = _field(chart, random_spinor(chart.n, rng), md.coords)
    phi = _field(chart, random_spinor(chart.n, rng), md.coords)
    return calc, psi, phi


def test_flat_chart_has_zero_mass_and_vanishing_curvature(flat_cfg):
    start = time.monotonic()
    chart = flat_cfg.chart

    rep = riemannian_mass(chart)
    assert abs(rep.limit) <= 1e-10

    pts = sample_points(chart, 50, rng_for(2))
    cv = curvature(christoffels(metric_jets(chart, pts, order=2)))
    worst = max(
        _tensor_max(cv.cd.christoffel),
        _tensor_max(cv.riemann),
        _tensor_max(cv.ricci),
        _tensor_max(cv.scal),
    )
    assert worst <= 1e-12

    assert time.monotonic() - start < 1.0


def test_isotropic_chart_mass_matches_closed_form(iso_cfg):
    """The flux 16 pi (1 + m/(2r))^3 of the isotropic chart extrapolates
    to 16 pi m raw, 1 ADM-normalised (m = 1)."""
    start = time.monotonic()
    chart = iso_cfg.chart

    raw = riemannian_mass(chart, radii=RADII)
    assert abs(raw.limit - 16.0 * math.pi) <= 1e-3 * 16.0 * math.pi

    adm = riemannian_mass(chart, radii=RADII, normalize="adm")
    assert abs(adm.limit - 1.0) <= 1e-3

    assert time.monotonic() - start < 10.0


def test_isotropic_chart_is_scalar_flat(iso_cfg):
    chart = iso_cfg.chart
    pts = sample_points(chart, 50, rng_for(3))
    cv = curvature(christoffels(metric_jets(chart, pts, order=2)))
    assert float(np.max(np.abs(cv.scal.value))) <= 1e-9


def test_dirac_laplacian_formula_residual_across_chart_matrix(
    iso_cfg, lee_cfg, rot_cfg, p4_cfg
):
    start = time.monotonic()
    for cfg in (iso_cfg, lee_cfg, rot_cfg, p4_cfg):
        calc, psi, _ = _spinor_setup(cfg, points=100, seed=101)
        k = 0.5 * (2.0 - calc.n)
        Dc = covd_coord(calc, psi, k)
        res, scale = lichnerowicz_I_residual(calc, psi, Dc, dirac_composed(calc, Dc, k))
        rel = float(np.max(np.abs(res))) / scale
        assert rel <= 1e-8, f"{cfg.name}: relative residual {rel:.3e}"
    assert time.monotonic() - start < 30.0


def test_pairing_formula_residuals_across_chart_matrix(
    iso_cfg, lee_cfg, rot_cfg, p4_cfg
):
    for cfg in (iso_cfg, lee_cfg, rot_cfg, p4_cfg):
        calc, psi, phi = _spinor_setup(cfg, points=100, seed=202)
        k = 0.5 * (2.0 - calc.n)
        out = lichnerowicz_II_residual(calc, psi, phi, covd_coord(calc, psi, k),
                                       covd_coord(calc, phi, k))
        for part in ("main", "first", "second"):
            rel = float(np.max(np.abs(out[part]))) / out["scale"]
            assert rel <= 1e-8, f"{cfg.name}/{part}: relative residual {rel:.3e}"


def test_weighted_scalar_curvature_is_conformally_covariant(lee_cfg, rot_cfg):
    f_src = "1 + 0.3/sqrt(r^2 + 1)"
    for cfg in (lee_cfg, rot_cfg):
        chart = cfg.chart
        pts = sample_points(chart, 100, rng_for(17))

        md = metric_jets(chart, pts, order=2)
        theta = lee_jets(chart, md.coords)
        base = weyl_data(md, theta).scal.value

        f = factor_program(chart, f_src)
        resc = conformal_rescale(chart, f)
        md2 = metric_jets(resc, pts, order=2)
        th2 = lee_jets(resc, md2.coords)
        moved = weyl_data(md2, th2).scal.value

        fv = evaluate(f, pts)[:, 0]
        gap = float(np.max(np.abs(fv * moved - base)))
        assert gap <= 1e-10 * max(1.0, float(np.max(np.abs(base))))


def test_mass_change_under_conformal_rescaling_agrees_two_ways(flat_cfg, iso_cfg):
    pairs = (
        (flat_cfg.chart, "1 + 0.3/sqrt(r^2 + 1)"),
        (iso_cfg.chart, "1 + 1/sqrt(r^2 + 1)"),
    )
    for chart, src in pairs:
        f = factor_program(chart, src)
        base = riemannian_mass(chart, radii=RADII)
        path_a = riemannian_mass(conformal_rescale(chart, f), radii=RADII)
        out = two_path_mass_delta(chart, f, base, path_a)
        assert out["rel_delta"] <= 5e-3, f"{chart.name}: {out['rel_delta']:.3e}"
        fe = out["flux_equality"]
        assert fe["diff"] <= fe["budget"]


def test_weyl_mass_invariance_scaling_and_aggregation(lee_cfg, ends_cfg):
    """m(D) = m(g) - 2 (n-1) lim oint theta(nu) is the conformally
    invariant sign: on g0 = u^4 delta with theta0 = d(1/r) it reads 32 pi
    against g0 and against f g0, f = 1 + 0.3/sqrt(r^2 + 1), where
    m(f g0) = 92 pi/5; the other sign gives 0 and 24 pi/5."""
    chart = lee_cfg.chart

    # invariance under conformal change of the representative metric
    base = weyl_mass(chart, radii=RADII)
    moved = weyl_mass(conformal_rescale(chart, factor_program(chart, "1 + 0.3/sqrt(r^2 + 1)")),
                      radii=RADII)
    assert abs(moved.limit - base.limit) <= 5e-3 * abs(base.limit)

    # exact scaling under the coordinate dilation, at matched radii
    a = 4.0
    expo = 0.5 * (chart.n - 2.0)
    scaled = weyl_mass(
        scale_coordinates(chart, a),
        radii=tuple(math.sqrt(a) * r for r in RADII),
    )
    ratio = scaled.limit / base.limit
    assert abs(ratio - a**expo) <= 1e-6

    # aggregation over a two-end system with weights a = 1 and a = 4
    agg = weyl_mass(ends_cfg.system, radii=RADII)
    assert abs(agg.limit - 48.0 * math.pi) <= 5e-3 * 48.0 * math.pi


def test_witten_flux_limit_recovers_quarter_mass(iso_cfg, lee_cfg):
    for cfg in (iso_cfg, lee_cfg):
        chart = cfg.chart
        m_weyl = weyl_mass(chart, radii=RADII).limit
        assert len(cfg.spinors) >= 3
        (fields,) = cfg.spinor_programs
        # constant fields: their program reads no coordinate
        assert all(op != "coord" for op, _, _ in fields.code)
        psi0 = spinor_components(evaluate(fields, np.full(chart.n, 3.0)), chart.n)
        fluxes = np.array([witten_flux(chart, fields, [r])[0] for r in RADII])  # (R, S)
        for s, name in enumerate(cfg.spinors[:3]):
            norm2 = float(np.sum(np.abs(psi0[s]) ** 2))

            series = fluxes[:, s].tolist()
            assert max(abs(w.imag) for w in series) <= 1e-8
            ext = extrapolate(RADII, [w.real for w in series], chart.n)
            predicted = 0.25 * m_weyl * norm2
            assert abs(ext.limit - predicted) <= 1e-2 * abs(predicted), (
                f"{cfg.name}/{name}: {ext.limit:.6f} vs {predicted:.6f}"
            )


def test_clifford_relations_exact_and_identities_tight():
    for n in (3, 4, 5, 6):
        out = clifford_battery(n, trials=1000, seed=29)
        assert out["pass"], [c["name"] for c in out["checks"] if not c["pass"]]
        for check in out["checks"]:
            assert check["tolerance"] <= 1e-14
            assert check["value"] <= check["tolerance"]


def _subprocess_pythonpath() -> str:
    """PYTHONPATH that makes ``python -m confmass`` import this very package.

    The suite may run from a source checkout with a relative
    ``PYTHONPATH=src``, which does not resolve from another working
    directory; the absolute parent of the imported package goes first.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(confmass.__file__)))
    inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return os.pathsep.join([root, *inherited])


def test_reports_byte_identical_across_hash_seeds(tmp_path):
    commands = (
        ("mass", "schwarzschild.chart", "--radii", "20,40,80,160"),
        ("identities", "schwarzschild-lee.chart", "--points", "50", "--seed", "11"),
    )
    for cmd in commands:
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=_subprocess_pythonpath())
            proc = subprocess.run(
                [sys.executable, "-m", "confmass", *cmd],
                capture_output=True,
                env=env,
                cwd=str(tmp_path),
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
