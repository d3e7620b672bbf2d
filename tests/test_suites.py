"""Tests for what the identity battery computes once and shares: the base
curvature, the order-2 spinor derivatives, and the Clifford trials."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from confmass import clifford, spinor, suites, weyl
from confmass.chart import make_chart

# the package exports the function ``curvature`` under the module's name
curvature = importlib.import_module("confmass.curvature")


def spy(monkeypatch, module, name):
    """Wrap ``module.name`` and every alias a confmass module bound to it;
    returns the list of (args, kwargs) of the calls made."""
    fn = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "confmass" or key.startswith("confmass."):
            for alias, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, alias, wrapper)
    return calls


def flat_chart(n):
    return make_chart(n=n, tau=0.5 * (n - 2) + 0.25, r_min=1.0, metric={})


@pytest.mark.parametrize("cfg", ["lee_cfg", "p4_cfg", "flat_cfg"])
def test_base_curvature_built_once(monkeypatch, request, cfg):
    # once for the base sample (inside spinor_calc), once for the
    # conformally rescaled chart
    chart = request.getfixturevalue(cfg).chart
    chr_calls = spy(monkeypatch, curvature, "christoffels")
    cur_calls = spy(monkeypatch, curvature, "curvature")
    assert suites.identity_battery(chart, points=4)["pass"]
    assert len(chr_calls) == 2
    assert len(cur_calls) == 2


@pytest.mark.parametrize("cfg,count", [("lee_cfg", 2), ("p4_cfg", 2), ("flat_cfg", 1)])
def test_weyl_scalar_built_once_per_sample(monkeypatch, request, cfg, count):
    # once for the base sample (inside spinor_calc, when the chart has a
    # Lee form), once for the conformally rescaled chart
    chart = request.getfixturevalue(cfg).chart
    calls = spy(monkeypatch, weyl, "weyl_scalar")
    assert suites.identity_battery(chart, points=4)["pass"]
    assert len(calls) == count


def test_two_path_codifferential_computed_once(monkeypatch, lee_cfg):
    # the divergence -delta(theta) of the two-path check is evaluated by
    # the report's check alone, not a second time inside the Weyl scalar
    calls = {weyl: [], suites: []}
    for mod, seen in calls.items():
        def counting(*args, fn=mod.codiff_oneform, seen=seen):
            seen.append(args)
            return fn(*args)

        monkeypatch.setattr(mod, "codiff_oneform", counting)
    assert suites.identity_battery(lee_cfg.chart, points=4)["pass"]
    assert (len(calls[weyl]), len(calls[suites])) == (0, 1)


def test_two_path_gap_fails_the_reported_check(monkeypatch, lee_cfg):
    # a divergence gap of 1e-9 relative, above weyl.TWO_PATH_TOL and the
    # report's two_path_rel alike, shows as a failing check, not an error
    codiff = curvature.codiff_oneform

    def shifted(md, theta):
        out = codiff(md, theta)
        return out + 1e-9 * max(1.0, float(np.max(np.abs(out.value))))

    for mod in (curvature, weyl, suites):
        monkeypatch.setattr(mod, "codiff_oneform", shifted)
    out = suites.identity_battery(lee_cfg.chart, points=4)
    (check,) = [c for c in out["checks"] if c["name"] == "weyl-scalar-two-path"]
    assert check["value"] > check["tolerance"] and not check["pass"]
    assert not out["pass"]
    assert all(c["pass"] for c in out["checks"] if c is not check)


@pytest.mark.parametrize("cfg", ["lee_cfg", "p4_cfg"])
def test_weyl_connection_built_only_where_read(monkeypatch, request, cfg):
    # the Weyl scalar needs no connection coefficients; only the spinor
    # calculator reads them
    chart = request.getfixturevalue(cfg).chart
    calls = spy(monkeypatch, weyl, "weyl_connection")
    pts = suites.sample_points(chart, 4, suites.rng_for(42))
    assert np.all(np.isfinite(suites._weyl_scal_values(chart, pts, 2)))
    assert suites.curvature_battery(chart, points=4)["pass"]
    assert len(calls) == 0


def test_order_two_derivatives_computed_once(monkeypatch, p4_cfg):
    # n = 4 with a Lee form: 2 shared fields, 2 in each Lichnerowicz
    # residual (the outer Dirac step and the n trace-second fields in one
    # call), 1 in the weighted Dirac square and 2 in its Riemannian
    # expansion
    calls = spy(monkeypatch, spinor, "covd_coord")
    assert suites.identity_battery(p4_cfg.chart, points=4)["pass"]
    keys = []
    for args, kwargs in calls:
        bound = dict(zip(("calc", "psi", "weight", "riemannian"), args), **kwargs)
        keys.append((id(bound["psi"]), bound.get("weight"), bound.get("riemannian", False)))
    assert len(set(keys)) == len(keys)  # the fields stay alive in ``calls``
    assert len(calls) == 9


@pytest.mark.parametrize("n", range(3, 7))
def test_identity_report_clifford_checks_run_1000_trials(monkeypatch, n):
    widths = []
    mul_vector = clifford.mul_vector

    def counting(rep, v, psi):
        widths.append(np.shape(v)[1])
        return mul_vector(rep, v, psi)

    monkeypatch.setattr(clifford, "mul_vector", counting)
    out = suites.identity_battery(flat_chart(n), points=2)
    names = [c["name"] for c in out["checks"]]
    assert "clifford-pairing-compatibility" in names
    assert "clifford-wedge-contract" in names
    # x.psi and x.phi on every trial, then x.(omega.psi) once per degree
    assert widths[:2] == [1000, 1000]
    assert sum(widths[2:]) == 1000 and len(widths[2:]) <= n


def test_benchmark_trace_targets_exist():
    # the traced benchmark wraps these functions by name; a rename must
    # fail here rather than in a traced run
    path = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"
    spec = importlib.util.spec_from_file_location("confmass_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for target in tracer.TARGETS:
        mod, attr = target.split(".")
        module = importlib.import_module(f"confmass.{mod}")
        if not callable(getattr(module, attr, None)):
            missing.append(target)
    assert missing == []
