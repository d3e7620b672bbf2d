"""Tests for what the batteries compute once and share: the base curvature,
the order-2 spinor derivatives and the Clifford trials of the identity
battery, and the fluxes of the laws battery; and for the point chunks of
the pointwise batteries."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import confmass
from confmass import clifford, mass, spinor, suites, weyl
from confmass.chart import conformal_rescale, factor_program, make_chart, spinor_program
from confmass.exprdsl import BinOp, Call, Num, Var

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


def offdiag_chart(n, lee):
    """Isotropic Schwarzschild in n dimensions with an off-diagonal term
    and, with ``lee``, a Lee form that is neither exact nor rotational."""
    base = f"1 + 1/(2*r^{n - 2})"
    iso = f"({base})^4" if n == 3 else f"pow({base}, 4/{n - 2})"
    metric = {f"{i}{i}": iso for i in range(1, n + 1)}
    metric["12"] = f"0.3*x1*x2/r^{n + 2}"
    kw = {}
    if lee:
        kw["lee"] = [f"-0.2*x1/r^{n} - 0.1*x2/r^{n}", f"0.1*x1/r^{n}"] + [
            f"-0.2*x{i}/r^{n}" for i in range(3, n + 1)]
    return make_chart(n=n, tau=0.5 * (n - 2) + 0.25, r_min=1.0, metric=metric, **kw)


def set_chunk_limit(monkeypatch, chart, jet_order, limit):
    """Set ``suites.POINT_BUDGET`` so the batteries' chunks on ``chart`` hold
    at most ``limit`` points."""
    cost = math.comb(chart.n + jet_order, chart.n) * chart.n ** 3
    monkeypatch.setattr(suites, "POINT_BUDGET", limit * cost)


# every n with and without a Lee form, each n at both jet orders
@pytest.mark.parametrize("n,lee,jet_order",
                         [(n, lee, 2 + (n + lee) % 2) for n in range(3, 7)
                          for lee in (False, True)])
def test_battery_reports_do_not_depend_on_the_chunk_width(monkeypatch, n, lee, jet_order):
    # 9 points in 9 chunks of 1, in chunks of 5 and 4, and in one chunk
    chart = offdiag_chart(n, lee)
    reports = []
    for limit in (1, 7, 9):
        set_chunk_limit(monkeypatch, chart, jet_order, limit)
        reports.append([json.dumps(battery(chart, points=9, seed=5, jet_order=jet_order))
                        for battery in (suites.identity_battery, suites.curvature_battery)])
    assert reports[0] == reports[2]
    assert reports[1] == reports[2]
    assert ("weyl-scalar-two-path" in reports[2][1]) is lee


def test_identity_battery_memory_does_not_grow_with_the_point_count():
    import tracemalloc

    chart = offdiag_chart(6, lee=True)
    suites.identity_battery(chart, points=2)  # warm the jet-space caches

    def peak(points):
        tracemalloc.start()
        try:
            suites.identity_battery(chart, points=points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.1 * peak(100)


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


def test_two_path_codifferential_computed_once(monkeypatch, lee_cfg, p4_cfg):
    # delta(theta) of the base sample is computed once, by the Weyl data,
    # and read by both the two-path check and the Dirac-square expansion;
    # the other three are the divergences of the pairing identity
    for cfg in (lee_cfg, p4_cfg):
        with monkeypatch.context() as m:
            calls = spy(m, curvature, "codiff_oneform")
            assert suites.identity_battery(cfg.chart, points=4)["pass"]
        assert len(calls) == 4, cfg.name


def test_dirac_square_computed_once(monkeypatch, lee_cfg, p4_cfg):
    # the composed Dirac square of psi is read by the first Lichnerowicz
    # identity and by the expansion check; the other call is phi's, in
    # the pairing identity
    for cfg in (lee_cfg, p4_cfg):
        with monkeypatch.context() as m:
            calls = spy(m, spinor, "dirac_composed")
            assert suites.identity_battery(cfg.chart, points=4)["pass"]
        assert len(calls) == 2, cfg.name


def test_rescaled_jets_built_before_the_base_jets_in_every_chunk(monkeypatch, lee_cfg):
    # the covariance check's rescaled chart is evaluated, and its jets
    # freed, before the base chart's jets are built: the two are never
    # alive together
    chart = lee_cfg.chart
    rescaled = conformal_rescale(chart, factor_program(chart, suites.COVARIANCE_FACTOR)).name
    set_chunk_limit(monkeypatch, chart, 2, 2)
    built = []
    metric_jets = suites.metric_jets

    def recording(c, *args, **kwargs):
        built.append(c.name)
        return metric_jets(c, *args, **kwargs)

    # the batteries' own calls, not the load-time probe of make_chart
    monkeypatch.setattr(suites, "metric_jets", recording)
    assert suites.identity_battery(chart, points=5)["pass"]
    assert built == [rescaled, chart.name] * 3


def test_two_path_gap_fails_the_reported_check(monkeypatch, lee_cfg):
    # a divergence gap of 1e-9 relative, above the report's two_path_rel,
    # shows as a failing check, not an error; the Dirac-square expansion
    # reads the same delta(theta) and fails with it, every other check passes
    codiff = curvature.codiff_oneform

    def shifted(md, theta):
        out = codiff(md, theta)
        return out + 1e-9 * max(1.0, float(np.max(np.abs(out.value))))

    for mod in (curvature, weyl):
        monkeypatch.setattr(mod, "codiff_oneform", shifted)
    out = suites.identity_battery(lee_cfg.chart, points=4)
    (check,) = [c for c in out["checks"] if c["name"] == "weyl-scalar-two-path"]
    assert check["value"] > check["tolerance"] and not check["pass"]
    assert not out["pass"]
    failed = [c["name"] for c in out["checks"] if not c["pass"]]
    assert failed == ["weyl-scalar-two-path", "dirac-square-expansion"]


def test_witten_flux_builds_no_curvature(monkeypatch, lee_cfg):
    # the spinor flux needs first derivatives only: the calculator it
    # builds never reads its curvature or Weyl scalar
    cur_calls = spy(monkeypatch, curvature, "curvature")
    weyl_calls = spy(monkeypatch, weyl, "weyl_scalar")
    spec = suites._default_spinors(3)[0][1]
    fields = spinor_program(lee_cfg.chart, [spec])
    flux = mass.witten_flux(lee_cfg.chart, fields, [20.0], orders=6)[0, 0]
    assert np.isfinite(flux.real)
    assert (len(cur_calls), len(weyl_calls)) == (0, 0)


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
    # n = 4 with a Lee form: 2 shared fields, 1 in the shared weighted
    # Dirac square of psi, 1 in the first Lichnerowicz residual (the n
    # trace-second fields in one call), 2 in the pairing residual (phi's
    # outer Dirac step and trace-second fields) and 2 in the Riemannian
    # expansion
    calls = spy(monkeypatch, spinor, "covd_coord")
    assert suites.identity_battery(p4_cfg.chart, points=4)["pass"]
    keys = []
    for args, kwargs in calls:
        bound = dict(zip(("calc", "psi", "weight"), args), **kwargs)
        keys.append((id(bound["psi"]), bound["weight"]))
    assert len(set(keys)) == len(keys)  # the fields stay alive in ``calls``
    assert len(calls) == 8


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


def test_laws_computes_each_flux_once(monkeypatch, rot_cfg):
    # the metric masses of the chart and of its rescaling reach the
    # two-path checks through the Weyl mass reports, not a second series
    keys = []
    for kind in ("adm_flux", "lee_flux", "gradient_flux", "witten_flux"):
        sig = inspect.signature(getattr(mass, kind))
        calls = spy(monkeypatch, mass, kind)
        keys.append((kind, sig, calls))
    out = suites.laws_battery(rot_cfg)
    assert out["pass"]
    seen = []
    for kind, sig, calls in keys:
        for args, kwargs in calls:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = dict(bound.arguments)
            c = a.pop("chart")
            seen.append((kind, repr((c.n, c.r_min, c.metric, c.lee, sorted(c.params.items()))),
                         repr(sorted(a.items()))))
    # base and rescaled Weyl masses 4, the first factor's metric mass 1,
    # one gradient ladder per factor 2, the scaled chart's Weyl flux 2
    assert len(seen) == 9
    assert len(set(seen)) == len(seen)


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


RESIDUAL_TARGETS = ("spinor.lichnerowicz_I_residual", "spinor.lichnerowicz_II_residual",
                    "spinor.norm_identity_residual", "spinor.dirac_squared_expansion")


@pytest.mark.parametrize("argv,targets", [
    (("identities", "schwarzschild-lee", "--points", "4"), RESIDUAL_TARGETS),
    (("witten", "flat"), ()),
])
def test_benchmark_tracer_runs_the_command_unchanged(tmp_path, argv, targets):
    # the tracer binds the arguments of some wrapped functions; a call it
    # cannot bind must fail here, and the traced report must be the plain one
    root = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(confmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
    spans = tmp_path / "spans.json"
    plain = subprocess.run([sys.executable, "-m", "confmass", *argv],
                           capture_output=True, env=env, cwd=str(tmp_path))
    traced = subprocess.run([sys.executable, str(root / "benchmark" / "tracer.py"),
                             str(spans), "--", *argv],
                            capture_output=True, env=env, cwd=str(tmp_path))
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.returncode == plain.returncode, traced.stderr.decode()
    assert traced.stdout == plain.stdout
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    for target in ("spinor.covd_coord", "spinor.covd_frame", *targets):
        assert target in names, target


def test_random_part_drops_zero_terms_and_unit_coefficients():
    # a generator that draws the coefficients 0, 1, 0, -0.5 and x1, x2, x3, x2
    class Draws:
        def uniform(self, low, high, size):
            return np.array([0.0, 1.0, 0.0, -0.5])

        def integers(self, low, high, size):
            return np.array([1, 2, 3, 2])

    sin = BinOp("*", Num(-0.5), Call("sin", (Var("x2"),)))
    assert suites._random_part(3, Draws()) == BinOp("+", Var("x1"), sin)
