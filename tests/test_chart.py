"""Tests for chart construction, validation, the lowered metric and Lee
programs, decay scanning, and the two chart-level transformations
(conformal rescaling and coordinate scaling)."""

import inspect
import json

import numpy as np
import pytest

from confmass import chart as chart_module
from confmass import exprdsl, jetlinalg, jets, suites, util
from confmass.chart import (
    ChartError,
    End,
    EndSystem,
    MetricChart,
    conformal_rescale,
    decay_scan,
    factor_program,
    lee_jets,
    make_chart,
    metric_entry_jets,
    metric_jets,
    metric_values,
    scale_coordinates,
)
from confmass.cli import main
from confmass.config import bundled_names, bundled_text, load_config

ISO = {"11": "(1 + 1/(2*r))^4", "22": "(1 + 1/(2*r))^4", "33": "(1 + 1/(2*r))^4"}


def make_iso(**kw):
    args = dict(n=3, tau=0.99, r_min=1.0, metric=ISO, lee=None)
    args.update(kw)
    return make_chart(**args)


def entry_slots(chart) -> np.ndarray:
    """The output slots of the metric program as an n x n array."""
    return np.reshape(chart.metric.outputs, (chart.n, chart.n))


class TestMakeChart:
    def test_basic_construction(self):
        c = make_iso()
        assert c.n == 3
        assert c.tau == 0.99
        # the n^2 entries lowered row-major, the missing ones flat
        iso, zero = exprdsl.parse(ISO["11"]), exprdsl.Num(0.0)
        entries = [iso if i == j else zero for i in range(3) for j in range(3)]
        assert c.metric == exprdsl.lower(entries, 3)
        assert c.lee == exprdsl.lower([zero] * 3, 3)
        assert not c.has_lee

    def test_off_diagonal_symmetrized(self):
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={"11": "1", "22": "1", "33": "1", "12": "0.1*x3/r^2"},
        )
        # g12 and g21 are one slot
        assert entry_slots(c)[0, 1] == entry_slots(c)[1, 0]

    def test_dimension_bounds(self):
        with pytest.raises(ChartError):
            make_chart(n=2, tau=0.4, r_min=1.0, metric={"11": "1", "22": "1"})
        with pytest.raises(ChartError):
            make_chart(n=9, tau=4.0, r_min=1.0, metric={})

    def test_tau_window(self):
        # admissible decay rates sit strictly between (n-2)/2 and n-2
        with pytest.raises(ChartError):
            make_iso(tau=0.5)  # not above 1/2
        with pytest.raises(ChartError):
            make_iso(tau=1.0)  # not below 1
        make_iso(tau=0.51)
        make_iso(tau=0.999)

    def test_missing_entries_default_to_flat(self):
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "1 + 1/r"})
        slots = entry_slots(c)
        assert c.metric.code[slots[1, 1]] == ("const", 1.0, ())
        assert c.metric.code[slots[0, 1]] == ("const", 0.0, ())

    def test_duplicate_symmetric_entry_rejected(self):
        with pytest.raises(ChartError):
            make_chart(
                n=3,
                tau=0.75,
                r_min=1.0,
                metric={"12": "0.1*x3/r^2", "21": "0.1*x3/r^2"},
            )

    def test_rejects_unknown_identifier(self):
        with pytest.raises(ChartError):
            make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "1 + q/r^2"})

    def test_rejects_indefinite_metric(self):
        # the SPD probe on the sphere r = 8 r_min must reject this
        with pytest.raises(ChartError):
            make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "-1"})

    def test_rejects_metric_singular_on_the_probe_sphere(self):
        # 1 - 8/r vanishes at r = 8 r_min: the SPD check names the first
        # probe point before the jet inverse meets the singular matrix
        with pytest.raises(ChartError) as err:
            make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "1 - 8/r"})
        assert str(err.value) == "metric is not positive definite at [8.0, 0.0, 0.0]"

    def test_rejects_metric_indefinite_only_on_a_decay_scan_sphere(self):
        # positive at r = 8 r_min, negative from r = 100 on: the probes on
        # the spheres of the decay scan (50..5000 r_min) must reject it
        with pytest.raises(ChartError, match="not positive definite"):
            make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "1 - r/100"})

    def test_rejects_lee_form_non_finite_only_on_a_decay_scan_sphere(self):
        # finite at r = 8 r_min, infinite on the first scan sphere r = 50
        with pytest.raises(ChartError) as err:
            make_chart(n=3, tau=0.75, r_min=1.0, lee=["1/(r - 50)", "0", "0"])
        assert str(err.value) == "lee form evaluates to a non-finite value at [50.0, 0.0, 0.0]"

    def test_rejects_metric_non_finite_only_on_a_decay_scan_sphere(self):
        # finite at r = 8 r_min, infinite on the first scan sphere r = 50:
        # the refusal names the first point, as the Lee-form one does
        with pytest.raises(ChartError) as err:
            make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "1 + 1/(r - 50)^2"})
        assert str(err.value) == "metric evaluates to a non-finite value at [50.0, 0.0, 0.0]"

    def test_rejects_an_r_min_whose_decay_scan_squares_to_inf(self):
        # 5000 r_min is the last scan radius: its square is finite at
        # r_min = 2.6e150 and overflows at 2.7e150
        make_chart(n=3, tau=0.75, r_min=2.6e150)
        for r_min in (2.7e150, 1e300, 1e305):
            with pytest.raises(ChartError) as err:
                make_chart(n=3, tau=0.75, r_min=r_min)
            assert str(err.value).startswith(f"r_min {r_min!r} is too large: the square")

    def test_unvalidated_charts_skip_the_probes(self, unvalidated):
        # the test-only route around _validate_chart: make_chart itself
        # has no option to skip it
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "-1"})
        assert isinstance(c, MetricChart)
        assert "validate" not in inspect.signature(make_chart).parameters

    def test_reserved_parameter_names_rejected(self):
        with pytest.raises(ChartError):
            make_iso(params={"r": 1.0})
        with pytest.raises(ChartError):
            make_iso(params={"x1": 1.0})

    def test_params_resolve(self):
        c = make_chart(
            n=3,
            tau=0.99,
            r_min=1.0,
            metric={"11": "(1 + m/(2*r))^4", "22": "(1 + m/(2*r))^4", "33": "(1 + m/(2*r))^4"},
            params={"m": 1.0},
        )
        assert c.params["m"] == 1.0




class TestDecayScan:
    def test_isotropic_passes(self):
        c = make_iso()
        scan = decay_scan(c)
        assert scan.passed
        assert scan.tau_declared == 0.99
        # g - delta decays like 2/r here, so the fitted exponent is near 1
        assert scan.tau_hat == pytest.approx(1.0, abs=0.05)

    def test_a_slot_that_vanishes_on_every_axis_is_fitted(self):
        # g13 = e x1 x3 / r^5 is zero on all six axis rays, so only the
        # two off-axis rays see it; it decays like r^-3, not exactly flat
        c = make_iso(metric=dict(ISO, **{"13": "e*x1*x3/r^5"}), params={"e": 0.3})
        slot = decay_scan(c).slots["g13"]
        assert not slot["exactly_flat"]
        assert slot["exponent"] == pytest.approx(3.0, abs=1e-9)

    def test_flat_chart_is_exactly_flat(self):
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={})
        scan = decay_scan(c)
        assert scan.exactly_flat and scan.passed
        assert "exactly flat" in scan.summary()

    def test_flags_slow_metric_decay(self, unvalidated):
        # g11 - 1 is constant along rays: exponent 0 < required tau
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "2"})
        scan = decay_scan(c)
        assert not scan.passed
        assert not scan.slots["g11"]["passed"]

    def test_flags_slow_lee_decay(self):
        # theta must decay one order faster than the metric: 1/r fails
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={}, lee=["1/r", "0", "0"])
        scan = decay_scan(c)
        assert not scan.passed
        assert not scan.slots["theta1"]["passed"]
        assert scan.slots["theta2"]["exactly_flat"]

    @pytest.mark.parametrize("power, verdict", [(3, "ok"), (1, "FAIL")])
    def test_flat_metric_with_a_lee_form_summarises_the_lee_verdict(self, power, verdict,
                                                                     unvalidated):
        # every metric slot is flat, so there is no tau_hat to print; the
        # Lee slots (b x_i / r^3 decays at 2 >= tau + 1 - 0.1) decide
        c = make_chart(n=3, tau=0.99, r_min=1.0, metric={}, params={"b": 0.25},
                       lee=[f"b*x{i}/r^{power}" for i in (1, 2, 3)])
        scan = decay_scan(c)
        assert scan.tau_hat is None and not scan.exactly_flat
        assert scan.passed == (verdict == "ok")
        assert scan.summary() == f"metric exactly flat; lee form vs declared tau + 1 = 1.99 -> {verdict}"


class TestMetricJets:
    def test_spd_enforced(self, unvalidated):
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={"11": "-1", "22": "1", "33": "1"},
        )
        X = np.array([[5.0], [0.0], [0.0]])
        with pytest.raises(ChartError):
            metric_jets(c, X, order=1)

    def test_sqrt_det_is_built_once_on_first_read(self, monkeypatch):
        c = make_iso()
        X = np.array([[3.0, 0.0], [4.0, 6.0], [0.0, 2.0]])
        calls = []
        mat_det = jetlinalg.mat_det

        def counting(A):
            calls.append(A)
            return mat_det(A)

        monkeypatch.setattr(jetlinalg, "mat_det", counting)
        md = metric_jets(c, X, order=2)
        assert calls == []
        first = md.sqrt_det
        assert md.sqrt_det is first and len(calls) == 1
        np.testing.assert_allclose(first.value, np.sqrt(np.linalg.det(md.g.value)),
                                   rtol=1e-13)

    def test_wrong_coordinate_count_rejected(self):
        c = make_iso()
        with pytest.raises(ChartError):
            metric_jets(c, np.zeros((4, 1)), order=1)

    def test_values_match_plain_evaluation(self):
        c = make_iso()
        X = np.array([[3.0, 0.0], [4.0, 6.0], [0.0, 2.0]])
        fr = metric_jets(c, X, order=1)
        u4 = (1 + 1 / (2 * np.linalg.norm(X, axis=0))) ** 4
        for i in range(3):
            np.testing.assert_allclose(fr.g.value[:, i, i], u4, rtol=1e-15)
            for j in range(i + 1, 3):
                np.testing.assert_array_equal(fr.g.value[:, i, j], np.zeros(2))


    def test_one_call_shares_the_radius(self, monkeypatch, p4_cfg):
        # every perturbed4 entry with r needs sqrt(r): r's own square root
        # and sqrt(r), each taken once per call
        taken = []
        jet_sqrt = jets.jet_sqrt
        monkeypatch.setattr(jets, "jet_sqrt", lambda u: taken.append(u) or jet_sqrt(u))
        X = np.array([[2.0, -1.5], [1.0, 3.0], [0.5, 0.2], [-1.0, 2.5]])
        _, coords = jets.seed_point(X, 2)
        metric_entry_jets(p4_cfg.chart, coords)
        assert len(taken) == 2
        taken.clear()
        lee_jets(p4_cfg.chart, coords)
        assert len(taken) == 2


class TestTransformations:
    def test_conformal_rescale_metric_values(self):
        c = make_iso()
        d = conformal_rescale(c, factor_program(c, "1 + 1/sqrt(r^2 + 1)"))
        pt = np.array([[7.0], [1.0], [-2.0]])
        r = float(np.linalg.norm(pt))
        u4 = (1 + 1 / (2 * r)) ** 4
        fval = 1 + 1 / np.sqrt(r**2 + 1)
        got = metric_values(d, pt)[0, 0, 0]
        assert got == pytest.approx(fval * u4, rel=1e-14)

    def test_conformal_rescale_shifts_lee_form(self):
        # the covector picks up -(df)/(2f); for f -> const the shift vanishes
        c = make_iso()
        d = conformal_rescale(c, factor_program(c, "2"))
        pt = np.array([[4.0], [3.0], [0.0]])
        assert exprdsl.evaluate(d.lee, pt).tolist() == [[0.0, 0.0, 0.0]]
        assert not d.has_lee

    def test_scale_coordinates_metric_transport(self):
        c = make_iso()
        a = 4.0
        s = scale_coordinates(c, a)
        # g~_ij(z) = g_ij(z / sqrt(a)); check at z = sqrt(a) * z0
        z0 = np.array([[3.0], [0.0], [4.0]])
        z = np.sqrt(a) * z0
        want = metric_values(c, z0)[0, 0, 0]
        got = metric_values(s, z)[0, 0, 0]
        assert got == pytest.approx(want, rel=1e-15)
        assert s.r_min == pytest.approx(np.sqrt(a) * c.r_min)

    def test_scale_coordinates_rejects_nonpositive(self):
        c = make_iso()
        with pytest.raises(ChartError):
            scale_coordinates(c, 0.0)
        with pytest.raises(ChartError):
            scale_coordinates(c, -2.0)


class TestEndSystem:
    def test_construction(self):
        c = make_iso()
        sys = EndSystem(ends=(End(chart=c, a=1.0), End(chart=c, a=4.0)))
        assert len(sys.ends) == 2
        assert sys.ends[1].a == 4.0


def bundled_charts() -> list:
    """Every chart of the bundled configs, the ends of a system included."""
    out = []
    for name in bundled_names():
        cfg = load_config(name)
        out += [cfg.chart] if cfg.chart is not None else [e.chart for e in cfg.system.ends]
    return out


class TestChartPrograms:
    def test_metric_program_is_the_lowered_upper_triangle(self):
        # the n^2 entries lowered row-major emit no instruction beyond the
        # upper triangle's: each symmetric pair is one tree, so one slot
        for name in bundled_names():
            doc = json.loads(bundled_text(name))
            docs = [doc] if doc["kind"] == "chart" else [e["chart"] for e in doc["ends"]]
            for chart_doc, c in zip(docs, load_config(name).charts):
                n, metric = c.n, chart_doc["metric"]
                upper = [exprdsl.parse(metric[f"{i + 1}{j + 1}"]["expr"])
                         if f"{i + 1}{j + 1}" in metric else exprdsl.Num(float(i == j))
                         for i in range(n) for j in range(i, n)]
                assert c.metric.code == exprdsl.lower(upper, n, c.params).code, c.name
                out = entry_slots(c)
                assert np.array_equal(out, out.T), c.name
                lee = [exprdsl.parse(e["expr"]) for e in chart_doc.get("lee", ())]
                assert c.lee == exprdsl.lower(lee or [exprdsl.Num(0.0)] * n, n, c.params), c.name

    @pytest.mark.parametrize("c", bundled_charts(), ids=lambda c: c.name)
    def test_scaled_chart_reads_the_base_chart_at_doubled_points(self, c):
        # a = 1/4 reads the coordinates doubled, an exact scaling: the
        # metric is the base metric there bit for bit, the Lee form twice
        # the base Lee form there
        s = scale_coordinates(c, 0.25)
        z = suites.sample_points(s, 64, suites.rng_for(7))
        assert np.array_equal(metric_values(s, z), metric_values(c, 2.0 * z))
        assert np.array_equal(exprdsl.evaluate(s.lee, z),
                              2.0 * exprdsl.evaluate(c.lee, 2.0 * z))
        assert s.has_lee == c.has_lee and s.r_min == 0.5 * c.r_min

    @pytest.mark.parametrize("c", bundled_charts(), ids=lambda c: c.name)
    def test_rescaled_chart_is_f_g_with_the_lee_form_shifted(self, c):
        # f g bit for bit; theta - df/(2f) against df from f's order-1 jets,
        # relative to |theta| + |df/(2f)|, since the two terms may cancel
        f = factor_program(c, suites.COVARIANCE_FACTOR)
        d = conformal_rescale(c, f)
        X = suites.sample_points(c, 64, suites.rng_for(7))
        fv = exprdsl.evaluate(f, X)[:, 0]
        assert np.array_equal(metric_values(d, X), fv[:, None, None] * metric_values(c, X))
        fj = jets.evaluate_jet(f, jets.seed_point(X, 1)[1])
        df = np.stack([fj.derive(i).value[:, 0] for i in range(c.n)], axis=-1)
        theta, shift = exprdsl.evaluate(c.lee, X), df / (2.0 * fv[:, None])
        got = exprdsl.evaluate(d.lee, X)
        assert np.all(np.abs(got - (theta - shift)) <= 1e-15 * (np.abs(theta) + np.abs(shift)))
        assert d.has_lee

    @pytest.mark.parametrize("argv, module, knob, widths, lowered", [
        (["weyl-mass", "schwarzschild-lee"], util, "CHUNK", (256, 16), 3),
        (["witten", "schwarzschild-lee"], util, "CHUNK", (256, 16), 3),
        (["witten", "schwarzschild-lee", "--radii", "20,40,80,160,320,640"],
         util, "CHUNK", (256, 16), 3),
        (["witten", "twoends"], util, "CHUNK", (256, 16), 6),
        (["witten", "twoends", "--radii", "20,40,80,160"], util, "CHUNK", (256, 16), 6),
        (["identities", "schwarzschild-rot-lee"], suites, "POINT_BUDGET", (216_000, 2_000), 5),
        (["laws", "schwarzschild"], util, "CHUNK", (256, 16), 5),
    ], ids=["weyl-mass", "witten", "witten-radii", "witten-defaults",
            "witten-defaults-radii", "identities", "laws"])
    def test_a_flux_command_lowers_as_often_at_any_chunk_width(
            self, argv, module, knob, widths, lowered, capsys, monkeypatch):
        # a config's expressions are lowered once, at load: each chart's
        # metric and Lee form, and its named spinor fields (schwarzschild-lee:
        # 3); the suites' own trees once per call, never once per radius,
        # flux or point chunk.  witten reads psi_0 and the fluxes from the
        # loaded spinor program, at any radii; a config that names none
        # (twoends: 2 x 2 at load) has the default fields lowered once per
        # chart by the battery.
        # identities: the config, three, the covariance factor once (the
        # rescaled chart's programs are built on the chart's and on it, not
        # lowered), and the two random fields as one program; laws: the
        # config, three, and each of its two factors once, for its rescaled
        # chart and its gradient fluxes
        lower = exprdsl.lower
        counts = []
        for width in widths:
            calls = []

            def counted(*args, **kwargs):
                calls.append(1)
                return lower(*args, **kwargs)

            monkeypatch.setattr(exprdsl, "lower", counted)
            monkeypatch.setattr(module, knob, width)
            assert main(argv) == 0
            capsys.readouterr()
            counts.append(len(calls))
        assert counts == [lowered, lowered]

    @pytest.mark.parametrize("radii", [[], ["--radii", "20,40,80,160"]],
                             ids=["default-radii", "radii"])
    def test_laws_builds_its_coordinate_scaled_chart_once(
            self, radii, capsys, monkeypatch):
        # the battery builds it, with or without --radii; the CLI builds none
        calls = []

        def counted(chart, a):
            calls.append(a)
            return scale_coordinates(chart, a)

        for module in (chart_module, suites):
            monkeypatch.setattr(module, "scale_coordinates", counted)
        assert main(["laws", "schwarzschild", *radii]) == 0
        capsys.readouterr()
        assert calls == [suites.LAWS_SCALING]

    # the n = 3 schwarzschild chart's programs run on three coordinates only
    @pytest.mark.parametrize("shape", [(4, 1), (2, 4)], ids=["four-rows", "two-rows"])
    def test_metric_values_refuse_another_row_count(self, shape):
        # four rows were read as their first three, two ended in an IndexError
        chart = load_config("schwarzschild").chart
        with pytest.raises(exprdsl.EvalError, match=r"shape \(3,\) or \(3, B\), got"):
            metric_values(chart, np.ones(shape))

    def test_metric_program_refuses_a_fourth_coordinate_jet(self):
        # four coordinate jets gave a metric jet in a four-variable space
        chart = load_config("schwarzschild").chart
        coords = jets.seed_point(np.ones((4, 2)), 1)[1]
        with pytest.raises(ValueError, match="over 3 coordinates run on 4 jets"):
            jets.evaluate_jet(chart.metric, coords)
