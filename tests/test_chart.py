"""Tests for chart construction, validation, decay scanning, and the two
chart-level transformations (conformal rescaling and coordinate scaling)."""

import numpy as np
import pytest

from confmass import exprdsl, jets
from confmass.chart import (
    ChartError,
    End,
    EndSystem,
    MetricChart,
    conformal_rescale,
    decay_scan,
    lee_jets,
    make_chart,
    metric_entry_jets,
    metric_jets,
    scale_coordinates,
)

ISO = {"11": "(1 + 1/(2*r))^4", "22": "(1 + 1/(2*r))^4", "33": "(1 + 1/(2*r))^4"}


def make_iso(**kw):
    args = dict(n=3, tau=0.99, r_min=1.0, metric=ISO, lee=None)
    args.update(kw)
    return make_chart(**args)


class TestMakeChart:
    def test_basic_construction(self):
        c = make_iso()
        assert c.n == 3
        assert c.tau == 0.99
        assert c.metric[0][0] == exprdsl.parse("(1 + 1/(2*r))^4")

    def test_off_diagonal_symmetrized(self):
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={"11": "1", "22": "1", "33": "1", "12": "0.1*x3/r^2"},
        )
        # g12 and g21 must be the same expression object
        assert c.metric[0][1] is c.metric[1][0]

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
        assert c.metric[1][1] == exprdsl.parse("1")
        assert c.metric[0][1] == exprdsl.parse("0")

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

    def test_validate_false_skips_probes(self):
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "-1"}, validate=False)
        assert isinstance(c, MetricChart)

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

    def test_flat_chart_is_exactly_flat(self):
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={})
        scan = decay_scan(c)
        assert scan.exactly_flat and scan.passed
        assert "exactly flat" in scan.summary()

    def test_flags_slow_metric_decay(self):
        # g11 - 1 is constant along rays: exponent 0 < required tau
        c = make_chart(n=3, tau=0.75, r_min=1.0, metric={"11": "2"}, validate=False)
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
    def test_flat_metric_with_a_lee_form_summarises_the_lee_verdict(self, power, verdict):
        # every metric slot is flat, so there is no tau_hat to print; the
        # Lee slots (b x_i / r^3 decays at 2 >= tau + 1 - 0.1) decide
        c = make_chart(n=3, tau=0.99, r_min=1.0, metric={}, params={"b": 0.25},
                       lee=[f"b*x{i}/r^{power}" for i in (1, 2, 3)], validate=False)
        scan = decay_scan(c)
        assert scan.tau_hat is None and not scan.exactly_flat
        assert scan.passed == (verdict == "ok")
        assert scan.summary() == f"metric exactly flat; lee form vs declared tau + 1 = 1.99 -> {verdict}"


class TestMetricJets:
    def test_spd_enforced(self):
        c = make_chart(
            n=3,
            tau=0.75,
            r_min=1.0,
            metric={"11": "-1", "22": "1", "33": "1"},
            validate=False,
        )
        X = np.array([[5.0], [0.0], [0.0]])
        with pytest.raises(ChartError):
            metric_jets(c, X, order=1)

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
        f = exprdsl.parse("1 + 1/sqrt(r^2 + 1)")
        d = conformal_rescale(c, f)
        pt = np.array([[7.0], [1.0], [-2.0]])
        r = float(np.linalg.norm(pt))
        u4 = (1 + 1 / (2 * r)) ** 4
        fval = 1 + 1 / np.sqrt(r**2 + 1)
        got = float(
            np.atleast_1d(exprdsl.evaluate(d.metric[0][0], pt, params=d.params))[0]
        )
        assert got == pytest.approx(fval * u4, rel=1e-14)

    def test_conformal_rescale_shifts_lee_form(self):
        # the covector picks up -(df)/(2f); for f -> const the shift vanishes
        c = make_iso()
        d = conformal_rescale(c, exprdsl.parse("2"))
        pt = np.array([[4.0], [3.0], [0.0]])
        for i in range(3):
            v = float(
                np.atleast_1d(exprdsl.evaluate(d.lee[i], pt, params=d.params))[0]
            )
            assert v == 0.0

    def test_scale_coordinates_metric_transport(self):
        c = make_iso()
        a = 4.0
        s = scale_coordinates(c, a)
        # g~_ij(z) = g_ij(z / sqrt(a)); check at z = sqrt(a) * z0
        z0 = np.array([[3.0], [0.0], [4.0]])
        z = np.sqrt(a) * z0
        want = float(
            np.atleast_1d(exprdsl.evaluate(c.metric[0][0], z0, params=c.params))[0]
        )
        got = float(
            np.atleast_1d(exprdsl.evaluate(s.metric[0][0], z, params=s.params))[0]
        )
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
