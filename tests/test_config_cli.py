"""Tests for configuration parsing, bundled documents, report serialization,
and the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import confmass
from confmass import cli, exprdsl, mass
from confmass.cli import main
from confmass.config import (
    ConfigError,
    bundled_names,
    bundled_text,
    dump_report,
    load_config,
    load_expected,
    parse_config,
)
from confmass.mass import DIVERGENCE_WARNING, QUAD_ATOL, QUAD_RTOL

CHART_DOC = {
    "schema_version": 1,
    "kind": "chart",
    "name": "iso-test",
    "n": 3,
    "tau": 0.99,
    "r_min": 1.0,
    "params": {"m": 1.0},
    "metric": {
        "11": {"expr": "(1 + m/(2*r))^4"},
        "22": {"expr": "(1 + m/(2*r))^4"},
        "33": {"expr": "(1 + m/(2*r))^4"},
    },
}


class TestParseConfig:
    def test_chart_document(self):
        cfg = parse_config(dict(CHART_DOC), "inline")
        assert cfg.kind == "chart"
        assert cfg.chart.n == 3
        assert cfg.chart.params["m"] == 1.0
        assert cfg.system is None

    def test_bare_string_expressions_accepted(self):
        doc = dict(CHART_DOC)
        doc["metric"] = {k: v["expr"] for k, v in CHART_DOC["metric"].items()}
        cfg = parse_config(doc, "inline")
        assert cfg.chart.n == 3

    def test_missing_required_field(self):
        doc = dict(CHART_DOC)
        del doc["tau"]
        with pytest.raises(ConfigError, match="tau"):
            parse_config(doc, "inline")

    def test_unsupported_schema_version(self):
        doc = dict(CHART_DOC)
        doc["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(doc, "inline")

    def test_unknown_kind(self):
        doc = dict(CHART_DOC)
        doc["kind"] = "metric"
        with pytest.raises(ConfigError, match="kind"):
            parse_config(doc, "inline")

    def test_bad_expression_reported_with_location(self):
        doc = dict(CHART_DOC)
        doc["metric"] = {"11": {"expr": "1 +"}}
        with pytest.raises(ConfigError):
            parse_config(doc, "inline")

    def test_invalid_tau_window_propagates(self):
        doc = dict(CHART_DOC)
        doc["tau"] = 2.5
        with pytest.raises(ConfigError):
            parse_config(doc, "inline")

    def test_spinor_fields(self):
        doc = dict(CHART_DOC)
        doc["spinors"] = [
            {
                "name": "const-plus",
                "weight": -0.5,
                "components": [
                    {"re": {"expr": "1"}, "im": {"expr": "0"}},
                    {"re": {"expr": "0"}, "im": {"expr": "0"}},
                ],
            }
        ]
        cfg = parse_config(doc, "inline")
        assert len(cfg.spinors) == 1
        name, spec = cfg.spinors[0]
        assert name == "const-plus"
        assert len(spec.components) == 2
        # the spec keeps no weight, but the loader still requires (2 - n)/2
        for weight in (None, 0.5):
            spinor = {k: v for k, v in doc["spinors"][0].items() if k != "weight"}
            if weight is not None:
                spinor["weight"] = weight
            with pytest.raises(ConfigError, match="weight"):
                parse_config(dict(doc, spinors=[spinor]), "inline")

    def test_end_system(self):
        doc = {
            "schema_version": 1,
            "kind": "end_system",
            "name": "pair",
            "ends": [
                {"a": 1.0, "chart": {k: v for k, v in CHART_DOC.items() if k not in ("schema_version", "kind", "name")}},
                {"a": 4.0, "chart": {k: v for k, v in CHART_DOC.items() if k not in ("schema_version", "kind", "name")}},
            ],
        }
        cfg = parse_config(doc, "inline")
        assert cfg.kind == "end_system"
        assert len(cfg.system.ends) == 2
        assert cfg.system.ends[1].a == 4.0

    def test_end_system_needs_positive_a(self):
        doc = {
            "schema_version": 1,
            "kind": "end_system",
            "name": "pair",
            "ends": [{"a": -1.0, "chart": {k: v for k, v in CHART_DOC.items() if k not in ("schema_version", "kind", "name")}}],
        }
        with pytest.raises(ConfigError, match="'a'"):
            parse_config(doc, "inline")


class TestBundled:
    def test_names(self):
        names = bundled_names()
        for want in (
            "flat.chart",
            "schwarzschild.chart",
            "schwarzschild-lee.chart",
            "schwarzschild-rot-lee.chart",
            "perturbed4.chart",
            "twoends.ends",
        ):
            assert want in names

    def test_every_bundled_config_parses(self):
        for name in bundled_names():
            cfg = load_config(name)
            assert cfg.name

    def test_extension_optional(self):
        assert load_config("flat").chart.n == 3

    def test_text_round_trips_through_json(self):
        doc = json.loads(bundled_text("schwarzschild.chart"))
        assert doc["kind"] == "chart"

    def test_file_path_takes_precedence(self, tmp_path):
        p = tmp_path / "my.chart"
        p.write_text(json.dumps(CHART_DOC))
        cfg = load_config(str(p))
        assert cfg.name == "iso-test"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            load_config("no-such-config.chart")

    def test_expected_table(self):
        exp = load_expected()
        assert "schwarzschild.chart" in exp
        assert exp["schwarzschild.chart"]["riemannian_mass_raw"] == pytest.approx(
            16 * math.pi
        )


class TestDumpReport:
    def test_deterministic_serialization(self):
        a = dump_report({"b": 1, "a": [1.5, 2.5], "nested": {"y": 0.1, "x": True}})
        b = dump_report({"nested": {"x": True, "y": 0.1}, "a": [1.5, 2.5], "b": 1})
        assert a == b
        assert a.endswith("\n")
        assert json.loads(a)["a"] == [1.5, 2.5]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python_fresh(*args) -> subprocess.CompletedProcess:
    """``python *args`` run in a fresh interpreter that imports this
    confmass, with its output captured."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(confmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this
    confmass."""
    proc = python_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def witten_twoends():
    """Exit code and stdout of ``witten twoends``, run once for the module."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["witten", "twoends"])
    return code, buf.getvalue()


class TestCli:
    def test_check_command(self, capsys):
        code, out, err = run_cli(capsys, "check", "flat.chart")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["command"] == "check"

    def test_mass_command_with_expected_value(self, capsys):
        code, out, _ = run_cli(capsys, "mass", "schwarzschild.chart")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["results"]["limit"] == pytest.approx(16 * math.pi, rel=1e-3)
        # the bundled chart carries a frozen expected value that was checked
        assert "expected" in rep["results"]
        assert "expected_rel" in rep["tolerances"]

    def test_bundled_name_without_extension_is_checked(self, capsys):
        code, out, _ = run_cli(capsys, "mass", "schwarzschild")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["expected"] == load_expected()["schwarzschild.chart"][
            "riemannian_mass_raw"]

    def test_file_named_like_a_bundled_config_is_not_checked(
            self, capsys, tmp_path, monkeypatch):
        # a chart of mass m = 2 in the working directory, under the name of
        # the bundled m = 1 chart, is the user's own and has no frozen value
        doc = dict(CHART_DOC, name="schwarzschild", params={"m": 2.0})
        (tmp_path / "schwarzschild.chart").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "mass", "schwarzschild.chart")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["limit"] == pytest.approx(32 * math.pi, rel=1e-2)
        assert "expected" not in rep["results"]
        assert "expected_rel" not in rep["tolerances"]

    @pytest.mark.parametrize("command, flags", [
        ("check", []),
        ("curvature", ["jet_order", "points", "seed"]),
        ("identities", ["jet_order", "points", "seed"]),
        ("mass", ["measure", "normalize", "radii"]),
        ("weyl-mass", ["measure", "normalize", "radii"]),
        ("witten", ["measure", "radii"]),
        ("laws", ["measure", "radii", "seed"]),
    ])
    def test_each_command_echoes_exactly_its_own_flags(self, capsys, command, flags):
        code, out, _ = run_cli(capsys, command, "flat")
        assert code == 0
        rep = json.loads(out)
        assert sorted(rep["flags"]) == flags
        flux = "radii" in flags
        assert ("quad_rtol" in rep["tolerances"]) is flux
        assert ("quad_atol" in rep["tolerances"]) is flux

    def test_mass_rejects_end_system(self, capsys):
        code, out, err = run_cli(capsys, "mass", "twoends.ends")
        assert code == 2
        assert "weyl-mass" in err

    def test_weyl_mass_on_end_system(self, capsys):
        code, out, _ = run_cli(capsys, "weyl-mass", "twoends.ends")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["limit"] == pytest.approx(48 * math.pi, rel=5e-3)

    def test_custom_radii_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "mass", "schwarzschild.chart", "--radii", "30,60,120,240"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["flags"]["radii"] == "30,60,120,240"
        assert rep["results"]["radii"] == [30.0, 60.0, 120.0, 240.0]

    def test_bad_radii_flag(self, capsys):
        code, out, err = run_cli(
            capsys, "mass", "schwarzschild.chart", "--radii", "30,60"
        )
        assert code == 2
        assert "confmass:" in err

    @pytest.mark.parametrize("argv", [
        ("mass", "schwarzschild", "--radii", "1,2,4,8"),  # below 2 r_min
        ("mass", "schwarzschild", "--radii", "20,25,30,35"),  # ratio < 1.5
        ("identities", "flat", "--points", "0"),
        # nan passes the floor and ratio checks, since every comparison
        # with it is false; the infinite radii would reach the quadrature
        *[("mass", "schwarzschild", "--radii", f"20,40,80,160,{r}")
          for r in ("inf", "-inf", "nan", "1e400")],
        ("identities", "flat", "--seed", "-1"),
        ("curvature", "flat", "--seed", "-1"),
        ("laws", "schwarzschild", "--seed", "-3"),
        # finite, but from 1e155 on r^2 overflows in the quadrature weights
        *[("mass", "schwarzschild", "--radii", f"20,40,80,160,{r}")
          for r in ("1e155", "1e200")],
        # laws integrates its coordinate-scaled chart at 2 r = 2e154,
        # where r^2 overflows
        ("laws", "schwarzschild", "--radii", "20,40,80,1e154"),
    ])
    def test_unusable_flags_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("confmass:") and err.count("\n") == 1
        if "--radii" in argv:
            assert "--radii" in err

    @pytest.mark.parametrize("command", ["weyl-mass", "witten"])
    def test_radius_where_the_chart_overflows_exits_two_with_one_line(
            self, capsys, monkeypatch, command):
        # the Lee form x/r^3 overflows at r = 1e154, where r^2 is still
        # finite; x/inf would read as 0 and drop the Lee flux.  The flag
        # check finds it before any flux runs
        def no_sample(*args, **kwargs):
            raise AssertionError("a flux ran")

        monkeypatch.setattr(mass, "_sample", no_sample)
        code, out, err = run_cli(capsys, command, "schwarzschild-lee",
                                 "--radii", "20,40,80,1e154")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("confmass: --radii: radius 1e+154 is too large")

    def test_radius_where_a_spinor_field_overflows_exits_two_with_one_line(
            self, capsys, monkeypatch, tmp_path):
        # the metric is finite at r = 1e154 and there is no Lee form, but
        # the spinor component 1 + x1^3/r^2 overflows there: the flag check
        # refuses it before the Weyl-mass series runs
        def no_flux(*args, **kwargs):
            raise AssertionError("a flux ran")

        zero = {"expr": "0"}
        doc = dict(CHART_DOC, spinors=[{
            "name": "cubic", "weight": -0.5,
            "components": [{"re": {"expr": "1 + x1^3/r^2"}, "im": zero},
                           {"re": zero, "im": zero}]}])
        path = tmp_path / "cubic.chart"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(mass, "_flux", no_flux)
        code, out, err = run_cli(capsys, "witten", str(path), "--radii", "20,40,80,1e154")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("confmass: --radii: radius 1e+154 is too large")

    def spinor_chart(self, tmp_path, components):
        doc = dict(CHART_DOC, spinors=[{"name": "bad", "weight": -0.5,
                                        "components": components}])
        path = tmp_path / "spinor.chart"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["check", "mass", "witten"])
    def test_spinor_with_an_unbound_identifier_is_refused_at_load(
            self, capsys, tmp_path, command):
        zero = {"expr": "0"}
        path = self.spinor_chart(tmp_path, [{"re": {"expr": "q"}, "im": zero},
                                            {"re": zero, "im": zero}])
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err == ("confmass: spinor.chart.spinors[0].components[0].re: "
                       "uses unknown identifiers ['q']\n")

    @pytest.mark.parametrize("command", ["check", "mass", "witten"])
    def test_spinor_with_the_wrong_component_count_is_refused_at_load(
            self, capsys, tmp_path, command):
        # N = 2^(n//2) = 2 components in n = 3
        path = self.spinor_chart(tmp_path, [{"re": {"expr": "1"}, "im": {"expr": "0"}}])
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err == ("confmass: spinor.chart.spinors[0]: a spinor in n = 3 has "
                       "2 components, got 1\n")

    @pytest.mark.parametrize("command", ["check", "mass", "witten"])
    def test_spinor_with_a_repeated_name_is_refused_at_load(self, capsys, tmp_path, command):
        # two witten-limit[a] checks could not be told apart by name
        one = {"re": {"expr": "1"}, "im": {"expr": "0"}}
        spinor = {"name": "a", "weight": -0.5, "components": [one, one]}
        path = tmp_path / "spinor.chart"
        path.write_text(json.dumps(dict(CHART_DOC, spinors=[spinor, spinor])))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == "confmass: spinor.chart.spinors[1]: the name 'a' is already taken\n"

    @pytest.mark.parametrize("command", ["check", "mass", "witten"])
    def test_spinor_with_another_weight_is_refused_at_load(self, capsys, tmp_path, command):
        # witten integrates omega at the distinguished weight (2 - n)/2 only
        one = {"re": {"expr": "1"}, "im": {"expr": "0"}}
        doc = dict(CHART_DOC, spinors=[{"name": "a", "weight": 7.0, "components": [one, one]}])
        path = tmp_path / "spinor.chart"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == ("confmass: spinor.chart.spinors[0]: a spinor in n = 3 has weight "
                       "(2 - n)/2 = -0.5, got 7\n")

    def test_witten_radii_are_probed_with_the_default_spinors(self, capsys, monkeypatch):
        # a config that names no spinor is integrated with the three
        # constant ones, and their program is what the flag check evaluates
        probe = mass.probe_radius
        seen = []

        def spy(chart, r, lee, fields=None):
            seen.append(len(fields.outputs) // (2 * 2 ** (chart.n // 2)))
            return probe(chart, r, lee, fields)

        monkeypatch.setattr(mass, "probe_radius", spy)
        code, _, err = run_cli(capsys, "witten", "flat", "--radii", "20,40,80,160")
        assert code == 0, err
        assert seen == [3] * 4

    def test_metric_mass_is_not_refused_where_only_the_lee_form_overflows(self, capsys):
        # mass never evaluates the Lee form x/r^3 that overflows at 1e154
        code, out, err = run_cli(capsys, "mass", "schwarzschild-lee",
                                 "--radii", "20,40,80,1e154")
        assert code == 0
        assert err == ""

    def test_huge_radius_evaluates_without_overflow(self, capsys):
        # the metric's sqrt(r^2) needs first-order coefficients only; the
        # third-order one overflows at r = 1e100 and is never read
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "mass", "schwarzschild",
                                     "--radii", "20,40,80,1e100")
        assert code == 0
        assert err == ""
        flux = json.loads(out)["results"]["flux"]
        assert flux[-1] == pytest.approx(16 * math.pi, rel=1e-12)

    @staticmethod
    def chart_file(tmp_path, name, n, tau, metric):
        doc = {"schema_version": 1, "kind": "chart", "name": name, "n": n,
               "tau": tau, "r_min": 1.0, "metric": metric}
        p = tmp_path / f"{name}.chart"
        p.write_text(json.dumps(doc))
        return str(p)

    def wide_chart(self, tmp_path):
        """A chart one dimension above the largest with a sphere rule."""
        n = mass.FLUX_MAX_DIM + 1
        return self.chart_file(tmp_path, f"n{n}", n, 3.0,
                               {f"{i}{i}": "1 + 1/r^3" for i in range(1, n + 1)})

    @pytest.mark.parametrize("command", ["check", "identities", "witten"])
    def test_chart_indefinite_beyond_the_first_probe_is_refused_at_load(
            self, capsys, tmp_path, command):
        # g11 = 1 - r/10 is positive on the probe sphere r = 8 r_min and
        # negative on every sphere of the decay scan (50..5000 r_min); the
        # config loader names the file
        path = self.chart_file(tmp_path, "indefinite", 3, 0.75, {"11": "1 - r/10"})
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("confmass: indefinite.chart: metric is not positive definite at")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_lee_form_non_finite_on_the_probes_is_refused_at_load(
            self, capsys, tmp_path, command):
        # log(x1) is NaN on the probe point -8 r_min e_1, as a metric that
        # is non-finite there is refused: no command runs on it
        doc = json.loads(bundled_text("schwarzschild-lee.chart"))
        doc["lee"] = ["log(x1)/r^3", "0", "0"]
        path = tmp_path / "badlee.chart"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == ("confmass: badlee.chart: lee form evaluates to a "
                       "non-finite value at [-8.0, 0.0, 0.0]\n")

    @pytest.mark.parametrize("command", ["identities", "curvature", "witten"])
    def test_chart_breaking_down_mid_run_exits_two_with_one_line(
            self, capsys, tmp_path, command):
        # g11 = 1 - 2 exp(-(r - 20)^2/25) passes every load-time probe but
        # is negative for |r - 20| < 4.2, inside the sampled annulus
        # (5..50 r_min) and on the first witten radius: every command
        # stops with a ChartError naming the first sample point where the
        # metric is indefinite, not the config file
        path = self.chart_file(tmp_path, "indefinite", 3, 0.75,
                               {"11": "1 - 2*exp(-(r - 20)^2/25)"})
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("confmass: metric is not positive definite at")

    @staticmethod
    def singular_chart(tmp_path, radius):
        """The bundled Schwarzschild chart with log|r - radius|/r^3 added to
        g11: it loads, and is infinite on the sphere r = radius."""
        doc = json.loads(bundled_text("schwarzschild.chart"))
        doc["metric"]["11"]["expr"] += f" + log(sqrt((r - {radius})^2))/r^3"
        p = tmp_path / "singular.chart"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["mass", "weyl-mass", "laws", "witten"])
    def test_flux_on_a_singular_sphere_exits_two_with_one_line(
            self, capsys, tmp_path, command):
        # the second default radius is 40: its node terms are not finite,
        # and the flux sample names that radius instead of fitting NaN
        path = self.singular_chart(tmp_path, 40)
        code, out, err = run_cli(capsys, command, path)
        assert (code, out) == (2, "")
        assert err == ("confmass: radius 40.0 is singular: the chart evaluates "
                       "to a non-finite value on that sphere\n")

    @pytest.mark.parametrize("command", ["mass", "weyl-mass", "laws", "witten"])
    def test_radius_where_the_chart_is_singular_exits_two_with_one_line(
            self, capsys, tmp_path, monkeypatch, command):
        # the axis points of S_30 sit exactly on the singular sphere: the
        # flag check refuses the radius before any flux runs
        def no_sample(*args, **kwargs):
            raise AssertionError("a flux ran")

        monkeypatch.setattr(mass, "_sample", no_sample)
        code, out, err = run_cli(capsys, command, self.singular_chart(tmp_path, 30),
                                 "--radii", "30,60,120,240")
        assert (code, out) == (2, "")
        assert err == ("confmass: --radii: radius 30.0 is singular: the chart "
                       "evaluates to a non-finite value on that sphere\n")

    @pytest.mark.parametrize("command", ["mass", "weyl-mass", "laws", "witten"])
    def test_flux_commands_refuse_dimensions_without_a_sphere_rule(
            self, capsys, tmp_path, monkeypatch, command):
        path = self.wide_chart(tmp_path)

        def no_rule(*args, **kwargs):
            raise AssertionError("a sphere rule was requested")

        monkeypatch.setattr(mass, "_unit_rule", no_rule)
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err.startswith("confmass:") and err.count("\n") == 1
        assert str(mass.FLUX_MAX_DIM) in err

    def test_check_still_runs_on_dimensions_without_a_sphere_rule(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "check", self.wide_chart(tmp_path))
        assert code == 0
        assert json.loads(out)["results"]["n"] == mass.FLUX_MAX_DIM + 1

    def test_witten_without_named_spinors(self, witten_twoends):
        code, out = witten_twoends
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert len(checks) == 12  # two checks per spinor, three spinors, two ends
        assert all(c["pass"] for c in checks)

    def test_witten_checks_every_end_against_its_own_mass(self, witten_twoends):
        code, out = witten_twoends
        assert code == 0
        res = json.loads(out)["results"]
        ends = res["ends"]
        assert [(e["end"], e["chart"], e["a"]) for e in ends] == [
            (0, "schwarzschild", 1.0), (1, "schwarzschild-far", 4.0)]
        names = [c["name"] for c in res["checks"]]
        for k, end in enumerate(ends):
            assert end["mass"] == pytest.approx(16 * math.pi, rel=1e-3)
            assert end["warnings"] == []
            for f in end["fields"]:
                assert f["expected"] == 0.25 * end["mass"] * f["norm2"]
                assert f"witten-limit[end{k}/{f['name']}]" in names
                assert f"witten-imag[end{k}/{f['name']}]" in names

    @pytest.mark.parametrize("command", ["mass", "weyl-mass", "laws", "witten", "check"])
    def test_flux_commands_echo_the_quadrature_tolerances(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "flat")
        assert code == 0
        tol = json.loads(out)["tolerances"]
        if command == "check":
            assert "quad_rtol" not in tol and "quad_atol" not in tol
        else:
            assert (tol["quad_rtol"], tol["quad_atol"]) == (QUAD_RTOL, QUAD_ATOL)

    def test_witten_reports_carry_the_mass_warnings(self, capsys, tmp_path):
        # g = (1 + r^-0.75) delta: the mass series diverges, and the witten
        # report says so for the chart and for that end of an end system
        g = "1 + pow(r, -0.75)"
        diverging = {"name": "diverging", "n": 3, "tau": 0.75, "r_min": 1.0,
                     "metric": {"11": g, "22": g, "33": g}}
        iso = {k: v for k, v in CHART_DOC.items() if k not in ("schema_version", "kind")}
        docs = {
            "diverging.chart": {"schema_version": 1, "kind": "chart", **diverging},
            "mixed.ends": {"schema_version": 1, "kind": "end_system", "name": "mixed",
                           "ends": [{"chart": diverging}, {"a": 4.0, "chart": iso}]},
        }
        reports = {}
        for name, doc in docs.items():
            p = tmp_path / name
            p.write_text(json.dumps(doc))
            code, out, _ = run_cli(capsys, "witten", str(p))
            rep = json.loads(out)
            # the exit code follows the checks, a warned mass failing its own
            assert rep["pass"] is all(c["pass"] for c in rep["results"]["checks"])
            assert code == 1
            reports[name] = rep["results"]
        assert DIVERGENCE_WARNING in reports["diverging.chart"]["warnings"]
        ends = reports["mixed.ends"]["ends"]
        assert DIVERGENCE_WARNING in ends[0]["warnings"]
        assert ends[1]["warnings"] == []
        for name, failed in (("diverging.chart", "mass-convergence[weyl-mass]"),
                             ("mixed.ends", "mass-convergence[end0/weyl-mass]")):
            names = [c["name"] for c in reports[name]["checks"] if not c["pass"]]
            assert failed in names
            assert not any(n.startswith("mass-convergence[end1/") for n in names)

    @pytest.mark.parametrize("unit", [1e-30, 1e30])
    def test_mass_does_not_depend_on_the_length_unit(self, capsys, tmp_path, unit):
        # the bundled chart in a unit 1e30 times smaller or larger: its
        # mass, a length at n = 3, scales by the unit, and no numpy
        # warning reaches stderr on the way
        code, out, _ = run_cli(capsys, "mass", "schwarzschild")
        want = json.loads(out)["results"]["limit"]
        doc = json.loads(bundled_text("schwarzschild.chart"))
        doc.update(name="schwarzschild-rescaled", r_min=unit, params={"m": unit})
        p = tmp_path / "rescaled.chart"
        p.write_text(json.dumps(doc))
        proc = python_fresh("-m", "confmass", "mass", str(p))
        assert (proc.returncode, proc.stderr) == (0, "")
        got = json.loads(proc.stdout)["results"]["limit"]
        assert got == pytest.approx(unit * want, rel=1e-9, abs=0.0)

    def test_mass_scales_with_the_length_unit_above_three_dimensions(self, tmp_path):
        # n = 4 Schwarzschild in units 1e100 times smaller or larger, with
        # m = unit^2: the raw mass, a length^2, scales by unit^2; the flux
        # values near 1e+-200 neither overflow nor underflow in the fit
        g = "(1 + m/(2*r^2))^2"
        limits = {}
        for unit in (1e-100, 1.0, 1e100):
            doc = {"schema_version": 1, "kind": "chart", "name": "schwarzschild4",
                   "n": 4, "tau": 1.9, "r_min": unit, "params": {"m": unit ** 2},
                   "metric": {f"{i}{i}": g for i in range(1, 5)}}
            p = tmp_path / "schwarzschild4.chart"
            p.write_text(json.dumps(doc))
            proc = python_fresh("-m", "confmass", "mass", str(p))
            assert (proc.returncode, proc.stderr) == (0, "")
            limits[unit] = json.loads(proc.stdout)["results"]["limit"] / unit ** 2
        assert limits[1.0] == pytest.approx(12 * math.pi ** 2, rel=1e-12)
        for unit in (1e-100, 1e100):
            assert limits[unit] == pytest.approx(limits[1.0], rel=1e-12, abs=0.0)

    def test_laws_fails_on_a_mass_whose_series_does_not_converge(self, capsys):
        # perturbed4 decays like r^-1.5 at n = 4: its mass fluxes grow, every
        # mass laws reads carries the divergence warning, and the one
        # failing check says so
        code, out, _ = run_cli(capsys, "laws", "perturbed4")
        assert code == 1
        checks = json.loads(out)["results"]["checks"]
        failed = [c for c in checks if not c["pass"]]
        assert [c["name"] for c in failed] == ["mass-convergence"]
        assert failed[0]["diverging"][:3] == ["weyl-mass", "weyl-mass-rescaled",
                                              "metric-mass"]

    @pytest.mark.parametrize("n", [4, 5])
    def test_laws_passes_on_converging_charts_above_three_dimensions(
            self, capsys, tmp_path, n):
        # isotropic Schwarzschild with an off-diagonal term and a radial
        # Lee form: the laws factors decay like r^-(n-2), as the chart
        # does, so each rescaled chart keeps a mass and every check holds
        iso = f"pow(1 + m/(2*r^{n - 2}), 4/{n - 2})"
        metric = {f"{i}{i}": iso for i in range(1, n + 1)}
        metric["12"] = f"0.3*x1*x2/r^{n + 2}"
        doc = {"schema_version": 1, "kind": "chart", "name": f"iso-n{n}", "n": n,
               "tau": n - 2.1, "r_min": 1.0, "params": {"m": 0.8, "b": 0.25},
               "metric": metric, "lee": [f"-b*x{i}/r^{n}" for i in range(1, n + 1)]}
        p = tmp_path / "iso.chart"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "laws", str(p))
        assert (code, err) == (0, "")
        checks = json.loads(out)["results"]["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == []
        factor = f"1 + pow(r^2 + 1, {(2 - n) / 2:g})"
        assert f"mass-conformal-change[{factor}]" in [c["name"] for c in checks]

    def test_missing_config_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "mass", "nonexistent.chart")
        assert code == 2
        assert "confmass:" in err

    def test_failing_assertion_exits_one(self, capsys, tmp_path):
        # decay-valid but oscillatory: fluxes do not settle to a power tail,
        # the convergence check trips, and the run reports failure
        doc = {
            "schema_version": 1,
            "kind": "chart",
            "name": "unsteady",
            "n": 3,
            "tau": 0.75,
            "r_min": 1.0,
            "metric": {
                "11": "1 + (0.6 + 0.5*sin(sqrt(r)))/r",
                "22": "1 + (0.6 + 0.5*sin(sqrt(r)))/r",
                "33": "1 + (0.6 + 0.5*sin(sqrt(r)))/r",
            },
        }
        p = tmp_path / "unsteady.chart"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "mass", str(p))
        assert code == 1
        rep = json.loads(out)
        assert rep["pass"] is False

    def test_out_flag_writes_the_report(self, capsys, tmp_path):
        dst = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "check", "flat.chart", "--out", str(dst))
        assert code == 0
        assert dst.read_text() == out

    @pytest.mark.parametrize("flag,command", [
        *[("out", c) for c in cli.COMMANDS],
        *[("csv", c) for c, (_, flags, _) in cli.COMMANDS.items() if "csv" in flags]])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_output_file_exits_two_before_the_command_runs(
            self, capsys, monkeypatch, tmp_path, flag, command, where):
        help_text, flags, _ = cli.COMMANDS[command]

        def no_run(*args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli.COMMANDS, command, (help_text, flags, no_run))
        path = tmp_path / "missing" / "x.out" if where == "missing" else tmp_path
        code, out, err = run_cli(capsys, command, "schwarzschild", f"--{flag}", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"confmass: --{flag}: ") and err.count("\n") == 1

    def test_csv_flag_writes_flux_table(self, capsys, tmp_path):
        dst = tmp_path / "flux.csv"
        code, out, _ = run_cli(
            capsys, "mass", "schwarzschild.chart", "--csv", str(dst)
        )
        assert code == 0
        lines = dst.read_text().splitlines()
        assert lines[0] == "r,flux,cumulative_extrapolation"
        assert len(lines) == 5  # header + four radii
        assert float(lines[1].split(",")[0]) == 20.0

    def test_curvature_command(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "flat.chart", "--points", "10", "--seed", "3"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate", "flat.chart"])
        assert e.value.code == 2

    def test_importing_the_cli_loads_no_scipy(self):
        # scipy's import was most of every command's start-up time; the
        # search for the decay power needs none of it
        code = ("import sys, confmass.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_fresh(code) == "[]\n"

    def test_each_command_loads_only_the_layers_it_runs(self):
        # parsing and config loading need no flux, spinor or battery
        # layer, the metric mass needs no spinor calculus, and the
        # pointwise commands need no flux layer
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "from confmass.config import load_config\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'confmass')\n"
            "load_config('schwarzschild')\n"
            "print(json.dumps(loaded()))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = confmass.cli.main(['mass', 'schwarzschild'])\n"
            "print(json.dumps([code, loaded()]))\n")
        first, second = run_fresh(code).splitlines()
        assert json.loads(first) == ["confmass"] + [
            f"confmass.{m}" for m in
            ("chart", "cli", "config", "exprdsl", "jetlinalg", "jets")]
        code, after_mass = json.loads(second)
        assert code == 0
        assert "confmass.mass" in after_mass
        for layer in ("spinor", "clifford", "weyl", "curvature", "suites"):
            assert f"confmass.{layer}" not in after_mass
        # check, curvature and identities integrate nothing over spheres,
        # so neither the mass layer nor its quadrature imports load; their
        # batteries share the chunk loop of util, which imports nothing
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "codes = []\n"
            "for argv in (['check', 'schwarzschild-lee'],\n"
            "             ['curvature', 'schwarzschild-lee', '--points', '3'],\n"
            "             ['identities', 'schwarzschild-lee', '--points', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(confmass.cli.main(argv))\n"
            "print(json.dumps([codes, sorted(sys.modules)]))\n")
        codes, loaded = json.loads(run_fresh(code))
        assert codes == [0, 0, 0]
        assert "confmass.suites" in loaded
        for mod in ("confmass.mass", "numpy.polynomial"):
            assert mod not in loaded
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import confmass.util\n"
            "print(json.dumps(sorted(set(sys.modules) - before - {'__future__'})))\n")
        assert json.loads(run_fresh(code)) == ["confmass", "confmass.util"]
        # the mass laws integrate no spinor and need no curvature tensor
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = confmass.cli.main(['laws', 'flat'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
        code, loaded = json.loads(run_fresh(code))
        assert code == 0
        assert "confmass.suites" in loaded and "numpy.random" not in loaded
        for layer in ("spinor", "clifford", "weyl", "curvature"):
            assert f"confmass.{layer}" not in loaded
        # witten integrates spinors, but only the identity battery reads
        # the Weyl scalar of a spinor calculator
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = confmass.cli.main(['witten', 'schwarzschild-lee'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
        code, loaded = json.loads(run_fresh(code))
        assert code == 0
        assert "confmass.spinor" in loaded and "confmass.weyl" not in loaded
        # every polar rule is built by Golub-Welsch, so no flux command
        # loads numpy.polynomial
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "codes = []\n"
            "for command in ('mass', 'weyl-mass', 'laws', 'witten'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        codes.append(confmass.cli.main([command, 'schwarzschild-lee']))\n"
            "print(json.dumps([codes, sorted(sys.modules)]))\n")
        codes, loaded = json.loads(run_fresh(code))
        assert codes == [0, 0, 0, 0]
        assert "confmass.mass" in loaded
        assert "numpy.polynomial" not in loaded
        # only the curvature and identity batteries draw random samples:
        # the probe directions of the load-time checks and of the decay
        # scan are a closed form, so these commands (and laws, above) on
        # every bundled config never load numpy.random
        code = (
            "import contextlib, io, json, sys, confmass.cli\n"
            "from confmass.config import bundled_names\n"
            "codes = []\n"
            "for command in ('check', 'mass', 'weyl-mass', 'witten'):\n"
            "    for name in bundled_names():\n"
            "        if command == 'mass' and name.endswith('.ends'):\n"
            "            continue\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            codes.append(confmass.cli.main([command, name]))\n"
            "print(json.dumps([codes, 'numpy.random' in sys.modules]))\n")
        codes, drawn = json.loads(run_fresh(code))
        assert len(codes) == 23 and set(codes) <= {0, 1}
        assert drawn is False

    def test_reports_are_byte_identical_from_run_to_run(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "mass", "schwarzschild.chart", "--radii", "20,40,80,160"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]  # byte identical


def end_doc(**fields) -> dict:
    """A two-end system of CHART_DOC charts (weights 1 and 4), with no
    part shared between the ends."""
    end = {k: v for k, v in CHART_DOC.items() if k not in ("schema_version", "kind", "name")}
    return json.loads(json.dumps({"schema_version": 1, "kind": "end_system", "name": "pair",
                                  "ends": [{"a": 1.0, "chart": end}, {"a": 4.0, "chart": end}],
                                  **fields}))


ONE = {"re": {"expr": "1"}, "im": {"expr": "0"}}


class TestHostileConfigs:
    """Configs that load, or ran, only to end in a traceback or in a
    passing non-finite mass."""

    @pytest.mark.parametrize("path, value, message", [
        (("ends", 1, "a"), math.inf, ".ends[1]: field 'a' must be a finite number, got inf"),
        (("ends", 1, "a"), math.nan, ".ends[1]: field 'a' must be a finite number, got nan"),
        (("ends", 1, "a"), True, ".ends[1]: field 'a' has wrong type bool"),
        (("ends", 1, "chart", "r_min"), True, ".ends[1].chart: field 'r_min' has wrong type bool"),
        (("ends", 1, "chart", "r_min"), math.inf,
         ".ends[1].chart: field 'r_min' must be a finite number, got inf"),
        (("ends", 1, "chart", "tau"), -math.inf,
         ".ends[1].chart: field 'tau' must be a finite number, got -inf"),
        (("ends", 1, "chart", "n"), True, ".ends[1].chart: field 'n' has wrong type bool"),
        (("ends", 1, "chart", "params", "m"), True,
         ".ends[1].chart.params: field 'm' has wrong type bool"),
        (("ends", 1, "chart", "params", "m"), math.inf,
         ".ends[1].chart.params: field 'm' must be a finite number, got inf"),
        (("ends", 1, "chart", "params", "m"), [1.0],
         ".ends[1].chart.params: field 'm' has wrong type list"),
        (("schema_version",), True, ": field 'schema_version' has wrong type bool"),
        (("spinors", 0, "weight"), True, ".spinors[0]: field 'weight' has wrong type bool"),
        (("spinors", 0, "weight"), math.nan,
         ".spinors[0]: field 'weight' must be a finite number, got nan"),
    ])
    def test_numbers_must_be_finite_and_not_booleans(self, capsys, tmp_path, path, value,
                                                     message):
        # JSON true loads as the int 1 and Infinity as a float: either one
        # used to load, and an infinite weight a passed weyl-mass with an
        # infinite limit
        doc = end_doc(spinors=[{"name": "s", "weight": -0.5, "components": [ONE, ONE]}])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "hostile.ends"
        p.write_text(json.dumps(doc))  # Infinity and NaN, which json.loads reads
        code, out, err = run_cli(capsys, "weyl-mass", str(p))
        assert (code, out, err) == (2, "", f"confmass: hostile.ends{message}\n")

    @pytest.mark.parametrize("path, value, message", [
        (("name",), None, ": field 'name' has wrong type NoneType"),
        (("name",), 7, ": field 'name' has wrong type int"),
        (("ends", 1, "chart", "name"), {"a": 1},
         ".ends[1].chart: field 'name' has wrong type dict"),
        (("spinors", 0, "name"), None, ".spinors[0]: field 'name' has wrong type NoneType"),
    ])
    def test_names_must_be_strings(self, capsys, tmp_path, path, value, message):
        # a null spinor name used to load and name its checks witten-limit[None]
        doc = end_doc(spinors=[{"name": "s", "weight": -0.5, "components": [ONE, ONE]}])
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "hostile.ends"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "witten", str(p))
        assert (code, out, err) == (2, "", f"confmass: hostile.ends{message}\n")

    @pytest.mark.parametrize("command", ["check", "mass", "witten"])
    @pytest.mark.parametrize("value, kind", [
        (5, "int"), (None, "NoneType"), (True, "bool"), (1e308, "float"),
    ], ids=["int", "null", "true", "float"])
    def test_spinors_must_be_a_list(self, capsys, tmp_path, command, value, kind):
        # anything but a list ended in "TypeError: ... is not iterable"
        doc = json.loads(bundled_text("schwarzschild-lee.chart"))
        doc["spinors"] = value
        p = tmp_path / "hostile.chart"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(p))
        assert (code, out, err) == (
            2, "", f"confmass: hostile.chart: field 'spinors' has wrong type {kind}\n")

    @pytest.mark.parametrize("command, message", [
        ("check", "hostile.chart: metric evaluates to a non-finite value at [8.0, 0.0, 0.0]"),
        ("witten", "radius 20.0 is singular: the chart evaluates to a non-finite value "
                   "on that sphere"),
    ])
    def test_an_exponent_that_overflows_is_refused_in_one_line(self, capsys, tmp_path,
                                                               command, message):
        # a coordinate-free pow exponent lowers to its value, here inf; the
        # overflow warned before the refusal, at load for the metric entry
        doc = json.loads(bundled_text("schwarzschild-lee.chart"))
        big = "pow(x1/r + 2, 1e200*1e200)"
        if command == "check":
            doc["metric"]["11"] = big
        else:
            doc["spinors"] = [{"name": "big", "weight": -0.5,
                               "components": [{"re": big, "im": "0"}, ONE]}]
        p = tmp_path / "hostile.chart"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(p))
        assert (code, out, err) == (2, "", f"confmass: {message}\n")

    def test_a_mass_that_overflows_fails_its_convergence(self, capsys, tmp_path):
        # two n = 4 Schwarzschild ends of mass 12 pi^2; weighing the second
        # by a^((n - 2)/2) = 1e308 overflows the total, which must not pass
        g = "(1 + m/(2*r^2))^2"
        end = {"n": 4, "tau": 1.5, "r_min": 1.0, "params": {"m": 1.0},
               "metric": {f"{i}{i}": g for i in range(1, 5)}}
        doc = {"schema_version": 1, "kind": "end_system", "name": "heavy",
               "ends": [{"a": 1.0, "chart": end}, {"a": 1e308, "chart": end}]}
        p = tmp_path / "heavy.ends"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "weyl-mass", str(p))
        rep = json.loads(out)
        assert code == 1 and rep["pass"] is False
        assert rep["results"]["limit"] == math.inf and rep["results"]["warnings"] == []

    def test_an_overflowing_end_system_fails_laws_without_a_nan(self, capsys, tmp_path):
        # the same system: the total and the weighted sum of the ends are
        # both infinite, and |inf - inf| / inf read NaN
        g = "(1 + m/(2*r^2))^2"
        end = {"n": 4, "tau": 1.5, "r_min": 1.0, "params": {"m": 1.0},
               "metric": {f"{i}{i}": g for i in range(1, 5)}}
        doc = {"schema_version": 1, "kind": "end_system", "name": "heavy",
               "ends": [{"a": 1.0, "chart": end}, {"a": 1e308, "chart": end}]}
        p = tmp_path / "heavy.ends"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "laws", str(p))
        assert code == 1 and "NaN" not in out
        rep = json.loads(out)
        (check,) = [c for c in rep["results"]["checks"]
                    if c["name"] == "weyl-mass-multi-end-consistency"]
        assert check["value"] == math.inf and check["pass"] is False
        assert check["not_finite"] == ["total", "weighted_sum"]

    @pytest.mark.parametrize("limit, error, passed", [
        (math.inf, math.inf, False), (math.inf, 0.0, False), (math.nan, 0.0, False),
        (50.0, math.inf, False), (50.0, math.nan, False), (50.0, 0.1, True),
    ])
    def test_convergence_needs_a_finite_limit_and_error(self, limit, error, passed):
        rep = mass.MassReport(kind="weyl", radii=(), flux=(), limit=limit, error=error,
                              measure="euclidean", normalize="raw", components={})
        report = {"tolerances": {}, "pass": True}
        cli._converged(report, rep)
        assert report["pass"] is passed

    def test_check_on_a_flat_metric_with_a_lee_form(self, capsys, tmp_path):
        # every metric slot is exactly flat, so no tau_hat exists to print
        doc = json.loads(bundled_text("flat.chart"))
        doc.update(tau=0.99, params={"b": 0.25},
                   lee=[{"expr": f"b*x{i}/r^3"} for i in (1, 2, 3)])
        p = tmp_path / "flat-lee.chart"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(p))
        assert (code, err) == (0, "")
        scan = json.loads(out)["results"]["decay"][0]
        assert scan["tau_hat"] is None and scan["pass"] is True
        assert scan["summary"] == "metric exactly flat; lee form vs declared tau + 1 = 1.99 -> ok"

    # deep entries, each "+0" one tree level and each bracket pair one
    # nesting deeper: DEEP[name](k) is k levels (or brackets) deep
    ISO = "(1 + m/(2*r))^4"  # 5 levels, 2 brackets
    DEEP = {
        "sum": lambda k: TestHostileConfigs.ISO + "+0" * (k - 5),
        "pow": lambda k: "pow(1 + m/(2*r), 4" + "+0" * (k - 2) + ")",
        "lee": lambda k: "b*x2/r^3" + "+0" * (k - 3),
        "spinor": lambda k: "1" + "+0" * (k - 1),
        "calls": lambda k: "sqrt(" * (k - 2) + TestHostileConfigs.ISO + ")" * (k - 2),
        "groups": lambda k: "(" * k + "b*x1/r^3" + ")" * k,
    }

    def deep_chart(self, tmp_path, deep: dict) -> str:
        """The bundled Schwarzschild chart with a Lee form and a spinor, the
        sources ``deep`` in place of its entries: g11 the sum, g22 the pow,
        g33 the calls, lee[0] the groups, lee[1] the lee and the first
        spinor component the spinor."""
        doc = json.loads(bundled_text("schwarzschild.chart"))
        doc["metric"] = {"11": deep.get("sum", self.ISO), "22": deep.get("pow", self.ISO),
                         "33": deep.get("calls", self.ISO)}
        doc["params"]["b"] = 0.25
        doc["lee"] = [deep.get("groups", "b*x1/r^3"), deep.get("lee", "b*x2/r^3"), "b*x3/r^3"]
        spinor = {"re": deep.get("spinor", "1"), "im": "0"}
        doc["spinors"] = [{"name": "deep", "weight": -0.5, "components": [spinor, ONE]}]
        p = tmp_path / "deep.chart"
        p.write_text(json.dumps(doc))
        return str(p)

    @pytest.mark.parametrize("command", ["check", "identities", "laws", "witten"])
    def test_entries_of_any_depth_run(self, capsys, tmp_path, command):
        # no walk of a tree recurses per level, so entries 20,000 levels
        # deep run from the test runner's own stack, next to brackets at
        # the nesting limit
        deep = {name: self.DEEP[name](20_000) for name in ("sum", "pow", "lee", "spinor")}
        deep.update((name, self.DEEP[name](exprdsl.MAX_NESTING)) for name in ("calls", "groups"))
        code, out, err = run_cli(capsys, command, self.deep_chart(tmp_path, deep))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("name, where", [("calls", "metric.33"), ("groups", "lee[0]")])
    def test_brackets_past_the_nesting_limit_are_refused_at_load(
            self, capsys, tmp_path, name, where):
        k = exprdsl.MAX_NESTING
        code, out, err = run_cli(capsys, "check", self.deep_chart(
            tmp_path, {name: self.DEEP[name](k + 1)}))
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"confmass: deep.chart.{where}: brackets nest more than {k} "
                              f"deep at offset ")

    @pytest.mark.parametrize("entry, where", [
        (("metric", "22"), "metric.22"),
        (("lee", 1), "lee[1]"),
        (("spinors", 0, "components", 1, "re"), "spinors[0].components[1].re"),
        (("spinors", 0, "components", 0, "im"), "spinors[0].components[0].im"),
    ])
    def test_a_parse_error_names_its_entry(self, capsys, tmp_path, entry, where):
        doc = json.loads(bundled_text("schwarzschild.chart"))
        doc["lee"] = ["0", "0", "0"]
        doc["spinors"] = [{"name": "s", "weight": -0.5, "components": [dict(ONE), dict(ONE)]}]
        node = doc
        for key in entry[:-1]:
            node = node[key]
        node[entry[-1]] = {"expr": "1 +"}
        p = tmp_path / "bad.chart"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(p))
        assert (code, out, err) == (
            2, "", f"confmass: bad.chart.{where}: unexpected end of input at offset 3\n")

    @pytest.mark.parametrize("end, key, where", [
        (1, "metric", "ends[1].chart.metric.11"), (0, "lee", "ends[0].chart.lee[2]")])
    def test_a_parse_error_names_its_end(self, capsys, tmp_path, end, key, where):
        doc = end_doc()
        chart = doc["ends"][end]["chart"]
        if key == "lee":
            chart["lee"] = ["0", "0", "1 +"]
        else:
            chart["metric"]["11"] = "1 +"
        p = tmp_path / "bad.ends"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "check", str(p))
        assert (code, out, err) == (
            2, "", f"confmass: bad.ends.{where}: unexpected end of input at offset 3\n")

    def test_a_file_that_is_not_utf8_is_refused_in_one_line(self, capsys, tmp_path):
        # a UTF-16 byte-order mark used to end in a UnicodeDecodeError traceback
        p = tmp_path / "utf16.chart"
        p.write_bytes(b"\xff\xfe" + json.dumps(CHART_DOC).encode("utf-16-le"))
        code, out, err = run_cli(capsys, "check", str(p))
        assert (code, out) == (2, "") and err.count("\n") == 1
        assert err.startswith("confmass: utf16.chart: cannot read: 'utf-8' codec can't decode")

    def test_a_file_that_cannot_be_read_is_refused_in_one_line(self, capsys, tmp_path,
                                                               monkeypatch):
        # permissions cannot refuse a read to root, so the refusal is faked
        p = tmp_path / "locked.chart"
        p.write_text(json.dumps(CHART_DOC))
        real_open = open

        def locked_open(file, *args, **kwargs):
            if file == str(p):
                raise PermissionError(13, "Permission denied", file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", locked_open)
        code, out, err = run_cli(capsys, "check", str(p))
        assert (code, out, err) == (
            2, "", f"confmass: locked.chart: cannot read: [Errno 13] Permission denied: '{p}'\n")

    def test_a_refusal_at_load_prints_no_numpy_warning(self, tmp_path):
        # m*m overflows in the load-time probes; the non-finite metric is
        # refused by name, and stderr holds that one line and nothing else
        doc = dict(CHART_DOC, params={"m": 1e308}, metric={"11": "1 + m*m/r"})
        p = tmp_path / "huge.chart"
        p.write_text(json.dumps(doc))
        proc = python_fresh("-m", "confmass", "check", str(p))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "confmass: huge.chart: metric evaluates to a non-finite value at "
                   "[8.0, 0.0, 0.0]\n")
