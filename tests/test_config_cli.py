"""Tests for configuration parsing, bundled documents, report serialization,
and the command-line interface."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import confmass
from confmass import mass
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
        assert spec.weight == -0.5

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
    ])
    def test_unusable_flags_exit_two_with_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("confmass:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["identities", "curvature", "witten"])
    def test_chart_breaking_down_mid_run_exits_two_with_one_line(
            self, capsys, tmp_path, command):
        # the SPD probe at r = 8 passes, but g11 = 1 - r/10 turns negative
        # beyond r = 10: every command stops with a ChartError naming the
        # first sample point where the metric is indefinite
        path = self.chart_file(tmp_path, "indefinite", 3, 0.75, {"11": "1 - r/10"})
        code, out, err = run_cli(capsys, command, path)
        assert code == 2
        assert out == ""
        assert err.startswith("confmass:") and err.count("\n") == 1
        assert "not positive definite at" in err

    @pytest.mark.parametrize("command", ["mass", "weyl-mass", "laws", "witten"])
    def test_flux_commands_refuse_dimensions_without_a_sphere_rule(
            self, capsys, tmp_path, monkeypatch, command):
        path = self.wide_chart(tmp_path)

        def no_rule(*args, **kwargs):
            raise AssertionError("a sphere rule was requested")

        monkeypatch.setattr(mass, "sphere_rule", no_rule)
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
            # warnings inform; the exit code still follows the checks alone
            assert rep["pass"] is all(c["pass"] for c in rep["results"]["checks"])
            assert code == (0 if rep["pass"] else 1)
            reports[name] = rep["results"]
        assert DIVERGENCE_WARNING in reports["diverging.chart"]["warnings"]
        ends = reports["mixed.ends"]["ends"]
        assert DIVERGENCE_WARNING in ends[0]["warnings"]
        assert ends[1]["warnings"] == []

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
        root = os.path.dirname(os.path.dirname(os.path.abspath(confmass.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]))
        code = ("import sys, confmass.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_reports_are_deterministic_across_workers(self, capsys, monkeypatch):
        outs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("CONFMASS_THREADS", workers)
            code, out, _ = run_cli(
                capsys, "mass", "schwarzschild.chart", "--radii", "20,40,80,160"
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]  # byte identical
