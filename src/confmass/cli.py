"""Command-line interface.

``confmass <command> <config> [flags]`` loads a JSON configuration
(filesystem path or bundled name), runs one battery, prints a JSON
report to stdout, and exits

* 0 when every enabled assertion passed;
* 1 when a numeric assertion failed (the report carries the details
  with ``"pass": false``);
* 2 with one ``confmass: ...`` line on stderr and nothing on stdout
  when the config or the flags are unusable (an ``--out`` or ``--csv``
  file that is a directory or sits in no directory is refused before the
  command runs), and also when the chart
  breaks down while a command runs: a ``ChartError`` (say, a metric
  that is not positive definite at a sample point, a flux radius that
  ``mass.check_radius`` refuses on a derived chart, or a flux sphere
  where the chart evaluates to a non-finite value) or an
  ``ArithmeticError`` (say, a jet square root of an indefinite matrix,
  or a jet division by zero).  Flux commands on a chart of dimension
  above ``mass.FLUX_MAX_DIM`` are refused the same way, before any
  computation.

Reports are deterministic: identical (config, seed, flags) yield
byte-identical output.
Every tolerance used by a command is echoed under ``"tolerances"``.

``COMMANDS`` declares each command once: its help line, its flags and
its handler.  The parser is built from it; a command integrates fluxes
over spheres exactly when it takes ``--radii``; and a report echoes the
command's flags as parsed (``--csv`` and ``--out`` name output files and
are not echoed).  Expected values apply to a bundled config, named with
or without its extension, at the default radii; never to a file path.

Commands:

``check``      validate the config and scan asymptotic decay rates
``curvature``  curvature magnitudes and internal consistency at
               seeded random points
``mass``       ADM-type mass of a chart metric with radius series
``weyl-mass``  mass of the Weyl structure (chart or end system)
``identities`` pointwise identity batteries at seeded random points
``witten``     spinor boundary-flux series against quarter-mass
``laws``       global mass laws (conformal change/invariance, scaling,
               multi-end aggregation)
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .chart import ChartError
from .config import (SCHEMA_VERSION, ConfigError, LoadedConfig, dump_report,
                     load_config, load_expected)

__all__ = ["main", "COMMANDS", "FLAGS"]

# expected-value comparison for bundled configs at default flags
EXPECTED_REL = 1e-3
EXPECTED_ABS = 1e-10
# the extrapolation error estimate must stay below this fraction of the
# mass scale for the series to count as converged
CONVERGENCE_REL = 0.05

# argparse keywords of every flag, in the order ``--help`` lists them
FLAGS = {
    "radii": {"help": "comma-separated sphere radii (>= 4 values)"},
    "points": {"type": int, "default": 100, "help": "number of random sample points"},
    "seed": {"type": int, "default": 42, "help": "PCG64 seed for random sampling"},
    "jet_order": {"type": int, "default": 2, "choices": (2, 3),
                  "help": "truncation order of metric jets"},
    "measure": {"default": "euclidean", "choices": ("euclidean", "g"),
                "help": "surface measure and normal convention"},
    "normalize": {"default": "raw", "choices": ("raw", "adm"),
                  "help": "mass normalization"},
    "csv": {"help": "write the radius series as CSV"},
}


def _check_output(flag: str, path) -> None:
    """Refuse an output file the report could not be written to: a
    directory, or a path whose directory does not exist."""
    if not path:
        return
    if os.path.isdir(path):
        raise ConfigError(f"--{flag}: {path!r} is a directory")
    where = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(where):
        raise ConfigError(f"--{flag}: {where!r} is not a directory")


def _check_flags(args, cfg: LoadedConfig):
    """Reject flag values the config cannot honour, before any computation,
    and return the parsed ``--radii`` (None when not given): the output
    files pass ``_check_output``; every radius
    passes ``mass.check_radius`` and ``mass.probe_radius`` on every chart
    of the config (for ``witten`` with its spinor program on that chart,
    ``suites.witten_spinors``), and the series ``mass.check_series``; for
    ``laws`` on a chart, so do the radii of its coordinate-scaled chart
    (``suites.laws_scaled_chart``)."""
    flags = COMMANDS[args.command][1]
    _check_output("out", args.out)
    if "csv" in flags:
        _check_output("csv", args.csv)
    if "points" in flags and args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    if "seed" in flags and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if "radii" not in flags:
        return None
    from . import mass
    if cfg.n > mass.FLUX_MAX_DIM:
        raise ConfigError(f"{args.command} integrates over spheres, which needs "
                          f"n <= {mass.FLUX_MAX_DIM}; the config has n = {cfg.n}")
    if args.radii is None:
        return None
    lee = args.command != "mass"  # the metric mass never evaluates the Lee form
    programs = [None] * len(cfg.charts)
    if args.command == "witten":
        from .suites import witten_spinors
        programs = witten_spinors(cfg)[1]
    try:
        radii = tuple(float(t) for t in args.radii.split(",") if t.strip())
        for chart in cfg.charts:
            for r in radii:
                mass.check_radius(chart, r)
        mass.check_series(radii)
        for chart, fields in zip(cfg.charts, programs):
            for r in radii:
                mass.probe_radius(chart, r, lee, fields)
        if args.command == "laws" and cfg.chart is not None:
            from .suites import laws_scaled_chart
            scaled, scaled_radii = laws_scaled_chart(cfg.chart, radii)
            for r, s in zip(radii, scaled_radii):
                try:
                    mass.check_radius(scaled, s)
                    mass.probe_radius(scaled, s, lee)
                except ValueError as e:
                    raise ValueError(f"{r!r} is {s!r} on the coordinate-scaled "
                                     f"chart of laws: {e}") from None
    except ValueError as e:
        raise ConfigError(f"--radii: {e}") from None
    return radii


def _base_report(args, cfg: LoadedConfig) -> dict:
    """The report of ``args.command`` before its results: the flags it
    takes as parsed, and the quadrature tolerances when it integrates
    fluxes."""
    flags = COMMANDS[args.command][1]
    tolerances = {}
    if "radii" in flags:
        from . import mass
        tolerances = {"quad_rtol": mass.QUAD_RTOL, "quad_atol": mass.QUAD_ATOL}
    return {
        "command": args.command,
        "config": cfg.name,
        "source": args.config,
        "schema_version": SCHEMA_VERSION,
        "flags": {key: getattr(args, key) for key in flags if key != "csv"},
        "tolerances": tolerances,
        "pass": True,
    }


def _fold(report: dict, battery: dict) -> None:
    """Take a battery's tolerances and verdict into the report."""
    report["tolerances"].update(battery.get("tolerances", {}))
    report["pass"] = report["pass"] and battery["pass"]


def _expected_entry(args, cfg: LoadedConfig) -> dict:
    """Frozen values of a bundled config, when run at the default radii."""
    if cfg.bundled is None or args.radii is not None:
        return {}
    return load_expected().get(cfg.bundled, {})


def _mass_expect_check(report: dict, limit: float, expected: float) -> None:
    tol = max(EXPECTED_ABS, EXPECTED_REL * abs(expected))
    report["tolerances"]["expected_rel"] = EXPECTED_REL
    report["tolerances"]["expected_abs"] = EXPECTED_ABS
    report["results"]["expected"] = expected
    report["results"]["expected_delta"] = abs(limit - expected)
    report["pass"] = report["pass"] and abs(limit - expected) <= tol


def _mass_result(rep: mass.MassReport) -> dict:
    return {
        "radii": list(rep.radii),
        "flux": list(rep.flux),
        "limit": rep.limit,
        "error": rep.error,
        "measure": rep.measure,
        "normalize": rep.normalize,
        "components": rep.components,
        "warnings": list(rep.warnings),
    }


def _write_csv(path: str, rep: mass.MassReport, chart) -> None:
    rows = rep.csv_rows(chart)
    with open(path, "w") as f:
        f.write("r,flux,cumulative_extrapolation\n")
        for r, flux, cum in rows:
            f.write(f"{r!r},{flux!r},{cum!r}\n")


# ---------------------------------------------------------------------------
# commands: each fills in the results and verdict of its base report

def _cmd_check(args, cfg: LoadedConfig, radii, report: dict) -> None:
    from .chart import decay_scan

    scans = []
    for chart in cfg.charts:
        scan = decay_scan(chart)
        scans.append({
            "chart": chart.name,
            "summary": scan.summary(),
            "tau_declared": scan.tau_declared,
            "tau_hat": scan.tau_hat,
            "slots": scan.slots,
            "pass": scan.passed,
        })
        report["pass"] = report["pass"] and scan.passed
    report["results"] = {"kind": cfg.kind, "n": cfg.n, "decay": scans}


def _cmd_pointwise(args, cfg: LoadedConfig, radii, report: dict) -> None:
    """``curvature`` and ``identities``: one battery per chart."""
    from . import suites

    battery_of = (suites.curvature_battery if args.command == "curvature"
                  else suites.identity_battery)
    report["results"] = {"batteries": []}
    for chart in cfg.charts:
        battery = battery_of(chart, points=args.points, seed=args.seed,
                             jet_order=args.jet_order)
        report["results"]["batteries"].append(battery)
        _fold(report, battery)


def _converged(report: dict, rep: mass.MassReport) -> None:
    """Fail the report unless its mass converged: no warning, a finite
    limit, and an error within ``CONVERGENCE_REL`` of the mass scale (an
    infinite or NaN error never is)."""
    budget = CONVERGENCE_REL * max(1.0, abs(rep.limit))
    report["tolerances"]["convergence_rel"] = CONVERGENCE_REL
    report["pass"] = (report["pass"] and not rep.warnings
                      and math.isfinite(rep.limit) and rep.error <= budget)


def _cmd_mass(args, cfg: LoadedConfig, radii, report: dict) -> None:
    """``mass`` (the metric mass of a chart) and ``weyl-mass`` (the mass
    of the Weyl structure of a chart or an end system)."""
    from . import mass

    if args.command == "weyl-mass":
        target = cfg.chart if cfg.chart is not None else cfg.system
        rep = mass.weyl_mass(target, radii=radii, measure=args.measure,
                             normalize=args.normalize)
        expected_key = "weyl_mass_raw"
    elif cfg.chart is None:
        raise ConfigError("the mass command needs a chart config "
                          "(use weyl-mass for end systems)")
    else:
        rep = mass.riemannian_mass(cfg.chart, radii=radii, measure=args.measure,
                                   normalize=args.normalize)
        expected_key = "riemannian_mass_raw"
    report["results"] = _mass_result(rep)
    _converged(report, rep)
    entry = _expected_entry(args, cfg)
    if expected_key in entry and args.normalize == "raw":
        _mass_expect_check(report, rep.limit, entry[expected_key])
    if args.csv:
        _write_csv(args.csv, rep, cfg.charts[0])


def _cmd_witten(args, cfg: LoadedConfig, radii, report: dict) -> None:
    from . import suites

    report["results"] = suites.witten_battery(cfg, radii=radii, measure=args.measure)
    _fold(report, report["results"])


def _cmd_laws(args, cfg: LoadedConfig, radii, report: dict) -> None:
    from . import suites

    expected_total = None
    if cfg.kind == "end_system":
        expected_total = _expected_entry(args, cfg).get("weyl_mass_raw")
    report["results"] = suites.laws_battery(cfg, radii=radii, measure=args.measure,
                                            seed=args.seed,
                                            expected_total=expected_total)
    _fold(report, report["results"])


# command -> (help line, flags, handler), in the order ``--help`` lists them
COMMANDS = {
    "check": ("validate a config and scan decay rates", (), _cmd_check),
    "curvature": ("curvature summary at seeded random points",
                  ("points", "seed", "jet_order"), _cmd_pointwise),
    "mass": ("ADM-type metric mass", ("radii", "measure", "normalize", "csv"), _cmd_mass),
    "weyl-mass": ("mass of the Weyl structure",
                  ("radii", "measure", "normalize", "csv"), _cmd_mass),
    "identities": ("pointwise identity batteries",
                   ("points", "seed", "jet_order"), _cmd_pointwise),
    "witten": ("spinor flux vs quarter-mass", ("radii", "measure"), _cmd_witten),
    "laws": ("global mass laws", ("radii", "measure", "seed"), _cmd_laws),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmass",
        description="Conformal-geometry batteries on asymptotically flat charts")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="config file path or bundled name")
        for key, spec in FLAGS.items():
            if key in flags:
                p.add_argument("--" + key.replace("_", "-"), **spec)
        p.add_argument("--out", help="also write the JSON report to this file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        radii = _check_flags(args, cfg)
        report = _base_report(args, cfg)
        COMMANDS[args.command][2](args, cfg, radii, report)
    except (ConfigError, ChartError, ArithmeticError) as e:
        print(f"confmass: {e}", file=sys.stderr)
        return 2
    text = dump_report(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
