"""Command-line interface.

``confmass <command> <config> [flags]`` loads a JSON configuration
(filesystem path or bundled name), runs one battery, prints a JSON
report to stdout, and exits

* 0 when every enabled assertion passed;
* 1 when a numeric assertion failed (the report carries the details
  with ``"pass": false``);
* 2 with one ``confmass: ...`` line on stderr and nothing on stdout
  when the config or the flags are unusable, and also when the chart
  breaks down while a command runs: a ``ChartError`` (say, a metric
  that is not positive definite at a sample point, or a flux radius
  that ``mass.check_radius`` refuses on a derived chart) or an
  ``ArithmeticError`` (say, a jet square root of an indefinite matrix,
  or a jet division by zero).  Flux commands on a chart of dimension
  above ``mass.FLUX_MAX_DIM`` are refused the same way, before any
  computation.

Reports are deterministic: identical (config, seed, flags) yield
byte-identical output.
Every tolerance used by a command is echoed under ``"tolerances"``.

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
import sys

from .chart import ChartError
from .config import (SCHEMA_VERSION, ConfigError, LoadedConfig, dump_report,
                     load_config, load_expected)

__all__ = ["main"]

# expected-value comparison for bundled configs at default flags
EXPECTED_REL = 1e-3
EXPECTED_ABS = 1e-10
# the extrapolation error estimate must stay below this fraction of the
# mass scale for the series to count as converged
CONVERGENCE_REL = 0.05
# the commands that integrate fluxes over spheres
_FLUX_COMMANDS = ("mass", "weyl-mass", "witten", "laws")


def _parse_radii(text: str | None):
    if text is None:
        return None
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as e:
        raise ConfigError(f"--radii: {e}") from e


def _charts(cfg: LoadedConfig) -> list:
    return [cfg.chart] if cfg.chart is not None else [e.chart for e in cfg.system.ends]


def _check_flags(args, cfg: LoadedConfig):
    """Reject flag values the config cannot honour, before any computation,
    and return the parsed ``--radii`` (None when not given): every radius
    passes ``mass.check_radius`` on every chart of the config, and the
    series ``mass.check_series``; for ``laws`` on a chart, sqrt(a) r
    passes it on the chart in scaled coordinates as well."""
    if getattr(args, "points", 1) < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    if getattr(args, "seed", 0) < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.command not in _FLUX_COMMANDS:
        return None
    from . import mass
    if cfg.n > mass.FLUX_MAX_DIM:
        raise ConfigError(f"{args.command} integrates over spheres, which needs "
                          f"n <= {mass.FLUX_MAX_DIM}; the config has n = {cfg.n}")
    radii = _parse_radii(args.radii)
    if radii is not None:
        try:
            for chart in _charts(cfg):
                for r in radii:
                    mass.check_radius(chart, r)
            mass.check_series(radii)
            if args.command == "laws" and cfg.chart is not None:
                _check_scaled_radii(cfg.chart, radii)
        except ValueError as e:
            raise ConfigError(f"--radii: {e}") from None
    return radii


def _check_scaled_radii(chart, radii) -> None:
    """Raise ValueError unless ``laws`` can integrate ``chart`` in the
    coordinates scaled by ``suites.LAWS_SCALING`` = a at every sqrt(a) r
    (``scale_coordinates`` moves r_min to sqrt(a) r_min)."""
    from . import mass
    from .suites import LAWS_SCALING

    k = math.sqrt(LAWS_SCALING)
    scaled = chart._replace(r_min=k * chart.r_min)
    for r in radii:
        try:
            mass.check_radius(scaled, k * r)
        except ValueError as e:
            raise ValueError(f"{r!r} is {k * r!r} on the coordinate-scaled chart "
                             f"of laws: {e}") from None


def _base_report(command: str, args, cfg: LoadedConfig) -> dict:
    flags = {}
    for key in ("radii", "points", "seed", "jet_order", "measure", "normalize"):
        if hasattr(args, key):
            flags[key] = getattr(args, key)
    return {
        "command": command,
        "config": cfg.name,
        "source": args.config,
        "schema_version": SCHEMA_VERSION,
        "flags": flags,
        "tolerances": {},
        "pass": True,
    }


def _quadrature_report(command: str, args, cfg: LoadedConfig) -> dict:
    """A base report for a command that integrates fluxes over spheres."""
    from . import mass

    report = _base_report(command, args, cfg)
    report["tolerances"].update(quad_rtol=mass.QUAD_RTOL, quad_atol=mass.QUAD_ATOL)
    return report


def _expected_entry(args) -> dict | None:
    """Frozen values for a bundled config, when run at default flags."""
    try:
        table = load_expected()
    except Exception:
        return None
    entry = table.get(args.config)
    if entry is None:
        return None
    if getattr(args, "radii", None) is not None:
        return None
    if getattr(args, "normalize", "raw") != "raw":
        return None
    return entry


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
# commands

def _cmd_check(args, cfg: LoadedConfig, radii) -> dict:
    from .chart import decay_scan

    report = _base_report("check", args, cfg)
    scans = []
    ok = True
    for chart in _charts(cfg):
        scan = decay_scan(chart)
        scans.append({
            "chart": chart.name,
            "summary": scan.summary(),
            "tau_declared": scan.tau_declared,
            "tau_hat": scan.tau_hat,
            "slots": scan.slots,
            "pass": scan.passed,
        })
        ok = ok and scan.passed
    report["results"] = {"kind": cfg.kind, "n": cfg.n, "decay": scans}
    report["pass"] = ok
    return report


def _cmd_pointwise(args, cfg: LoadedConfig, radii) -> dict:
    """``curvature`` and ``identities``: one battery per chart."""
    from . import suites

    battery_of = (suites.curvature_battery if args.command == "curvature"
                  else suites.identity_battery)
    report = _base_report(args.command, args, cfg)
    report["results"] = {"batteries": []}
    for chart in _charts(cfg):
        battery = battery_of(chart, points=args.points, seed=args.seed,
                             jet_order=args.jet_order)
        report["results"]["batteries"].append(battery)
        report["tolerances"].update(battery.get("tolerances", {}))
        report["pass"] = report["pass"] and battery["pass"]
    return report


def _converged(report: dict, rep: mass.MassReport) -> None:
    budget = CONVERGENCE_REL * max(1.0, abs(rep.limit))
    report["tolerances"]["convergence_rel"] = CONVERGENCE_REL
    report["pass"] = (report["pass"] and not rep.warnings
                      and rep.error <= budget)


def _cmd_mass(args, cfg: LoadedConfig, radii) -> dict:
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
    report = _quadrature_report(args.command, args, cfg)
    report["results"] = _mass_result(rep)
    _converged(report, rep)
    entry = _expected_entry(args)
    if entry and expected_key in entry and args.normalize == "raw":
        _mass_expect_check(report, rep.limit, entry[expected_key])
    if args.csv:
        _write_csv(args.csv, rep, _charts(cfg)[0])
    return report


def _cmd_witten(args, cfg: LoadedConfig, radii) -> dict:
    from . import suites

    report = _quadrature_report("witten", args, cfg)
    battery = suites.witten_battery(cfg, radii=radii, measure=args.measure)
    report["results"] = battery
    report["tolerances"].update(battery.get("tolerances", {}))
    report["pass"] = battery["pass"]
    return report


def _cmd_laws(args, cfg: LoadedConfig, radii) -> dict:
    from . import suites

    report = _quadrature_report("laws", args, cfg)
    expected_total = None
    entry = _expected_entry(args)
    if entry and cfg.kind == "end_system":
        expected_total = entry.get("weyl_mass_raw")
    battery = suites.laws_battery(cfg, radii=radii, measure=args.measure,
                                  seed=args.seed, expected_total=expected_total)
    report["results"] = battery
    report["tolerances"].update(battery.get("tolerances", {}))
    report["pass"] = battery["pass"]
    return report


_COMMANDS = {
    "check": _cmd_check,
    "curvature": _cmd_pointwise,
    "mass": _cmd_mass,
    "weyl-mass": _cmd_mass,
    "identities": _cmd_pointwise,
    "witten": _cmd_witten,
    "laws": _cmd_laws,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmass",
        description="Conformal-geometry batteries on asymptotically flat charts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, radii=False, points=False, seed=False,
            jet_order=False, measure=False, normalize=False, csv=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="config file path or bundled name")
        if radii:
            p.add_argument("--radii", default=None,
                           help="comma-separated sphere radii (>= 4 values)")
        if points:
            p.add_argument("--points", type=int, default=100,
                           help="number of random sample points")
        if seed:
            p.add_argument("--seed", type=int, default=42,
                           help="PCG64 seed for random sampling")
        if jet_order:
            p.add_argument("--jet-order", dest="jet_order", type=int,
                           default=2, choices=(2, 3),
                           help="truncation order of metric jets")
        if measure:
            p.add_argument("--measure", default="euclidean",
                           choices=("euclidean", "g"),
                           help="surface measure and normal convention")
        if normalize:
            p.add_argument("--normalize", default="raw",
                           choices=("raw", "adm"),
                           help="mass normalization")
        if csv:
            p.add_argument("--csv", default=None,
                           help="write the radius series as CSV")
        p.add_argument("--out", default=None,
                       help="also write the JSON report to this file")
        return p

    add("check", "validate a config and scan decay rates")
    add("curvature", "curvature summary at seeded random points",
        points=True, seed=True, jet_order=True)
    add("mass", "ADM-type metric mass", radii=True, measure=True,
        normalize=True, csv=True)
    add("weyl-mass", "mass of the Weyl structure", radii=True, measure=True,
        normalize=True, csv=True)
    add("identities", "pointwise identity batteries",
        points=True, seed=True, jet_order=True)
    add("witten", "spinor flux vs quarter-mass", radii=True, measure=True)
    add("laws", "global mass laws", radii=True, measure=True, seed=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        radii = _check_flags(args, cfg)
        report = _COMMANDS[args.command](args, cfg, radii)
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
