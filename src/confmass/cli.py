"""Command-line interface.

``confmass <command> <config> [flags]`` loads a JSON configuration
(filesystem path or bundled name), runs one battery, prints a JSON
report to stdout, and exits 0 when every enabled assertion passed,
1 when a numeric assertion failed (the report carries the details with
``"pass": false``), or 2 on configuration/usage errors (diagnostic on
stderr).

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
import sys

from . import mass, suites
from .config import (SCHEMA_VERSION, ConfigError, LoadedConfig, dump_report,
                     load_config, load_expected)

__all__ = ["main"]

# expected-value comparison for bundled configs at default flags
EXPECTED_REL = 1e-3
EXPECTED_ABS = 1e-10
# the extrapolation error estimate must stay below this fraction of the
# mass scale for the series to count as converged
CONVERGENCE_REL = 0.05


def _parse_radii(text: str | None):
    if text is None:
        return None
    try:
        radii = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as e:
        raise ConfigError(f"--radii: {e}") from e
    if len(radii) < 4:
        raise ConfigError("--radii needs at least 4 comma-separated values")
    return radii


def _charts(cfg: LoadedConfig) -> list:
    return [cfg.chart] if cfg.chart is not None else [e.chart for e in cfg.system.ends]


def _check_flags(args, cfg: LoadedConfig) -> None:
    """Reject flag values the config cannot honour, before any computation."""
    if getattr(args, "points", 1) < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    radii = _parse_radii(getattr(args, "radii", None))
    if radii is None:
        return
    floor = max(2.0 * chart.r_min for chart in _charts(cfg))
    if min(radii) < floor:
        raise ConfigError(f"--radii: {min(radii)!r} is below 2 r_min = {floor!r}")
    r = sorted(radii)
    for lo, hi in zip(r, r[1:]):
        if hi / lo < 1.5:
            raise ConfigError(f"--radii: successive radii {lo!r}, {hi!r} "
                              "have a ratio below 1.5")


def _base_report(command: str, args, cfg: LoadedConfig) -> dict:
    flags = {}
    for key in ("radii", "points", "seed", "jet_order", "measure", "normalize"):
        if hasattr(args, key):
            v = getattr(args, key)
            flags[key] = list(v) if isinstance(v, tuple) else v
    return {
        "command": command,
        "config": cfg.name,
        "source": args.config,
        "schema_version": SCHEMA_VERSION,
        "flags": flags,
        "tolerances": {},
        "pass": True,
    }


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


def _write_csv(path: str, rep: mass.MassReport) -> None:
    rows = rep.csv_rows()
    with open(path, "w") as f:
        f.write("r,flux,cumulative_extrapolation\n")
        for r, flux, cum in rows:
            f.write(f"{r!r},{flux!r},{cum!r}\n")


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args, cfg: LoadedConfig) -> dict:
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


def _cmd_curvature(args, cfg: LoadedConfig) -> dict:
    report = _base_report("curvature", args, cfg)
    report["results"] = {"batteries": []}
    for chart in _charts(cfg):
        battery = suites.curvature_battery(chart, points=args.points,
                                           seed=args.seed,
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


def _cmd_mass(args, cfg: LoadedConfig) -> dict:
    if cfg.chart is None:
        raise ConfigError("the mass command needs a chart config "
                          "(use weyl-mass for end systems)")
    report = _base_report("mass", args, cfg)
    rep = mass.riemannian_mass(cfg.chart, radii=_parse_radii(args.radii),
                               measure=args.measure, normalize=args.normalize)
    report["results"] = _mass_result(rep)
    _converged(report, rep)
    entry = _expected_entry(args)
    if entry and "riemannian_mass_raw" in entry and args.normalize == "raw":
        _mass_expect_check(report, rep.limit, entry["riemannian_mass_raw"])
    if args.csv:
        _write_csv(args.csv, rep)
    return report


def _cmd_weyl_mass(args, cfg: LoadedConfig) -> dict:
    report = _base_report("weyl-mass", args, cfg)
    target = cfg.chart if cfg.chart is not None else cfg.system
    rep = mass.weyl_mass(target, radii=_parse_radii(args.radii),
                         measure=args.measure, normalize=args.normalize)
    report["results"] = _mass_result(rep)
    _converged(report, rep)
    entry = _expected_entry(args)
    if entry and "weyl_mass_raw" in entry and args.normalize == "raw":
        _mass_expect_check(report, rep.limit, entry["weyl_mass_raw"])
    if args.csv:
        _write_csv(args.csv, rep)
    return report


def _cmd_identities(args, cfg: LoadedConfig) -> dict:
    report = _base_report("identities", args, cfg)
    report["results"] = {"batteries": []}
    for chart in _charts(cfg):
        battery = suites.identity_battery(chart, points=args.points,
                                          seed=args.seed,
                                          jet_order=args.jet_order)
        report["results"]["batteries"].append(battery)
        report["tolerances"].update(battery.get("tolerances", {}))
        report["pass"] = report["pass"] and battery["pass"]
    return report


def _cmd_witten(args, cfg: LoadedConfig) -> dict:
    report = _base_report("witten", args, cfg)
    battery = suites.witten_battery(cfg, radii=_parse_radii(args.radii),
                                    measure=args.measure)
    report["results"] = battery
    report["tolerances"].update(battery.get("tolerances", {}))
    report["pass"] = battery["pass"]
    return report


def _cmd_laws(args, cfg: LoadedConfig) -> dict:
    report = _base_report("laws", args, cfg)
    expected_total = None
    entry = _expected_entry(args)
    if entry and cfg.kind == "end_system":
        expected_total = entry.get("weyl_mass_raw")
    battery = suites.laws_battery(cfg, radii=_parse_radii(args.radii),
                                  measure=args.measure, seed=args.seed,
                                  expected_total=expected_total)
    report["results"] = battery
    report["tolerances"].update(battery.get("tolerances", {}))
    report["pass"] = battery["pass"]
    return report


_COMMANDS = {
    "check": _cmd_check,
    "curvature": _cmd_curvature,
    "mass": _cmd_mass,
    "weyl-mass": _cmd_weyl_mass,
    "identities": _cmd_identities,
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
        _check_flags(args, cfg)
        report = _COMMANDS[args.command](args, cfg)
    except ConfigError as e:
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
