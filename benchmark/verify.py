"""Checks one op's outcome against its closed-form expectations.

An op is correct when its exit code is the expected one, no traceback
appears, every identity check sits at or below its echoed tolerance,
and every limit is within the CLI's own tolerance of the closed form
(``MASS_REL`` for masses, the echoed ``witten_rel`` for Witten limits).
An invalid request is correct only when it exits 2 with a one-line
message and an empty stdout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["MASS_REL", "Verdict", "verify", "limit_rel_errors", "errbar_misses"]

# the CLI's tolerance for a mass limit against a frozen value
MASS_REL = 1e-3
# the acceptance gate's scalar-flatness tolerance for isotropic charts
SCALAR_FLAT = 1e-9


@dataclass
class Verdict:
    ok: bool = True
    problems: list = field(default_factory=list)
    # (limit, exact) pairs that were compared to a closed form
    limits: list = field(default_factory=list)
    # (limit, error, exact) for limits that carry an extrapolation error
    errbars: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.ok = False
        self.problems.append(why)


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / max(abs(exact), 1e-300)


def _limit(v: Verdict, what: str, value: float, exact: float, rel: float,
           scale: float | None = None) -> None:
    v.limits.append((value, exact))
    denom = abs(exact) if scale is None else scale
    if not abs(value - exact) <= rel * denom:
        v.fail(f"{what}: {value!r} vs closed form {exact!r} (rel {rel})")


def _checks(v: Verdict, checks: list, where: str) -> None:
    for c in checks:
        if not c["value"] <= c["tolerance"]:
            v.fail(f"{where}: check {c['name']} = {c['value']!r} "
                   f"over tolerance {c['tolerance']!r}")


def _mass_report(v: Verdict, res: dict, exact: float) -> None:
    _limit(v, "limit", res["limit"], exact, MASS_REL)
    v.errbars.append((res["limit"], res["error"], exact))


def verify(expect: dict, code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Judge one op from its exit code and output bytes."""
    v = Verdict()
    err = stderr.decode("utf-8", "replace")
    if "Traceback" in err:
        v.fail("traceback on stderr: " + err.strip().splitlines()[-1])
    if code != expect["exit"]:
        v.fail(f"exit code {code}, expected {expect['exit']}")
    if expect["exit"] == 2:
        if stdout or len(err.strip().splitlines()) != 1:
            v.fail("an invalid request must print one line on stderr only")
        return v
    if not v.ok:
        return v
    try:
        report = json.loads(stdout)
    except ValueError:
        v.fail("stdout is not one JSON report")
        return v
    if report.get("pass") is not True:
        v.fail("report does not pass")
    res = report["results"]
    cmd = report["command"]

    if cmd == "check":
        for scan in res["decay"]:
            if not scan["pass"]:
                v.fail(f"decay scan of {scan['chart']} failed")
    elif cmd in ("curvature", "identities"):
        for bat in res["batteries"]:
            _checks(v, bat["checks"], bat["battery"])
            if expect.get("scalar_flat"):
                st = bat["stats"]
                if not st["max_abs_scal"] <= SCALAR_FLAT * max(1.0, st["max_abs_ricci"]):
                    v.fail(f"isotropic chart not scalar-flat: {st['max_abs_scal']!r}")
    elif cmd in ("mass", "weyl-mass"):
        _mass_report(v, res, expect["mass"])
    elif cmd == "laws":
        _checks(v, res["checks"], "laws")
        det = res["details"]
        if "total" in expect:
            _limit(v, "aggregate mass", det["total"], expect["total"], MASS_REL)
            for k, exact in enumerate(expect["per_end"]):
                _limit(v, f"end {k} mass", det["per_end"][k], exact, MASS_REL)
        else:
            _limit(v, "Weyl mass", det["weyl_mass"], expect["mass"], MASS_REL)
            # the CLI holds the conformal-invariance law to mass_law_rel
            _limit(v, "rescaled Weyl mass", det["weyl_mass_rescaled"],
                   expect["mass"], res["tolerances"]["mass_law_rel"])
            for rec in det["conformal_change"]:
                _limit(v, "base mass", rec["base_mass"], expect["raw_mass"], MASS_REL)
                v.errbars.append((rec["base_mass"], rec["errors"]["base"],
                                  expect["raw_mass"]))
    elif cmd == "witten":
        _checks(v, res["checks"], "witten")
        _limit(v, "Weyl mass", res["mass"], expect["mass"], MASS_REL)
        rel = res["tolerances"]["witten_rel"]
        fields = {f["name"]: f for f in res["fields"]}
        for name, exact in expect["witten"].items():
            if name not in fields:
                v.fail(f"no Witten field {name!r} in the report")
                continue
            _limit(v, f"Witten limit {name}", fields[name]["limit"], exact,
                   rel, scale=max(1.0, abs(exact)))
    else:
        v.fail(f"unexpected command {cmd!r}")
    for value, exact in v.limits:
        if not (math.isfinite(value) and math.isfinite(exact)):
            v.fail("non-finite limit")
    return v


def limit_rel_errors(v: Verdict) -> list:
    return [_rel(value, exact) for value, exact in v.limits if exact != 0.0]


def errbar_misses(v: Verdict) -> tuple:
    """(misses, count) of exact values outside limit +- error."""
    miss = sum(1 for limit, error, exact in v.errbars if abs(limit - exact) > error)
    return miss, len(v.errbars)
