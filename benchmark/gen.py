"""Seeded generator of benchmark inputs with closed-form answers.

Every chart is isotropic Schwarzschild in n dimensions,

    g = (1 + m / (2 r^(n-2)))^(4/(n-2)) delta,

optionally with a fast-decaying off-diagonal term, a Lee form that is
radial (-b x_i / r^n, exact) or rotational (b (-x2, x1, 0..) / r^n, not
exact), and constant spinors of weight (2 - n)/2.  Two-end systems
weigh end l by a_l^((n-2)/2).  For these families the answers are known
in closed form:

    raw mass            2 (n-1) omega_{n-1} m
    Weyl mass (radial)  2 (n-1) omega_{n-1} (m + b)
    Weyl mass (rot.)    the metric mass alone
    Witten limit        1/4 m(D) |psi_0|^2
    aggregate mass      sum_l a_l^((n-2)/2) m_l(D)

A workload is a fixed list of op slots; the seed only moves the
numbers inside the configs and the ``--seed`` flags, so every seed asks
the program for the same kinds and amounts of work.
"""

from __future__ import annotations

import json
import math
import os
import random

__all__ = ["WORKLOADS", "omega", "raw_mass", "weyl_mass", "generate",
           "chart_doc", "ends_doc"]

WORKLOADS = ("pointwise", "metric-flux", "spinor-flux")

TAU = {3: 0.99, 4: 1.9, 5: 2.9, 6: 3.9}


def omega(n: int) -> float:
    """Area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def raw_mass(n: int, m: float) -> float:
    return 2.0 * (n - 1) * omega(n) * m


def weyl_mass(n: int, m: float, lee: str = "none", b: float = 0.0) -> float:
    return raw_mass(n, m + (b if lee == "radial" else 0.0))


def _num(x: float) -> str:
    return repr(float(x))


def _metric_entry(n: int) -> str:
    base = "1 + m/(2*r)" if n == 3 else f"1 + m/(2*r^{n - 2})"
    if 4 % (n - 2) == 0:
        return f"({base})^{4 // (n - 2)}"
    return f"pow({base}, 4/{n - 2})"


def chart_doc(name: str, n: int, m: float, *, lee: str = "none",
              b: float = 0.0, offdiag: float = 0.0, spinors=()) -> dict:
    """A chart document; ``spinors`` holds (name, [(re, im), ...]) pairs."""
    params = {"m": m}
    metric = {f"{i}{i}": {"expr": _metric_entry(n)} for i in range(1, n + 1)}
    if offdiag:
        params["e"] = offdiag
        metric["12"] = {"expr": f"e*x1*x2/r^{n + 2}"}
    doc = {"n": n, "name": name, "tau": TAU[n], "r_min": 1.0,
           "params": params, "metric": metric}
    if lee == "radial":
        params["b"] = b
        doc["lee"] = [{"expr": f"-b*x{i}/r^{n}"} for i in range(1, n + 1)]
    elif lee == "rot":
        params["b"] = b
        doc["lee"] = ([{"expr": f"-b*x2/r^{n}"}, {"expr": f"b*x1/r^{n}"}]
                      + [{"expr": "0"}] * (n - 2))
    if spinors:
        doc["spinors"] = [
            {"name": sname, "weight": 0.5 * (2 - n),
             "components": [{"re": {"expr": _num(re)}, "im": {"expr": _num(im)}}
                            for re, im in comps]}
            for sname, comps in spinors]
    return doc


def ends_doc(name: str, ends) -> dict:
    """An end system from (a, chart document) pairs."""
    return {"schema_version": 1, "kind": "end_system", "name": name,
            "ends": [{"a": a, "chart": doc} for a, doc in ends]}


def _as_config(doc: dict) -> dict:
    return dict(doc, schema_version=1, kind="chart")


class _Gen:
    """Draws rounded parameters and writes config files."""

    def __init__(self, workload: str, seed: int, outdir: str):
        self.rng = random.Random(f"confmass-bench:{workload}:{seed}")
        self.outdir = outdir
        self.ops = []

    def draw(self, lo: float, hi: float, digits: int = 3) -> float:
        return round(self.rng.uniform(lo, hi), digits)

    def seed(self) -> str:
        return str(self.rng.randrange(1, 2 ** 31))

    def write(self, doc: dict) -> str:
        path = os.path.join(self.outdir, doc["name"] + ".json")
        with open(path, "w") as f:
            f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return path

    def op(self, argv, **expect):
        expect.setdefault("exit", 0)
        self.ops.append({"argv": list(argv), "expect": expect})

    def chart(self, name: str, n: int, **kw) -> tuple:
        """Write a chart config; return its path and closed-form facts."""
        m = self.draw(0.5, 1.5)
        lee = kw.pop("lee", "none")
        b = self.draw(0.1, 0.4) if lee != "none" else 0.0
        doc = chart_doc(name, n, m, lee=lee, b=b, **kw)
        facts = {"raw_mass": raw_mass(n, m), "weyl_mass": weyl_mass(n, m, lee, b)}
        return self.write(_as_config(doc)), facts

    def spinor(self, n: int, name: str) -> tuple:
        """A constant spinor and its |psi_0|^2."""
        N = 2 ** (n // 2)
        comps = [(self.draw(-1.0, 1.0), self.draw(-1.0, 1.0)) for _ in range(N)]
        return (name, comps), sum(re * re + im * im for re, im in comps)


def _pointwise(g: _Gen) -> None:
    lee3, _ = g.chart("pw-n3-radial", 3, lee="radial",
                      offdiag=g.draw(-0.5, 0.5))
    rot3, _ = g.chart("pw-n3-rot", 3, lee="rot")
    iso4, _ = g.chart("pw-n4-iso", 4)
    lee4, _ = g.chart("pw-n4-radial", 4, lee="radial")
    off5, _ = g.chart("pw-n5-offdiag", 5, offdiag=g.draw(-0.5, 0.5))
    rot6, _ = g.chart("pw-n6-rot", 6, lee="rot")
    g.op(["check", lee3])
    g.op(["check", off5])
    g.op(["curvature", iso4, "--seed", g.seed(), "--jet-order", "3"],
         scalar_flat=True)
    g.op(["identities", "schwarzschild-lee", "--seed", g.seed()])
    g.op(["identities", rot3, "--seed", g.seed(), "--jet-order", "3"])
    g.op(["identities", lee4, "--seed", g.seed()])
    g.op(["identities", off5, "--seed", g.seed()])
    g.op(["identities", rot6, "--seed", g.seed()])


def _metric_flux(g: _Gen) -> None:
    zero, fz = g.chart("mf-n3-offdiag", 3, offdiag=g.draw(-0.5, 0.5))
    rad, fr = g.chart("mf-n3-radial", 3, lee="radial")
    rot, fo = g.chart("mf-n3-rot", 3, lee="rot")
    a = g.draw(1.5, 4.0)
    m1, m2 = g.draw(0.5, 1.5), g.draw(0.5, 1.5)
    ends = ends_doc("mf-twoends", [(1.0, chart_doc("near", 3, m1)),
                                   (a, chart_doc("far", 3, m2))])
    two = g.write(ends)
    per_end = [weyl_mass(3, m1), weyl_mass(3, m2)]
    total = per_end[0] + math.sqrt(a) * per_end[1]
    g.op(["mass", zero], mass=fz["raw_mass"])
    g.op(["weyl-mass", rad], mass=fr["weyl_mass"])
    g.op(["weyl-mass", two], mass=total)
    g.op(["laws", rot, "--seed", g.seed()], mass=fo["weyl_mass"],
         raw_mass=fo["raw_mass"])
    g.op(["laws", two, "--seed", g.seed()], total=total, per_end=per_end)
    g.op(["mass", rad, "--radii", "20,40"], exit=2)
    g.op(["mass", two], exit=2)


def _spinor_flux(g: _Gen) -> None:
    # three spinors on one chart, like the bundled schwarzschild-lee: the
    # Witten battery rebuilds the spin frame for each of them
    spinors = [g.spinor(3, f"const{k}") for k in range(3)]
    path, facts = g.chart("sf-n3-radial", 3, lee="radial",
                          spinors=[sp for sp, _ in spinors])
    g.op(["witten", path], mass=facts["weyl_mass"],
         witten={sp[0]: 0.25 * facts["weyl_mass"] * nrm2 for sp, nrm2 in spinors})


_BUILDERS = {"pointwise": _pointwise, "metric-flux": _metric_flux,
             "spinor-flux": _spinor_flux}


def generate(workload: str, seed: int, outdir: str) -> list:
    """Write the workload's configs under ``outdir``; return its op cycle.

    Each op is ``{"argv": [...], "expect": {...}}``; ``expect`` holds the
    exit code and the closed-form values the verifier compares against.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} ({', '.join(WORKLOADS)})")
    os.makedirs(outdir, exist_ok=True)
    g = _Gen(workload, seed, outdir)
    _BUILDERS[workload](g)
    return g.ops
