"""Run one confmass command under the benchmark's tracer.

    python3 benchmark/tracer.py SPANS.json -- <confmass arguments>

Wraps the public functions of every layer module (and the names other
modules bound to them with ``from ... import``), counts jet products
and quotients with class-level wrappers on ``Jet``, then calls
``confmass.cli.main``.  Spans (name, start, end, parent, extra) stay in
memory and are written to SPANS.json when the command ends, together
with the counters and the command line that identifies the op.  The
report on stdout and the exit code are the command's own; a target
that no longer exists stops the run with an error instead of reading
as a silent zero.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# module.function -> workloads whose cycle must call it at least once
ALL = ("pointwise", "metric-flux", "spinor-flux")
POINT = ("pointwise",)
FLUX = ("metric-flux", "spinor-flux")
TARGETS = {
    "cli.main": ALL,
    "config.load_config": ALL,
    "exprdsl.evaluate": ALL,
    "jets.evaluate_jet": ALL,
    "jetlinalg.mat_inv": ALL,
    "jetlinalg.mat_det": ALL,
    "jetlinalg.spd_sqrt": ("pointwise", "spinor-flux"),
    "chart.metric_jets": ALL,
    "chart.decay_scan": POINT,
    "curvature.christoffels": ("pointwise", "spinor-flux"),
    "curvature.curvature": POINT,
    "curvature.codiff_oneform": POINT,
    "weyl.weyl_scalar": POINT,
    "clifford.mul_vector": POINT,
    "clifford.mul_form": POINT,
    "spinor.frame_spin_connection": ("pointwise", "spinor-flux"),
    "spinor.covd_coord": ("pointwise", "spinor-flux"),
    "spinor.covd_frame": ("pointwise", "spinor-flux"),
    "spinor.lichnerowicz_I_residual": POINT,
    "spinor.lichnerowicz_II_residual": POINT,
    "spinor.norm_identity_residual": POINT,
    "spinor.dirac_squared_expansion": POINT,
    "mass.adm_flux": FLUX,
    "mass.lee_flux": FLUX,
    "mass.gradient_flux": ("metric-flux",),
    "mass.witten_flux": ("spinor-flux",),
    "mass._flux": FLUX,
    "mass._measure_factors": FLUX,
    "mass.extrapolate": FLUX,
    "util.chunked_map": FLUX,
    "suites.identity_battery": POINT,
    "suites.clifford_battery": POINT,
    "suites.curvature_battery": POINT,
    "suites.laws_battery": ("metric-flux",),
    "suites.witten_battery": ("spinor-flux",),
}
JET_METHODS = ("__mul__", "__rmul__", "__truediv__")


class Tracer:
    """Spans and counters of one op, kept in memory until it ends."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, extra]
        self.stack = []
        self.counts = {f"Jet.{m}": 0 for m in JET_METHODS}
        self._charts = {}

    def chart_key(self, chart) -> str:
        """Content identity of a chart, so rebuilt copies compare equal."""
        hit = self._charts.get(id(chart))
        if hit is None or hit[1] is not chart:
            hit = (repr((chart.n, chart.r_min, chart.metric, chart.lee,
                         sorted(chart.params.items()))), chart)
            self._charts[id(chart)] = hit
        return hit[0]

    def span(self, name, fn, extra=None):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if extra:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = extra(self, bound.arguments)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, info]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper


def _points(tr, a):
    shape = getattr(a["points"], "shape", ())
    return {"points": int(shape[1]) if len(shape) == 2 else 1}


def _flux_key(kind):
    def extra(tr, a):
        rest = [repr(v) for k, v in a.items() if k != "chart"]
        return {"kind": kind,
                "key": "|".join([kind, tr.chart_key(a["chart"])] + rest)}
    return extra


def _sample(tr, a):
    return {"sample": f"{tr.chart_key(a['chart'])}|{a['r']!r}|{a['orders']!r}"}


def _chunks(tr, a):
    return {"count": int(a["count"])}


def _width(tr, a):
    return {"width": int(a["X"].shape[1])}


EXTRA = {
    "chart.metric_jets": _points,
    "mass.adm_flux": _flux_key("adm"),
    "mass.lee_flux": _flux_key("lee"),
    "mass.gradient_flux": _flux_key("gradient"),
    "mass.witten_flux": _flux_key("witten"),
    "mass._flux": _sample,
    "mass._measure_factors": _width,
    "util.chunked_map": _chunks,
}


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target and every alias bound to it in a confmass module.

    Raises LookupError naming each target that does not exist.
    """
    import importlib

    mods = {}
    for name in sorted({t.split(".")[0] for t in targets} | {"jets"}):
        mods[name] = importlib.import_module(f"confmass.{name}")
    missing = [t for t in targets
               if not callable(getattr(mods[t.split(".")[0]], t.split(".")[1], None))]
    Jet = getattr(mods["jets"], "Jet", None)
    missing += [f"jets.Jet.{m}" for m in JET_METHODS
                if Jet is None or m not in vars(Jet)]
    if missing:
        raise LookupError("trace targets not found: " + ", ".join(missing))
    loaded = [m for k, m in sys.modules.items()
              if k == "confmass" or k.startswith("confmass.")]
    for target in targets:
        mod, attr = target.split(".")
        fn = getattr(mods[mod], attr)
        wrapped = tracer.span(target, fn, EXTRA.get(target))
        for m in loaded:
            for alias, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, alias, wrapped)
    for meth in JET_METHODS:
        setattr(Jet, meth, tracer.counter(f"Jet.{meth}", vars(Jet)[meth]))


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <confmass arguments>", file=sys.stderr)
        return 2
    out, cmd = argv[0], argv[2:]
    import confmass.cli  # timed by -X importtime

    tracer = Tracer()
    install(tracer)
    try:
        code = confmass.cli.main(cmd)
    finally:
        sys.stdout.flush()
        with open(out, "w") as f:
            json.dump({"op": cmd, "spans": tracer.spans, "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
