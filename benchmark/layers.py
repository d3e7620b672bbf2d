"""Per-layer metrics from one traced op's spans, counters and import log.

A layer's self time is its span's duration minus the time its child
spans cover.  Times named ``*_s`` are self times, except the container
spans ``config.load_s``, ``clifford.battery_s``, ``suites.battery_s.*``
and ``mass.flux_s.*``, which are inclusive.  Counts are exact.
"""

from __future__ import annotations

from collections import Counter, defaultdict

__all__ = ["METRICS", "op_totals", "derive", "import_times"]

# name -> unit, in print order
METRICS = {
    "import.total_s": "s", "import.scipy_s": "s",
    "config.load_s": "s",
    "exprdsl.evaluate_calls": "count", "exprdsl.evaluate_s": "s",
    "jets.mul_calls": "count", "jets.div_calls": "count",
    "jets.evaluate_jet_s": "s",
    "jetlinalg.mat_inv_calls": "count", "jetlinalg.mat_inv_s": "s",
    "jetlinalg.mat_det_s": "s",
    "jetlinalg.spd_sqrt_calls": "count", "jetlinalg.spd_sqrt_s": "s",
    "jetlinalg.spd_sqrt_inv_per_call": "ratio",
    "chart.metric_jets_calls": "count", "chart.metric_jets_points": "count",
    "chart.metric_jets_s": "s", "chart.decay_scan_s": "s",
    "curvature.christoffels_s": "s", "curvature.curvature_s": "s",
    "curvature.codiff_s": "s", "weyl.weyl_scalar_s": "s",
    "clifford.battery_s": "s", "clifford.mul_calls": "count",
    "spinor.frame_builds": "count", "spinor.frame_builds_per_sample": "ratio",
    "spinor.frame_s": "s", "spinor.covd_s": "s", "spinor.residual_s": "s",
    "mass.flux_calls": "count", "mass.flux_distinct_ratio": "ratio",
    "mass.nodes": "count",
    "mass.flux_s.adm": "s", "mass.flux_s.lee": "s",
    "mass.flux_s.gradient": "s", "mass.flux_s.witten": "s",
    "mass.measure_s": "s",
    "mass.extrapolate_calls": "count", "mass.extrapolate_s": "s",
    "util.chunks": "count", "util.chunk_width_mean": "count",
    "suites.battery_s.identities": "s", "suites.battery_s.curvature": "s",
    "suites.battery_s.laws": "s", "suites.battery_s.witten": "s",
}

SELF = {
    "exprdsl.evaluate_s": ["exprdsl.evaluate"],
    "jets.evaluate_jet_s": ["jets.evaluate_jet"],
    "jetlinalg.mat_inv_s": ["jetlinalg.mat_inv"],
    "jetlinalg.mat_det_s": ["jetlinalg.mat_det"],
    "jetlinalg.spd_sqrt_s": ["jetlinalg.spd_sqrt"],
    "chart.metric_jets_s": ["chart.metric_jets"],
    "chart.decay_scan_s": ["chart.decay_scan"],
    "curvature.christoffels_s": ["curvature.christoffels"],
    "curvature.curvature_s": ["curvature.curvature"],
    "curvature.codiff_s": ["curvature.codiff_oneform"],
    "weyl.weyl_scalar_s": ["weyl.weyl_scalar"],
    "spinor.frame_s": ["spinor.frame_spin_connection"],
    "spinor.covd_s": ["spinor.covd_coord", "spinor.covd_frame"],
    "spinor.residual_s": ["spinor.lichnerowicz_I_residual",
                          "spinor.lichnerowicz_II_residual",
                          "spinor.norm_identity_residual",
                          "spinor.dirac_squared_expansion"],
    "mass.measure_s": ["mass._measure_factors"],
    "mass.extrapolate_s": ["mass.extrapolate"],
}
INCL = {
    "config.load_s": "config.load_config",
    "clifford.battery_s": "suites.clifford_battery",
    "suites.battery_s.identities": "suites.identity_battery",
    "suites.battery_s.curvature": "suites.curvature_battery",
    "suites.battery_s.laws": "suites.laws_battery",
    "suites.battery_s.witten": "suites.witten_battery",
    "mass.flux_s.adm": "mass.adm_flux",
    "mass.flux_s.lee": "mass.lee_flux",
    "mass.flux_s.gradient": "mass.gradient_flux",
    "mass.flux_s.witten": "mass.witten_flux",
}
CALLS = {
    "exprdsl.evaluate_calls": ["exprdsl.evaluate"],
    "jetlinalg.mat_inv_calls": ["jetlinalg.mat_inv"],
    "jetlinalg.spd_sqrt_calls": ["jetlinalg.spd_sqrt"],
    "chart.metric_jets_calls": ["chart.metric_jets"],
    "clifford.mul_calls": ["clifford.mul_vector", "clifford.mul_form"],
    "spinor.frame_builds": ["spinor.frame_spin_connection"],
    "mass.flux_calls": ["mass.adm_flux", "mass.lee_flux",
                        "mass.gradient_flux", "mass.witten_flux"],
    "mass.extrapolate_calls": ["mass.extrapolate"],
    "util.chunks": ["mass._measure_factors"],
}
# ratio metrics: name -> (numerator total, denominator total)
RATIOS = {
    "jetlinalg.spd_sqrt_inv_per_call": ("spd_inner_inv", "jetlinalg.spd_sqrt_calls"),
    "spinor.frame_builds_per_sample": ("flux_frame_builds", "distinct_samples"),
    "mass.flux_distinct_ratio": ("distinct_fluxes", "mass.flux_calls"),
    "util.chunk_width_mean": ("chunk_width_sum", "util.chunks"),
}


def import_times(stderr: str) -> dict:
    """confmass and scipy import times from ``-X importtime`` lines."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        rows.append((level, name.strip(), int(parts[1]) * 1e-6))
    total = scipy = 0.0
    stack = {}
    for level, name, cum in reversed(rows):  # parents before children
        stack[level] = name
        parent = stack.get(level - 1, "") if level else ""
        if level == 0 and name.split(".")[0] == "confmass":
            total += cum
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy += cum
    return {"import.total_s": total, "import.scipy_s": scipy}


def op_totals(trace: dict, stderr: str) -> Counter:
    """Additive totals (times, counts, ratio parts) of one traced op."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    t = Counter()
    self_by = defaultdict(float)
    incl_by = defaultdict(float)
    calls = Counter()
    fluxes = set()
    samples = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        self_by[name] += dur - child[i]
        incl_by[name] += dur
        calls[name] += 1
        pname = spans[parent][0] if parent >= 0 else ""
        if name == "jetlinalg.mat_inv" and pname == "jetlinalg.spd_sqrt":
            t["spd_inner_inv"] += 1
        if name in CALLS["mass.flux_calls"]:
            fluxes.add(extra["key"])
        if name == "mass._flux":
            samples.setdefault(extra["sample"], i)
        if name == "util.chunked_map" and pname == "mass._flux":
            t["mass.nodes"] += extra["count"]
    # chunks, widths and frame builds per _flux span
    flux_of = {}
    for i, (name, start, end, parent, extra) in enumerate(spans):
        p = parent
        while p >= 0 and spans[p][0] != "mass._flux":
            p = spans[p][3]
        if p < 0:
            continue
        flux_of.setdefault(p, Counter())
        if name == "mass._measure_factors":
            flux_of[p]["chunks"] += 1
            t["chunk_width_sum"] += extra["width"]
        elif name == "spinor.frame_spin_connection":
            t["flux_frame_builds"] += 1
    t["distinct_samples"] = sum(flux_of.get(i, Counter())["chunks"]
                                for i in samples.values())
    t["distinct_fluxes"] = len(fluxes)
    for metric, names in SELF.items():
        t[metric] = sum(self_by[n] for n in names)
    for metric, name in INCL.items():
        t[metric] = incl_by[name]
    for metric, names in CALLS.items():
        t[metric] = sum(calls[n] for n in names)
    counts = trace["counts"]
    t["jets.mul_calls"] = counts["Jet.__mul__"] + counts["Jet.__rmul__"]
    t["jets.div_calls"] = counts["Jet.__truediv__"]
    t["chart.metric_jets_points"] = sum(e["points"] for n, _, _, _, e in spans
                                        if n == "chart.metric_jets")
    t.update(import_times(stderr))
    for name, c in calls.items():
        t["calls:" + name] = c
    return t


def derive(total: Counter) -> dict:
    """Metric values from summed op totals."""
    out = {}
    for name in METRICS:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = total[num] / total[den] if total[den] else 0.0
        else:
            out[name] = float(total[name])
    return out
