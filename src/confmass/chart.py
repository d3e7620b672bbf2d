"""Asymptotically flat metric charts with Lee forms.

A chart is the analytic description of one end: a dimension n >= 3, a
symmetric metric g_ij given by expressions, a Lee 1-form theta_i, named
parameters, a decay rate tau with (n-2)/2 < tau < n-2, and an inner
radius r_min beyond which the data is valid.  Several ends form an
EndSystem, each carrying a normalization weight a_l > 0.

The jet front end lives here too: ``metric_jets`` evaluates g, its
inverse and sqrt(det g) as jets at a point or point batch, checking
positive definiteness of the value part (``metric_entry_jets`` gives g
alone, unchecked), and ``lee_jets`` does the same for theta.  Each
tensor is one batched Jet (m, B, *index); a single point (n,) is a batch
of one.  ``decay_scan`` estimates actual decay exponents along rays as a
sanity check against the declared tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import exprdsl, jetlinalg, jets
from .exprdsl import COORD_RE, ExprAst, Num, parse, to_source
from .jets import Jet, JetSpace

__all__ = [
    "ChartError", "MetricChart", "End", "EndSystem", "MetricData",
    "make_chart", "metric_entry_jets", "metric_jets", "lee_jets", "decay_scan",
    "DecayReport", "conformal_rescale", "scale_coordinates",
]

MAX_DIM = 8


class ChartError(ValueError):
    """Invalid chart data (dimensions, decay range, SPD failure, ...)."""


@dataclass(frozen=True)
class MetricChart:
    n: int
    tau: float
    r_min: float
    metric: tuple[tuple[ExprAst, ...], ...]  # full symmetric n x n
    lee: tuple[ExprAst, ...]
    params: Mapping[str, float] = field(default_factory=dict)
    name: str = ""

    def metric_source(self) -> dict[str, str]:
        return {f"{i + 1}{j + 1}": to_source(self.metric[i][j])
                for i in range(self.n) for j in range(i, self.n)}

    def lee_source(self) -> list[str]:
        return [to_source(t) for t in self.lee]

    @property
    def has_lee(self) -> bool:
        """False when every Lee component is the literal 0."""
        return not all(isinstance(t, Num) and t.value == 0.0 for t in self.lee)


@dataclass(frozen=True)
class End:
    chart: MetricChart
    a: float = 1.0


@dataclass(frozen=True)
class EndSystem:
    ends: tuple[End, ...]
    name: str = ""

    @property
    def n(self) -> int:
        return self.ends[0].chart.n


def _as_expr(e) -> ExprAst:
    if isinstance(e, str):
        return parse(e)
    return e


def _probe_directions(n: int, count: int = 16) -> np.ndarray:
    """Deterministic unit directions: coordinate axes, then seeded fill."""
    dirs = []
    for i in range(n):
        for s in (1.0, -1.0):
            v = np.zeros(n)
            v[i] = s
            dirs.append(v)
    rng = np.random.Generator(np.random.PCG64(0))
    while len(dirs) < count:
        v = rng.normal(size=n)
        dirs.append(v / np.linalg.norm(v))
    return np.array(dirs[:count]).T  # (n, count)


def make_chart(n: int, tau: float, r_min: float,
               metric: Mapping | None = None,
               lee: Mapping | Sequence | None = None,
               params: Mapping[str, float] | None = None,
               name: str = "", validate: bool = True) -> MetricChart:
    """Build and validate a chart.

    ``metric`` maps "ij" strings (or (i, j) 1-based tuples) to expression
    sources for i <= j; missing diagonal entries default to 1 and missing
    off-diagonal entries to 0.  ``lee`` is a sequence of n sources or a
    mapping from "i" / i to sources; missing components default to 0.
    """
    if not 3 <= n <= MAX_DIM:
        raise ChartError(f"dimension must satisfy 3 <= n <= {MAX_DIM}, got {n}")
    lo, hi = (n - 2) / 2, float(n - 2)
    if not lo < tau < hi:
        raise ChartError(f"decay rate tau={tau} outside ({lo}, {hi}) for n={n}")
    if not (r_min > 0 and math.isfinite(r_min)):
        raise ChartError(f"r_min must be positive and finite, got {r_min}")

    params = dict(params or {})
    for k, v in params.items():
        if COORD_RE.match(k) or k == "r":
            raise ChartError(f"parameter name {k!r} shadows a reserved identifier")
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ChartError(f"parameter {k!r} must be a finite number, got {v!r}")

    def norm_key(key) -> tuple[int, int]:
        if isinstance(key, str):
            if len(key) != 2 or not key.isdigit():
                raise ChartError(f"metric key {key!r} must be 'ij' with single digits")
            i, j = int(key[0]), int(key[1])
        else:
            i, j = key
        if not (1 <= i <= n and 1 <= j <= n):
            raise ChartError(f"metric index {key!r} out of range for n={n}")
        return (i - 1, j - 1) if i <= j else (j - 1, i - 1)

    upper: dict[tuple[int, int], ExprAst] = {}
    for key, src in (metric or {}).items():
        ij = norm_key(key)
        if ij in upper:
            raise ChartError(f"metric entry {key!r} given twice (symmetry)")
        upper[ij] = _as_expr(src)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            a, b = (i, j) if i <= j else (j, i)
            row.append(upper.get((a, b), Num(1.0) if i == j else Num(0.0)))
        rows.append(tuple(row))
    metric_t = tuple(rows)

    lee_list: list[ExprAst] = [Num(0.0)] * n
    if lee is not None:
        if isinstance(lee, Mapping):
            for key, src in lee.items():
                i = int(key)
                if not 1 <= i <= n:
                    raise ChartError(f"lee index {key!r} out of range for n={n}")
                lee_list[i - 1] = _as_expr(src)
        else:
            lee_seq = list(lee)
            if len(lee_seq) != n:
                raise ChartError(f"lee form needs {n} components, got {len(lee_seq)}")
            lee_list = [_as_expr(e) for e in lee_seq]

    chart = MetricChart(n=n, tau=float(tau), r_min=float(r_min),
                        metric=metric_t, lee=tuple(lee_list),
                        params=params, name=name)
    if validate:
        _validate_chart(chart)
    return chart


def _validate_chart(chart: MetricChart):
    allowed = {f"x{i + 1}" for i in range(chart.n)} | {"r"} | set(chart.params)
    for i in range(chart.n):
        for j in range(i, chart.n):
            bad = exprdsl.identifiers(chart.metric[i][j]) - allowed
            if bad:
                raise ChartError(f"metric g{i + 1}{j + 1} uses unknown identifiers {sorted(bad)}")
    for i, t in enumerate(chart.lee):
        bad = exprdsl.identifiers(t) - allowed
        if bad:
            raise ChartError(f"lee component {i + 1} uses unknown identifiers {sorted(bad)}")

    # positive definiteness probe on the sphere r = 8 r_min
    pts = 8.0 * chart.r_min * _probe_directions(chart.n)
    md = metric_jets(chart, pts, order=1, check_spd=False)
    gv = md.g.value  # (16, n, n)
    if not np.all(np.isfinite(gv)):
        raise ChartError("metric evaluates to a non-finite value at an SPD probe point")
    for q in range(gv.shape[0]):
        try:
            np.linalg.cholesky(gv[q])
        except np.linalg.LinAlgError:
            raise ChartError(
                f"metric is not positive definite at probe point {pts[:, q].tolist()}") from None


def samples_valid(chart: MetricChart, points: np.ndarray) -> bool:
    """True if all points lie outside the chart's inner radius."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    r = np.sqrt(np.sum(points * points, axis=0))
    return bool(np.all(r >= chart.r_min))


@dataclass
class MetricData:
    """Metric jets at a batch of B points ``points`` (n, B).

    ``coords`` are the n coordinate jets (m, B) the entries were
    evaluated on; ``g`` and ``ginv`` are (m, B, i, j), ``det`` and
    ``sqrt_det`` are (m, B).
    """
    chart: MetricChart
    space: JetSpace
    points: np.ndarray
    coords: list[Jet]
    g: Jet
    ginv: Jet
    det: Jet
    sqrt_det: Jet

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def order(self) -> int:
        return self.space.order


def _batch(points) -> np.ndarray:
    """Points as an (n, B) array; a single point (n,) is a batch of one."""
    points = np.asarray(points, dtype=np.float64)
    return points[:, None] if points.ndim == 1 else points


def metric_entry_jets(chart: MetricChart, coords: list[Jet]) -> Jet:
    """g as one jet (m, B, i, j) over the coordinate jets ``coords``;
    the upper triangle is evaluated as one program and mirrored."""
    n = chart.n
    iu, ju = np.triu_indices(n)
    upper = jets.evaluate_jet([chart.metric[i][j] for i, j in zip(iu, ju)],
                              coords, chart.params).c
    g = np.empty(coords[0].c.shape + (n, n))
    g[..., iu, ju] = upper
    g[..., ju, iu] = upper
    return Jet(coords[0].space, g)


def metric_jets(chart: MetricChart, points, order: int = 2,
                check_spd: bool = True) -> MetricData:
    """Evaluate g, g^{-1}, det g and sqrt(det g) as jets at ``points``."""
    points = _batch(points)
    if points.shape[0] != chart.n:
        raise ChartError(f"points have {points.shape[0]} coordinates, chart has n={chart.n}")
    space, coords = jets.seed_point(points, order)
    g = metric_entry_jets(chart, coords)

    if check_spd:
        gm = g.value
        if not np.all(np.isfinite(gm)):
            raise ChartError("metric evaluates to a non-finite value")
        try:
            np.linalg.cholesky(gm)
        except np.linalg.LinAlgError:
            for q in range(gm.shape[0]):
                try:
                    np.linalg.cholesky(gm[q])
                except np.linalg.LinAlgError:
                    raise ChartError(
                        f"metric is not positive definite at {points[:, q].tolist()}") from None

    ginv = jetlinalg.mat_inv(g)
    det = jetlinalg.mat_det(g)
    sqrt_det = jets.jet_sqrt(det)
    return MetricData(chart=chart, space=space, points=points, coords=coords,
                      g=g, ginv=ginv, det=det, sqrt_det=sqrt_det)


def lee_jets(chart: MetricChart, points, order: int = 2,
             coords: list[Jet] | None = None) -> Jet:
    """The Lee form as one jet (m, B, i) at ``points`` (reuses the
    coordinate jets ``coords`` if given)."""
    if coords is None:
        _, coords = jets.seed_point(_batch(points), order)
    return jets.evaluate_jet(chart.lee, coords, chart.params)


# ---------------------------------------------------------------------------
# decay diagnostics

@dataclass
class DecayReport:
    tau_declared: float
    tau_hat: float | None           # worst fitted metric exponent, None if all flat
    slots: dict[str, dict]          # per-component fit data
    passed: bool
    exactly_flat: bool

    def summary(self) -> str:
        if self.exactly_flat:
            return "exactly flat"
        return f"tau_hat={self.tau_hat:.3f} vs declared {self.tau_declared} -> " + \
            ("ok" if self.passed else "FAIL")


FLAT_FLOOR = 1e-15


def decay_scan(chart: MetricChart, rays: int = 8,
               radii: np.ndarray | None = None) -> DecayReport:
    """Estimate decay exponents of g - delta and theta along rays.

    Log-log slopes of ray-averaged magnitudes are fitted over log-spaced
    radii.  A metric slot passes if its fitted exponent is at least
    tau - 0.1; a Lee slot needs tau + 1 - 0.1.  Slots whose samples all
    sit below 1e-15 are reported exactly flat and pass trivially.
    """
    n = chart.n
    if radii is None:
        radii = np.geomspace(50.0 * chart.r_min, 5000.0 * chart.r_min, 5)
    radii = np.asarray(radii, dtype=np.float64)
    dirs = _probe_directions(n, rays)  # (n, rays)
    # all sample points in one batch: (n, rays*len(radii))
    pts = (dirs[:, :, None] * radii[None, None, :]).reshape(n, -1)

    logr = np.log(radii)
    slots: dict[str, dict] = {}
    tau_fits: list[float] = []
    passed = True

    def fit(name: str, vals: np.ndarray, required: float, kind: str):
        nonlocal passed
        mags = np.abs(vals).reshape(rays, len(radii)).mean(axis=0)
        if np.all(mags < FLAT_FLOOR):
            slots[name] = {"kind": kind, "exactly_flat": True, "passed": True}
            return None
        slope, _ = np.polyfit(logr, np.log(np.maximum(mags, 1e-300)), 1)
        est = -float(slope)
        ok = est >= required - 0.1
        passed = passed and ok
        slots[name] = {"kind": kind, "exactly_flat": False, "exponent": est,
                       "required": required, "passed": ok}
        return est

    iu, ju = np.triu_indices(n)
    metric = exprdsl.evaluate([chart.metric[i][j] for i, j in zip(iu, ju)], pts, chart.params)
    for t, (i, j) in enumerate(zip(iu, ju)):
        est = fit(f"g{i + 1}{j + 1}", metric[:, t] - (1.0 if i == j else 0.0),
                  chart.tau, "metric")
        if est is not None:
            tau_fits.append(est)
    lee = exprdsl.evaluate(chart.lee, pts, chart.params)
    for i in range(n):
        fit(f"theta{i + 1}", lee[:, i], chart.tau + 1.0, "lee")

    exactly_flat = all(s.get("exactly_flat") for s in slots.values())
    tau_hat = min(tau_fits) if tau_fits else None
    return DecayReport(tau_declared=chart.tau, tau_hat=tau_hat, slots=slots,
                       passed=passed, exactly_flat=exactly_flat)


# ---------------------------------------------------------------------------
# chart transforms

def conformal_rescale(chart: MetricChart, factor,
                      extra_params: Mapping[str, float] | None = None,
                      validate: bool = True) -> MetricChart:
    """The chart of (f g, theta - df/(2f)) for a positive conformal factor f.

    This is the closed-form counterpart of the jet-level Lee transform:
    rescaling the metric inside the conformal class shifts the Lee form by
    -d(log f)/2, which keeps the associated torsion-free connection fixed.
    """
    f = _as_expr(factor)
    params = dict(chart.params)
    params.update(extra_params or {})
    metric = {(i + 1, j + 1): exprdsl.emul(f, chart.metric[i][j])
              for i in range(chart.n) for j in range(i, chart.n)}
    lee = []
    for i in range(chart.n):
        df = exprdsl.derivative(f, f"x{i + 1}")
        shift = exprdsl.ediv(df, exprdsl.emul(Num(2.0), f))
        lee.append(exprdsl.esub(chart.lee[i], shift))
    return make_chart(chart.n, chart.tau, chart.r_min, metric=metric, lee=lee,
                      params=params, name=(chart.name + "~rescaled") if chart.name else "rescaled",
                      validate=validate)


def scale_coordinates(chart: MetricChart, a: float, validate: bool = True) -> MetricChart:
    """The chart in scaled coordinates z~ = sqrt(a) z.

    Components transform as pullbacks: g~_ij(z~) = g_ij(z~/sqrt(a)) and
    theta~_i(z~) = a^{-1/2} theta_i(z~/sqrt(a)); the valid region starts
    at sqrt(a) r_min.
    """
    if not a > 0:
        raise ChartError(f"scale factor must be positive, got {a}")
    s = 1.0 / math.sqrt(a)
    mapping = {f"x{i + 1}": exprdsl.emul(Num(s), exprdsl.Var(f"x{i + 1}"))
               for i in range(chart.n)}
    mapping["r"] = exprdsl.emul(Num(s), exprdsl.Var("r"))
    metric = {(i + 1, j + 1): exprdsl.substitute(chart.metric[i][j], mapping)
              for i in range(chart.n) for j in range(i, chart.n)}
    lee = [exprdsl.emul(Num(s), exprdsl.substitute(t, mapping)) for t in chart.lee]
    return make_chart(chart.n, chart.tau, math.sqrt(a) * chart.r_min,
                      metric=metric, lee=lee, params=dict(chart.params),
                      name=(chart.name + "~scaled") if chart.name else "scaled",
                      validate=validate)
