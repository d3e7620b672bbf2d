"""Asymptotically flat metric charts with Lee forms.

A chart is the analytic description of one end: a dimension n >= 3, a
symmetric metric g_ij given by expressions, a Lee 1-form theta_i, named
parameters, a decay rate tau with (n-2)/2 < tau < n-2, and an inner
radius r_min beyond which the data is valid.  Several ends form an
EndSystem, each carrying a normalization weight a_l > 0.

``make_chart`` checks the expressions and keeps only their programs,
lowered once with n and the params bound: ``metric`` (the n^2 entries
row-major, one slot per symmetric pair) and ``lee``, which every chart
evaluator runs.  A derived chart (``conformal_rescale``, which takes
the ``factor_program`` of its factor, and ``scale_coordinates``) has
programs the ``exprdsl`` transforms build on the base chart's, validated
as ``make_chart`` validates.

The jet front end lives here too: ``metric_jets`` evaluates g and its
inverse as jets at a point or point batch, checking positive
definiteness of the value part first, and its ``MetricData`` builds
sqrt(det g) on first read; ``metric_entry_jets`` (g, unchecked) and
``lee_jets`` (theta) evaluate over given coordinate jets, and
``metric_values`` gives the plain values of g.  Each tensor is one
batched Jet (m, B, *index); a single point (n,) is a batch of one.
``decay_scan`` estimates actual decay exponents along rays as a sanity
check against the declared tau.  ``spinor_program`` lowers spinor
fields, each given by its (re, im) component sources, on one chart:
``config.parse_config`` lowers a config's fields once per chart, beside
the metric and Lee programs.  ``spinor_count`` is the number of
components of a spinor in dimension n.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import exprdsl, jetlinalg, jets
from .exprdsl import COORD_RE, ExprAst, Num, as_expr
from .jets import Jet, JetSpace

__all__ = [
    "ChartError", "MetricChart", "End", "EndSystem", "MetricData", "make_chart",
    "spinor_count", "spinor_program", "spinor_components", "bound_identifiers",
    "metric_entry_jets", "metric_jets", "metric_values", "lee_jets", "decay_scan",
    "DecayReport", "factor_program", "conformal_rescale", "scale_coordinates",
]

MAX_DIM = 8


class ChartError(ValueError):
    """Invalid chart data (dimensions, decay range, SPD failure, ...)."""


class MetricChart(NamedTuple):
    n: int
    tau: float
    r_min: float
    metric: exprdsl.Program  # the n^2 entries, row-major
    lee: exprdsl.Program     # the n components
    params: Mapping[str, float]
    name: str = ""

    @property
    def has_lee(self) -> bool:
        """False when every Lee component is the constant 0."""
        code = self.lee.code
        return not all(code[k][0] == "const" and code[k][1] == 0.0 for k in self.lee.outputs)


class End(NamedTuple):
    chart: MetricChart
    a: float = 1.0


class EndSystem(NamedTuple):
    ends: tuple[End, ...]
    name: str = ""

    @property
    def n(self) -> int:
        return self.ends[0].chart.n


def spinor_count(n: int) -> int:
    """N = 2^(n//2), the number of components of a spinor in dimension n."""
    return 2 ** (n // 2)


def spinor_program(chart: MetricChart, fields: Sequence[Sequence]) -> exprdsl.Program:
    """The components of ``fields``, each a sequence of (re, im) source
    pairs (strings or trees), lowered with the chart's n and params,
    field after field and re before im; ``spinor_components`` reads its
    outputs.  Every field needs the ``spinor_count`` components of the
    chart's dimension."""
    N = spinor_count(chart.n)
    for field in fields:
        if len(field) != N:
            raise ChartError(f"a spinor in n = {chart.n} has {N} components, "
                             f"got {len(field)}")
    return exprdsl.lower([as_expr(t) for field in fields for pair in field for t in pair],
                         chart.n, chart.params)


def spinor_components(values: np.ndarray, n: int) -> np.ndarray:
    """The outputs of a ``spinor_program`` over n coordinates, stacked on
    the last axis of ``values``, as complex fields (..., S, N)."""
    return values.view(np.complex128).reshape(values.shape[:-1] + (-1, spinor_count(n)))


def bound_identifiers(n: int, params: Mapping[str, float]) -> set:
    """The names an expression on a chart of dimension n with ``params``
    may use: the coordinates, ``r`` and the parameters."""
    return {f"x{i + 1}" for i in range(n)} | {"r"} | set(params)


def _probe_directions(n: int, count: int = 16) -> np.ndarray:
    """Deterministic unit directions: +-e_1, +-e_2, ..., then the
    closed-form fill v_i = sin(k/2 + i), i = 0..n-1, for k = 1, 2, ...,
    normalised.  No fill component is zero, so a slot that vanishes on
    every axis (x1 x3 / r^5, say) is still sampled off them."""
    axes = np.zeros((2 * n, n))
    axes[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([1.0, -1.0], n)
    fill = np.sin(0.5 * np.arange(1, count + 1)[:, None] + np.arange(n))
    fill /= np.linalg.norm(fill, axis=1, keepdims=True)
    return np.concatenate([axes, fill])[:count].T  # (n, count)


def make_chart(n: int, tau: float, r_min: float,
               metric: Mapping | None = None,
               lee: Sequence | None = None,
               params: Mapping[str, float] | None = None,
               name: str = "") -> MetricChart:
    """Build and validate a chart.

    ``metric`` maps "ij" strings (or (i, j) 1-based tuples) to expression
    sources for i <= j; missing diagonal entries default to 1 and missing
    off-diagonal entries to 0.  ``lee`` is a sequence of n sources, zero
    when omitted.
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
        upper[ij] = as_expr(src)
    # row-major; each symmetric pair is one tree, so it lowers to one slot
    entries = [upper.get((min(i, j), max(i, j)), Num(float(i == j)))
               for i in range(n) for j in range(n)]

    lee_list: list[ExprAst] = [Num(0.0)] * n
    if lee is not None:
        lee = list(lee)
        if len(lee) != n:
            raise ChartError(f"lee form needs {n} components, got {len(lee)}")
        lee_list = [as_expr(e) for e in lee]

    allowed = bound_identifiers(n, params)
    named = [(f"metric g{i + 1}{j + 1}", entries[i * n + j]) for i in range(n) for j in range(i, n)]
    for what, t in named + [(f"lee component {i + 1}", t) for i, t in enumerate(lee_list)]:
        bad = exprdsl.identifiers(t) - allowed
        if bad:
            raise ChartError(f"{what} uses unknown identifiers {sorted(bad)}")

    return _validate_chart(MetricChart(
        n=n, tau=float(tau), r_min=float(r_min), metric=exprdsl.lower(entries, n, params),
        lee=exprdsl.lower(lee_list, n, params), params=params, name=name))


@np.errstate(all="ignore")  # non-finite values are refused by name, not warned of
def _validate_chart(chart: MetricChart) -> MetricChart:
    # positive definiteness probe on the sphere r = 8 r_min, through
    # metric_jets and its sqrt_det (benchmark/tracer.py expects every
    # workload to call metric_jets and jetlinalg.mat_det, and the flux
    # commands read no determinant jet), and on the spheres of the decay
    # scan, by plain evaluation; the Lee form must be finite on all of them.
    # Every r^2 of the scan must be finite first
    radii = _scan_radii(chart)
    if not np.isfinite(radii[-1] ** 2):
        raise ChartError(f"r_min {chart.r_min!r} is too large: the square of the "
                         f"decay scan radius {float(radii[-1])!r} overflows")
    dirs = _probe_directions(chart.n)
    near = 8.0 * chart.r_min * dirs
    metric_jets(chart, near, order=1).sqrt_det
    pts = np.concatenate([r * dirs for r in radii], axis=1)
    _require_spd(metric_values(chart, pts), pts)
    if chart.has_lee:
        pts = np.concatenate([near, pts], axis=1)
        finite = np.all(np.isfinite(exprdsl.evaluate(chart.lee, pts)), axis=1)
        if not finite.all():
            q = int(np.argmin(finite))
            raise ChartError(f"lee form evaluates to a non-finite value at {pts[:, q].tolist()}")
    return chart


class MetricData:
    """Metric jets at a batch of B points.

    ``coords`` are the n coordinate jets (m, B) the entries were
    evaluated on, seeded at the points; ``g`` and ``ginv`` are
    (m, B, i, j).  ``sqrt_det`` (m, B) is built on first read: only the
    codifferential reads it.
    """

    def __init__(self, chart: MetricChart, space: JetSpace, coords: list[Jet],
                 g: Jet, ginv: Jet):
        self.chart = chart
        self.space = space
        self.coords = coords
        self.g = g
        self.ginv = ginv

    @cached_property
    def sqrt_det(self) -> Jet:
        """sqrt(det g) (m, B), built on first read."""
        return jets.jet_sqrt(jetlinalg.mat_det(self.g))

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


def _require_spd(G: np.ndarray, points: np.ndarray) -> None:
    """Raise ChartError unless every matrix of G (B, n, n) is finite and
    has a Cholesky factor, naming the first bad column of ``points``."""
    finite = np.all(np.isfinite(G), axis=(1, 2))
    if not finite.all():
        q = int(np.argmin(finite))
        raise ChartError(f"metric evaluates to a non-finite value at {points[:, q].tolist()}")
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        for q in range(G.shape[0]):
            try:
                np.linalg.cholesky(G[q])
            except np.linalg.LinAlgError:
                raise ChartError(
                    f"metric is not positive definite at {points[:, q].tolist()}") from None


def metric_values(chart: MetricChart, X: np.ndarray) -> np.ndarray:
    """g_ij values at the columns of X (n, B) as a (B, n, n) array."""
    return exprdsl.evaluate(chart.metric, X).reshape(X.shape[1], chart.n, chart.n)


def metric_entry_jets(chart: MetricChart, coords: list[Jet]) -> Jet:
    """g as one jet (m, B, i, j) over the coordinate jets ``coords``,
    by the chart's metric program."""
    g = jets.evaluate_jet(chart.metric, coords).c
    return Jet(coords[0].space, g.reshape(g.shape[:-1] + (chart.n, chart.n)))


def metric_jets(chart: MetricChart, points, order: int = 2) -> MetricData:
    """Evaluate g and g^{-1} as jets at ``points``, after checking g
    positive definite there; sqrt(det g) waits until it is read."""
    points = _batch(points)
    if points.shape[0] != chart.n:
        raise ChartError(f"points have {points.shape[0]} coordinates, chart has n={chart.n}")
    space, coords = jets.seed_point(points, order)
    g = metric_entry_jets(chart, coords)
    _require_spd(g.value, points)
    return MetricData(chart=chart, space=space, coords=coords,
                      g=g, ginv=jetlinalg.mat_inv(g))


def lee_jets(chart: MetricChart, coords: list[Jet]) -> Jet:
    """theta as one jet (m, B, i) over the coordinate jets ``coords``."""
    return jets.evaluate_jet(chart.lee, coords)


# ---------------------------------------------------------------------------
# decay diagnostics

class DecayReport(NamedTuple):
    tau_declared: float
    tau_hat: float | None           # worst fitted metric exponent, None if all flat
    slots: dict[str, dict]          # per-component fit data
    passed: bool
    exactly_flat: bool

    def summary(self) -> str:
        if self.exactly_flat:
            return "exactly flat"
        verdict = "ok" if self.passed else "FAIL"
        if self.tau_hat is None:  # a flat metric: the Lee slots decide
            return (f"metric exactly flat; lee form vs declared tau + 1 = "
                    f"{self.tau_declared + 1.0:g} -> {verdict}")
        return f"tau_hat={self.tau_hat:.3f} vs declared {self.tau_declared} -> {verdict}"


FLAT_FLOOR = 1e-15


def _scan_radii(chart: MetricChart) -> np.ndarray:
    """The default radii of ``decay_scan``: 50..5000 r_min, log-spaced."""
    return np.geomspace(50.0 * chart.r_min, 5000.0 * chart.r_min, 5)


def decay_scan(chart: MetricChart) -> DecayReport:
    """Estimate decay exponents of g - delta and theta along 8 rays.

    Log-log slopes of ray-averaged magnitudes are fitted over the radii
    of ``_scan_radii``.  A metric slot passes if its fitted exponent is
    at least tau - 0.1; a Lee slot needs tau + 1 - 0.1.  Slots whose
    samples all sit below 1e-15 are reported exactly flat and pass
    trivially.
    """
    n = chart.n
    radii = _scan_radii(chart)
    rays = 8
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

    G = metric_values(chart, pts)
    for i, j in zip(*np.triu_indices(n)):
        est = fit(f"g{i + 1}{j + 1}", G[:, i, j] - (1.0 if i == j else 0.0),
                  chart.tau, "metric")
        if est is not None:
            tau_fits.append(est)
    lee = exprdsl.evaluate(chart.lee, pts)
    for i in range(n):
        fit(f"theta{i + 1}", lee[:, i], chart.tau + 1.0, "lee")

    exactly_flat = all(s.get("exactly_flat") for s in slots.values())
    tau_hat = min(tau_fits) if tau_fits else None
    return DecayReport(tau_declared=chart.tau, tau_hat=tau_hat, slots=slots,
                       passed=passed, exactly_flat=exactly_flat)


# ---------------------------------------------------------------------------
# chart transforms

def _derived(chart: MetricChart, suffix: str, **fields) -> MetricChart:
    """``chart`` with ``fields`` replaced and ``suffix`` on its name,
    validated as ``make_chart`` validates."""
    return _validate_chart(
        chart._replace(name=f"{chart.name}~{suffix}" if chart.name else suffix, **fields))


def factor_program(chart: MetricChart, factor) -> exprdsl.Program:
    """A scalar ``factor`` (source or tree) lowered with the chart's n and
    params, as ``conformal_rescale`` and ``mass.gradient_flux`` take it."""
    return exprdsl.lower([as_expr(factor)], chart.n, chart.params)


def conformal_rescale(chart: MetricChart, f: exprdsl.Program) -> MetricChart:
    """The chart of (f g, theta - df/(2f)) for a positive conformal factor
    f, given as its ``factor_program``.

    This is the closed-form counterpart of the jet-level Lee transform:
    rescaling the metric inside the conformal class shifts the Lee form by
    -d(log f)/2, which keeps the associated torsion-free connection fixed.
    """
    metric, lee = exprdsl.conformal_join(chart.metric, chart.lee, f)
    return _derived(chart, "rescaled", metric=metric, lee=lee)


def scale_coordinates(chart: MetricChart, a: float) -> MetricChart:
    """The chart in scaled coordinates z~ = sqrt(a) z.

    Components transform as pullbacks: g~_ij(z~) = g_ij(z~/sqrt(a)) and
    theta~_i(z~) = a^{-1/2} theta_i(z~/sqrt(a)); the valid region starts
    at sqrt(a) r_min.
    """
    if not a > 0:
        raise ChartError(f"scale factor must be positive, got {a}")
    s = 1.0 / math.sqrt(a)
    return _derived(chart, "scaled", r_min=math.sqrt(a) * chart.r_min,
                    metric=exprdsl.pullback(chart.metric, s),
                    lee=exprdsl.pullback(chart.lee, s, s))
