"""JSON configuration documents and deterministic report serialization.

A configuration is a single JSON document.  Every mathematical
expression in it is carried as an object ``{"expr": "<source>"}`` in the
expression language of :mod:`confmass.exprdsl` (bare strings are also
accepted).  Two document kinds exist:

``chart``::

    {
      "schema_version": 1,
      "kind": "chart",
      "name": "isotropic",
      "n": 3, "tau": 0.99, "r_min": 1.0,
      "params": {"m": 1.0},
      "metric": {"11": {"expr": "(1 + m/(2*r))^4"}, ...},
      "lee":    [{"expr": "0"}, ...],
      "spinors": [{"name": "const-plus", "weight": -0.5,
                   "components": [{"re": {"expr": "1"}, "im": {"expr": "0"}},
                                  ...]}]
    }

Metric keys are "ij" with 1-based single digits, i <= j; missing entries
default to the identity.  ``lee`` (optional) lists the n covector
components, default zero.  ``spinors`` (optional) names spinor fields
for flux commands, each with a name no other spinor has, the weight
(2 - n)/2 and N = 2^(n//2) components in the identifiers the chart
binds (those of every end, on an end system).  Every number is finite
and none is ``true`` or ``false``; every name is a string; every
expression parses within the limit of :func:`confmass.exprdsl.parse`
(brackets nested at most ``MAX_NESTING`` deep, a tree of any number of
levels), and a parse error names its entry (``bad.chart.metric.22: ...``,
``....lee[1]: ...``, ``....spinors[0].components[1].re: ...``).

``end_system``::

    {
      "schema_version": 1,
      "kind": "end_system",
      "name": "twoends",
      "ends": [{"a": 1.0, "chart": { ...chart fields... }}, ...]
    }

Reports are JSON with sorted keys, two-space indent, and no run
metadata that could vary between identical runs (no timestamps, no host
info), so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import NamedTuple

from . import exprdsl
from .chart import (ChartError, End, EndSystem, MetricChart, bound_identifiers, make_chart,
                    make_spinor_spec)
from .exprdsl import ExprAst

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "LoadedConfig",
    "parse_config",
    "load_config",
    "bundled_names",
    "bundled_text",
    "load_expected",
    "dump_report",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed configuration document."""


def _expr(node, where: str) -> ExprAst:
    """The parsed expression of ``node``, a source string or
    ``{"expr": source}``; a parse error names the entry ``where``."""
    src = node
    if isinstance(node, dict) and set(node) == {"expr"}:
        src = node["expr"]
    if not isinstance(src, str):
        raise ConfigError(f"{where}: expected an expression string or {{\"expr\": ...}}, "
                          f"got {node!r}")
    try:
        return exprdsl.parse(src)
    except exprdsl.ParseError as e:
        raise ConfigError(f"{where}: {e}") from e


def _require(doc: dict, key: str, types, where: str):
    """``doc[key]`` when it is one of ``types``.  JSON true and false are
    never numbers (Python reads them as the ints 1 and 0), and a number
    must be finite (JSON ``Infinity`` and ``NaN`` read as floats)."""
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool):
        raise ConfigError(f"{where}: field {key!r} has wrong type {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"{where}: field {key!r} must be a finite number, got {v!r}")
    return v


class LoadedConfig(NamedTuple):
    """A parsed configuration document."""

    kind: str  # "chart" | "end_system"
    name: str
    chart: MetricChart | None
    system: EndSystem | None
    spinors: tuple  # ((name, SpinorFieldSpec), ...)
    # the bundled file a name resolved to; None for a filesystem path
    bundled: str | None = None

    @property
    def n(self) -> int:
        return self.chart.n if self.chart is not None else self.system.n


def _parse_spinors(doc: dict, where: str, charts) -> tuple:
    """The named spinor fields of ``doc``, each with its own name, the
    weight (2 - n)/2 that ``witten`` integrates, the N = 2^(n//2)
    components of the dimension and no identifier that one of ``charts``
    leaves unbound."""
    n = charts[0].n
    N = 2 ** (n // 2)
    bound = set.intersection(*map(bound_identifiers, charts))
    out = []
    for k, sp in enumerate(doc.get("spinors", ())):
        w = f"{where}.spinors[{k}]"
        if not isinstance(sp, dict):
            raise ConfigError(f"{w}: expected an object")
        name = _require(sp, "name", str, w) if "name" in sp else f"spinor{k}"
        if name in dict(out):
            raise ConfigError(f"{w}: the name {name!r} is already taken")
        weight = _require(sp, "weight", (int, float), w)
        if weight != 1 - n / 2:
            raise ConfigError(f"{w}: a spinor in n = {n} has weight (2 - n)/2 = "
                              f"{1 - n / 2:g}, got {weight:g}")
        comps = _require(sp, "components", list, w)
        if len(comps) != N:
            raise ConfigError(f"{w}: a spinor in n = {n} has {N} components, "
                              f"got {len(comps)}")
        pairs = []
        for c, comp in enumerate(comps):
            wc = f"{w}.components[{c}]"
            if not isinstance(comp, dict):
                raise ConfigError(f"{wc}: expected an object with re/im")
            pairs.append((_expr(comp.get("re", "0"), wc + ".re"),
                          _expr(comp.get("im", "0"), wc + ".im")))
        spec = make_spinor_spec(pairs)
        for c, comp in enumerate(spec.components):
            for part, tree in zip(("re", "im"), comp):
                bad = exprdsl.identifiers(tree) - bound
                if bad:
                    raise ConfigError(f"{w}.components[{c}].{part}: uses unknown "
                                      f"identifiers {sorted(bad)}")
        out.append((name, spec))
    return tuple(out)


def _parse_chart_fields(doc: dict, where: str, name: str) -> MetricChart:
    n = _require(doc, "n", int, where)
    tau = _require(doc, "tau", (int, float), where)
    r_min = _require(doc, "r_min", (int, float), where)
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}: params must be an object")
    metric_doc = doc.get("metric", {})
    if not isinstance(metric_doc, dict):
        raise ConfigError(f"{where}: metric must be an object of 'ij' entries")
    metric = {k: _expr(v, f"{where}.metric.{k}") for k, v in metric_doc.items()}
    lee_doc = doc.get("lee")
    lee = None
    if lee_doc is not None:
        if not isinstance(lee_doc, list):
            raise ConfigError(f"{where}: lee must be a list of {n} components")
        lee = [_expr(v, f"{where}.lee[{i}]") for i, v in enumerate(lee_doc)]
    params = {str(k): float(_require(params, k, (int, float), f"{where}.params"))
              for k in params}
    try:
        return make_chart(n, float(tau), float(r_min), metric=metric, lee=lee,
                          params=params, name=name)
    except (ChartError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def parse_config(doc: dict, source: str = "config") -> LoadedConfig:
    """Validate a parsed JSON document and build its chart(s)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    version = _require(doc, "schema_version", int, source)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{source}: unsupported schema_version {version} "
                          f"(this build reads {SCHEMA_VERSION})")
    kind = _require(doc, "kind", str, source)
    name = _require(doc, "name", str, source) if "name" in doc else source

    if kind == "chart":
        chart = _parse_chart_fields(doc, source, name)
        return LoadedConfig(kind=kind, name=name, chart=chart, system=None,
                            spinors=_parse_spinors(doc, source, [chart]))

    if kind == "end_system":
        ends_doc = _require(doc, "ends", list, source)
        if not ends_doc:
            raise ConfigError(f"{source}: end system needs at least one end")
        ends = []
        for k, e in enumerate(ends_doc):
            w = f"{source}.ends[{k}]"
            if not isinstance(e, dict):
                raise ConfigError(f"{w}: expected an object")
            a = _require(e, "a", (int, float), w) if "a" in e else 1.0
            if not a > 0:
                raise ConfigError(f"{w}: 'a' must be a positive number")
            chart_doc = _require(e, "chart", dict, w)
            cname = (_require(chart_doc, "name", str, f"{w}.chart") if "name" in chart_doc
                     else f"{name}-end{k}")
            ends.append(End(chart=_parse_chart_fields(chart_doc, w + ".chart", cname),
                            a=float(a)))
        dims = {end.chart.n for end in ends}
        if len(dims) > 1:
            raise ConfigError(f"{source}: all ends must share one dimension, got {dims}")
        system = EndSystem(ends=tuple(ends), name=name)
        return LoadedConfig(kind=kind, name=name, chart=None, system=system,
                            spinors=_parse_spinors(doc, source,
                                                   [end.chart for end in ends]))

    raise ConfigError(f"{source}: unknown kind {kind!r} (chart | end_system)")


# ---------------------------------------------------------------------------
# bundled documents

def _data_root():
    return resources.files("confmass").joinpath("data")


def bundled_names() -> list:
    """Names of the shipped configuration documents."""
    return sorted(p.name for p in _data_root().iterdir()
                  if p.name.endswith((".chart", ".ends")))


def _bundled_file(name: str) -> str | None:
    """The bundled document ``name`` resolves to, trying common suffixes."""
    for cand in (name, name + ".chart", name + ".ends"):
        if _data_root().joinpath(cand).is_file():
            return cand
    return None


def bundled_text(name: str) -> str | None:
    """Raw text of a bundled document, trying common suffixes."""
    found = _bundled_file(name)
    return None if found is None else _data_root().joinpath(found).read_text()


def load_config(path_or_name: str) -> LoadedConfig:
    """Load a config from a filesystem path or a bundled name; the result
    records which bundled document a name resolved to."""
    import os

    if os.path.isfile(path_or_name):
        with open(path_or_name, "r") as f:
            text = f.read()
        source = os.path.basename(path_or_name)
        found = None
    else:
        found = _bundled_file(path_or_name)
        if found is None:
            raise ConfigError(
                f"{path_or_name!r} is neither a file nor a bundled config "
                f"(bundled: {', '.join(bundled_names())})")
        text = _data_root().joinpath(found).read_text()
        source = path_or_name
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{source}: invalid JSON: {e}") from e
    return parse_config(doc, source)._replace(bundled=found)


def load_expected() -> dict:
    """Frozen expected values for the bundled corpus (used by tests)."""
    return json.loads(_data_root().joinpath("expected.json").read_text())


# ---------------------------------------------------------------------------
# reports

def dump_report(report: dict) -> str:
    """Canonical JSON serialization: sorted keys, stable float repr."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
