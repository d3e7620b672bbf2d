"""Dense truncated Taylor ("jet") arithmetic in several variables.

A jet of order K at a point stores the Taylor coefficients
c_alpha = d^alpha f / alpha!  for all multi-indices |alpha| <= K, laid out
in graded order (grades 0..K, lexicographically ascending within each
grade).  Arithmetic is exact truncated polynomial arithmetic; elementary
functions are lifted by Horner composition of the univariate Taylor
polynomial with the value-free part of the argument.

Coefficients are numpy arrays of shape (m,) for a single point or (m, B)
for a batch of B points, where m = C(nvars + order, order); further
trailing axes (a whole tensor stacked into one array, (m, B, *index))
pass through the ring operations, ``derive``, ``grad``, ``tensor_mul``
and ``tensor_matmul`` unchanged.  Coefficients may be complex: a spinor
field is one jet of shape (m, B, N) with the spinor axis trailing, and
the two products pair it with real tensor jets or with another spinor
(see ``spinor``).

There is one product path.  Every product gathers the operands on a
precomputed pair table and sums each target coefficient with
``pair_sum`` in a fixed order: ``tensor_mul`` (and ``Jet.__mul__``)
multiplies the gathered arrays elementwise, with numpy broadcasting on
the trailing axes and no index sum, and ``tensor_matmul`` multiplies
them as stacked matrices by ``np.matmul`` (BLAS), which is where every
sum over a tensor or spinor index runs.  The rule that keeps a point's
result independent of the batch it sits in: an axis whose length
varies between calls (the batch, a stack of spinors, a chunk) is
always a broadcast axis of ``np.matmul``, never a matrix row or
column; only fixed index axes (n, N, n(n-1)/2) are.  That rule is held
by tests, not by construction:
``tests/test_curvature.py::TestBatchIndependence``,
``tests/test_spinor.py::TestBatchIndependence`` and
``tests/test_jetlinalg.py::test_whole_batch_equals_single_columns_bitwise``.

Two invariants worth spelling out:

* the value part of any jet computation equals the plain float64
  evaluation of the same expression bitwise.  ``evaluate_jet`` and
  ``exprdsl.evaluate`` run the same ``exprdsl.Program``, so both take
  the same operations in the same order, and the two op tables agree op
  by op on the value slot: division by a fixed-point recurrence whose
  value slot is a0/b0 directly, the ring operations and the elementary
  functions by the same numpy arithmetic and calls.
* jets combined by arithmetic must live in the same (nvars, order)
  space; mixing orders is a programming error and raises.  Use
  ``Jet.truncate`` to lower the order explicitly.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from . import exprdsl
from .exprdsl import ExprAst

__all__ = [
    "JetSpace", "Jet", "seed_point",
    "jet_sqrt", "jet_exp", "jet_log", "jet_sin", "jet_cos", "jet_atan",
    "jet_powc", "evaluate_jet", "tensor_mul", "tensor_matmul", "pair_plan", "pair_sum",
]

MAX_ORDER = 3
#: the most pairs that feed one coefficient: 2^3, for alpha = (1, 1, 1)
MAX_PAIRS = 2 ** MAX_ORDER


def _multi_indices(nvars: int, order: int) -> list[tuple[int, ...]]:
    out = []
    for grade in range(order + 1):
        grade_block = [a for a in itertools.product(range(grade + 1), repeat=nvars)
                       if sum(a) == grade]
        out.extend(sorted(grade_block))
    return out


def _rows(idx: np.ndarray):
    """``idx`` as a slice when it is a run of consecutive rows."""
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def pair_plan(starts: np.ndarray, total: int) -> tuple:
    """Gather tables for ``pair_sum`` over the segments [starts[t],
    starts[t+1]) of a pair axis of length ``total``; each segment holds
    1..MAX_PAIRS pairs.

    A segment c_0, ..., c_T sums as c_0 + tail, where numpy's pairwise
    summation (which ``np.add.reduceat`` runs per segment) folds the tail
    left to right, ((c_1 + c_2) + c_3) + ..., except that a complex tail
    of 4..7 starts with (c_1 + c_2) + (c_3 + c_4).  The plan holds one
    step per pair rank, each over the segments long enough for it: rows
    of the tail array, the pair indices to add, and for the complex
    (c_3 + c_4) step a second index.
    """
    starts = np.asarray(starts)
    tails = np.diff(np.append(starts, total)) - 1
    if not (len(tails) and 0 <= tails.min() and tails.max() < MAX_PAIRS):
        raise ValueError(f"pair_sum segments need 1..{MAX_PAIRS} pairs each")
    multi = np.flatnonzero(tails)
    T = tails[multi]

    def step(keep, r, second=False):
        rows = np.flatnonzero(keep)
        src = starts[multi[rows]] + r
        return _rows(rows), src, (src + 1 if second else None)

    real = [step(T >= r, r) for r in range(2, T.max(initial=0) + 1)]
    cplx = real[:1] + [step(T == 3, 3), step(T >= 4, 3, second=True)] + real[3:]
    cplx = [s for s in cplx if len(s[1])]
    return starts, _rows(multi), starts[multi] + 1, real, cplx


def pair_sum(conv: np.ndarray, plan: tuple) -> np.ndarray:
    """Segment sums of ``conv`` along its first axis, bitwise equal to
    ``np.add.reduceat(conv, starts, axis=0)`` for the ``pair_plan`` of
    those starts: one gather-add per pair rank across every segment,
    where reduceat walks the segments one at a time."""
    head, multi, first, real, cplx = plan
    out = conv[head]
    if len(first):
        tail = conv[first]
        for rows, a, b in (cplx if np.iscomplexobj(conv) else real):
            tail[rows] += conv[a] if b is None else conv[a] + conv[b]
        out[multi] += tail
    return out


class JetSpace:
    """Index bookkeeping for (nvars, order); cached and shared."""

    _cache: dict[tuple[int, int], "JetSpace"] = {}

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
        self.nvars = nvars
        self.order = order
        self.alphas = _multi_indices(nvars, order)
        self.m = len(self.alphas)
        self.index = {a: i for i, a in enumerate(self.alphas)}
        grades = np.array([sum(a) for a in self.alphas])
        #: number of coefficients of grade <= k (graded layout => prefix)
        self.grade_count = [int(np.sum(grades <= k)) for k in range(order + 1)]
        self.factorials = np.array(
            [float(math.prod(math.factorial(ai) for ai in a)) for a in self.alphas])

        # multiplication table: all (i, j) with alpha_i + alpha_j in the space,
        # grouped contiguously by target index for pair_sum
        pairs = []
        for i, a in enumerate(self.alphas):
            for j, b in enumerate(self.alphas):
                tgt = tuple(x + y for x, y in zip(a, b))
                t = self.index.get(tgt)
                if t is not None:
                    pairs.append((t, i, j))
        pairs.sort()
        self._mul_t = np.array([p[0] for p in pairs])
        self._mul_i = np.array([p[1] for p in pairs])
        self._mul_j = np.array([p[2] for p in pairs])
        self._mul_plan = pair_plan(np.searchsorted(self._mul_t, np.arange(self.m)),
                                   len(pairs))

        # derivative tables: d/dx_v maps coefficient of beta+e_v to beta
        # with factor (beta_v + 1); every index of the order-1 space is hit
        self._derive: list[tuple[np.ndarray, np.ndarray]] = []
        if order >= 1:
            lower = _multi_indices(nvars, order - 1)
            for v in range(nvars):
                src = np.array([self.index[tuple(b[k] + (1 if k == v else 0) for k in range(nvars))]
                                for b in lower])
                fac = np.array([float(b[v] + 1) for b in lower])
                self._derive.append((src, fac))

    @classmethod
    def get(cls, nvars: int, order: int) -> "JetSpace":
        key = (nvars, order)
        sp = cls._cache.get(key)
        if sp is None:
            sp = cls._cache[key] = cls(nvars, order)
        return sp

    def lower(self, order: int) -> "JetSpace":
        return JetSpace.get(self.nvars, order)

    def __repr__(self):
        return f"JetSpace(nvars={self.nvars}, order={self.order}, m={self.m})"


class Jet:
    """Taylor coefficients of one scalar quantity at one point or batch."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, space: JetSpace, value) -> "Jet":
        value = np.asarray(value, dtype=np.float64)
        c = np.zeros((space.m,) + value.shape)
        c[0] = value
        return cls(space, c)

    @classmethod
    def variable(cls, space: JetSpace, v: int, value) -> "Jet":
        j = cls.constant(space, value)
        if space.order >= 1:
            e_v = tuple(1 if k == v else 0 for k in range(space.nvars))
            j.c[space.index[e_v]] = 1.0
        return j

    # -- basic accessors ----------------------------------------------
    @property
    def value(self):
        return self.c[0]

    def partial(self, alpha: Sequence[int]):
        """d^alpha f at the point: alpha! times the stored coefficient.
        A test oracle: only the tests read derivatives this way."""
        alpha = tuple(int(a) for a in alpha)
        idx = self.space.index.get(alpha)
        if idx is None:
            raise KeyError(f"multi-index {alpha} outside order-{self.space.order} space")
        return self.space.factorials[idx] * self.c[idx]

    def truncate(self, order: int) -> "Jet":
        if order == self.space.order:
            return self
        if order > self.space.order:
            raise ValueError(f"cannot raise order {self.space.order} -> {order}")
        sp = self.space.lower(order)
        return Jet(sp, self.c[:sp.m])

    def derive(self, v: int) -> "Jet":
        """Jet of d f / d x_v, one order lower."""
        if self.space.order < 1:
            raise ValueError("cannot derive an order-0 jet")
        src, fac = self.space._derive[v]
        sp = self.space.lower(self.space.order - 1)
        c = self.c[src] * fac.reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Jet(sp, c)

    def grad(self) -> "Jet":
        """Jet of every first partial d f / d x_v, one order lower, on a
        batched jet (m, B, *index): the result is (m', B, v, *index)."""
        parts = [self.derive(v).c for v in range(self.space.nvars)]
        return Jet(self.space.lower(self.space.order - 1), np.stack(parts, axis=2))

    # -- ring operations ----------------------------------------------
    def _check(self, other: "Jet"):
        if self.space is not other.space:
            raise ValueError(
                f"jet space mismatch: {self.space} vs {other.space}; truncate explicitly")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.c + other.c)
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.c - other.c)
        c = self.c.copy()
        c[0] = c[0] - other
        return Jet(self.space, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] = other + c[0]
        return Jet(self.space, c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, tensor_mul(self.space, self.c, other.c))
        return Jet(self.space, self.c * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c / other)
        self._check(other)
        b0 = other.c[0]
        if not np.all(b0):
            raise ZeroDivisionError("jet division by a jet whose value slot is zero")
        nil = other.c.copy()
        nil[0] = np.zeros_like(b0)
        bnil = Jet(other.space, nil)
        # fixed point q <- (a - bnil*q)/b0; the value slot is a0/b0 exactly
        # at every step, and each step extends correctness by one grade
        q = Jet(self.space, self.c / b0)
        for _ in range(self.space.order):
            q = Jet(self.space, (self.c - (bnil * q).c) / b0)
        return q

    def __rtruediv__(self, other):
        return Jet.constant(self.space, np.broadcast_to(
            np.asarray(other, dtype=np.float64), np.shape(self.c[0]))).__truediv__(self)

    def __repr__(self):
        return f"Jet(order={self.space.order}, nvars={self.space.nvars}, value={self.value!r})"


def tensor_mul(space: JetSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jet product of two stacked coefficient arrays (jet axis first),
    their other axes multiplied elementwise with numpy broadcasting;
    each target coefficient is summed over the multiplication-table
    pairs by ``pair_sum``."""
    return pair_sum(x[space._mul_i] * y[space._mul_j], space._mul_plan)


def tensor_matmul(space: JetSpace, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jet product of stacked matrices: x (m, B, ..., i, k) times
    y (m, B, ..., k, j) by ``np.matmul`` over the multiplication-table
    pairs, each target coefficient summed by ``pair_sum``."""
    return pair_sum(np.matmul(x[space._mul_i], y[space._mul_j]), space._mul_plan)


# ---------------------------------------------------------------------------
# elementary functions by Horner composition

def _compose(u: Jet, dcoef: list[np.ndarray]) -> Jet:
    """sum_j dcoef[j] * (u - u0)^j with dcoef[j] = f^(j)(u0)/j!."""
    order = u.space.order
    nil = u.c.copy()
    nil[0] = np.zeros_like(nil[0])
    p = Jet(u.space, nil)
    acc = Jet.constant(u.space, dcoef[order])
    for j in range(order - 1, -1, -1):
        acc = acc * p + dcoef[j]
    bad = ~np.all([np.isfinite(d) for d in dcoef[1:]], axis=0)
    if np.any(bad):
        # a constant argument composes to f(u0) with zero derivatives even
        # where f' is infinite (sqrt at 0), not to the NaN of inf * 0
        bad &= ~np.any(nil, axis=0)
        acc = Jet(u.space, np.where(bad, 0.0, acc.c))
        acc.c[0] = np.where(bad, dcoef[0], acc.c[0])
    return acc


def _coeffs(u: Jet, *terms) -> list:
    """The Taylor coefficients f^(j)(u0)/j! that ``u``'s order reads, each
    computed by its term function; the higher ones are never computed, so
    a coefficient no product reads cannot overflow at a large u0."""
    return [t() for t in terms[:u.space.order + 1]]


def jet_sqrt(u: Jet) -> Jet:
    u0 = u.c[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.sqrt(u0)
        d = _coeffs(u, lambda: s, lambda: 0.5 / s, lambda: -1.0 / (8.0 * s * u0),
                    lambda: 1.0 / (16.0 * s * u0 * u0))
    return _compose(u, d)


def jet_exp(u: Jet) -> Jet:
    e = np.exp(u.c[0])
    return _compose(u, _coeffs(u, lambda: e, lambda: e, lambda: e / 2.0, lambda: e / 6.0))


def jet_log(u: Jet) -> Jet:
    u0 = u.c[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        d = _coeffs(u, lambda: np.log(u0), lambda: 1.0 / u0,
                    lambda: -1.0 / (2.0 * u0 * u0), lambda: 1.0 / (3.0 * u0 * u0 * u0))
    return _compose(u, d)


def jet_sin(u: Jet) -> Jet:
    u0 = u.c[0]
    s, c = np.sin(u0), np.cos(u0)
    return _compose(u, _coeffs(u, lambda: s, lambda: c, lambda: -s / 2.0, lambda: -c / 6.0))


def jet_cos(u: Jet) -> Jet:
    u0 = u.c[0]
    s, c = np.sin(u0), np.cos(u0)
    return _compose(u, _coeffs(u, lambda: c, lambda: -s, lambda: -c / 2.0, lambda: s / 6.0))


def jet_atan(u: Jet) -> Jet:
    u0 = u.c[0]
    t = 1.0 + u0 * u0
    return _compose(u, _coeffs(u, lambda: np.arctan(u0), lambda: 1.0 / t,
                               lambda: -u0 / (t * t),
                               lambda: (3.0 * u0 * u0 - 1.0) / (3.0 * t * t * t)))


def jet_powc(u: Jet, s) -> Jet:
    """u^s for an exponent constant along the chart."""
    u0 = u.c[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        d = _coeffs(u, lambda: np.power(u0, s),
                    lambda: s * np.power(u0, s - 1.0),
                    lambda: s * (s - 1.0) / 2.0 * np.power(u0, s - 2.0),
                    lambda: s * (s - 1.0) * (s - 2.0) / 6.0 * np.power(u0, s - 3.0))
    return _compose(u, d)


# ---------------------------------------------------------------------------
# seeding and expression evaluation

def seed_point(point, order: int) -> tuple[JetSpace, list[Jet]]:
    """Coordinate jets at ``point`` (shape (n,) or (n, B)), order 1..3."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim not in (1, 2):
        raise ValueError(f"point must have shape (n,) or (n, B), got {point.shape}")
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be 1..{MAX_ORDER}, got {order}")
    n = point.shape[0]
    space = JetSpace.get(n, order)
    return space, [Jet.variable(space, i, point[i]) for i in range(n)]


def evaluate_jet(ast: ExprAst | Sequence[ExprAst], coords: list[Jet],
                 params: Mapping[str, float] | None = None) -> Jet:
    """Evaluate an expression tree, or a sequence of trees, in jet arithmetic.

    ``coords`` are the coordinate jets from :func:`seed_point`.  The trees
    are lowered by ``exprdsl.lower`` and the program runs with the jet op
    table; a sequence gives one jet with the values stacked on a last
    axis.  Value slots are bitwise equal to ``exprdsl.evaluate`` at the
    same point.
    """
    space, c0 = coords[0].space, coords[0].c[0]
    single = isinstance(ast, ExprAst)
    prog = exprdsl.lower([ast] if single else ast, len(coords), params)
    out = prog.run(dict(
        exprdsl.RING_OPS, coord=coords.__getitem__,
        const=lambda v: Jet.constant(space, np.full_like(c0, v)),
        sqrt=jet_sqrt, exp=jet_exp, log=jet_log, sin=jet_sin, cos=jet_cos,
        atan=jet_atan, powc=jet_powc))
    return out[0] if single else Jet(space, np.stack([j.c for j in out], axis=-1))
