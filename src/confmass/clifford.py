"""Complex Clifford modules for negative-definite generators.

The generators are built from a Jordan-Wigner chain: hermitian matrices
G_1..G_n obeying G_a G_b + G_b G_a = +2 delta_ab are tensor products of
Pauli matrices, and gamma_a = i G_a then satisfies

    gamma_a gamma_b + gamma_b gamma_a = -2 delta_ab,
    gamma_a^* = -gamma_a,

acting on C^N with N = 2^(n // 2).  Every entry is exactly one of
0, +-1, +-i, so products of generators are exact in float arithmetic.

A p-form is its array of coefficients on the strictly increasing index
tuples, shape (C(n, p), *batch) with rows in ``itertools.combinations``
order; a spinor is (N, *batch) and a vector (n, *batch), so every
operation acts column by column on a trailing batch.  ``mul_form`` is
the Clifford action of a form, and ``wedge`` / ``contract`` give the
vector-times-form decomposition

    x . (w . s) = (x ^ w) . s - (x _| w) . s    for 1-forms x,

which the identity battery checks on random data.  Sums over tuples and
slots run in a fixed ascending order, so a column's result does not
depend on the batch it is computed in.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

__all__ = [
    "CliffordRep",
    "build_rep",
    "gamma_product",
    "mul_vector",
    "mul_form",
    "inner",
    "wedge",
    "contract",
]

MIN_DIM = 2
MAX_DIM = 8

_P1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_P2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
_P3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


def _chain(factors) -> np.ndarray:
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


class CliffordRep(NamedTuple):
    """Generators gamma_1..gamma_n on C^N with gamma^2 = -1.

    ``gamma`` stacks the generators as one (n, N, N) array and ``pairs``
    the products gamma_a gamma_b for a < b, in ``np.triu_indices(n, 1)``
    order, as one (n(n-1)/2, N, N) array.
    """

    n: int
    N: int
    gamma: np.ndarray
    pairs: np.ndarray


@lru_cache(maxsize=None)
def build_rep(n: int) -> CliffordRep:
    if not MIN_DIM <= n <= MAX_DIM:
        raise ValueError(f"Clifford representation supported for {MIN_DIM} <= n <= {MAX_DIM}")
    m = n // 2
    hermitian = []
    for k in range(1, m + 1):
        head = [_P3] * (k - 1)
        tail = [_I2] * (m - k)
        hermitian.append(_chain(head + [_P1] + tail))
        hermitian.append(_chain(head + [_P2] + tail))
    if n % 2 == 1:
        hermitian.append(_chain([_P3] * m))
    gamma = 1.0j * np.array(hermitian)
    a, b = np.triu_indices(n, 1)
    pairs = gamma[a] @ gamma[b]
    for g in (gamma, pairs):
        g.setflags(write=False)
    return CliffordRep(n=n, N=2 ** m, gamma=gamma, pairs=pairs)


@lru_cache(maxsize=None)
def gamma_product(n: int, idx: tuple) -> np.ndarray:
    """gamma_{a1} ... gamma_{ap} for a strictly increasing 0-based tuple."""
    rep = build_rep(n)
    if not idx:
        return np.eye(rep.N, dtype=np.complex128)
    out = rep.gamma[idx[0]]
    for a in idx[1:]:
        out = out @ rep.gamma[a]
    out = np.ascontiguousarray(out)
    out.setflags(write=False)
    return out


def mul_vector(rep: CliffordRep, v, psi):
    """(v_a gamma_a) psi for a real coefficient vector v."""
    v = np.asarray(v)
    psi = np.asarray(psi)
    if v.shape[0] != rep.n:
        raise ValueError(f"coefficient vector has {v.shape[0]} slots, need {rep.n}")
    if psi.shape[0] != rep.N:
        raise ValueError(f"spinor has {psi.shape[0]} components, need {rep.N}")
    acc = None
    for a in range(rep.n):
        t = v[a] * (rep.gamma[a] @ psi)
        acc = t if acc is None else acc + t
    return acc


@lru_cache(maxsize=None)
def _form_gammas(n: int, p: int) -> np.ndarray:
    """gamma_I for every increasing p-tuple I, stacked (C(n, p), N, N)."""
    out = np.array([gamma_product(n, idx) for idx in combinations(range(n), p)])
    out.setflags(write=False)
    return out


def mul_form(rep: CliffordRep, p: int, c, psi):
    """Clifford action sum_I c_I gamma_I psi of a p-form.

    ``c`` holds the coefficients on the increasing p-tuples I,
    (C(n, p), *batch); ``psi`` is (N, *batch).  Every gamma_I has one
    entry 1, -1, i or -i per row, so gamma_I psi is exact and only the
    sum over I, taken in ascending row order, rounds.
    """
    c = _check_form(rep.n, p, np.asarray(c))
    psi = np.asarray(psi)
    if psi.shape[0] != rep.N:
        raise ValueError(f"spinor has {psi.shape[0]} components, need {rep.N}")
    G = _form_gammas(rep.n, p)
    g_psi = (G @ psi.reshape(rep.N, -1)).reshape(G.shape[:2] + psi.shape[1:])
    acc = c[0] * g_psi[0]
    for k in range(1, c.shape[0]):
        acc = acc + c[k] * g_psi[k]
    return acc


def inner(rep: CliffordRep, psi, phi):
    """Hermitian pairing on C^N, conjugate-linear in the first slot."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape[0] != rep.N or phi.shape[0] != rep.N:
        raise ValueError(f"spinors need {rep.N} components")
    return np.sum(np.conjugate(psi) * phi, axis=0)


def _check_form(n: int, p: int, c: np.ndarray) -> np.ndarray:
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} out of range for n={n}")
    if c.shape[0] != comb(n, p):
        raise ValueError(f"degree-{p} form needs {comb(n, p)} coefficient rows, "
                         f"got {c.shape[0]}")
    return c


def _rows(n: int, p: int) -> dict:
    """Row of each increasing p-tuple in ``combinations`` order."""
    return {idx: r for r, idx in enumerate(combinations(range(n), p))}


def _table(entries: list, width: int) -> tuple:
    """Rows of (sign, vector slot, form row) triples as three read-only
    (rows, width) arrays."""
    t = np.array(entries, dtype=np.float64).reshape(-1, width, 3)
    out = (t[..., 0], t[..., 1].astype(np.intp), t[..., 2].astype(np.intp))
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int) -> tuple:
    """(x ^ w)_J = sum_k (-1)^k x_{J_k} w_{J without J_k} over increasing
    (p+1)-tuples J, as a signed gather table."""
    rows = _rows(n, p)
    return _table([[((-1.0) ** k, J[k], rows[J[:k] + J[k + 1:]]) for k in range(p + 1)]
                   for J in combinations(range(n), p + 1)], p + 1)


@lru_cache(maxsize=None)
def _contract_table(n: int, p: int) -> tuple:
    """(x _| w)_I = sum_{a not in I} x_a w_{a I} over increasing
    (p-1)-tuples I, with w_{a I} = (-1)^#{b in I: b < a} w_{sorted(a u I)}."""
    rows = _rows(n, p)
    return _table([[((-1.0) ** sum(b < a for b in I), a, rows[tuple(sorted(I + (a,)))])
                    for a in range(n) if a not in I]
                   for I in combinations(range(n), p - 1)], n - p + 1)


def _signed_gather(table: tuple, x, c) -> np.ndarray:
    """sum_k sign[:, k] x[slot[:, k]] c[row[:, k]], k ascending."""
    sign, slot, row = table
    sign = sign.reshape(sign.shape + (1,) * (c.ndim - 1))
    acc = np.zeros((sign.shape[0],) + c.shape[1:])
    for k in range(sign.shape[1]):
        acc = acc + sign[:, k] * x[slot[:, k]] * c[row[:, k]]
    return acc


def _form_args(x, c, p: int) -> tuple:
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    return x, _check_form(n, p, np.asarray(c, dtype=np.float64)), n


def wedge(x, c, p: int) -> np.ndarray:
    """Coefficients (C(n, p+1), *batch) of x ^ w for a 1-form x (n, *batch)
    and a p-form w with coefficients c (C(n, p), *batch)."""
    x, c, n = _form_args(x, c, p)
    return _signed_gather(_wedge_table(n, p), x, c)


def contract(x, c, p: int) -> np.ndarray:
    """Coefficients (C(n, p-1), *batch) of x _| w, the contraction of the
    dual vector of x into the first slot of the p-form w."""
    x, c, n = _form_args(x, c, p)
    if p == 0:
        raise ValueError("cannot contract into a 0-form")
    return _signed_gather(_contract_table(n, p), x, c)
