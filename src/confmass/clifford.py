"""Complex Clifford modules for negative-definite generators.

The generators are built from a Jordan-Wigner chain: hermitian matrices
G_1..G_n obeying G_a G_b + G_b G_a = +2 delta_ab are tensor products of
Pauli matrices, and gamma_a = i G_a then satisfies

    gamma_a gamma_b + gamma_b gamma_a = -2 delta_ab,
    gamma_a^* = -gamma_a,

acting on C^N with N = 2^(n // 2).  Every entry is exactly one of
0, +-1, +-i, so products of generators are exact in float arithmetic.

Forms are passed as dense numpy arrays with one axis per slot
(antisymmetric; only strictly increasing index tuples are read), and
``mul_form`` implements their Clifford action.  ``wedge`` / ``contract``
give the vector-times-form decomposition

    x . (w . s) = (x ^ w) . s - (x _| w) . s    for 1-forms x,

which the test-suite checks on random data.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

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


@dataclass(frozen=True)
class CliffordRep:
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


def mul_form(rep: CliffordRep, p: int, comps, psi):
    """Clifford action of a p-form: sum over increasing index tuples.

    ``comps`` is a dense array with p axes of length n (a scalar for
    p = 0), or a mapping from strictly increasing index tuples to
    coefficients.  Dense arrays of degree 1 or 2 are validated for
    antisymmetry; for higher degree only strictly increasing tuples are
    read.
    """
    psi = np.asarray(psi)
    if psi.shape[0] != rep.N:
        raise ValueError(f"spinor has {psi.shape[0]} components, need {rep.N}")
    if p == 0:
        return np.asarray(comps) * psi
    if isinstance(comps, dict):
        items = []
        for idx, c in comps.items():
            idx = tuple(int(a) for a in idx)
            if len(idx) != p or any(x >= y for x, y in zip(idx, idx[1:])):
                raise ValueError(f"index tuple {idx} is not strictly increasing of length {p}")
            if not all(0 <= a < rep.n for a in idx):
                raise ValueError(f"index tuple {idx} out of range for n={rep.n}")
            items.append((idx, c))
    else:
        comps = np.asarray(comps)
        if comps.shape != (rep.n,) * p:
            raise ValueError(f"degree-{p} form needs shape {(rep.n,) * p}, got {comps.shape}")
        if p == 2 and not np.array_equal(comps, -comps.T):
            raise ValueError("degree-2 coefficient array is not antisymmetric")
        items = [(idx, comps[idx]) for idx in combinations(range(rep.n), p)]
    acc = None
    for idx, c in items:
        if c == 0.0:
            continue
        t = c * (gamma_product(rep.n, idx) @ psi)
        acc = t if acc is None else acc + t
    if acc is None:
        acc = np.zeros_like(psi, dtype=np.complex128)
    return acc


def inner(rep: CliffordRep, psi, phi):
    """Hermitian pairing on C^N, conjugate-linear in the first slot."""
    psi = np.asarray(psi)
    phi = np.asarray(phi)
    if psi.shape[0] != rep.N or phi.shape[0] != rep.N:
        raise ValueError(f"spinors need {rep.N} components")
    return np.sum(np.conjugate(psi) * phi, axis=0)


def wedge(x, omega, p: int) -> np.ndarray:
    """(x ^ omega) for a 1-form x and dense antisymmetric p-form omega."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if p == 0:
        return x * float(omega)
    omega = np.asarray(omega, dtype=np.float64)
    out = np.zeros((n,) * (p + 1))
    for idx in combinations(range(n), p + 1):
        val = 0.0
        for k in range(p + 1):
            rest = idx[:k] + idx[k + 1:]
            val += (-1.0) ** k * x[idx[k]] * omega[rest]
        _fill_antisym(out, idx, val)
    return out


def contract(x, omega, p: int):
    """(x _| omega): contraction of a 1-form's dual vector into slot one."""
    x = np.asarray(x, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if p == 0:
        raise ValueError("cannot contract into a 0-form")
    res = np.tensordot(x, omega, axes=(0, 0))
    if p == 1:
        return float(res)
    return res


def _fill_antisym(arr: np.ndarray, idx: tuple, val: float) -> None:
    """Write val over all permutations of idx with alternating signs."""
    perms, signs = _signed_permutations(len(idx))
    arr[tuple(np.asarray(idx)[perms].T)] = signs * val


@lru_cache(maxsize=None)
def _signed_permutations(p: int) -> tuple:
    """All permutations of range(p) as a (p!, p) array, and their signs."""
    perms = np.array(list(permutations(range(p))))
    return perms, np.array([_perm_sign(q) for q in perms])


def _perm_sign(perm) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
