"""Tests for the Clifford algebra layer: representation matrices, vector and
form multiplication, the hermitian pairing, and exterior algebra helpers.

Forms are coefficient arrays on increasing index tuples; the dense
one-axis-per-slot implementation below serves as the oracle."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest

from confmass import clifford
from confmass.clifford import (
    MAX_DIM,
    build_rep,
    contract,
    gamma_product,
    inner,
    mul_form,
    mul_vector,
    wedge,
)
from confmass.suites import clifford_battery

RNG = np.random.Generator(np.random.PCG64(11))


def random_spinor(N, *batch):
    return RNG.normal(size=(N, *batch)) + 1j * RNG.normal(size=(N, *batch))


# ---------------------------------------------------------------------------
# dense oracle: a p-form is an antisymmetric array with p axes of length n

def perm_sign(perm) -> float:
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


def fill_antisym(arr, idx, val):
    """Write val over all permutations of idx with alternating signs."""
    for perm in permutations(range(len(idx))):
        arr[tuple(idx[q] for q in perm)] = perm_sign(perm) * val


def dense_wedge(x, omega, p):
    n = x.shape[0]
    if p == 0:
        return x * float(omega)
    out = np.zeros((n,) * (p + 1))
    for idx in combinations(range(n), p + 1):
        val = 0.0
        for k in range(p + 1):
            rest = idx[:k] + idx[k + 1:]
            val += (-1.0) ** k * x[idx[k]] * omega[rest]
        fill_antisym(out, idx, val)
    return out


def dense_contract(x, omega, p):
    res = np.tensordot(x, omega, axes=(0, 0))
    return float(res) if p == 1 else res


def dense_mul_form(rep, p, comps, psi):
    if p == 0:
        return float(comps) * psi
    acc = np.zeros_like(psi, dtype=np.complex128)
    for idx in combinations(range(rep.n), p):
        if comps[idx] != 0.0:
            acc = acc + comps[idx] * (gamma_product(rep.n, idx) @ psi)
    return acc


def densify(c, n, p):
    """Dense antisymmetric array of one column of tuple coefficients."""
    if p == 0:
        return float(c[0])
    out = np.zeros((n,) * p)
    for r, idx in enumerate(combinations(range(n), p)):
        fill_antisym(out, idx, c[r])
    return out


def coefficients(dense, n, p):
    """Tuple coefficients read off a dense antisymmetric array."""
    if p == 0:
        return np.array([float(dense)])
    return np.array([dense[idx] for idx in combinations(range(n), p)])


FORM_DEGREES = [(n, p) for n in range(3, 7) for p in range(n + 1)]
BATCH = 4


def random_form(n, p, *batch):
    return RNG.normal(size=(math.comb(n, p), *batch))


class TestRepresentation:
    @pytest.mark.parametrize("n", range(3, MAX_DIM + 1))
    def test_dimension_doubles_every_two_steps(self, n):
        assert build_rep(n).N == 2 ** (n // 2)

    @pytest.mark.parametrize("n", range(3, MAX_DIM + 1))
    def test_anticommutation_relations_exact(self, n):
        rep = build_rep(n)
        I = np.eye(rep.N)
        for a in range(n):
            for b in range(n):
                anti = rep.gamma[a] @ rep.gamma[b] + rep.gamma[b] @ rep.gamma[a]
                want = -2.0 * (a == b) * I
                assert np.array_equal(anti, want)

    @pytest.mark.parametrize("n", range(3, MAX_DIM + 1))
    def test_generators_anti_hermitian_exact(self, n):
        rep = build_rep(n)
        for a in range(n):
            assert np.array_equal(rep.gamma[a].conj().T, -rep.gamma[a])

    def test_three_dimensional_volume_element(self):
        # gamma1 gamma2 gamma3 = +Id for the n = 3 representation
        rep = build_rep(3)
        vol = rep.gamma[0] @ rep.gamma[1] @ rep.gamma[2]
        np.testing.assert_allclose(vol, np.eye(2), atol=1e-15)

    def test_build_rep_is_cached(self):
        assert build_rep(4) is build_rep(4)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            build_rep(MAX_DIM + 1)
        with pytest.raises(ValueError):
            build_rep(1)

    def test_gamma_product(self):
        rep = build_rep(4)
        got = gamma_product(4, (0, 2, 3))
        want = rep.gamma[0] @ rep.gamma[2] @ rep.gamma[3]
        assert np.array_equal(got, want)

    def test_gamma_product_empty_index_is_identity(self):
        assert np.array_equal(gamma_product(3, ()), np.eye(2))


class TestMultiplication:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vector_multiplication_matches_matrices(self, n):
        rep = build_rep(n)
        v = RNG.normal(size=n)
        psi = random_spinor(rep.N)
        want = sum(v[a] * (rep.gamma[a] @ psi) for a in range(n))
        np.testing.assert_allclose(mul_vector(rep, v, psi), want, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_vector_square_is_minus_norm(self, n):
        rep = build_rep(n)
        v = RNG.normal(size=n)
        psi = random_spinor(rep.N)
        twice = mul_vector(rep, v, mul_vector(rep, v, psi))
        np.testing.assert_allclose(twice, -np.dot(v, v) * psi, atol=1e-13)

    def test_form_multiplication_rank_one_is_vector_action(self):
        rep = build_rep(3)
        v = RNG.normal(size=3)
        psi = random_spinor(2)
        np.testing.assert_allclose(
            mul_form(rep, 1, v, psi), mul_vector(rep, v, psi), atol=1e-15
        )

    def test_form_multiplication_rank_zero_is_scalar(self):
        rep = build_rep(3)
        psi = random_spinor(2)
        np.testing.assert_allclose(mul_form(rep, 0, [2.5], psi), 2.5 * psi, atol=0)

    @pytest.mark.parametrize("n,p", FORM_DEGREES)
    def test_mul_form_matches_dense_oracle(self, n, p):
        rep = build_rep(n)
        c = random_form(n, p, BATCH)
        psi = random_spinor(rep.N, BATCH)
        got = mul_form(rep, p, c, psi)
        assert got.shape == (rep.N, BATCH)
        for j in range(BATCH):
            want = dense_mul_form(rep, p, densify(c[:, j], n, p), psi[:, j])
            np.testing.assert_allclose(got[:, j], want, rtol=0, atol=1e-14)

    def test_form_shape_guard(self):
        rep = build_rep(4)
        with pytest.raises(ValueError):
            mul_form(rep, 2, np.zeros(5), random_spinor(rep.N))
        with pytest.raises(ValueError):
            mul_form(rep, 5, np.zeros(1), random_spinor(rep.N))
        with pytest.raises(ValueError):
            wedge(np.zeros(4), np.zeros(5), 2)
        with pytest.raises(ValueError):
            contract(np.zeros(4), np.zeros(1), 0)


class TestPairing:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_hermitian(self, n):
        rep = build_rep(n)
        psi, phi = random_spinor(rep.N), random_spinor(rep.N)
        assert inner(rep, psi, phi) == pytest.approx(np.conj(inner(rep, phi, psi)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_positive_definite(self, n):
        rep = build_rep(n)
        psi = random_spinor(rep.N)
        v = inner(rep, psi, psi)
        assert v.imag == pytest.approx(0.0, abs=1e-15)
        assert v.real > 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clifford_multiplication_skew_adjoint(self, n):
        # h(x psi, phi) + h(psi, x phi) = 0 for real vectors x
        rep = build_rep(n)
        x = RNG.normal(size=n)
        psi, phi = random_spinor(rep.N), random_spinor(rep.N)
        s = inner(rep, mul_vector(rep, x, psi), phi) + inner(
            rep, psi, mul_vector(rep, x, phi)
        )
        assert abs(s) <= 1e-13


class TestExteriorAlgebra:
    @pytest.mark.parametrize("n,p", FORM_DEGREES)
    def test_wedge_matches_dense_oracle(self, n, p):
        x = RNG.normal(size=(n, BATCH))
        c = random_form(n, p, BATCH)
        got = wedge(x, c, p)
        assert got.shape == (math.comb(n, p + 1), BATCH)
        for j in range(BATCH):
            want = dense_wedge(x[:, j], densify(c[:, j], n, p), p)
            np.testing.assert_allclose(got[:, j], coefficients(want, n, p + 1),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,p", [(n, p) for n, p in FORM_DEGREES if p > 0])
    def test_contract_matches_dense_oracle(self, n, p):
        x = RNG.normal(size=(n, BATCH))
        c = random_form(n, p, BATCH)
        got = contract(x, c, p)
        assert got.shape == (math.comb(n, p - 1), BATCH)
        for j in range(BATCH):
            want = dense_contract(x[:, j], densify(c[:, j], n, p), p)
            np.testing.assert_allclose(got[:, j], coefficients(want, n, p - 1),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_column_alone_equals_column_in_batch(self, n):
        rep = build_rep(n)
        x = RNG.normal(size=(n, 5))
        psi = random_spinor(rep.N, 5)
        for p in range(n + 1):
            c = random_form(n, p, 5)
            ops = [lambda x, c, psi: mul_form(rep, p, c, psi),
                   lambda x, c, psi: wedge(x, c, p)]
            if p > 0:
                ops.append(lambda x, c, psi: contract(x, c, p))
            for op in ops:
                full = op(x, c, psi)
                for j in range(5):
                    assert np.array_equal(op(x[:, j], c[:, j], psi[:, j]), full[:, j])

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (4, 2), (5, 2)])
    def test_cartan_style_identity(self, n, p):
        # contract(x, wedge(x, om)) + wedge(x, contract(x, om)) = |x|^2 om
        x = RNG.normal(size=n)
        om = random_form(n, p)
        lhs = contract(x, wedge(x, om, p), p + 1) + wedge(x, contract(x, om, p), p - 1)
        np.testing.assert_allclose(lhs, np.dot(x, x) * om, atol=1e-12)

    def test_contract_rank_one_is_dot_product(self):
        x = RNG.normal(size=4)
        y = RNG.normal(size=4)
        got = contract(x, y, 1)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(np.dot(x, y))

    @pytest.mark.parametrize("n", [3, 4])
    def test_vector_action_splits_into_wedge_minus_contraction(self, n):
        # x . (om . psi) = (x ^ om) . psi - (x -| om) . psi  for 1-forms om
        rep = build_rep(n)
        x = RNG.normal(size=n)
        om = RNG.normal(size=n)
        psi = random_spinor(rep.N)
        lhs = mul_vector(rep, x, mul_form(rep, 1, om, psi))
        rhs = mul_form(rep, 2, wedge(x, om, 1), psi) - mul_form(
            rep, 0, contract(x, om, 1), psi
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("table", ["_wedge_table", "_contract_table"])
def test_battery_catches_one_flipped_sign(monkeypatch, table):
    original = getattr(clifford, table)

    def flipped(n, p):
        sign, slot, row = original(n, p)
        if sign.size:
            sign = sign.copy()
            sign[0, 0] = -sign[0, 0]
        return sign, slot, row

    monkeypatch.setattr(clifford, table, flipped)
    out = clifford_battery(4)
    check = next(c for c in out["checks"] if c["name"] == "clifford-wedge-contract")
    assert not check["pass"] and check["value"] > 0.1
