"""Tests for the one-pass jet linear algebra: the square root and the
inverse of SPD jet matrices, checked in jet arithmetic and for batch
independence."""

import numpy as np
import pytest

from confmass import jetlinalg
from confmass.jets import Jet, JetSpace

CASES = [(n, order) for n in range(2, 7) for order in (1, 2, 3)]


def random_spd(n, order, batch, seed):
    """Symmetric jet matrix: SPD value part, random higher grades."""
    rng = np.random.default_rng(seed)
    sp = JetSpace.get(n, order)
    R = rng.normal(size=(sp.m, batch, n, n))
    C = 0.5 * (R + np.swapaxes(R, -1, -2))
    C[0] = R[0] @ np.swapaxes(R[0], -1, -2) + n * np.eye(n)
    return Jet(sp, C)


def entries(A):
    """A stacked (m, B, n, n) jet matrix as a nested list of scalar jets."""
    n = A.c.shape[-1]
    return [[Jet(A.space, A.c[:, :, i, j]) for j in range(n)] for i in range(n)]


def stack(M):
    """Coefficients of a nested list of scalar jets as one (m, B, n, n) array."""
    return np.stack([np.stack([x.c for x in row], axis=-1) for row in M], axis=-2)


def jet_matmul(A, B):
    A, B = entries(A), entries(B)
    n = len(A)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for l in range(1, n):
                acc = acc + A[i][l] * B[l][j]
            out[i][j] = acc
    return out


def column(A, b):
    return Jet(A.space, A.c[:, b:b + 1])


@pytest.mark.parametrize("n,order", CASES)
def test_square_root_squares_back_in_jet_arithmetic(n, order):
    A = random_spd(n, order, 16, seed=10 * n + order)
    S = jetlinalg.spd_sqrt(A)
    a = A.c
    gap = np.max(np.abs(stack(jet_matmul(S, S)) - a))
    assert gap <= 1e-13 * np.max(np.abs(a))


@pytest.mark.parametrize("n,order", CASES)
def test_inverse_is_a_two_sided_jet_inverse(n, order):
    A = random_spd(n, order, 16, seed=10 * n + order)
    X = jetlinalg.mat_inv(A)
    eye = np.zeros_like(A.c)
    eye[0] = np.eye(n)
    for P in (jet_matmul(A, X), jet_matmul(X, A)):
        assert np.max(np.abs(stack(P) - eye)) <= 1e-13


@pytest.mark.parametrize("fn", [jetlinalg.spd_sqrt, jetlinalg.mat_inv, jetlinalg.mat_det])
@pytest.mark.parametrize("n,order", CASES)
def test_whole_batch_equals_single_columns_bitwise(fn, n, order):
    # widths 1, 7 and 257: BLAS kernels can branch on alignment and on
    # tails, so the 257 start at an odd offset and the 7 are its tail
    A = random_spd(n, order, 258, seed=n + 100 * order)
    for lo in (1, 251):
        whole = fn(Jet(A.space, A.c[:, lo:])).c
        for b in range(whole.shape[1]):
            one = fn(column(A, lo + b)).c
            assert np.array_equal(one[:, 0], whole[:, b])


def test_square_root_rejects_an_indefinite_value_part():
    A = random_spd(3, 1, 4, seed=1)
    A.c[0, 2, 0, 0] = -5.0
    with pytest.raises(ArithmeticError):
        jetlinalg.spd_sqrt(A)
