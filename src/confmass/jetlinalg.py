"""Linear algebra over the jet ring for small (n <= 8) matrices.

Matrices are nested lists of Jet sharing one JetSpace.  ``mat_inv`` and
``spd_sqrt`` stack their argument into one coefficient array of shape
(m, B, n, n) and solve it in a single pass over the Taylor grades
(Higham, *Functions of Matrices*, SIAM 2008, sec. 6.1):

* the value part (grade 0) is factored once with LAPACK: ``inv`` for
  the inverse, ``eigh`` for the square root;
* each higher grade gamma then follows in closed form from the lower
  ones, the pairs alpha + beta = gamma coming from the JetSpace
  multiplication table:

      inverse:  X_g = -A_0^-1 sum_{a+b=g, a!=0} A_a X_b
      sqrt:     S_0 S_g + S_g S_0 = A_g - sum_{a+b=g, a,b!=0} S_a S_b,

  the latter a division by sqrt(l_i) + sqrt(l_j) in the eigenbasis of
  A_0.

There is no iteration and no convergence branch.  ``spd_sqrt`` needs a
symmetric positive definite value part (metric tensors); ``mat_inv``
and ``mat_det`` need pivots that do not vanish, which SPD value parts
guarantee.

Batch independence: LAPACK runs once per matrix on its own copy, and
the n x n products are written as n elementwise multiply-adds over the
batch rather than handed to BLAS, so each column's result is bitwise
the same whatever batch it is computed in (the tests check this).
Across LAPACK builds the results may differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet, JetSpace

__all__ = ["mat_inv", "mat_det", "spd_sqrt", "values", "stack", "unstack"]


def values(A) -> np.ndarray:
    """Value parts as an ndarray of shape (n, n) or (n, n, B)."""
    return np.array([[A[i][j].value for j in range(len(A[0]))] for i in range(len(A))])


def _coeffs(M):
    return M.c if isinstance(M, Jet) else [_coeffs(x) for x in M]


def _first(M) -> Jet:
    while not isinstance(M, Jet):
        M = M[0]
    return M


def stack(M) -> np.ndarray:
    """Coefficients of a nested list of jets as one (m, B, *index) array.

    Unbatched jets (coefficients of shape (m,)) get a batch axis of 1.
    """
    C = np.array(_coeffs(M))
    if _first(M).c.ndim == 1:
        C = C[..., None]
    k = C.ndim - 2
    return np.moveaxis(C, (k, k + 1), (0, 1))


def unstack(space: JetSpace, C: np.ndarray, batched: bool = True):
    """Inverse of :func:`stack`: a nested list of jets, one per index."""
    C = np.ascontiguousarray(np.moveaxis(C, (0, 1), (-2, -1)))
    if not batched:
        C = C[..., 0]

    def build(block):
        if block.ndim == (2 if batched else 1):
            return Jet(space, block)
        return [build(b) for b in block]

    return build(C)


def _mm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y over the last two axes as n multiply-adds (no BLAS)."""
    acc = X[..., :, :1] * Y[..., :1, :]
    for l in range(1, X.shape[-1]):
        acc = acc + X[..., :, l:l + 1] * Y[..., l:l + 1, :]
    return acc


def _grade_pairs(space: JetSpace, k: int, nonzero_right: bool):
    """Multiplication-table pairs (i, j) feeding the grade-k targets,
    with alpha_i != 0 (and alpha_j != 0 if asked), plus reduceat starts."""
    lo, hi = space.grade_count[k - 1], space.grade_count[k]
    t, i, j = space._mul_t, space._mul_i, space._mul_j
    keep = (t >= lo) & (t < hi) & (i != 0)
    if nonzero_right:
        keep &= j != 0
    starts = np.searchsorted(t[keep], np.arange(lo, hi))
    return i[keep], j[keep], starts


def _graded(C: np.ndarray, space: JetSpace, X0: np.ndarray, solve,
            nonzero_right: bool) -> np.ndarray:
    """The grade recursion on a stacked (m, B, n, n) array: X_0 = X0, then
    X_g = solve(A_g, conv_g) grade by grade, where conv_g sums A_a X_b
    (or X_a X_b with ``nonzero_right``) over the pairs a + b = g, a != 0."""
    X = np.empty_like(C)
    X[0] = X0
    for k in range(1, space.order + 1):
        lo, hi = space.grade_count[k - 1], space.grade_count[k]
        i, j, starts = _grade_pairs(space, k, nonzero_right)
        conv = None
        if len(i):
            left = X[i] if nonzero_right else C[i]
            conv = np.add.reduceat(_mm(left, X[j]), starts, axis=0)
        X[lo:hi] = solve(C[lo:hi], conv)
    return X


def mat_inv(A) -> list[list[Jet]]:
    """Jet inverse X of A, A X = I: LAPACK on the value part, then
    X_g = -A_0^-1 sum_{a+b=g, a!=0} A_a X_b grade by grade."""
    head = _first(A)
    C = stack(A)
    inv0 = np.linalg.inv(C[0])
    X = _graded(C, head.space, inv0, lambda Ag, conv: -_mm(inv0, conv),
                nonzero_right=False)
    return unstack(head.space, X, head.c.ndim == 2)


def spd_sqrt(A) -> list[list[Jet]]:
    """Jet principal square root S of an SPD jet matrix, S S = A.

    ``eigh`` of the value part gives S_0 = Q diag(sqrt l) Q^T; each grade
    then solves S_0 S_g + S_g S_0 = A_g - sum_{a+b=g, a,b!=0} S_a S_b,
    which in the eigenbasis is a division by sqrt(l_i) + sqrt(l_j).
    """
    head = _first(A)
    C = stack(A)
    lam, Q = np.linalg.eigh(C[0])
    if not np.all(lam > 0.0):
        raise ArithmeticError("matrix square root needs a positive definite value part")
    root = np.sqrt(lam)
    QT = np.swapaxes(Q, -1, -2)
    denom = root[..., :, None] + root[..., None, :]

    def solve(Ag, conv):
        rhs = Ag if conv is None else Ag - conv
        return _mm(_mm(Q, _mm(_mm(QT, rhs), Q) / denom), QT)

    S = _graded(C, head.space, _mm(Q * root[..., None, :], QT), solve,
                nonzero_right=True)
    return unstack(head.space, S, head.c.ndim == 2)


def mat_det(A) -> Jet:
    """Determinant by elimination (product of pivots; no pivoting)."""
    n = len(A)
    M = [[A[i][j] for j in range(n)] for i in range(n)]
    det = None
    for col in range(n):
        piv = M[col][col]
        det = piv if det is None else det * piv
        for row in range(col + 1, n):
            f = M[row][col] / piv
            for j in range(col + 1, n):
                M[row][j] = M[row][j] - f * M[col][j]
    return det
