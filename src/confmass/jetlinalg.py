"""Linear algebra over the jet ring for small (n <= 8) matrices.

A matrix is one batched Jet whose coefficient array is (m, B, n, n): the
jet axis, the batch of B points, then row and column.  ``mat_inv`` and
``spd_sqrt`` return the same layout and solve in a single pass over the
Taylor grades (Higham, *Functions of Matrices*, SIAM 2008, sec. 6.1):

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

Batch independence: LAPACK factors each matrix of the value part, and
the n x n products are stacked ``np.matmul`` calls (BLAS).  That each
column's result is bitwise the same whatever batch it is computed in
is held by ``tests/test_jetlinalg.py::
test_whole_batch_equals_single_columns_bitwise``, at batch widths 1, 7
and 257 from an odd offset.  Across LAPACK and BLAS builds the results
may differ in the last bits.
"""

from __future__ import annotations

import functools

import numpy as np

from .jets import Jet, JetSpace, pair_plan, pair_sum, tensor_mul

__all__ = ["mat_inv", "mat_det", "spd_sqrt"]


@functools.lru_cache(maxsize=None)
def _grade_pairs(space: JetSpace, k: int, nonzero_right: bool):
    """Multiplication-table pairs (i, j) feeding the grade-k targets,
    with alpha_i != 0 (and alpha_j != 0 if asked), plus their
    ``pair_plan`` (None when there are none)."""
    lo, hi = space.grade_count[k - 1], space.grade_count[k]
    t, i, j = space._mul_t, space._mul_i, space._mul_j
    keep = (t >= lo) & (t < hi) & (i != 0)
    if nonzero_right:
        keep &= j != 0
    starts = np.searchsorted(t[keep], np.arange(lo, hi))
    return i[keep], j[keep], (pair_plan(starts, int(keep.sum())) if keep.any() else None)


def _graded(C: np.ndarray, space: JetSpace, X0: np.ndarray, solve,
            nonzero_right: bool) -> np.ndarray:
    """The grade recursion on a stacked (m, B, n, n) array: X_0 = X0, then
    X_g = solve(A_g, conv_g) grade by grade, where conv_g sums A_a X_b
    (or X_a X_b with ``nonzero_right``) over the pairs a + b = g, a != 0."""
    X = np.empty_like(C)
    X[0] = X0
    for k in range(1, space.order + 1):
        lo, hi = space.grade_count[k - 1], space.grade_count[k]
        i, j, plan = _grade_pairs(space, k, nonzero_right)
        conv = None
        if plan is not None:
            left = X[i] if nonzero_right else C[i]
            conv = pair_sum(left @ X[j], plan)
        X[lo:hi] = solve(C[lo:hi], conv)
    return X


def mat_inv(A: Jet) -> Jet:
    """Jet inverse X of A, A X = I: LAPACK on the value part, then
    X_g = -A_0^-1 sum_{a+b=g, a!=0} A_a X_b grade by grade."""
    inv0 = np.linalg.inv(A.value)
    return Jet(A.space, _graded(A.c, A.space, inv0, lambda Ag, conv: -(inv0 @ conv),
                                nonzero_right=False))


def spd_sqrt(A: Jet) -> Jet:
    """Jet principal square root S of an SPD jet matrix, S S = A.

    ``eigh`` of the value part gives S_0 = Q diag(sqrt l) Q^T; each grade
    then solves S_0 S_g + S_g S_0 = A_g - sum_{a+b=g, a,b!=0} S_a S_b,
    which in the eigenbasis is a division by sqrt(l_i) + sqrt(l_j).
    """
    lam, Q = np.linalg.eigh(A.value)
    if not np.all(lam > 0.0):
        raise ArithmeticError("matrix square root needs a positive definite value part")
    root = np.sqrt(lam)
    QT = np.swapaxes(Q, -1, -2)
    denom = root[..., :, None] + root[..., None, :]

    def solve(Ag, conv):
        rhs = Ag if conv is None else Ag - conv
        return Q @ ((QT @ rhs @ Q) / denom) @ QT

    return Jet(A.space, _graded(A.c, A.space, (Q * root[..., None, :]) @ QT, solve,
                                nonzero_right=True))


def mat_det(A: Jet) -> Jet:
    """Determinant by elimination (product of pivots; no pivoting); each
    step eliminates a whole column below its pivot at once."""
    sp = A.space
    M = A.c.copy()
    det = Jet(sp, M[:, :, 0, 0])
    for col in range(M.shape[-1] - 1):
        f = Jet(sp, M[:, :, col + 1:, col]) / Jet(sp, M[:, :, col, col, None])
        M[:, :, col + 1:, col + 1:] -= tensor_mul(sp, f.c[..., None], M[:, :, col, None, col + 1:])
        det = det * Jet(sp, M[:, :, col + 1, col + 1])
    return det
