"""Deterministic chunked evaluation and reduction helpers.

Numerical results must not depend on how the work is split: work is
cut into fixed-size chunks keyed by index (the chunking depends on the
item count alone), each chunk's result keeps its place, and sums are
taken with a fixed pairwise binary tree instead of a left fold.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CHUNK", "pairwise_sum", "chunked_map"]

CHUNK = 256


def pairwise_sum(values: np.ndarray):
    """Sum with a fixed binary-tree order (independent of chunking)."""
    values = np.asarray(values)
    m = values.shape[0]
    if m == 0:
        return values.dtype.type(0)
    while m > 1:
        half = m // 2
        head = values[:half] + values[half:2 * half]
        if m % 2:
            values = np.concatenate([head, values[2 * half:2 * half + 1]])
        else:
            values = head
        m = values.shape[0]
    return values[0]


def chunked_map(fn, count: int) -> list:
    """Evaluate fn(start, stop) over fixed ``CHUNK``-wide index chunks.

    Results are returned in chunk order; the chunk boundaries are a
    function of ``count`` alone.
    """
    return [fn(a, min(a + CHUNK, count)) for a in range(0, count, CHUNK)]
