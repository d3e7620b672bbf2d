"""Deterministic chunked evaluation.

Numerical results must not depend on how the work is split: work is cut
into index chunks that depend on the item count and the width alone, and
each chunk's result keeps its place.  The flux samples (``mass``, at
``CHUNK`` nodes) and the pointwise batteries (``suites``, at their point
budget) share this one loop, each with its own width.
"""

from __future__ import annotations

__all__ = ["CHUNK", "chunked_map"]

#: the node width of a flux sample's chunks
CHUNK = 256


def chunked_map(fn, count: int, width: int) -> list:
    """fn(start, stop) over the fewest index chunks of at most ``width``
    covering range(count), of equal width but for the last, in chunk
    order; a count of 0 makes no call."""
    if count <= 0:
        return []
    chunks = -(-count // width)
    step = -(-count // chunks)
    return [fn(a, min(a + step, count)) for a in range(0, count, step)]
