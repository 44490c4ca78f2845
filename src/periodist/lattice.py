"""Deterministic enumeration of integer lattice points by 1-norm shells.

Every window scan in the package walks lattice points in the same fixed
order: shells of constant 1-norm, radius increasing, and lexicographic
order on the coordinate tuple inside each shell.  "First violation"
results and truncated sums are therefore reproducible bit for bit.

Balls are built directly in that order, one dimension at a time.  In the
canonical order every shell of a ball is one contiguous block of rows,
and a point ``(x0, y)`` of the d-dimensional shell r is a point y of the
(d-1)-dimensional shell ``r - |x0|`` with x0 put in front.  Listing the
pairs ``(r, x0)`` with r ascending and x0 ascending, and for each pair
copying that block of the previous ball, therefore yields the next ball
already sorted: no bounding cube is materialised and nothing is sorted.
The ball is held as one array per coordinate while it grows: each step
gathers every column with one 1-D ``take`` of the same index, and the last
step writes its columns straight into the ``(count, d)`` array, so that
array is written once, at the end.
Memory stays within a small multiple of the output.

Rows are sorted by norm first, so ``ball(d, r)`` is the first part of
``ball(d, R)`` for every ``r <= R``.  The cache holds one ball per
dimension, the largest built so far, and serves a smaller radius as
read-only views of its first rows; a larger radius builds a ball that
replaces it.  Dimensions are dropped least recently used first, within
``_CACHE_BYTES`` of arrays; a ball larger than that is returned without
being kept.  Scans read balls slice by slice, so this cache, with the
values of tree nodes ``expr`` keeps on small slices of these balls, sets
the memory held between window calls; ``ball.cache_clear`` empties both.

The shell cardinality bound ``count(d, r) <= 2^d * (1+r)^(d-1)`` used by
series tail estimates is exported here so it can be validated against
exhaustive enumeration (see the test suite).
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict, namedtuple

import numpy as np

LatticeIndex = tuple[int, ...]

# Bytes of ball arrays the cache may hold.  A run of jobs over windows of
# d <= 3 and R <= 50 reuses about 10 MB of balls; one ball of 250k points
# in d=4 takes 10 MB, so scans over many large windows keep only the last.
_CACHE_BYTES = 16 << 20

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")  # sizes in bytes


def _cached_by_bytes(build):
    """Cache of ``build(dimension, radius)`` holding the largest ball of each
    dimension within ``_CACHE_BYTES`` of arrays; a prefix of it is a hit."""
    entries: OrderedDict = OrderedDict()  # dimension -> (rows of the balls of radius 0..R, arrays)
    counts = [0, 0, 0]  # hits, misses, bytes held
    lock = threading.Lock()

    @functools.wraps(build)
    def cached(dimension: int, radius: int):
        with lock:
            ends, arrays = entries.get(dimension, ((), ()))
            hit = 0 <= radius < len(ends)
            counts[not hit] += 1
            if hit:
                entries.move_to_end(dimension)
                rows = ends[radius]
                return arrays if rows == len(arrays[0]) else tuple(a[:rows] for a in arrays)
        arrays = build(dimension, radius)
        size = sum(a.nbytes for a in arrays)
        with lock:
            ends, held = entries.get(dimension, ((), ()))
            if size <= _CACHE_BYTES and len(ends) <= radius:  # larger than the ball held
                entries.pop(dimension, None)
                entries[dimension] = (np.searchsorted(arrays[1], range(radius + 1), "right").tolist(), arrays)
                counts[2] += size - sum(a.nbytes for a in held)
                while counts[2] > _CACHE_BYTES:
                    counts[2] -= sum(a.nbytes for a in entries.popitem(last=False)[1][1])
        return arrays

    def cache_clear() -> None:
        with lock:
            entries.clear()
            counts[:] = [0, 0, 0]
        for clear in cached.also_clear:  # caches keyed by windows of these balls
            clear()

    cached.cache_info = lambda: CacheInfo(counts[0], counts[1], _CACHE_BYTES, counts[2])
    cached.cache_clear = cache_clear
    cached.also_clear = []
    return cached


def norm1(index: LatticeIndex) -> int:
    """1-norm of a lattice index."""
    return sum(map(abs, index))


def shell_count_bound(dimension: int, radius: int) -> float:
    """Upper bound on the number of lattice points with 1-norm exactly `radius`.

    The bound is ``2^d * (1+r)^(d-1)``: each point is determined by a sign
    pattern (at most 2^d choices) and a composition of r into d parts
    (at most (1+r)^(d-1) choices).
    """
    if dimension < 1 or radius < 0:
        raise ValueError("need dimension >= 1 and radius >= 0")
    return float(2**dimension) * float(1 + radius) ** (dimension - 1)


@_cached_by_bytes
def ball(dimension: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """All lattice points with 1-norm <= radius, in canonical scan order.

    Returns ``(points, norms)`` where ``points`` has shape ``(count, dimension)``
    and ``norms[i]`` is the 1-norm of row i.  Rows are sorted by
    ``(norm, coordinates lexicographically)``.  Arrays are read-only and
    C-contiguous, views of the cached ball's first rows when it is larger.

    The ball is built shell by shell from the 1-D ball ``0, -1, 1, -2, 2,
    ...``: each further dimension gathers, for every pair ``(r, x0)`` in
    ascending order, shell ``r - |x0|`` of the previous ball (one contiguous
    slice) behind a leading column x0.  The gather index and the leading
    column are built with ``np.repeat`` over the pairs, and every earlier
    column is gathered with one 1-D ``take`` of that index, so the Python
    loops are over dimensions only.  The last dimension's columns are
    gathered straight into the C-contiguous ``points`` array.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    steps = np.arange(1, radius + 1, dtype=np.int64)
    first = np.zeros(2 * radius + 1, dtype=np.int64)
    first[1::2] = -steps
    first[2::2] = steps
    counts = np.full(radius + 1, 2, dtype=np.int64)
    counts[0] = 1
    shells = np.arange(radius + 1, dtype=np.int64)
    if dimension > 1:
        # Pair p = r^2 + r + x0 stands for (r, x0), -r <= x0 <= r.  The
        # pairs take O(R^2) memory, so a 1-D ball (O(R)) never builds them.
        pair_r = np.repeat(shells, 2 * shells + 1)
        pair_x0 = np.arange(pair_r.size, dtype=np.int64) - pair_r * pair_r - pair_r
        source = pair_r - np.abs(pair_x0)
    # The ball so far is its leading column, the index ``gather`` and the
    # columns behind the lead that ``gather`` reads from.
    lead, gather, columns = first, None, []
    for _ in range(1, dimension):
        columns = [lead] + [column.take(gather) for column in columns]
        lead, gather, counts = _next_dimension(counts, shells, pair_x0, source)
    # The last gather writes into points one column at a time, so no more
    # than one gathered column is held beside it.
    points = np.empty((lead.size, dimension), dtype=np.int64)
    points[:, 0] = lead
    for axis, column in enumerate(columns, 1):
        points[:, axis] = column.take(gather)
    norms = np.repeat(shells, counts)
    points.setflags(write=False)
    norms.setflags(write=False)
    return points, norms


def _next_dimension(counts, shells, pair_x0, source):
    """One more dimension on a ball with shell sizes ``counts``: the new
    leading column, the row of the previous ball behind each new point (the
    gather index), and the new shell sizes."""
    lengths = counts[source]
    starts = np.cumsum(counts) - counts
    # Row j of block p reads row starts[source[p]] + j of the previous ball.
    offsets = np.cumsum(lengths) - lengths
    gather = np.repeat(starts[source] - offsets, lengths)
    gather += np.arange(gather.size, dtype=np.int64)
    return np.repeat(pair_x0, lengths), gather, np.add.reduceat(lengths, shells * shells)


def shell(dimension: int, radius: int) -> np.ndarray:
    """Lattice points with 1-norm exactly `radius`, lexicographically sorted.

    A read-only view of the last block of the cached ball.
    """
    points, norms = ball(dimension, radius)
    return points[np.searchsorted(norms, radius):]


def shell_count(dimension: int, radius: int) -> int:
    """Exact number of lattice points with 1-norm exactly `radius`; no ball is built.

    Points with k nonzero coordinates: C(d, k) axes, 2^k signs, C(r-1, k-1) compositions of r.
    """
    d, r = dimension, radius
    if d < 1 or r < 0:
        raise ValueError("need dimension >= 1 and radius >= 0")
    return 1 if r == 0 else sum(math.comb(d, k) * 2**k * math.comb(r - 1, k - 1) for k in range(1, d + 1))


def ball_iter(dimension: int, radius: int):
    """Iterate the canonical scan order as plain index tuples."""
    points, _ = ball(dimension, radius)
    for row in points:
        yield tuple(int(c) for c in row)
