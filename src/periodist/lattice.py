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

Coordinates and norms never exceed the radius, so a ball of radius at
most 32,767 is stored as int16 and a larger one as int64 (in practice only
d = 1 reaches that far); a smaller radius served from a held int64 ball
stays int64.  int16 arithmetic wraps or raises where int64 would not
(``1 + norms`` wraps at 32,767, ``2**30 * points`` raises), so convert
before computing: ``points.astype(np.float64)``, ``1.0 + norms`` or
Python ints, as every consumer in this package does.

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
# d <= 3 and R <= 50 reuses about 1.4 MB of int16 balls; one ball of 250k
# points in d=4 takes 2.4 MB, so scans over windows of that size keep the
# largest ball of each of d = 2, 3 and 4 at once.
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
    Both are int16 when ``radius <= 32767`` and int64 otherwise, or int64
    when they are served from a held int64 ball: convert them before any
    arithmetic (see the module docstring).

    The ball is built shell by shell from the 1-D ball ``0, -1, 1, -2, 2,
    ...``: each further dimension gathers, for every pair ``(r, x0)`` in
    ascending order, shell ``r - |x0|`` of the previous ball (one contiguous
    slice) behind a leading column x0.  The leading column is built with
    ``np.repeat`` over the pairs and the gather index as a running sum, and
    every earlier column is gathered with one 1-D ``take`` of that index, so
    the Python loops are over dimensions only.  Columns, shells and norms
    are built in the output's dtype, only the gather index in int64.  The
    last dimension's columns are gathered straight into the C-contiguous
    ``points`` array.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    dtype = np.int16 if radius <= np.iinfo(np.int16).max else np.int64
    shells = np.arange(radius + 1, dtype=dtype)
    first = np.zeros(2 * radius + 1, dtype=dtype)
    first[2::2] = shells[1:]
    first[1::2] = -shells[1:]
    counts = np.full(radius + 1, 2, dtype=np.int64)
    counts[0] = 1
    if dimension > 1:
        # Pair p = r^2 + r + x0 stands for (r, x0), -r <= x0 <= r; shell r's
        # pairs start at r^2.  The pairs take O(R^2) memory, so a 1-D ball
        # (O(R)) never builds them; their indices are int64.
        wide = shells.astype(np.int64)
        pair_r = np.repeat(wide, 2 * wide + 1)
        pair_x0 = np.arange(pair_r.size, dtype=np.int64) - pair_r * pair_r - pair_r
        source = pair_r - np.abs(pair_x0)
        pair_x0, blocks = pair_x0.astype(dtype), wide * wide
    # The ball so far is its leading column, the index ``gather`` and the
    # columns behind the lead that ``gather`` reads from.
    lead, gather, columns = first, None, []
    for _ in range(1, dimension):
        columns = [lead] + [column.take(gather) for column in columns]
        lead, gather, counts = _next_dimension(counts, blocks, pair_x0, source)
    # The last gather writes into points one column at a time, so no more
    # than one gathered column is held beside it.
    points = np.empty((lead.size, dimension), dtype=dtype)
    points[:, 0] = lead
    for axis, column in enumerate(columns, 1):
        points[:, axis] = column.take(gather)
    norms = np.repeat(shells, counts)
    points.setflags(write=False)
    norms.setflags(write=False)
    return points, norms


def _next_dimension(counts, blocks, pair_x0, source):
    """One more dimension on a ball with shell sizes ``counts``: the new
    leading column, the row of the previous ball behind each new point (the
    gather index), and the new shell sizes.  ``blocks`` holds the first pair
    of each shell."""
    lengths = counts[source]  # every shell holds a point, so no block is empty
    starts = (np.cumsum(counts) - counts)[source]
    # Row j of block p reads row starts[p] + j of the previous ball: the index
    # steps by 1 inside a block and jumps to starts[p] where block p begins.
    # It is built in place as a running sum, so it is the one full-length
    # int64 array of the step.
    gather = np.ones(int(lengths.sum()), dtype=np.int64)
    jumps = starts.copy()
    jumps[1:] -= starts[:-1] + lengths[:-1] - 1
    gather[np.cumsum(lengths) - lengths] = jumps
    np.cumsum(gather, out=gather)
    return np.repeat(pair_x0, lengths), gather, np.add.reduceat(lengths, blocks)


def ball_count(dimension: int, radius: int) -> int:
    """Exact number of lattice points with 1-norm <= `radius`; no ball is built.

    Points with k nonzero coordinates: C(d, k) axes, 2^k signs, C(r, k) ways to
    choose their moduli with sum at most r: ``sum_k 2^k C(d, k) C(r, k)``.
    """
    d, r = dimension, radius
    if d < 1 or r < 0:
        raise ValueError("need dimension >= 1 and radius >= 0")
    return sum(2**k * math.comb(d, k) * math.comb(r, k) for k in range(min(d, r) + 1))


def ball_iter(dimension: int, radius: int):
    """Iterate the canonical scan order as plain index tuples."""
    points, _ = ball(dimension, radius)
    for row in points:
        yield tuple(int(c) for c in row)
