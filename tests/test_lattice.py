"""Lattice enumeration against a brute-force box scan."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodist import lattice
from periodist.lattice import ball, ball_count, ball_iter, norm1, shell_count, shell_count_bound


def brute_ball(d, r):
    """All points of the closed 1-norm ball, shells ascending, lex within."""
    pts = [
        p
        for p in itertools.product(range(-r, r + 1), repeat=d)
        if sum(abs(c) for c in p) <= r
    ]
    pts.sort(key=lambda p: (sum(abs(c) for c in p), p))
    return pts


@pytest.mark.parametrize("d,r", [(1, 0), (1, 7), (2, 0), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_ball_matches_box_enumeration(d, r):
    points, norms = ball(d, r)
    expected = brute_ball(d, r)
    assert points.dtype == np.int16
    assert norms.dtype == np.int16
    assert points.shape == (len(expected), d)
    assert points.flags.c_contiguous
    assert not points.flags.writeable and not norms.flags.writeable
    assert [tuple(row) for row in points] == expected
    assert norms.tolist() == [sum(abs(c) for c in p) for p in expected]


@pytest.mark.parametrize("d,r", [(1, 5000), (4, 24), (5, 12)])
def test_ball_build_memory_is_a_small_multiple_of_the_output(d, r):
    # an uncached build must not pass through the (2r+1)^d bounding cube
    tracemalloc.start()
    try:
        points, norms = ball.__wrapped__(d, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (points.nbytes + norms.nbytes)


def test_scan_order_is_shells_then_lex():
    points, _ = ball(2, 3)
    assert tuple(points[0]) == (0, 0)
    # first shell, lexicographic
    assert [tuple(p) for p in points[1:5]] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_shell_counts():
    assert [shell_count(1, r) for r in range(4)] == [1, 2, 2, 2]
    assert [shell_count(2, r) for r in range(4)] == [1, 4, 8, 12]
    assert [shell_count(3, r) for r in range(4)] == [1, 6, 18, 38]
    for d in range(1, 6):
        assert [shell_count(d, r) for r in range(13)] == np.bincount(ball(d, 12)[1]).tolist()
        assert [ball_count(d, r) for r in range(13)] == [len(ball(d, r)[0]) for r in range(13)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_shell_count_bound_exhaustive(d):
    # the closed-form bound must dominate the true shell sizes before any
    # tail estimate that uses it can be trusted
    top = 50
    axes = [np.arange(-top, top + 1)] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    norms = np.abs(mesh).sum(axis=1)
    counts = np.bincount(norms, minlength=top + 1)
    for r in range(top + 1):
        assert counts[r] <= shell_count_bound(d, r)
        assert counts[r] == shell_count(d, r)


def test_ball_iter_yields_tuples_in_order():
    seq = list(ball_iter(1, 2))
    assert seq == [(0,), (-1,), (1,), (-2,), (2,)]


def test_ball_arrays_are_frozen():
    points, norms = ball(2, 2)
    with pytest.raises(ValueError):
        points[0, 0] = 99
    with pytest.raises(ValueError):
        norms[0] = 99


def test_norm1():
    assert norm1(()) == 0
    assert norm1((-3, 4)) == 7


def test_shell_count_builds_no_ball():
    before = ball.cache_info()
    counts = [shell_count(3, r) for r in range(51)]
    assert ball_count(3, 50) == sum(counts) and ball_count(3, 2000) == 10_674_672_001
    assert ball.cache_info() == before
    assert counts[50] == 4 * 50 * 50 + 2


def test_ball_cache_is_bounded_by_bytes(monkeypatch):
    limit = 10_000  # int16 balls: a quarter of the int64 bytes, so the same requests evict the same balls
    monkeypatch.setattr(lattice, "_CACHE_BYTES", limit)
    ball.cache_clear()
    try:
        sizes = {}
        for d, r in [(2, 10), (2, 20), (3, 6), (2, 21), (1, 50), (3, 8), (2, 10), (2, 25)]:
            points, norms = ball(d, r)
            sizes[d, r] = points.nbytes + norms.nbytes
            info = ball.cache_info()
            assert info.currsize <= info.maxsize == limit
        assert ball.cache_info().misses == 8 and ball.cache_info().hits == 0  # (2, 10) was evicted
        assert sizes[2, 25] <= limit
        held = ball.cache_info().currsize
        ball(2, 25)  # the last one built is kept
        assert ball.cache_info().hits == 1
        # A window above the limit is returned but not kept.
        points, norms = ball(2, 60)
        assert points.nbytes + norms.nbytes > limit
        assert [tuple(p) for p in points[:3]] == [(0, 0), (-1, 0), (0, -1)]
        assert ball.cache_info().currsize == held
        misses = ball.cache_info().misses
        ball(2, 60)
        assert ball.cache_info().misses == misses + 1
        ball.cache_clear()
        assert ball.cache_info() == (0, 0, limit, 0)
        ball(2, 25)
        assert ball.cache_info().misses == 1
    finally:
        ball.cache_clear()


def test_ball_cache_keeps_the_recently_used():
    ball.cache_clear()
    first, _ = ball(3, 10)
    for r in range(40, 50):
        ball(2, r)
        assert ball(3, 10)[0] is first  # touched each time, never the oldest
    assert ball.cache_info().currsize <= lattice._CACHE_BYTES


# -- one ball per dimension: smaller radii are prefix views --------------

COLD = ball.__wrapped__  # the builder behind the cache


@pytest.mark.parametrize("d, R", [(1, 40), (2, 14), (3, 8), (4, 6)])
def test_a_smaller_radius_is_a_prefix_view_equal_to_a_cold_build(d, R):
    ball.cache_clear()
    try:
        held = ball(d, R)
        for r in range(R + 1):
            served = ball(d, r)
            for got, cold in zip(served, COLD(d, r)):
                assert got.dtype == cold.dtype and got.shape == cold.shape
                assert got.tobytes() == cold.tobytes()
                assert not got.flags.writeable and got.flags.c_contiguous
            assert all(np.shares_memory(got, whole) for got, whole in zip(served, held))
        assert ball.cache_info().misses == 1 and ball.cache_info().hits == R + 1
        assert ball(d, R)[0] is held[0]
    finally:
        ball.cache_clear()


def test_ball_is_int16_up_to_radius_32767_and_int64_beyond():
    for r in (0, 1, 32767):
        assert [a.dtype for a in COLD(1, r)] == [np.int16, np.int16]
    assert [a.dtype for a in COLD(3, 6)] == [np.int16, np.int16]
    points, norms = COLD(1, 32767)
    assert points[-2:, 0].tolist() == [-32767, 32767] and norms[-2:].tolist() == [32767, 32767]
    ball.cache_clear()
    try:
        points, norms = ball(1, 40000)
        assert points.dtype == norms.dtype == np.int64 and points.shape == (80001, 1)
        assert points[-2:, 0].tolist() == [-40000, 40000] and norms[-2:].tolist() == [40000, 40000]
        assert points[:5, 0].tolist() == [0, -1, 1, -2, 2]
        # A smaller radius is served from the held int64 ball, so it stays int64.
        served = ball(1, 7)
        assert ball.cache_info()[:2] == (1, 1)
        assert all(got.dtype == np.int64 and np.shares_memory(got, whole) for got, whole in zip(served, (points, norms)))
        assert [got.tolist() for got in served] == [cold.tolist() for cold in COLD(1, 7)]
    finally:
        ball.cache_clear()


def test_a_prefix_counts_as_a_hit_and_a_larger_radius_replaces_the_ball():
    ball.cache_clear()
    try:
        ball(2, 10)
        ball(2, 4)
        assert ball.cache_info()[:2] == (1, 1)
        size = ball.cache_info().currsize
        points, norms = ball(2, 12)  # built, and held in place of radius 10
        assert ball.cache_info()[:2] == (1, 2)
        assert ball.cache_info().currsize == points.nbytes + norms.nbytes > size
        assert np.shares_memory(ball(2, 10)[0], points)
        assert ball.cache_info()[:2] == (2, 2)
    finally:
        ball.cache_clear()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 12)), min_size=1, max_size=25))
def test_cache_stays_within_its_bytes_for_any_request_sequence(requests):
    limit, saved = 60_000, lattice._CACHE_BYTES
    lattice._CACHE_BYTES = limit
    ball.cache_clear()
    try:
        for d, r in requests:
            points, norms = ball(d, r)
            assert points.tobytes() == COLD(d, r)[0].tobytes()
            info = ball.cache_info()
            assert info.currsize <= info.maxsize == limit
        assert ball.cache_info().hits + ball.cache_info().misses == len(requests)
    finally:
        lattice._CACHE_BYTES = saved
        ball.cache_clear()
