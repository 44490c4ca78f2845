"""The streaming scan kernel: slice-size invariance, early exit, bounded memory."""

import json
import math
import random
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodist import cli, corona, sequences
from periodist import expr as ex
from periodist.errors import WitnessViolation
from periodist.lattice import ball
from periodist.sequences import DecayBound, FastSequence, GrowthCertificate, SlowSequence
from periodist.stable_rank import reduce_tuple, weak_star_gap
from test_expr import lane_dag, random_dag

UNCHUNKED = 1 << 30


def random_tree(rng: random.Random, dimension: int, depth: int = 3) -> ex.Node:
    """A random tree of the kinds that evaluate everywhere (no reciprocals)."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.randrange(5)
        if pick == 0:
            return ex.Coord(rng.randrange(dimension))
        if pick == 1:
            return ex.Norm1()
        if pick == 2:
            return ex.PolyEnv(rng.randint(0, 2))
        if pick == 3:
            return ex.ExpDecay(rng.uniform(0.05, 1.0))
        return ex.Const(rng.uniform(-2, 2), rng.uniform(-1, 1))
    pick = rng.randrange(6)
    if pick < 2:
        args = tuple(random_tree(rng, dimension, depth - 1) for _ in range(rng.randint(2, 3)))
        return (ex.Add, ex.Mul)[pick](args)
    if pick == 5:
        return ex.Clip(random_tree(rng, dimension, depth - 1), rng.uniform(0.1, 3.0))
    return (ex.Neg, ex.Conj, ex.Abs)[pick - 2](random_tree(rng, dimension, depth - 1))


# A tree that is NaN at every |n|_1 >= 1: inf * 0.
NAN_TREE = ex.Mul((ex.PolyEnv(2000), ex.ExpDecay(800.0)))


def slow(tree, dimension):
    return SlowSequence.from_expr(tree, dimension)


def window_results(seed: int, tree=random_tree) -> list:
    """Every window consumer on random trees of one seed, ``tree(rng, dimension)``,
    as exact text and bytes."""
    rng = random.Random(seed)
    d = rng.choice((1, 2))
    R = {1: 40, 2: 9}[d]
    family = [slow(tree(rng, d), d) for _ in range(rng.randint(1, 3))]
    cofactors = [slow(tree(rng, d), d) for _ in family]
    a, x = slow(tree(rng, d), d), slow(tree(rng, d), d)
    b = FastSequence(tree(rng, d), d, decay=DecayBound(1.0, 0, 0.5), support=rng.randint(0, R))
    claimed = SlowSequence(a.expr, d, GrowthCertificate(rng.uniform(0.5, 4.0), rng.randint(0, 2)))
    # A floor the combined modulus crosses somewhere inside the window.
    floor = float(np.median(corona.combined_modulus(family, R)))
    out = [
        corona.check_corona_window(family, floor, 0, R),
        corona.check_corona_window(family, floor, 1, R),
        corona.is_unit(a, corona.CoronaWitness(floor, 0), R).first_violation,
        corona.combined_modulus(family, R).tobytes(),
        corona.verify_bezout(family, cofactors, R),
        claimed.check_certificate(R),
        sequences.seminorm(b, 2, R),
        sequences.pairing(a, b, R),
        weak_star_gap(x, a, b, R),
        b.seminorm_bound(1),
        b.abs_sum_bound(),
        b.weighted_abs_sum_bound(),
        sequences.window_values(a.expr, d, R).tobytes(),
    ]
    return [repr(item) for item in out]


def nan_results() -> list:
    seq = slow(NAN_TREE, 1)
    fast = FastSequence(NAN_TREE, 1, support=30)
    with np.errstate(invalid="ignore", over="ignore"):
        out = [
            corona.check_corona_window([seq], 0.5, 0, 30),
            seq.check_certificate(30),
            corona.verify_bezout([seq], [seq], 30),
            sequences.seminorm(fast, 1, 30),
            sequences.pairing(seq, fast, 30),
            fast.abs_sum_bound(),
        ]
    return [repr(item) for item in out]


@pytest.mark.parametrize("chunk", [7, 64])
def test_every_consumer_is_bit_identical_across_slice_sizes(monkeypatch, chunk):
    monkeypatch.setattr(sequences, "_CHUNK", UNCHUNKED)
    expected = [window_results(seed) for seed in range(12)] + [nan_results()]
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    assert [window_results(seed) for seed in range(12)] + [nan_results()] == expected
    assert "nan" in expected[-1][1]  # max_ratio over a NaN window stays NaN


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("r", [2, 6])
def test_first_violation_straddling_slices(monkeypatch, chunk, r):
    # The floor fails on the whole shell r; in d=2 shell 2 holds rows 5-12
    # and shell 6 rows 61-84, across the slice boundaries at 7 and 64.
    gap = ex.Abs(ex.Add((ex.Norm1(), ex.Const(-float(r)))))
    family = [slow(gap, 2), slow(ex.Const(0.0), 2)]
    # 1 / (| |n|_1 - r | + 1/4) exceeds 1 on shell r only.
    hump = SlowSequence(ex.Recip(ex.Add((gap, ex.Const(0.25))), 0.25, 0), 2, GrowthCertificate(1.0, 0))
    results = []
    for size in (UNCHUNKED, chunk):
        monkeypatch.setattr(sequences, "_CHUNK", size)
        results.append([
            corona.check_corona_window(family, 0.5, 0, 12),
            corona.is_unit(family[0], corona.CoronaWitness(0.5, 0), 12).first_violation,
            hump.check_certificate(12),
        ])
    assert results[0] == results[1]
    assert results[1][0].first_violation == results[1][1] == (-r, 0)
    assert results[1][2].first_violation == (-r, 0)


def kept_threads_results(threads: tuple) -> list:
    """The seven entry points that still accept ``threads``, called as the benchmark calls them."""
    d, R = 2, 9
    family = [slow(ex.Coord(0), d), slow(ex.Const(1.0), d)]
    cofactors = corona.solve_bezout(family, corona.CoronaWitness(1.0, 0))
    a, x = slow(ex.Add((ex.Norm1(), ex.Const(1.0))), d), slow(ex.Coord(1), d)
    b = FastSequence(ex.ExpDecay(0.5), d, decay=DecayBound(1.0, 0, 0.5))
    return [
        corona.check_corona_window(family, 0.5, 0, R, *threads),
        corona.verify_bezout(family, cofactors, R, *threads),
        a.check_certificate(R, **{"threads": t for t in threads}),
        sequences.pairing(a, b, R, *threads),
        sequences.seminorm(b, 2, R, *threads),
        corona.is_unit(a, corona.CoronaWitness(1.0, 0), R, *threads),
        weak_star_gap(x, a, b, R, *threads),
    ]


def test_kept_threads_argument_changes_nothing(monkeypatch):
    # The benchmark still passes threads to these seven; the argument is unused.
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    assert kept_threads_results((2,)) == kept_threads_results(())


def cli_report(tmp_path, command, job) -> bytes:
    spec = tmp_path / f"{command}.json"
    spec.write_text(json.dumps(job))
    out = tmp_path / f"{command}.out"
    assert cli.main([command, "--spec", str(spec), "--out", str(out)]) in (0, 2)
    return out.read_bytes()


@pytest.mark.parametrize("chunk", [7, 64])
def test_cli_window_diagnostics_are_bit_identical(tmp_path, monkeypatch, chunk):
    coord = {"kind": "coord", "axis": 0}
    zero, one = ({"kind": "const", "re": c, "im": 0.0} for c in (0.0, 1.0))
    shifted = {"kind": "add", "args": [{"kind": "coord", "axis": 1}, {"kind": "const", "re": 0.5, "im": 0.0}]}
    jobs = {
        # coord * 0 + 1 * 1 = 1: a unimodular pair with exact cofactors.
        "reduce": {"dimension": 2, "params": {"R": 12, "epsilon": 0.25},
                   "inputs": {"a1": {"expr": coord}, "a2": {"expr": one},
                              "b1": {"expr": zero}, "b2": {"expr": one}}},
        "approx": {"dimension": 2, "inputs": {"a": {"expr": {"kind": "mul", "args": [coord, shifted]}}},
                   "params": {"R": 12, "epsilons": [0.25, 1.0, 4.0]}},
    }
    monkeypatch.setattr(sequences, "_CHUNK", UNCHUNKED)
    expected = {command: cli_report(tmp_path, command, job) for command, job in jobs.items()}
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    assert {command: cli_report(tmp_path, command, job) for command, job in jobs.items()} == expected


def test_corona_check_stops_at_the_first_failing_slice(monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    points, _ = ball(1, 20)
    assert points.shape[0] >= 4 * 7
    calls = []

    def counted(node, points, norms=None, window=None, original=ex._evaluate):
        calls.append(points.shape[0])
        return original(node, points, norms, window)

    monkeypatch.setattr(ex, "_evaluate", counted)  # the evaluator scan calls
    check = corona.check_corona_window([slow(ex.Coord(0), 1)], 0.5, 0, 20)  # fails at n = 0
    assert check.first_violation == (0,)
    assert calls == [7]


def memory_calls(d: int) -> dict:
    """One call of each scan consumer on shallow trees over Z^d."""
    a = slow(ex.Add((ex.Norm1(), ex.Coord(0), ex.Const(1.0))), d)
    b = FastSequence(ex.Mul((ex.Const(2.0), ex.ExpDecay(0.05))), d, decay=DecayBound(2.0, 0, 0.05))
    family = [slow(ex.Coord(0), d), slow(ex.Const(1.0), d)]  # |n_0| + 1 >= 1: the floor (1, 0) holds
    cofactors = corona.solve_bezout(family, corona.CoronaWitness(1.0, 0))
    return {
        "pairing": lambda R: sequences.pairing(a, b, R),
        "check_corona_window": lambda R: corona.check_corona_window(family, 1.0, 0, R),
        "verify_bezout": lambda R: corona.verify_bezout(family, cofactors, R),
        "check_certificate": lambda R: a.check_certificate(R),
        "seminorm": lambda R: sequences.seminorm(b, 2, R),
        "combined_modulus": lambda R: corona.combined_modulus(family, R),
    }


# (consumer, bytes per window point of what it keeps, slices of complex128).  Past the
# pairing's, each slice count is the measured peak rounded up to the next quarter slice,
# so one more float64 slice array alive (half a slice) exceeds it.
MEMORY_BOUNDS = [
    ("pairing", 24, 4),  # the window products, with room for the ball's own bytes
    ("check_corona_window", 0, 3.75),
    ("verify_bezout", 0, 4.25),
    ("check_certificate", 0, 2.75),
    ("seminorm", 0, 2.25),
    ("combined_modulus", 8, 3.25),  # the float64 window sum of moduli
]


@pytest.mark.parametrize("consumer, per_point, slices", MEMORY_BOUNDS, ids=[c[0] for c in MEMORY_BOUNDS])
def test_scan_memory_is_the_window_result_plus_a_few_slices(consumer, per_point, slices):
    d, R = 2, 350  # 245,701 points: four slices
    points, _ = ball(d, R)  # cached, as a scan finds it
    assert -(-points.shape[0] // sequences._CHUNK) == 4
    call = memory_calls(d)[consumer]
    tracemalloc.start()
    try:
        call(R)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk_bytes = sequences._CHUNK * np.dtype(np.complex128).itemsize
    assert peak <= points.shape[0] * per_point + slices * chunk_bytes


# -- native lanes: a real tree reaches the folds as float64 -------------


def complex_lane(monkeypatch):
    """Scan in the complex lane: every value complex128, every constant a full array."""
    const, evaluate = ex.Const._eval_grid, ex._evaluate
    monkeypatch.setattr(ex.Const, "_eval_grid", lambda self, points, norms, values:
                        np.full(points.shape[0], const(self, points, norms, values)))
    monkeypatch.setattr(ex, "_evaluate", lambda *args: evaluate(*args).astype(np.complex128))


def lane_tree(rng: random.Random, dimension: int) -> ex.Node:
    """A seeded random DAG of tests/test_expr.py: every node kind, shared subtrees."""
    pick = rng.randrange(3)
    if pick == 2:
        return random_dag(rng, dimension, steps=6)
    return lane_dag(rng, dimension, steps=8, overflow=bool(pick))


def lane_results(seed: int) -> list:
    """``window_results`` on lane DAGs.  Where a pairing value's modulus passes the
    double range (seed 8 at some SIMD levels), ``weak_star_gap`` reads it as inf."""
    return window_results(seed, lane_tree)


def lane_reports(tmp_path, seed: int) -> dict:
    """The reduce and approx reports, whose diagnostics are window folds, on DAGs of one seed."""
    rng = random.Random(seed)
    d = rng.choice((1, 2))
    tree = ex.to_json(lane_dag(rng, d, steps=8, overflow=False))
    one, zero = ({"expr": {"kind": "const", "re": c, "im": 0.0}} for c in (1.0, 0.0))
    jobs = {
        # 0 * a1 + 1 * 1 = 1: a unimodular pair with exact cofactors.
        "reduce": {"dimension": d, "params": {"R": 8, "epsilon": 0.25},
                   "inputs": {"a1": {"expr": tree}, "a2": one, "b1": zero, "b2": one}},
        "approx": {"dimension": d, "inputs": {"a": {"expr": tree}},
                   "params": {"R": 8, "epsilons": [0.25, 1.0, 4.0]}},
    }
    return {command: cli_report(tmp_path, command, job) for command, job in jobs.items()}


@pytest.mark.parametrize("chunk", [7, UNCHUNKED])
def test_native_lanes_give_every_consumer_the_bits_of_the_complex_lane(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(sequences, "_CHUNK", chunk)
    with np.errstate(all="ignore"):
        native = [lane_results(seed) for seed in range(16)] + [nan_results()]
        reports = [lane_reports(tmp_path, seed) for seed in range(6)]
        complex_lane(monkeypatch)
        assert [lane_results(seed) for seed in range(16)] + [nan_results()] == native
        assert [lane_reports(tmp_path, seed) for seed in range(6)] == reports


def test_scan_yields_real_trees_as_float64_and_constants_at_slice_length(monkeypatch):
    monkeypatch.setattr(sequences, "_CHUNK", 7)
    trees = [ex.Const(2.5), ex.Const(1.0, -1.0), ex.Coord(0), ex.Phase(ex.Coord(0)),
             ex.Add((ex.Const(1.0), ex.Const(0.0, 1.0))), ex.Neg(ex.Abs(ex.Const(-3.0)))]
    lanes = [np.float64, np.complex128, np.float64, np.complex128, np.complex128, np.float64]
    for points, norms, rows, values in sequences.scan(trees, 2, 3):
        assert [v.dtype for v in values] == lanes
        assert {v.shape for v in values} == {(len(norms[rows]),)}
        assert values[0].tolist() == [2.5] * len(values[0]) and values[5].tolist() == [-3.0] * len(values[5])
    # window() and evaluate_grid stay complex128 in every lane.
    for tree in trees:
        window = slow(tree, 2).window(3)
        assert window.dtype == np.complex128 and window.shape == (25,)
        assert ex.evaluate_grid(tree, ball(2, 3)[0]).dtype == np.complex128
    assert (slow(ex.Const(2.5), 2).window(3) == 2.5).all()


def test_a_reciprocal_of_zero_raises_at_the_first_point():
    family = [slow(ex.Recip(ex.Const(0.0), 1.0, 0), 2)]
    with pytest.raises(WitnessViolation) as info:
        corona.check_corona_window(family, 0.5, 0, 4)
    assert info.value.index == (0, 0)


def test_pairing_of_negative_real_trees_keeps_negative_zero_imaginary_terms(monkeypatch):
    # (x + 0j) * (y + 0j) has imaginary part x*0 + 0*y = -0.0 when x, y < 0; a float
    # product promoted afterwards would carry +0.0.
    summed = []

    def kept(*args, original=sequences.window_array):
        summed.append(original(*args))
        return summed[-1]

    monkeypatch.setattr(sequences, "window_array", kept)
    a = slow(ex.Neg(ex.PolyEnv(1)), 2)
    b = FastSequence(ex.Neg(ex.ExpDecay(0.5)), 2, decay=DecayBound(1.0, 0, 0.5))
    value = sequences.pairing(a, b, 6).value
    terms = sequences.window_values(a.expr, 2, 6) * sequences.window_values(b.expr, 2, 6)
    assert summed[0].dtype == np.complex128 and np.signbit(summed[0].imag).all()
    assert np.array_equal(summed[0], terms) and complex(np.sum(terms)) == value


# -- values kept between calls on small windows -------------------------

INNER = (ex.Add, ex.Mul, ex.Neg, ex.Conj, ex.Abs, ex.Arg, ex.Phase, ex.Clip, ex.Recip)


def kept_arrays() -> list[np.ndarray]:
    return [value for _, value in ex._values.values()]


def window_calls(seed: int, clear) -> list:
    """A seeded sequence of window calls on DAGs that share subtrees across calls,
    as (dtype, bytes) or repr; ``clear()`` runs before every call."""
    rng = random.Random(seed)
    d = rng.choice((1, 2))
    pool = [lane_tree(rng, d) for _ in range(4)]
    pool += [ex.Add((rng.choice(pool), ex.Mul((rng.choice(pool), rng.choice(pool))))) for _ in range(3)]
    # A leaf's array is never kept, so its last reader may fold into it: one-argument
    # sums and products that read it earlier are kept, and read again by later calls.
    leaf = rng.choice((ex.Coord(0), ex.Norm1()))
    lone = rng.choice((ex.Add, ex.Mul))((leaf,))
    pool += [ex.Add((lone, ex.Mul((leaf, rng.choice(pool))))), ex.Neg(lone)]
    radii = [rng.randint(0, {1: 40, 2: 12}[d]) for _ in range(2)]
    out = []
    for _ in range(8):
        R = rng.choice(radii)
        family = [slow(rng.choice(pool), d) for _ in range(rng.randint(1, 3))]
        kind = rng.randrange(4)
        clear()
        if kind == 0:
            out.append(repr(corona.verify_bezout(family, [slow(rng.choice(pool), d) for _ in family], R)))
        elif kind == 1:
            out.append(repr(corona.check_corona_window(family, rng.uniform(0.1, 2.0), rng.randint(0, 1), R)))
        elif kind == 2:
            values = sequences.window_values(rng.choice(pool), d, R)
            out.append((values.dtype.str, values.tobytes()))
        else:
            for *_, values in sequences.scan([m.expr for m in family], d, R):
                out.append([(v.dtype.str, v.tobytes()) for v in values])
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([7, 64, UNCHUNKED]))
def test_kept_values_change_no_result(seed, chunk):
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(sequences, "_CHUNK", chunk)
        ball.cache_clear()
        kept = window_calls(seed, lambda: None)
        assert window_calls(seed, ball.cache_clear) == kept


def test_a_failed_evaluation_is_never_kept():
    # 1 / (n_0 - 2) fails at n = (2,); the sum under it is kept, the reciprocal never.
    shifted = ex.Add((ex.Coord(0), ex.Const(-2.0)))
    recip = ex.Recip(shifted, 1.0, 0)
    family = [slow(ex.Mul((recip, ex.Abs(shifted))), 1)]
    ball.cache_clear()
    for _ in range(3):
        with pytest.raises(WitnessViolation) as info:
            corona.check_corona_window(family, 0.5, 0, 6)
        assert info.value.index == (2,)
    assert (id(shifted), (1, 0, 13)) in ex._values
    assert not any(key[0] == id(recip) for key in ex._values)


def test_a_node_that_reuses_a_dead_nodes_id_misses():
    ball.cache_clear()
    dead = ex.Abs(ex.Coord(0))
    sequences.window_values(dead, 1, 5)
    (key, entry), = [(key, value) for key, value in ex._values.items() if key[0] == id(dead)]
    del dead
    assert entry[0]() is None
    fresh = ex.Neg(ex.Coord(0))
    ex._values[id(fresh), key[1]] = ex._values.pop(key)  # the dead node's entry, under the new node's id
    assert sequences.window_values(fresh, 1, 5).real.tolist() == [0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0,
                                                                   4.0, -4.0, 5.0, -5.0]
    assert ex._values[id(fresh), key[1]][0]() is fresh
    assert sum(a.nbytes for a in kept_arrays()) == ex._values_held[0]


def test_the_cache_keeps_small_read_only_values_within_its_budget(monkeypatch):
    monkeypatch.setattr(ex, "_VALUE_BYTES", 4 << 10)
    ball.cache_clear()
    rng = random.Random(5)
    kept_bytes = set()
    with np.errstate(all="ignore"):
        for _ in range(60):
            d = rng.choice((1, 2))
            sequences.window_values(lane_tree(rng, d), d, rng.randint(0, 20))
            arrays = kept_arrays()
            assert sum(a.nbytes for a in arrays) == ex._values_held[0] <= ex._VALUE_BYTES
            assert all(a.nbytes <= ex._ENTRY_BYTES and not a.flags.writeable for a in arrays)
            kept_bytes.add(ex._values_held[0])
    assert max(kept_bytes) > ex._VALUE_BYTES * 3 // 4  # the budget was reached, and held
    # Slices larger than an entry are never kept: 1,201 points of float64 are 9.6 KB.
    monkeypatch.setattr(ex, "_VALUE_BYTES", 256 << 10)
    ball.cache_clear()
    tree = ex.Add((ex.Abs(ex.Coord(0)), ex.Mul((ex.Phase(ex.Coord(0)), ex.Norm1()))))
    sequences.window_values(tree, 1, 600)
    assert [value.dtype for value in kept_arrays()] == [np.float64]  # the Abs only
    sequences.window_values(tree, 1, 3000)
    assert all(key[1][2] <= 1201 for key in ex._values)


def test_window_values_are_writeable_and_alias_no_kept_value():
    ball.cache_clear()
    tree = ex.Add((ex.Abs(ex.Coord(0)), ex.Const(1.0, 1.0)))  # complex128, as window values are
    first = sequences.window_values(tree, 1, 4)
    window = slow(tree, 1).window(4)
    assert ex._values[id(tree), (1, 0, 9)][1].dtype == np.complex128
    assert first.flags.writeable and window.flags.writeable
    assert not any(np.shares_memory(v, a) for v in (first, window) for a in kept_arrays())
    first[:] = 0.0
    assert slow(tree, 1).window(4).real.tolist() == window.real.tolist() == [1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_a_sum_that_starts_from_a_kept_value_writes_a_new_array():
    ball.cache_clear()
    shared = ex.Abs(ex.Coord(0))
    sequences.window_values(shared, 1, 3)
    kept = kept_arrays()[0].copy()
    sequences.window_values(ex.Add((shared, ex.Const(1.0))), 1, 3)  # its fold starts from the kept array
    assert np.array_equal(ex._values[id(shared), (1, 0, 7)][1], kept)


def test_a_kept_sum_of_one_argument_survives_a_later_fold_on_the_same_window():
    ball.cache_clear()
    coord = ex.Coord(0)  # a leaf: its array is not kept, and its last reader folds into it
    lone = ex.Add((coord,))
    sequences.window_values(ex.Add((lone, ex.Mul((coord, ex.Const(3.0))))), 1, 2)
    assert ex._values[id(lone), (1, 0, 5)][1].tolist() == [0.0, -1.0, 1.0, -2.0, 2.0]
    assert sequences.window_values(ex.Neg(lone), 1, 2).real.tolist() == [0.0, 1.0, -1.0, 2.0, -2.0]


def test_clearing_the_ball_cache_clears_the_kept_values():
    sequences.window_values(ex.Abs(ex.Coord(0)), 1, 3)
    assert ex._values and ex._values_held[0] > 0
    ball.cache_clear()
    assert not ex._values and ex._values_held[0] == 0


def test_kept_values_hold_no_node_alive():
    ball.cache_clear()
    tree = ex.Abs(ex.Add((ex.Coord(0), ex.Const(1.0))))
    ref = weakref.ref(tree)
    sequences.window_values(tree, 1, 3)
    assert len(ex._values) == 2
    del tree
    assert ref() is None


def in_threads(work, count: int = 6) -> None:
    """``work(slot)`` on more threads than cores, switching often."""
    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_callers_get_the_values_of_one_caller(monkeypatch):
    # A budget small enough to evict on most calls: a lost update would show in the
    # bytes held or in a value.
    monkeypatch.setattr(ex, "_VALUE_BYTES", 8 << 10)
    rng = random.Random(11)
    trees = [lane_tree(rng, 1) for _ in range(6)]
    results: list = [None] * 6
    with np.errstate(all="ignore"):
        expected = [sequences.window_values(t, 1, R).tobytes() for t in trees for R in (5, 9)]

        def work(slot):
            results[slot] = [sequences.window_values(t, 1, R).tobytes()
                             for _ in range(20) for t in trees for R in (5, 9)]

        in_threads(work)
    assert results == [expected * 20] * 6
    assert sum(a.nbytes for a in kept_arrays()) == ex._values_held[0] <= ex._VALUE_BYTES


def test_concurrent_keeps_hold_the_budget(monkeypatch):
    monkeypatch.setattr(ex, "_VALUE_BYTES", 4 << 10)
    ball.cache_clear()
    nodes = [ex.Abs(ex.Coord(0)) for _ in range(6)]

    def work(slot):
        for i in range(10000):
            ex._keep(nodes[slot], (1, i % 50, 1 + i % 7), np.ones(1 + i % 7))

    in_threads(work)
    assert sum(a.nbytes for a in kept_arrays()) == ex._values_held[0] <= ex._VALUE_BYTES


def chain_eval_grid_calls(monkeypatch) -> tuple[int, list[float]]:
    """Inner-node ``_eval_grid`` calls of a d=1, N=5, R=8 reduction chain, and its residuals."""
    calls = [0]
    for cls in INNER:
        def counted(self, *args, original=cls._eval_grid):
            calls[0] += 1
            return original(self, *args)
        monkeypatch.setattr(cls, "_eval_grid", counted)
    d, R = 1, 8
    family = [slow(tree, d) for tree in (ex.Add((ex.Abs(ex.Coord(0)), ex.Const(0.5))), ex.PolyEnv(1),
                                         ex.Clip(ex.Coord(0), 0.5), ex.Const(2.0), ex.Coord(0))]
    cofactors = corona.solve_bezout(family, corona.certify_witness(family))
    residuals = [corona.verify_bezout(family, cofactors, R)]
    while len(family) > 2:
        step = reduce_tuple(family, cofactors, radius=R)
        family, cofactors = step.family, step.cofactors
    residuals.append(corona.verify_bezout(family, cofactors, R))
    return calls[0], residuals


def test_a_reduction_chain_evaluates_each_subtree_once_per_window(monkeypatch):
    # Without kept values the chain makes 423 inner-node evaluations, one per node and window.
    ball.cache_clear()
    calls, residuals = chain_eval_grid_calls(monkeypatch)
    assert calls == 101
    assert all(r <= 1e-12 for r in residuals)
