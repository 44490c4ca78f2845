"""Expression-tree nodes: evaluation, conventions, certificates, wire format."""

import cmath
import collections
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from periodist import expr as ex
from periodist.corona import CoronaWitness
from periodist.errors import CertificateError, InputError, WitnessViolation
from periodist.lattice import ball
from periodist.sequences import DecayBound, FastSequence, SlowSequence, pairing


def ev(node, index):
    return ex.evaluate(node, index)


# -- pointwise semantics ------------------------------------------------


def test_const_and_coord():
    assert ev(ex.Const(2.0, -1.0), (5,)) == 2.0 - 1.0j
    assert ev(ex.Coord(0), (-7,)) == -7.0
    assert ev(ex.Coord(1), (3, 4)) == 4.0


def test_norm_and_envelopes():
    assert ev(ex.Norm1(), (-2, 3)) == 5.0
    assert ev(ex.PolyEnv(2), (-2, 3)) == 36.0
    assert ev(ex.ExpDecay(1.0), (0,)) == 1.0
    assert ev(ex.ExpDecay(0.6931471805599453), (3,)) == pytest.approx(0.125)


def test_add_mul_neg_conj():
    n = ex.Add((ex.Coord(0), ex.Const(1.0, 0.0)))
    assert ev(n, (4,)) == 5.0
    m = ex.Mul((ex.Coord(0), ex.Coord(0)))
    assert ev(m, (-3,)) == 9.0
    assert ev(ex.Neg(ex.Coord(0)), (2,)) == -2.0
    assert ev(ex.Conj(ex.Const(1.0, 2.0)), (0,)) == 1.0 - 2.0j


def test_abs_arg_phase_conventions():
    assert ev(ex.Abs(ex.Const(-3.0, 4.0)), (0,)) == 5.0
    # principal argument lands in (-pi, pi]; zero maps to zero
    assert ev(ex.Arg(ex.Const(-3.0, 0.0)), (0,)) == cmath.pi
    assert ev(ex.Arg(ex.Const(0.0, 0.0)), (0,)) == 0.0
    assert ev(ex.Arg(ex.Const(0.0, -1.0)), (0,)) == -cmath.pi / 2
    # the phase factor is exp(-i arg): modulus one, and 1 at the origin value
    p = ev(ex.Phase(ex.Const(-3.0, 0.0)), (0,))
    assert abs(p) == pytest.approx(1.0, abs=1e-15)
    assert ev(ex.Phase(ex.Const(0.0, 0.0)), (0,)) == 1.0


def test_negative_real_with_signed_zero_imag():
    # complex(-3, -0.0) must still report +pi, not -pi
    assert ev(ex.Arg(ex.Const(-3.0, -0.0)), (0,)) == cmath.pi


# -- Arg and Phase: the real-argument select against the old formulas ----


def old_angle(values):
    cleaned = np.where(values.imag == 0, values.real + 0.0j, values)
    return np.where(values == 0, 0.0, np.angle(cleaned))


def old_arg(values):
    return old_angle(values).astype(np.complex128)


def old_phase(values):
    return np.exp(-1j * old_angle(values))


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def assert_bit_identical(values):
    """Arg (real) and Phase (complex) equal the old formulas bit for bit, on the
    argument and, when it has no nonzero imaginary part, on its real lane; _angle
    does too, and the argument is left as it was."""
    kept = values.copy()
    arguments = [values]
    if not values.imag.any():
        arguments.append(values.real.copy())
    for argument in arguments:
        same = argument.astype(np.complex128)
        for node, old in ((ex.Arg(ex.Coord(0)), old_angle), (ex.Phase(ex.Coord(0)), old_phase)):
            new = node._eval_grid(None, None, [argument])
            assert new.dtype == old(same).dtype
            assert np.array_equal(bits(new), bits(old(same)))
    assert np.array_equal(bits(ex._angle(values)), bits(old_angle(values)))
    assert np.array_equal(bits(values), bits(kept))


SPECIAL = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-310, -1e-310, 3.5, -2.25]


def test_angle_arg_phase_match_old_formulas_on_special_values():
    grid = np.array([complex(re, im) for re in SPECIAL for im in SPECIAL], dtype=np.complex128)
    assert_bit_identical(grid)
    # every real part with a +0.0 and a -0.0 imaginary part, alone (the
    # select) and beside a nonzero imaginary part (the general path)
    for im in (0.0, -0.0):
        real = np.array([complex(re, im) for re in SPECIAL if not math.isnan(re)], dtype=np.complex128)
        assert ex._real_select(real, ex._ARG_OF_SIGN) is not None
        assert_bit_identical(real)
        assert_bit_identical(np.append(real, 1j))
    # slice lengths past numpy's SIMD block sizes, and a strided view
    rng = np.random.default_rng(7)
    reals = rng.choice(np.array([x for x in SPECIAL if not math.isnan(x)]), 65_536).astype(np.complex128)
    assert_bit_identical(reals)
    assert_bit_identical(reals[::3])
    assert_bit_identical(rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000))
    assert_bit_identical(np.array([], dtype=np.complex128))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(1, 80), elements=st.floats(allow_subnormal=True)),
    st.sampled_from(["zero", "negative-zero", "random"]),
    st.data(),
)
def test_angle_arg_phase_match_old_formulas(re, imag_kind, data):
    if imag_kind == "random":
        im = data.draw(hnp.arrays(np.float64, re.shape, elements=st.floats(allow_subnormal=True)))
    else:
        im = np.full(re.shape, 0.0 if imag_kind == "zero" else -0.0)
    values = re + 0j
    values.imag = im
    assert_bit_identical(values)


def test_real_nan_and_complex_arguments_take_the_general_path(monkeypatch):
    calls = []
    angle = ex._angle
    monkeypatch.setattr(ex, "_angle", lambda values: calls.append(len(values)) or angle(values))
    nodes = (ex.Arg(ex.Coord(0)), ex.Phase(ex.Coord(0)))
    real_nan = np.array([1.0, math.nan, -2.0], dtype=np.complex128)
    complex_ = np.array([1.0, -2.0 + 1e-300j], dtype=np.complex128)
    for values in (real_nan, complex_):
        calls.clear()
        for node in nodes:
            node._eval_grid(None, None, [values])
        assert calls == [len(values)] * 2
        assert_bit_identical(values)
    calls.clear()
    real = np.array([1.0, -0.0, -2.0, -math.inf], dtype=np.complex128)
    arg, phase = (node._eval_grid(None, None, [real]) for node in nodes)
    assert calls == []
    assert np.array_equal(bits(arg), bits(np.array([0, 0, math.pi, math.pi])))
    assert np.array_equal(bits(phase), bits(old_phase(real)))


def test_phase_leaves_a_shared_argument_for_its_other_reader():
    # x is read by Phase and by the sum; the sum reads x after Phase does
    x = ex.Add((ex.Coord(0), ex.Const(-1.0)))
    tree = ex.Add((ex.Phase(x), ex.Arg(x), x))
    points = np.arange(-4, 5, dtype=np.int64).reshape(-1, 1)
    shifted = np.arange(-5, 4).astype(np.complex128)
    expected = old_phase(shifted) + old_arg(shifted) + shifted
    assert np.array_equal(bits(ex.evaluate_grid(tree, points)), bits(expected))


def test_clip_replaces_strictly_below_level():
    clip = ex.Clip(ex.Coord(0), 1.0)
    assert ev(clip, (0,)) == 1.0          # |0| < 1: replaced
    assert ev(clip, (1,)) == 1.0          # |1| >= 1: kept
    assert ev(clip, (-1,)) == -1.0        # boundary values are kept
    assert ev(clip, (5,)) == 5.0
    half = ex.Clip(ex.Const(0.25, 0.0), 0.5)
    assert ev(half, (0,)) == 0.5


def test_recip_and_zero_guard():
    r = ex.Recip(ex.Const(4.0, 0.0), 0.25, 0)
    assert ev(r, (0,)) == 0.25
    bad = ex.Recip(ex.Coord(0), 1.0, 0)
    with pytest.raises(WitnessViolation) as info:
        ev(bad, (0,))
    assert info.value.index == (0,)


def reference_eval(node, index):
    """Pure-Python pointwise semantics of the node kinds, for cross-checks."""
    radius = sum(abs(c) for c in index)

    def arg(z):
        return 0.0 if z == 0 else cmath.phase(complex(z.real, z.imag + 0.0))

    def go(n):
        if isinstance(n, ex.Const):
            return n.value
        if isinstance(n, ex.Coord):
            return complex(index[n.axis])
        if isinstance(n, ex.Norm1):
            return complex(radius)
        if isinstance(n, ex.PolyEnv):
            return complex((1 + radius) ** n.k)
        if isinstance(n, ex.ExpDecay):
            return complex(math.exp(-n.rate * radius))
        if isinstance(n, ex.Add):
            return sum((go(a) for a in n.args), complex(0))
        if isinstance(n, ex.Mul):
            out = complex(1)
            for a in n.args:
                out *= go(a)
            return out
        v = go(n.arg)
        if isinstance(n, ex.Neg):
            return -v
        if isinstance(n, ex.Conj):
            return v.conjugate()
        if isinstance(n, ex.Abs):
            return complex(abs(v))
        if isinstance(n, ex.Arg):
            return complex(arg(v))
        if isinstance(n, ex.Phase):
            return cmath.exp(-1j * arg(v))
        if isinstance(n, ex.Clip):
            return v if abs(v) >= n.eps else complex(n.eps)
        return 1.0 / v  # Recip

    return go(node)


def test_grid_matches_scalar_on_random_trees():
    # the grid path and the pure-Python reference may differ by an ulp in
    # the trig kernels (numpy vs cmath), nothing more; evaluate is the
    # grid path on one row, so it matches the grid bit for bit
    rng = random.Random(401)
    points, norms = ball(2, 6)
    nodes = [random_tree(rng, dimension=2, depth=3) for _ in range(30)] + ALL_KINDS
    for node in nodes:
        grid = ex.evaluate_grid(node, points, norms)
        for row, value in zip(points, grid):
            index = tuple(int(c) for c in row)
            scalar = reference_eval(node, index)
            assert abs(complex(value) - scalar) <= 1e-14 * max(1.0, abs(scalar))
            assert ev(node, index) == complex(value)


def random_dag(rng, dimension, steps):
    """A tree that reuses its subtrees: each step combines earlier nodes.

    Repeated arguments, children shared between parents and sums or products
    of one argument are where an evaluator that accumulates into a child's
    array could alias.
    """
    pool = [random_tree(rng, dimension, depth=0) for _ in range(3)]
    for _ in range(steps):
        x, y = rng.choice(pool), rng.choice(pool)
        shapes = (
            lambda: ex.Add((x, x)),
            lambda: ex.Mul((y, y)),
            lambda: ex.Add((x, y, x)),
            lambda: ex.Mul((x, y)),
            lambda: ex.Add((y, x)),
            lambda: ex.Neg(x),
            lambda: ex.Abs(y),
            lambda: ex.Clip(x, 0.5),
            lambda: ex.Add((x,)),
            lambda: ex.Mul((y,)),
        )
        pool.append(rng.choice(shapes)())
    # a shared child read first by an Add that may accumulate in place and
    # later by a second parent
    shared, other = pool[-1], rng.choice(pool)
    return ex.Add((ex.Add((shared, other)), ex.Mul((shared, other)), shared))


def test_grid_matches_reference_on_random_dags():
    rng = random.Random(403)
    points, norms = ball(2, 3)
    for _ in range(25):
        node = random_dag(rng, dimension=2, steps=6)
        grid = ex.evaluate_grid(node, points, norms)
        for row, value in zip(points, grid):
            scalar = reference_eval(node, tuple(int(c) for c in row))
            assert abs(complex(value) - scalar) <= 1e-14 * max(1.0, abs(scalar))


def test_doubling_dag_evaluates_each_distinct_node_once(monkeypatch):
    node = ex.Coord(0)
    for _ in range(30):
        node = ex.Add((node, node))  # 2**31 - 1 tree nodes, 31 distinct
    runs = collections.Counter()
    for cls in ex.Node.__subclasses__():
        def counted(self, points, norms, values, original=cls._eval_grid):
            runs[type(self).__name__] += 1
            return original(self, points, norms, values)
        monkeypatch.setattr(cls, "_eval_grid", counted)
    points, norms = ball(1, 5)
    grid = ex.evaluate_grid(node, points, norms)
    assert runs == {"Add": 30, "Coord": 1}
    assert (grid == 2.0**30 * points[:, 0]).all()  # int16 points: 2**30 * points would raise
    assert ex.composed_cert(node) == (2.0**30, 1)


@pytest.mark.parametrize("d, R", [(1, 32767), (3, 20)])
def test_leaves_and_bounds_read_int16_balls_with_the_bits_of_int64(d, R):
    # Radius 32767 is the largest int16 ball: there ``1 + norms`` in int16 would wrap.
    points, norms = ball(d, R)
    assert points.dtype == norms.dtype == np.int16 and int(norms[-1]) == R
    wide_points, wide_norms = points.astype(np.int64), norms.astype(np.int64)
    leaves = [ex.Coord(axis) for axis in range(d)] + [
        ex.Norm1(), ex.PolyEnv(0), ex.PolyEnv(3), ex.PolyEnv(7), ex.ExpDecay(0.1), ex.ExpDecay(2.5)]
    for leaf in leaves:
        narrow = ex.evaluate_grid(leaf, points, norms)
        assert narrow.tobytes() == ex.evaluate_grid(leaf, wide_points, wide_norms).tobytes()
    for bound in (ex.GrowthCertificate(1.5, 3).bound_at, CoronaWitness(0.25, 2).floor_at):
        assert bound(norms).tobytes() == bound(wide_norms).tobytes()


def test_each_node_evaluates_once_with_all_its_arguments(monkeypatch):
    x = ex.Add((ex.Coord(0), ex.Const(1.0)))
    tree = ex.Mul((ex.Add((x, ex.Norm1(), x, x)), x, ex.Neg(x)))
    arity = collections.Counter()
    for cls in ex.Node.__subclasses__():
        def counted(self, points, norms, values, original=cls._eval_grid):
            arity[type(self).__name__, len(values)] += 1
            return original(self, points, norms, values)
        monkeypatch.setattr(cls, "_eval_grid", counted)
    points, norms = ball(1, 2)
    grid = ex.evaluate_grid(tree, points, norms)
    assert arity == {("Mul", 3): 1, ("Add", 4): 1, ("Add", 2): 1, ("Neg", 1): 1,
                     ("Coord", 0): 1, ("Const", 0): 1, ("Norm1", 0): 1}
    shifted = points[:, 0] + 1.0
    assert grid.real.tolist() == ((3 * shifted + np.abs(points[:, 0])) * shifted * -shifted).tolist()


def test_a_sum_of_one_shared_argument_keeps_its_value_when_a_later_reader_folds_in_place():
    # Add((x,)) reads x before the product does, and the product, x's last reader,
    # folds into x's array: the one-argument sum must not be a view of it.
    x = ex.Add((ex.Coord(0), ex.Const(1.0)))
    points, norms = ball(1, 2)
    for lone in (ex.Add((x,)), ex.Mul((x,))):
        tree = ex.Add((lone, ex.Mul((x, ex.Const(3.0)))))
        assert ex.evaluate_grid(tree, points, norms).real.tolist() == [4.0, 0.0, 8.0, -4.0, 12.0]


def test_deep_chain_walks_without_recursion():
    base = ex.Add((ex.PolyEnv(1), ex.Abs(ex.Coord(0))))
    node = base
    for _ in range(5000):
        node = ex.Neg(node)
    points, norms = ball(1, 3)
    assert (ex.evaluate_grid(node, points, norms) == ex.evaluate_grid(base, points, norms)).all()
    assert ex.max_axis(node) == 0
    assert ex.composed_cert(node) == (2.0, 1)
    assert not ex.is_nonneg_real(node)
    assert ex.lower_bound_cert(node) == (1.0, 0)


def random_tree(rng, dimension, depth):
    if depth == 0:
        leaf = rng.randrange(4)
        if leaf == 0:
            return ex.Const(rng.randint(-4, 4) / 2.0, rng.randint(-4, 4) / 2.0)
        if leaf == 1:
            return ex.Coord(rng.randrange(dimension))
        if leaf == 2:
            return ex.Norm1()
        return ex.PolyEnv(rng.randrange(3))
    inner = rng.randrange(6)
    if inner == 0:
        return ex.Add(tuple(random_tree(rng, dimension, depth - 1) for _ in range(2)))
    if inner == 1:
        return ex.Mul(tuple(random_tree(rng, dimension, depth - 1) for _ in range(2)))
    if inner == 2:
        return ex.Neg(random_tree(rng, dimension, depth - 1))
    if inner == 3:
        return ex.Abs(random_tree(rng, dimension, depth - 1))
    if inner == 4:
        return ex.Phase(random_tree(rng, dimension, depth - 1))
    return ex.Clip(random_tree(rng, dimension, depth - 1), 0.5)


# -- the float lane against the complex path ----------------------------


def complex_path(node, points, norms):
    """A tree's values by the node formulas that cast every leaf to complex128
    and run every node in complex arithmetic, and the mask of the points where
    every intermediate value is finite."""
    memo = {}

    def go(n):
        if id(n) in memo:
            return memo[id(n)]
        kids = [go(c) for c in n.children()]
        if isinstance(n, ex.Const):
            out = np.full(len(points), n.value, dtype=np.complex128)
        elif isinstance(n, ex.Coord):
            out = points[:, n.axis].astype(np.complex128)
        elif isinstance(n, ex.Norm1):
            out = norms.astype(np.complex128)
        elif isinstance(n, ex.PolyEnv):
            out = ((1.0 + norms) ** n.k).astype(np.complex128)
        elif isinstance(n, ex.ExpDecay):
            out = np.exp(-n.rate * norms).astype(np.complex128)
        elif isinstance(n, (ex.Add, ex.Mul)):
            out = kids[0].copy()
            for v in kids[1:]:
                if isinstance(n, ex.Add):
                    out += v
                else:
                    out *= v
        elif isinstance(n, ex.Neg):
            out = -kids[0]
        elif isinstance(n, ex.Conj):
            out = np.conj(kids[0])
        elif isinstance(n, ex.Abs):
            out = np.abs(kids[0]).astype(np.complex128)
        elif isinstance(n, ex.Arg):
            out = old_arg(kids[0])
        elif isinstance(n, ex.Phase):
            out = old_phase(kids[0])
        elif isinstance(n, ex.Clip):
            out = np.where(np.abs(kids[0]) >= n.eps, kids[0], complex(n.eps))
        else:
            out = 1.0 / kids[0]  # Recip
        memo[id(n)] = out
        return out

    with np.errstate(all="ignore"):
        values = go(node)
    return values, np.logical_and.reduce([np.isfinite(v) for v in memo.values()])


def lane_dag(rng, dimension, steps, overflow):
    """A DAG over every node kind with real and complex constants; with
    ``overflow``, leaves that reach inf (PolyEnv(400)) or 0 (ExpDecay(800))."""
    leaves = (
        lambda: ex.Const(rng.randint(-4, 4) / 2.0),
        lambda: ex.Const(rng.randint(-4, 4) / 2.0, rng.choice([-0.0, 0.5, -1.5])),
        lambda: ex.Coord(rng.randrange(dimension)),
        lambda: ex.Norm1(),
        lambda: ex.PolyEnv(rng.choice([0, 1, 2, 400] if overflow else [0, 1, 2])),
        lambda: ex.ExpDecay(rng.choice([0.25, 1.5, 800.0] if overflow else [0.25, 1.5])),
    )
    pool = [rng.choice(leaves)() for _ in range(4)]
    for _ in range(steps):
        x, y = rng.choice(pool), rng.choice(pool)
        shapes = (
            lambda: ex.Add((x, y)),
            lambda: ex.Add((x, y, x)),
            lambda: ex.Mul((x, y)),
            lambda: ex.Mul((y, y, x)),
            lambda: ex.Neg(x),
            lambda: ex.Conj(x),
            lambda: ex.Abs(x),
            lambda: ex.Arg(x),
            lambda: ex.Phase(x),
            lambda: ex.Clip(x, 0.5),
            lambda: ex.Recip(ex.Clip(x, 0.5), 0.5, 0),  # never 0, so never raises
            rng.choice(leaves),
        )
        pool.append(rng.choice(shapes)())
    return ex.Add((pool[-1], ex.Mul((pool[-2], pool[-3]))))


def assert_equal_but_zero_signs(new, old):
    """Equal values, and bits that differ only where both parts are zero."""
    assert (new == old).all()
    for part in (new.real, old.real), (new.imag, old.imag):
        differ = bits(part[0]) != bits(part[1])
        assert (part[0][differ] == 0).all() and (part[1][differ] == 0).all()


@pytest.mark.parametrize("overflow", [False, True], ids=["finite-leaves", "overflowing-leaves"])
def test_float_lane_matches_the_complex_path_where_intermediates_are_finite(overflow):
    rng = random.Random(409)
    points, norms = ball(2, 4)  # holds 0, negative values and Coord 0
    finite_trees = zero_sign_trees = 0
    for _ in range(400):
        node = lane_dag(rng, dimension=2, steps=10, overflow=overflow)
        with np.errstate(all="ignore"):
            new = ex.evaluate_grid(node, points, norms)
        old, finite = complex_path(node, points, norms)
        assert new.dtype == np.complex128
        assert_equal_but_zero_signs(new[finite], old[finite])
        finite_trees += bool(finite.all())
        zero_sign_trees += not np.array_equal(bits(new[finite]), bits(old[finite]))
    if not overflow:
        assert finite_trees == 400
    assert zero_sign_trees > 0  # the lanes differ, in the signs of zeros only


def test_real_nodes_take_the_float_lane_and_evaluate_grid_returns_complex():
    points, norms = ball(2, 3)
    real = ex.Coord(0)
    values = [real._eval_grid(points, norms, [])]
    for node in ALL_KINDS + [ex.Const(2.0), ex.Const(2.0, -0.0), ex.Arg(real), ex.Abs(real)]:
        assert ex.evaluate_grid(node, points, norms).dtype == np.complex128
    lane = [
        (ex.Const(2.0), np.float64),
        (ex.Const(2.0, -0.0), np.complex128),  # only +0.0 makes a constant real
        (ex.Const(1.5, -0.5), np.complex128),
        (ex.Coord(0), np.float64),
        (ex.Norm1(), np.float64),
        (ex.PolyEnv(2), np.float64),
        (ex.ExpDecay(0.75), np.float64),
    ]
    for node, dtype in lane:
        assert node._eval_grid(points, norms, []).dtype == dtype
    for node in (ex.Neg(real), ex.Conj(real), ex.Abs(real), ex.Arg(real), ex.Clip(real, 0.5)):
        assert node._eval_grid(points, norms, values).dtype == np.float64
    assert ex.Recip(real, 1.0, 0)._eval_grid(points, norms, [values[0] + 10.0]).dtype == np.float64
    assert ex.Phase(real)._eval_grid(points, norms, values).dtype == np.complex128
    # a sum or product turns complex where it meets a complex argument, as x + 0j
    mixed = ex.Add((real, ex.Const(0.0, 1.0)))
    assert np.array_equal(bits(ex.evaluate_grid(mixed, points, norms)), bits(points[:, 0] + 1j))


def test_pairing_of_real_factors_sums_terms_with_positive_zero_imaginary_parts():
    a = SlowSequence.from_expr(ex.Neg(ex.Norm1()), 2)
    b = FastSequence(ex.ExpDecay(1.0), 2, decay=DecayBound(1.0, 0, 1.0))
    value = pairing(a, b, 6).value
    assert value.real < 0 and value.imag == 0 and math.copysign(1.0, value.imag) == 1.0
    # the terms it sums: the complex path multiplied -n - 0j by e + 0j, which
    # made every imaginary part -0.0; the float lane promotes -n * e to x + 0j
    points, norms = ball(2, 6)
    new = ex.evaluate_grid(a.expr, points, norms) * ex.evaluate_grid(b.expr, points, norms)
    old = complex_path(a.expr, points, norms)[0] * complex_path(b.expr, points, norms)[0]
    assert not np.signbit(new.imag).any() and np.signbit(old.imag).all()
    assert np.sum(new) == np.sum(old) == value


def test_phase_of_an_overflowing_real_product_is_one():
    node = ex.Phase(ex.Mul((ex.PolyEnv(400), ex.Const(2.0))))
    with np.errstate(over="ignore"):
        assert ex.evaluate(node, (5,)) == 1  # 2 * 6^400 overflows to +inf, a positive real
    # the complex path made (inf + 0j) * (2 + 0j) = inf + nan j, whose phase is nan
    points = np.array([[5]], dtype=np.int64)
    assert np.isnan(complex_path(node, points, np.array([5]))[0]).all()


# -- growth certificates ------------------------------------------------


def test_cert_composition_table():
    one = ex.Const(1.0, 0.0)
    assert ex.composed_cert(ex.Add((one, one))) == (2.0, 0)
    assert ex.composed_cert(ex.Coord(0)) == (1.0, 1)
    assert ex.composed_cert(ex.Norm1()) == (1.0, 1)
    assert ex.composed_cert(ex.PolyEnv(3)) == (1.0, 3)
    assert ex.composed_cert(ex.ExpDecay(2.0)) == (1.0, 0)
    assert ex.composed_cert(ex.Mul((ex.Coord(0), ex.Coord(0)))) == (1.0, 2)
    coord = ex.Coord(0)
    assert ex.composed_cert(ex.Neg(coord)) == (1.0, 1)
    assert ex.composed_cert(ex.Conj(coord)) == (1.0, 1)
    assert ex.composed_cert(ex.Abs(coord)) == (1.0, 1)
    assert ex.composed_cert(ex.Phase(coord)) == (1.0, 0)
    assert ex.composed_cert(ex.Arg(coord)) == (cmath.pi, 0)
    assert ex.composed_cert(ex.Clip(coord, 0.5)) == (1.0, 1)
    assert ex.composed_cert(ex.Clip(ex.Const(0.0, 0.0), 2.0)) == (2.0, 0)
    assert ex.composed_cert(ex.Recip(ex.PolyEnv(1), 0.5, 2)) == (2.0, 2)


def test_cert_is_sound_on_random_trees():
    rng = random.Random(402)
    points, norms = ball(1, 40)
    for _ in range(40):
        node = random_tree(rng, dimension=1, depth=3)
        m, k = ex.composed_cert(node)
        values = np.abs(ex.evaluate_grid(node, points, norms))
        assert (values <= m * (1.0 + norms) ** k * (1.0 + 1e-12)).all()


def test_nonneg_and_lower_bound_whitelist():
    assert ex.is_nonneg_real(ex.Const(2.0, 0.0))
    assert not ex.is_nonneg_real(ex.Const(-1.0, 0.0))
    assert ex.is_nonneg_real(ex.Abs(ex.Coord(0)))
    assert ex.is_nonneg_real(ex.Add((ex.PolyEnv(1), ex.Abs(ex.Coord(0)))))
    assert not ex.is_nonneg_real(ex.Coord(0))

    assert ex.lower_bound_cert(ex.Const(0.5, 0.0)) == (0.5, 0)
    assert ex.lower_bound_cert(ex.Const(0.0, 0.0)) is None
    assert ex.lower_bound_cert(ex.PolyEnv(2)) == (1.0, 0)
    assert ex.lower_bound_cert(ex.Phase(ex.Coord(0))) == (1.0, 0)
    assert ex.lower_bound_cert(ex.Clip(ex.Coord(0), 0.25)) == (0.25, 0)
    assert ex.lower_bound_cert(ex.Coord(0)) is None
    # reciprocal of a bounded-growth tree: floor 1/M at order k
    assert ex.lower_bound_cert(ex.Recip(ex.PolyEnv(1), 0.9, 1)) == (1.0, 1)
    # sums of nonnegative terms inherit the best member floor
    floor = ex.lower_bound_cert(ex.Add((ex.PolyEnv(1), ex.Abs(ex.Coord(0)))))
    assert floor == (1.0, 0)


# -- the facts rules against the rule sets they replaced -------------------


def _abs_or(z, overflow):
    try:
        return abs(z)
    except OverflowError:
        return overflow


def former_facts(root):
    """(cert, nonneg, floor, axis, underflow) of every distinct node by id, from the
    three rule sets the ``_facts`` rules replaced (each class's certificate rule, the
    nonnegativity chain and the lower-bound chain) and the walk for the largest axis,
    kept here in their own isinstance style.  ``underflow`` marks a subtree where a
    growth bound or floor rounds to 0 (or to 0 * inf), which the facts rules mend."""
    memo = {}

    def cert(n, kids):
        if isinstance(n, ex.Const):
            mag = _abs_or(n.value, math.inf)
            return (mag if mag > 0 else 1.0, 0)
        if isinstance(n, (ex.Coord, ex.Norm1)):
            return (1.0, 1)
        if isinstance(n, ex.PolyEnv):
            return (1.0, n.k)
        if isinstance(n, (ex.ExpDecay, ex.Phase)):
            return (1.0, 0)
        if isinstance(n, ex.Add):
            return (sum(m for m, _ in kids), max(k for _, k in kids))
        if isinstance(n, ex.Mul):
            m = 1.0
            for c, _ in kids:
                m *= c
            return (m, sum(k for _, k in kids))
        if isinstance(n, (ex.Neg, ex.Conj, ex.Abs)):
            return kids[0]
        if isinstance(n, ex.Arg):
            return (math.pi, 0)
        if isinstance(n, ex.Clip):
            return (max(kids[0][0], n.eps), kids[0][1])
        return (1.0 / n.delta, n.K)

    def nonneg(n, kids):
        if isinstance(n, ex.Const):
            return n.im == 0 and n.re >= 0
        if isinstance(n, (ex.Norm1, ex.PolyEnv, ex.ExpDecay, ex.Abs)):
            return True
        if isinstance(n, (ex.Add, ex.Mul, ex.Conj, ex.Clip, ex.Recip)):
            return all(kids)
        return False

    def floor(n, bounds, child):
        if isinstance(n, ex.Const):
            mag = _abs_or(n.value, sys.float_info.max)
            return (mag, 0) if mag > 0 else None
        if isinstance(n, (ex.PolyEnv, ex.Phase)):
            return (1.0, 0)
        if isinstance(n, ex.Clip):
            return (n.eps, 0)
        if isinstance(n, ex.Recip):
            m, k = child[0][0]
            return (1.0 / m if m else 0.0, k)  # 1 / 0 is the underflow below
        if isinstance(n, (ex.Abs, ex.Neg, ex.Conj)):
            return bounds[0]
        if isinstance(n, ex.Mul):
            if None in bounds:
                return None
            delta, K = 1.0, 0
            for lb in bounds:
                delta *= lb[0]
                K += lb[1]
            return (delta, K)
        if isinstance(n, ex.Add):
            if not all(c[1] for c in child):
                return None
            best = None
            for lb in bounds:
                if lb is not None and (best is None or (lb[1], -lb[0]) < (best[1], -best[0])):
                    best = lb
            return best
        return None

    def visit(n):
        if id(n) in memo:
            return memo[id(n)]
        child = [visit(c) for c in n.children()]
        c = cert(n, [f[0] for f in child])
        lb = floor(n, [f[2] for f in child], child)
        axis = max([n.axis] if isinstance(n, ex.Coord) else [f[3] for f in child], default=-1)
        underflow = any(f[4] for f in child) or not c[0] > 0 or (lb is not None and not lb[0] > 0)
        memo[id(n)] = (c, nonneg(n, [f[1] for f in child]), lb, axis, underflow)
        return memo[id(n)]

    visit(root)
    return memo


def assert_facts_match_the_former_rules(root):
    """Bit for bit (by repr, so -0.0 and NaN would show) at every distinct node; where the
    former rules underflow, the growth bound stays positive and a floor is None or positive."""
    order = ex._postorder(root)[0]
    facts = ex._fold(order, lambda n, kids: n._facts(kids))
    former = former_facts(root)
    underflows = 0
    for n, _ in order:
        new, (*old, underflow) = facts[id(n)], former[id(n)]
        if underflow:
            underflows += 1
            assert new[0][0] > 0 and (new[2] is None or new[2][0] > 0), new
        else:
            assert repr(new) == repr(tuple(old)), type(n).__name__
    assert repr(facts[id(root)]) == repr(
        (ex.composed_cert(root), ex.is_nonneg_real(root), ex.lower_bound_cert(root), ex.max_axis(root))
    )
    return underflows


def test_facts_match_the_former_rules_on_random_and_lane_dags():
    rng = random.Random(405)
    for _ in range(60):
        assert assert_facts_match_the_former_rules(random_dag(rng, dimension=3, steps=12)) == 0
        for overflow in (False, True):
            assert assert_facts_match_the_former_rules(lane_dag(rng, 3, 12, overflow)) == 0
    for node in ALL_KINDS:
        assert assert_facts_match_the_former_rules(node) == 0


# Extremes of the double range, where products and reciprocals round to 0 or inf.
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-200, 1e-160, 0.5, 1.0, 3.0, 1e160, 1e300, sys.float_info.max]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_FINITE = st.one_of(st.sampled_from([0.0, -0.0, 1e-200, -1e300, 1.5e308]), st.floats(allow_nan=False, allow_infinity=False))
_LEAVES = st.one_of(
    st.builds(ex.Const, _FINITE, _FINITE),
    st.builds(ex.Coord, st.integers(0, 3)),
    st.just(ex.Norm1()),
    st.builds(ex.PolyEnv, st.integers(0, 3)),
    st.builds(ex.ExpDecay, _POSITIVE),
)
TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(lambda a: ex.Add(tuple(a)), st.lists(kids, min_size=1, max_size=3)),
    st.builds(lambda a: ex.Mul(tuple(a)), st.lists(kids, min_size=1, max_size=3)),
    *[st.builds(cls, kids) for cls in (ex.Neg, ex.Conj, ex.Abs, ex.Arg, ex.Phase)],
    st.builds(ex.Clip, kids, _POSITIVE),
    st.builds(ex.Recip, kids, _POSITIVE, st.integers(0, 3)),
), max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_facts_match_the_former_rules_on_drawn_trees(node):
    assert_facts_match_the_former_rules(node)


def test_growth_bounds_and_floors_that_round_to_zero_are_mended():
    tiny, huge = ex.Const(1e-200), ex.Const(1e300)
    assert ex.composed_cert(ex.Mul((tiny, tiny))) == (5e-324, 0)
    assert ex.composed_cert(ex.Mul((tiny, tiny, ex.Const(1.5e308, 1.5e308)))) == (math.inf, 0)  # not 0 * inf
    assert ex.composed_cert(ex.Recip(ex.Norm1(), math.inf, 0)) == (5e-324, 0)
    clipped = ex.Clip(ex.Coord(0), 1e-200)
    assert ex.lower_bound_cert(ex.Mul((clipped, clipped))) is None
    assert ex.lower_bound_cert(ex.Recip(ex.Mul((huge, huge)), 1.0, 0)) is None
    for node in (ex.Mul((tiny, tiny)), ex.Recip(ex.Mul((huge, huge)), 1.0, 0)):
        assert assert_facts_match_the_former_rules(node) > 0


# A finite constant whose modulus, about 2.1e308, passes the double range: abs() raises on it.
HUGE = ex.Const(1.5e308, 1.5e308)


def test_an_overflowing_constant_modulus_is_an_infinite_growth_bound():
    assert ex.composed_cert(HUGE) == (math.inf, 0)
    assert ex.composed_cert(ex.Add((HUGE, ex.Coord(0)))) == (math.inf, 1)
    assert ex.composed_cert(ex.Const(3.0, 4.0)) == (5.0, 0)  # finite moduli keep abs()'s bits


def test_an_overflowing_constant_modulus_is_the_largest_double_as_a_lower_bound():
    assert ex.lower_bound_cert(HUGE) == (sys.float_info.max, 0)
    assert ex.lower_bound_cert(ex.Mul((HUGE, ex.PolyEnv(1)))) == (sys.float_info.max, 0)
    assert ex.lower_bound_cert(ex.Const(3.0, 4.0)) == (5.0, 0)


# -- wire format --------------------------------------------------------

ALL_KINDS = [
    ex.Const(1.5, -0.5),
    ex.Coord(1),
    ex.Norm1(),
    ex.PolyEnv(2),
    ex.ExpDecay(0.75),
    ex.Add((ex.Coord(0), ex.Const(1.0, 0.0))),
    ex.Mul((ex.Coord(0), ex.Norm1())),
    ex.Neg(ex.Coord(0)),
    ex.Conj(ex.Const(0.0, 1.0)),
    ex.Abs(ex.Coord(1)),
    ex.Arg(ex.Const(-1.0, 0.0)),
    ex.Phase(ex.Coord(0)),
    ex.Clip(ex.Coord(0), 0.5),
    ex.Recip(ex.PolyEnv(1), 1.0, 1),
]


def test_kind_table_covers_every_node_class():
    classes = set(ex.Node.__subclasses__())
    assert {type(n) for n in ALL_KINDS} == classes
    assert set(ex._KINDS.values()) == classes
    assert len(ex._KINDS) == len(classes) == 14  # one distinct wire kind each


@pytest.mark.parametrize("node", ALL_KINDS, ids=lambda n: type(n).__name__)
def test_json_round_trip(node):
    wire = ex.to_json(node)
    back = ex.parse_node(wire)
    assert back == node
    assert ex.to_json(back) == wire


def test_parse_reports_field_paths():
    with pytest.raises(InputError) as info:
        ex.parse_node({"kind": "coord"})
    assert "axis" in str(info.value)
    with pytest.raises(InputError) as info:
        ex.parse_node({"kind": "add", "args": [{"kind": "coord", "axis": 0}, 7]})
    assert "args[1]" in str(info.value)
    with pytest.raises(InputError):
        ex.parse_node({"kind": "wibble"})
    with pytest.raises(InputError):
        ex.parse_node({"kind": "clip", "arg": {"kind": "norm1"}, "eps": -1.0})


def test_node_level_cert_is_rejected_with_its_path():
    claimed = {"kind": "coord", "axis": 0, "cert": {"M": 1.0, "k": 1}}
    wire = {"kind": "add", "args": [claimed, {"kind": "const", "re": 1.0, "im": 0.0}]}
    with pytest.raises(InputError, match=r"^expr\.args\[0\]\.cert: not allowed on a tree node"):
        ex.parse_node(wire)
    # In a sequence's tree, and in a fast one's too.
    with pytest.raises(InputError, match=r"^inputs\.a\.expr\.args\[0\]\.cert: "):
        SlowSequence.from_json({"expr": wire}, 1, "inputs.a")
    with pytest.raises(InputError, match=r"^inputs\.b\.expr\.args\[0\]\.cert: "):
        FastSequence.from_json({"expr": wire, "support": 0}, 1, "inputs.b")
    # A bare tree is no sequence: the tree sits under "expr".
    with pytest.raises(InputError, match=r"^inputs\.a\.expr: required$"):
        SlowSequence.from_json(claimed, 1, "inputs.a")
    # Beside "expr" the claim is checked: a false one is rejected at its path.
    with pytest.raises(CertificateError, match=r"^cert: claimed certificate \(M=1\.0, k=0\) fails"):
        SlowSequence.from_json({"expr": {"kind": "norm1"}, "cert": {"M": 1.0, "k": 0}}, 1)
    true_claim = {"expr": {"kind": "coord", "axis": 0}, "cert": {"M": 2.0, "k": 1}}
    assert SlowSequence.from_json(true_claim, 1).cert == ex.GrowthCertificate(2.0, 1)


def test_nodes_are_immutable():
    node = ex.Const(1.0, 0.0)
    with pytest.raises(Exception):
        node.re = 2.0


def test_max_axis():
    assert ex.max_axis(ex.Coord(3)) == 3
    assert ex.max_axis(ex.Add((ex.Coord(0), ex.Coord(2)))) == 2
    assert ex.max_axis(ex.Norm1()) == -1


@pytest.mark.parametrize("re, im", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
def test_constants_must_be_finite(re, im):
    # A NaN constant would compose the certificate (1.0, 0) for a value it does not bound.
    with pytest.raises(InputError, match="must be finite"):
        ex.Const(re, im)
    with pytest.raises(InputError, match=r"expr\.re|expr\.im"):
        ex.parse_node({"kind": "const", "re": re, "im": im})


def test_declared_ranges_name_the_field_and_the_value():
    with pytest.raises(InputError, match=r"^eps: must be > 0, got -0\.1$"):
        ex.Clip(ex.Norm1(), -0.1)
    with pytest.raises(InputError, match=r"^args: must be non-empty"):
        ex.Add(())
    with pytest.raises(InputError, match=r"^inputs\.x\.expr\.eps: must be > 0, got -0\.1$"):
        ex.parse_node({"kind": "clip", "arg": {"kind": "norm1"}, "eps": -0.1}, "inputs.x.expr")
    with pytest.raises(InputError, match=r"^expr\.witness\.delta: must be > 0, got 0\.0$"):
        ex.parse_node({"kind": "recip", "arg": {"kind": "norm1"}, "witness": {"delta": 0.0, "K": 0}})
    with pytest.raises(InputError, match=r"^expr\.args: must be non-empty, got \[\]$"):
        ex.parse_node({"kind": "add", "args": []})
