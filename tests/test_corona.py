"""Lower-bound window checks, Bezout solving, and invertibility."""

import random

import numpy as np
import pytest

from periodist import expr as ex
from periodist.corona import (
    CERTIFIED,
    WINDOW_VERIFIED,
    CoronaWitness,
    certify_witness,
    check_corona_window,
    combined_modulus,
    is_unit,
    solve_bezout,
    verify_bezout,
    witness_from_bezout,
)
from periodist.errors import DimensionMismatch, InputError
from periodist.lattice import ball, ball_iter
from periodist.sequences import (
    _CHUNK,
    SlowSequence,
    constant,
    coordinate,
    poly_envelope,
    window_values,
)


def seq_with_cert(tree, dimension, M, k):
    return SlowSequence.from_json({"expr": ex.to_json(tree), "cert": {"M": M, "k": k}}, dimension)


# -- window checks ------------------------------------------------------


def test_constant_family_holds():
    check = check_corona_window([constant(1.0, 1)], 1.0, 0, 30)
    assert check.holds
    assert check.first_violation is None


def test_zero_family_violates_at_origin():
    check = check_corona_window([constant(0.0, 1)], 0.5, 0, 0)
    assert not check.holds
    assert check.first_violation == (0,)


def test_first_violation_respects_scan_order():
    # |n| >= 1/2 fails exactly at the origin and nowhere else
    check = check_corona_window([coordinate(0)], 0.5, 0, 10)
    assert check.first_violation == (0,)
    # floor 1 at order 0 for |n|: fails at 0 first even though larger
    # shells would also fail if the origin were patched
    brute = None
    for n in ball_iter(1, 10):
        if abs(n[0]) < 1.0:
            brute = n
            break
    assert check.first_violation == brute


def test_combined_modulus_sums_member_moduli():
    family = [coordinate(0), constant(3.0, 1)]
    values = combined_modulus(family, 4)
    for point, value in zip(ball_iter(1, 4), values):
        assert value == abs(point[0]) + 3.0


def test_witness_validation():
    with pytest.raises(InputError):
        CoronaWitness(0.0, 0)
    with pytest.raises(InputError):
        CoronaWitness(1.0, -2)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_corona_window([constant(1.0, 1), constant(1.0, 2)], 1.0, 0, 3)


# -- certified witnesses ------------------------------------------------


def test_certify_witness_picks_certified_member():
    witness = certify_witness([coordinate(0), constant(1.0, 1)])
    assert witness is not None
    assert witness.status == CERTIFIED
    assert (witness.delta, witness.K) == (1.0, 0)


def test_certify_witness_none_without_certified_form():
    assert certify_witness([coordinate(0)]) is None


def test_certify_witness_prefers_smaller_order():
    # an order-0 floor beats a larger delta at higher order
    family = [
        poly_envelope(1).reciprocal(1.0, 1),  # floor (1, 1)
        constant(0.5, 1),                     # floor (1/2, 0)
    ]
    witness = certify_witness(family)
    assert (witness.delta, witness.K) == (0.5, 0)


# -- solving and verifying ---------------------------------------------


def test_solve_single_constant():
    family = [constant(1.0, 1)]
    cofactors = solve_bezout(family, CoronaWitness(1.0, 0))
    assert len(cofactors) == 1
    values = cofactors[0].window(5)
    assert np.abs(values - 1.0).max() <= 1e-15


def test_verify_trivial_pairs():
    one = constant(1.0, 1)
    assert verify_bezout([one], [one], 20) == 0.0
    assert verify_bezout([one], [constant(0.0, 1)], 0) == 1.0


def test_solve_then_verify_coordinate_family():
    family = [coordinate(0), constant(1.0, 1)]
    witness = certify_witness(family)
    cofactors = solve_bezout(family, witness)
    residual = verify_bezout(family, cofactors, 50)
    assert residual <= 1e-12
    # cofactor values: phase(a_i) / (|a_1| + |a_2|)
    assert cofactors[0].eval((-3,)) == pytest.approx(-0.25, abs=1e-15)
    assert cofactors[1].eval((-3,)) == pytest.approx(0.25, abs=1e-15)


def test_verify_evaluates_shared_denominator_once_per_chunk(monkeypatch):
    family = [coordinate(0, 2), coordinate(1, 2), constant(1.0, 2)]
    cofactors = solve_bezout(family, certify_witness(family))
    radius = 200
    count = ball(2, radius)[0].shape[0]
    chunks = -(-count // _CHUNK)
    assert chunks > 1
    total = np.zeros(count, dtype=np.complex128)
    for a, b in zip(family, cofactors):
        total += window_values(a.expr, 2, radius) * window_values(b.expr, 2, radius)
    runs = []

    def counted(self, points, norms, values, original=ex.Recip._eval_grid):
        runs.append(points.shape[0])
        return original(self, points, norms, values)

    monkeypatch.setattr(ex.Recip, "_eval_grid", counted)
    residual = verify_bezout(family, cofactors, radius)
    assert len(runs) == chunks
    assert residual == float(np.abs(total - 1.0).max())


def test_solver_growth_claims_hold_on_window():
    family = [coordinate(0), constant(1.0, 1)]
    cofactors = solve_bezout(family, CoronaWitness(1.0, 0))
    for cof in cofactors:
        assert cof.check_certificate(50).holds


def test_witness_from_bezout_trivials():
    one = [constant(1.0, 1)]
    w = witness_from_bezout(one)
    assert (w.delta, w.K) == (1.0, 0)
    assert w.status == WINDOW_VERIFIED
    half = [constant(0.5, 1)]
    assert witness_from_bezout(half).delta == 2.0


def test_witness_from_bezout_takes_worst_growth():
    cofactors = [
        seq_with_cert(ex.Coord(0), 1, 2.0, 1),
        seq_with_cert(ex.Norm1(), 1, 4.0, 3),
    ]
    w = witness_from_bezout(cofactors)
    assert (w.delta, w.K) == (0.25, 3)


def test_round_trip_recovers_solver_witness():
    family = [coordinate(0), constant(1.0, 1)]
    delta, order = 1.0, 0
    cofactors = solve_bezout(family, CoronaWitness(delta, order))
    recovered = witness_from_bezout(cofactors)
    assert recovered.delta == pytest.approx(delta, rel=1e-15)
    assert recovered.K == order
    assert check_corona_window(family, recovered.delta, recovered.K, 50).holds


# -- invertibility ------------------------------------------------------


def test_unit_constant_one():
    check = is_unit(constant(1.0, 1), CoronaWitness(1.0, 0), radius=20)
    assert check.invertible
    assert np.abs(check.inverse.window(20) - 1.0).max() <= 1e-15


def test_zero_is_not_a_unit():
    check = is_unit(constant(0.0, 1), CoronaWitness(0.5, 0), radius=5)
    assert not check.invertible
    assert check.inverse is None
    assert check.first_violation == (0,)


def test_unit_poly_envelope():
    seq = poly_envelope(1)
    check = is_unit(seq, CoronaWitness(1.0, 0), radius=40)
    assert check.invertible
    product = (seq * check.inverse).window(40)
    assert np.abs(product - 1.0).max() <= 1e-12
    assert check.inverse.check_certificate(40).holds


def test_unit_inverse_on_random_shifted_norms():
    rng = random.Random(12)
    for _ in range(10):
        shift = 1.0 + rng.random() * 3.0
        seq = SlowSequence(ex.Norm1(), 1) + constant(shift, 1)
        check = is_unit(seq, CoronaWitness(shift, 0), radius=30)
        assert check.invertible
        product = (seq * check.inverse).window(30)
        assert np.abs(product - 1.0).max() <= 1e-12


# -- NaN is never a pass ------------------------------------------------


def nan_beyond_origin():
    """(1 + |n|)^2000 * exp(-800 |n|): 1 at the origin, inf * 0 = NaN at every |n| >= 1."""
    tree = ex.Mul((ex.PolyEnv(2000), ex.ExpDecay(800.0)))
    return SlowSequence.from_expr(tree, 1)


def test_window_check_fails_on_nan():
    seq = nan_beyond_origin()
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(seq.window(1)[1:]).all()
        check = check_corona_window([seq], 0.5, 0, 2)
    assert not check.holds
    assert check.first_violation == (-1,)


def test_is_unit_refuses_nan():
    with np.errstate(invalid="ignore", over="ignore"):
        unit = is_unit(nan_beyond_origin(), CoronaWitness(0.5, 0), radius=2)
    assert not unit.invertible
    assert unit.inverse is None
    assert unit.first_violation == (-1,)


def test_certify_witness_is_the_lower_bound_of_the_combined_modulus():
    rng = random.Random(11)
    leaves = [
        ex.Coord(0), ex.Norm1(), ex.Const(0.5), ex.Const(-2.0, 1.0), ex.PolyEnv(2), ex.Clip(ex.Coord(0), 0.25)
    ]
    for _ in range(300):
        family = [SlowSequence.from_expr(rng.choice(leaves), 1) for _ in range(rng.randint(1, 4))]
        bounds = [b for b in (ex.lower_bound_cert(m.expr) for m in family) if b is not None]
        best = min(bounds, key=lambda b: (b[1], -b[0]), default=None)
        witness = certify_witness(family)
        assert witness is None if best is None else (witness.delta, witness.K) == best
