"""Pair reduction, clipping approximation, and the pairing-gap bounds."""

import math
import random

import numpy as np
import pytest

from periodist import expr as ex
from periodist.corona import CERTIFIED, CoronaWitness, certify_witness, is_unit, solve_bezout, verify_bezout
from periodist.errors import InputError, MathFailure
from periodist.lattice import ball, ball_iter
from periodist.sequences import (
    GrowthCertificate,
    SlowSequence,
    combine,
    constant,
    coordinate,
    fast_exp_decay,
    from_values,
    poly_envelope,
)
from periodist.stable_rank import (
    approx_by_invertibles,
    clip_below,
    q_algebra_violation,
    reduce_pair,
    reduce_tuple,
    weak_star_gap,
)
from test_sequences import indicator

LOG2 = math.log(2.0)


# -- clipping -----------------------------------------------------------


def test_clip_zero_becomes_constant_level():
    clipped = clip_below(constant(0.0, 1), 0.25)
    assert np.abs(clipped.window(10) - 0.25).max() == 0.0


def test_clip_leaves_large_values_alone():
    one = constant(1.0, 1)
    assert (clip_below(one, 0.5).window(10) == one.window(10)).all()


def test_clip_boundary_is_kept():
    clipped = clip_below(coordinate(0), 1.0)
    assert clipped.eval((0,)) == 1.0
    assert clipped.eval((1,)) == 1.0
    assert clipped.eval((-1,)) == -1.0
    assert clipped.eval((7,)) == 7.0


def test_clip_moves_values_by_at_most_twice_the_level():
    rng = random.Random(5)
    for _ in range(20):
        shift = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        seq = coordinate(0) + constant(shift, 1)
        eps = rng.choice([0.125, 0.25, 0.5, 1.0])
        moved = np.abs(clip_below(seq, eps).window(20) - seq.window(20)).max()
        assert moved <= 2.0 * eps


# -- pair reduction -----------------------------------------------------


def test_reduce_trivial_pair():
    one, zero = constant(1.0, 1), constant(0.0, 1)
    trace = reduce_pair(one, zero, one, zero)
    at = (3,)
    assert trace.normalizer.eval(at) == 2.0
    assert trace.normalized_first.eval(at) == 0.5
    assert trace.scaled_cofactor.eval(at) == 2.0
    assert trace.clipped_cofactor.eval(at) == 2.0
    assert trace.multiplier.eval(at) == 0.0
    assert trace.result.eval(at) == 1.0
    unit = is_unit(trace.result, trace.result_inverse_witness, radius=20)
    assert unit.invertible


def test_reduce_degenerate_first_member():
    # a1 = 0 forces the clip to act: everything is carried by a2
    zero, one = constant(0.0, 1), constant(1.0, 1)
    trace = reduce_pair(zero, one, zero, one, epsilon=0.25)
    at = (-2,)
    assert trace.normalizer.eval(at) == 1.0
    assert trace.normalized_first.eval(at) == 0.0
    assert trace.scaled_cofactor.eval(at) == 0.0
    assert trace.clipped_cofactor.eval(at) == 0.25
    assert trace.multiplier.eval(at) == 4.0
    assert trace.result.eval(at) == 4.0
    witness = trace.result_inverse_witness
    assert witness.status == CERTIFIED
    assert witness.K == 0
    assert witness.delta == pytest.approx(0.25, rel=1e-10)
    assert witness.delta <= 0.25


def test_reduce_epsilon_range_is_validated():
    one = constant(1.0, 1)
    with pytest.raises(InputError):
        reduce_pair(one, one, one, one, epsilon=0.0)
    with pytest.raises(InputError):
        reduce_pair(one, one, one, one, epsilon=0.5)


def test_reduce_rejects_non_unimodular_input():
    one, zero = constant(1.0, 1), constant(0.0, 1)
    with pytest.raises(MathFailure):
        reduce_pair(one, zero, zero, zero)


def test_reduce_floor_and_factorization_on_random_pairs():
    rng = random.Random(2024)
    radius = 30
    points, norms = ball(1, radius)
    for _ in range(15):
        scale = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        a1 = coordinate(0) * constant(scale, 1) + constant(rng.uniform(-2, 2), 1)
        b1 = constant(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), 1)
        # manufacture exact cofactors: a2 := 1 - b1 a1, b2 := 1
        a2 = constant(1.0, 1) + combine("neg", b1 * a1)
        b2 = constant(1.0, 1)
        eps = rng.choice([0.125, 0.25, 0.375])
        trace = reduce_pair(a1, a2, b1, b2, epsilon=eps, radius=radius)
        # the perturbed identity keeps its floor
        drift = combine(
            "mul",
            combine("add", trace.clipped_cofactor, combine("neg", trace.scaled_cofactor)),
            trace.normalized_first,
        )
        perturbed = constant(1.0, 1) + drift
        floor = np.abs(perturbed.window(radius)).min()
        assert floor >= 1.0 - 2.0 * eps
        # result equals (1/clipped) * normalizer * perturbed
        recon = combine(
            "mul",
            trace.clipped_cofactor.reciprocal(eps, 0),
            trace.normalizer,
            perturbed,
        )
        residual = np.abs(trace.result.window(radius) - recon.window(radius)).max()
        assert residual <= 1e-10
        unit = is_unit(trace.result, trace.result_inverse_witness, radius=radius)
        assert unit.invertible


def test_reduce_tuple_produces_unimodular_shorter_family():
    family = [coordinate(0), constant(1.0, 1), SlowSequence(ex.Norm1(), 1)]
    witness = certify_witness(family)
    cofactors = solve_bezout(family, witness)
    assert verify_bezout(family, cofactors, 30) <= 1e-12
    shortened = reduce_tuple(family, cofactors, radius=30)
    assert len(shortened.family) == 2
    assert len(shortened.cofactors) == 2
    assert shortened.family[0] is family[0]
    residual = verify_bezout(shortened.family, shortened.cofactors, 30)
    assert residual <= 1e-10


def test_reduce_tuple_needs_three_members():
    one = constant(1.0, 1)
    with pytest.raises(InputError):
        reduce_tuple([one, one], [one, one])


# -- approximation by invertibles --------------------------------------


def test_approx_leaves_units_alone():
    one = constant(1.0, 1)
    [(approximant, witness)] = approx_by_invertibles(one, [0.5])
    assert (approximant.window(10) == one.window(10)).all()
    assert witness.delta == 0.5
    assert witness.status == CERTIFIED


def test_approx_of_zero_is_the_level_ladder():
    zero = constant(0.0, 1)
    out = approx_by_invertibles(zero, [1.0, 0.5, 0.25])
    for (approximant, witness), eps in zip(out, [1.0, 0.5, 0.25]):
        assert np.abs(approximant.window(5) - eps).max() == 0.0
        assert witness.delta == eps
        check = is_unit(approximant, witness, radius=10)
        assert check.invertible


def test_approx_rejects_bad_levels():
    with pytest.raises(InputError):
        approx_by_invertibles(constant(1.0, 1), [0.5, 0.0])


# -- weak-* gaps --------------------------------------------------------


def test_gap_of_equal_sequences_is_zero():
    x = constant(2.0, 1)
    result = weak_star_gap(x, x, fast_exp_decay(LOG2), 20)
    assert result.gap == 0.0
    assert result.bound >= 0.0


def test_gap_of_clipped_coordinate_is_the_level():
    b = fast_exp_decay(LOG2)
    for eps in (1.0, 0.5, 0.25, 0.125):
        a = coordinate(0)
        result = weak_star_gap(clip_below(a, eps), a, b, 50)
        assert result.gap == eps  # the only moved term sits at the origin
        assert result.bound >= result.gap
        assert result.bound <= 2.0 * eps * b.abs_sum_bound() * (1.0 + 1e-10)


def test_gap_bound_is_infinite_without_a_certificate():
    x = coordinate(0) * coordinate(0)
    y = constant(0.0, 1)
    result = weak_star_gap(x, y, indicator((0,)), 10)
    assert math.isinf(result.bound)
    assert result.gap == 0.0


def test_gap_respects_uniform_difference_certificates():
    x = constant(1.5, 1)
    y = constant(1.0, 1)
    b = from_values({(0,): 1.0, (2,): 1.0}, 1)
    result = weak_star_gap(x, y, b, 10)
    assert result.gap == 1.0  # 0.5 at both stored points
    assert result.bound >= 1.0
    assert math.isfinite(result.bound)


# -- failure of the open-unit-group property ----------------------------


def brute_violation(rate, delta, K, n_max):
    for point in ball_iter(1, n_max):
        norm = abs(point[0])
        if math.exp(-rate * norm) < delta * (1.0 + norm) ** (-K):
            return point
    return None


@pytest.mark.parametrize(
    "rate,delta,K,n_max",
    [
        (1.0, 1.0, 0, 10),
        (1.0, 0.5, 2, 40),
        (1.0, 0.1, 0, 40),
        (0.5, 0.25, 1, 40),
    ],
)
def test_violation_matches_brute_scan(rate, delta, K, n_max):
    expected = brute_violation(rate, delta, K, n_max)
    assert expected is not None
    assert q_algebra_violation(rate, delta, K, n_max) == expected


def test_violation_absent_on_short_window():
    assert q_algebra_violation(1.0, 0.5, 2, 2) is None


def test_exp_decay_gets_arbitrarily_close_to_one():
    # the unit ball around the identity contains no ball in the weak-*
    # sense: small-rate decays differ little in pairing yet lose the floor
    b = fast_exp_decay(LOG2)
    gaps = []
    for eps in (0.1, 0.01):
        from periodist.sequences import exp_decay_sequence

        x = exp_decay_sequence(eps)
        one = constant(1.0, 1)
        gaps.append(weak_star_gap(x, one, b, 60).gap)
        assert q_algebra_violation(eps, 0.5, 3, 4000) is not None
    assert gaps[1] < gaps[0]


def test_reduce_rejects_a_nan_residual():
    nan = SlowSequence.from_expr(ex.Mul((ex.PolyEnv(2000), ex.ExpDecay(800.0))), 1)
    one = constant(1.0, 1)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(MathFailure, match="residual nan"):
        reduce_pair(nan, one, one, one, radius=2)


def test_gap_whose_modulus_passes_the_double_range_is_infinite():
    # At n = 0 the pairing is 1.5e308 + 1.5e308i, whose modulus abs() cannot return.
    huge = SlowSequence(ex.Const(1.5e308, 1.5e308), 1, GrowthCertificate(math.inf, 0))
    result = weak_star_gap(huge, constant(0.0), fast_exp_decay(1.0), 0)
    assert result.gap == math.inf
    assert weak_star_gap(constant(3.0), constant(0.0, 1), fast_exp_decay(1.0), 0).gap == 3.0


def test_a_cofactor_of_infinite_growth_leaves_no_inverse_witness():
    # b = 1 + 0 * 1e308 * 1e308 is 1 everywhere, but its composed growth is M = inf, so the
    # clipped cofactor's floor 1/M and the result's delta round to 0: neither is a witness.
    b = SlowSequence.from_expr(ex.Add((ex.Const(1.0), ex.Mul((ex.Const(0.0), ex.Const(1e308), ex.Const(1e308))))), 1)
    one, zero = constant(1.0, 1), constant(0.0, 1)
    trace = reduce_pair(one, zero, b, zero, radius=5)
    assert trace.result_inverse_witness is None
    assert trace.witness_factors["clipped_cofactor_reciprocal"] is None
    assert trace.witness_factors["perturbed_identity"] == (0.5, 0)
    with pytest.raises(MathFailure, match="no inverse witness"):
        reduce_tuple([zero, one, zero], [zero, b, zero], radius=5)
