"""Sequence layer: certificates, seminorms, pairings, certified tails."""

import math
import random

import numpy as np
import pytest

from periodist import expr as ex
from periodist.errors import CertificateError, DimensionMismatch, InputError
from periodist.lattice import ball, ball_iter
from periodist.sequences import (
    DecayBound,
    FastSequence,
    GrowthCertificate,
    SlowSequence,
    combine,
    constant,
    coordinate,
    exp_decay_sequence,
    fast_exp_decay,
    from_values,
    indicator,
    norm_sequence,
    pairing,
    poly_envelope,
    poly_exp_series_bound,
    poly_exp_sup,
    seminorm,
)

LOG2 = math.log(2.0)


# -- construction and the ring operations -------------------------------


def test_add_of_ones():
    two = constant(1.0, 1) + constant(1.0, 1)
    assert two.eval((17,)) == 2.0
    assert (two.cert.M, two.cert.k) == (2.0, 0)


def test_constructors_evaluate():
    assert coordinate(0).eval((-4,)) == -4.0
    assert coordinate(1, 2).eval((3, 5)) == 5.0
    assert norm_sequence(2).eval((-1, 2)) == 3.0
    assert poly_envelope(2).eval((3,)) == 16.0
    assert exp_decay_sequence(LOG2).eval((3,)) == pytest.approx(0.125, rel=1e-14)


def test_operator_sugar_matches_combine():
    a, b = coordinate(0), constant(2.0, 1)
    points, norms = ball(1, 8)
    for sugar, explicit in [
        (a + b, combine("add", a, b)),
        (a * b, combine("mul", a, b)),
        (-a, combine("neg", a)),
        (a.conjugate(), combine("conj", a)),
        (a.phase_factor(), combine("phase", a)),
    ]:
        assert (sugar.window(8) == explicit.window(8)).all()
        assert (sugar.cert.M, sugar.cert.k) == (explicit.cert.M, explicit.cert.k)


def test_commutativity():
    # flattened n-ary sums and products may reassociate, so agreement is
    # to rounding, not bitwise
    rng = random.Random(77)
    for _ in range(20):
        a = constant(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) * coordinate(0)
        b = constant(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) + norm_sequence(1)
        for left, right in [(a + b, b + a), (a * b, b * a)]:
            lw, rw = left.window(10), right.window(10)
            assert np.abs(lw - rw).max() <= 1e-12 * (np.abs(lw).max() + 1.0)


def test_associativity_and_distributivity_within_tolerance():
    a = coordinate(0) * constant(0.3, 1)
    b = norm_sequence(1) + constant(-1.7 + 0.4j, 1)
    c = poly_envelope(1)
    w = 12
    left = ((a + b) + c).window(w)
    right = (a + (b + c)).window(w)
    scale = np.abs(left).max() + 1.0
    assert np.abs(left - right).max() <= 1e-10 * scale
    left = (a * (b + c)).window(w)
    right = (a * b + a * c).window(w)
    scale = np.abs(left).max() + 1.0
    assert np.abs(left - right).max() <= 1e-10 * scale


def test_identity_elements_are_exact():
    a = coordinate(0) + constant(0.5, 1)
    assert ((a * constant(1.0, 1)).window(9) == a.window(9)).all()
    assert ((a + constant(0.0, 1)).window(9) == a.window(9)).all()


def test_phase_times_modulus_recovers_conjugate():
    a = (coordinate(0) + constant(0.5 + 2.0j, 1)) * constant(0.25 - 1.0j, 1)
    reconstructed = (a.phase_factor() * combine("abs", a)).window(15)
    target = a.conjugate().window(15)
    assert np.abs(reconstructed - target).max() <= 1e-12 * (np.abs(target).max() + 1.0)
    assert np.abs(np.abs(a.phase_factor().window(15)) - 1.0).max() <= 1e-14


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        combine("add", constant(1.0, 1), constant(1.0, 2))
    with pytest.raises(DimensionMismatch):
        constant(1.0, 2).eval((1,))


def test_combining_does_not_walk_the_operands_for_axes(monkeypatch):
    a, b = coordinate(1, 2), norm_sequence(2)

    def refuse(node):
        raise AssertionError("max_axis walked a combined tree")

    monkeypatch.setattr(ex, "max_axis", refuse)
    total = combine("add", a, b)
    assert total.eval((3, -4)) == -4.0 + 7.0
    assert combine("mul", total, a).clip_below(0.5).reciprocal(0.5, 2).dimension == 2
    # A raw tree built directly is still checked against the dimension.
    monkeypatch.undo()
    with pytest.raises(DimensionMismatch):
        SlowSequence(ex.Add((ex.Coord(2), ex.Norm1())), 2, GrowthCertificate(2.0, 1))
    with pytest.raises(DimensionMismatch):
        FastSequence(ex.Mul((ex.Coord(3), ex.ExpDecay(1.0))), 2, decay=DecayBound(1.0, 1, 1.0))


# -- growth certificates ------------------------------------------------


def test_a_claimed_operand_certificate_governs_the_combined_sequence():
    claimed = SlowSequence.with_claimed_cert(ex.Norm1(), 1, GrowthCertificate(5.0, 1))
    product = combine("mul", claimed, constant(2.0))
    assert product.cert == GrowthCertificate(10.0, 1)
    assert ex.composed_cert(product.expr) == (2.0, 1)


def test_certificate_validation():
    with pytest.raises(InputError):
        GrowthCertificate(0.0, 0)
    with pytest.raises(InputError):
        GrowthCertificate(1.0, -1)


def test_claimed_certificate_must_pass_window():
    with pytest.raises(CertificateError):
        SlowSequence.with_claimed_cert(ex.Norm1(), 1, GrowthCertificate(1.0, 0))
    loose = SlowSequence.with_claimed_cert(ex.Norm1(), 1, GrowthCertificate(5.0, 1))
    assert loose.cert.M == 5.0


def test_check_certificate_reports_first_violation():
    seq = SlowSequence(ex.Norm1(), 1, GrowthCertificate(1.0, 0))
    check = seq.check_certificate(10)
    assert not check.holds
    assert check.first_violation == (-2,)
    assert check.max_ratio > 1.0


def test_composed_certs_hold_on_random_products():
    rng = random.Random(9)
    for _ in range(25):
        seq = constant(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), 1)
        for _ in range(rng.randrange(3)):
            seq = seq * coordinate(0) if rng.random() < 0.5 else seq + norm_sequence(1)
        assert seq.check_certificate(35).holds


def test_json_round_trip_checks_claims():
    seq = (coordinate(0) + constant(1.0, 1)).clip_below(0.5)
    wire = seq.to_json()
    back = SlowSequence.from_json(wire, 1)
    assert back.to_json() == wire
    assert (back.window(10) == seq.window(10)).all()
    with pytest.raises(CertificateError):
        SlowSequence.from_json({"expr": {"kind": "norm1"}, "cert": {"M": 1.0, "k": 0}}, 1)


# -- rapid-decay side ---------------------------------------------------


def test_decay_bound_validation():
    with pytest.raises(InputError):
        DecayBound(0.0, 0, 1.0)
    with pytest.raises(InputError):
        DecayBound(1.0, -1, 1.0)
    with pytest.raises(InputError):
        DecayBound(1.0, 0, 0.0)
    with pytest.raises(InputError):
        FastSequence(ex.Norm1(), 1)  # neither decay nor support


def test_from_values_is_exact_on_dyadics():
    values = {(2,): 0.625, (-1,): -0.125 + 0.25j}
    f = from_values(values, 1)
    assert f.support == 2
    assert f.eval((2,)) == 0.625
    assert f.eval((-1,)) == -0.125 + 0.25j
    assert f.eval((0,)) == 0.0
    assert f.eval((40,)) == 0.0


def test_indicator_is_exactly_one_at_its_point():
    for point in [(0,), (3,), (-2,), (1, -4)]:
        f = indicator(point)
        assert f.eval(point) == 1.0
        for other in ball_iter(len(point), 5):
            if other != point:
                assert f.eval(other) == 0.0


def test_empty_map_is_zero():
    f = from_values({}, 1)
    assert f.support == 0
    assert f.eval((7,)) == 0.0


# -- seminorms ----------------------------------------------------------


def test_seminorm_of_indicator_and_zero():
    for k in (0, 2, 5):
        result = seminorm(indicator((0,)), k, 4)
        assert result.sup_on_window == 1.0
        assert 1.0 <= result.certified_bound <= 1.0 + 1e-9
    zero = seminorm(from_values({}, 1), 3, 5)
    assert zero.sup_on_window == 0.0
    assert zero.certified_bound == 0.0


def test_seminorm_matches_dict_oracle():
    rng = random.Random(33)
    for _ in range(25):
        values = {
            (rng.randint(-6, 6),): complex(rng.randint(-8, 8), rng.randint(-8, 8)) / 8.0
            for _ in range(rng.randint(1, 5))
        }
        f = from_values(values, 1)
        k = rng.randrange(4)
        oracle = max(
            ((1.0 + abs(n[0])) ** k) * abs(v) for n, v in values.items()
        ) if values else 0.0
        got = seminorm(f, k, 8)
        assert got.sup_on_window == pytest.approx(oracle, rel=1e-12)
        assert got.certified_bound >= oracle * (1.0 - 1e-12)


def test_seminorm_certified_bound_covers_far_points():
    f = fast_exp_decay(0.25)
    bound = f.seminorm_bound(3)
    points, norms = ball(1, 200)
    weighted = (1.0 + norms) ** 3 * np.abs(f.window(200))
    assert weighted.max() <= bound
    # window result from a small radius still certifies the global sup
    small = seminorm(f, 3, 6)
    assert small.certified_bound >= weighted.max()


def test_abs_sum_and_weighted_bounds_dominate_truth():
    f = fast_exp_decay(LOG2)
    truth = sum(abs(f.eval((n,))) for n in range(-80, 81))
    assert truth == pytest.approx(3.0, abs=1e-12)
    assert f.abs_sum_bound() >= truth
    assert f.abs_sum_bound() <= 10.0
    weighted_truth = sum(abs(n) * abs(f.eval((n,))) for n in range(-80, 81))
    assert f.weighted_abs_sum_bound() >= weighted_truth
    g = from_values({(1,): 2.0, (-3,): 1.0}, 1)
    assert g.abs_sum_bound() >= 3.0
    assert g.weighted_abs_sum_bound() >= 2.0 + 3.0


def test_fast_json_round_trip():
    f = fast_exp_decay(0.5, 2, amplitude=1.5)
    wire = f.to_json()
    back = FastSequence.from_json(wire, 2)
    assert back.to_json() == wire
    assert back.eval((1, -1)) == f.eval((1, -1))


# -- closed-form envelope helpers ---------------------------------------


@pytest.mark.parametrize("order,rate", [(0, 1.0), (2, 0.5), (5, 2.0), (3, 0.1)])
def test_poly_exp_sup_dominates_grid(order, rate):
    rs = np.linspace(0.0, 400.0, 40001)
    values = (1.0 + rs) ** order * np.exp(-rate * rs)
    assert values.max() <= poly_exp_sup(order, rate) * (1.0 + 1e-12)


def test_envelope_bounds_past_the_double_range_are_inf():
    assert poly_exp_sup(5, 1e-200) == math.inf  # (order / rate) ** order overflows
    assert poly_exp_sup(2000, 0.5) == math.inf
    assert poly_exp_sup(800, 1e-310) == math.inf  # order / rate is inf, and exp(rate - order) 0
    assert poly_exp_sup(0, 1e-200) == 1.0 + 1e-11
    assert poly_exp_series_bound(0, 1e-200) == math.inf  # exp(-rate) rounds to 1
    assert poly_exp_series_bound(2, 1e-200) == math.inf
    assert poly_exp_series_bound(2000, 0.5) == math.inf  # a term overflows
    # exp(-rate) is the double below 1 and the threshold rounds to 1: the ratio still falls below 1.
    assert math.isfinite(poly_exp_series_bound(0, 1.1e-16))
    b = FastSequence(ex.ExpDecay(0.5), 1, decay=DecayBound(1.0, 0, 1e-200))
    assert b.seminorm_bound(3) == b.abs_sum_bound() == math.inf


def test_poly_exp_sup_with_start_offset():
    # past the peak the sup is attained at the left endpoint
    assert poly_exp_sup(1, 1.0, start=5.0) == pytest.approx(6.0 * math.exp(-5.0))


@pytest.mark.parametrize("order,rate", [(0, LOG2), (1, 1.0), (3, 0.5), (2, 0.05)])
def test_poly_exp_series_bound_dominates_partial_sums(order, rate):
    partial = sum((1.0 + r) ** order * math.exp(-rate * r) for r in range(5000))
    assert poly_exp_series_bound(order, rate) >= partial


# -- duality pairing ----------------------------------------------------


def test_pairing_with_declared_support_has_zero_tail():
    result = pairing(constant(1.0, 1), indicator((0,)), 0)
    assert result.value == 1.0
    assert result.tail_bound == 0.0


def test_pairing_coordinate_against_point_mass():
    result = pairing(coordinate(0), indicator((2,)), 2)
    assert result.value == 2.0
    assert result.tail_bound == 0.0


def test_pairing_tail_positive_when_support_exceeds_window():
    result = pairing(coordinate(0), indicator((2,)), 1)
    assert result.value == 0.0
    assert result.tail_bound >= 2.0  # the missed term is 2


def test_geometric_pairing_is_exact_dyadic():
    result = pairing(constant(1.0, 1), fast_exp_decay(LOG2), 10)
    assert result.value == 3.0 - 2.0 * 2.0**-10
    assert result.tail_bound >= 2.0 * 2.0**-10


def test_truncation_consistency():
    a = poly_envelope(1)
    b = fast_exp_decay(LOG2)
    coarse = pairing(a, b, 8)
    fine = pairing(a, b, 30)
    assert abs(fine.value - coarse.value) <= coarse.tail_bound
    assert abs(fine.value - 7.0) <= fine.tail_bound


def test_pairing_linearity():
    rng = random.Random(55)
    b = fast_exp_decay(1.0)
    for _ in range(10):
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        x = coordinate(0) * constant(rng.uniform(-1, 1), 1)
        y = norm_sequence(1) + constant(rng.uniform(-1, 1), 1)
        lhs = pairing(constant(alpha, 1) * x + y, b, 25).value
        rhs = alpha * pairing(x, b, 25).value + pairing(y, b, 25).value
        assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + 1.0)


@pytest.mark.filterwarnings("error")
def test_a_pairing_sum_past_the_double_range_is_inf_without_a_warning():
    huge = SlowSequence.from_expr(ex.Const(1.5e308, 1.5e308), 1)
    assert pairing(huge, fast_exp_decay(1.0), 5).value == complex(math.inf, math.inf)


@pytest.mark.filterwarnings("error")  # the inf / inf read as 0 warns nothing either
def test_an_infinite_bound_holds_a_finite_value_whose_modulus_passes_the_double_range():
    seq = SlowSequence.from_expr(ex.Const(1.5e308, 1.5e308), 1)
    check = seq.check_certificate(3)
    assert seq.cert == GrowthCertificate(math.inf, 0)
    assert (check.holds, check.first_violation, check.max_ratio) == (True, None, 0.0)


def test_certificate_check_fails_on_nan():
    # The bound (1 + |n|)^2000 is inf at n = +-1 too: a NaN value stays a violation under it.
    seq = SlowSequence.from_expr(ex.Mul((ex.PolyEnv(2000), ex.ExpDecay(800.0))), 1)
    with np.errstate(invalid="ignore", over="ignore"):
        check = seq.check_certificate(2)
    assert not check.holds
    assert check.first_violation == (-1,)
    assert math.isnan(check.max_ratio)
