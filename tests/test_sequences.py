"""Sequence layer: certificates, seminorms, pairings, certified tails."""

import math
import random
import sys
import time

import numpy as np
import pytest

from periodist import expr as ex
from periodist.errors import CertificateError, DimensionMismatch, InputError
from periodist.lattice import ball, ball_iter
from periodist.sequences import (
    _SERIES_LAST,
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
    indicator_expr,
    pairing,
    poly_envelope,
    poly_exp_series_bound,
    poly_exp_sup,
    seminorm,
)
from periodist.stable_rank import clip_below

LOG2 = math.log(2.0)


def indicator(point) -> FastSequence:
    """The sequence 1 at `point` and 0 elsewhere, with its support declared."""
    return FastSequence(indicator_expr(point), len(point), support=sum(abs(c) for c in point))


# -- construction and the ring operations -------------------------------


def test_add_of_ones():
    two = constant(1.0, 1) + constant(1.0, 1)
    assert two.eval((17,)) == 2.0
    assert (two.cert.M, two.cert.k) == (2.0, 0)


def test_constructors_evaluate():
    assert coordinate(0).eval((-4,)) == -4.0
    assert coordinate(1, 2).eval((3, 5)) == 5.0
    assert SlowSequence(ex.Norm1(), 2).eval((-1, 2)) == 3.0
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
        b = constant(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), 1) + SlowSequence(ex.Norm1(), 1)
        for left, right in [(a + b, b + a), (a * b, b * a)]:
            lw, rw = left.window(10), right.window(10)
            assert np.abs(lw - rw).max() <= 1e-12 * (np.abs(lw).max() + 1.0)


def test_associativity_and_distributivity_within_tolerance():
    a = coordinate(0) * constant(0.3, 1)
    b = SlowSequence(ex.Norm1(), 1) + constant(-1.7 + 0.4j, 1)
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
    a, b = coordinate(1, 2), SlowSequence(ex.Norm1(), 2)

    def refuse(node):
        raise AssertionError("a combined tree was folded")

    monkeypatch.setattr(ex, "_facts_of", refuse)
    total = combine("add", a, b)
    assert total.eval((3, -4)) == -4.0 + 7.0
    assert clip_below(combine("mul", total, a), 0.5).reciprocal(0.5, 2).dimension == 2
    # A raw tree built directly is still checked against the dimension.
    monkeypatch.undo()
    with pytest.raises(DimensionMismatch):
        SlowSequence(ex.Add((ex.Coord(2), ex.Norm1())), 2, GrowthCertificate(2.0, 1))
    with pytest.raises(DimensionMismatch):
        FastSequence(ex.Mul((ex.Coord(3), ex.ExpDecay(1.0))), 2, decay=DecayBound(1.0, 1, 1.0))


def test_a_fast_sequence_is_a_slow_sequence_with_its_composed_certificate():
    f = fast_exp_decay(0.5, 2)
    assert isinstance(f, SlowSequence)
    assert f.cert == GrowthCertificate(*ex.composed_cert(f.expr))
    assert (f + constant(1.0, 2)).eval((1, 0)) == math.exp(-0.5) + 1.0


def test_each_tree_is_walked_once_on_its_way_in(monkeypatch):
    walks = []
    postorder = ex._postorder
    monkeypatch.setattr(ex, "_postorder", lambda *args: walks.append(args) or postorder(*args))
    tree = ex.Mul((ex.Coord(1), ex.ExpDecay(1.0)))
    wire = {"expr": ex.to_json(tree)}
    walks.clear()
    for make in (
        lambda: SlowSequence.from_expr(tree, 2),
        lambda: SlowSequence(tree, 2),
        lambda: SlowSequence.from_json(wire, 2),
        lambda: FastSequence.from_json({**wire, "decay": {"C": 1.0, "j": 1, "rate": 1.0}}, 2),
    ):
        seq = make()
        assert (len(walks), seq.cert) == (1, GrowthCertificate(1.0, 1))
        walks.clear()


def test_a_fast_sequence_writes_and_takes_no_certificate():
    f = fast_exp_decay(0.5, 1)
    assert "cert" not in f.to_json()
    with pytest.raises(InputError, match=r"^inputs\.b\.cert: a fast sequence takes no growth certificate"):
        FastSequence.from_json({**f.to_json(), "cert": {"M": 1.0, "k": 0}}, 1, "inputs.b")


# -- growth certificates ------------------------------------------------


def test_a_claimed_operand_certificate_governs_the_combined_sequence():
    claimed = SlowSequence.from_json({"expr": {"kind": "norm1"}, "cert": {"M": 5.0, "k": 1}}, 1)
    product = combine("mul", claimed, constant(2.0))
    assert product.cert == GrowthCertificate(10.0, 1)
    assert ex.composed_cert(product.expr) == (2.0, 1)


def test_certificate_validation():
    with pytest.raises(InputError):
        GrowthCertificate(0.0, 0)
    with pytest.raises(InputError):
        GrowthCertificate(1.0, -1)


def test_claimed_certificate_must_pass_window():
    tight = {"expr": {"kind": "norm1"}, "cert": {"M": 1.0, "k": 0}}
    with pytest.raises(CertificateError, match=r"^cert: claimed certificate \(M=1\.0, k=0\) fails at lattice index \(-2,\)$"):
        SlowSequence.from_json(tight, 1)
    loose = SlowSequence.from_json({"expr": {"kind": "norm1"}, "cert": {"M": 5.0, "k": 1}}, 1)
    assert loose.cert == GrowthCertificate(5.0, 1)


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
            seq = seq * coordinate(0) if rng.random() < 0.5 else seq + SlowSequence(ex.Norm1(), 1)
        assert seq.check_certificate(35).holds


def test_json_round_trip_checks_claims():
    seq = clip_below(coordinate(0) + constant(1.0, 1), 0.5)
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
    f = FastSequence(ex.Mul((ex.Const(1.5), ex.ExpDecay(0.5))), 2, decay=DecayBound(1.5, 0, 0.5))
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


@pytest.mark.parametrize("order,rate,start", [(1000, 300.0, 0.0), (200, 1.0, 2000.0)])
def test_poly_exp_sup_is_finite_where_only_a_power_overflows(order, rate, start):
    # (order/rate)^order and (1+start)^order pass the double range; the sups are about
    # 7.4578e218 and 4.5757e-209.
    mpmath = pytest.importorskip("mpmath")
    sup = poly_exp_sup(order, rate, start)
    with mpmath.workdps(60):
        r = max(mpmath.mpf(order) / mpmath.mpf(rate) - 1, mpmath.mpf(start))
        exact = (1 + r) ** order * mpmath.exp(-mpmath.mpf(rate) * r)
        assert exact <= sup <= exact * (1 + mpmath.mpf("1e-9"))


def test_poly_exp_sup_is_sound_below_the_normal_range():
    # rate * start runs from 690 to 770, so exp(-rate * start) falls from normal doubles
    # through the subnormals to 0; the sup is never below the exact one, nor 0.  Where the
    # exponential is normal, the bits are those of the direct formula (1+start)^order
    # exp(-rate*start), raised by the slack.
    mpmath = pytest.importorskip("mpmath")
    below = []
    with mpmath.workdps(60):
        for rate in (0.5, 1.0, 3.0):
            for s in range(int(6900 / rate), int(7700 / rate), 7):
                start = s / 10
                factor = math.exp(-rate * start)
                for order in range(25):
                    sup = poly_exp_sup(order, rate, start)
                    exact = (1 + mpmath.mpf(start)) ** order * mpmath.exp(-mpmath.mpf(rate) * mpmath.mpf(start))
                    if not (sup > 0 and sup >= exact):
                        below.append((order, rate, start, sup))
                    if factor >= sys.float_info.min:
                        assert sup == (1.0 + start) ** order * factor * (1.0 + 1e-11), (order, rate, start)
    assert not below, below[:5]


def test_the_series_bound_is_finite_where_only_a_power_overflows():
    mpmath = pytest.importorskip("mpmath")
    bound = poly_exp_series_bound(1000, 300.0)
    with mpmath.workdps(60):
        partial = mpmath.fsum((1 + r) ** 1000 * mpmath.exp(-300 * r) for r in range(100))
        assert partial <= bound < math.inf


def test_poly_exp_sup_with_start_offset():
    # past the peak the sup is attained at the left endpoint
    assert poly_exp_sup(1, 1.0, start=5.0) == pytest.approx(6.0 * math.exp(-5.0))


@pytest.mark.parametrize("order,rate", [(0, LOG2), (1, 1.0), (3, 0.5), (2, 0.05)])
def test_poly_exp_series_bound_dominates_partial_sums(order, rate):
    partial = sum((1.0 + r) ** order * math.exp(-rate * r) for r in range(5000))
    assert poly_exp_series_bound(order, rate) >= partial


def _series_loop(order, rate):
    """The summing loop of ``poly_exp_series_bound`` alone, inf where it does not stop."""
    decay = math.exp(-rate)
    if decay == 1.0:
        return math.inf
    stop, total = (1.0 + decay) / 2.0, 0.0
    try:
        for r in range(_SERIES_LAST + 1):
            term = (1.0 + r) ** order * math.exp(-rate * r)
            ratio = ((2.0 + r) / (1.0 + r)) ** order * decay
            if ratio <= stop and ratio < 1.0:
                return (total + (term + term * ratio / (1.0 - ratio))) * (1.0 + 1e-11)
            total += term
    except OverflowError:
        pass
    return math.inf


def test_series_bound_keeps_the_bits_of_every_sum_the_loop_returns():
    # Order 40 at rate 0.003 and order 5 at rate 1e-5 would stop near terms 27,000 and
    # 1,000,000, past the last term; order 1 at rate 1.5e-6 and order 2 at rate 3e-6
    # later still; and order 170 at rates 1 and 3 and order 400 at rate 40 pass the
    # double range in (1+r)^order: these seven take the closed form.
    grid = [(order, rate) for order in (0, 1, 2, 5, 12, 40, 170, 400)
            for rate in (0.003, 0.05, 0.69, 1.0, 3.0, 40.0, 700.0)]
    grid += [(5, 1e-5), (1, 1.5e-6), (2, 3e-6), (800, 1.0), (2000, 0.5)]
    closed = 0
    for order, rate in grid:
        looped, got = _series_loop(order, rate), poly_exp_series_bound(order, rate)
        if math.isfinite(looped):
            assert got.hex() == looped.hex(), (order, rate)
        else:
            closed += math.isfinite(got)
    assert closed == 7


@pytest.mark.parametrize(
    "order,rate,about",
    [(1, 1.5e-6, 4.4445e11), (2, 3e-6, 7.4074e16), (5, 1e-5, 1.2000e32), (170, 3.0, 4.4576e226)],
)
def test_series_bound_past_the_last_term_is_the_closed_form(order, rate, about):
    mpmath = pytest.importorskip("mpmath")
    start = time.perf_counter()
    bound = poly_exp_series_bound(order, rate)
    assert time.perf_counter() - start < 0.01
    with mpmath.workdps(60):
        x = mpmath.exp(-mpmath.mpf(rate))
        exact = mpmath.polylog(-order, x) / x  # sum over m >= 1 of m^order x^(m-1)
        assert exact <= bound
    assert bound == pytest.approx(about, rel=1e-4)


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
        y = SlowSequence(ex.Norm1(), 1) + constant(rng.uniform(-1, 1), 1)
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
