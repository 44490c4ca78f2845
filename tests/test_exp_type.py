"""Polynomial model: exact Bezout identity and the reducer sweep."""

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodist.errors import InputError
from periodist.exp_type import (
    Poly,
    ReducerSearchReport,
    _best_residuals,
    monomial,
    one,
    poly_bezout_check,
    polynomial_reducer_search,
    standard_identity,
)


# -- polynomial arithmetic ----------------------------------------------


def test_construction_strips_trailing_zeros():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert Poly([0, 0]).degree == -1
    assert Poly([]).degree == -1


def test_exact_fraction_arithmetic():
    p = Poly([Fraction(1, 3)])
    q = Poly([0, 3])
    assert (p * q).coefficient(1) == Fraction(1, 1)
    assert type((p * q).coefficient(1)) is Fraction
    assert (p * q).exact
    assert Poly([1, 1]).exact
    assert not Poly([1.5]).exact


def test_int_inputs_stay_ints():
    p = Poly([3, -1, 2]) * Poly([1, 1]) + Poly([0, 5]) - Poly([1])
    assert p.exact and p.coeffs == (2, 7, 1, 2)
    assert all(type(c) is int for c in p.coeffs + (-p).coeffs + p.derivative().coeffs)
    assert type(p.coefficient(9)) is int


def test_mul_matches_convolution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = [int(c) for c in rng.integers(-5, 6, size=rng.integers(1, 5))]
        b = [int(c) for c in rng.integers(-5, 6, size=rng.integers(1, 5))]
        product = Poly(a) * Poly(b)
        oracle = np.convolve(a, b)
        for power, coeff in enumerate(oracle):
            assert product.coefficient(power) == coeff


def test_add_sub_neg():
    p, q = Poly([1, 2]), Poly([3, -2])
    assert (p + q).coefficient(0) == 4
    assert (p + q).degree == 0   # the linear parts cancel
    assert (p - q).coefficient(1) == 4
    assert (-p).coefficient(1) == -2


def test_call_matches_numpy_polyval():
    coeffs = [2, -1, 0, 3]
    p = Poly(coeffs)
    for z in (0.0, 1.5, -2.0, 0.5 + 0.5j):
        assert p(z) == pytest.approx(np.polyval(coeffs[::-1], z), rel=1e-13)


def test_exact_polys_evaluate_their_coefficients_as_complex_doubles():
    p = Poly([Fraction(1, 3), -2, Fraction(5, 7)])
    assert p.exact and p.values == (complex(1 / 3), -2 + 0j, complex(5 / 7))
    z = 0.25 - 1.5j
    assert p(z) == (complex(Fraction(5, 7)) * z + complex(-2)) * z + complex(Fraction(1, 3))
    assert Poly([0.5, 1j]).values == (0.5 + 0j, 1j)


def test_derivative():
    p = Poly([5, 3, 0, 2])  # 5 + 3z + 2z^3
    assert p.derivative().coeffs == (3, 0, 6)


def test_monomial_and_one():
    assert one().degree == 0
    assert one()(7.0) == 1
    assert monomial(3).coefficient(3) == 1
    assert monomial(3).degree == 3


def test_polys_hash_and_compare_by_value():
    assert Poly([1, 2]) == Poly([1, 2, 0])
    assert hash(Poly([1, 2])) == hash(Poly([1, 2, 0]))


# -- the displayed identity ---------------------------------------------


def test_standard_identity_is_exactly_zero():
    p, q, f, g = standard_identity()
    check = poly_bezout_check(p, q, f, g)
    assert check.exact
    assert check.max_residual == 0.0


def test_identity_pieces():
    p, q, f, g = standard_identity()
    assert p.coeffs == (-1, -1, -1)
    assert q == one()
    assert f.coeffs == (-1, 1)
    assert g == monomial(3)


def test_trivial_residuals():
    zero = Poly([])
    assert poly_bezout_check(zero, zero, Poly([1, 1]), Poly([2])).max_residual == 1.0
    assert poly_bezout_check(one(), zero, one(), Poly([5, 5])).max_residual == 0.0


def test_linear_factor_vanishes_at_its_root():
    # the h = 0 candidate leaves the factor z - 1, which kills z = 1
    _, _, f, _ = standard_identity()
    assert f(1.0) == 0


# -- root finding cross-check -------------------------------------------


def bisect_root(p, lo, hi, steps=200):
    flo = p(lo).real
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        fmid = p(mid).real
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_bisection_confirms_cubic_root():
    p = Poly([-1, 1, 0, 1])  # z^3 + z - 1
    root = bisect_root(p, 0.0, 1.0)
    assert root == pytest.approx(0.6823278038280193, abs=1e-12)
    assert abs(p(root)) <= 1e-12
    numeric = np.roots([1, 0, 1, -1])
    nearest = min(numeric, key=lambda z: abs(z - root))
    assert abs(nearest - root) <= 1e-9


# -- the reducer sweep --------------------------------------------------


def test_search_finds_no_units_at_degree_three():
    report = polynomial_reducer_search(3)
    assert report.max_degree == 3
    assert report.candidates_checked == 5**4
    assert report.units_found == 0
    assert report.all_nonconstant
    assert report.max_root_residual <= 1e-9


def test_search_pins_low_coefficients():
    report = polynomial_reducer_search(2)
    assert report.fixed_low_coefficients == {0: (-1 + 0j), 1: (1 + 0j), 2: 0j}
    assert report.candidates_checked == 5**3


def test_search_with_narrow_range_and_degree():
    report = polynomial_reducer_search(0, coefficient_range=(0, 2))
    assert report.candidates_checked == 3
    assert report.units_found == 0
    assert report.all_nonconstant
    assert report.max_root_residual <= 1e-9


def test_fraction_sweep_reports_as_the_int_sweep():
    _, _, f, g = standard_identity()
    exact_f, exact_g = Poly(map(Fraction, f.coeffs)), Poly(map(Fraction, g.coeffs))
    assert all(type(c) is Fraction for c in exact_f.coeffs + exact_g.coeffs)
    ints = polynomial_reducer_search(2)
    fractions = polynomial_reducer_search(2, f=exact_f, g=exact_g)
    assert fractions == ints
    assert fractions.max_root_residual.hex() == ints.max_root_residual.hex()


def test_constant_combinations_count_as_units():
    # h = 0 leaves the nonzero constant 1, a unit.
    report = polynomial_reducer_search(1, f=one(), g=monomial(1))
    assert report.units_found == 1 and not report.all_nonconstant
    # h = -1 leaves the zero polynomial, which is constant but not a unit.
    report = polynomial_reducer_search(1, f=monomial(1), g=monomial(1))
    assert report.units_found == 0 and not report.all_nonconstant


def test_search_validates_inputs():
    with pytest.raises(InputError):
        polynomial_reducer_search(-1)
    with pytest.raises(InputError):
        polynomial_reducer_search(2, coefficient_range=(1, 0))


def test_an_overflowing_companion_matrix_is_an_input_error():
    # h = 1 leaves 1j + 5e-324j z, whose companion matrix -1j / 5e-324j overflows to inf.
    with pytest.raises(InputError, match=r"g=Poly\(\[1j, 5e-324j\]\)"):
        polynomial_reducer_search(0, Poly([]), Poly([1j, 5e-324j]), (0, 1))


# -- the batched sweep against the per-combination one ------------------


def reference_best(combination):
    """Least |p(z)| over the np.roots roots after 3 Newton steps, or None."""
    derivative = combination.derivative()
    best = None
    for root in np.roots(combination.values[::-1]):
        root = complex(root)
        for _ in range(3):
            slope = derivative(root)
            if slope == 0:
                break
            root = root - combination(root) / slope
        residual = abs(combination(root))
        if best is None or residual < best:
            best = residual
    return best


def reference_sweep(max_degree, f=None, g=None, coefficient_range=(-2, 2)):
    """The per-combination sweep: Poly arithmetic, np.roots, and 3 Newton
    steps per root in Python complex arithmetic, keeping the least residual."""
    if f is None or g is None:
        _, _, f, g = standard_identity()
    lo, hi = coefficient_range
    span, width = hi - lo + 1, max_degree + 1
    units_found, all_nonconstant, max_residual = 0, True, 0.0
    valuation = next((i for i, c in enumerate(g.coeffs) if c != 0), 0)
    pinned = {power: complex(f.coefficient(power)) for power in range(valuation)}
    for stamp in range(span**width):
        digits, rest = [], stamp
        for _ in range(width):
            digits.append(lo + rest % span)
            rest //= span
        combination = f + Poly(digits) * g
        if combination.degree < 1:
            units_found += combination.degree == 0
            all_nonconstant = False
            continue
        for power, expected in pinned.items():
            if complex(combination.coefficient(power)) != expected:
                raise InputError("low coefficients moved; shift structure violated")
        best = reference_best(combination)
        if best is None:
            all_nonconstant = False
            continue
        max_residual = max(max_residual, best)
    return ReducerSearchReport(
        max_degree=max_degree,
        candidates_checked=span**width,
        units_found=units_found,
        all_nonconstant=all_nonconstant,
        fixed_low_coefficients=pinned,
        max_root_residual=max_residual,
    )


def outcome(sweep, *args):
    """The report, or the type of the error raised, such as numpy's
    LinAlgError for a companion matrix that overflows."""
    try:
        with np.errstate(all="ignore"):
            return sweep(*args)
    except Exception as error:
        return type(error)


def assert_same_sweep(max_degree, f=None, g=None, coefficient_range=(-2, 2)):
    batched = outcome(polynomial_reducer_search, max_degree, f, g, coefficient_range)
    scalar = outcome(reference_sweep, max_degree, f, g, coefficient_range)
    if isinstance(batched, type) or isinstance(scalar, type):
        assert batched is scalar
        return batched
    for field in dataclasses.fields(ReducerSearchReport):
        if field.name == "max_root_residual":
            assert batched.max_root_residual.hex() == scalar.max_root_residual.hex()
        elif field.name == "fixed_low_coefficients":
            assert repr(batched.fixed_low_coefficients) == repr(scalar.fixed_low_coefficients)
        else:
            assert getattr(batched, field.name) == getattr(scalar, field.name), field.name
    return batched


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 4])
def test_standard_sweep_equals_the_reference(max_degree):
    report = assert_same_sweep(max_degree)
    if max_degree == 3:
        assert report.max_root_residual.hex() == (4.577566798522237e-16).hex()


@pytest.mark.parametrize("coefficient_range", [(0, 0), (0, 2), (-1, 0), (3, 3), (-3, 1), (-7, 6)])
def test_narrow_ranges_equal_the_reference(coefficient_range):
    assert_same_sweep(2, coefficient_range=coefficient_range)


def coefficient(kind):
    if kind == "int":
        return st.integers(-3, 3)
    if kind == "fraction":
        return st.fractions(-3, 3, max_denominator=4)
    return st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))


@st.composite
def polys(draw, min_size):
    kind = draw(st.sampled_from(["int", "fraction", "complex"]))
    coeffs = draw(st.lists(coefficient(kind), min_size=min_size, max_size=4))
    return Poly([0] * draw(st.integers(0, 2)) + coeffs)  # zero low terms: zero roots


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f=polys(1), g=polys(0), max_degree=st.integers(0, 2), lo=st.integers(-2, 1), count=st.integers(1, 3))
def test_drawn_sweeps_equal_the_reference(f, g, max_degree, lo, count):
    assert_same_sweep(max_degree, f, g, (lo, lo + count - 1))


def test_mixed_and_big_coefficients_equal_the_reference():
    assert_same_sweep(2, Poly([Fraction(1, 3), 2, -1]), Poly([0, Fraction(2, 5), 1]))
    assert_same_sweep(2, Poly([1 + 2j, 0.5, -1]), Poly([0, 2j, 1]))
    assert_same_sweep(2, Poly([3, -1]), Poly([0, 0.5 - 0.0j]))  # exact f, complex g
    assert_same_sweep(2, Poly([10**30, 1]), Poly([0, 1]))  # past int64
    assert_same_sweep(1, Poly([1, 2]), Poly([]))  # g = 0: every combination is f
    assert_same_sweep(1, Poly([0, 0, 1]), Poly([0, 1]), (-1, 1))  # zero roots only
    # h = 0 keeps f exact: its tiny top coefficient is no zero there, but is as a double.
    assert_same_sweep(0, Poly([1, Fraction(1, 10**400)]), Poly([0.5j]), (0, 1))


def test_units_and_zero_combinations_equal_the_reference():
    # With f = 2 and g = -1, a constant h = h0 leaves 2 - h0: a unit unless h0 = 2.
    report = assert_same_sweep(2, Poly([2]), Poly([-1]), (-1, 2))
    assert report.units_found == 3 and not report.all_nonconstant
    report = assert_same_sweep(1, Poly([Fraction(1, 2)]), Poly([0.5j]), (-1, 1))
    assert report.units_found == 3 and not report.all_nonconstant


def test_unpinned_g_equals_the_reference():
    # g of valuation 0 feeds the constant term too: nothing is pinned.
    for g in (Poly([1, 1]), Poly([2, 0, 1]), Poly([Fraction(1, 2), -1])):
        report = assert_same_sweep(2, Poly([-1, 1]), g)
        assert report.fixed_low_coefficients == {}


def batched_bests(combinations):
    """``_best_residuals`` on one row per combination."""
    width = max(len(c.values) for c in combinations)
    values = np.array([c.values + (0j,) * (width - len(c.values)) for c in combinations])
    slopes = np.array([c.derivative().values + (0j,) * (width - len(c.values)) for c in combinations])
    degree = np.array([c.degree for c in combinations])
    top = np.array([max(i for i, v in enumerate(c.values) if v != 0) for c in combinations])
    with np.errstate(all="ignore"):
        return _best_residuals(values, slopes, degree, top)


def test_per_combination_residuals_equal_the_reference():
    _, _, f, g = standard_identity()
    combinations = [f + Poly(list(h)) * g for h in itertools.product(range(-2, 3), repeat=4)]
    assert [b.hex() for b in batched_bests(combinations)] == [
        reference_best(c).hex() for c in combinations
    ]
    rng = np.random.default_rng(15)
    drawn = [
        Poly([0] * int(rng.integers(0, 3)) + list(rng.normal(size=n) + 1j * rng.normal(size=n)))
        for n in rng.integers(2, 8, size=300)
    ]
    assert [b.hex() for b in batched_bests(drawn)] == [reference_best(c).hex() for c in drawn]


def test_moved_low_coefficients_raise_in_both():
    f, g = Poly([math.nan, 1]), monomial(3)
    with pytest.raises(InputError, match="low coefficients moved"):
        polynomial_reducer_search(1, f, g)
    with pytest.raises(InputError, match="low coefficients moved"):
        reference_sweep(1, f, g)


def sweep_peak(max_degree):
    tracemalloc.start()
    try:
        polynomial_reducer_search(max_degree)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_is_flat_in_the_degree():
    polynomial_reducer_search(1)  # first-call allocations stay out of the peaks
    assert sweep_peak(5) <= 2 * sweep_peak(3)
