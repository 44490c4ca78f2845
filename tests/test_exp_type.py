"""Polynomial model: exact Bezout identity and the reducer sweep."""

from fractions import Fraction

import numpy as np
import pytest

from periodist.errors import InputError
from periodist.exp_type import (
    Poly,
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
