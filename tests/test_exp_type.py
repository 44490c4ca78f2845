"""Polynomial model: exact Bezout identity and the reducer sweep."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

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


def doubles(p):
    """p's coefficients as complex doubles."""
    return tuple(map(complex, p.coeffs))


def horner(p, z):
    """p(z) in Python complex arithmetic on p's complex double coefficients."""
    value = complex(0)
    for c in reversed(doubles(p)):
        value = value * z + c
    return value


def derivative(p):
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


# -- polynomial arithmetic ----------------------------------------------


def test_construction_strips_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).coeffs == ()
    assert Poly([]).coeffs == ()


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
    assert all(type(c) is int for c in p.coeffs)
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
    assert (p + q).coeffs == (4,)   # the linear parts cancel
    assert (p - q).coefficient(1) == 4


def test_exact_polys_evaluate_their_coefficients_as_complex_doubles():
    p = Poly([Fraction(1, 3), -2, Fraction(5, 7)])
    assert p.exact and doubles(p) == (complex(1 / 3), -2 + 0j, complex(5 / 7))
    z = 0.25 - 1.5j
    assert horner(p, z) == (complex(Fraction(5, 7)) * z + complex(-2)) * z + complex(Fraction(1, 3))
    assert Poly([0.5, 1j]).coeffs == (0.5 + 0j, 1j)


def test_monomial_and_one():
    assert one().coeffs == (1,)
    assert monomial(3).coefficient(3) == 1
    assert monomial(3).coeffs == (0, 0, 0, 1)


# -- the displayed identity ---------------------------------------------


def test_standard_identity_is_exactly_zero():
    p, q, f, g = standard_identity()
    check = poly_bezout_check(p, q, f, g)
    assert check.exact
    assert check.max_residual == 0.0


def test_identity_pieces():
    p, q, f, g = standard_identity()
    assert p.coeffs == (-1, -1, -1)
    assert q.coeffs == one().coeffs == (1,)
    assert f.coeffs == (-1, 1)
    assert g.coeffs == monomial(3).coeffs


def test_trivial_residuals():
    zero = Poly([])
    assert poly_bezout_check(zero, zero, Poly([1, 1]), Poly([2])).max_residual == 1.0
    assert poly_bezout_check(one(), zero, one(), Poly([5, 5])).max_residual == 0.0


def test_linear_factor_vanishes_at_its_root():
    # the h = 0 candidate leaves the factor z - 1, which kills z = 1
    _, _, f, _ = standard_identity()
    assert horner(f, 1.0) == 0


# -- root finding cross-check -------------------------------------------


def bisect_root(p, lo, hi, steps=200):
    flo = horner(p, lo).real
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        fmid = horner(p, mid).real
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_bisection_confirms_cubic_root():
    p = Poly([-1, 1, 0, 1])  # z^3 + z - 1
    root = bisect_root(p, 0.0, 1.0)
    assert root == pytest.approx(0.6823278038280193, abs=1e-12)
    assert abs(horner(p, root)) <= 1e-12
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


@pytest.mark.parametrize("max_degree, residual", [
    (0, "0x1.0000000000000p-53"),
    (1, "0x1.4000000000000p-52"),
    (2, "0x1.4000000000000p-52"),
    (3, "0x1.07e0f66afed07p-51"),
    (4, "0x1.07e0f66afed07p-51"),
    (5, "0x1.11687a8ae14a3p-51"),
])
def test_sweep_report_bits_are_pinned(max_degree, residual):
    report = polynomial_reducer_search(max_degree)
    assert report.candidates_checked == 5 ** (max_degree + 1)
    assert report.units_found == 0
    assert report.all_nonconstant
    assert repr(report.fixed_low_coefficients) == repr({0: -1 + 0j, 1: 1 + 0j, 2: 0j})
    assert report.max_root_residual.hex() == residual


def test_search_validates_inputs():
    with pytest.raises(InputError):
        polynomial_reducer_search(-1)


# -- the batched sweep against the per-combination one ------------------


def reference_best(combination):
    """Least |p(z)| over the np.roots roots after 3 Newton steps, or None."""
    slope_poly = derivative(combination)
    best = None
    for root in np.roots(doubles(combination)[::-1]):
        root = complex(root)
        for _ in range(3):
            slope = horner(slope_poly, root)
            if slope == 0:
                break
            root = root - horner(combination, root) / slope
        residual = abs(horner(combination, root))
        if best is None or residual < best:
            best = residual
    return best


def reference_sweep(max_degree):
    """The per-combination sweep of the standard pair: Poly arithmetic, np.roots,
    and 3 Newton steps per root in Python complex arithmetic, keeping the least
    residual."""
    _, _, f, g = standard_identity()
    width = max_degree + 1
    units_found, all_nonconstant, max_residual = 0, True, 0.0
    pinned = {power: complex(f.coefficient(power)) for power in range(3)}
    for stamp in range(5**width):
        digits, rest = [], stamp
        for _ in range(width):
            digits.append(rest % 5 - 2)
            rest //= 5
        combination = f + Poly(digits) * g
        degree = len(combination.coeffs) - 1
        if degree < 1:
            units_found += degree == 0
            all_nonconstant = False
            continue
        assert {power: complex(combination.coefficient(power)) for power in pinned} == pinned
        best = reference_best(combination)
        if best is None:
            all_nonconstant = False
            continue
        max_residual = max(max_residual, best)
    return ReducerSearchReport(
        max_degree=max_degree,
        candidates_checked=5**width,
        units_found=units_found,
        all_nonconstant=all_nonconstant,
        fixed_low_coefficients=pinned,
        max_root_residual=max_residual,
    )


def assert_same_sweep(max_degree):
    batched = polynomial_reducer_search(max_degree)
    scalar = reference_sweep(max_degree)
    for field in dataclasses.fields(ReducerSearchReport):
        if field.name == "max_root_residual":
            assert batched.max_root_residual.hex() == scalar.max_root_residual.hex()
        elif field.name == "fixed_low_coefficients":
            assert repr(batched.fixed_low_coefficients) == repr(scalar.fixed_low_coefficients)
        else:
            assert getattr(batched, field.name) == getattr(scalar, field.name), field.name


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 4])
def test_standard_sweep_equals_the_reference(max_degree):
    assert_same_sweep(max_degree)


def batched_bests(combinations):
    """``_best_residuals`` on one row per combination."""
    width = max(len(c.coeffs) for c in combinations)
    values = np.array([doubles(c) + (0j,) * (width - len(c.coeffs)) for c in combinations])
    slopes = np.array([doubles(derivative(c)) + (0j,) * (width - len(c.coeffs)) for c in combinations])
    degree = np.array([len(c.coeffs) - 1 for c in combinations])
    with np.errstate(all="ignore"):
        return _best_residuals(values, slopes, degree)


def test_per_combination_residuals_equal_the_reference():
    _, _, f, g = standard_identity()
    combinations = [f + Poly(list(h)) * g for h in itertools.product(range(-2, 3), repeat=4)]
    assert [b.hex() for b in batched_bests(combinations)] == [
        reference_best(c).hex() for c in combinations
    ]
    rng = np.random.default_rng(15)
    drawn = [Poly(list(rng.normal(size=n) + 1j * rng.normal(size=n))) for n in rng.integers(2, 8, size=300)]
    assert [b.hex() for b in batched_bests(drawn)] == [reference_best(c).hex() for c in drawn]


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
