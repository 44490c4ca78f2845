"""Polynomial model: exact Bezout identity and the reducer sweep."""

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from periodist.errors import InputError
from periodist.exp_type import (
    ReducerSearchReport,
    _best_residuals,
    poly_bezout_check,
    polynomial_reducer_search,
    standard_identity,
)


def horner(p, z):
    """p(z) in Python complex arithmetic on p's coefficients as complex doubles."""
    value = complex(0)
    for c in reversed(p):
        value = value * z + complex(c)
    return value


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def stripped(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def plus(a, b):
    """a + b without trailing zeros."""
    return stripped(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


# -- exact coefficient arithmetic ---------------------------------------


def test_residual_strips_trailing_zeros():
    # (1 + 2z) * 1 + 0 * z^5 - 1 = 2z, however many zeros the inputs carry
    assert poly_bezout_check([1, 2, 0, 0], [0], [1], [0, 0, 0, 0, 0, 1]).residual == (0, 2)
    assert poly_bezout_check([1, 0], [0, 0], [1], [1]).residual == ()
    assert poly_bezout_check([], [], [], []).residual == (-1,)


def test_exact_fraction_arithmetic():
    check = poly_bezout_check([Fraction(1, 3)], [0], [0, 3], [0])
    assert check.residual == (-1, 1)
    assert type(check.residual[1]) is Fraction
    assert check.exact and check.max_residual == 1.0
    assert poly_bezout_check([Fraction(1, 2)], [1], [2], [0]).residual == ()


def test_int_inputs_stay_ints():
    # (3 - z + 2z^2)(1 + z) + 5z - 1
    check = poly_bezout_check([3, -1, 2], [0, 5], [1, 1], [1])
    assert check.exact and check.residual == (2, 7, 1, 2)
    assert all(type(c) is int for c in check.residual)


def test_inexact_inputs_are_not_exact_and_keep_their_modulus():
    check = poly_bezout_check([0.5], [0], [3.0], [0])
    assert check.residual == (0.5,) and type(check.residual[0]) is float
    assert not check.exact and check.max_residual == 0.5
    check = poly_bezout_check([0.5], [1j], [2.0], [1])
    assert check.residual == (1j,) and not check.exact and check.max_residual == 1.0
    cancelled = poly_bezout_check([0.5], [0], [2.0], [0])  # 1.0 - 1 leaves 0.0, stripped
    assert cancelled.residual == () and not cancelled.exact and cancelled.max_residual == 0.0


def test_mul_matches_convolution_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = [int(c) for c in rng.integers(-5, 6, size=rng.integers(1, 5))]
        b = [int(c) for c in rng.integers(-5, 6, size=rng.integers(1, 5))]
        # a*b + 1*1 - 1 is the product itself
        assert poly_bezout_check(a, [1], b, [1]).residual == tuple(stripped(np.convolve(a, b).tolist()))


# -- the displayed identity ---------------------------------------------


def test_standard_identity_is_exactly_zero():
    p, q, f, g = standard_identity()
    check = poly_bezout_check(p, q, f, g)
    assert check.exact
    assert check.max_residual == 0.0


def test_identity_pieces():
    p, q, f, g = standard_identity()
    assert (p, q, f, g) == ((-1, -1, -1), (1,), (-1, 1), (0, 0, 0, 1))
    assert all(type(c) is int for c in p + q + f + g)


def test_trivial_residuals():
    assert poly_bezout_check((), (), (1, 1), (2,)).max_residual == 1.0
    assert poly_bezout_check((1,), (), (1,), (5, 5)).max_residual == 0.0


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
    p = [-1, 1, 0, 1]  # z^3 + z - 1
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
    for root in np.roots([complex(c) for c in reversed(combination)]):
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
    """The per-combination sweep of the standard pair: coefficient lists, np.roots,
    and 3 Newton steps per root in Python complex arithmetic, keeping the least
    residual."""
    _, _, f, g = standard_identity()
    width = max_degree + 1
    units_found, all_nonconstant, max_residual = 0, True, 0.0
    pinned = {power: complex(c) for power, c in enumerate(list(f) + [0])}
    for stamp in range(5**width):
        digits, rest = [], stamp
        for _ in range(width):
            digits.append(rest % 5 - 2)
            rest //= 5
        combination = plus(f, product(digits, g))
        degree = len(combination) - 1
        if degree < 1:
            units_found += degree == 0
            all_nonconstant = False
            continue
        assert {power: complex(c) for power, c in enumerate((combination + [0])[:3])} == pinned
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
    width = max(len(c) for c in combinations)
    values = np.array([[complex(x) for x in c] + [0j] * (width - len(c)) for c in combinations])
    slopes = np.array([[complex(x) for x in derivative(c)] + [0j] * (width - len(c)) for c in combinations])
    degree = np.array([len(c) - 1 for c in combinations])
    with np.errstate(all="ignore"):
        return _best_residuals(values, slopes, degree)


def test_per_combination_residuals_equal_the_reference():
    _, _, f, g = standard_identity()
    combinations = [plus(f, product(h, g)) for h in itertools.product(range(-2, 3), repeat=4)]
    assert [b.hex() for b in batched_bests(combinations)] == [
        reference_best(c).hex() for c in combinations
    ]
    rng = np.random.default_rng(15)
    drawn = [(rng.normal(size=n) + 1j * rng.normal(size=n)).tolist() for n in rng.integers(2, 8, size=300)]
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
