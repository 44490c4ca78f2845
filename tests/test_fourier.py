"""Coefficient extraction and synthesis on nonorthogonal period lattices."""

import cmath
import itertools
import random

import numpy as np
import pytest

from periodist.errors import InputError
from periodist.fourier import (
    ALIASING_NOTE,
    NORMALIZATION,
    CoefficientMap,
    PeriodBasis,
    centred_window,
    coeffs_from_samples,
    sample_grid,
    synthesize,
)


def dft_oracle(samples):
    """Direct double-loop DFT with the forward 1/N^d normalisation."""
    array = np.asarray(samples, dtype=complex)
    count = array.shape[0]
    d = array.ndim
    hi = (count + 1) // 2 - 1
    out = {}
    for m in itertools.product(range(count), repeat=d):
        total = 0j
        for j in itertools.product(range(count), repeat=d):
            turn = sum(mi * ji for mi, ji in zip(m, j)) / count
            total += array[j] * cmath.exp(-2j * cmath.pi * turn)
        centred = tuple(i if i <= hi else i - count for i in m)
        out[centred] = total / count**d
    return out


# -- bases and sampling grids -------------------------------------------


def test_basis_validation():
    with pytest.raises(InputError):
        PeriodBasis([[1.0, 0.0]])
    with pytest.raises(InputError):
        PeriodBasis([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(InputError):
        PeriodBasis([[1e-12]])
    basis = PeriodBasis([[2.0, 0.0], [0.0, 1.0]])
    assert basis.dimension == 2
    assert basis.det == pytest.approx(2.0)
    with pytest.raises(ValueError):
        basis.matrix[0, 0] = 5.0


def test_sample_grid_unit_interval():
    basis = PeriodBasis([[1.0]])
    grid = sample_grid(basis, 4)
    assert grid.shape == (4, 1)
    assert grid[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]


def test_sample_grid_shear():
    basis = PeriodBasis([[1.0, 0.0], [1.0, 1.0]])
    grid = sample_grid(basis, 2)
    assert grid.shape == (2, 2, 2)
    # j = (0,1) -> (j/N) @ A = (1/2, 1/2)
    assert grid[0, 1].tolist() == [0.5, 0.5]


def test_centred_window():
    assert centred_window(8) == (-4, 3)
    assert centred_window(5) == (-2, 2)
    assert centred_window(1) == (0, 0)


# -- coefficient extraction ---------------------------------------------


def test_constant_function_has_single_coefficient():
    basis = PeriodBasis([[1.0]])
    coeffs = coeffs_from_samples(basis, np.ones(6, dtype=complex))
    for index, value in coeffs.coeffs.items():
        target = 1.0 if index == (0,) else 0.0
        assert abs(value - target) <= 1e-14


def test_pure_tone_lands_on_its_index():
    basis = PeriodBasis([[1.0]])
    xs = sample_grid(basis, 8)[:, 0]
    coeffs = coeffs_from_samples(basis, np.exp(2j * np.pi * xs))
    assert abs(coeffs.coeffs[(1,)] - 1.0) <= 1e-13
    others = [v for k, v in coeffs.coeffs.items() if k != (1,)]
    assert max(abs(v) for v in others) <= 1e-13


def test_cosine_splits_evenly():
    basis = PeriodBasis([[1.0]])
    xs = sample_grid(basis, 8)[:, 0]
    coeffs = coeffs_from_samples(basis, np.cos(2 * np.pi * xs).astype(complex))
    assert abs(coeffs.coeffs[(1,)] - 0.5) <= 1e-13
    assert abs(coeffs.coeffs[(-1,)] - 0.5) <= 1e-13


@pytest.mark.parametrize("d,count", [(1, 5), (1, 8), (2, 4)])
def test_coeffs_match_direct_dft(d, count):
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(count,) * d) + 1j * rng.normal(size=(count,) * d)
    basis = PeriodBasis(np.eye(d))
    coeffs = coeffs_from_samples(basis, samples)
    oracle = dft_oracle(samples)
    assert set(coeffs.coeffs) == set(oracle)
    scale = max(abs(v) for v in oracle.values()) + 1.0
    for index, value in oracle.items():
        assert abs(coeffs.coeffs[index] - value) <= 1e-12 * scale


def ndindex_coeffs(samples):
    """The per-entry map: a centred index tuple and a complex per grid point."""
    array = np.asarray(samples, dtype=complex)
    count, d = array.shape[0], array.ndim
    spectrum = np.fft.fftn(array) / float(count**d)
    _, hi = centred_window(count)
    coeffs = {}
    for index in np.ndindex(*array.shape):
        coeffs[tuple(i if i <= hi else i - count for i in index)] = complex(spectrum[index])
    return CoefficientMap.from_dict(coeffs, d)


@pytest.mark.parametrize("d,count", [(1, 1), (1, 7), (1, 8), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_coeffs_equal_the_ndindex_loop(d, count):
    rng = np.random.default_rng(count * 10 + d)
    samples = rng.normal(size=(count,) * d) + 1j * rng.normal(size=(count,) * d)
    samples.flat[0] = -0.0  # a signed zero must come through as it is
    batched = coeffs_from_samples(PeriodBasis(np.eye(d)), samples)
    loop = ndindex_coeffs(samples)
    assert list(batched.coeffs) == list(loop.coeffs)
    assert all(type(c) is int for index in batched.coeffs for c in index)
    assert [v.hex() for z in batched.coeffs.values() for v in (z.real, z.imag)] == [
        v.hex() for z in loop.coeffs.values() for v in (z.real, z.imag)
    ]
    assert batched.cert == loop.cert and batched.cert.M.hex() == loop.cert.M.hex()
    assert batched.to_json() == loop.to_json()
    assert batched.items_in_scan_order() == sorted(
        loop.coeffs.items(), key=lambda kv: (sum(abs(c) for c in kv[0]), kv[0])
    )


def test_zero_spectrum_keeps_the_unit_certificate():
    coeffs = coeffs_from_samples(PeriodBasis(np.eye(2)), np.zeros((3, 3), dtype=complex))
    assert coeffs.cert == ndindex_coeffs(np.zeros((3, 3))).cert
    assert (coeffs.cert.M, coeffs.cert.k) == (1.0, 0)
    # Otherwise M is the largest modulus, and inf where one passes the double range.
    assert CoefficientMap.from_dict({(4,): 3.0, (0,): 1.0}, 1).cert.M == 3.0
    huge = CoefficientMap.from_dict({(1,): complex(1.5e308, 1.5e308), (0,): 1.0}, 1)
    assert huge.cert.M == float("inf")


@pytest.mark.filterwarnings("error")
def test_a_non_finite_period_matrix_is_rejected_before_det():
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError, match="period matrix entries must be finite"):
            PeriodBasis([[1.0, 0.0], [0.0, bad]])


@pytest.mark.parametrize("values", [[np.nan, 1.0], [1.0, np.nan], [complex(0, np.nan), 2.0]])
def test_a_nan_modulus_makes_the_certificate_infinite(values):
    coeffs = dict(zip([(0,), (1,)], values))
    assert CoefficientMap.from_dict(coeffs, 1).cert.M == float("inf")


@pytest.mark.filterwarnings("error")
def test_samples_whose_spectrum_overflows_give_an_infinite_certificate_without_a_warning():
    coeffs = coeffs_from_samples(PeriodBasis([[1.0]]), [1e308, 1e308j, -1e308, 1e308])
    assert not all(np.isfinite(list(coeffs.coeffs.values())))
    assert coeffs.cert.M == float("inf")


def test_samples_must_be_cubic():
    basis = PeriodBasis(np.eye(2))
    with pytest.raises(InputError):
        coeffs_from_samples(basis, np.ones((4, 3), dtype=complex))
    with pytest.raises(InputError):
        coeffs_from_samples(basis, np.ones(4, dtype=complex))


# -- synthesis ----------------------------------------------------------


def test_single_zero_coefficient_synthesizes_constant():
    basis = PeriodBasis([[1.0]])
    coeffs = CoefficientMap.from_dict({(0,): 1.0}, 1)
    for x in (0.0, 0.3, -1.7):
        assert synthesize(basis, coeffs, (x,)) == pytest.approx(1.0, abs=1e-15)


def test_round_trip_on_random_trig_polynomials():
    rng = random.Random(19)
    np_rng = np.random.default_rng(19)
    for _ in range(10):
        d = rng.choice([1, 2])
        matrix = np.eye(d) + 0.2 * np_rng.normal(size=(d, d))
        if abs(np.linalg.det(matrix)) < 0.3:
            continue
        basis = PeriodBasis(matrix)
        count = 8
        stored = {}
        for _ in range(rng.randint(1, 6)):
            index = tuple(rng.randint(-3, 3) for _ in range(d))
            stored[index] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        coeffs = CoefficientMap.from_dict(stored, d)
        grid = sample_grid(basis, count).reshape(-1, d)
        samples = synthesize(basis, coeffs, grid).reshape((count,) * d)
        back = coeffs_from_samples(basis, samples)
        for index, value in stored.items():
            assert abs(back.coeffs[index] - value) <= 1e-12
        extras = [v for k, v in back.coeffs.items() if k not in stored]
        if extras:
            assert max(abs(v) for v in extras) <= 1e-12


def test_translation_by_periods_is_invisible():
    basis = PeriodBasis([[1.0, 0.0], [0.5, 1.0]])
    coeffs = CoefficientMap.from_dict({(1, 0): 1.0, (0, 2): 0.5, (-1, 1): 0.25j}, 2)
    rng = np.random.default_rng(23)
    xs = rng.uniform(-2, 2, size=(50, 2))
    base = synthesize(basis, coeffs, xs)
    for row in basis.matrix:
        shifted = synthesize(basis, coeffs, xs + row)
        assert np.abs(shifted - base).max() <= 1e-10


def test_synthesize_single_point_matches_stack():
    basis = PeriodBasis([[1.0]])
    coeffs = CoefficientMap.from_dict({(1,): 1.0, (-2,): 0.5}, 1)
    stack = synthesize(basis, coeffs, np.array([[0.3], [0.4]]))
    assert synthesize(basis, coeffs, (0.3,)) == stack[0]
    assert isinstance(synthesize(basis, coeffs, (0.3,)), complex)


def test_empty_map_synthesizes_zero():
    basis = PeriodBasis([[1.0]])
    coeffs = CoefficientMap.from_dict({}, 1)
    assert synthesize(basis, coeffs, (0.2,)) == 0.0


# -- coefficient maps ---------------------------------------------------


def test_coefficient_map_json_round_trip():
    coeffs = CoefficientMap.from_dict({(1, -2): 1.5 + 0.5j, (0, 0): -1.0}, 2)
    wire = coeffs.to_json()
    back = CoefficientMap.from_json(wire)
    assert back.coeffs == coeffs.coeffs
    assert back.to_json() == wire
    with pytest.raises(InputError):
        CoefficientMap.from_json({"coeffs": {"a,b": [1.0, 0.0]}})
    with pytest.raises(InputError):
        CoefficientMap.from_json({"coeffs": {"1": [1.0]}})


def test_metadata_strings_exist():
    assert NORMALIZATION == "forward-1/N^d"
    assert "alias" in ALIASING_NOTE
