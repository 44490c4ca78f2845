"""Bridge between lattice coefficient sequences and periodic functions.

A full-rank period matrix A (rows are the transposed period vectors)
fixes the geometry.  Frequencies live on the dual lattice: the dual point
of an integer index m is v = A^{-1} m, which pairs integrally with every
period row.  Sampling a periodic function on the fractional grid
x_j = A^T (j / N), j in [0, N)^d, turns coefficient extraction into a
plain d-dimensional DFT with the forward 1/N^d normalisation:

    coeff(m) = (1/N^d) * sum_j samples[j] * exp(-2*pi*i * m.j / N)

reported on the centred index window [-floor(N/2), ceil(N/2) - 1]^d.
Frequencies at or beyond the Nyquist index alias; keeping the spectrum
inside the window is the caller's responsibility.  Synthesis is the
finite sum of exp(2*pi*i * (A^{-1} m) . x) weighted by the coefficients,
and is invariant under translation by any period vector.

Names are imported from this module (``from periodist.fourier import
synthesize``); the package re-exports none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import InputError
from .lattice import LatticeIndex, norm1
from .sequences import GrowthCertificate

NORMALIZATION = "forward-1/N^d"
ALIASING_NOTE = "frequencies outside the centred window alias; caller keeps spectra inside"

# A period matrix with |det| below this is rejected as numerically singular.
_DET_TOL = 1e-9


class PeriodBasis:
    """Invertible period matrix with its validated inverse.

    The entries must be finite, the determinant must stay away from zero
    (|det| >= 1e-9) and within the double range, and the computed inverse
    must reproduce the identity to 1e-12 per entry, otherwise the basis is
    rejected.
    """

    def __init__(self, matrix):
        array = np.asarray(matrix, dtype=float)
        if array.ndim != 2 or array.shape[0] != array.shape[1] or array.shape[0] < 1:
            raise InputError("period matrix must be square and non-empty")
        if not np.isfinite(array).all():
            raise InputError("period matrix entries must be finite")
        # Past the double range a determinant or residual is inf or NaN, and rejected below.
        with np.errstate(over="ignore", invalid="ignore"):
            det = float(np.linalg.det(array))
            if not math.isfinite(det):
                raise InputError("period matrix determinant passes the double range")
            if abs(det) < _DET_TOL:
                raise InputError(f"period matrix is numerically singular (|det| = {abs(det):.3e})")
            inverse = np.linalg.inv(array)
            residual = float(np.abs(array @ inverse - np.eye(array.shape[0])).max())
        if not residual <= 1e-12:
            raise InputError(
                f"period matrix inverse residual {residual:.3e} exceeds 1e-12"
            )
        array.setflags(write=False)
        inverse.setflags(write=False)
        self.matrix = array
        self.inverse = inverse
        self.dimension = array.shape[0]
        self.det = det

    def __repr__(self):
        return f"PeriodBasis({self.matrix.tolist()})"


def sample_grid(basis: PeriodBasis, count: int) -> np.ndarray:
    """Sampling points x_j = A^T (j / count), shape (count,)*d + (d,)."""
    ex.AT_LEAST_ONE.check(count, "count")
    d = basis.dimension
    axes = [np.arange(count, dtype=float) / count] * d
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return mesh @ basis.matrix  # (A^T j/N)_a = sum_b A[b, a] j_b / N


@dataclass(frozen=True)
class CoefficientMap(ex.Ranged):
    """Finitely stored coefficient sequence with a growth certificate."""

    coeffs: dict[LatticeIndex, complex]
    dimension: int = ex.ranged(ex.AT_LEAST_ONE)
    cert: GrowthCertificate

    def __post_init__(self):
        super().__post_init__()
        for index in self.coeffs:
            if len(index) != self.dimension:
                raise InputError("coefficient index has the wrong dimension")

    @staticmethod
    def from_dict(coeffs: dict[LatticeIndex, complex], dimension: int) -> "CoefficientMap":
        clean = {
            tuple(int(c) for c in k): complex(v) for k, v in coeffs.items()
        }
        return CoefficientMap(clean, dimension, _modulus_cert(clean.values()))

    def items_in_scan_order(self):
        return sorted(self.coeffs.items(), key=lambda kv: (norm1(kv[0]), kv[0]))

    def to_json(self) -> dict:
        items = self.items_in_scan_order()
        pairs = np.array([value for _, value in items], dtype=np.complex128).view(np.float64).reshape(-1, 2)
        return {
            "dimension": self.dimension,
            "coeffs": dict(zip([",".join(map(str, index)) for index, _ in items], pairs.tolist())),
            "cert": {"M": self.cert.M, "k": self.cert.k},
        }

    @staticmethod
    def from_json(obj, path: str = "coefficient map") -> "CoefficientMap":
        """Parse ``{"dimension": d, "coeffs": {"m1,...,md": [re, im]}}``, naming paths below ``path``;
        a "cert", as ``to_json`` writes it, is composed again from the values."""
        obj = ex._object(obj, path)
        ex._known(obj, ("dimension", "coeffs", "cert"), path)
        dimension = ex._integer(obj, "dimension", path, 1, ex._ranges(CoefficientMap)["dimension"])
        where = ex._at(path, "coeffs")
        coeffs = {
            ex._index(key, ex._at(where, key), dimension): ex._complex(value, ex._at(where, key))
            for key, value in ex._object(ex._expect(obj, "coeffs", path), where).items()
        }
        return CoefficientMap.from_dict(coeffs, dimension)


def _modulus_cert(values) -> GrowthCertificate:
    """(M, 0) with M the largest modulus, or 1 when none is positive; inf where a modulus
    is NaN, or passes the double range and abs raises."""
    try:
        moduli = list(map(abs, values))
    except OverflowError:
        return GrowthCertificate(math.inf, 0)
    # max() of a list holding NaN depends on where the NaN stands.
    top = math.inf if any(map(math.isnan, moduli)) else max(moduli, default=1.0)
    return GrowthCertificate(top if top > 0 else 1.0, 0)


def centred_window(count: int) -> tuple[int, int]:
    """Inclusive index range [-floor(N/2), ceil(N/2) - 1] per axis."""
    return (-(count // 2), (count + 1) // 2 - 1)


def coeffs_from_samples(basis: PeriodBasis, samples) -> CoefficientMap:
    """Coefficients of a trig polynomial from its values on the sampling grid.

    `samples` must be a cubic complex array of shape (N,)*d holding the
    function values at x_j = A^T (j/N) in row-major j order.
    """
    array = np.asarray(samples, dtype=np.complex128)
    d = basis.dimension
    if array.ndim != d:
        raise InputError(f"samples must be {d}-dimensional for this basis")
    count = array.shape[0]
    if any(s != count for s in array.shape):
        raise InputError("samples must be a cubic array (equal length per axis)")
    # Finite samples near the double range may overflow to inf, and inf - inf to NaN;
    # _modulus_cert then makes M inf.
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fftn(array) / float(count**d)
    # Row-major grid indices, shifted past the window's top into the negatives.
    index = np.indices(array.shape).reshape(d, -1)
    index[index > centred_window(count)[1]] -= count
    values = spectrum.ravel().tolist()
    return CoefficientMap(dict(zip(zip(*index.tolist()), values)), d, _modulus_cert(values))


def synthesize(basis: PeriodBasis, coeffs: CoefficientMap, x):
    """Finite sum of coefficients times exp(2*pi*i * (A^{-1} m) . x).

    Accepts a single point (shape (d,)) returning a complex value, or a
    stack of points (shape (count, d)) returning a complex array.
    Invariant under adding any period vector to x.  A point must be finite,
    and so must each phase 2*pi*i * (A^{-1} m) . x.
    """
    if coeffs.dimension != basis.dimension:
        raise InputError("coefficient map and basis dimensions differ")
    points = np.asarray(x, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    if points.ndim != 2 or points.shape[1] != basis.dimension:
        raise InputError("evaluation points must have the basis dimension")
    if not np.isfinite(points).all():
        raise InputError("evaluation points must be finite")
    items = coeffs.items_in_scan_order()
    if not items:
        values = np.zeros(points.shape[0], dtype=np.complex128)
        return complex(values[0]) if single else values
    indices = np.array([index for index, _ in items], dtype=float)
    alphas = np.array([value for _, value in items], dtype=np.complex128)
    duals = basis.inverse @ indices.T  # shape (d, count_m)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = 2j * math.pi * (points @ duals)
    if not np.isfinite(angles).all():
        raise InputError("a phase of the evaluation points passes the double range")
    phases = np.exp(angles)
    values = phases @ alphas
    return complex(values[0]) if single else values
