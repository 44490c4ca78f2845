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
and is invariant under translation by any period vector.  A coefficient
map stores no growth certificate: its certificate (M, 0) is composed from
its values whenever it is read, with M the largest modulus; one claimed
beside them on the wire must be implied by it (M at least theirs).

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
    """Finitely stored coefficient sequence; its growth certificate is composed from its values."""

    coeffs: dict[LatticeIndex, complex]
    dimension: int = ex.ranged(ex.AT_LEAST_ONE)

    def __post_init__(self):
        super().__post_init__()
        for index in self.coeffs:
            if len(index) != self.dimension:
                raise InputError("coefficient index has the wrong dimension")

    @property
    def cert(self) -> GrowthCertificate:
        # Each modulus by Const's rule.  max() of a list holding NaN depends on where the NaN stands.
        moduli = list(map(ex._modulus, self.coeffs.values()))
        top = math.inf if any(map(math.isnan, moduli)) else max(moduli, default=1.0)
        return GrowthCertificate(top if top > 0 else 1.0, 0)

    @staticmethod
    def from_dict(coeffs: dict[LatticeIndex, complex], dimension: int) -> "CoefficientMap":
        return CoefficientMap({tuple(int(c) for c in k): complex(v) for k, v in coeffs.items()}, dimension)

    def items_in_scan_order(self):
        return sorted(self.coeffs.items(), key=lambda kv: (norm1(kv[0]), kv[0]))

    def to_json(self) -> dict:
        items = self.items_in_scan_order()
        pairs = np.array([value for _, value in items], dtype=np.complex128).view(np.float64).reshape(-1, 2)
        return {
            "dimension": self.dimension,
            "coeffs": dict(zip([",".join(map(str, index)) for index, _ in items], pairs.tolist())),
            "cert": ex._write_fields(self.cert),
        }

    @staticmethod
    def from_json(obj, path: str = "coefficient map") -> "CoefficientMap":
        """Parse ``{"dimension": d, "coeffs": {"m1,...,md": [re, im]}}``, naming paths below ``path``;
        a claimed "cert" (as ``to_json`` writes it) must be implied by the values' own: M at least theirs."""
        obj = ex._object(obj, path)
        ex._known(obj, ("dimension", "coeffs", "cert"), path)
        dimension = ex._integer(obj, "dimension", path, 1, ex._ranges(CoefficientMap)["dimension"])
        where = ex._at(path, "coeffs")
        coeffs = {
            ex._index(key, ex._at(where, key), dimension): ex._complex(value, ex._at(where, key))
            for key, value in ex._object(ex._expect(obj, "coeffs", path), where).items()
        }
        coefficients = CoefficientMap(coeffs, dimension)
        if "cert" in obj:
            claim, own = ex._read_record(GrowthCertificate, obj, "cert", path), coefficients.cert
            if not claim.M >= own.M:
                raise InputError(f"{ex._at(path, 'cert')}: claimed certificate (M={claim.M}, k={claim.k}) "
                                 f"is below the coefficients' own (M={own.M}, k={own.k})")
        return coefficients


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
    # the map's certificate then has M = inf.
    with np.errstate(over="ignore", invalid="ignore"):
        spectrum = np.fft.fftn(array) / float(count**d)
    # Row-major grid indices, shifted past the window's top into the negatives.
    index = np.indices(array.shape).reshape(d, -1)
    index[index > centred_window(count)[1]] -= count
    return CoefficientMap(dict(zip(zip(*index.tolist()), spectrum.ravel().tolist())), d)


def synthesize(basis: PeriodBasis, coeffs: CoefficientMap, x) -> np.ndarray:
    """Finite sum of coefficients times exp(2*pi*i * (A^{-1} m) . x) at each row of the
    (count, d) stack of points ``x``, as a complex array of length count.

    Invariant under adding any period vector to x.  A point must be finite,
    and so must each phase 2*pi*i * (A^{-1} m) . x.
    """
    if coeffs.dimension != basis.dimension:
        raise InputError("coefficient map and basis dimensions differ")
    points = np.asarray(x, dtype=float)
    if points.ndim != 2 or points.shape[1] != basis.dimension:
        raise InputError("evaluation points must be a (count, d) stack of the basis dimension")
    if not np.isfinite(points).all():
        raise InputError("evaluation points must be finite")
    items = coeffs.items_in_scan_order()
    if not items:
        return np.zeros(points.shape[0], dtype=np.complex128)
    indices = np.array([index for index, _ in items], dtype=float)
    alphas = np.array([value for _, value in items], dtype=np.complex128)
    duals = basis.inverse @ indices.T  # shape (d, count_m)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = 2j * math.pi * (points @ duals)
    if not np.isfinite(angles).all():
        raise InputError("a phase of the evaluation points passes the double range")
    return np.exp(angles) @ alphas
