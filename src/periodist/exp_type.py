"""Polynomial Bezout identities and the single-multiplier obstruction.

Polynomials stand in for the zero-free exponential-type world: a unit
there is zero-free, while every nonconstant polynomial has a complex
root.  The worked identity

    -(1 + z + z^2) * (z - 1) + 1 * z^3 = 1

shows the pair (z - 1, z^3) admits cofactors, yet no single multiplier h
can make z - 1 + h(z) * z^3 invertible: multiplying by z^3 shifts every
coefficient of h up by three degrees, so the combination always keeps
constant coefficient -1 and degree-one coefficient 1, stays nonconstant,
and therefore has a root.

Coefficient arithmetic is exact whenever the inputs are ints or
Fractions: ints stay Python ints, and a Fraction appears only where an
input or a product holds one.  Otherwise complex double precision is
used.

The reducer sweep runs on that one pair: every combination is an exact
int64 row of coefficients, and its roots come from one array pass per
chunk of rows, with the report bits of a per-combination ``np.roots`` and
Newton loop.  Its roots are numerically confirmed (a residual), not
certified zero discs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex

_EXACT_TYPES = (int, Fraction)


def _is_exact(value) -> bool:
    return isinstance(value, _EXACT_TYPES) and not isinstance(value, bool)


class Poly:
    """Polynomial with coefficients in ascending degree order.

    Coefficients are exact, kept as given (ints and Fractions), when
    every input is an int or a Fraction, and complex doubles otherwise;
    ``values`` holds them as complex doubles either way, for equality and
    hashing.  Instances are immutable; arithmetic returns new polynomials
    with trailing zeros stripped.
    """

    __slots__ = ("coeffs", "exact", "values")

    def __init__(self, coefficients):
        items = list(coefficients)
        exact = all(_is_exact(c) for c in items)
        cleaned = items if exact else [complex(c) for c in items]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "values", tuple(map(complex, cleaned)))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def coefficient(self, power: int):
        ex.NONNEG.check(power, "power")
        return self.coeffs[power] if power < len(self.coeffs) else (
            0 if self.exact else complex(0)
        )

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.values, other.values))

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other: "Poly") -> "Poly":
        width = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(i) + other.coefficient(i) for i in range(width)]
        )

    def __sub__(self, other: "Poly") -> "Poly":
        width = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(i) - other.coefficient(i) for i in range(width)]
        )

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly([])
        out = [
            0 if (self.exact and other.exact) else complex(0)
        ] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def one() -> Poly:
    return Poly([1])


def monomial(power: int) -> Poly:
    return Poly([0] * power + [1])


def standard_identity() -> tuple[Poly, Poly, Poly, Poly]:
    """The worked quadruple (p, q, f, g) with p*f + q*g = 1 exactly."""
    p = Poly([-1, -1, -1])  # -(1 + z + z^2)
    q = one()
    f = Poly([-1, 1])  # z - 1
    g = monomial(3)  # z^3
    return p, q, f, g


@dataclass(frozen=True)
class PolyBezoutCheck:
    residual: Poly
    max_residual: float
    exact: bool


def poly_bezout_check(p: Poly, q: Poly, f: Poly, g: Poly) -> PolyBezoutCheck:
    """Residual of the identity p*f + q*g = 1 by coefficient arithmetic.

    With rational inputs the computation is exact, so a valid identity
    reports a residual of exactly zero.
    """
    residual = p * f + q * g - one()
    top = max((abs(complex(c)) for c in residual.coeffs), default=0.0)
    return PolyBezoutCheck(residual, float(top), residual.exact)


_CHUNK = 256  # combinations per array pass, so memory stays flat in max_degree


def _last(mask):
    """Per row, the index of the last True entry, or -1."""
    return np.where(mask.any(axis=1), mask.shape[1] - 1 - np.argmax(mask[:, ::-1], axis=1), -1)


def _horner(coeffs, zr, zi):
    """Horner's rule per row at that row's points, with CPython's ``_Py_c_prod``."""
    vr = vi = np.zeros_like(zr)
    for c in coeffs.T[::-1]:
        vr, vi = vr * zr - vi * zi + c.real[:, None], vr * zi + vi * zr + c.imag[:, None]
    return vr, vi


def _quotient(ar, ai, br, bi):
    """CPython's ``_Py_c_quot`` (Smith's method) on float64 parts; b == 0 is masked by the caller."""
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    real = np.where(by_real, ar + ai * ratio, ar * ratio + ai)
    imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar)
    return real / denom, imag / denom


def _best_residuals(values, slopes, degree):
    """Per combination, the least |p(z)| over its ``np.roots`` roots after 3 Newton
    steps; a NaN at the first root wins and later NaNs lose, as in a ``<`` fold.
    Every row has a nonzero constant term, so ``np.roots`` finds no zero root."""
    best = np.full(len(values), np.nan)
    for n in set(degree[degree >= 1].tolist()):
        rows = np.flatnonzero(degree == n)
        leading_first = values[rows, :n + 1][:, ::-1]
        companion = np.zeros((len(rows), n, n), complex)
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1
        companion[:, :1, :] = -leading_first[:, None, 1:] / leading_first[:, None, :1]
        roots = np.linalg.eigvals(companion)
        zr, zi, live = roots.real, roots.imag, True
        for _ in range(3):
            sr, si = _horner(slopes[rows, :n], zr, zi)
            live = live & ((sr != 0) | (si != 0))  # a zero slope stops that root
            qr, qi = _quotient(*_horner(values[rows, :n + 1], zr, zi), sr, si)
            zr, zi = np.where(live, zr - qr, zr), np.where(live, zi - qi, zi)
        residual = np.hypot(*_horner(values[rows, :n + 1], zr, zi))
        best[rows] = np.where(np.isnan(residual[:, 0]), np.nan, np.fmin.reduce(residual, axis=1))
    return best


@dataclass(frozen=True)
class ReducerSearchReport(ex.Ranged):
    """Outcome of sweeping single-multiplier combinations f + h * g."""

    max_degree: int = ex.ranged(ex.NONNEG)
    candidates_checked: int
    units_found: int
    all_nonconstant: bool
    fixed_low_coefficients: dict[int, complex]
    max_root_residual: float


def polynomial_reducer_search(max_degree: int = 3) -> ReducerSearchReport:
    """Sweep multipliers h of degree at most ``max_degree`` with coefficients in -2..2
    and show f + h*g is never a unit, for the standard pair f = z - 1, g = z^3.

    Multiplying by g = z^3 shifts h up by three degrees, so each combination's
    coefficient row is f's coefficients followed by h's from column 3 on, exact in
    int64.  Its constant (-1) and degree-one (1) coefficients are pinned, so every
    combination is nonconstant.  Each swept combination additionally gets a
    numerically confirmed root (residual): evidence of a zero, where a unit would
    need to be zero-free, but no proof, since certified zero discs are still open.
    """
    ex.NONNEG.check(max_degree, "max_degree")
    _, _, f, g = standard_identity()
    shift = len(g.coeffs) - 1
    width = max_degree + 1
    candidates = 5**width
    units_found = 0
    all_nonconstant = True
    max_residual = 0.0
    for start in range(0, candidates, _CHUNK):
        stamps = np.arange(start, min(start + _CHUNK, candidates))
        exact = np.zeros((len(stamps), shift + width), np.int64)
        exact[:, :len(f.coeffs)] = f.coeffs
        exact[:, shift:] = stamps[:, None] // 5 ** np.arange(width) % 5 - 2  # base-5 digits, -2..2
        degree = _last(exact != 0)
        values = exact.astype(complex)
        slopes = (np.arange(1, shift + width) * exact[:, 1:]).astype(complex)
        # A nonzero constant is a unit; the zero polynomial is not.
        units_found += int(np.count_nonzero(degree == 0))
        all_nonconstant &= bool((degree >= 1).all())
        with np.errstate(all="ignore"):
            best = _best_residuals(values, slopes, degree)
        max_residual = float(np.fmax.reduce(best, initial=max_residual))
    return ReducerSearchReport(
        max_degree=max_degree,
        candidates_checked=candidates,
        units_found=units_found,
        all_nonconstant=all_nonconstant,
        fixed_low_coefficients={power: complex(f.coefficient(power)) for power in range(shift)},
        max_root_residual=max_residual,
    )
