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

The reducer sweep is one array pass per chunk of multipliers, with the
report bits of a per-combination ``np.roots`` and Newton loop.  Its roots
are numerically confirmed (a residual), not certified zero discs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import InputError

_EXACT_TYPES = (int, Fraction)


def _is_exact(value) -> bool:
    return isinstance(value, _EXACT_TYPES) and not isinstance(value, bool)


class Poly:
    """Polynomial with coefficients in ascending degree order.

    Coefficients are exact, kept as given (ints and Fractions), when
    every input is an int or a Fraction, and complex doubles otherwise;
    ``values`` holds them as complex doubles either way, for evaluation,
    equality and hashing.  Instances are immutable; arithmetic returns
    new polynomials with trailing zeros stripped.
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

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

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

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

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

    def __call__(self, z: complex) -> complex:
        value = complex(0)
        for c in reversed(self.values):
            value = value * z + c
        return value

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def one() -> Poly:
    return Poly([1])


def monomial(power: int, coefficient=1) -> Poly:
    return Poly([0] * power + [coefficient])


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
    """``Poly.__call__`` per row at that row's points, with CPython's ``_Py_c_prod``."""
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


def _best_residuals(values, slopes, degree, top):
    """Per combination, the least |p(z)| over its ``np.roots`` roots after 3 Newton
    steps; a NaN at the first root wins and later NaNs lose, as in a ``<`` fold."""
    low = np.argmax(values != 0, axis=1)
    key = (degree * values.shape[1] + low) * values.shape[1] + top
    best = np.full(len(values), np.nan)
    for k in set(key[top >= 1].tolist()):
        rows = np.flatnonzero(key == k)
        n, a, b = degree[rows[0]], low[rows[0]], top[rows[0]]
        trimmed = values[rows, a:b + 1][:, ::-1]
        companion = np.zeros((len(rows), b - a, b - a), complex)
        companion[:, np.arange(1, b - a), np.arange(b - a - 1)] = 1
        companion[:, :1, :] = -trimmed[:, None, 1:] / trimmed[:, None, :1]
        roots = np.concatenate([np.linalg.eigvals(companion), np.zeros((len(rows), a), complex)], axis=1)
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


def polynomial_reducer_search(
    max_degree: int = 3,
    f: Poly | None = None,
    g: Poly | None = None,
    coefficient_range: tuple[int, int] = (-2, 2),
) -> ReducerSearchReport:
    """Sweep multipliers h of bounded degree and show f + h*g is never a unit.

    For the standard pair f = z - 1, g = z^3 the low coefficients of the
    combination are pinned (constant -1, degree one 1) because g only
    feeds degrees >= 3, so every combination is nonconstant.  Each swept
    combination additionally gets a numerically confirmed root (residual):
    evidence of a zero, where a unit would need to be zero-free, but no
    proof, since certified zero discs are still open.  A combination
    with a non-finite companion matrix is an InputError naming f and g.
    """
    ex.NONNEG.check(max_degree, "max_degree")
    if f is None or g is None:
        _, _, f, g = standard_identity()
    lo, hi = map(operator.index, coefficient_range)
    if lo > hi:
        raise InputError("empty coefficient range")
    span = hi - lo + 1
    width = max_degree + 1
    candidates = span**width
    units_found = 0
    all_nonconstant = True
    max_residual = 0.0
    # Multiplying by g cannot touch degrees below g's lowest nonzero power,
    # so those coefficients of the combination are pinned to f's.
    valuation = next(
        (i for i, c in enumerate(g.coeffs) if c != 0), 0
    )
    pinned = {power: complex(f.coefficient(power)) for power in range(valuation)}
    columns = max(len(f.coeffs), width + len(g.coeffs) - 1, 1)
    # int64 holds every stamp, coefficient and slope exactly for small int
    # inputs; otherwise Python objects keep Fractions, big ints and complex.
    ints = f.exact and g.exact and all(type(c) is int for c in f.coeffs + g.coeffs)
    bound = ints and (max(map(abs, f.coeffs), default=0) + max(-lo, hi) * sum(map(abs, g.coeffs))) * columns
    lane = np.int64 if ints and max(bound, candidates) < 2**53 else object
    for start in range(0, candidates, _CHUNK):
        stamps = np.arange(start, min(start + _CHUNK, candidates), dtype=lane)
        digits = lo + stamps[:, None] // span ** np.arange(width, dtype=lane) % span
        # Poly.__mul__'s sums, in its order.  Terms of h's trailing zero
        # digits add exact zeros unless g is not finite, and then the sweep
        # fails on a non-finite companion matrix either way; h = 0 gives 0.
        product = np.full((len(digits), columns), 0 if g.exact else complex(0), lane)
        for i in range(width):
            for j, c in enumerate(g.coeffs):
                product[:, i + j] += digits[:, i] * c
        product[(digits == 0).all(axis=1)] = 0
        exact = np.array([f.coefficient(k) for k in range(columns)], lane) + product
        degree = _last(exact != 0)
        values = exact.astype(complex)
        slopes = (np.arange(1, columns, dtype=lane) * exact[:, 1:]).astype(complex)
        # A nonzero constant is a unit; the zero polynomial is not.  No root,
        # even of the doubles, also breaks all_nonconstant.
        units_found += int(np.count_nonzero(degree == 0))
        top = _last(values != 0)
        all_nonconstant &= bool((top >= 1).all())
        moved = (values[:, :valuation] != np.array(list(pinned.values()), complex)).any(axis=1)
        if (moved & (degree >= 1)).any():
            raise InputError("low coefficients moved; shift structure violated")
        try:
            with np.errstate(all="ignore"):
                best = _best_residuals(values, slopes, degree, top)
        except np.linalg.LinAlgError as err:  # a non-finite or overflowing companion matrix
            raise InputError(f"f={f!r}, g={g!r}: no roots for some combination f + h*g: {err}") from None
        max_residual = float(np.fmax.reduce(best, initial=max_residual))
    return ReducerSearchReport(
        max_degree=max_degree,
        candidates_checked=candidates,
        units_found=units_found,
        all_nonconstant=all_nonconstant,
        fixed_low_coefficients=pinned,
        max_root_residual=max_residual,
    )
