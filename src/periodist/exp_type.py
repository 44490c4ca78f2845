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
"""

from __future__ import annotations

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


def _polish_root(poly: Poly, derivative: Poly, root: complex, steps: int = 3) -> complex:
    for _ in range(steps):
        slope = derivative(root)
        if slope == 0:
            break
        root = root - poly(root) / slope
    return root


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
    combination additionally gets a numerically confirmed root; a root
    certifies a zero, and zero-free is exactly what a unit would need.
    """
    ex.NONNEG.check(max_degree, "max_degree")
    if f is None or g is None:
        _, _, f, g = standard_identity()
    lo, hi = coefficient_range
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
    for stamp in range(candidates):
        digits = []
        rest = stamp
        for _ in range(width):
            digits.append(lo + rest % span)
            rest //= span
        combination = f + Poly(digits) * g
        if combination.degree < 1:
            # A nonzero constant is a unit; the zero polynomial is not.
            units_found += combination.degree == 0
            all_nonconstant = False
            continue
        for power, expected in pinned.items():
            if complex(combination.coefficient(power)) != expected:
                raise InputError("low coefficients moved; shift structure violated")
        roots = np.roots(combination.values[::-1])
        derivative = combination.derivative()
        best = None
        for candidate_root in roots:
            polished = _polish_root(combination, derivative, complex(candidate_root))
            residual = abs(combination(polished))
            if best is None or residual < best:
                best = residual
        if best is None:
            # No roots found means constant, which cannot happen here.
            all_nonconstant = False
            continue
        max_residual = max(max_residual, best)
    return ReducerSearchReport(
        max_degree=max_degree,
        candidates_checked=candidates,
        units_found=units_found,
        all_nonconstant=all_nonconstant,
        fixed_low_coefficients=pinned,
        max_root_residual=max_residual,
    )
