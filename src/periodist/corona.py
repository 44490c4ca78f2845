"""Corona-type lower bounds and explicit Bezout solving.

A family a_1, ..., a_N of slowly growing sequences admits cofactors with
sum b_i * a_i = 1 exactly when the combined modulus stays above a
polynomially decaying floor:

    |a_1(n)| + ... + |a_N(n)| >= delta * (1 + |n|_1)^(-K).

The witness (delta, K) is either verified exhaustively on a window or
certified syntactically from invertible leaf forms (nonzero constants,
polynomial envelopes, clipped values, reciprocals of certified-growth
trees, and nonnegative sums containing one of these).

The solver writes down the cofactors in closed form:

    b_i(n) = exp(-i * Arg(a_i(n))) / (|a_1(n)| + ... + |a_N(n)|),

each carrying the growth certificate (1/delta, K).  Conversely, bounded
cofactors for a Bezout identity yield a witness with delta = 1 / max M_i
and K = max k_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DimensionMismatch, InputError
from .lattice import LatticeIndex
from .sequences import SlowSequence, _flagged, combine, scan, window_array, window_folds

# Witness provenance labels.
WINDOW_VERIFIED = "window-verified"
CERTIFIED = "certified"
_STATUSES = ex.Range(f"'{WINDOW_VERIFIED}' or '{CERTIFIED}'", (WINDOW_VERIFIED, CERTIFIED).__contains__)


@dataclass(frozen=True)
class CoronaWitness(ex.Ranged):
    """Floor claim sum |a_i(n)| >= delta * (1 + |n|_1)^(-K)."""

    delta: float = ex.ranged(ex.POSITIVE)
    K: int = ex.ranged(ex.NONNEG)
    status: str = ex.ranged(_STATUSES, WINDOW_VERIFIED)
    radius: int = ex.ranged(ex.NONNEG, 0)

    def floor_at(self, norms: np.ndarray) -> np.ndarray:
        return self.delta * (1.0 + norms) ** (-float(self.K))


@dataclass(frozen=True)
class WindowCheck:
    holds: bool
    first_violation: LatticeIndex | None


def _family_dimension(family: list[SlowSequence]) -> int:
    if not family:
        raise InputError("family must be non-empty")
    dimension = family[0].dimension
    if any(s.dimension != dimension for s in family):
        raise DimensionMismatch("family members must share a dimension")
    return dimension


def combined_modulus(family: list[SlowSequence], radius: int) -> np.ndarray:
    """sum_i |a_i(n)| over the window, in canonical scan order."""
    trees, dimension = [member.expr for member in family], _family_dimension(family)
    return window_array(trees, dimension, radius, lambda norms, values: _modulus_sum(values))


def _modulus_sum(values: list[np.ndarray]) -> np.ndarray:
    """|a_1| + |a_2| + ..., in member order, added into the first modulus."""
    total = np.abs(values[0])
    for v in values[1:]:
        total += np.abs(v)
    return total


def check_corona_window(
    family: list[SlowSequence],
    delta: float,
    K: int,
    radius: int,
    threads: int = 1,
) -> WindowCheck:
    """Exhaustively test the corona floor on the 1-norm ball.

    The comparison is exact double comparison, and NaN is a violation; the
    first violation (in canonical scan order) is reported when the floor
    fails, and the scan stops at the slice that holds it.
    """
    witness = CoronaWitness(delta, K)
    for points, norms, rows, values in scan([m.expr for m in family], _family_dimension(family), radius):
        where = _flagged(points[rows], ~(_modulus_sum(values) >= witness.floor_at(norms[rows])))
        if where is not None:
            return WindowCheck(False, where)
    return WindowCheck(True, None)


def certify_witness(family: list[SlowSequence]) -> CoronaWitness | None:
    """Syntactic witness from the recognised invertible forms, if any.

    The combined modulus dominates each member's modulus, so a certified
    pointwise lower bound for any single member certifies the family.
    Among the certified members the flattest floor (smallest K, then
    largest delta) is returned.
    """
    _family_dimension(family)
    bound = ex.lower_bound_cert(ex.Add(tuple(ex.Abs(m.expr) for m in family)))
    return None if bound is None else CoronaWitness(*bound, status=CERTIFIED)


def solve_bezout(family: list[SlowSequence], witness: CoronaWitness) -> list[SlowSequence]:
    """Closed-form cofactors b_i with sum b_i * a_i = 1.

    Each cofactor is phase(a_i) divided by the combined modulus, carried
    as an expression tree whose reciprocal node records the witness; the
    composed growth certificate of every cofactor is (1/delta, K).  The
    witness is taken as given: a window check is the caller's
    (``check_corona_window``).
    """
    _family_dimension(family)
    moduli = [combine("abs", member) for member in family]
    total = moduli[0] if len(moduli) == 1 else combine("add", *moduli)
    denominator = total.reciprocal(witness.delta, witness.K)
    return [combine("mul", combine("phase", member), denominator) for member in family]


def verify_bezout(
    family: list[SlowSequence],
    cofactors: list[SlowSequence],
    radius: int,
    threads: int = 1,
) -> float:
    """Max residual |sum b_i(n) a_i(n) - 1| over the window."""
    if len(family) != len(cofactors):
        raise InputError("family and cofactors must have matching lengths")
    dimension = _family_dimension(list(family) + list(cofactors))
    # One tree, so the denominator the cofactors share is evaluated once.
    terms = tuple(ex.Mul((a.expr, b.expr)) for a, b in zip(family, cofactors))
    residual = (np.max, lambda norms, values: np.abs(values[0] - 1.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN residual is reported as it is
        return window_folds([ex.Add(terms)], dimension, radius, [residual])[0]


def witness_from_bezout(cofactors: list[SlowSequence]) -> CoronaWitness | None:
    """Witness extracted from cofactor growth certificates.

    If sum b_i a_i = 1 with |b_i(n)| <= M_i (1+|n|_1)^(k_i), then the
    combined modulus of the family is at least 1 / (max M_i) times
    (1+|n|_1)^(-max k_i).  Status is window-verified with radius 0; the
    caller re-verifies on whatever window it cares about.  A delta that
    rounds to 0 (an M of inf) is no witness: None.
    """
    if not cofactors:
        raise InputError("cofactor list must be non-empty")
    delta = 1.0 / max(c.cert.M for c in cofactors)
    order = max(c.cert.k for c in cofactors)
    return CoronaWitness(delta, order, status=WINDOW_VERIFIED, radius=0) if delta > 0 else None


@dataclass(frozen=True)
class UnitCheck:
    invertible: bool
    inverse: SlowSequence | None
    first_violation: LatticeIndex | None = None


def is_unit(
    a: SlowSequence,
    witness: CoronaWitness,
    radius: int = 50,
    threads: int = 1,
) -> UnitCheck:
    """Invertibility of a single sequence under a witness.

    The witness is checked exhaustively on the window; on success the
    explicit inverse phase(a) / |a| is returned with growth certificate
    (1/delta, K).  On failure no inverse is produced.
    """
    check = check_corona_window([a], witness.delta, witness.K, radius)
    if not check.holds:
        return UnitCheck(False, None, check.first_violation)
    return UnitCheck(True, solve_bezout([a], witness)[0], None)
