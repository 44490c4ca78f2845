"""Reduction of unimodular tuples and approximation by invertibles.

The central construction takes a unimodular pair (a1, a2) with cofactors
(b1, b2) and produces a single multiplier h making a1 + h * a2 invertible:

    normalizer           u  = 1 + |a1|          (invertible, floor 1)
    normalized_first     A  = a1 / u            (modulus at most 1)
    scaled_cofactor      B  = b1 * u
    clipped_cofactor     Bc = clip(B, eps)      (floor eps, moved by at most 2*eps)
    multiplier           h  = (1/Bc) * u * b2

because Bc * A + b2 * a2 = 1 + (Bc - B) * A has modulus at least
1 - 2*eps, and a1 + h * a2 equals (1/Bc) * u * (1 + (Bc - B) * A), a
product of three invertibles whose floors compose into an explicit
inverse witness.  eps must stay below 1/2; the default 1/4 gives the
floor 1/2.

Clipping is also how a general element is approximated by invertibles:
clip(a, eps) differs from a by at most 2*eps pointwise, which the
weak-star gap helper turns into a certified bound on pairings against
rapidly decreasing test sequences.  Pushing the floor level to zero
through the non-invertible decay net exp(-eps * |n|_1) is what the
floor-violation finder demonstrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .corona import CERTIFIED, CoronaWitness, check_corona_window, is_unit, verify_bezout
from .errors import InputError, MathFailure
from .lattice import LatticeIndex
from .sequences import (
    FastSequence,
    PairingResult,
    SlowSequence,
    _bump,
    _compose,
    _pairing,
    combine,
    constant,
    exp_decay_sequence,
)


# The clip level of a reduction: the perturbed identity keeps the floor 1 - 2*eps.
REDUCTION_EPSILON = ex.Range("in (0, 1/2)", lambda eps: 0.0 < eps < 0.5)


def clip_below(a: SlowSequence, eps: float) -> SlowSequence:
    """Replace values of modulus under eps by the real constant eps.

    The result keeps a(n) wherever |a(n)| >= eps, carries the growth
    certificate (max(M, eps), k), and is bounded below by eps, so it
    admits the inverse witness (eps, 0).
    """
    return _compose(ex.Clip(a.expr, eps), a)


@dataclass(frozen=True)
class ReductionTrace:
    """Every intermediate of the pair reduction, for audit and reuse."""

    epsilon: float
    normalizer: SlowSequence
    normalized_first: SlowSequence
    scaled_cofactor: SlowSequence
    clipped_cofactor: SlowSequence
    multiplier: SlowSequence
    result: SlowSequence
    result_inverse_witness: CoronaWitness | None
    witness_factors: dict[str, tuple[float, int] | None]


def reduce_pair(
    a1: SlowSequence,
    a2: SlowSequence,
    b1: SlowSequence,
    b2: SlowSequence,
    epsilon: float = 0.25,
    radius: int = 50,
    tolerance: float = 1e-12,
) -> ReductionTrace:
    """Single-multiplier reduction of a unimodular pair.

    The Bezout identity b1*a1 + b2*a2 = 1 is first verified on the window
    (max residual at most `tolerance`, else MathFailure).  Requires
    0 < epsilon < 1/2.  A witness or witness factor whose delta rounds to 0
    (a clipped cofactor of growth M = inf) is None.
    """
    REDUCTION_EPSILON.check(epsilon, "epsilon")
    residual = verify_bezout([a1, a2], [b1, b2], radius)
    if not residual <= tolerance:  # NaN fails
        raise MathFailure(
            f"cofactor identity residual {residual:.3e} exceeds tolerance {tolerance:.3e}"
        )

    one = constant(1.0, a1.dimension)
    normalizer = combine("add", one, combine("abs", a1))
    normalized_first = combine("mul", a1, normalizer.reciprocal(1.0, 0))
    scaled_cofactor = combine("mul", b1, normalizer)
    clipped_cofactor = clip_below(scaled_cofactor, epsilon)
    multiplier = combine(
        "mul", clipped_cofactor.reciprocal(epsilon, 0), normalizer, b2
    )
    result = combine("add", a1, combine("mul", multiplier, a2))

    # result = (1/Bc) * u * (1 + (Bc - B) * A): floors 1/growth(Bc), 1,
    # and 1 - 2*eps compose into the inverse witness.  The delta is
    # nudged down a hair so double rounding cannot overstate the floor.
    clip_cert = clipped_cofactor.cert
    factors = {
        "clipped_cofactor_reciprocal": ex._floor(1.0 / clip_cert.M, clip_cert.k),
        "normalizer": (1.0, 0),
        "perturbed_identity": (1.0 - 2.0 * epsilon, 0),
    }
    floor = ex._floor((1.0 - 2.0 * epsilon) / clip_cert.M * (1.0 - 1e-11), clip_cert.k)
    witness = CoronaWitness(*floor, status=CERTIFIED) if floor else None
    return ReductionTrace(
        epsilon=epsilon,
        normalizer=normalizer,
        normalized_first=normalized_first,
        scaled_cofactor=scaled_cofactor,
        clipped_cofactor=clipped_cofactor,
        multiplier=multiplier,
        result=result,
        result_inverse_witness=witness,
        witness_factors=factors,
    )


@dataclass(frozen=True)
class TupleReduction:
    """One step of tuple shortening: the last member has been absorbed."""

    family: list[SlowSequence]
    cofactors: list[SlowSequence]
    shift: SlowSequence
    trace: ReductionTrace


def reduce_tuple(
    family: list[SlowSequence],
    cofactors: list[SlowSequence],
    radius: int = 50,
) -> TupleReduction:
    """Shorten a unimodular (N+1)-tuple to a unimodular N-tuple (N >= 2).

    With family (a_1, ..., a_N, t) and cofactors (b_1, ..., b_N, s), the
    pair (a_N, c) with c = b_1 a_1 + ... + b_{N-1} a_{N-1} + s t is
    unimodular with cofactors (b_N, 1); reducing it (with ``reduce_pair``'s
    default epsilon and tolerance) yields a multiplier h
    with v = a_N + h c invertible.  Only the N-th member moves:
    a_N' = a_N + (h s) t, and v^{-1}(a_N' + h sum b_i a_i) = 1 gives the
    new cofactors (v^{-1} h b_1, ..., v^{-1} h b_{N-1}, v^{-1}).
    """
    if len(family) != len(cofactors):
        raise InputError("family and cofactors must have matching lengths")
    if len(family) < 3:
        raise InputError("tuple reduction needs at least three members; use reduce_pair")
    *front, pivot, last = family
    *front_cof, pivot_cof, last_cof = cofactors
    pieces = [combine("mul", bf, af) for bf, af in zip(front_cof, front)]
    pieces.append(combine("mul", last_cof, last))
    complement = pieces[0] if len(pieces) == 1 else combine("add", *pieces)
    one = constant(1.0, pivot.dimension)
    trace = reduce_pair(pivot, complement, pivot_cof, one, radius=radius)
    if trace.result_inverse_witness is None:
        raise MathFailure("reduced pivot has no inverse witness: its delta rounds to 0")
    unit = is_unit(trace.result, trace.result_inverse_witness, radius)
    if not unit.invertible:
        raise MathFailure(
            f"reduced pivot lost its floor at lattice index {unit.first_violation}"
        )
    inverse = unit.inverse
    shift = combine("mul", trace.multiplier, last_cof)
    new_pivot = combine("add", pivot, combine("mul", shift, last))
    new_family = list(front) + [new_pivot]
    new_cofactors = [
        combine("mul", inverse, trace.multiplier, bf) for bf in front_cof
    ] + [inverse]
    return TupleReduction(new_family, new_cofactors, shift, trace)


def approx_by_invertibles(
    a: SlowSequence, epsilons: list[float]
) -> list[tuple[SlowSequence, CoronaWitness]]:
    """Clipping net toward `a`: invertible approximants with their witnesses.

    Each approximant differs from `a` by at most 2 * eps pointwise and
    carries the certified floor (eps, 0).
    """
    return [(clip_below(a, eps), CoronaWitness(eps, 0, status=CERTIFIED)) for eps in epsilons]


@dataclass(frozen=True)
class GapResult:
    gap: float
    bound: float
    tail_bound: float


def _uniform_diff_bound(x: SlowSequence, y: SlowSequence, diff: SlowSequence) -> float:
    """Certified global sup of |x(n) - y(n)|, or infinity if unavailable.

    Recognises the clipping pattern (clip moves values by at most twice
    the level) and order-zero difference certificates.
    """
    best = math.inf
    for near, far in ((x, y), (y, x)):
        tree = near.expr
        if isinstance(tree, ex.Clip) and ex.same_tree(tree.arg, far.expr):
            best = min(best, 2.0 * tree.eps)
    if diff.cert.k == 0:
        best = min(best, diff.cert.M)
    return best


def weak_star_gap(
    x: SlowSequence,
    y: SlowSequence,
    b: FastSequence,
    radius: int,
    threads: int = 1,
) -> GapResult:
    """Pairing gap |<x - y, b>| on a window, with a certified bound.

    The bound multiplies a sup of the pointwise difference (window sup,
    extended to all of the lattice by certificates when possible) with a
    certified bound on the total modulus sum of the test sequence.  When
    no global difference bound is recognised the bound is infinite.
    """
    diff = combine("add", x, combine("neg", y))
    sups: list = []

    def product(norms, values):
        sups.append(np.abs(values[0]).max())
        return np.multiply(values[0], values[1], dtype=np.complex128)

    # One scan yields the pairing and the window sup of the difference.
    result: PairingResult = _pairing(diff, b, radius, product)
    gap = ex._modulus(result.value)
    sup_window = float(np.max(sups))
    global_sup = _uniform_diff_bound(x, y, diff)
    extended = max(_bump(sup_window), global_sup) if math.isfinite(global_sup) else math.inf
    bound = extended * b.abs_sum_bound() if math.isfinite(extended) else math.inf
    return GapResult(gap, bound, result.tail_bound)


def q_algebra_violation(
    rate: float,
    delta: float,
    K: int,
    n_max: int,
    dimension: int = 1,
) -> LatticeIndex | None:
    """First lattice point where exp(-rate*|n|_1) drops under the floor.

    Scans the window |n|_1 <= n_max in canonical order for
    exp(-rate * |n|_1) < delta * (1 + |n|_1)^(-K); returns the first such
    index or None.  A hit shows the decay net escapes every fixed
    polynomial floor even though it converges to 1 in the weak-star
    sense as the rate goes to 0.
    """
    net = exp_decay_sequence(rate, dimension)
    check = check_corona_window([net], delta, K, n_max)
    return None if check.holds else check.first_violation
