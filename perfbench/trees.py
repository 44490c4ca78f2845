"""Constructors of expression trees in the JSON wire format.

The benchmark generates its inputs as plain dicts so that the reference
arithmetic in ``oracle`` never touches package objects; the package
receives the same dicts through its public parsers.
"""

from __future__ import annotations


def const(re: float, im: float = 0.0) -> dict:
    return {"kind": "const", "re": float(re), "im": float(im)}


def coord(axis: int) -> dict:
    return {"kind": "coord", "axis": axis}


def norm1() -> dict:
    return {"kind": "norm1"}


def polyenv(k: int) -> dict:
    return {"kind": "polyenv", "k": k}


def expdecay(rate: float) -> dict:
    return {"kind": "expdecay", "rate": float(rate)}


def add(*args: dict) -> dict:
    return {"kind": "add", "args": list(args)}


def mul(*args: dict) -> dict:
    return {"kind": "mul", "args": list(args)}


def absval(arg: dict) -> dict:
    return {"kind": "abs", "arg": arg}


def phase(arg: dict) -> dict:
    return {"kind": "phase", "arg": arg}


def clip(arg: dict, eps: float) -> dict:
    return {"kind": "clip", "arg": arg, "eps": float(eps)}


def recip(arg: dict, delta: float, K: int) -> dict:
    return {"kind": "recip", "arg": arg, "witness": {"delta": float(delta), "K": K}}


def shifted_coord(axis: int, offset: float) -> dict:
    """n[axis] - offset."""
    return add(coord(axis), const(-offset))


def cofactors(family: list[dict], delta: float, K: int) -> list[dict]:
    """Closed-form Bezout cofactors phase(a_i) / sum_j |a_j| for a family."""
    moduli = [absval(member) for member in family]
    total = moduli[0] if len(moduli) == 1 else add(*moduli)
    denominator = recip(total, delta, K)
    return [mul(phase(member), denominator) for member in family]
