"""Reference arithmetic that does not import the package.

Trees are handled in the JSON wire format the command line reads
(``{"kind": "add", "args": [...]}`` and so on), so the expectations the
benchmark checks against are computed without any ``periodist`` code.

* ``evaluate`` is a plain-Python evaluator of one tree at one index.
* ``subwindow`` lists the lattice points of a small 1-norm ball in the
  canonical scan order (norm, then lexicographic).
* ``shell_count`` is the exact number of points on a 1-norm shell, which
  lets radial sums (trees that depend on ``|n|_1`` only) be summed shell by
  shell: the pairing value, a brute-force partial tail and a window sup.
"""

from __future__ import annotations

import cmath
import itertools
import math
from math import comb


def _arg(z: complex) -> float:
    if z == 0:
        return 0.0
    if z.imag == 0:
        z = complex(z.real, 0.0)
    return cmath.phase(z)


def evaluate(tree: dict, index: tuple[int, ...]) -> complex:
    """Value of a wire-format tree at a lattice index, in plain Python."""
    radius = sum(abs(c) for c in index)
    kind = tree["kind"]
    if kind == "const":
        return complex(tree["re"], tree.get("im", 0.0))
    if kind == "coord":
        return complex(index[tree["axis"]])
    if kind == "norm1":
        return complex(radius)
    if kind == "polyenv":
        return complex((1 + radius) ** tree["k"])
    if kind == "expdecay":
        return complex(math.exp(-tree["rate"] * radius))
    if kind == "add":
        return sum((evaluate(a, index) for a in tree["args"]), complex(0))
    if kind == "mul":
        out = complex(1)
        for a in tree["args"]:
            out *= evaluate(a, index)
        return out
    inner = evaluate(tree["arg"], index)
    if kind == "neg":
        return -inner
    if kind == "conj":
        return inner.conjugate()
    if kind == "abs":
        return complex(abs(inner))
    if kind == "arg":
        return complex(_arg(inner))
    if kind == "phase":
        return cmath.exp(-1j * _arg(inner))
    if kind == "clip":
        return inner if abs(inner) >= tree["eps"] else complex(tree["eps"])
    if kind == "recip":
        return 1.0 / inner
    raise ValueError(f"unknown node kind {kind!r}")


def subwindow(dimension: int, radius: int) -> list[tuple[int, ...]]:
    """Points with 1-norm <= radius, sorted by (norm, coordinates)."""
    span = range(-radius, radius + 1)
    points = [p for p in itertools.product(span, repeat=dimension) if sum(map(abs, p)) <= radius]
    return sorted(points, key=lambda p: (sum(map(abs, p)), p))


def ball_size(dimension: int, radius: int) -> int:
    return sum(shell_count(dimension, r) for r in range(radius + 1))


def shell_count(dimension: int, radius: int) -> int:
    """Exact number of points of Z^d with 1-norm exactly `radius`."""
    if radius == 0:
        return 1
    return sum(
        2**k * comb(dimension, k) * comb(radius - 1, k - 1) for k in range(1, dimension + 1)
    )


def radial(tree: dict, radius: int) -> complex:
    """Value of a tree that depends on |n|_1 only, at any point of that shell."""
    return evaluate(tree, (radius,))


def radial_sum(dimension: int, lo: int, hi: int, terms) -> complex:
    """Sum over shells lo..hi of shell_count * prod(radial(t, r) for t in terms)."""
    total = complex(0)
    for r in range(lo, hi + 1):
        value = complex(shell_count(dimension, r))
        for tree in terms:
            value *= radial(tree, r)
        total += value
    return total


def close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
