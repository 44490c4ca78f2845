"""Closed-form expression trees over integer lattice indices.

A tree denotes a complex-valued function of a lattice index ``n`` in
``Z^d``.  Nodes are immutable; building a combination never mutates its
inputs, and no symbolic simplification is attempted.  The node kinds are

    Const(re, im)        the constant re + i*im
    Coord(axis)          the coordinate n[axis]
    Norm1()              the 1-norm of n
    PolyEnv(k)           the polynomial envelope (1 + |n|_1)^k
    ExpDecay(rate)       exp(-rate * |n|_1), rate > 0
    Add(args) Mul(args)  pointwise sum / product, n-ary
    Neg(a) Conj(a)       pointwise negation / complex conjugate
    Abs(a)               pointwise modulus
    Arg(a)               principal argument in (-pi, pi], with Arg(0) = 0
    Phase(a)             exp(-i * Arg(a(n))); multiplying by the original
                         value recovers its modulus
    Clip(a, eps)         a(n) where |a(n)| >= eps, else the real value eps
    Recip(a, delta, K)   1 / a(n), carrying the claim
                         |a(n)| >= delta * (1 + |n|_1)^(-K)

Every tree composes a growth certificate (M, k) claiming
``|value(n)| <= M * (1 + |n|_1)^k``.  Certificates are syntactic bounds:
they are exact in real arithmetic and are additionally spot-checked on
finite windows by the callers that rely on them.

Evaluation has one walk, ``_evaluate``, which evaluates a tree on a
block of indices held in a numpy array in the tree's own lane:
``evaluate_grid`` returns its values as complex128, ``evaluate`` is the
one-row case, and the window scan of ``sequences`` reads the lane
itself.  Trees built by combining sequences share subtrees, so a tree is
walked as the DAG it is: one iterative post-order lists each distinct
node once (told apart by identity within the call), and each node's
``_eval_grid`` runs once, with all of its children's arrays, so an n-ary
``Add`` or ``Mul`` holds all of its arguments' arrays at once.  A
child's last reader gets its array, an earlier one a read-only view, and
a sum or product folds into its first argument's array only where that
is writeable (a lone read-only argument is copied, as a later reader may
fold into the array it views).  Each node does the same arithmetic in
the same order as a tree walk, so values are bit-identical, and a
failing ``Recip`` or ``Coord`` raises at the same node.  The facts
(``composed_cert``, ``is_nonneg_real``, ``lower_bound_cert``,
``max_axis``) are one fold of each node's ``_facts`` rule over the same
post-order, run per query, and ``to_json`` folds the same way, so no
walk recurses or revisits a shared subtree.  Nodes are not interned: the
sharing that reductions create is already shared objects, and merging
structurally equal ones would save only a few nodes more.  A reduction
evaluates the same objects again in later calls, so inner nodes' values
on the small slices a window scan names are kept, read-only, and the
walk stops at a node whose value is kept.

Real values travel in float64.  A node whose value is real at every
point produces a float64 array: a ``Const`` whose imaginary part is +0.0,
the leaves ``Coord``, ``Norm1``, ``PolyEnv`` and ``ExpDecay``, ``Abs`` and
``Arg``, and ``Add``, ``Mul``, ``Neg``, ``Conj``, ``Clip`` and ``Recip`` of
real arguments.  An array turns complex128 in two places only: a sum or
product that folds in a complex argument, where numpy promotes the real
accumulator to x + 0j, and ``Phase``.  A ``Const`` is a 0-d scalar that
broadcasts, so a sum or product with a constant runs against one number,
and a subtree of constants stays 0-d; a root that is 0-d is broadcast to
the block.  The window scan of ``sequences`` reads each tree's array in
its own lane (``_evaluate``), so a modulus of a real tree is a float64
``abs``; ``evaluate_grid``, and with it ``.window()``, returns complex128
whatever the lane, converting a real result to x + 0j.  As in
C99 Annex G, a real operand is never promoted on its own, so a real-valued
tree has imaginary part +0.0 (a complex path could leave -0.0, as in
-(x + 0j)), and a non-finite real intermediate follows real arithmetic:
2 * inf is inf, where (inf + 0j) * (2 + 0j) is inf + nan j.  Where every
intermediate is finite, values equal those of a complex path, and the
bits differ at most in the sign of an exactly-zero part.

``Arg`` and ``Phase`` of a real argument (a float64 array, or every
imaginary part zero; no part NaN) are a two-value select by sign: the
general formulas' own values at 0 and at pi, without an arctan2 or a
complex exp per point.

Each node class is the one place its kind is defined: it declares its
wire ``kind``, its fields (which the JSON wire format mirrors), its grid
evaluation and its facts rule: the growth certificate, nonnegativity,
floor and largest axis it derives from its children's (``Node._facts``).

Input ranges are declared once, as ``ranged(RULE)`` on the dataclass
field that carries them: construction checks them, and the JSON readers
at the end of this module apply the same rule, naming the JSON path
(``inputs.x.expr.eps: must be > 0, got -0.1``).  The declared ranges:

    > 0        ExpDecay.rate, Clip.eps, Recip.delta, GrowthCertificate.M,
               DecayBound.C, DecayBound.rate, CoronaWitness.delta
    >= 0       Coord.axis, PolyEnv.k, Recip.K, GrowthCertificate.k, DecayBound.j,
               FastSequence.support, CoronaWitness.K, CoronaWitness.radius
    >= 1       SlowSequence, FastSequence and CoefficientMap .dimension
    finite     Const.re, Const.im
    one of     CoronaWitness.status: 'window-verified' or 'certified'
    non-empty  Add.args, Mul.args
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import typing
import weakref
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, InputError, WitnessViolation
from .lattice import LatticeIndex, ball


def _angle(values: np.ndarray) -> np.ndarray:
    """Principal argument in (-pi, pi], with the convention Arg(0) = 0.

    A negative-zero imaginary part would flip the branch cut for negative
    reals, so adding +0.0 turns it into +0.0 first; arctan2 then writes
    into that sum, the one array the call allocates (0-d for a scalar).
    """
    out = np.asarray(values.imag + 0.0)
    np.arctan2(out, values.real, out=out)
    out[values == 0] = 0.0
    return out


def _real_select(values: np.ndarray, pair: np.ndarray) -> np.ndarray | None:
    """``pair[0]`` where a real argument is >= 0 and ``pair[1]`` where it is
    < 0, in a new array (the argument's may have other readers); None when
    some imaginary part is nonzero or NaN, or some real part is NaN.
    """
    if values.dtype.kind == "c":
        if values.imag.any():
            return None
        values = values.real
    if np.isnan(values).any():
        return None
    return pair.take((values < 0).view(np.uint8))


def _accumulate(ufunc, values: list[np.ndarray]) -> np.ndarray:
    """``values`` folded left to right by ``ufunc``, in place in the first array; a 0-d or
    read-only accumulator (another reader's view, or a kept value), and a real one that meets
    a complex value, start a new array, numpy broadcasting a scalar and promoting each x to
    x + 0j.  A lone read-only array is copied: a later reader may fold into the one it views."""
    out = values[0]
    if len(values) == 1 and not out.flags.writeable:
        return out.copy()
    for v in values[1:]:
        fresh = out.ndim == 0 or not out.flags.writeable or v.dtype.kind == "c" and out.dtype.kind != "c"
        out = ufunc(out, v, out=None if fresh else out)
    return out


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where the modulus passes the double range and abs raises."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _floor(delta: float, K: int) -> tuple[float, int] | None:
    """The floor (delta, K), or None where delta rounds to 0 (or is 0 * inf): a floor of 0 is none."""
    return (delta, K) if delta > 0 else None


# A growth bound that rounds to 0 (a product, or 1/delta for delta = inf) is the least positive double.
_TINY = math.ulp(0.0)

# Arg and Phase of a real argument: the general formulas at 0 and at pi.
_ARG_OF_SIGN = np.array([0.0, np.pi])
_PHASE_OF_SIGN = np.exp(-1j * np.array([0.0, np.pi]))


class Range(typing.NamedTuple):
    """A named input range: ``holds(value)`` is true inside it."""

    text: str
    holds: typing.Callable[[typing.Any], bool]

    def check(self, value, where: str):
        if not self.holds(value):
            raise InputError(f"{where}: must be {self.text}, got {value}")
        return value


POSITIVE = Range("> 0", lambda v: v > 0)
NONNEG = Range(">= 0", lambda v: v >= 0)
AT_LEAST_ONE = Range(">= 1", lambda v: v >= 1)
FINITE = Range("finite", math.isfinite)
NON_EMPTY = Range("non-empty", lambda v: len(v) > 0)


def ranged(rule: Range, default=MISSING, **metadata):
    """A dataclass field that declares its input range; a field whose default is None may be None."""
    if default is None:
        rule = Range(rule.text, lambda v, holds=rule.holds: v is None or holds(v))
    return field(default=default, metadata={"range": rule, **metadata})


@functools.cache
def _ranges(cls) -> dict[str, Range]:
    """The range each field of a dataclass declares, by field name."""
    return {f.name: f.metadata["range"] for f in fields(cls) if "range" in f.metadata}


class Ranged:
    """Base of the dataclasses whose fields declare input ranges; construction checks them."""

    __slots__ = ()

    def __post_init__(self):
        for name, rule in _ranges(type(self)).items():
            rule.check(getattr(self, name), name)


class Node(Ranged):
    """Base class for expression-tree nodes."""

    __slots__ = ()

    def children(self) -> tuple["Node", ...]:
        return ()

    # Subclasses declare their wire ``kind`` and implement _eval_grid / _facts.

    def _facts(self, kids: list[tuple]) -> tuple:
        """The node's facts ``(cert, nonneg, floor, axis)``, given its children's (in order):
        the growth certificate (M, k), |value(n)| <= M * (1 + |n|_1)^k with M > 0; whether
        every value is provably real and >= 0 (False: not established); a floor (delta, K),
        |value(n)| >= delta * (1 + |n|_1)^(-K) with delta > 0, or None; and the largest
        coordinate axis in the subtree, or -1.  The growth part reads only the children's
        growth, so ``sequences._compose`` applies it to claimed certificates."""
        raise NotImplementedError

    def _eval_grid(self, points: np.ndarray, norms: np.ndarray, values: list[np.ndarray]) -> np.ndarray:
        """The node's values on ``points``, given its children's (in order)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Node):
    kind = "const"

    re: float = ranged(FINITE)
    im: float = ranged(FINITE, 0.0)

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def _facts(self, kids):
        mag = _modulus(self.value)
        # The zero constant still needs a positive bound constant, and has no floor; an
        # overflowing modulus bounds above as inf and below as the largest double.
        floor = (min(mag, sys.float_info.max), 0) if mag > 0 else None
        return (mag if mag > 0 else 1.0, 0), self.im == 0 and self.re >= 0, floor, -1

    def _eval_grid(self, points, norms, values):
        if self.im == 0 and math.copysign(1.0, self.im) > 0:
            return np.float64(self.re)
        return np.complex128(self.value)


@dataclass(frozen=True)
class Coord(Node):
    kind = "coord"

    axis: int = ranged(NONNEG)

    def _facts(self, kids):
        return (1.0, 1), False, None, self.axis

    def _eval_grid(self, points, norms, values):
        if self.axis >= points.shape[1]:
            raise DimensionMismatch(
                f"coordinate axis {self.axis} out of range for dimension {points.shape[1]}"
            )
        return points[:, self.axis].astype(np.float64)


@dataclass(frozen=True)
class Norm1(Node):
    kind = "norm1"

    def _facts(self, kids):
        return (1.0, 1), True, None, -1

    def _eval_grid(self, points, norms, values):
        return norms.astype(np.float64)


@dataclass(frozen=True)
class PolyEnv(Node):
    kind = "polyenv"

    k: int = ranged(NONNEG)

    def _facts(self, kids):
        return (1.0, self.k), True, (1.0, 0), -1

    def _eval_grid(self, points, norms, values):
        return (1.0 + norms) ** self.k


@dataclass(frozen=True)
class ExpDecay(Node):
    kind = "expdecay"

    rate: float = ranged(POSITIVE)

    def _facts(self, kids):
        return (1.0, 0), True, None, -1

    def _eval_grid(self, points, norms, values):
        return np.exp(-self.rate * norms)


@dataclass(frozen=True)
class Add(Node):
    kind = "add"

    args: tuple[Node, ...] = ranged(NON_EMPTY)

    def children(self):
        return self.args

    def _facts(self, kids):
        m, k, nonneg, floor, axis = 0.0, 0, True, None, -1
        for (c, j), sign, f, x in kids:  # plain statements: max() calls cost more than the rule
            m += c
            k = j if j > k else k
            nonneg = nonneg and sign
            axis = x if x > axis else axis
            if f and (floor is None or (f[1], -f[0]) < (floor[1], -floor[0])):
                floor = f  # the first of least K, then of largest delta
        return (m, k), nonneg, floor if nonneg else None, axis  # a nonnegative sum: its best term's floor

    def _eval_grid(self, points, norms, values):
        return _accumulate(np.add, values)


@dataclass(frozen=True)
class Mul(Node):
    kind = "mul"

    args: tuple[Node, ...] = ranged(NON_EMPTY)

    def children(self):
        return self.args

    def _facts(self, kids):
        m, k, nonneg, floor, axis = 1.0, 0, True, (1.0, 0), -1
        for (c, j), sign, f, x in kids:
            m = m * c or _TINY
            k += j
            nonneg = nonneg and sign
            axis = x if x > axis else axis
            floor = floor and f and (floor[0] * f[0], floor[1] + f[1])
        return (m, k), nonneg, floor and _floor(*floor), axis

    def _eval_grid(self, points, norms, values):
        return _accumulate(np.multiply, values)


@dataclass(frozen=True)
class Neg(Node):
    kind = "neg"

    arg: Node

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        cert, _, floor, axis = kids[0]
        return cert, False, floor, axis

    def _eval_grid(self, points, norms, values):
        return -values[0]


@dataclass(frozen=True)
class Conj(Node):
    kind = "conj"

    arg: Node

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        return kids[0]

    def _eval_grid(self, points, norms, values):
        return np.conj(values[0])


@dataclass(frozen=True)
class Abs(Node):
    kind = "abs"

    arg: Node

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        cert, _, floor, axis = kids[0]
        return cert, True, floor, axis

    def _eval_grid(self, points, norms, values):
        return np.abs(values[0])


@dataclass(frozen=True)
class Arg(Node):
    kind = "arg"

    arg: Node

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        return (math.pi, 0), False, None, kids[0][3]

    def _eval_grid(self, points, norms, values):
        out = _real_select(values[0], _ARG_OF_SIGN)
        return _angle(values[0]) if out is None else out


@dataclass(frozen=True)
class Phase(Node):
    kind = "phase"

    arg: Node

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        return (1.0, 0), False, (1.0, 0), kids[0][3]

    def _eval_grid(self, points, norms, values):
        out = _real_select(values[0], _PHASE_OF_SIGN)
        return np.exp(-1j * _angle(values[0])) if out is None else out


@dataclass(frozen=True)
class Clip(Node):
    kind = "clip"

    arg: Node
    eps: float = ranged(POSITIVE)

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        (m, k), nonneg, _, axis = kids[0]
        return (max(m, self.eps), k), nonneg, (self.eps, 0), axis

    def _eval_grid(self, points, norms, values):
        v = values[0]
        return np.where(np.abs(v) >= self.eps, v, self.eps)


@dataclass(frozen=True)
class Recip(Node):
    """Pointwise reciprocal, annotated with a lower-bound witness.

    The witness asserts |arg(n)| >= delta * (1 + |n|_1)^(-K), which makes
    (1/delta, K) a growth certificate for the reciprocal.  Evaluating at a
    point where the argument vanishes raises WitnessViolation.  On the
    wire, delta and K sit in a nested "witness" object.
    """

    kind = "recip"

    arg: Node
    delta: float = ranged(POSITIVE, wire="witness")
    K: int = ranged(NONNEG, wire="witness")

    def children(self):
        return (self.arg,)

    def _facts(self, kids):
        # The argument's growth (m, k) floors the reciprocal at (1/m, k).
        (m, k), nonneg, _, axis = kids[0]
        return (1.0 / self.delta or _TINY, self.K), nonneg, _floor(1.0 / m, k), axis

    def _eval_grid(self, points, norms, values):
        v = values[0]
        zero = v == 0
        if zero.any():
            where = int(np.argmax(zero))
            raise WitnessViolation(tuple(int(c) for c in points[where]))
        return 1.0 / v


def evaluate(node: Node, index: LatticeIndex) -> complex:
    """Evaluate a tree at one lattice index: a one-row ``evaluate_grid``."""
    point = np.array([tuple(int(c) for c in index)], dtype=np.int64)
    return complex(evaluate_grid(node, point)[0])


def evaluate_grid(node: Node, points: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a tree on a block of lattice points (shape count x dimension), as complex128."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _evaluate(node, points, norms).astype(np.complex128, copy=False)


# Inner nodes' values kept between calls, least recently used out past _VALUE_BYTES
# of arrays; an array over _ENTRY_BYTES is not kept, so a large ball keeps nothing.
_VALUE_BYTES, _ENTRY_BYTES = 256 << 10, 16 << 10
# (id(node), window) -> (weak reference to the node, read-only array); bytes held; lock
_values, _values_held, _values_lock = OrderedDict(), [0], threading.Lock()


def _keep(node: Node, window, value: np.ndarray) -> None:
    if value.ndim and value.nbytes <= _ENTRY_BYTES:
        value.setflags(write=False)  # a sum or product that starts from it writes a new array
        key, entry = (id(node), window), (weakref.ref(node), value)
        with _values_lock:
            old = _values.pop(key, None)  # a dead node's, whose id this node reuses
            _values[key] = entry
            _values_held[0] += value.nbytes - (old[1].nbytes if old else 0)
            while _values_held[0] > _VALUE_BYTES:
                _values_held[0] -= _values.popitem(last=False)[1][1].nbytes


def _values_clear() -> None:
    with _values_lock:
        _values.clear()
        _values_held[0] = 0


ball.also_clear.append(_values_clear)


def _evaluate(node: Node, points: np.ndarray, norms: np.ndarray | None = None, window=None) -> np.ndarray:
    """``evaluate_grid`` in the tree's own lane: float64 for a real tree.  ``window`` names
    the rows ``points`` holds; with it, kept values stand in for subtrees, and new ones are kept."""
    if norms is None:
        norms = np.abs(points).sum(axis=1)
    arrays: dict[int, np.ndarray] = {}  # computed values, and from the walk on the kept ones it finds

    def kept(n: Node) -> bool:  # a node that reuses a dead node's id misses
        key = (id(n), window)
        with _values_lock:
            ref, value = _values.get(key, (None, None))
            if ref is None or ref() is not n:
                return False
            _values.move_to_end(key)
        arrays[id(n)] = value
        return True

    order, readers = _postorder(node, kept if window else None)

    def take(c: Node) -> np.ndarray:
        """``c``'s array for its last reader, and a read-only view of it for an earlier one."""
        left = readers[id(c)] = readers[id(c)] - 1
        value = arrays[id(c)] if left else arrays.pop(id(c))
        if left and value.ndim:  # no fold writes into a 0-d value
            value = value.view()
            value.flags.writeable = False
        return value

    for n, kids in order:
        if id(n) not in arrays:  # else the walk found it kept
            arrays[id(n)] = n._eval_grid(points, norms, [take(c) for c in kids])
        if window and kids:
            _keep(n, window, arrays[id(n)])
    out = arrays[id(node)]
    return np.full(points.shape[0], out) if out.ndim == 0 else out


def _postorder(root: Node, stop=None) -> tuple[list[tuple[Node, tuple[Node, ...]]], dict[int, int]]:
    """Every distinct node under ``root`` once with its children, after them.

    Nodes are told apart by identity, so a subtree shared by several
    parents is listed once however often the tree repeats it.  A node for
    which ``stop(node)`` is true is listed as a leaf, with no children.
    Also returns, by node id, how many argument slots of listed nodes hold
    that node (0 for the root).
    """
    order: list[tuple[Node, tuple[Node, ...]]] = []
    readers = {id(root): 0}
    kids = root.children()
    kids = () if kids and stop and stop(root) else kids
    stack = [(root, kids, iter(kids))]
    while stack:
        n, kids, pending = stack[-1]
        for c in pending:
            if id(c) in readers:
                readers[id(c)] += 1
                continue
            readers[id(c)] = 1
            grandkids = c.children()
            if grandkids and not (stop and stop(c)):
                stack.append((c, grandkids, iter(grandkids)))
                break
            order.append((c, ()))
        else:
            stack.pop()
            order.append((n, kids))
    return order, readers


def _fold(order: list[tuple[Node, tuple[Node, ...]]], rule) -> dict[int, typing.Any]:
    """``rule(node, child_results)`` for each node of a post-order, by node id."""
    memo: dict[int, typing.Any] = {}
    for n, kids in order:
        memo[id(n)] = rule(n, [memo[id(c)] for c in kids])
    return memo


def same_tree(a: Node, b: Node) -> bool:
    """``a == b`` without recursion: the same node classes with equal fields, pair by pair.
    Identical nodes match at once, and each pair of nodes is compared once however
    often shared subtrees repeat it."""
    stack, seen = [(a, b)], set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y):
            stack.extend(zip(x, y))
        elif isinstance(x, Node):
            if type(x) is not type(y):
                return False
            stack.extend((getattr(x, f.name), getattr(y, f.name)) for f in fields(x))
        elif x != y:
            return False
    return True


@dataclass(frozen=True)
class GrowthCertificate(Ranged):
    """Claim |a(n)| <= M * (1 + |n|_1)^k."""

    M: float = ranged(POSITIVE)
    k: int = ranged(NONNEG)

    def bound_at(self, norms: np.ndarray) -> np.ndarray:
        return self.M * (1.0 + norms) ** self.k


def _facts_of(node: Node) -> tuple:
    """The root's facts record (see ``Node._facts``): one fold over the post-order."""
    return _fold(_postorder(node)[0], lambda n, kids: n._facts(kids))[id(node)]


def composed_cert(node: Node) -> tuple[float, int]:
    """Growth certificate (M, k) composed syntactically from the leaves."""
    return _facts_of(node)[0]


def is_nonneg_real(node: Node) -> bool:
    """True when the tree provably takes values in [0, inf) at every index.

    Conservative: False only means "not established syntactically".
    """
    return _facts_of(node)[1]


def lower_bound_cert(node: Node) -> tuple[float, int] | None:
    """Certified pointwise lower bound |value(n)| >= delta * (1+|n|_1)^(-K).

    Returns (delta, K) for the recognised invertible forms, None otherwise.
    Recognised: nonzero constants, polynomial envelopes, phase factors,
    clipped values, reciprocals of certified-growth trees, modulus /
    negation / conjugate wrappers, products of recognised forms, and sums
    of nonnegative terms at least one of which is recognised.
    """
    return _facts_of(node)[2]


def max_axis(node: Node) -> int:
    """Largest coordinate axis referenced anywhere in the tree, or -1."""
    return _facts_of(node)[3]


# ---------------------------------------------------------------------------
# JSON serialization.  A node's wire object is {"kind": cls.kind} plus its
# dataclass fields in order, children as nested objects; a field whose
# metadata names a "wire" group sits in that nested object instead.  A
# node carries no claim: a growth certificate is claimed beside a
# sequence's "expr" (see ``SlowSequence.from_json``); a "cert" key on a
# node, like any key that is no wire field, is rejected with its path.
# ---------------------------------------------------------------------------


@functools.cache
def _wire_fields(cls) -> tuple[tuple[str, object, str | None, Range | None], ...]:
    """(name, type, nested wire object or None, declared range or None) for each field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name], f.metadata.get("wire"), f.metadata.get("range")) for f in fields(cls)
    )


# The kind table: every node class with its wire fields, built once.
_WIRE = {cls: _wire_fields(cls) for cls in Node.__subclasses__()}
_KINDS = {cls.kind: cls for cls in _WIRE}
_KEYS = {cls: {"kind", *(group or name for name, _, group, _ in wire)} for cls, wire in _WIRE.items()}


def _wire_rule(node: Node, kids: list[dict]) -> dict:
    if type(node) not in _WIRE:
        raise InputError(f"cannot serialize node of type {type(node).__name__}")
    out, kids = {"kind": node.kind}, iter(kids)
    for name, hint, group, _ in _WIRE[type(node)]:
        value = getattr(node, name)
        if hint is Node or hint == tuple[Node, ...]:
            value = next(kids) if hint is Node else [next(kids) for _ in value]
        (out.setdefault(group, {}) if group else out)[name] = value
    return out


def to_json(node: Node) -> dict:
    """Serialize a tree to the JSON wire format (plain dicts, no certs); a shared subtree is one dict."""
    return _fold(_postorder(node)[0], _wire_rule)[id(node)]


# ---------------------------------------------------------------------------
# Typed readers for JSON values: the one validation layer for job files.
# Every error names the JSON path of the offending value; ``path`` is the
# path of the value (or of ``obj``; "" at the top level).  A JSON integer
# past +-sys.float_info.max is out of range, as no double holds it.  A
# ``rule`` is a declared range, taken from the field the value is read into.
# Records are written from the same declarations (``_write_fields``); the
# names a job file may hold are declared per command, in ``cli._HANDLERS``.
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _at(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _expect(obj: dict, key: str, path: str):
    if key not in obj:
        raise InputError(f"{_at(path, key)}: required")
    return obj[key]


def _known(obj: dict, keys, path: str) -> None:
    """Reject the first key of ``obj`` that is not among ``keys``."""
    for key in obj:
        if key not in keys:
            raise InputError(f"{_at(path, key)}: unknown key")


def _typed(value, path: str, types, what: str, rule: Range | None = None):
    # JSON true and false are no numbers, although Python's bool is an int.
    if not isinstance(value, types) or isinstance(value, bool):
        raise InputError(f"{path}: expected {what}, got {type(value).__name__}")
    if type(value) is int and not -sys.float_info.max <= value <= sys.float_info.max:
        raise InputError(f"{path}: number out of range")
    return rule.check(value, path) if rule else value


def _object(value, path: str) -> dict:
    return _typed(value, path, dict, "an object")


def _array(value, path: str, length: int | None = None, rule: Range | None = NON_EMPTY) -> list:
    """An array, of exactly ``length`` entries when given."""
    _typed(value, path, list, "an array", rule)
    if length is not None and len(value) != length:
        raise InputError(f"{path}: expected {length} entries, got {len(value)}")
    return value


def _real(value, path: str, rule: Range | None = None) -> float:
    return float(_typed(value, path, (int, float), "a number", rule))


def _int(value, path: str, rule: Range | None = None) -> int:
    return _typed(value, path, int, "an integer", rule)


def _reals(value, path: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """``_nested`` with ``_real`` leaves, as a float array.  Well-formed input passes a
    whole-array check instead of the walk, which then runs only to name the bad entry."""
    level = [value]
    for n in shape:
        if not all(type(v) is list and v and n in (None, len(v)) for v in level):
            break
        level = [x for v in level for x in v]
    else:
        if all(type(x) is float or type(x) is int and x.bit_length() < 1000 for x in level):
            return np.array(value, dtype=float)
    return np.array(_nested(value, path, shape, _real), dtype=float)


def _complex(value, path: str) -> complex:
    """A finite number, or an ``[re, im]`` pair of finite numbers."""
    if isinstance(value, list):
        return complex(*_nested(value, path, (2,), lambda part, where: _real(part, where, FINITE)))
    return complex(_real(value, path, FINITE))


def _nested(value, path: str, shape: tuple[int | None, ...], leaf) -> list:
    """Nested arrays ``len(shape)`` deep, level i of ``shape[i]`` entries (at
    least one when None), with every innermost entry read by ``leaf``."""
    if not shape:
        return leaf(value, path)
    items = _array(value, path, shape[0])
    return [_nested(item, _at(path, i), shape[1:], leaf) for i, item in enumerate(items)]


def _index(key: str, path: str, dimension: int) -> tuple[int, ...]:
    """An object key ``"m1,...,md"`` as a lattice index of ``dimension`` entries."""
    try:
        index = tuple(int(part) for part in key.split(","))
    except ValueError:
        index = ()
    if len(index) != dimension:
        raise InputError(f"{path}: key must be {dimension} comma-separated integers")
    return index


def _member(leaf, obj: dict, key: str, path: str, default=_REQUIRED, rule: Range | None = None):
    """``obj[key]`` read by ``leaf``; ``default`` when the key is absent and a default is given."""
    if key not in obj and default is not _REQUIRED:
        return default
    return leaf(_expect(obj, key, path), _at(path, key), rule)


_number = functools.partial(_member, _real)
_integer = functools.partial(_member, _int)
_SCALAR_READERS = {float: _number, int: _integer}


def _read_fields(cls, obj: dict, path: str) -> list:
    """The scalar fields of ``cls``, typed and in their declared ranges, from ``obj`` with no other key."""
    _known(obj, [name for name, *_ in _wire_fields(cls)], path)
    return [_SCALAR_READERS[hint](obj, name, path, rule=rule) for name, hint, _, rule in _wire_fields(cls)]


def _read_record(cls, obj: dict, key: str, path: str):
    """The ``cls`` record that ``_read_fields`` reads from the object ``obj[key]``."""
    where = _at(path, key)
    return cls(*_read_fields(cls, _object(obj[key], where), where))


def _write_fields(record) -> dict | None:
    """The object ``_read_fields`` reads ``record`` from: its fields in declared order; None for None."""
    return None if record is None else {name: getattr(record, name) for name, *_ in _wire_fields(type(record))}


def parse_node(obj, path: str = "expr", dimension=math.inf) -> Node:
    """Parse the JSON wire format; coordinate axes must lie below ``dimension``.

    A key that is no wire field is rejected as ``<path>.<key>: unknown key``,
    and a "cert" key as ``<path>.cert``: certificates are claimed beside a
    sequence's tree, not inside it.
    """
    obj = _object(obj, path)
    kind = _expect(obj, "kind", path)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"{path}: unknown node kind '{kind}'")
    keys = _KEYS[cls]
    if len(obj) != len(keys):  # a well-formed node holds exactly its keys
        if "cert" in obj:
            raise InputError(f"{_at(path, 'cert')}: not allowed on a tree node; claim it beside 'expr'")
        _known(obj, keys, path)
    values: list = []
    for name, hint, group, rule in _WIRE[cls]:
        source, where = obj, path
        if group:
            where = _at(path, group)
            source = _object(_expect(obj, group, path), where)
            _known(source, [n for n, _, g, _ in _WIRE[cls] if g == group], where)
        if hint in _SCALAR_READERS:
            values.append(_SCALAR_READERS[hint](source, name, where, rule=rule))
            continue
        raw, here = _expect(source, name, where), _at(where, name)
        if hint is Node:
            values.append(parse_node(raw, here, dimension))
            continue
        nodes = []  # a plain loop, not a generator: one Python frame per tree level
        for i, child in enumerate(_array(raw, here, rule=rule)):
            nodes.append(parse_node(child, _at(here, i), dimension))
        values.append(tuple(nodes))
    node = cls(*values)
    if isinstance(node, Coord) and node.axis >= dimension:
        raise DimensionMismatch(f"{path}.axis: must be < {dimension}, the dimension, got {node.axis}")
    return node
