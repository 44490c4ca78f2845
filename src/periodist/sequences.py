"""Polynomial-growth and rapidly decreasing sequences on the integer lattice.

Two value types, one a subclass of the other, as s is a subset of s':

* ``SlowSequence``: an expression tree together with a growth certificate
  ``(M, k)`` claiming ``|a(n)| <= M * (1 + |n|_1)^k``.  Certificates
  compose syntactically (sum, product, clip, reciprocal, ...) and can be
  spot-checked exhaustively on any window.  A tree is folded once when it
  becomes a sequence: the fold checks its axes and composes the
  certificate when none is claimed.

* ``FastSequence``: a slow sequence, with its composed certificate, that
  also carries decay data strong enough to bound every weighted sup
  ``p_k(b) = sup (1+|n|_1)^k |b(n)|``: either a declared finite support
  radius, or an exponential envelope
  ``|b(n)| <= C * (1+|n|_1)^j * exp(-rate*|n|_1)``.

The pairing ``<a, b> = sum a(n) b(n)`` is evaluated by truncation over a
1-norm ball, and the discarded tail is bounded using the fast factor's
decay at order ``k + d + 1`` together with the shell-count bound
``2^d (1+r)^(d-1)``; the leftover geometric-type sum is dominated by
``1/(1+R)``.  All certified bounds are inflated by a tiny relative slack
so double rounding can never push them below the true value.

Every window quantity is a plain ``for`` loop over ``scan``, which yields
the ball slice by slice with the trees' values there: a check returns at
its first violation, ``window_folds`` folds a max or min, and
``window_array`` fills one window-length array whose ``np.sum`` is a
window sum.  Results are bit-identical for every slice size.  A real
tree's values come as float64, whose ``np.abs`` has the bits of the
complex modulus of x + 0j.  A pairing multiplies in complex128, so its
terms keep the bits of (x + 0j)(y + 0j), -0.0 imaginary parts included.

``check_corona_window``, ``verify_bezout``, ``is_unit``, ``pairing``,
``seminorm``, ``weak_star_gap`` and ``SlowSequence.check_certificate``
accept a ``threads`` argument that is unused: callers still pass it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import CertificateError, DimensionMismatch, InputError
from .expr import GrowthCertificate
from .lattice import LatticeIndex, ball

# Relative inflation applied to certified bounds.  Large enough to absorb
# accumulated double rounding in the series loops, small enough to be
# invisible next to every tolerance in use.
_SLACK = 1.0 + 1e-11

_CHUNK = 1 << 16

# Radius of the window on which a claimed growth certificate is checked.
CLAIM_CHECK_RADIUS = 8

# The last term a series bound sums; where its sum would run past it, the bound is a closed form.
_SERIES_LAST = 10_000

# math.exp overflows above this argument.
_LOG_MAX = math.log(sys.float_info.max)

# Relative tolerance of the certificate check: |a(n)| may exceed the bound by this much.
_CERT_REL_TOL = 1e-12


def _bump(x: float) -> float:
    return x * _SLACK


def scan(trees: list[ex.Node], dimension: int, radius: int):
    """Yield the window |n|_1 <= radius in slices of at most ``_CHUNK`` points.

    Each slice is ``(points, norms, rows, values)``: the whole window, the
    slice ``rows`` of it and each tree's values there, in canonical order,
    float64 for a real tree and complex128 otherwise.
    ``values`` is emptied when the loop moves on: a body that keeps no array
    of its own holds one slice at a time.  Its rows name a slice to ``expr._evaluate``,
    which keeps inner nodes' values on small slices between calls.  Callers turn numpy's
    overflow warnings off around their loop: a block in here would leak into them while suspended.
    """
    points, norms = ball(dimension, radius)
    for start in range(0, points.shape[0], _CHUNK):
        rows = slice(start, min(start + _CHUNK, points.shape[0]))
        values = [ex._evaluate(t, points[rows], norms[rows], (dimension, start, rows.stop)) for t in trees]
        yield points, norms, rows, values
        values.clear()


def _flagged(points: np.ndarray, flags: np.ndarray) -> LatticeIndex | None:
    """The point of the first true flag, or None."""
    return tuple(int(c) for c in points[int(np.argmax(flags))]) if flags.any() else None


def window_folds(trees, dimension: int, radius: int, measures) -> list[float]:
    """For each ``(fold, measure)``, fold (``np.max`` or ``np.min``) of
    ``measure(norms, values)`` over the window.  Slice results are
    combined by the same fold, so NaN propagates and the value is exact."""
    parts: list[list] = [[] for _ in measures]
    with np.errstate(over="ignore", invalid="ignore"):
        for _, norms, rows, values in scan(trees, dimension, radius):
            for part, (fold, measure) in zip(parts, measures):
                part.append(fold(measure(norms[rows], values)))
    return [float(part[0] if len(part) == 1 else fold(part)) for part, (fold, _) in zip(parts, measures)]


def window_array(trees, dimension: int, radius: int, measure) -> np.ndarray:
    """``measure(norms, values)`` over the window as one array, in canonical scan order;
    a window sum is ``np.sum`` of it, so it rounds as one sum over the window.  A window
    of one slice returns that slice's array itself."""
    out = None
    with np.errstate(over="ignore", invalid="ignore"):
        for _, norms, rows, values in scan(trees, dimension, radius):
            part = measure(norms[rows], values)
            if len(part) == norms.shape[0]:  # the window is one slice
                return part
            if out is None:
                out = np.empty(norms.shape[0], part.dtype)
            out[rows] = part
            del part
    return out


def window_values(node: ex.Node, dimension: int, radius: int) -> np.ndarray:
    """Values of a tree over the 1-norm ball, in canonical scan order, as complex128."""
    values = window_array([node], dimension, radius, lambda norms, values: values[0])
    return values.astype(np.complex128, copy=not values.flags.writeable)  # a kept value is read-only


def _weighted_sup(b, k: int, radius: int) -> float:
    """sup of (1+|n|_1)^k |b(n)| over the window."""
    measure = (np.max, lambda norms, values: (1.0 + norms) ** k * np.abs(values[0]))
    return window_folds([b.expr], b.dimension, radius, [measure])[0]


# ---------------------------------------------------------------------------
# Certified bounds for polynomial-times-exponential envelopes.
# ---------------------------------------------------------------------------


def poly_exp_sup(order: int, rate: float, start: float = 0.0) -> float:
    """Certified sup over real r >= start of (1+r)^order * exp(-rate*r); inf where the
    peak order/rate or the sup passes the double range.  Where the power passes it, or
    the exponential is below the normal range (and has lost relative precision), the sup
    is one exp of its logarithm, raised first by a bound on that logarithm's rounding
    error (the rounding of the base, ``math.log`` and each operation).  A sup below the
    normal range is raised to the next double, so the least result is 5e-324, never 0."""
    ex.POSITIVE.check(rate, "rate")
    try:
        peak = order / rate - 1.0
        if peak == math.inf:  # inf ** order times an exp that rounds to 0 would be NaN
            return math.inf
        base, exponent = (1.0 + start, -rate * start) if peak <= start else (order / rate, rate - order)
        try:
            factor = math.exp(exponent)
            if factor < sys.float_info.min:
                raise OverflowError  # to the log form
            value = base**order * factor
        except OverflowError:
            power = order * math.log(base)
            value = math.exp(power + exponent + 4 * sys.float_info.epsilon * (abs(power) + abs(exponent) + order))
    except OverflowError:
        return math.inf
    return _bump(value) if value >= sys.float_info.min else math.nextafter(value, math.inf)


def poly_exp_series_bound(order: int, rate: float) -> float:
    """Certified upper bound for sum over r >= 0 of (1+r)^order * exp(-rate*r).

    Terms are summed until their ratio drops under a threshold strictly
    between exp(-rate) and 1, then the remainder is dominated by a
    geometric series at that ratio.  The ratio only falls as r grows; where
    it is still above the threshold at term ``_SERIES_LAST``, or where a
    power in the sum passes the double range, the bound is the closed form
    of ``_integral_bound``.  The bound is inf where exp(-rate) rounds to 1,
    so that no ratio falls below 1 in doubles.
    """
    ex.POSITIVE.check(rate, "rate")
    decay = math.exp(-rate)
    if decay == 1.0:
        return math.inf
    stop = (1.0 + decay) / 2.0
    total = 0.0
    try:
        last = ((2.0 + _SERIES_LAST) / (1.0 + _SERIES_LAST)) ** order * decay
        if last <= stop and last < 1.0:  # the loop stops by _SERIES_LAST
            for r in range(_SERIES_LAST + 1):
                term = (1.0 + r) ** order * math.exp(-rate * r)
                ratio = ((2.0 + r) / (1.0 + r)) ** order * decay
                if ratio <= stop and ratio < 1.0:  # the threshold itself may round to 1
                    return _bump(total + (term + term * ratio / (1.0 - ratio)))
                total += term
    except OverflowError:
        pass
    return _integral_bound(order, rate)


def _integral_bound(order: int, rate: float) -> float:
    """e^rate Gamma(order+1) / rate^(order+1) + 2 ``poly_exp_sup(order, rate)``, rounded up,
    or inf where it passes the double range.

    This bounds the series because its terms rise to one peak and then fall:
    every term but the two next to the peak is at most the integral of
    (1+r)^order exp(-rate r) over the unit step beside it, away from the peak,
    and the whole integral is at most the first summand.  A finite peak with
    e^rate in range keeps ``order`` under 1,300, so the product loop is short.
    """
    peak = poly_exp_sup(order, rate)
    if peak == math.inf or rate > _LOG_MAX:
        return math.inf
    integral = math.exp(rate) / rate
    for i in range(1, order + 1):
        integral *= i / rate  # overflows to inf, never raises
    return _bump(integral + 2.0 * peak)


# ---------------------------------------------------------------------------
# Growth certificates and slowly growing sequences.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateCheck:
    holds: bool
    first_violation: LatticeIndex | None
    max_ratio: float


@dataclass(frozen=True)
class SlowSequence(ex.Ranged):
    """Expression tree plus growth certificate, over Z^dimension.  Without a ``cert``
    the certificate is ``composed_cert`` of the tree."""

    expr: ex.Node
    dimension: int = ex.ranged(ex.AT_LEAST_ONE)
    cert: GrowthCertificate | None = None

    def __post_init__(self):
        super().__post_init__()
        cert, _, _, axis = ex._facts_of(self.expr)  # one fold checks the axes and composes the certificate
        if axis >= self.dimension:
            raise DimensionMismatch(f"expr: references axis {axis} but dimension is {self.dimension}")
        if self.cert is None:
            object.__setattr__(self, "cert", GrowthCertificate(*cert))

    # -- construction -------------------------------------------------

    @staticmethod
    def from_expr(tree: ex.Node, dimension: int) -> "SlowSequence":
        return SlowSequence(tree, dimension)

    @staticmethod
    def from_json(obj, dimension: int, path: str = "") -> "SlowSequence":
        """Parse ``{"expr": tree}`` with an optional claim ``"cert": {"M", "k"}``
        beside it, which must hold on every index of the window of radius
        ``CLAIM_CHECK_RADIUS``; without a claim the certificate is
        ``composed_cert`` of the tree.  Any other key is rejected.  Error
        messages name fields by their JSON path below ``path``.
        """
        obj = ex._object(obj, path or "sequence")
        for key in ("decay", "support"):
            if key in obj:
                raise InputError(f"{ex._at(path, key)}: a slow sequence takes no {key} claim")
        node = ex.parse_node(ex._expect(obj, "expr", path), ex._at(path, "expr"), dimension)
        ex._known(obj, ("expr", "cert"), path)
        if "cert" not in obj:
            return SlowSequence(node, dimension)
        cert = ex._read_record(GrowthCertificate, obj, "cert", path)
        seq = SlowSequence(node, dimension, cert)
        check = seq.check_certificate(CLAIM_CHECK_RADIUS)
        if not check.holds:
            raise CertificateError(
                f"{ex._at(path, 'cert')}: claimed certificate (M={cert.M}, k={cert.k}) fails at "
                f"lattice index {check.first_violation}"
            )
        return seq

    def to_json(self) -> dict:
        return {"expr": ex.to_json(self.expr), "cert": ex._write_fields(self.cert)}

    # -- evaluation ---------------------------------------------------

    def eval(self, index: LatticeIndex) -> complex:
        """The value at one lattice index of the sequence's dimension."""
        index = tuple(int(c) for c in index)
        if len(index) != self.dimension:
            raise DimensionMismatch(f"index has dimension {len(index)}, sequence has {self.dimension}")
        return ex.evaluate(self.expr, index)

    def window(self, radius: int) -> np.ndarray:
        """Values over the 1-norm ball in canonical scan order."""
        return window_values(self.expr, self.dimension, radius)

    def check_certificate(self, radius: int, threads: int = 1) -> CertificateCheck:
        """Exhaustively check the certificate on the window of this radius."""
        maxima, first = [], None
        # A bound or ratio past the double range is inf; inf / inf is read as 0 below, NaN fails.
        with np.errstate(over="ignore", invalid="ignore"):
            for points, norms, rows, values in scan([self.expr], self.dimension, radius):
                bound = self.cert.bound_at(norms[rows])
                ratios = np.abs(values[0]) / bound
                top = ratios.max()
                if np.isnan(top):  # a finite value whose modulus passes the double range: inf / inf is 0
                    ratios[np.isinf(bound) & np.isfinite(values[0])] = 0.0
                    top = ratios.max()
                maxima.append(top)  # no early exit: max_ratio covers the whole window
                first = first or _flagged(points[rows], ~(ratios <= 1.0 + _CERT_REL_TOL))  # NaN is a violation
                del ratios
        return CertificateCheck(first is None, first, float(np.max(maxima)))

    # -- pointwise algebra (certificates compose at the sequence level,
    #    so claimed certificates on the operands are respected) --------

    def __add__(self, other: "SlowSequence") -> "SlowSequence":
        return combine("add", self, other)

    def __mul__(self, other: "SlowSequence") -> "SlowSequence":
        return combine("mul", self, other)

    def __neg__(self) -> "SlowSequence":
        return combine("neg", self)

    def conjugate(self) -> "SlowSequence":
        return combine("conj", self)

    def phase_factor(self) -> "SlowSequence":
        return combine("phase", self)

    def reciprocal(self, delta: float, K: int) -> "SlowSequence":
        """Reciprocal under the witness |a(n)| >= delta * (1+|n|_1)^(-K)."""
        return _compose(ex.Recip(self.expr, delta, K), self)


def _compose(node: ex.Node, *operands: SlowSequence) -> SlowSequence:
    """`node` over the operands' trees, certified by the growth part of its own ``_facts``
    rule applied to the operands' certificates (claimed ones included), with sign unknown,
    no floor and no axis.  The operands' axes are already checked and ``node`` adds none,
    so the sequence is built without ``__post_init__``'s walk of the tree."""
    m, k = node._facts([((s.cert.M, s.cert.k), False, None, -1) for s in operands])[0]
    seq = object.__new__(SlowSequence)
    vars(seq).update(expr=node, dimension=operands[0].dimension, cert=GrowthCertificate(m, k))
    return seq


_UNARY_OPS = ("neg", "conj", "abs", "phase")


def combine(op: str, *seqs: SlowSequence) -> SlowSequence:
    """Pointwise combination; ``op`` is the wire kind of the node to build.

    The certificate comes from the growth part of that node's ``_facts``
    rule in ``expr`` applied to the operands' certificates, so claimed
    certificates on the operands are respected.
    """
    if op not in _UNARY_OPS + ("add", "mul"):
        raise InputError(f"unknown combine op '{op}'")
    if not seqs:
        raise InputError("combine needs at least one sequence")
    if any(s.dimension != seqs[0].dimension for s in seqs):
        raise DimensionMismatch("combine arguments must share a dimension")
    node_cls = ex._KINDS[op]
    if op in _UNARY_OPS:
        if len(seqs) != 1:
            raise InputError(f"combine '{op}' takes exactly one sequence")
        return _compose(node_cls(seqs[0].expr), *seqs)
    if len(seqs) < 2:
        raise InputError(f"combine '{op}' needs at least two sequences")
    return _compose(node_cls(tuple(s.expr for s in seqs)), *seqs)


# -- convenience constructors ----------------------------------------------


def constant(value: complex, dimension: int = 1) -> SlowSequence:
    value = complex(value)
    return SlowSequence.from_expr(ex.Const(value.real, value.imag), dimension)


def coordinate(axis: int, dimension: int | None = None) -> SlowSequence:
    if dimension is None:
        dimension = axis + 1
    return SlowSequence.from_expr(ex.Coord(axis), dimension)


def poly_envelope(k: int, dimension: int = 1) -> SlowSequence:
    return SlowSequence.from_expr(ex.PolyEnv(k), dimension)


def exp_decay_sequence(rate: float, dimension: int = 1) -> SlowSequence:
    return SlowSequence.from_expr(ex.ExpDecay(rate), dimension)


# ---------------------------------------------------------------------------
# Rapidly decreasing sequences.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayBound(ex.Ranged):
    """Envelope |b(n)| <= C * (1+|n|_1)^j * exp(-rate * |n|_1)."""

    C: float = ex.ranged(ex.POSITIVE)
    j: int = ex.ranged(ex.NONNEG)
    rate: float = ex.ranged(ex.POSITIVE)


@dataclass(frozen=True)
class FastSequence(SlowSequence):
    """A slow sequence with decay data bounding every seminorm p_k.

    At least one of ``decay`` (exponential envelope) or ``support``
    (declared finite support radius in the 1-norm) must be present.
    Declared support means the claim ``b(n) = 0 for |n|_1 > support``.
    Its growth certificate is composed from the tree: JSON claims none.
    """

    decay: DecayBound | None = None
    support: int | None = ex.ranged(ex.NONNEG, None)

    def __post_init__(self):
        super().__post_init__()
        if self.decay is None and self.support is None:
            raise InputError("a fast sequence needs a decay envelope or a declared support")

    def seminorm_bound(self, k: int) -> float:
        """Certified upper bound on p_k(b) = sup (1+|n|_1)^k |b(n)|."""
        ex.NONNEG.check(k, "k")
        best = math.inf
        if self.support is not None:
            best = min(best, _bump(_weighted_sup(self, k, self.support)))
        if self.decay is not None:
            best = min(best, _bump(self.decay.C * poly_exp_sup(k + self.decay.j, self.decay.rate)))
        return best

    def abs_sum_bound(self) -> float:
        """Certified upper bound on the full sum of |b(n)| over Z^d."""
        return self._sum_bound(lambda norms, values: np.abs(values[0]), 0)

    def weighted_abs_sum_bound(self) -> float:
        """Certified upper bound on the sum of |n|_1 * |b(n)| over Z^d."""
        # r * count(d, r) <= 2^d (1+r)^d, absorbing one envelope power.
        return self._sum_bound(lambda norms, values: norms * np.abs(values[0]), 1)

    def _sum_bound(self, measure, power: int) -> float:
        """The smaller of the sum of ``measure`` over a declared support and the
        envelope series with ``power`` more powers of (1+r)."""
        best = math.inf
        if self.support is not None:
            values = window_array([self.expr], self.dimension, self.support, measure)
            best = min(best, _bump(float(values.sum())))
        if self.decay is not None:
            d, j = self.dimension, self.decay.j
            series = poly_exp_series_bound(d - 1 + power + j, self.decay.rate)
            best = min(best, _bump(self.decay.C * 2**d * series))
        return best

    def to_json(self) -> dict:
        out: dict = {"expr": ex.to_json(self.expr)}
        if self.decay is not None:
            out["decay"] = ex._write_fields(self.decay)
        if self.support is not None:
            out["support"] = self.support
        return out

    @staticmethod
    def from_json(obj, dimension: int, path: str = "") -> "FastSequence":
        """Parse ``{"expr": tree, "decay": {"C", "j", "rate"}, "support": R}``; any other
        key is rejected, and errors name fields by their JSON path below ``path``."""
        obj = ex._object(obj, path or "sequence")
        if "cert" in obj:
            raise InputError(f"{ex._at(path, 'cert')}: a fast sequence takes no growth certificate")
        node = ex.parse_node(ex._expect(obj, "expr", path), ex._at(path, "expr"), dimension)
        ex._known(obj, ("expr", "decay", "support"), path)
        decay = ex._read_record(DecayBound, obj, "decay", path) if "decay" in obj else None
        support = ex._integer(obj, "support", path, None, ex._ranges(FastSequence)["support"])
        if decay is None and support is None:
            raise InputError(f"{path or 'sequence'}: needs a 'decay' envelope or a declared 'support'")
        return FastSequence(node, dimension, decay=decay, support=support)


def fast_exp_decay(rate: float, dimension: int = 1) -> FastSequence:
    """The sequence exp(-rate * |n|_1) with its exact envelope."""
    return FastSequence(ex.ExpDecay(rate), dimension, decay=DecayBound(1.0, 0, rate))


def _shifted_norm_expr(point: LatticeIndex) -> ex.Node:
    """Expression for |n - point|_1 built from coordinate shifts."""
    if all(c == 0 for c in point):
        return ex.Norm1()
    terms: list[ex.Node] = []
    for axis, c in enumerate(point):
        base: ex.Node = ex.Coord(axis)
        if c != 0:
            base = ex.Add((base, ex.Const(-float(c))))
        terms.append(ex.Abs(base))
    return terms[0] if len(terms) == 1 else ex.Add(tuple(terms))


def indicator_expr(point: LatticeIndex) -> ex.Node:
    """Expression equal to 1 at `point` and 0 elsewhere.

    Uses the clip primitive: |n - point|_1 minus its clipped-at-1/2 copy is
    -1/2 exactly at the point and 0 elsewhere; scaling by -2 normalises.
    """
    shifted = _shifted_norm_expr(point)
    return ex.Mul((ex.Const(-2.0), ex.Add((shifted, ex.Neg(ex.Clip(shifted, 0.5))))))


def from_values(values: dict[LatticeIndex, complex], dimension: int) -> FastSequence:
    """Finitely supported sequence from an explicit index -> value map."""
    items = sorted(
        ((tuple(int(c) for c in k), complex(v)) for k, v in values.items()),
        key=lambda kv: (sum(abs(c) for c in kv[0]), kv[0]),
    )
    terms: list[ex.Node] = []
    radius = 0
    for point, value in items:
        if len(point) != dimension:
            raise DimensionMismatch("value map key has the wrong dimension")
        if value == 0:
            continue
        radius = max(radius, sum(abs(c) for c in point))
        terms.append(ex.Mul((ex.Const(value.real, value.imag), indicator_expr(point))))
    if not terms:
        return FastSequence(ex.Const(0.0), dimension, support=0)
    tree = terms[0] if len(terms) == 1 else ex.Add(tuple(terms))
    return FastSequence(tree, dimension, support=radius)


# ---------------------------------------------------------------------------
# Seminorms and the duality pairing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormResult:
    sup_on_window: float
    certified_bound: float


def seminorm(b: FastSequence, k: int, radius: int, threads: int = 1) -> SeminormResult:
    """Weighted sup p_k(b) over the window, plus a certified global bound."""
    ex.NONNEG.check(k, "k")
    ex.NONNEG.check(radius, "radius")
    sup = _weighted_sup(b, k, radius)
    if b.support is not None and b.support <= radius:
        outside = 0.0
    elif b.decay is not None:
        outside = _bump(
            b.decay.C * poly_exp_sup(k + b.decay.j, b.decay.rate, start=float(radius))
        )
    else:
        outside = b.seminorm_bound(k)
    return SeminormResult(sup, max(_bump(sup), outside))


@dataclass(frozen=True)
class PairingResult:
    value: complex
    tail_bound: float


def pairing(a: SlowSequence, b: FastSequence, radius: int, threads: int = 1) -> PairingResult:
    """Truncated duality pairing sum over |n|_1 <= radius with a tail bound.

    The tail over |n|_1 > radius is bounded by
    M * p-bound(k + d + 1) * 2^d / (1 + radius), combining the growth
    certificate of ``a``, the decay of ``b`` at order k + d + 1, and the
    shell-count bound.  A declared support inside the window makes it 0.
    """
    return _pairing(a, b, radius, lambda norms, values: np.multiply(values[0], values[1], dtype=np.complex128))


def _pairing(a: SlowSequence, b: FastSequence, radius: int, product) -> PairingResult:
    """``pairing`` with the window products ``product(norms, [a values, b values])``."""
    if a.dimension != b.dimension:
        raise DimensionMismatch("pairing arguments must share a dimension")
    ex.NONNEG.check(radius, "radius")
    products = window_array([a.expr, b.expr], a.dimension, radius, product)
    with np.errstate(over="ignore"):  # a sum past the double range is inf, as reported
        value = complex(np.sum(products))
    del products  # not held while the tail bound scans b's support
    tail = 0.0 if b.support is not None and b.support <= radius else _tail_bound(a.cert, b, radius)
    return PairingResult(value, tail)


def _tail_bound(cert: GrowthCertificate, b: FastSequence, radius: int) -> float:
    """Certified bound on the sum of |a(n) b(n)| over |n|_1 > radius for ``a`` of growth
    ``cert``: M * p-bound(k + d + 1) * 2^d / (1 + radius)."""
    d = b.dimension
    return _bump(cert.M * b.seminorm_bound(cert.k + d + 1) * 2**d / (1.0 + radius))
