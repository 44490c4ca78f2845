"""The two workloads that call the library API: window-scan and reduction-chain.

Each workload is a list of blocks.  A block has a fixed composition (which
calls, which window classes, which family sizes) and only the seeded
parameters change from block to block, so percentiles taken over whole
blocks do not depend on how many heavy ops a seed happens to draw.

Every op carries its expectation, fixed when it is generated from the
construction itself or from ``oracle``; ``check`` compares the package's
answer against it and never consults the package.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import oracle
from . import trees as t

# Sub-window on which the plain-Python evaluator must match window().
SUBWINDOW = 2

# ---------------------------------------------------------------------------
# window-scan
# ---------------------------------------------------------------------------

WS_KINDS = ("corona", "bezout", "certificate", "pairing", "seminorm", "unit", "gap")
# Radius range per dimension: every ball holds 5k to 246k points.
WS_RADII = {2: (50, 350), 3: (16, 50), 4: (10, 24)}
# Fresh windows per block and dimension, 21 in all: each of the 7 calls
# meets three of them.  A block adds one call of each kind on a window
# reused from the last REUSE_DEPTH fresh ones, so 7 of its 28 ops reuse.
WS_FRESH = {2: 11, 3: 7, 4: 3}
REUSE_DEPTH = 8
# The radii of a dimension are visited in one fixed cycle, STRIDE apart,
# so every block's fresh windows spread over the whole range of sizes.  A
# radius comes round again only after its whole cycle, at least four full
# blocks (84 fresh windows) later: against the 64-entry ball cache every
# fresh window is built and every reused one is served from the cache.
WS_STRIDE = {2: 27, 3: 6, 4: 4}


def _stratum(lo: int, hi: int, index: int, count: int, rng: random.Random) -> int:
    width = hi - lo + 1
    a = lo + width * index // count
    b = lo + width * (index + 1) // count - 1
    return rng.randint(a, max(a, b))


def _integer_point(dimension: int, norm: int, rng: random.Random) -> tuple[int, ...]:
    """A lattice point with 1-norm exactly `norm`."""
    cuts = sorted(rng.randint(0, norm) for _ in range(dimension - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
    return tuple(p if rng.random() < 0.5 else -p for p in parts)


def _first_on_shell(dimension: int, radius: int) -> tuple[int, ...]:
    """First point of a shell in canonical order: (-r, 0, ..., 0)."""
    return (-radius,) + (0,) * (dimension - 1)


def _decay(rng: random.Random, radius: int) -> tuple[float, float]:
    """Amplitude and rate with rate * radius in [2, 12]: the tail is not negligible."""
    return rng.uniform(0.5, 2.0), rng.uniform(2.0, 12.0) / radius


def _gen_corona(d, R, rng):
    fails = rng.random() < 0.5
    delta = rng.choice((0.05, 0.1, 0.25, 0.5))
    K = rng.randint(0, 2)
    rate = rng.choice((0.01, 0.02, 0.05, 0.1))
    if fails:
        # |n - c|_1 vanishes only at the integer point c and is >= 1
        # elsewhere; the decaying member stays below the floor at c.
        c = _integer_point(d, rng.randint(0, R), rng)
        norm = sum(abs(x) for x in c)
        floor = delta * (1.0 + norm) ** (-K)
        s = rng.uniform(0.1, 0.5) * floor * math.exp(rate * norm)
    else:
        # A half-integer coordinate keeps |n - c|_1 >= 1/2 >= delta.
        c = list(_integer_point(d, rng.randint(0, R - 1), rng))
        c[rng.randrange(d)] += 0.5
        s = rng.uniform(0.01, 1.0)
    family = [t.shifted_coord(i, float(c[i])) for i in range(d)]
    family.append(t.mul(t.const(s), t.expdecay(rate)))
    expect = {"holds": not fails, "first": tuple(int(x) for x in c) if fails else None}
    return {"family": family, "delta": delta, "K": K}, expect


def _gen_bezout(d, R, rng):
    q = rng.uniform(0.5, 2.0)
    family = [t.shifted_coord(i, rng.uniform(-R / d, R / d)) for i in range(d)]
    family.append(t.const(q))
    return {"family": family, "delta": q * rng.uniform(0.5, 1.0), "K": rng.randint(0, 1)}, {}


def _gen_certificate(d, R, rng):
    # |value| = s * (|n|_1 + b0) * (1 + |n|_1)^j against the claim (M, j + 1).
    # Eighths keep s*(r + b0) - M*(1 + r) either 0 or at least 1/64, so the
    # verdict never sits within the 1e-12 check tolerance.
    j = rng.randint(0, 2)
    s = Fraction(rng.randint(2, 32), 8)
    b0 = Fraction(rng.randint(0, 16), 8)
    if rng.random() < 0.5:
        M = max(s, s * b0) + Fraction(rng.randint(0, 8), 8)
    else:
        M = Fraction(rng.randint(1, int(8 * s) - 1), 8)
    first = next((r for r in range(R + 1) if s * (r + b0) > M * (1 + r)), None)
    tree = t.mul(t.const(s), t.add(t.norm1(), t.const(b0)), t.polyenv(j), t.phase(t.shifted_coord(0, 0.5)))
    expect = {"holds": first is None, "first": None if first is None else _first_on_shell(d, first)}
    return {"tree": tree, "M": float(M), "k": j + 1}, expect


def _radial_slow(rng):
    k = rng.randint(0, 2)
    return t.add(
        t.mul(t.const(rng.uniform(0.1, 2.0)), t.polyenv(k)),
        t.mul(t.const(rng.uniform(0.1, 2.0)), t.norm1()),
        t.const(rng.uniform(0.1, 2.0)),
    )


def _gen_pairing(d, R, rng):
    a = _radial_slow(rng)
    amplitude, rate = _decay(rng, R)
    b = t.mul(t.const(amplitude), t.expdecay(rate))
    value = oracle.radial_sum(d, 0, R, [a, b])
    partial = abs(oracle.radial_sum(d, R + 1, R + 3, [a, b]))
    decay = {"C": amplitude, "j": 0, "rate": rate}
    return {"a": a, "b": b, "decay": decay}, {"value": value, "partial_tail": partial}


def _gen_seminorm(d, R, rng):
    j = rng.randint(0, 2)
    k = rng.randint(0, 3)
    amplitude, rate = _decay(rng, R)
    b = t.mul(t.const(amplitude), t.polyenv(j), t.expdecay(rate), t.phase(t.shifted_coord(d - 1, 0.5)))
    sup = max(amplitude * (1.0 + r) ** (j + k) * math.exp(-rate * r) for r in range(R + 1))
    return {"b": b, "decay": {"C": amplitude, "j": j, "rate": rate}, "k": k}, {"sup": sup}


def _gen_unit(d, R, rng):
    # |a| = g * | |n|_1 - m |: zero on the whole shell m when m is an integer.
    fails = rng.random() < 0.5
    m = rng.randint(0, R) if fails else rng.randint(0, R - 1) + 0.5
    a = t.mul(t.const(rng.uniform(1.0, 3.0)), t.add(t.norm1(), t.const(-m)), t.phase(t.shifted_coord(0, 0.5)))
    expect = {"holds": not fails, "first": _first_on_shell(d, int(m)) if fails else None}
    return {"a": a, "delta": rng.choice((0.1, 0.25, 0.5)), "K": rng.randint(0, 2)}, expect


def _gen_gap(d, R, rng):
    y = t.add(t.mul(t.const(rng.uniform(0.1, 1.0)), t.norm1()), t.coord(0), t.const(rng.uniform(-2.0, 2.0)))
    x = t.clip(y, rng.uniform(0.05, 0.45))
    amplitude, rate = _decay(rng, R)
    b = t.mul(t.const(amplitude), t.expdecay(rate))
    return {"x": x, "y": y, "b": b, "decay": {"C": amplitude, "j": 0, "rate": rate}}, {}


_WS_GENERATORS = {
    "corona": _gen_corona,
    "bezout": _gen_bezout,
    "certificate": _gen_certificate,
    "pairing": _gen_pairing,
    "seminorm": _gen_seminorm,
    "unit": _gen_unit,
    "gap": _gen_gap,
}


def _ws_op(kind, d, R, rng, reused):
    inputs, expect = _WS_GENERATORS[kind](d, R, rng)
    return {"kind": kind, "d": d, "R": R, "reused": reused, "inputs": inputs, "expect": expect}


def _ws_radius(d: int, position: int) -> int:
    """Radius at a position of dimension d's cycle."""
    lo, hi = WS_RADII[d]
    return lo + position * WS_STRIDE[d] % (hi - lo + 1)


def window_scan_blocks(seed: int, count: int) -> list[list[dict]]:
    """`count` blocks of 28 ops: 21 fresh windows and 7 reused ones.

    The schedule of calls and windows is the same for every seed, so the
    ball cache sees the same sequence and runs of different seeds cost
    alike; the seed draws the trees, constants, verdicts and violations.
    """
    history: list[tuple[int, int]] = []
    blocks = []
    for b in range(count):
        shape = random.Random(f"window-scan:schedule:{b}")
        rng = random.Random(f"window-scan:{seed}:{b}")
        windows = [(d, _ws_radius(d, b * n + i)) for d, n in WS_FRESH.items() for i in range(n)]
        kinds = list(WS_KINDS) * (len(windows) // len(WS_KINDS))
        shape.shuffle(kinds)
        slots = [(kind, d, R) for kind, (d, R) in zip(kinds, windows)]
        shape.shuffle(slots)
        for kind in WS_KINDS:
            slots.insert(shape.randint(1, len(slots)), (kind, None, None))
        ops = []
        for kind, d, R in slots:
            reused = d is None
            if reused:
                d, R = shape.choice(history[-REUSE_DEPTH:])
            else:
                history.append((d, R))
            ops.append(_ws_op(kind, d, R, rng, reused))
        blocks.append(ops)
    return blocks


# ---------------------------------------------------------------------------
# reduction-chain
# ---------------------------------------------------------------------------

# Family sizes per block.  N=6 is 1 op in 34 yet about a third of the time;
# p50 and p90 both fall inside the N=5 slice, away from its edges, and three
# blocks make the 100 ops a run needs.  The N=5 families are all
# two-dimensional with R 9 or 10 (181 or 221 points): the latency of ops
# dominated by interpreter overhead (few points) swings most with the
# host's speed, and p50 should not sit on them.
RC_SIZES = (4,) * 10 + (5,) * 23 + (6,)
RC_RADII = {4: (3, 10), 5: (9, 10), 6: (3, 10)}
RC_DIMENSIONS = {4: (1, 2), 5: (2,), 6: (1,)}


def _plain_member(shape, axis, rng):
    if shape == 0:
        return t.coord(axis)
    if shape == 1:
        return t.shifted_coord(axis, float(rng.choice((-3, -2, -1, 1, 2, 3))))
    if shape == 2:
        return t.mul(t.const(rng.choice((-2.0, -1.0, 0.5, 2.0))), t.coord(axis))
    return t.norm1()


def _certified_member(shape, d, rng):
    if shape == 0:
        return t.clip(t.coord(d - 1), rng.choice((0.25, 0.5, 1.0)))
    if shape == 1:
        return t.const(rng.choice((0.5, 1.0, 2.0)))
    if shape == 2:
        return t.polyenv(rng.randint(0, 2))
    return t.add(t.absval(t.coord(0)), t.const(rng.choice((0.5, 1.0))))


def reduction_chain_blocks(seed: int, count: int) -> list[list[dict]]:
    """`count` blocks of 34 family reductions.

    Tree shapes, dimensions, radii and order depend only on the slot, so
    every block costs about the same; the seed draws the constants.
    """
    blocks = []
    for b in range(count):
        shape = random.Random(f"reduction-chain:schedule:{b}")
        rng = random.Random(f"reduction-chain:{seed}:{b}")
        ops = []
        for slot, n in enumerate(RC_SIZES):
            dimensions = RC_DIMENSIONS[n]
            d = dimensions[(slot + b) % len(dimensions)]
            R = _stratum(*RC_RADII[n], slot % 5, 5, shape)
            family = [_plain_member((slot + i) % 4, i % d, rng) for i in range(n - 1)]
            family.insert(slot % n, _certified_member(slot % 4, d, rng))
            ops.append({"kind": "chain", "d": d, "R": R, "N": n, "inputs": {"family": family}, "expect": {}})
        shape.shuffle(ops)
        blocks.append(ops)
    return blocks


# ---------------------------------------------------------------------------
# Turning generated inputs into package objects, running and checking ops.
# ---------------------------------------------------------------------------


def generated_trees(op: dict) -> list[dict]:
    """Every wire-format tree among an op's inputs."""
    inputs = op["inputs"]
    return list(inputs.get("family", [])) + [v for v in inputs.values() if isinstance(v, dict) and "kind" in v]


def subwindow_matches(P, trees: list[dict], d: int) -> bool:
    """Plain-Python values of each tree equal SlowSequence.window() on a small ball."""
    points = oracle.subwindow(d, SUBWINDOW)
    for tree in trees:
        got = P.sequences.SlowSequence.from_json({"expr": tree}, d).window(SUBWINDOW)
        want = [oracle.evaluate(tree, p) for p in points]
        if len(got) != len(want) or not all(oracle.close(complex(g), w, 1e-12) for g, w in zip(got, want)):
            return False
    return True


def prepare(P, op: dict):
    """Package objects for an op, built from its generated inputs."""
    seq = P.sequences
    slow = lambda tree: seq.SlowSequence.from_json({"expr": tree}, op["d"])  # noqa: E731
    inputs = op["inputs"]
    kind = op["kind"]
    if kind in ("corona", "bezout", "chain"):
        objs = {"family": [slow(tree) for tree in inputs["family"]]}
        if kind == "bezout":
            objs["witness"] = P.corona.CoronaWitness(inputs["delta"], inputs["K"])
        return objs
    if kind == "certificate":
        node = slow(inputs["tree"]).expr
        return {"seq": seq.SlowSequence(node, op["d"], seq.GrowthCertificate(inputs["M"], inputs["k"]))}
    if kind == "unit":
        return {"a": slow(inputs["a"]), "witness": P.corona.CoronaWitness(inputs["delta"], inputs["K"])}
    fast = seq.FastSequence.from_json({"expr": inputs["b"], "decay": inputs["decay"]}, op["d"])
    if kind == "pairing":
        return {"a": slow(inputs["a"]), "b": fast}
    if kind == "seminorm":
        return {"b": fast}
    return {"x": slow(inputs["x"]), "y": slow(inputs["y"]), "b": fast}


def execute(P, op: dict, objs: dict, threads: int = 1):
    """The timed part of an op: the package calls and nothing else."""
    kind, R = op["kind"], op["R"]
    inputs = op["inputs"]
    if kind == "corona":
        return P.corona.check_corona_window(objs["family"], inputs["delta"], inputs["K"], R, threads)
    if kind == "bezout":
        cofactors = P.corona.solve_bezout(objs["family"], objs["witness"])
        return cofactors, P.corona.verify_bezout(objs["family"], cofactors, R, threads)
    if kind == "certificate":
        return objs["seq"].check_certificate(R, threads=threads)
    if kind == "pairing":
        return P.sequences.pairing(objs["a"], objs["b"], R, threads)
    if kind == "seminorm":
        return P.sequences.seminorm(objs["b"], inputs["k"], R, threads)
    if kind == "unit":
        return P.corona.is_unit(objs["a"], objs["witness"], R, threads)
    if kind == "gap":
        return P.stable_rank.weak_star_gap(objs["x"], objs["y"], objs["b"], R, threads)
    return _chain(P, objs["family"], R)


def _chain(P, family, R):
    witness = P.corona.certify_witness(family)
    cofactors = P.corona.solve_bezout(family, witness)
    first_residual = P.corona.verify_bezout(family, cofactors, R)
    witnesses = [witness.delta]
    certs = [c.cert.M for c in cofactors]
    while len(family) > 2:
        step = P.stable_rank.reduce_tuple(family, cofactors, radius=R)
        family, cofactors = step.family, step.cofactors
        witnesses.append(step.trace.result_inverse_witness.delta)
        certs.extend(c.cert.M for c in cofactors)
    final_residual = P.corona.verify_bezout(family, cofactors, R)
    return {"first_residual": first_residual, "final_residual": final_residual,
            "witnesses": witnesses, "certs": certs}


def _positive(x) -> bool:
    return math.isfinite(x) and x > 0


def check(op: dict, result) -> str | None:
    """None when the result matches the op's expectation, else a reason."""
    kind = op["kind"]
    expect = op["expect"]
    if kind in ("corona", "certificate", "unit"):
        holds = result.invertible if kind == "unit" else result.holds
        if holds != expect["holds"]:
            return f"verdict {holds}, expected {expect['holds']}"
        if result.first_violation != expect["first"]:
            return f"first violation {result.first_violation}, expected {expect['first']}"
        if kind == "unit" and holds and not _positive(result.inverse.cert.M):
            return "inverse certificate not finite and positive"
        if kind == "certificate" and not math.isfinite(result.max_ratio):
            return "max ratio not finite"
        return None
    if kind == "bezout":
        cofactors, residual = result
        if not residual <= 1e-12:
            return f"residual {residual}"
        if not all(_positive(c.cert.M) for c in cofactors):
            return "cofactor certificate not finite and positive"
        return None
    if kind == "pairing":
        if not oracle.close(result.value, expect["value"], 1e-9):
            return f"value {result.value}, expected {expect['value']}"
        if not (math.isfinite(result.tail_bound) and result.tail_bound >= expect["partial_tail"]):
            return f"tail bound {result.tail_bound} below partial tail {expect['partial_tail']}"
        return None
    if kind == "seminorm":
        if not oracle.close(result.sup_on_window, expect["sup"], 1e-9):
            return f"window sup {result.sup_on_window}, expected {expect['sup']}"
        if not (math.isfinite(result.certified_bound) and result.certified_bound >= result.sup_on_window):
            return "certified bound below the window sup"
        return None
    if kind == "gap":
        if not (_positive(result.bound) and result.gap <= result.bound):
            return f"gap {result.gap} not within bound {result.bound}"
        if not (math.isfinite(result.tail_bound) and result.tail_bound >= 0):
            return "tail bound not finite"
        return None
    if not result["first_residual"] <= 1e-12:
        return f"first residual {result['first_residual']}"
    if not result["final_residual"] <= 1e-10:
        return f"final residual {result['final_residual']}"
    if not all(_positive(x) for x in result["witnesses"] + result["certs"]):
        return "witness or certificate not finite and positive"
    return None
