"""The cli-corpus workload: seeded job files run through ``periodist.cli.main``.

A block holds jobs for all 12 subcommands (dimension <= 3, radius <= 50)
plus malformed files, about 10% of the block.  Radii come from a short
list so the ball cache stays warm and parsing, validation, certificate
spot-checks, report rendering, ``fourier`` and ``exp_type`` do the work.

Each job carries the outcome it must produce, fixed at generation:
the exit code, the verdict and the numbers the construction determines.
A malformed file must exit with code 1 and a message naming the JSON path
of the defect; an exception escaping ``main`` is a failure of the op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from . import library, oracle
from . import trees as t

CLI_WINDOWS = (10, 20, 30, 40, 50)

# Valid jobs per block, 39, beside 5 malformed ones.  exp-demo (about
# 0.35 s) is 1 op in 44 and fourier-synth (about 40 ms) 6, so p90 falls
# inside the fourier-synth slice rather than on the edge of the exp-demo
# one.
BLOCK = (
    ("check-growth", 4), ("corona-check", 4), ("bezout-solve", 3), ("bezout-verify", 3),
    ("reduce", 3), ("approx", 3), ("gap", 3), ("qdemo", 3), ("fourier-coeffs", 3),
    ("fourier-synth", 6), ("pair", 3), ("exp-demo", 1),
)
COMMANDS = tuple(name for name, _ in BLOCK)
MALFORMED_PER_BLOCK = 5


def _window(shape):
    d = shape.randint(1, 3)
    return d, shape.choice(CLI_WINDOWS)


def _job(command, d, R, inputs, params=None):
    return {"command": command, "dimension": d, "inputs": inputs, "params": {"R": R, **(params or {})}}


def _check_growth(rng, shape):
    d, R = _window(shape)
    inputs, expect = library._gen_certificate(d, R, rng)
    first = expect["first"]
    job = _job("check-growth", d, R, {"a": {"expr": inputs["tree"], "cert": {"M": inputs["M"], "k": inputs["k"]}}})
    # from_json window-checks a claimed certificate at radius 8 first.
    if first is not None and sum(abs(c) for c in first) <= 8:
        return job, {"code": 1}
    if first is None:
        return job, {"code": 0, "verdict": "pass", "results": {"holds": True}}
    return job, {"code": 2, "verdict": "fail", "results": {"first_violation": list(first)}}


def _corona_check(rng, shape):
    d, R = _window(shape)
    inputs, expect = library._gen_corona(d, R, rng)
    job = _job("corona-check", d, R, {"a": [{"expr": m} for m in inputs["family"]]},
               {"delta": inputs["delta"], "K": inputs["K"]})
    first = list(expect["first"]) if expect["first"] is not None else None
    if expect["holds"]:
        return job, {"code": 0, "verdict": "pass", "results": {"first_violation": None}}
    return job, {"code": 2, "verdict": "fail", "results": {"first_violation": first}}


def _bezout_family(d, R, rng):
    q = rng.choice((0.5, 1.0, 2.0))
    family = [t.shifted_coord(i, float(rng.randint(-R // d, R // d))) for i in range(d)]
    return family + [t.const(q)], q


def _bezout_solve(rng, shape):
    d, R = _window(shape)
    family, q = _bezout_family(d, R, rng)
    params = {"delta": q / 2, "K": 0} if shape.random() < 0.5 else {}
    job = _job("bezout-solve", d, R, {"a": [{"expr": m} for m in family]}, params)
    return job, {"code": 0, "verdict": "pass", "max": {"self_residual": 1e-12}}


def _bezout_verify(rng, shape):
    d, R = _window(shape)
    family, q = _bezout_family(d, R, rng)
    cofactors = t.cofactors(family, q, 0)
    job = _job("bezout-verify", d, R, {"a": [{"expr": m} for m in family], "b": [{"expr": c} for c in cofactors]})
    return job, {"code": 0, "verdict": "pass", "max": {"max_residual": 1e-12}}


def _reduce(rng, shape):
    d, R = _window(shape)
    a1 = t.shifted_coord(rng.randrange(d), float(rng.randint(-5, 5)))
    a2 = t.const(rng.choice((0.5, 1.0, 2.0)))
    b1, b2 = t.cofactors([a1, a2], a2["re"], 0)
    inputs = {"a1": {"expr": a1}, "a2": {"expr": a2}, "b1": {"expr": b1}, "b2": {"expr": b2}}
    job = _job("reduce", d, R, inputs, {"epsilon": rng.choice((0.1, 0.25, 0.4))})
    return job, {"code": 0, "verdict": "pass", "max": {"factorization_residual": 1e-10}}


def _approx(rng, shape):
    d, R = _window(shape)
    a = t.add(t.coord(rng.randrange(d)), t.mul(t.const(rng.uniform(-1, 1)), t.norm1()))
    job = _job("approx", d, R, {"a": {"expr": a}}, {"epsilons": [0.5, 0.25, 0.125]})
    return job, {"code": 0, "verdict": "pass"}


def _gap(rng, shape):
    d, R = _window(shape)
    inputs, _ = library._gen_gap(d, R, rng)
    fast = {"expr": inputs["b"], "decay": inputs["decay"]}
    job = _job("gap", d, R, {"x": {"expr": inputs["x"]}, "y": {"expr": inputs["y"]}, "b": fast})
    return job, {"code": 0, "verdict": "pass", "results": {"bound_finite": True}}


def _qdemo(rng, shape):
    d = shape.randint(1, 3)
    n_max = shape.choice((20, 30, 40, 50))
    while True:
        rate = round(rng.uniform(0.1, 1.0), 3)
        delta = round(rng.uniform(0.05, 0.9), 3)
        K = rng.randint(0, 3)
        pairs = [(math.exp(-rate * r), delta * (1.0 + r) ** (-K)) for r in range(n_max + 1)]
        hit = next((r for r, (v, floor) in enumerate(pairs) if v < floor), None)
        # Keep every comparison up to the hit well away from equality.
        if hit is not None and all(abs(v - floor) > 1e-9 * floor for v, floor in pairs[: hit + 1]):
            break
    job = {"command": "qdemo", "dimension": d, "inputs": {},
           "params": {"rate": rate, "delta": delta, "K": K, "nMax": n_max}}
    index = [-hit] + [0] * (d - 1)
    return job, {"code": 0, "verdict": "pass", "results": {"found": True, "index": index, "norm": hit}}


def _modes(rng, d, count, how_many):
    lo, hi = -(count // 2), (count + 1) // 2 - 1
    picked = {}
    while len(picked) < how_many:
        index = tuple(rng.randint(lo, hi) for _ in range(d))
        picked[index] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return picked


def _basis(rng, d):
    matrix = np.eye(d) + np.triu(np.full((d, d), rng.uniform(0.1, 0.4)), 1)
    return [[round(float(x), 3) for x in row] for row in matrix]


def _fourier_coeffs(rng, shape):
    d = shape.randint(1, 2)
    count = shape.choice((256, 512, 1024)) if d == 1 else shape.choice((16, 32, 64))
    modes = _modes(rng, d, count, shape.randint(3, 6))
    grid = np.stack(np.meshgrid(*([np.arange(count)] * d), indexing="ij"), axis=-1)
    samples = np.zeros((count,) * d, dtype=np.complex128)
    for index, alpha in modes.items():
        samples += alpha * np.exp(2j * math.pi * (grid @ np.array(index, dtype=float)) / count)
    inputs = {"period_matrix": _basis(rng, d), "samples": {"file": None, "shape": [count] * d}}
    job = {"command": "fourier-coeffs", "dimension": d, "inputs": inputs, "params": {}}
    expect = {"code": 0, "verdict": None, "coeffs": {",".join(map(str, k)): v for k, v in modes.items()}}
    return job, expect, samples.astype("<c16").tobytes()


def _fourier_synth(rng, shape):
    d = shape.randint(1, 2)
    modes = _modes(rng, d, 16, shape.randint(3, 6))
    matrix = _basis(rng, d)
    points = np.array([[rng.uniform(-2, 2) for _ in range(d)] for _ in range(2048)])
    duals = np.linalg.inv(np.array(matrix)) @ np.array(list(modes), dtype=float).T
    values = np.exp(2j * math.pi * (points @ duals)) @ np.array(list(modes.values()))
    coeffs = {"dimension": d, "coeffs": {",".join(map(str, k)): [v.real, v.imag] for k, v in modes.items()}}
    raw_points = [[round(float(x), 6) for x in p] for p in points]
    inputs = {"period_matrix": matrix, "coeffs": coeffs, "points": raw_points}
    # Recompute from the rounded points that the job file actually carries.
    values = np.exp(2j * math.pi * (np.array(raw_points) @ duals)) @ np.array(list(modes.values()))
    job = {"command": "fourier-synth", "dimension": d, "inputs": inputs, "params": {}}
    return job, {"code": 0, "verdict": None, "values": [complex(v) for v in values]}


def _pair(rng, shape):
    d, R = _window(shape)
    inputs, expect = library._gen_pairing(d, R, rng)
    job = _job("pair", d, R, {"a": {"expr": inputs["a"]}, "b": {"expr": inputs["b"], "decay": inputs["decay"]}})
    return job, {"code": 0, "verdict": None, "value": expect["value"], "partial_tail": expect["partial_tail"]}


def _exp_demo(rng, shape):
    job = {"command": "exp-demo", "inputs": {}, "params": {"maxDegree": 3}}
    return job, {"code": 0, "verdict": "pass", "results": {"identity_exact": True}, "candidates": 625}


_GENERATORS = {
    "check-growth": _check_growth,
    "corona-check": _corona_check,
    "bezout-solve": _bezout_solve,
    "bezout-verify": _bezout_verify,
    "reduce": _reduce,
    "approx": _approx,
    "gap": _gap,
    "qdemo": _qdemo,
    "fourier-coeffs": _fourier_coeffs,
    "fourier-synth": _fourier_synth,
    "pair": _pair,
    "exp-demo": _exp_demo,
}


def _make(command, rng, shape):
    """(job, expectation, binary samples or None) for one subcommand."""
    made = _GENERATORS[command](rng, shape)
    return made if len(made) == 3 else (*made, None)


# -- malformed files: (command, JSON path of the defect, key path, new value) --

_DELETE = object()

MALFORMED = (
    ("corona-check", "params.delta", ("params", "delta"), "0.5"),
    ("corona-check", "params.K", ("params", "K"), _DELETE),
    ("corona-check", "params.R", ("params", "R"), "ten"),
    ("corona-check", "inputs.a[1].expr", ("inputs", "a", 1, "expr", "args"), _DELETE),
    ("check-growth", "inputs.a.expr", ("inputs", "a", "expr", "kind"), "cosine"),
    ("check-growth", "inputs.a.cert.M", ("inputs", "a", "cert", "M"), "big"),
    ("pair", "inputs.b.decay.rate", ("inputs", "b", "decay", "rate"), _DELETE),
    ("pair", "dimension", ("dimension",), "two"),
    ("pair", "inputs.b.support", ("inputs", "b", "support"), "3"),
    ("bezout-verify", "inputs.b", ("inputs", "b", -1), _DELETE),
    ("fourier-coeffs", "inputs.samples.shape", ("inputs", "samples", "shape", 0), "x"),
    ("fourier-synth", "inputs.coeffs.coeffs", ("inputs", "coeffs", "coeffs", "1,x"), [1.0, 0.0]),
    ("qdemo", "params.nMax", ("params", "nMax"), 40.5),
    ("approx", "params.epsilons", ("params", "epsilons"), []),
    ("gap", "inputs.x.expr.eps", ("inputs", "x", "expr", "eps"), -0.1),
    ("reduce", "params.epsilon", ("params", "epsilon"), 0.7),
)


def _malformed(rng, shape, which):
    command, where, path, value = MALFORMED[which]
    job, _, samples = _make(command, rng, shape)
    node = job
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return job, {"code": 1, "path": where, "malformed": True}, samples


def corpus_blocks(seed: int, count: int) -> list[list[dict]]:
    """`count` blocks of jobs; each job is a dict with the file contents and expectation.

    Which subcommands, dimensions, radii, sizes and malformations a block
    holds, and their order, is the same for every seed; the seed draws the
    trees, constants and verdicts.
    """
    blocks = []
    for b in range(count):
        shape = random.Random(f"cli-corpus:schedule:{b}")
        rng = random.Random(f"cli-corpus:{seed}:{b}")
        commands = [name for name, n in BLOCK for _ in range(n)]
        shape.shuffle(commands)
        ops = []
        for command in commands:
            job, expect, samples = _make(command, rng, shape)
            ops.append({"command": command, "job": job, "expect": expect, "samples": samples})
        for i in range(MALFORMED_PER_BLOCK):
            which = (b * MALFORMED_PER_BLOCK + i) % len(MALFORMED)
            job, expect, samples = _malformed(rng, shape, which)
            ops.insert(shape.randint(0, len(ops)), {"command": job["command"], "job": job, "expect": expect, "samples": samples})
        for i, op in enumerate(ops):
            op["name"] = f"b{b:03d}-{i:02d}-{op['command']}"
        blocks.append(ops)
    return blocks


def write_jobs(ops: list[dict], directory: Path) -> None:
    """Write job files (and binary samples next to them) for a list of ops."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        job = op["job"]
        if op["samples"] is not None:
            sample_name = op["name"] + ".c16"
            (directory / sample_name).write_bytes(op["samples"])
            job["inputs"]["samples"]["file"] = sample_name
        op["spec"] = str(directory / (op["name"] + ".json"))
        op["out"] = str(directory / (op["name"] + ".report.json"))
        Path(op["spec"]).write_text(json.dumps(job))


def argv(op: dict) -> list[str]:
    return [op["command"], "--spec", op["spec"], "--out", op["out"]]


def execute(main, op: dict):
    """Run one job in-process; returns (exit code or None, stderr text, escaped exception)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv(op))
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
        except Exception as exc:  # an escaped exception is what the op measures
            return None, err.getvalue(), exc
    return code, err.getvalue(), None


def report_bytes(op: dict) -> bytes | None:
    path = Path(op["out"])
    return path.read_bytes() if path.exists() else None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(op: dict, outcome, report: bytes | None) -> str | None:
    code, message, exc = outcome
    expect = op["expect"]
    if exc is not None:
        return f"traceback: {type(exc).__name__}: {exc}"
    if code != expect["code"]:
        return f"exit code {code}, expected {expect['code']}"
    if expect.get("malformed"):
        if expect["path"] not in message:
            return f"message does not name {expect['path']}: {message.strip()[:120]}"
        return None
    if code == 1:
        return None
    if report is None:
        return "no report written"
    try:
        parsed = json.loads(report)
    except ValueError:
        return "report does not parse"
    if parsed.get("verdict") != expect["verdict"]:
        return f"verdict {parsed.get('verdict')}, expected {expect['verdict']}"
    results = parsed["results"]
    for key, value in expect.get("results", {}).items():
        if results.get(key) != value:
            return f"results.{key} = {results.get(key)}, expected {value}"
    for key, limit in expect.get("max", {}).items():
        if not results[key] <= limit:
            return f"results.{key} = {results[key]} above {limit}"
    if "candidates" in expect and results["search"]["candidates_checked"] != expect["candidates"]:
        return "exp-demo candidate count"
    if "coeffs" in expect:
        got = results["coefficients"]["coeffs"]
        for key, (re, im) in got.items():
            want = expect["coeffs"].get(key, 0j)
            if abs(complex(re, im) - want) > 1e-9:
                return f"coefficient {key} = {complex(re, im)}, expected {want}"
    if "values" in expect:
        got = [complex(*v) for v in results["values"]]
        scale = 1e-9 * max(1.0, max(abs(v) for v in expect["values"]))
        if len(got) != len(expect["values"]) or any(abs(g - w) > scale for g, w in zip(got, expect["values"])):
            return "synthesized values differ"
    if "value" in expect:
        if not oracle.close(complex(*results["value"]), expect["value"], 1e-9):
            return "pairing value differs"
        if not results["tail_bound"] >= expect["partial_tail"]:
            return "tail bound below the partial tail"
    return None
