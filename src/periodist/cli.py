"""JSON-driven command line front end.

Usage:

    periodist <command> --spec job.json [--window R] [--epsilon E]
                        [--format json|csv] [--out path]

Options may come before or after the command.

The job file carries a ``dimension``, an ``inputs`` object with named
sequences (expression trees in the wire format) or Fourier data, and a
``params`` object with numbers (delta, K, epsilon, epsilons, R, nMax, rate,
maxDegree, tolerance).  A command reads R and the names ``_HANDLERS`` declares
for it: any other name is rejected, and so is a JSON number past the double
range.  ``--window`` and ``--epsilon`` override params R and epsilon.
Reports echo the inputs (sample arrays are summarised), record the
resolved parameters and the global defaults (R = 50, dimension = 1), and
are byte-identical across repeated runs on the same inputs with one numpy
build at one CPU dispatch level (``NPY_DISABLE_CPU_FEATURES`` can move the
last digit of a value computed through ``exp`` or ``arctan2``).  A JSON report
is the text of ``json.dumps(report, indent=2)``, written without recursion:
its depth is bounded only by what the JSON decoder and the tree parser accept.

Exit codes: 0 on success, 1 on input errors (malformed files, rejected
certificates), 2 on mathematical failure (a violated floor, a residual
above tolerance, a missing violation for the floor demo).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import exp_type, fourier, lattice, stable_rank
from . import expr as ex
from .corona import (
    CoronaWitness,
    certify_witness,
    check_corona_window,
    solve_bezout,
    verify_bezout,
    witness_from_bezout,
)
from .errors import InputError, MathFailure, PeriodistError, WitnessViolation
from .sequences import FastSequence, SlowSequence, combine, constant, pairing, window_folds
from .stable_rank import approx_by_invertibles, q_algebra_violation, reduce_pair, weak_star_gap

DEFAULT_RADIUS = 50
DEFAULT_DIMENSION = 1

# These params are read with the range declared on the field that carries them;
# no field carries a tolerance.
_PARAM_RANGES = {
    "R": ex._ranges(CoronaWitness)["radius"],
    "nMax": ex._ranges(CoronaWitness)["radius"],
    "delta": ex._ranges(CoronaWitness)["delta"],
    "K": ex._ranges(CoronaWitness)["K"],
    "rate": ex._ranges(ex.ExpDecay)["rate"],
    "maxDegree": ex.NONNEG,
    "tolerance": ex.NONNEG,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_or_none(value: float):
    return value if math.isfinite(value) else None


class Job:
    """Parsed job file plus resolved parameters, read by the typed readers of ``expr``."""

    def __init__(self, command: str, spec_path: str, args):
        self.command = command
        self.path = Path(spec_path)
        try:
            text = self.path.read_text()
        except OSError as err:
            raise InputError(f"cannot read spec file '{spec_path}': {err}")
        try:
            self.raw = ex._object(json.loads(text), spec_path)
        except json.JSONDecodeError as err:
            raise InputError(
                f"{spec_path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
            )
        except RecursionError:
            raise InputError(f"{spec_path}: nested too deeply to decode") from None
        except ValueError:  # an integer of more digits than int() converts, so past the double range
            raise InputError(f"{spec_path}: number out of range") from None
        ex._known(self.raw, ("command", "dimension", "inputs", "params"), "")
        declared = self.raw.get("command")
        if declared is not None and declared != command:
            raise InputError(
                f"{spec_path}: file declares command '{declared}' but '{command}' was invoked"
            )
        _, param_names, input_names = _HANDLERS[command]
        self.inputs = ex._object(self.raw.get("inputs", {}), "inputs")
        ex._known(self.inputs, input_names, "inputs")
        overrides = {"R": args.window, "epsilon": args.epsilon}
        params = ex._object(self.raw.get("params", {}), "params")
        self.params = {**params, **{k: v for k, v in overrides.items() if v is not None}}
        ex._known(self.params, ("R", *param_names), "params")
        self.dimension = ex._integer(
            self.raw, "dimension", "", DEFAULT_DIMENSION, ex._ranges(SlowSequence)["dimension"]
        )
        self.radius = self.param_int("R", DEFAULT_RADIUS)
        if command not in _SCAN_NO_R:
            self.priced("R", self.radius)

    # -- typed accessors ----------------------------------------------

    def param_float(self, name: str, default=ex._REQUIRED, rule=None) -> float:
        return ex._number(self.params, name, "params", default, rule or _PARAM_RANGES.get(name))

    def param_int(self, name: str, default=ex._REQUIRED, rule=None) -> int:
        return ex._integer(self.params, name, "params", default, rule or _PARAM_RANGES.get(name))

    def priced(self, name: str, radius: int) -> int:
        """``radius`` (read from ``params.<name>``) once its window in the job's dimension is
        priced: a window above ``_WINDOW_BUDGET`` coordinates (points times d) is refused
        before any ball is built."""
        d = self.dimension
        # 2dR + 1 points have at most one nonzero coordinate.  Past the budget, that bound
        # refuses the window before its exact count, which grows costly with both d and R.
        points = 2 * d * radius + 1
        if points * d <= _WINDOW_BUDGET:
            points = lattice.ball_count(d, radius)
        if points * d > _WINDOW_BUDGET:
            raise InputError(f"params.{name}: window of at least {points} points at dimension {d} "
                             f"({points * d} coordinates) exceeds the budget of {_WINDOW_BUDGET} "
                             f"coordinates, got {radius}")
        return radius

    def _parsed(self, name: str, parse):
        """``parse(raw, path)`` of ``inputs.<name>``; a tree too deep to parse is an input error."""
        path = f"inputs.{name}"
        try:
            return parse(ex._expect(self.inputs, name, "inputs"), path)
        except RecursionError:
            raise InputError(f"{path}: nested too deeply to parse") from None

    def slow(self, name: str) -> SlowSequence:
        return self._parsed(name, lambda raw, path: SlowSequence.from_json(raw, self.dimension, path=path))

    def slow_family(self, name: str, length: int | None = None) -> list[SlowSequence]:
        return self._parsed(name, lambda raw, path: [
            SlowSequence.from_json(item, self.dimension, path=f"{path}[{i}]")
            for i, item in enumerate(ex._array(raw, path, length))
        ])

    def fast(self, name: str) -> FastSequence:
        """``inputs.<name>``; no bound scans past the window R, so a declared support
        past R is dropped for the decay envelope, and rejected without one."""
        seq = self._parsed(name, lambda raw, path: FastSequence.from_json(raw, self.dimension, path=path))
        if seq.support is None or seq.support <= self.radius:
            return seq
        if seq.decay is None:
            raise InputError(
                f"inputs.{name}.support: must be <= {self.radius}, the window R, "
                f"unless a decay envelope is given, got {seq.support}"
            )
        return FastSequence(seq.expr, seq.dimension, decay=seq.decay)

    def basis(self) -> fourier.PeriodBasis:
        raw = ex._expect(self.inputs, "period_matrix", "inputs")
        n = len(ex._array(raw, "inputs.period_matrix"))
        matrix = ex._reals(raw, "inputs.period_matrix", (n, n))
        try:
            return fourier.PeriodBasis(matrix)
        except InputError as err:  # a singular matrix or an inexact inverse
            raise InputError(f"inputs.period_matrix: {err}") from None

    def samples(self, dimension: int) -> np.ndarray:
        raw = ex._expect(self.inputs, "samples", "inputs")
        if isinstance(raw, dict):
            ex._known(raw, ("file", "shape"), "inputs.samples")
            shape = ex._nested(
                ex._expect(raw, "shape", "inputs.samples"), "inputs.samples.shape", (dimension,),
                lambda value, where: ex._int(value, where, ex.AT_LEAST_ONE),
            )
            if len(set(shape)) > 1:
                raise InputError(f"inputs.samples.shape: must be cubic (equal length per axis), got {shape}")
            name = ex._expect(raw, "file", "inputs.samples")
            path = Path(ex._typed(name, "inputs.samples.file", str, "a string"))
            if not path.is_absolute():
                path = self.path.parent / path
            try:
                size = path.stat().st_size
                flat = np.fromfile(path, dtype="<c16")
            except OSError as err:
                raise InputError(f"inputs.samples: cannot read '{path}': {err}")
            if size % flat.itemsize:  # np.fromfile drops a trailing partial value
                raise InputError(f"inputs.samples: file of {size} bytes ends inside a value "
                                 f"({flat.itemsize} bytes each)")
            expected = math.prod(shape)
            if flat.size != expected:
                raise InputError(
                    f"inputs.samples: file holds {flat.size} values, shape needs {expected}"
                )
            bad = np.flatnonzero(~np.isfinite(flat))
            if bad.size:
                raise InputError(f"inputs.samples: file value {bad[0]} is not finite")
            return flat.reshape(shape)
        # Inline: a cubic array nested `dimension` deep.
        cube = (len(ex._array(raw, "inputs.samples")),) * dimension
        return np.asarray(ex._nested(raw, "inputs.samples", cube, ex._complex), dtype=np.complex128)

    def echo_inputs(self) -> dict:
        """The inputs, once the command has read them; samples are summarised."""
        echoed = dict(self.inputs)
        value = echoed.get("samples")
        if isinstance(value, dict):
            echoed["samples"] = {"source": value["file"], "shape": value["shape"]}
        elif value is not None:
            shape, node = [], value
            while isinstance(node, list) and len(shape) < self.dimension:
                shape.append(len(node))
                node = node[0]
            echoed["samples"] = {"source": "inline", "shape": shape}
        return echoed


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (results, verdict) with verdict one of
# "pass", "fail", or None for compute-only commands.
# ---------------------------------------------------------------------------


def _run_check_growth(job: Job):
    seq = job.slow("a")
    check = seq.check_certificate(job.radius)
    return {"cert": ex._write_fields(seq.cert), **ex._write_fields(check)}, ("pass" if check.holds else "fail")


def _run_corona_check(job: Job):
    family = job.slow_family("a")
    delta = job.param_float("delta")
    order = job.param_int("K")
    check = check_corona_window(family, delta, order, job.radius)
    return {"delta": delta, "K": order, **ex._write_fields(check)}, ("pass" if check.holds else "fail")


def _resolve_witness(job: Job, family: list[SlowSequence]) -> CoronaWitness:
    """The witness of ``params.delta`` and ``params.K``, checked on the job's window
    (a violation raises MathFailure), or else a certified one."""
    if "delta" in job.params or "K" in job.params:
        witness = CoronaWitness(job.param_float("delta"), job.param_int("K"), radius=job.radius)
        check = check_corona_window(family, witness.delta, witness.K, job.radius)
        if not check.holds:
            raise MathFailure(
                f"corona floor (delta={witness.delta}, K={witness.K}) fails at "
                f"lattice index {check.first_violation}"
            )
        return witness
    witness = certify_witness(family)
    if witness is None:
        raise MathFailure(
            "no witness: supply params.delta and params.K or include a certified form"
        )
    return witness


def _run_bezout_solve(job: Job):
    family = job.slow_family("a")
    witness = _resolve_witness(job, family)
    cofactors = solve_bezout(family, witness)
    residual = verify_bezout(family, cofactors, job.radius)
    tolerance = job.param_float("tolerance", 1e-12)
    results = {
        "witness": ex._write_fields(witness),
        "cofactors": [c.to_json() for c in cofactors],
        "recovered_witness": ex._write_fields(witness_from_bezout(cofactors)),
        "self_residual": residual,
        "tolerance": tolerance,
    }
    return results, ("pass" if residual <= tolerance else "fail")


def _run_bezout_verify(job: Job):
    family = job.slow_family("a")
    cofactors = job.slow_family("b", length=len(family))
    residual = verify_bezout(family, cofactors, job.radius)
    tolerance = job.param_float("tolerance", 1e-12)
    results = {
        "max_residual": residual,
        "tolerance": tolerance,
        "recovered_witness": ex._write_fields(witness_from_bezout(cofactors)),
    }
    return results, ("pass" if residual <= tolerance else "fail")


def _run_reduce(job: Job):
    a1, a2 = job.slow("a1"), job.slow("a2")
    b1, b2 = job.slow("b1"), job.slow("b2")
    epsilon = job.param_float("epsilon", 0.25, stable_rank.REDUCTION_EPSILON)
    tolerance = job.param_float("tolerance", 1e-12)
    trace = reduce_pair(a1, a2, b1, b2, epsilon, job.radius, tolerance)

    # Window diagnostics: the perturbed identity floor and the agreement
    # of the result with its invertible factorisation.
    drift = combine(
        "mul",
        combine("add", trace.clipped_cofactor, combine("neg", trace.scaled_cofactor)),
        trace.normalized_first,
    )
    perturbed = combine("add", constant(1.0, a1.dimension), drift)
    witness, target = trace.result_inverse_witness, trace.witness_factors["perturbed_identity"][0]
    factorisation = combine(
        "mul",
        trace.clipped_cofactor.reciprocal(trace.epsilon, 0),
        trace.normalizer,
        perturbed,
    )
    trees = [perturbed.expr, trace.result.expr, factorisation.expr]
    measures = [(np.min, lambda norms, v: np.abs(v[0])), (np.max, lambda norms, v: np.abs(v[1] - v[2]))]
    min_floor, factorisation_residual = window_folds(trees, a1.dimension, job.radius, measures)
    results = {
        "epsilon": trace.epsilon,
        "result": trace.result.to_json(),
        "multiplier": trace.multiplier.to_json(),
        "inverse_witness": ex._write_fields(witness),
        "witness_factors": {
            name: None if pair is None else {"delta": pair[0], "K": pair[1]}
            for name, pair in trace.witness_factors.items()
        },
        "min_perturbed_identity": min_floor,
        "floor_target": target,
        "factorization_residual": factorisation_residual,
    }
    ok = min_floor >= target and factorisation_residual <= 1e-10
    return results, ("pass" if ok else "fail")


def _run_approx(job: Job):
    seq = job.slow("a")
    level = ex._ranges(ex.Clip)["eps"]
    epsilons = [job.param_float("epsilon", 0.25, level)]  # checked, even where params.epsilons replaces it
    if "epsilons" in job.params:
        raw = ex._array(job.params["epsilons"], "params.epsilons")
        epsilons = [ex._real(eps, f"params.epsilons[{i}]", level) for i, eps in enumerate(raw)]
    items = []
    ok = True
    approximants = approx_by_invertibles(seq, epsilons)
    trees = [seq.expr] + [clipped.expr for clipped, _ in approximants]
    moved = [(np.max, lambda norms, v, i=i: np.abs(v[i] - v[0])) for i in range(1, len(trees))]
    changes = window_folds(trees, seq.dimension, job.radius, moved)
    for (clipped, witness), max_change in zip(approximants, changes):
        eps = witness.delta
        ok = ok and max_change <= 2.0 * eps
        items.append(
            {
                "epsilon": eps,
                "witness": ex._write_fields(witness),
                "max_change_on_window": max_change,
                "sequence": clipped.to_json(),
            }
        )
    return {"items": items}, ("pass" if ok else "fail")


def _run_gap(job: Job):
    x, y = job.slow("x"), job.slow("y")
    test = job.fast("b")
    result = weak_star_gap(x, y, test, job.radius)
    bound = _finite_or_none(result.bound)
    results = {
        "gap": result.gap,
        "bound": bound,
        "bound_finite": bound is not None,
        "tail_bound": result.tail_bound,
    }
    verdict = None
    if bound is not None:
        verdict = "pass" if result.gap <= result.bound else "fail"
    return results, verdict


def _run_qdemo(job: Job):
    rate = job.param_float("rate", 1.0)
    delta = job.param_float("delta")
    order = job.param_int("K")
    n_max = job.priced("nMax", job.param_int("nMax", 40))
    hit = q_algebra_violation(rate, delta, order, n_max, job.dimension)
    results = {
        "rate": rate,
        "delta": delta,
        "K": order,
        "nMax": n_max,
        "found": hit is not None,
        "index": list(hit) if hit is not None else None,
        "norm": sum(abs(c) for c in hit) if hit is not None else None,
    }
    return results, ("pass" if hit is not None else "fail")


def _run_fourier_coeffs(job: Job):
    basis = job.basis()
    samples = job.samples(basis.dimension)
    coeffs = fourier.coeffs_from_samples(basis, samples)
    count = samples.shape[0]
    lo, hi = fourier.centred_window(count)
    results = {
        "coefficients": coeffs.to_json(),
        "metadata": {
            "normalization": fourier.NORMALIZATION,
            "grid_count": count,
            "centred_window": [lo, hi],
            "aliasing": fourier.ALIASING_NOTE,
        },
    }
    return results, None


def _run_fourier_synth(job: Job):
    basis = job.basis()
    d = basis.dimension
    coeffs = fourier.CoefficientMap.from_json(ex._expect(job.inputs, "coeffs", "inputs"), "inputs.coeffs")
    if coeffs.dimension != d:
        raise InputError(f"inputs.coeffs.dimension: must be {d}, got {coeffs.dimension}")
    # Points are rows of d numbers; a flat array is one point per entry in dimension 1, else one point.
    raw = ex._expect(job.inputs, "points", "inputs")
    rows = isinstance(raw, list) and raw and isinstance(raw[0], list)
    shape = (None, d) if rows else ((None,) if d == 1 else (d,))
    points = ex._reals(raw, "inputs.points", shape).reshape(-1, d)
    try:
        values = fourier.synthesize(basis, coeffs, points)
    except InputError as err:  # a non-finite point, or a phase past the double range
        raise InputError(f"inputs.points: {err}") from None
    results = {"values": values.view(np.float64).reshape(-1, 2).tolist()}
    return results, None


def _run_pair(job: Job):
    seq = job.slow("a")
    test = job.fast("b")
    result = pairing(seq, test, job.radius)
    results = {
        "value": [result.value.real, result.value.imag],
        "tail_bound": result.tail_bound,
    }
    return results, None


# Coordinates one window command may build (points times d, the entries of the ball's
# array), priced with ``lattice.ball_count`` before any ball is built: every window of d <= 3
# and R <= 50 (at most 171,801 points) runs, the d=3, R=2000 window (10,674,672,001
# points) and the d=10^6, R=1 window (2,000,001 points) are refused.
_WINDOW_BUDGET = 10_000_000

# The commands that scan no window of radius R: qdemo scans params.nMax.
_SCAN_NO_R = {"qdemo", "fourier-coeffs", "fourier-synth", "exp-demo"}

# Combinations one exp-demo op may sweep: maxDegree 6 (78,125) runs, 7 (390,625) is refused.
_SWEEP_BUDGET = 100_000


def _run_exp_demo(job: Job):
    max_degree = job.param_int("maxDegree", 3)
    # Priced before it runs: h over the coefficients -2..2 makes 5^(maxDegree+1)
    # combinations, 5x the time per degree; past degree 32 all are over budget.
    if 5 ** (min(max_degree, 32) + 1) > _SWEEP_BUDGET:
        raise InputError(f"params.maxDegree: 5^{max_degree + 1} combinations to sweep exceed "
                         f"the budget of {_SWEEP_BUDGET}, got {max_degree}")
    p, q, f, g = exp_type.standard_identity()
    check = exp_type.poly_bezout_check(p, q, f, g)
    report = exp_type.polynomial_reducer_search(max_degree)
    results = {
        "identity_residual": check.max_residual,
        "identity_exact": check.exact,
        "search": {
            **ex._write_fields(report),
            "fixed_low_coefficients": {
                str(power): [value.real, value.imag]
                for power, value in sorted(report.fixed_low_coefficients.items())
            },
        },
    }
    ok = (
        check.max_residual == 0.0
        and report.units_found == 0
        and report.all_nonconstant
        and report.max_root_residual <= 1e-9
    )
    return results, ("pass" if ok else "fail")


# Each command's handler, the params it reads besides R, and the inputs it reads.
_HANDLERS = {
    "check-growth": (_run_check_growth, (), ("a",)),
    "corona-check": (_run_corona_check, ("delta", "K"), ("a",)),
    "bezout-solve": (_run_bezout_solve, ("delta", "K", "tolerance"), ("a",)),
    "bezout-verify": (_run_bezout_verify, ("tolerance",), ("a", "b")),
    "reduce": (_run_reduce, ("epsilon", "tolerance"), ("a1", "a2", "b1", "b2")),
    "approx": (_run_approx, ("epsilon", "epsilons"), ("a",)),
    "gap": (_run_gap, (), ("x", "y", "b")),
    "qdemo": (_run_qdemo, ("rate", "delta", "K", "nMax"), ()),
    "fourier-coeffs": (_run_fourier_coeffs, (), ("period_matrix", "samples")),
    "fourier-synth": (_run_fourier_synth, (), ("period_matrix", "coeffs", "points")),
    "pair": (_run_pair, (), ("a", "b")),
    "exp-demo": (_run_exp_demo, ("maxDegree",), ()),
}


def _flatten(report: dict) -> list[tuple[str, str]]:
    """(key path, value) rows of the scalars of ``report``, in document order."""
    rows, stack = [], [("", report)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, (dict, list, tuple)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            stack += reversed([(ex._at(path, key), item) for key, item in items])
        else:
            rows.append((path, value if isinstance(value, str) else json.dumps(value)))
    return rows


def _scalar_text(value) -> str | None:
    """``json.dumps`` of a scalar; None for a list, tuple or dict."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "-Infinity" if value < 0 else "Infinity"
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    """``json.dumps`` of a dict key, with its colon."""
    if isinstance(key, str):
        return encode_basestring_ascii(key) + ": "
    if not isinstance(key, (int, float)) and key is not None:  # bool is an int
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return f'"{_scalar_text(key)}": '


def _member_texts(members, level: int) -> list[str] | None:
    """The texts of ``members`` at indent ``level`` when all are scalars of built-in types,
    or all lists of one length of finite floats, such as [re, im] pairs; else None."""
    kinds = set(map(type, members))
    if kinds <= {str, int, float, bool, type(None)}:
        return list(map(_scalar_text, members))
    if kinds != {list} or len(widths := set(map(len, members))) != 1:
        return None
    flat = list(chain.from_iterable(members))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    (width,) = widths
    inner = "\n" + "  " * (level + 1)
    row = "[" + inner + ("," + inner).join(["%s"] * width) + "\n" + "  " * level + "]"
    return list(map(row.__mod__, zip(*[map(float.__repr__, flat)] * width)))


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` of an acyclic ``obj``, with the same TypeError, written
    by one loop over a stack of open containers: depth is bounded by memory alone."""
    out: list[str] = []
    stack: list = []  # per open container: (iterator of (separator and key text, member), closing text)
    value = obj
    while True:
        text = _scalar_text(value)
        if text is None and not value:
            text = "{}" if isinstance(value, dict) else "[]"
        elif text is None:
            is_dict, level = isinstance(value, dict), len(stack) + 1
            inner, close = "\n" + "  " * level, "\n" + "  " * (level - 1) + "]}"[is_dict]
            keys = map(_key_text, value) if is_dict else repeat("")  # lazy: a bad key raises in order
            members = list(value.values()) if is_dict else value
            texts = _member_texts(members, level)
            if texts is None:
                separators = map(str.__add__, chain((inner,), repeat("," + inner)), keys)
                stack.append((zip(separators, members), close))
                text = "[{"[is_dict]
            else:
                text = "[{"[is_dict] + inner + ("," + inner).join(map(str.__add__, keys, texts)) + close
        out.append(text)
        while stack and (item := next(stack[-1][0], None)) is None:
            out.append(stack.pop()[1])
        if not stack:
            return "".join(out)
        text, value = item
        out.append(text)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report) + "\n"
    rows = _flatten({"command": report["command"], "verdict": report["verdict"], **report["results"]})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return buffer.getvalue()


def build_parser() -> _Parser:
    parser = _Parser(prog="periodist", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--spec", required=True, help="job file (JSON)")
    parser.add_argument("--window", type=int, default=None, help="truncation radius override")
    parser.add_argument("--epsilon", type=float, default=None, help="epsilon override")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        job = Job(args.command, args.spec, args)
        results, verdict = _HANDLERS[args.command][0](job)
        report = {
            "command": job.command,
            "dimension": job.dimension,
            "params": {"R": job.radius, **{k: v for k, v in sorted(job.params.items()) if k != "R"}},
            "defaults": {"R": DEFAULT_RADIUS, "dimension": DEFAULT_DIMENSION},
            "threads": 1,
            "inputs": job.echo_inputs(),
            "results": results,
            "verdict": verdict,
        }
        payload = render_report(report, args.format)
    except (MathFailure, WitnessViolation) as err:
        print(f"periodist: mathematical failure: {err}", file=sys.stderr)
        return 2
    except PeriodistError as err:  # InputError and CertificateError
        print(f"periodist: input error: {err}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_bytes(payload.encode())
    else:
        sys.stdout.write(payload)
    return 2 if verdict == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
