"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every name a caller
looks it up by: ``from .lattice import ball`` leaves separate bindings in
``sequences``, ``corona``, ``stable_rank`` and ``cli``, and all of them are
swapped, as are module-level lookups such as ``ex.evaluate_grid``.
Methods and static methods are swapped on their class.

A span is ``(name, start_ns, end_ns, parent, op)``; spans stay in memory
until ``write``.  Recursive functions get a span for the outermost call
only: while it runs, the function's own global name points back at the
original, so the inner calls cost nothing extra.

The traced run only ever calls the package from one thread.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  "Class.method" names a method.
TARGETS = (
    ("lattice", "ball", "lattice.ball"),
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "evaluate_grid", "expr.evaluate_grid"),
    ("expr", "composed_cert", "expr.composed_cert"),
    ("expr", "max_axis", "expr.max_axis"),
    ("expr", "is_nonneg_real", "expr.is_nonneg_real"),
    ("expr", "lower_bound_cert", "expr.lower_bound_cert"),
    ("expr", "to_json", "expr.to_json"),
    ("expr", "parse_node", "expr.parse_node"),
    ("sequences", "pairing", "sequences.pairing"),
    ("sequences", "seminorm", "sequences.seminorm"),
    ("sequences", "combine", "sequences.combine"),
    ("sequences", "SlowSequence.check_certificate", "sequences.check_certificate"),
    ("sequences", "SlowSequence.from_json", "sequences.from_json"),
    ("sequences", "FastSequence.from_json", "sequences.from_json"),
    ("corona", "check_corona_window", "corona.check_corona_window"),
    ("corona", "solve_bezout", "corona.solve_bezout"),
    ("corona", "verify_bezout", "corona.verify_bezout"),
    ("corona", "is_unit", "corona.is_unit"),
    ("corona", "certify_witness", "corona.certify_witness"),
    ("corona", "combined_modulus", "corona.combined_modulus"),
    ("stable_rank", "reduce_tuple", "stable_rank.reduce_tuple"),
    ("stable_rank", "reduce_pair", "stable_rank.reduce_pair"),
    ("stable_rank", "weak_star_gap", "stable_rank.weak_star_gap"),
    ("fourier", "coeffs_from_samples", "fourier.coeffs_from_samples"),
    ("fourier", "synthesize", "fourier.synthesize"),
    ("exp_type", "polynomial_reducer_search", "exp_type.polynomial_reducer_search"),
    ("exp_type", "poly_bezout_check", "exp_type.poly_bezout_check"),
    ("cli", "main", "cli.main"),
    ("cli", "Job.__init__", "cli.job_load"),
    ("cli", "render_report", "cli.render_report"),
)
RECURSIVE = {"composed_cert", "max_axis", "lower_bound_cert", "parse_node", "to_json", "is_nonneg_real"}
TREE_WALKS = {"expr.max_axis", "expr.composed_cert", "expr.lower_bound_cert", "expr.is_nonneg_real"}
SCANS = {"corona.check_corona_window", "corona.verify_bezout", "corona.combined_modulus"}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "periodist" or name.startswith("periodist."))]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.info: dict[int, dict] = {}
        self.trees: list = []  # (op, node, points) per evaluate_grid call
        self.pivots: list = []  # (op, node) per reduce_tuple result
        self._undo: list = []

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = getattr(self.package, module_name)
            if "." in attr:
                self._patch_method(module, attr, span)
            else:
                self._patch_function(getattr(module, attr), span)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch_function(self, original, span: str) -> None:
        wrapper = self._wrap(original, span)
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_method(self, module, attr: str, span: str) -> None:
        cls_name, name = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(raw.__func__, span))
        else:
            replacement = self._wrap(raw, span)
        self._undo.append((cls, name, raw))
        setattr(cls, name, replacement)

    def _wrap(self, original, span: str):
        spans, stack = self.spans, self.stack
        extra = getattr(self, "_extra_" + span.split(".")[1], None)
        recursive = original.__name__ in RECURSIVE
        home = original.__globals__ if recursive else None
        key = original.__name__

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if recursive:
                saved = home[key]
                home[key] = original
            before = extra(original, index, args, None, None) if extra else None
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                if recursive:
                    home[key] = saved
                stack.pop()
                spans[index] = (span, start, end, parent, self.op)
            if extra:
                extra(original, index, args, result, before)
            return result

        wrapper.__wrapped__ = original
        for name in ("cache_info", "cache_clear"):
            if hasattr(original, name):
                setattr(wrapper, name, getattr(original, name))
        return wrapper

    # -- per-call counters (called once before and once after the call) ----

    def _extra_ball(self, original, index, args, result, before):
        misses = original.cache_info().misses if hasattr(original, "cache_info") else None
        if result is None:
            return misses
        points, norms = result
        built = misses is None or misses > before
        self.info[index] = {"key": tuple(args[:2]), "points": int(points.shape[0]),
                            "bytes": int(points.nbytes + norms.nbytes) if built else 0,
                            "built": built}
        return None

    def _extra_evaluate_grid(self, original, index, args, result, before):
        if result is not None:
            self.trees.append((self.op, args[0], int(args[1].shape[0])))

    def _extra_synthesize(self, original, index, args, result, before):
        if result is not None:
            points = args[2]
            count = len(points) if getattr(points, "ndim", 2) != 1 else 1
            self.info[index] = {"point_modes": count * len(args[1].coeffs)}

    def _extra_polynomial_reducer_search(self, original, index, args, result, before):
        if result is not None:
            self.info[index] = {"candidates": result.candidates_checked}

    def _extra_reduce_tuple(self, original, index, args, result, before):
        if result is not None:
            self.pivots.append((self.op, result.family[-1].expr))
            top = max(c.cert.M for c in result.cofactors)
            self.info[index] = {"log10_M": math.log10(top) if top > 0 and math.isfinite(top) else math.inf}

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start_ns": start, "end_ns": end,
                                      "parent": parent, "op": op}) + "\n")

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: duration minus the time covered by child spans."""
        child = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return {name: ns / 1e9 for name, ns in totals.items()}

    def outermost(self, names) -> list[int]:
        """Indices of spans named in `names` with no ancestor named in `names`."""
        names = set(names)
        covered = [False] * len(self.spans)
        out = []
        for index, (name, _, _, parent, _) in enumerate(self.spans):
            inside = parent >= 0 and (covered[parent] or self.spans[parent][0] in names)
            covered[index] = inside
            if name in names and not inside:
                out.append(index)
        return out

    def seconds(self, *names) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.outermost(names)) / 1e9

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        ball = self.outermost({"lattice.ball"})
        balls = [self.info[i] for i in ball if i in self.info]
        built = [b for b in balls if b["built"]]
        node_counts, distinct = _tree_sizes(self.trees)
        per_op: dict = {}
        node_point_evals = 0
        for op, node, points in self.trees:
            nodes = node_counts[id(node)]
            node_point_evals += nodes * points
            if nodes > per_op.get(op, (0, None))[0]:
                per_op[op] = (nodes, node)
        sharing = [n / distinct(node) for n, node in per_op.values()]
        pivot_sizes, _ = _tree_sizes([(op, node, 0) for op, node in self.pivots])

        scanned = 0
        scan_ns = 0
        ball_in_scan = defaultdict(int)
        for i in ball:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] in SCANS and i in self.info:
                scanned += self.info[i]["points"]
                ball_in_scan[parent] += spans[i][2] - spans[i][1]
        for i in self.outermost(SCANS):
            scan_ns += spans[i][2] - spans[i][1] - ball_in_scan[i]

        synth = [self.info[i]["point_modes"] for i in self.outermost({"fourier.synthesize"}) if i in self.info]
        searches = [self.info[i]["candidates"] for i in self.outermost({"exp_type.polynomial_reducer_search"}) if i in self.info]
        log_m = [self.info[i]["log10_M"] for i in self.outermost({"stable_rank.reduce_tuple"}) if i in self.info]
        return {
            "lattice.ball_s": self.seconds("lattice.ball"),
            "lattice.ball_calls": len(ball),
            "lattice.ball_distinct": len({b["key"] for b in balls}),
            "lattice.ball_cache_hits": len(balls) - len(built),
            "lattice.points_built": sum(b["points"] for b in built),
            "lattice.bytes_built": sum(b["bytes"] for b in built),
            "expr.eval_grid_s": self.seconds("expr.evaluate_grid"),
            "expr.eval_grid_calls": len(self.outermost({"expr.evaluate_grid"})),
            "expr.node_point_evals": node_point_evals,
            "expr.tree_walk_s": self.seconds(*TREE_WALKS),
            "expr.parse_s": self.seconds("expr.parse_node"),
            "expr.to_json_s": self.seconds("expr.to_json"),
            "expr.sharing_ratio": statistics.median(sharing) if sharing else 0.0,
            "sequences.pairing_s": self.seconds("sequences.pairing"),
            "sequences.seminorm_s": self.seconds("sequences.seminorm"),
            "sequences.check_certificate_s": self.seconds("sequences.check_certificate"),
            "sequences.from_json_s": self.seconds("sequences.from_json"),
            "sequences.combine_s": self.seconds("sequences.combine"),
            "corona.check_window_s": self.seconds("corona.check_corona_window"),
            "corona.solve_bezout_s": self.seconds("corona.solve_bezout"),
            "corona.verify_bezout_s": self.seconds("corona.verify_bezout"),
            "corona.is_unit_s": self.seconds("corona.is_unit"),
            "corona.points_scanned": scanned,
            "corona.points_per_s": scanned / (scan_ns / 1e9) if scan_ns else 0.0,
            "stable_rank.reduce_tuple_s": self.seconds("stable_rank.reduce_tuple"),
            "stable_rank.reduce_pair_s": self.seconds("stable_rank.reduce_pair"),
            "stable_rank.weak_star_gap_s": self.seconds("stable_rank.weak_star_gap"),
            "stable_rank.pivot_tree_nodes": max(pivot_sizes.values(), default=0),
            "stable_rank.cofactor_log10_M": max(log_m, default=0.0),
            "fourier.coeffs_s": self.seconds("fourier.coeffs_from_samples"),
            "fourier.synth_s": self.seconds("fourier.synthesize"),
            "fourier.synth_point_modes": sum(synth),
            "exp_type.reducer_search_s": self.seconds("exp_type.polynomial_reducer_search"),
            "exp_type.candidates_checked": sum(searches),
            "cli.job_load_s": self.seconds("cli.job_load"),
            "cli.render_s": self.seconds("cli.render_report"),
        }

    def main_ms_by_op(self) -> dict:
        """Duration in ms of each outermost cli.main span, keyed by op id."""
        return {self.spans[i][4]: (self.spans[i][2] - self.spans[i][1]) / 1e6
                for i in self.outermost({"cli.main"})}


def _scalars(node) -> tuple:
    """The non-child fields of a node, as a hashable key."""
    fields = getattr(node, "__dict__", None)
    if fields is None:
        fields = {name: getattr(node, name) for name in getattr(node, "__slots__", ())}
    return tuple(sorted((k, repr(v)) for k, v in fields.items()
                        if not hasattr(v, "children") and not isinstance(v, tuple)))


def _tree_sizes(entries):
    """Tree node counts (with multiplicity) per root, and a structural distinct-node counter."""
    counts: dict[int, int] = {}
    keys: dict[int, int] = {}
    intern: dict = {}

    def walk(node):
        pending = [(node, False)]
        while pending:
            current, expanded = pending.pop()
            ident = id(current)
            if ident in counts:
                continue
            children = current.children()
            if not expanded:
                pending.append((current, True))
                pending.extend((c, False) for c in children if id(c) not in counts)
                continue
            counts[ident] = 1 + sum(counts[id(c)] for c in children)
            key = (type(current).__name__, _scalars(current), tuple(keys[id(c)] for c in children))
            keys[ident] = intern.setdefault(key, len(intern))

    for _, node, _ in entries:
        walk(node)

    def distinct(node) -> int:
        seen = set()
        pending = [node]
        while pending:
            current = pending.pop()
            key = keys[id(current)]
            if key in seen:
                continue
            seen.add(key)
            pending.extend(current.children())
        return len(seen)

    return {id(node): counts[id(node)] for _, node, _ in entries}, distinct
