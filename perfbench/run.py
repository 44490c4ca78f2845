"""Benchmark of the periodist package, measured from outside.

    python3 perfbench/run.py --workload window-scan --seed 1 --seconds 30 --trace 0

One process, one closed-loop client, one thread (the package default).
The package is imported from ``src/`` of the checkout this file sits in;
it receives only the inputs generated from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
ops twice, untraced and then with spans around every public function of
each module, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is false
when an op on well-formed input raised or returned a wrong answer;
``failed`` counts every op that raised or failed its check, malformed job
files included.  Metric names and units come from BENCHMARK.json.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# One thread in all: numpy's BLAS would otherwise run the Fourier matrix
# products on every core, beside the package's own threads=1.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
# setup_s is the median of this many cold set-ups: this process's own and
# the rest in fresh interpreters running this file with --setup-only,
# half before the timed phase and half after it.
SETUP_REPEATS = 5
# Every run times a fixed number of whole blocks, so two runs of a
# workload attempt the same ops and their failed counts repeat exactly.
# An untraced run takes as many blocks as fill --seconds at the workload's
# nominal ``block_seconds``, and never fewer than make MIN_OPS ops, so p90
# always has at least ten samples beyond it.  A traced run times
# ``trace_blocks`` twice, untraced and traced.  A phase stops early only
# past CAP_S, on a host far slower than the nominal one.
MIN_OPS = 100
CAP_S = 120.0
# The threads re-timing runs the first THREAD_SCANS multi-chunk scans.
THREAD_SCANS = 4
THREADS = min(2, os.cpu_count() or 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("window-scan", "reduction-chain", "cli-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print the cold set-up time and exit")
    return parser.parse_args(argv)


def cold_setup_seconds(args) -> float:
    """Start of this file to the end of set-up, in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.splitlines()[-1])


def import_package():
    """periodist from this checkout's src/, or None when it is not there."""
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import periodist
        import periodist.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as err:
        print(f"perfbench: cannot import periodist from {ROOT / 'src'}: {err}", file=sys.stderr)
        return None
    if ROOT / "src" not in Path(periodist.__file__).resolve().parents:
        print(f"perfbench: periodist was imported from {periodist.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return None
    return periodist


class Phase:
    """Outcome of one closed-loop pass over whole blocks."""

    def __init__(self):
        self.latencies_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracebacks = 0
        self.rejected_clean = 0
        self.slack: list[float] = []
        self.reasons: dict[str, int] = {}
        self.ops: list[dict] = []

    @property
    def ops_per_s(self) -> float:
        """Ops completed per second spent in the package's calls."""
        return len(self.latencies_ms) / (sum(self.latencies_ms) / 1e3)


def timed_blocks(workload, seconds: float) -> int:
    """Whole blocks that fill `seconds` at the nominal rate, and at least MIN_OPS ops."""
    return max(round(seconds / workload.block_seconds), math.ceil(MIN_OPS / len(workload.blocks[0])))


def measure(workload, blocks: int, tracer=None) -> Phase:
    """Run `blocks` whole blocks, or fewer if CAP_S passes first.

    Only the package calls are timed; checks run between them.
    """
    phase = Phase()
    workload.reset()
    start = time.perf_counter()
    index = 0

    def more() -> bool:
        if index > 0 and time.perf_counter() - start > CAP_S:
            print(f"perfbench: stopped after {index} of {blocks} blocks, past {CAP_S:.0f} s", file=sys.stderr)
            return False
        return index < blocks

    while more():
        for op in workload.blocks[index % len(workload.blocks)]:
            workload.before(op)
            if tracer is not None:
                tracer.op = len(phase.ops)
            result, error = None, None
            began = time.perf_counter_ns()
            try:
                result = workload.run(op)
            except Exception as exc:  # a raising op is a measured failure
                error = exc
            elapsed = time.perf_counter_ns() - began
            if tracer is not None:
                tracer.op = None
            phase.latencies_ms.append(elapsed / 1e6)
            phase.ops.append(op)
            reason = f"raised {type(error).__name__}: {error}" if error else workload.check(op, result)
            _record(phase, op, result, error, reason, workload)
        index += 1
    return phase


def _record(phase, op, result, error, reason, workload):
    phase.attempted += 1
    malformed = op["expect"].get("malformed", False)
    escaped = error is not None or workload.escaped(result)
    if escaped:
        phase.tracebacks += 1
    if reason is not None:
        phase.failed += 1
        if not malformed:
            phase.wrong += 1
        label = reason.split(":")[0] if escaped else reason[:60]
        key = f"{op.get('command', op.get('kind'))}: {label}"
        phase.reasons[key] = phase.reasons.get(key, 0) + 1
    elif malformed:
        phase.rejected_clean += 1
    if reason is None and error is None:
        slack = workload.tail_slack(op, result)
        if slack is not None:
            phase.slack.append(slack)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setup_s: float) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "op_p50_ms": statistics.median(phase.latencies_ms),
        "op_p90_ms": percentile(phase.latencies_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def threads_speedup(workload, phase: Phase) -> float:
    """Scan time with threads=1 over threads=THREADS on multi-chunk corona scans."""
    from perfbench import library

    if not hasattr(workload, "scan_ops"):
        return 0.0
    one = many = 0.0
    for op in workload.scan_ops(1 << 16)[:THREAD_SCANS]:
        library.execute(workload.P, op, op["objs"])  # builds the ball
        for threads in (1, THREADS, THREADS, 1):
            began = time.perf_counter()
            result = library.execute(workload.P, op, op["objs"], threads)
            elapsed = time.perf_counter() - began
            if threads == 1:
                one += elapsed
            else:
                many += elapsed
            _record(phase, op, result, None, library.check(op, result), workload)
    return one / many if many else 0.0


def traced_metrics(P, workload):
    """Per-layer metrics from the traced run, its phases and its tracer."""
    from perfbench.corpus import COMMANDS
    from perfbench.tracer import Tracer

    plain = measure(workload, workload.trace_blocks)
    tracer = Tracer(P)
    tracer.install()
    try:
        traced = measure(workload, workload.trace_blocks, tracer)
    finally:
        tracer.uninstall()
    extra = Phase()
    metrics = tracer.layer_metrics()
    metrics["corona.threads2_speedup"] = threads_speedup(workload, extra)
    main_ms = tracer.main_ms_by_op()
    for command in COMMANDS:
        samples = [ms for i, ms in main_ms.items()
                   if traced.ops[i].get("command") == command and not traced.ops[i]["expect"].get("malformed")]
        metrics[f"cli.{command}_ms"] = statistics.median(samples) if samples else 0.0
    metrics["cli.rejected_clean"] = traced.rejected_clean
    metrics["cli.tracebacks"] = traced.tracebacks
    metrics["cli.reports_changed"] = reports_changed(workload)
    metrics["sequences.tail_log10_slack"] = statistics.median(traced.slack) if traced.slack else 0.0
    metrics["trace.overhead_ops_per_s"] = plain.ops_per_s - traced.ops_per_s
    phases = [plain, traced, extra]
    attempted = sum(p.attempted for p in phases)
    metrics["error_rate"] = sum(p.failed for p in phases) / attempted
    return metrics, phases, tracer


def reports_changed(workload) -> int:
    if not hasattr(workload, "reference_reports"):
        return 0
    stored = json.loads((HERE / "digests.json").read_text())["reports"]
    current = workload.reference_reports()
    return sum(1 for name in stored.keys() | current.keys() if stored.get(name) != current.get(name))


def summary(phases: list[Phase], metrics: dict, names: list[str], units: dict) -> dict:
    """The result line: correct only if no well-formed op raised or failed its check."""
    return {
        "correct": all(p.wrong == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    P = import_package()
    if P is None:
        return 2
    from perfbench.workloads import WORKLOADS, clear_ball_cache

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](P, args.seed, workdir)
    try:
        workload.setup()
        setups = [time.perf_counter() - START]
        if args.setup_only:
            print(setups[0])
            return 0
        if args.trace:
            metrics, phases, tracer = traced_metrics(P, workload)
            names = [m["name"] for m in spec["per_layer"]]
            trace_path = outdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            outdir.mkdir(exist_ok=True)
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
            print("self time by span (s):")
            for name, secs in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])[:12]:
                print(f"  {name:40s} {secs:10.4f}")
        else:
            # Half the fresh set-ups run before the timed phase and half
            # after it, so they sample the host across the whole run.
            before = (SETUP_REPEATS - 1) // 2
            setups += [cold_setup_seconds(args) for _ in range(before)]
            phase = measure(workload, timed_blocks(workload, args.seconds))
            clear_ball_cache(P)  # frees its memory while the fresh interpreters run
            setups += [cold_setup_seconds(args) for _ in range(SETUP_REPEATS - 1 - before)]
            phases = [phase]
            metrics = end_to_end(phase, statistics.median(setups))
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    main_phase = phases[0]
    result = summary(phases, metrics, names, units)
    print(f"workload {args.workload} seed {args.seed}: {len(main_phase.latencies_ms)} timed ops "
          f"in {sum(main_phase.latencies_ms) / 1e3:.2f} s of package calls; "
          f"cold set-ups {', '.join(f'{r:.3f}' for r in setups)} s")
    for name in names:
        count = "" if args.trace else f" (n={SETUP_REPEATS if name == 'setup_s' else len(main_phase.latencies_ms)})"
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}{count}")
    print(f"  {'attempted':36s} {result['attempted']:14d}\n  {'failed':36s} {result['failed']:14d}")
    for reason, count in sorted(main_phase.reasons.items()):
        print(f"  failure x{count}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
