"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that generation is seeded (same seed, same inputs; another seed,
other inputs), that window-scan's fresh windows miss the ball cache and
its reused ones hit it, that the reference arithmetic agrees with brute
force, that an op raising on well-formed input makes the result incorrect,
that every metric of BENCHMARK.json prints with its unit in both modes and
has a definition in metrics.json, that the benchmark refuses to run
without the package, that two seeds attempt the same ops and fail the
same number of them, and that two runs of one seed agree within the
bounds.  Runs every group and exits 1 if any failed.
"""

import itertools
import json
from collections import OrderedDict
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import corpus, library, oracle  # noqa: E402

FAILURES: list[str] = []
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)


def _dump(blocks) -> str:
    strip = [[{k: v for k, v in op.items() if k not in ("objs", "samples")} for op in block] for block in blocks]
    return json.dumps(strip, default=repr, sort_keys=True)


def test_seeded_generation() -> None:
    for name, generate in (("window-scan", library.window_scan_blocks),
                           ("reduction-chain", library.reduction_chain_blocks),
                           ("cli-corpus", corpus.corpus_blocks)):
        first, again, other = _dump(generate(3, 2)), _dump(generate(3, 2)), _dump(generate(4, 2))
        expect(first == again, f"{name}: the same seed gave different inputs")
        expect(first != other, f"{name}: a different seed gave the same inputs")
    samples = [op["samples"] for op in corpus.corpus_blocks(3, 1)[0] if op["samples"] is not None]
    expect(samples == [op["samples"] for op in corpus.corpus_blocks(3, 1)[0] if op["samples"] is not None],
           "cli-corpus: binary samples are not seeded")


def test_block_shapes() -> None:
    for block in library.window_scan_blocks(5, 3):
        reused = sum(op["reused"] for op in block)
        expect(len(block) == 28 and reused == 7, "window-scan block is not 21 fresh + 7 reused ops")
        for op in block:
            points = oracle.ball_size(op["d"], op["R"])
            expect(5_000 <= points <= 250_000, f"window-scan ball of {points} points")
    sizes = sorted(op["N"] for op in library.reduction_chain_blocks(5, 1)[0])
    expect(sizes == sorted(library.RC_SIZES), "reduction-chain block sizes")
    block = corpus.corpus_blocks(5, 1)[0]
    malformed = sum(bool(op["expect"].get("malformed")) for op in block)
    expect({op["command"] for op in block} == set(corpus.COMMANDS), "cli-corpus block misses a subcommand")
    expect(0.08 <= malformed / len(block) <= 0.12, "cli-corpus malformed share is not about 10%")


def test_window_reuse() -> None:
    """Replays three passes of the generated blocks through a 64-entry LRU."""
    from perfbench.workloads import WindowScan

    cache: OrderedDict = OrderedDict()
    for block in library.window_scan_blocks(5, WindowScan.blocks_generated) * 3:
        for op in block:
            key = (op["d"], op["R"])
            expect((key in cache) == op["reused"], f"window-scan {key}: reused={op['reused']} but cached={key in cache}")
            cache[key] = None
            cache.move_to_end(key)
            if len(cache) > 64:
                cache.popitem(last=False)


def test_oracle() -> None:
    for d, r in itertools.product((1, 2, 3, 4), range(6)):
        brute = sum(1 for p in itertools.product(range(-r, r + 1), repeat=d) if sum(map(abs, p)) == r)
        expect(oracle.shell_count(d, r) == brute, f"shell_count({d}, {r})")
    points = oracle.subwindow(2, 1)
    expect(points == [(0, 0), (-1, 0), (0, -1), (0, 1), (1, 0)], "subwindow order")
    expect(oracle.evaluate({"kind": "phase", "arg": {"kind": "const", "re": -2.0, "im": 0.0}}, (0,)).real == -1.0,
           "phase of a negative real")


def run_benchmark(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _metrics_ok(result: dict, names: list[str], units: dict, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["attempted"] >= 1 and isinstance(result["failed"], int), f"{label}: counts")
    expect(list(result["metrics"]) == names, f"{label}: metric names")
    for name, entry in result["metrics"].items():
        expect(entry.get("unit") == units.get(name) and isinstance(entry.get("value"), (int, float)),
               f"{label}: {name} lacks its unit or value")


def test_raise_is_incorrect() -> None:
    """A well-formed op that raises counts as wrong, not only as failed."""
    from perfbench import run

    class Raising:
        blocks = [[{"kind": "stub", "expect": {}}]]

        def reset(self):
            pass

        def before(self, op):
            pass

        def run(self, op):
            raise ValueError("stub")

        def escaped(self, result):
            return False

        def tail_slack(self, op, result):
            return None

    phase = run.measure(Raising(), run.MIN_OPS)
    result = run.summary([phase], {}, [], {})
    expect(result["correct"] is False and result["failed"] == result["attempted"] == run.MIN_OPS,
           f"a raising well-formed op gave {result}")


def test_metrics_print() -> None:
    units = UNITS
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    definitions = json.loads((HERE / "metrics.json").read_text())["what"]
    expect(set(units) <= set(definitions), f"metrics.json lacks definitions of {set(units) - set(definitions)}")
    done = run_benchmark("--workload", "cli-corpus", "--seed", 2, "--seconds", 1, "--trace", 0)
    expect(done.returncode == 0, f"untraced run exited {done.returncode}: {done.stderr[-300:]}")
    if done.returncode == 0:
        result = json.loads(done.stdout.splitlines()[-1])
        _metrics_ok(result, e2e, units, "cli-corpus untraced")
        for name in e2e:
            expect(f"{name} " in done.stdout and units[name] in done.stdout, f"{name} not printed by name and unit")

    # The traced path on a few ops of each workload, in-process.
    from perfbench import run
    from perfbench.workloads import WORKLOADS

    P = run.import_package()
    expect(P is not None, "package import")
    original_ball = P.lattice.ball
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            workload = cls(P, 2, Path(work))
            workload.setup()
            workload.blocks = [block[:6] for block in workload.blocks[:1]]
            workload.trace_blocks = 1
            metrics, phases, tracer = run.traced_metrics(P, workload)
            workload.close()
        expect(set(per_layer) <= set(metrics), f"{name}: traced run lacks {set(per_layer) - set(metrics)}")
        expect(all(isinstance(metrics[n], (int, float)) for n in per_layer), f"{name}: non-numeric metric")
        expect(len(tracer.spans) > 0 and all(s is not None for s in tracer.spans), f"{name}: spans")
    # Wrappers are gone again after a traced run.
    expect(P.lattice.ball is original_ball and P.sequences.ball is original_ball and P.cli.main.__module__ == "periodist.cli"
           and not hasattr(P.cli.main, "__wrapped__"), "tracer left a wrapper installed")


def test_refuses_without_package() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark("--workload", "window-scan", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=bare)
    expect(done.returncode != 0 and "{" not in done.stdout, "runs without the package")


def test_same_seed_agrees() -> None:
    from perfbench.spread import run_once

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    a, b = (run_once("window-scan", 7, 10) for _ in range(2))
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        expect(abs(x - y) <= bound * max(x, y), f"window-scan {name}: {x:.4g} vs {y:.4g} differ by more than {bound:.0%}")


def test_counts_repeat() -> None:
    """Every run of a workload attempts the same ops, so failed counts repeat across seeds."""
    from perfbench.spread import run_once

    a, b = run_once("cli-corpus", 2, 3), run_once("cli-corpus", 3, 3)
    expect(a["failed"] > 0 and (a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
           f"cli-corpus counts differ between seeds: {a['failed']}/{a['attempted']} vs {b['failed']}/{b['attempted']}")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for test in (test_seeded_generation, test_block_shapes, test_window_reuse, test_oracle, test_raise_is_incorrect,
                 test_refuses_without_package, test_metrics_print, test_counts_repeat,
                 test_same_seed_agrees):
        before = len(FAILURES)
        test()
        print(f"{test.__name__}: {'ok' if len(FAILURES) == before else 'FAILED'}", flush=True)
    for failure in FAILURES:
        print(f"  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
