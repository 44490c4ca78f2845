"""Run-to-run spread of the end-to-end metrics, one fresh process per run.

    python3 perfbench/spread.py --workloads window-scan cli-corpus --seeds 1 2 3 4 5 --seconds 30
    python3 perfbench/spread.py --seeds 7     # every workload once, for one seed

For each workload and end-to-end metric, setup_s included, it prints the
median of the runs and the distance between the first and third quartile
(``statistics.quantiles``, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound
is flagged as a warning; the exit code is 1 only if a spread exceeds the
bound itself, or if the runs of a workload differ in how many ops they
attempted or failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-400:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["window-scan", "reduction-chain", "cli-corpus"])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    over = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            values = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
        if len(runs) < 2:
            continue
        counts = {(r["attempted"], r["failed"]) for r in runs}
        if len(counts) > 1:
            over += 1
            print(f"  {workload:16s} attempted/failed differ between runs: {sorted(counts)}", flush=True)
        for name, bound in bounds.items():
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            over += share > bound
            flag = "  ABOVE THE BOUND" if share > bound else "  above a third of the bound" if share > bound / 3 else ""
            print(f"  {workload:16s} {name:12s} median {median:12.5g}  spread {share:7.2%}  bound {bound:.0%}{flag}",
                  flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
