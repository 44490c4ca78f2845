"""The three workloads behind one interface.

``block_seconds`` is the nominal wall time of one block, checks included,
on the 2-core host the benchmark was tuned on (Intel Xeon, 2.1 GHz); a
run of ``--seconds`` times that many whole blocks.  ``setup`` generates the seeded inputs, turns them into what the package
takes and warms up; ``run`` is the timed call; ``check`` compares the
outcome with the expectation fixed at generation.  ``reset`` puts the ball
cache back in its post-set-up state, so every timed phase starts alike.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from pathlib import Path

from . import corpus, library
from .oracle import ball_size


def clear_ball_cache(P) -> None:
    clear = getattr(P.lattice.ball, "cache_clear", None)
    if clear is not None:
        clear()


class LibraryWorkload:
    """Shared code of window-scan and reduction-chain."""

    def __init__(self, P, seed: int, workdir: Path):
        self.P = P
        self.seed = seed
        self.blocks: list[list[dict]] = []

    def setup(self) -> None:
        self.blocks = self.generate(self.seed, self.blocks_generated)
        for block in self.blocks:
            for op in block:
                op["objs"] = library.prepare(self.P, op)
                op["subwindow_ok"] = library.subwindow_matches(self.P, library.generated_trees(op), op["d"])
        self.warm_up()
        self.reset()

    def warm_up(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        clear_ball_cache(self.P)

    def before(self, op: dict) -> None:
        pass

    def escaped(self, result) -> bool:
        return False

    def run(self, op: dict):
        return library.execute(self.P, op, op["objs"])

    def check(self, op: dict, result) -> str | None:
        if not op["subwindow_ok"]:
            return "plain-Python values differ from window() on the sub-window"
        return library.check(op, result)

    def tail_slack(self, op: dict, result) -> float | None:
        if op["kind"] != "pairing" or result is None:
            return None
        return _log_ratio(result.tail_bound, op["expect"]["partial_tail"])

    def close(self) -> None:
        pass


class WindowScan(LibraryWorkload):
    name = "window-scan"
    # Blocks are reused in order when a run needs more.  Ten blocks are
    # two whole cycles of the d=3 and d=4 radii, so a radius still recurs
    # only after its whole cycle when they come round.
    blocks_generated = 10
    block_seconds = 1.5
    trace_blocks = 8
    generate = staticmethod(library.window_scan_blocks)

    def warm_up(self) -> None:
        # Calls of each kind on small windows: first-call costs only.
        for op in self.blocks[0][: len(library.WS_KINDS) * 2]:
            library.execute(self.P, dict(op, R=6), op["objs"])

    def scan_ops(self, minimum_points: int) -> list[dict]:
        """Corona scans on balls of more than `minimum_points` points."""
        return [op for block in self.blocks for op in block
                if op["kind"] == "corona" and ball_size(op["d"], op["R"]) > minimum_points]


class ReductionChain(LibraryWorkload):
    name = "reduction-chain"
    blocks_generated = 6
    block_seconds = 14.0
    trace_blocks = 1
    generate = staticmethod(library.reduction_chain_blocks)

    def warm_up(self) -> None:
        op = next(op for op in self.blocks[0] if op["N"] == 4)
        library.execute(self.P, op, op["objs"])


class CliCorpus:
    name = "cli-corpus"
    blocks_generated = 6
    block_seconds = 1.25
    trace_blocks = 8

    def __init__(self, P, seed: int, workdir: Path):
        self.P = P
        self.seed = seed
        self.directory = workdir / "cli-corpus"
        self.blocks: list[list[dict]] = []

    def setup(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        self.blocks = corpus.corpus_blocks(self.seed, self.blocks_generated)
        corpus.write_jobs([op for block in self.blocks for op in block], self.directory)
        self.warm_up()
        self.reset()

    def warm_up(self) -> None:
        # Each subcommand once, exp-demo aside: it has no first-call cost
        # and takes 0.4 s.
        seen = {"exp-demo"}
        for op in (op for block in self.blocks for op in block):
            if op["command"] not in seen and not op["expect"].get("malformed"):
                seen.add(op["command"])
                corpus.execute(self.P.cli.main, op)

    def reset(self) -> None:
        # The corpus reuses a few windows; keep them built, as a user's
        # repeated runs would.
        clear_ball_cache(self.P)
        for d in (1, 2, 3):
            for R in corpus.CLI_WINDOWS + (8,):
                self.P.lattice.ball(d, R)

    def before(self, op: dict) -> None:
        if os.path.exists(op["out"]):
            os.remove(op["out"])

    def run(self, op: dict):
        return corpus.execute(self.P.cli.main, op)

    def escaped(self, outcome) -> bool:
        return outcome is not None and outcome[2] is not None

    def check(self, op: dict, outcome) -> str | None:
        return corpus.check(op, outcome, corpus.report_bytes(op))

    def tail_slack(self, op: dict, outcome) -> float | None:
        if op["command"] != "pair" or op["expect"].get("malformed") or outcome[0] != 0:
            return None
        tail = json.loads(corpus.report_bytes(op))["results"]["tail_bound"]
        return _log_ratio(tail, op["expect"]["partial_tail"])

    def reference_reports(self) -> dict[str, str]:
        """sha256 of every report of the reference corpus (seed 0, first two blocks)."""
        directory = self.directory.parent / "cli-reference"
        shutil.rmtree(directory, ignore_errors=True)
        ops = [op for block in corpus.corpus_blocks(0, 2) for op in block]
        corpus.write_jobs(ops, directory)
        digests = {}
        for op in ops:
            corpus.execute(self.P.cli.main, op)
            data = corpus.report_bytes(op)
            if data is not None:
                digests[op["name"]] = corpus.digest(data)
        shutil.rmtree(directory, ignore_errors=True)
        return digests

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def _log_ratio(tail: float, partial: float) -> float | None:
    if not (tail > 0 and partial > 0 and math.isfinite(tail)):
        return None
    return math.log10(tail / partial)


WORKLOADS = {w.name: w for w in (WindowScan, ReductionChain, CliCorpus)}
