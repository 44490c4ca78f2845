"""The cli-corpus jobs of seed 0 keep their outcomes: exit code, stderr and report bytes.

Each of the 264 ops of ``perfbench.corpus.corpus_blocks(0, 6)`` runs through
``cli.main`` in-process, and its exit code (or the type of the exception that
escaped), the sha256 of its stderr and the sha256 of its report are compared
with ``tests/data/corpus_lock.json``. Report bits depend on numpy's version and
CPU dispatch level (``np.exp`` rounds differently without AVX-512), so report
digests are compared only where both match the lock's; exit codes and stderr
are compared everywhere.

perfbench is imported read-only, with the repository root on ``sys.path``.
A change that means to alter reports re-records the lock with
``PYTHONPATH=src python tests/test_corpus_lock.py``; its diff names the ops.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench import corpus  # noqa: E402
from periodist import cli  # noqa: E402

LOCK = Path(__file__).resolve().parent / "data" / "corpus_lock.json"
SEED, BLOCKS = 0, 6


def dispatch() -> dict:
    """numpy's version and the CPU features its kernels dispatch on here."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {"numpy": np.__version__, "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_corpus(directory: Path) -> list[dict]:
    """One record per op: its name, exit code or escaped exception type, and the digests."""
    ops = [op for block in corpus.corpus_blocks(SEED, BLOCKS) for op in block]
    corpus.write_jobs(ops, directory)
    records = []
    for op in ops:
        code, err, exc = corpus.execute(cli.main, op)
        records.append({
            "name": op["name"],
            "exit": code if exc is None else type(exc).__name__,
            "stderr": _sha(err.encode()),
            "report": _sha(corpus.report_bytes(op)),
        })
    return records


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("cli-corpus"))


@pytest.fixture(scope="module")
def lock():
    return json.loads(LOCK.read_text())


def _first_change(records: list[dict], locked: list[dict], parts: tuple[str, ...]) -> str | None:
    assert [r["name"] for r in records] == [r["name"] for r in locked], "the corpus itself changed"
    for new, old in zip(records, locked):
        for part in parts:
            if new[part] != old[part]:
                return f"{new['name']}: {part} changed ({old[part]!r} -> {new[part]!r})"
    return None


def test_exit_codes_and_stderr_match_the_lock(outcomes, lock):
    assert _first_change(outcomes, lock["ops"], ("exit", "stderr")) is None


def test_reports_match_the_lock_at_its_numpy_and_dispatch_level(outcomes, lock):
    here = dispatch()
    if here["numpy"] != lock["numpy"]:
        pytest.skip(f"report digests not compared: numpy {here['numpy']} here, {lock['numpy']} in the lock")
    if here["cpu_features"] != lock["cpu_features"]:
        missing = sorted(set(lock["cpu_features"]) - set(here["cpu_features"]))
        extra = sorted(set(here["cpu_features"]) - set(lock["cpu_features"]))
        pytest.skip(f"report digests not compared: CPU features {missing} of the lock are off here, {extra} are on")
    assert _first_change(outcomes, lock["ops"], ("report",)) is None


def write_lock(records: list[dict]) -> None:
    """One op per line, so the diff of a re-recorded lock names the changed ops."""
    head = json.dumps(dispatch())[:-1]
    rows = ",\n".join("  " + json.dumps(r) for r in records)
    LOCK.parent.mkdir(exist_ok=True)
    LOCK.write_text(f'{head}, "ops": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_lock(run_corpus(Path(directory)))
    print(f"wrote {LOCK}")
