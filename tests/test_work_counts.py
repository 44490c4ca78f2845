"""Fixed benchmark blocks do a pinned amount of work: tree walks, evaluations,
nodes built, combinations, ball builds and points evaluated.

The ops of reduction-chain seed 5, blocks 0-2, and of window-scan seed 77,
block 0, are prepared first; then the ball cache (and with it the kept node
values) is emptied and ``perfbench.library.execute`` runs each op under
``sys.setprofile``.  Calls are counted by code object, so a name imported
into another module (``combine`` into ``corona``, ``stable_rank`` and
``cli``) is counted wherever it is called from.  The counts do not depend on
numpy's CPU dispatch level.

perfbench is imported read-only, with the repository root on ``sys.path``.
A change that moves a count updates its pin here and says why.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

import periodist  # noqa: E402
from perfbench import library  # noqa: E402
from periodist import expr, lattice, sequences  # noqa: E402

COUNTED = {
    "_postorder": expr._postorder.__code__,
    "_evaluate": expr._evaluate.__code__,
    "Ranged.__post_init__": expr.Ranged.__post_init__.__code__,
    "combine": sequences.combine.__code__,
    "_compose": sequences._compose.__code__,
    "ball builds": lattice.ball.__wrapped__.__code__,
}

PINS = {
    "reduction-chain": (library.reduction_chain_blocks, 5, range(3), {
        "_postorder": 1_422, "_evaluate": 762, "Ranged.__post_init__": 20_691, "combine": 6_804,
        "_compose": 8_022, "ball builds": 6, "points evaluated": 118_270,
    }),
    "window-scan": (library.window_scan_blocks, 77, range(1), {
        "_postorder": 75, "_evaluate": 75, "Ranged.__post_init__": 157, "combine": 60,
        "_compose": 65, "ball builds": 9, "points evaluated": 3_145_478,
    }),
}


def work_counts(ops: list[dict]) -> dict[str, int]:
    """Calls of each counted function, and points passed to ``_evaluate``, over the ops."""
    names = {code: name for name, code in COUNTED.items()}
    counts = dict.fromkeys([*COUNTED, "points evaluated"], 0)

    def profile(frame, event, arg):
        if event == "call":
            name = names.get(frame.f_code)
            if name is not None:
                counts[name] += 1
                if name == "_evaluate":
                    counts["points evaluated"] += frame.f_locals["points"].shape[0]

    prepared = [(op, library.prepare(periodist, op)) for op in ops]
    lattice.ball.cache_clear()
    sys.setprofile(profile)
    try:
        for op, objs in prepared:
            library.execute(periodist, op, objs)
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("workload", sorted(PINS))
def test_work_counts_are_pinned(workload):
    blocks, seed, chosen, pinned = PINS[workload]
    generated = blocks(seed, max(chosen) + 1)
    measured = work_counts([op for b in chosen for op in generated[b]])
    moved = [f"{name}: pinned {pinned[name]:,}, measured {measured[name]:,}"
             for name in pinned if measured[name] != pinned[name]]
    assert not moved, "; ".join(moved)
