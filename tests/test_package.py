"""The package's import surface, the names the benchmark's tracer patches, and the
benchmark's own library calls."""

import ast
import subprocess
import sys
from pathlib import Path

import periodist
import periodist.cli  # noqa: F401  (the package does not import its entry point)

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(periodist.__file__).resolve().parent


def tracer_targets():
    """``TARGETS`` of perfbench/tracer.py, read as a literal so perfbench is never imported."""
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def test_every_traced_name_resolves_and_a_bare_import_loads_every_module():
    # The tracer looks each module up on the package, a function on its module, and a
    # "Class.method" in the class's own namespace.
    targets = tracer_targets()
    assert targets
    for module, attribute, _ in targets:
        owner = getattr(periodist, module)
        *classes, name = attribute.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(vars(owner)[name] if classes else getattr(owner, name)), (module, attribute)
    # Every module but the entry point is an attribute of the package after `import periodist`.
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "cli"))
    missing = subprocess.run(
        [sys.executable, "-c", f"import periodist; print([m for m in {modules!r} if not hasattr(periodist, m)])"],
        capture_output=True, text=True, check=True, timeout=60, env={"PYTHONPATH": str(PACKAGE.parent)},
    ).stdout
    assert missing == "[]\n"


def test_the_benchmark_library_calls_run():
    # perfbench is imported read-only, with the repository root on sys.path: one op of
    # each window-scan kind on a small window, as its warm-up runs them, and one N=4
    # reduction chain, checked against its expectation.
    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench import library

    ops = library.window_scan_blocks(0, 1)[0]
    for kind in library.WS_KINDS:
        op = next(op for op in ops if op["kind"] == kind)
        assert library.execute(periodist, dict(op, R=6), library.prepare(periodist, op)) is not None, kind
    op = next(op for op in library.reduction_chain_blocks(0, 1)[0] if op["N"] == 4)
    assert library.check(op, library.execute(periodist, op, library.prepare(periodist, op))) is None
