"""The package's import surface, and the names the benchmark's tracer patches."""

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
