"""Every biozpipe function the benchmark harness names still exists.

``bench/tracer.py`` wraps the functions of its ``TARGETS`` and
``bench/selftest.py`` requires those of its ``CALLED``; a renamed function
would otherwise show only in the selftest, which takes minutes.  Both
literals are read with ``ast``: importing ``bench/`` would shadow other
modules with its ``run`` and ``stream``.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def literal(file, name):
    """The value assigned to module-level ``name`` in ``bench/<file>``."""
    tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
    for node in tree.body:
        targets = getattr(node, "targets", ())
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{file} assigns no {name}")


def test_traced_and_required_functions_resolve():
    targets = literal("tracer.py", "TARGETS")
    names = {f"{mod}.{fn}" for mod, fns in targets.items() for fn, _ in fns}
    names |= {name for fns in literal("selftest.py", "CALLED").values()
              for name in fns}
    assert "cli.stage_train" in names
    missing = []
    for name in sorted(names):
        mod, fn = name.split(".")
        module = importlib.import_module(f"biozpipe.{mod}")
        if not callable(getattr(module, fn, None)):
            missing.append(name)
    assert not missing
