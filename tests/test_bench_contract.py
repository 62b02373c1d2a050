"""Every biozpipe name the benchmark harness uses still exists, and every
call it makes into biozpipe still binds to the callee's signature.

``bench/tracer.py`` wraps the functions of its ``TARGETS``,
``bench/selftest.py`` requires those of its ``CALLED``, and every bench
script reads names off the biozpipe modules it imports; a removed name
would otherwise show only in the selftest, which takes minutes.  The
scripts are read with ``ast``: importing ``bench/`` would shadow other
modules with its ``run`` and ``stream``.
"""

import ast
import importlib
import inspect
from pathlib import Path

from biozpipe import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parse(file):
    return ast.parse((BENCH / file).read_text(encoding="utf-8"))


def literal(file, name):
    """The value assigned to module-level ``name`` in ``bench/<file>``."""
    for node in parse(file).body:
        targets = getattr(node, "targets", ())
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/{file} assigns no {name}")


def module_aliases(tree):
    """Module name of every alias bound in ``tree`` by ``import biozpipe``
    or ``from biozpipe import``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "biozpipe":
            for a in node.names:
                aliases[a.asname or a.name] = f"biozpipe.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "biozpipe":
                    aliases[a.asname or a.name] = "biozpipe"
    return aliases


def module_reads(tree):
    """``(module, name)`` for every ``alias.name`` read in ``tree``."""
    aliases = module_aliases(tree)
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def module_calls(tree):
    """Every call ``alias.name(...)`` in ``tree``."""
    aliases = module_aliases(tree)
    return [(aliases[f.value.id], f.attr, node) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(f := node.func, ast.Attribute)
            and isinstance(f.value, ast.Name) and f.value.id in aliases]


def config_reads(tree):
    """Attributes read off a ``RunConfig`` held as ``cfg`` or ``st["cfg"]``."""
    def is_cfg(v):
        return ((isinstance(v, ast.Name) and v.id == "cfg")
                or (isinstance(v, ast.Subscript)
                    and isinstance(v.slice, ast.Constant)
                    and v.slice.value == "cfg"))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and is_cfg(node.value)}


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


def test_module_reads_resolve():
    reads = {(file.name, mod, name) for file in sorted(BENCH.glob("*.py"))
             for mod, name in module_reads(parse(file.name))}
    # the walk sees the reads it is meant to check
    assert ("stream.py", "biozpipe.phantom", "generate_phantom_set") in reads
    assert ("health.py", "biozpipe.geometry", "load_mesh") in reads
    missing = [f"{file}: {mod}.{name}" for file, mod, name in sorted(reads)
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing


def test_module_calls_bind():
    # a renamed or removed parameter, or one that lost its default, breaks
    # a bench call as surely as a removed name
    calls = [(file.name, mod, name, node)
             for file in sorted(BENCH.glob("*.py"))
             for mod, name, node in module_calls(parse(file.name))]
    assert len(calls) >= 27
    unbound = []
    for file, mod, name, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        fn = getattr(importlib.import_module(mod), name)
        try:
            inspect.signature(fn).bind(*node.args,
                                       **{k.arg: k for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{file}:{node.lineno}: {mod}.{name}: {exc}")
    assert not unbound


def test_run_config_reads_resolve():
    reads = config_reads(parse("stream.py")) | config_reads(parse("health.py"))
    assert reads >= {"saline_ms_per_m", "contact_impedance_ohm_mm",
                     "gain_per_mv", "rbf", "tissue_model", "integration"}
    cfg = cli.RunConfig()
    assert not [name for name in sorted(reads) if not hasattr(cfg, name)]
    for method in ("rbf", "tissue_model", "integration"):
        getattr(cfg, method)()


def bench_command_lines():
    """Every command line ``bench/run.py`` and ``bench/selftest.py`` give
    the CLI, with the ``--seed`` and ``--out`` that ``Run.seeded`` adds."""
    names = ("PIPELINE_ARGS", "GENERATE_ARGS", "TRAIN_ARGS", "QUANTIZE_ARGS")
    lines = [literal("run.py", name) for name in names]
    lines += [[*lines[0], "--threads", t] for t in ("1", "2")]
    return [[*args, "--seed", "7", "--out", "d"] for args in lines]


def test_bench_command_lines_parse():
    # a flag the bench passes that a command lost would otherwise show only
    # in the selftest
    parser = cli.build_parser()
    for args in bench_command_lines():
        try:
            parsed = parser.parse_args(args)
        except SystemExit:
            raise AssertionError(f"biozpipe rejects {args}") from None
        assert parsed.command == args[0]
