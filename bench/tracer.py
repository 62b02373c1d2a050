"""Span tracer that wraps biozpipe's public functions from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each
listed function in every biozpipe module that binds it (``quantizer`` binds
``afua.classify`` by import, for instance), and ``uninstall`` puts the
originals back.  Per-substep helpers such as ``sigmoid`` and ``afua_step``
are deliberately not wrapped: at ~10 000 calls per sequence the wrapper
would cost more than the work.

Each thread keeps its own span stack.  A span opened on a thread whose stack
is empty (a ``--threads`` pool worker) takes the innermost open span of the
main thread as its parent, so pool spans of ``fem.simulate_frame`` hang
under ``cli.stage_generate``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

# module -> (function, unit of its per-call median); seconds for the
# coarse stage-level calls, milliseconds for everything per phantom, frame,
# batch or file
TARGETS = {
    "geometry": (("build_mesh", "ms"), ("validate_mesh", "ms")),
    "phantom": (("synth_background", "ms"), ("make_phantom", "ms"),
                ("generate_phantom_set", "s")),
    "fem": (("assemble", "ms"), ("solve_pattern", "ms"),
            ("simulate_frame", "ms"), ("reference_frame", "ms")),
    "datapipe": (("normalize", "ms"), ("save_sequences", "ms"),
                 ("load_sequences", "ms")),
    "afua": (("classify", "ms"), ("run_sequence", "ms")),
    "trainer": (("batch_loss_and_hits", "ms"), ("gradients", "ms"),
                ("train", "s"), ("evaluate", "ms")),
    "quantizer": (("quantized_forward", "ms"), ("sweep", "s")),
    "analog": (("simulate_current_mode", "ms"),),
    "cli": (("stage_generate", "s"), ("stage_train", "s"),
            ("stage_quantize", "s"), ("stage_eval_heldout", "s"),
            ("write_manifest", "ms")),
}

# spans whose self time (duration minus the union of their children's
# intervals, on any thread) is reported as well
SELF_TIME = ("cli.stage_generate",)

_SCALE = {"s": 1.0, "ms": 1e3}


def traced_names():
    """(qualified name, unit) for every wrapped function."""
    return [(f"{mod}.{fn}", unit)
            for mod, fns in TARGETS.items() for fn, unit in fns]


class Tracer:
    """Collects (name, start, end, parent, thread) spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        # (module, attribute, original, wrapper) for every binding
        self._plan: list[tuple] = []

    def _wrap(self, name, fn):
        main = threading.main_thread().ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            enclosing = stack or self._stacks.get(main)
            parent = enclosing[-1] if enclosing else -1
            span = [name, time.perf_counter(), 0.0, parent, tid]
            with self._lock:
                idx = len(self.spans)
                self.spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target in every loaded biozpipe module that binds it."""
        if not self._plan:
            importlib.import_module("biozpipe.cli")  # imports every module
            modules = [m for k, m in sorted(sys.modules.items())
                       if k == "biozpipe" or k.startswith("biozpipe.")]
            for name, _ in traced_names():
                mod, fn_name = name.split(".")
                original = getattr(sys.modules[f"biozpipe.{mod}"], fn_name)
                wrapper = self._wrap(name, original)
                self._plan += [(module, attr, original, wrapper)
                               for module in modules
                               for attr, value in vars(module).items()
                               if value is original]
        for module, attr, _, wrapper in self._plan:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._plan:
            setattr(module, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as f:
            json.dump(self.spans, f)


def _union_length(intervals, lo, hi):
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans, name):
    """Self time of each span called ``name``."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[1], s[2]))
    return [(s[2] - s[1]) - _union_length(children.get(i, []), s[1], s[2])
            for i, s in enumerate(spans) if s[0] == name]


def layer_metrics(span_sets):
    """Per-call median and call count of every traced function.

    ``span_sets`` holds one span list per traced process; parent indices
    refer to positions within their own list.
    """
    durations: dict[str, list[float]] = {}
    for spans in span_sets:
        for s in spans:
            durations.setdefault(s[0], []).append(s[2] - s[1])
    out = {}
    for name, unit in traced_names():
        d = durations.get(name, [])
        out[f"{name}_{unit}"] = {
            "value": statistics.median(d) * _SCALE[unit] if d else 0.0,
            "unit": unit}
        out[f"{name}.calls"] = {"value": len(d), "unit": "count"}
    for name in SELF_TIME:
        st = [t for spans in span_sets for t in self_times(spans, name)]
        out[f"{name}_self_s"] = {
            "value": statistics.median(st) if st else 0.0, "unit": "s"}
    return out
