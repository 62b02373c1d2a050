"""Benchmark of the biozpipe package in this checkout.

    python3 bench/run.py --workload pipeline|train|stream --seed N
                         --seconds S --trace 0|1

Runs one workload against ``src/biozpipe`` unmodified, checks its outputs,
and prints a summary followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, timed with no tracer loaded;
with ``--trace 1`` they are the per-layer spans, health counters and the
tracing overhead.  See bench/README.md for the workloads and metrics.

This process never imports NumPy or biozpipe: all program work runs in
child processes (see launch.py) with OPENBLAS_NUM_THREADS=1, so that
``--threads`` is the program's only parallelism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = 3  # set-up repeats; setup_s is their median
MIN_CLI_OPS = 2  # pipeline and train: wall_s is a median of at least 2
DEADLINE_S = 170.0  # the whole run, children included, ends before this
BLAS_THREADS = "1"

PIPELINE_ARGS = ["pipeline", "--n", "120", "--epochs", "20",
                 "--mesh-edge", "0.14", "--threads", "2"]
GENERATE_ARGS = ["generate", "--n", "240", "--mesh-edge", "0.3"]
TRAIN_ARGS = ["train", "--epochs", "40"]
QUANTIZE_ARGS = ["quantize"]

HEALTH_UNITS = {"fem.current_residual_max": "mA",
                "analog.clamped_substeps": "count",
                "trainer.dead_head_frac": "ratio"}


class SetupError(RuntimeError):
    """Set-up failed: no operation can run, so the run reports no result."""


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    out: str
    err: str


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    traced: bool
    problem: str | None
    acc: float | None = None


class Run:
    """One benchmark run: its work directory, children and results."""

    def __init__(self, workload, seed, seconds, trace):
        self.start = time.perf_counter()
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(SRC),
                    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
                    "PYTHONDONTWRITEBYTECODE": "1"}
        self.span_files: list[Path] = []
        self.manifest: bytes | None = None

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def child(self, argv, tag) -> Child:
        """Run one process to completion; time it and read its peak RSS."""
        out_path = self.work / f"{tag}.out"
        err_path = self.work / f"{tag}.err"
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        return Child(rc=proc.returncode, wall_s=wall,
                     rss_mb=usage.ru_maxrss / 1024.0,
                     out=out_path.read_text(errors="replace"),
                     err=err_path.read_text(errors="replace"))

    def cli(self, args, tag, traced) -> Child:
        if traced:
            spans = self.work / f"{tag}.spans.json"
            self.span_files.append(spans)
            argv = [sys.executable, str(BENCH / "launch.py"), "cli",
                    "--spans", str(spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "biozpipe.cli", *args]
        return self.child(argv, tag)

    def seeded(self, args, out):
        return [*args, "--seed", str(self.seed), "--out", str(out)]

    def loop(self, op):
        """Closed loop of ``op(i, traced)``: at least MIN_CLI_OPS, then more
        while the next one is expected to end within ``seconds``.  With
        tracing, operations alternate between untraced and traced."""
        ops: list[Op] = []
        t0 = time.perf_counter()
        while True:
            ops.append(op(len(ops), self.trace and len(ops) % 2 == 1))
            expected = statistics.median(o.wall_s for o in ops)
            if self.remaining() < 1.5 * max(o.wall_s for o in ops):
                break
            if (len(ops) >= MIN_CLI_OPS and
                    time.perf_counter() - t0 + expected > self.seconds):
                break
        return ops


def _failed(child: Child, what):
    if child.rc == 0:
        return None
    tail = child.err.strip().splitlines()[-3:]
    return f"{what} exited {child.rc}: {' | '.join(tail)}"


def manifest_problem(run_dir: Path, reference: bytes | None):
    """The run's manifest must hash exactly its files, and repeat byte for
    byte across runs of one seed."""
    try:
        data = (run_dir / "manifest.json").read_bytes()
        manifest = json.loads(data)
    except (OSError, ValueError) as exc:
        return f"no readable manifest: {exc}"
    files = {str(p.relative_to(run_dir)) for p in run_dir.rglob("*")
             if p.is_file() and p.name != "manifest.json"}
    if set(manifest) != files:
        return f"manifest lists {len(manifest)} entries for {len(files)} files"
    for name, digest in sorted(manifest.items()):
        if hashlib.sha256((run_dir / name).read_bytes()).hexdigest() != digest:
            return f"{name}: hash differs from the manifest"
    if reference is not None and data != reference:
        return "manifest differs from the first run of this seed"
    return None


def accuracy(path: Path, key, printed_pattern, stdout):
    """(accuracy written to ``path`` under ``key``, problem or None); the
    CLI must print the same value to 4 decimals."""
    acc = None
    for line in path.read_text().splitlines():
        cells = line.split(",")
        if cells[0] == key:
            acc = float(cells[1])
    printed = re.search(printed_pattern, stdout)
    if acc is None or printed is None:
        return acc, f"no accuracy in {path.name} or on stdout"
    if f"{acc:.4f}" != printed.group(1):
        return acc, f"{path.name} accuracy {acc} but CLI printed {printed.group(1)}"
    return acc, None


# ---------------------------------------------------------------------------
# Workloads: each returns (setup times, operations, extras)
# ---------------------------------------------------------------------------


def finish_cli_op(run: Run, out: Path, child: Child, problem, acc_of, i):
    """Shared checks of a pipeline or train operation."""
    acc = None
    if problem is None:
        problem = manifest_problem(out, run.manifest)
    if problem is None:
        acc, problem = acc_of(out, child)
    if problem is None and run.manifest is None:
        run.manifest = (out / "manifest.json").read_bytes()
    if i > 0:  # the first run directory stays for the health counters
        shutil.rmtree(out, ignore_errors=True)
    return acc, problem


def pipeline(run: Run):
    """Set-up is a cold start of the CLI (``budget --json``): the pipeline
    itself needs no preparation."""
    setup = []
    for k in range(SETUPS):
        c = run.child([sys.executable, "-m", "biozpipe.cli", "budget",
                       "--json"], f"setup{k}")
        problem = _failed(c, "budget")
        try:
            if problem is None and "supply_current_ma" not in json.loads(c.out):
                problem = "budget JSON has no supply current"
        except ValueError:
            problem = "budget printed no JSON"
        if problem:
            raise SetupError(problem)
        setup.append(c.wall_s)

    def acc_of(out, child):
        return accuracy(out / "confusion.csv", "accuracy",
                        r"held-out \(\w+\) accuracy (\d\.\d{4})", child.out)

    def op(i, traced):
        out = run.work / f"op{i}"
        c = run.cli(run.seeded(PIPELINE_ARGS, out), f"op{i}", traced)
        acc, problem = finish_cli_op(run, out, c, _failed(c, "pipeline"),
                                     acc_of, i)
        return Op(c.wall_s, c.rss_mb, traced, problem, acc)

    return setup, run.loop(op), run.work / "op0"


def train(run: Run):
    """Set-up generates the dataset; each operation trains and quantizes
    in a fresh copy of it."""
    setup = []
    reference = None
    for k in range(SETUPS):
        out = run.work / f"data{k}"
        c = run.cli(run.seeded(GENERATE_ARGS, out), f"setup{k}", run.trace)
        problem = _failed(c, "generate") or manifest_problem(out, reference)
        if problem:
            raise SetupError(problem)
        reference = (out / "manifest.json").read_bytes()
        setup.append(c.wall_s)

    def acc_of(out, child):
        return accuracy(out / "sweep.csv", "FP",
                        r"bits FP: accuracy (\d\.\d{4})", child.out)

    def op(i, traced):
        out = run.work / f"op{i}"
        shutil.copytree(run.work / f"data{i % SETUPS}", out)
        c1 = run.cli(run.seeded(TRAIN_ARGS, out), f"op{i}.train", traced)
        problem = _failed(c1, "train")
        c2 = Child(rc=0, wall_s=0.0, rss_mb=0.0, out="", err="")
        if problem is None:
            c2 = run.cli(run.seeded(QUANTIZE_ARGS, out), f"op{i}.quantize",
                         traced)
            problem = _failed(c2, "quantize")
        acc, problem = finish_cli_op(run, out, c2, problem, acc_of, i)
        return Op(c1.wall_s + c2.wall_s, max(c1.rss_mb, c2.rss_mb), traced,
                  problem, acc)

    return setup, run.loop(op), run.work / "op0"


def stream(run: Run):
    """One child process sets up and runs the closed frame loop."""
    result_path = run.work / "stream.json"
    argv = [sys.executable, str(BENCH / "launch.py"), "stream",
            "--seed", str(run.seed), "--seconds", str(run.seconds),
            "--setups", str(SETUPS), "--result", str(result_path)]
    if run.trace:
        spans = run.work / "stream.spans.json"
        run.span_files.append(spans)
        argv += ["--spans", str(spans)]
    c = run.child(argv, "stream")
    if c.rc != 0:
        raise SetupError(_failed(c, "stream"))
    res = json.loads(result_path.read_text())
    ops = [Op(lat, c.rss_mb, traced, problem, res["heldout_acc"])
           for lat, traced, problem in zip(res["latencies"], res["traced"],
                                           res["problems"])]
    return res["setup_s"], ops, res


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def provenance(args, load_avg):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"commit": git_commit(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "load_avg_at_start": load_avg}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, setup, ops, extra):
    """The BENCHMARK.json end-to-end metrics, plus the summary-only ones.

    ``wall_s`` of ``stream`` is its frame latency scaled to the reference
    host speed by the kernel timed between its frames (calibrate.py); the
    other workloads' operations are single processes of 7-16 s that no
    kernel can be interleaved with, so theirs is the raw wall time.
    """
    walls = [o.wall_s for o in ops]
    failed = sum(o.problem is not None for o in ops)
    scale = extra["host_scale"] if workload == "stream" else 1.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(walls) * scale, "s"),
        "peak_rss_mb": metric(statistics.median(o.rss_mb for o in ops), "MB"),
    }
    summary = {"failed_frac": metric(failed / len(ops), "ratio")}
    accs = {o.acc for o in ops if o.acc is not None}
    if workload == "stream":
        q = statistics.quantiles(walls, n=20)
        summary.update({
            "kernel_ms": metric(1e3 * extra["kernel_median_s"], "ms"),
            "frame_p50_ms": metric(1e3 * statistics.median(walls), "ms"),
            "frame_p95_ms": metric(1e3 * q[18], "ms"),
            "frames_per_s": metric(len(walls) / sum(walls), "1/s"),
            "frames_above_p95": metric(sum(w > q[18] for w in walls),
                                       "count")})
    elif accs:
        summary["heldout_acc"] = metric(min(accs), "ratio")
    return metrics, summary


def per_layer(run: Run, ops, extra):
    """Span medians and counts, health counters, and tracing overhead.

    ``extra`` is the stream child's result, or the run directory whose
    model and mesh the health counters are computed from.
    """
    span_sets = [json.loads(p.read_text()) for p in run.span_files
                 if p.exists()]
    metrics = tracer.layer_metrics(span_sets)
    if run.workload == "stream":
        health = extra["health"]
    else:
        result = run.work / "health.json"
        c = run.child([sys.executable, str(BENCH / "launch.py"), "health",
                       "--run", str(extra), "--result", str(result)],
                      "health")
        if c.rc != 0:
            raise SetupError(_failed(c, "health"))
        # the CLI workloads never run the current-mode cell
        health = {**json.loads(result.read_text()),
                  "analog.clamped_substeps": 0}
    for name, unit in HEALTH_UNITS.items():
        metrics[name] = metric(health[name], unit)
    accs = [o.acc for o in ops if o.acc is not None]
    metrics["heldout_acc"] = metric(min(accs) if accs else 0.0, "ratio")
    traced = [o.wall_s for o in ops if o.traced]
    untraced = [o.wall_s for o in ops if not o.traced]
    if traced and untraced:
        t, u = statistics.median(traced), statistics.median(untraced)
        metrics["trace.traced_wall_s"] = metric(t, "s")
        metrics["trace.untraced_wall_s"] = metric(u, "s")
        metrics["trace.overhead_s"] = metric(t - u, "s")
    return metrics


WORKLOADS = {"pipeline": pipeline, "train": train, "stream": stream}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biozpipe" / "cli.py").is_file():
        print(f"error: no biozpipe sources under {SRC}", file=sys.stderr)
        return 2
    load_avg = [round(x, 2) for x in os.getloadavg()]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    try:
        setup, ops, extra = WORKLOADS[args.workload](run)
        if args.trace:
            metrics = per_layer(run, ops, extra)
            summary = {}
        else:
            metrics, summary = end_to_end(args.workload, setup, ops, extra)
    except SetupError as exc:
        print(f"error [{args.workload}]: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass

    failed = [o.problem for o in ops if o.problem is not None]
    print("provenance " + json.dumps(provenance(args, load_avg)))
    print(f"{args.workload}: {len(ops)} operations, {len(failed)} failed, "
          f"set-up x{len(setup)}")
    for problem in failed[:5]:
        print(f"  failed: {problem}")
    for name, m in {**metrics, **summary}.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
