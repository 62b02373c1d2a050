"""Self-test of the benchmark; takes several minutes.

    python3 bench/selftest.py

Checks that
- a traced run of each workload emits exactly the per-layer metrics of
  BENCHMARK.json, with non-zero call counts where bench/README.md says the
  workload exercises the layer;
- an untraced run on a second seed emits exactly the end-to-end metrics,
  with no failed operation;
- ``biozpipe pipeline`` writes the same manifest at ``--threads 1`` and
  ``--threads 2``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run as bench

# functions each workload must call (set-up included) in a traced run
CALLED = {
    "pipeline": [
        "geometry.build_mesh", "geometry.validate_mesh",
        "phantom.synth_background", "phantom.make_phantom",
        "phantom.generate_phantom_set", "fem.assemble", "fem.solve_pattern",
        "fem.simulate_frame", "fem.reference_frame", "datapipe.normalize",
        "datapipe.save_sequences", "datapipe.load_sequences",
        "trainer.batch_loss_and_hits", "trainer.gradients", "trainer.train",
        "trainer.evaluate", "quantizer.sweep", "cli.stage_generate",
        "cli.stage_train", "cli.stage_quantize", "cli.stage_eval_heldout",
        "cli.write_manifest"],
    "train": [
        "phantom.make_phantom", "fem.simulate_frame",
        "datapipe.save_sequences", "datapipe.load_sequences",
        "trainer.batch_loss_and_hits", "trainer.gradients", "trainer.train",
        "trainer.evaluate", "quantizer.sweep", "cli.stage_generate",
        "cli.stage_train", "cli.stage_quantize", "cli.write_manifest"],
    "stream": [
        "geometry.build_mesh", "geometry.validate_mesh",
        "phantom.make_phantom", "fem.simulate_frame", "fem.reference_frame",
        "datapipe.normalize", "afua.classify", "afua.run_sequence",
        "quantizer.quantized_forward", "analog.simulate_current_mode",
        "trainer.evaluate"],
}


def bench_run(workload, seed, trace):
    """Last-line JSON result of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def threads_manifests_match():
    run = bench.Run("selftest", 7, 0, False)
    run.work.mkdir(parents=True)
    try:
        manifests = []
        for threads in ("1", "2"):
            out = run.work / f"threads{threads}"
            # argparse keeps the last --threads given
            args = [*bench.PIPELINE_ARGS, "--threads", threads]
            c = run.cli(run.seeded(args, out), f"threads{threads}", False)
            if c.rc != 0:
                raise AssertionError(bench._failed(c, "pipeline"))
            manifests.append((out / "manifest.json").read_bytes())
        return manifests[0] == manifests[1]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    problems = []

    for workload in sorted(CALLED):
        res = bench_run(workload, 7, 1)
        metrics = res["metrics"]
        if set(metrics) != layer_names:
            problems.append(f"{workload} traced: metrics differ from "
                            f"BENCHMARK.json by "
                            f"{sorted(set(metrics) ^ layer_names)}")
        for fn in CALLED[workload]:
            if metrics.get(f"{fn}.calls", {}).get("value", 0) <= 0:
                problems.append(f"{workload} traced: {fn} never called")
        if not res["correct"]:
            problems.append(f"{workload} traced: {res['failed']} failed")

        res = bench_run(workload, 8, 0)
        if set(res["metrics"]) != e2e_names:
            problems.append(f"{workload} seed 8: metrics differ from "
                            "BENCHMARK.json")
        if res["failed"] != 0 or not res["correct"]:
            problems.append(f"{workload} seed 8: {res['failed']} of "
                            f"{res['attempted']} operations failed")

    if not threads_manifests_match():
        problems.append("pipeline manifests differ between --threads 1 "
                        "and --threads 2")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
