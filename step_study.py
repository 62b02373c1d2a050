"""Euler step study: the paper config trained at several substep counts.

The recurrent cell runs in continuous time on the chip, so its Euler
substeps per held input are a cost of the simulation.  This script finds
the coarsest step that keeps the trained models' accuracy:

- ``generate`` writes the paper-config prostate dataset once per seed;
- for each S, ``train`` runs on a copy of that dataset with the
  ``IntegrationConfig`` default set to S substeps of dt = 1/S, and nothing
  else changed, ``--jobs`` training processes at a time;
- each model is scored on the test split at its own step and at S = 1000,
  the continuous-time limit, and the labels the two steps give are
  compared;
- tier-1 runs once per S with the same default.  It leaves out the pin of
  the tiny run's manifest, which any change of step moves by design, and
  the check that a model file written at S = 10 keeps its step, which
  needs a default other than S = 10.

A step is adopted when, over the seeds, its mean test accuracy is within
0.01 of S = 10's, its worst seed within 0.02 of S = 10's worst, every
model keeps at least 99% of its test labels at S = 1000, and tier-1
passes.  The smallest such S is chosen.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 step_study.py \\
        --work /tmp/step_study --out RESULTS_32.json

takes about 12 minutes on a 2-core host at ``--jobs 2``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

DESELECTED = ("tests/test_cli.py::TestPipelineOutputs::"
              "test_tiny_run_manifest_pinned",
              "tests/test_cli.py::TestEvalCommand::"
              "test_model_file_keeps_its_step")
LIMIT_SUBSTEPS = 1000
# adoption rules against S = 10
MEAN_WITHIN, WORST_WITHIN, LABELS_KEPT = 0.01, 0.02, 0.99


def set_default_step(substeps: int) -> None:
    """Make S substeps of dt = 1/S the ``IntegrationConfig`` default."""
    from biozpipe.afua import IntegrationConfig
    defaults = list(IntegrationConfig.__init__.__defaults__)
    defaults[:2] = substeps, 1 / substeps
    IntegrationConfig.__init__.__defaults__ = tuple(defaults)


def child_env() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(*args: str) -> tuple[float, str]:
    """Run this script as a child; return its wall time and stdout."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, __file__, *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode:
        raise RuntimeError(f"{args}: exit {done.returncode}\n{done.stderr}")
    return wall, done.stdout


def child_main(argv: list[str]) -> int:
    """The child commands: ``cli <S> <args...>`` and ``tier1 <S>``."""
    set_default_step(int(argv[1]))
    if argv[0] == "cli":
        from biozpipe import cli
        return cli.main(argv[2:])
    import pytest

    class Failures:
        def __init__(self):
            self.ids, self.passed = [], 0

        def pytest_runtest_logreport(self, report):
            if report.failed:
                self.ids.append(report.nodeid)

        def pytest_terminal_summary(self, terminalreporter):
            self.passed = len(terminalreporter.stats.get("passed", []))

    plugin = Failures()
    deselect = [arg for test in DESELECTED for arg in ("--deselect", test)]
    pytest.main(["-q", "-p", "no:cacheprovider", *deselect, "tests"],
                plugins=[plugin])
    print(json.dumps({"passed": plugin.passed, "failed": plugin.ids}))
    return 0


def train_job(work: Path, seed: int, substeps: int) -> dict:
    run = work / f"s{seed}_S{substeps}"
    run.mkdir(parents=True, exist_ok=True)
    for name in ("dataset.bzds", "dataset_manifest.csv"):
        shutil.copy(work / f"data_{seed}" / name, run)
    wall, out = run_child("cli", str(substeps), "train", "--seed", str(seed),
                          "--out", str(run))
    m = re.search(r"best epoch (\d+) \(validation accuracy ([0-9.]+)\)", out)
    return {"train_wall_s": round(wall, 1), "best_epoch": int(m[1]),
            "val_acc": float(m[2]), **score(run, substeps)}


def score(run: Path, substeps: int) -> dict:
    """Test accuracy at the model's own step and at the limit, and the
    share of test labels the two steps agree on."""
    import numpy as np
    from biozpipe import afua, cli, trainer
    params, icfg = afua.load_model(run / "model.afua")
    if icfg.substeps_per_pattern != substeps:
        raise RuntimeError(f"{run}: model file has S = "
                           f"{icfg.substeps_per_pattern}, not {substeps}")
    X, y = trainer.to_arrays(cli._load_split(run).test)
    limit = afua.IntegrationConfig(LIMIT_SUBSTEPS, 1 / LIMIT_SUBSTEPS)
    own, lim = (afua.predict(afua.forward_probabilities(X, params, c))
                for c in (icfg, limit))
    return {"test_fp": round(float(np.mean(own == y)), 4),
            "test_fp_at_limit": round(float(np.mean(lim == y)), 4),
            "labels_kept_at_limit": round(float(np.mean(own == lim)), 4)}


def verdicts(row: dict, base: dict) -> dict:
    """Each adoption rule's outcome against the baseline row, with the
    figures it compared."""
    failed = row["tier1"]["failed"]
    return {
        f"mean_within_{MEAN_WITHIN}": (
            row["mean"] >= base["mean"] - MEAN_WITHIN,
            f"mean test accuracy {row['mean']} against {base['mean']}"),
        f"worst_within_{WORST_WITHIN}": (
            row["worst"] >= base["worst"] - WORST_WITHIN,
            f"worst seed {row['worst']} against {base['worst']}"),
        f"labels_kept_at_least_{LABELS_KEPT}": (
            row["worst_labels_kept"] >= LABELS_KEPT,
            f"the worst seed keeps {row['worst_labels_kept']} of its test "
            f"labels at S = {LIMIT_SUBSTEPS}"),
        "tier1_passes": (
            row["tier1"]["passed"] > 0 and not failed,
            "tier-1 fails " + ", ".join(failed) if failed
            else f"tier-1 passes {row['tier1']['passed']} tests"),
    }


def conclude(rows: list[dict]) -> dict:
    """Set each row's rule verdicts; return the chosen step and why each
    smaller one was not taken."""
    reasons = {}
    for row in rows:
        rules = verdicts(row, rows[0])
        row["rules"] = {name: ok for name, (ok, _) in rules.items()}
        reasons[row["substeps"]] = "; ".join(
            why for ok, why in rules.values() if not ok)
    chosen = min(r["substeps"] for r in rows if all(r["rules"].values()))
    return {"chosen": {"substeps": chosen, "dt": 1 / chosen,
                       "why": "the smallest S that meets every rule"},
            "not_taken": {str(s): why for s, why in reasons.items()
                          if s < chosen}}


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] in ("cli", "tier1"):
        return child_main(sys.argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--work", required=True, type=Path,
                    help="scratch directory for the runs")
    ap.add_argument("--out", required=True, type=Path, help="results JSON")
    ap.add_argument("--seeds", default="7,8,9")
    ap.add_argument("--substeps", default="10,5,4,3,2",
                    help="substep counts; the first is the baseline")
    ap.add_argument("--jobs", type=int, default=2,
                    help="training processes at once")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    steps = [int(s) for s in args.substeps.split(",")]

    for seed in seeds:
        # the dataset does not depend on the step
        run_child("cli", str(steps[0]), "generate", "--seed", str(seed),
                  "--threads", str(args.jobs),
                  "--out", str(args.work / f"data_{seed}"))
    with ThreadPoolExecutor(args.jobs) as pool:
        jobs = {(s, seed): pool.submit(train_job, args.work, seed, s)
                for s in steps for seed in seeds}
        trained = {key: job.result() for key, job in jobs.items()}

    rows = []
    for s in steps:
        per_seed = {seed: trained[s, seed] for seed in seeds}
        acc = [per_seed[seed]["test_fp"] for seed in seeds]
        row = {"substeps": s, "dt": 1 / s,
               "mean": round(statistics.mean(acc), 4), "worst": min(acc),
               "worst_labels_kept": min(v["labels_kept_at_limit"]
                                        for v in per_seed.values()),
               "per_seed": {str(k): v for k, v in per_seed.items()},
               "tier1": json.loads(run_child("tier1", str(s))[1]
                                   .splitlines()[-1])}
        rows.append(row)
    result = {
        "what": "Paper-config prostate runs trained at S Euler substeps of "
                "dt = 1/S per held input, only the IntegrationConfig "
                "default changed; each model scored on its test split at "
                f"its own step and at S = {LIMIT_SUBSTEPS}",
        "commands": {
            "study": "PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 "
                     f"step_study.py --work <dir> --out {args.out.name} "
                     f"--seeds {args.seeds} --substeps {args.substeps} "
                     f"--jobs {args.jobs}",
            "generate": f"biozpipe generate --seed <seed> --threads "
                        f"{args.jobs} --out <dir>",
            "train": "biozpipe train --seed <seed> --out <dir>, "
                     f"{args.jobs} processes at once",
            "tier1": "python -m pytest -q tests "
                     + " ".join(f"--deselect {t}" for t in DESELECTED),
        },
        "seeds": seeds,
        "host": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                f"{platform.python_version()}, OPENBLAS_NUM_THREADS=1; "
                "train_wall_s is whole processes run "
                f"{args.jobs} at a time",
        "rules": f"against S = {steps[0]} over the seeds: mean test "
                 f"accuracy within {MEAN_WITHIN}, worst seed within "
                 f"{WORST_WITHIN}, at least {LABELS_KEPT:.0%} of every "
                 f"model's test labels kept at S = {LIMIT_SUBSTEPS}, and "
                 "tier-1 passes",
        **conclude(rows),
        "table": rows,
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
