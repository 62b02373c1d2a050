import csv
import hashlib
import inspect
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biozpipe
from biozpipe import afua, analog, cli, datapipe, fem, quantizer, trainer
from biozpipe import geometry as geo
from biozpipe import phantom as phm
from biozpipe.errors import (BiozError, ConfigError, FormatError, MeshError,
                             NumericalError, SolverError)


def run_cli(args):
    return cli.main(args)


TINY_PIPELINE = ["pipeline", "--n", "40", "--epochs", "4", "--seed", "5",
                 "--mesh-edge", "0.3", "--split", "0.5,0.25,0.25"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A complete toy pipeline run shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("run")
    code = run_cli([*TINY_PIPELINE, "--out", str(out)])
    assert code == 0
    return out


# the exact stdout of the budget commands: an edit to any of the chip's
# constants, or to how they print, changes these bytes
BUDGET_STDOUT = {
    "budget": (
        'current sources         2592\n'
        'source area (mm^2)      0.0088\n'
        'array area (mm^2)       22.81\n'
        'routing factor          1.315\n'
        'chip area (mm^2)        29.99\n'
        'amplifiers              25\n'
        'amp current (mA)        0.47\n'
        'supply current (mA)     11.75\n'
        'supply voltage (V)      3.3\n'
        'power (mW)              38.775\n'
        'frame rate (FPS)        20\n'),
    "budget --json": (
        '{\n'
        '  "chip_area_mm2": 29.994623999999998,\n'
        '  "array_area_mm2": 22.8096,\n'
        '  "power_mw": 38.775,\n'
        '  "supply_current_ma": 11.75\n'
        '}\n'),
}


class TestBudgetCommand:
    @pytest.mark.parametrize("command", sorted(BUDGET_STDOUT))
    def test_stdout_pinned(self, capsys, command):
        assert run_cli(command.split()) == 0
        assert capsys.readouterr().out == BUDGET_STDOUT[command]

    def test_prints_paper_numbers(self, capsys):
        assert run_cli(["budget"]) == 0
        text = capsys.readouterr().out
        assert "11.75" in text
        assert "38.775" in text

    def test_json_output(self, capsys, tmp_path):
        assert run_cli(["budget", "--json", "--out", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["supply_current_ma"] == pytest.approx(11.75)
        assert payload["chip_area_mm2"] == pytest.approx(30.0, abs=0.1)
        assert (tmp_path / "budget.json").exists()

    def test_out_rewrites_manifest(self, tiny_run, tmp_path, capsys):
        run = TestReruns.finished_copy(tiny_run, tmp_path)
        before = json.loads((run / "manifest.json").read_text())
        assert "budget.json" not in before
        assert run_cli(["budget", "--json", "--out", str(run)]) == 0
        after = json.loads((run / "manifest.json").read_text())
        digest = hashlib.sha256((run / "budget.json").read_bytes())
        assert after == {**before, "budget.json": digest.hexdigest()}


class TestColdStart:
    """Only the commands that solve load SciPy, and only generate's pool
    loads ``concurrent.futures``.  Each check runs in a fresh interpreter:
    pytest's warning filters import ``scipy.sparse`` here."""

    SCRIPT = ("import json, sys\n"
              "from biozpipe import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n"
              "print(json.dumps(sorted(\n"
              "    m for m in sys.modules\n"
              "    if m.split('.')[0] in ('scipy', 'concurrent'))))\n")

    @classmethod
    def loaded_modules(cls, commands):
        """The SciPy and ``concurrent`` modules loaded after running
        ``commands`` in order."""
        src = str(Path(biozpipe.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_only_generate_loads_scipy(self, tmp_path):
        run = tmp_path / "run"
        assert run_cli(["pipeline", "--n", "12", "--epochs", "1",
                        "--mesh-edge", "0.5", "--out", str(run)]) == 0
        with open(run / "phantoms.csv") as f:
            rows = [(phm.phantom_id(int(r["index"])), r["label"])
                    for r in csv.DictReader(f)]
        datapipe.write_csv(tmp_path / "labels.csv", ["id", "label"], rows)
        model, out = str(run / "model.afua"), ["--out", str(run)]
        assert self.loaded_modules([
            ["budget", "--json"],
            ["train", "--epochs", "1", *out],
            ["quantize", "--bits", "4", *out],
            ["eval", "--model-file", model,
             "--data", str(run / "dataset.bzds"), *out],
            ["eval", "--model-file", model,
             "--data", str(run / "frames.frame"),
             "--labels", str(tmp_path / "labels.csv"), *out]]) == []
        assert {"scipy.sparse.linalg", "concurrent.futures"} <= set(
            self.loaded_modules([["generate", "--n", "12", "--mesh-edge",
                                  "0.5", "--out", str(tmp_path / "gen")]]))


class TestUsageErrors:
    def test_zero_phantoms_exit_2(self, tmp_path):
        code = run_cli(["generate", "--n", "0", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"no_such_key": 1}')
        code = run_cli(["generate", "--config", str(cfg),
                        "--out", str(tmp_path)])
        assert code == 2

    def test_missing_model_file_exit_4(self, tmp_path):
        code = run_cli(["eval", "--model-file", str(tmp_path / "nope.afua"),
                        "--data", str(tmp_path / "nope.bzds"),
                        "--out", str(tmp_path)])
        assert code == 4

    def test_synthesis_failure_exit_3_names_phantom(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"noise_rel_std": 0.9}')
        code = run_cli(["generate", "--config", str(cfg), "--n", "3",
                        "--mesh-edge", "0.3", "--out", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert "p00000" in err
        assert "non-positive" in err

    def test_signal_free_dataset_exit_3_writes_no_dataset(
            self, tmp_path, monkeypatch, capsys):
        # at zero gain every step is tanh(0)
        monkeypatch.setattr(cli.RunConfig, "gain_per_mv", 0.0)
        out = tmp_path / "run"
        code = run_cli(["generate", "--n", "4", "--mesh-edge", "0.3",
                        "--seed", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "error [generate]: every normalized step is" in err
        assert "saline of 126.0 mS/m at gain 0.0 per mV" in err
        assert (out / "frames.frame").exists()
        assert not (out / "dataset.bzds").exists()
        assert not (out / "dataset_manifest.csv").exists()

    def test_failed_stage_leaves_no_manifest(self, tmp_path, monkeypatch):
        # the second generate deletes the dataset the first one's
        # manifest.json lists, then fails
        out = tmp_path / "run"
        args = ["generate", "--n", "4", "--mesh-edge", "0.3", "--seed", "1",
                "--out", str(out)]
        assert run_cli(args) == 0
        assert (out / "manifest.json").exists()
        monkeypatch.setattr(cli.RunConfig, "gain_per_mv", 0.0)
        assert run_cli(args) == 3
        assert not (out / "dataset.bzds").exists()
        assert not (out / "manifest.json").exists()

    def test_train_on_a_one_phantom_dataset_exit_2(self, tmp_path, capsys):
        # train alone checks the dataset it reads, not the configured split
        out = str(tmp_path / "run")
        assert run_cli(["generate", "--n", "1", "--mesh-edge", "0.5",
                        "--out", out]) == 0
        assert run_cli(["train", "--epochs", "2", "--out", out]) == 2
        assert ("error [train]: train and validation sets must be non-empty"
                in capsys.readouterr().err)

    def test_unknown_subcommand_exit_2(self):
        assert run_cli(["frobnicate"]) == 2

    @pytest.mark.parametrize("args, config, named", [
        (["generate", "--split", "a,b,c"], None, "--split"),
        (["generate", "--split", "0.5,0.5", "--n", "2", "--mesh-edge", "0.5"],
         None, "split"),
        (["quantize", "--bits", "x"], None, "--bits"),
        (["generate"], '{"n_phantoms": "abc"}', "n_phantoms"),
        (["generate"], '{"split": 5}', "split"),
        (["generate", "--n", "2", "--mesh-edge", "0.5"], '{"threads": true}',
         "threads"),
        (["generate"], '["seed"]', "not a JSON object"),
        (["generate", "--split", "nan,0.5,0.5", "--n", "2"], None, "split"),
        (["train", "--geometry", "probe.txt"], None, "--geometry"),
        # the probe is fixed: no command takes a layout file
        (["generate", "--geometry", "probe.txt"], None, "--geometry"),
        (["generate", "--seed", "-1"], None, "seed"),
        (["generate", "--threads", "0"], None, "threads"),
        (["generate"], '{"seed": 1', "invalid JSON"),
        # the gain and the reference saline are the probe's, not settings
        (["eval", "--model-file", "model.afua", "--data", "dataset.bzds",
          "--gain", "0.2"], None, "--gain"),
        (["generate", "--saline", "126"], None, "--saline"),
        (["generate", "--split", "0,0.5,0.5", "--n", "2", "--mesh-edge",
          "0.5"], None, "train and validation fractions must be positive"),
        (["generate"], '{"model": "ovine"}', "unknown tissue model"),
        # only generate and pipeline read --threads and --model
        (["train", "--threads", "2"], None, "--threads 2"),
        (["quantize", "--model", "bovine"], None, "--model bovine"),
        (["eval", "--model-file", "m", "--data", "d", "--threads", "2"],
         None, "--threads 2"),
        (["eval", "--model-file", "m", "--data", "d", "--model", "bovine"],
         None, "--model bovine"),
        # a prefix is no spelling of a flag
        (["generate", "--n", "2", "--mesh", "0.5"], None, "--mesh 0.5"),
        # a dataset holds its labels; only frames input reads --labels
        (["eval", "--model-file", "m.afua", "--data", "d.bzds", "--labels",
          "/nonexistent/labels.csv"], None, "--labels"),
    ], ids=["split-flag", "split-two-fractions", "bits-flag",
            "n_phantoms-str", "split-int", "threads-bool", "json-list",
            "split-nan", "geometry-on-train", "geometry-on-generate",
            "seed-negative", "threads-zero", "config-invalid-json",
            "gain-on-eval", "saline-on-generate", "split-zero-train",
            "model-unknown", "threads-on-train", "model-on-quantize",
            "threads-on-eval", "model-on-eval", "mesh-edge-prefix",
            "labels-with-dataset"])
    def test_malformed_value_exit_2_names_key(self, tmp_path, capsys, args,
                                              config, named):
        if config is not None:
            (tmp_path / "c.json").write_text(config)
            args = [*args, "--config", str(tmp_path / "c.json")]
        assert run_cli([*args, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestSizeBounds:
    @pytest.mark.parametrize("name", sorted(cli.MAX_SIZES))
    def test_bound_passes_and_one_more_exits_2(self, tmp_path, capsys, name):
        most = cli.MAX_SIZES[name]
        assert getattr(cli.RunConfig(**{name: most}), name) == most
        (tmp_path / "c.json").write_text(json.dumps({name: most + 1}))
        assert run_cli(["pipeline", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "run")]) == 2
        assert f"error [pipeline]: {name} {most + 1} exceeds" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mesh_edge_bound_passes_and_below_exits_2(self, tmp_path,
                                                      capsys):
        least = geo.MIN_MESH_EDGE_MM
        assert cli.RunConfig(mesh_edge_mm=least).mesh_edge_mm == least
        below = float(np.nextafter(least, 0.0))
        (tmp_path / "c.json").write_text(json.dumps({"mesh_edge_mm": below}))
        assert run_cli(["pipeline", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "run")]) == 2
        assert f"error [pipeline]: mesh_edge_mm {below} is below" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mesh_edge_below_arc_passes_and_above_exits_2(self, tmp_path,
                                                          capsys):
        # the edge stays below the 0.875 mm arc extent, checked with the
        # configuration rather than inside generate
        below = float(np.nextafter(0.875, 0.0))
        assert cli.RunConfig(mesh_edge_mm=below).mesh_edge_mm == below
        assert run_cli(["pipeline", "--mesh-edge", "1.0",
                        "--out", str(tmp_path / "run")]) == 2
        assert ("error [pipeline]: target_edge_length 1.0 must be below the "
                "smallest electrode extent 0.875 mm") in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()


# the run settings that library signatures and dataclasses take
RUN_SETTINGS = {
    phm.RbfNoiseConfig: ("n_centers", "kernel_width", "noise_rel_std"),
    phm.synth_background: ("rbf",),
    phm.make_phantom: ("rbf",),
    phm.generate_phantom_set: ("rbf",),
    fem.assemble: ("contact_impedance",),
    fem.simulate_frame: ("contact_impedance", "phantom_id"),
    fem.reference_frame: ("contact_impedance",),
    datapipe.normalize: ("gain", "label"),
    afua.classify: ("cfg",),
    trainer.train: ("batch_size", "epochs", "learning_rate", "seed", "cfg"),
    trainer.evaluate: ("cfg",),
    quantizer.quantized_forward: ("cfg",),
    quantizer.sweep: ("cfg",),
    analog.simulate_current_mode: ("cfg",),
}


def test_run_settings_default_only_in_run_config():
    # a library default would let a caller that leaves one out run a
    # different experiment from pipeline's, with no error
    defaulted = [f"{obj.__qualname__}.{name}"
                 for obj, names in RUN_SETTINGS.items()
                 for name in names
                 if inspect.signature(obj).parameters[name].default
                 is not inspect.Parameter.empty]
    assert not defaulted
    assert not hasattr(fem, "DEFAULT_CONTACT_IMPEDANCE_OHM_MM")
    assert "noise_rel_std" not in {f.name for f in fields(phm.TissueModel)}


class TestResolveConfig:
    @staticmethod
    def resolve(*argv):
        return cli.resolve_config(cli.build_parser().parse_args(
            ["generate", *argv]))

    def test_bovine_config_file_keeps_explicit_split(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": "bovine", "split": [0.5, 0.25, 0.25]}')
        got = self.resolve("--config", str(cfg))
        assert (got.split, got.saline_ms_per_m) == ((0.5, 0.25, 0.25), 341.0)
        got = self.resolve("--model", "bovine")
        assert (got.split, got.saline_ms_per_m) == ((0.75, 0.25, 0.0), 341.0)

    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": "bovine", "split": [0.5, 0.5, 0.0], '
                       '"bits": [4], "seed": 3}')
        got = self.resolve("--config", str(cfg), "--split", "0.6,0.2,0.2")
        assert (got.model, got.split, got.bits, got.seed) == (
            "bovine", (0.6, 0.2, 0.2), (4,), 3)


# values a config file may give any RunConfig field; epochs has no bound,
# so its huge value would only run long
ADVERSARIAL_VALUES = [0, -1, math.nan, math.inf, -math.inf, 1e-300, 1e300,
                      10**30, True, "x", None, [], [1] * 50]
ADVERSARIAL_CASES = [(f.name, value) for f in fields(cli.RunConfig)
                     for value in ADVERSARIAL_VALUES
                     if (f.name, value) != ("epochs", 10**30)]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(ADVERSARIAL_CASES))
def test_any_config_value_exits_2_unwritten_or_runs(case):
    # a tiny pipeline run, with one field overwritten; the --out flag keeps
    # every draw's run directory where it is checked
    name, value = case
    with tempfile.TemporaryDirectory() as tmp:
        config, run = Path(tmp) / "c.json", Path(tmp) / "run"
        config.write_text(json.dumps({"n_phantoms": 12, "mesh_edge_mm": 0.5,
                                      "epochs": 1, name: value}))
        code = run_cli(["pipeline", "--config", str(config),
                        "--out", str(run)])
        assert code in (0, 2, 3)
        if code == 2:
            assert not run.exists()
        if code == 0:
            steps = [s.steps
                     for s in datapipe.load_sequences(run / "dataset.bzds")]
            assert not all((s == steps[0].flat[0]).all() for s in steps)


class TestPipelineOutputs:
    def test_expected_files(self, tiny_run):
        for name in ("geometry.txt", "mesh.txt", "reference.frame",
                     "phantoms.csv", "dataset.bzds", "dataset_manifest.csv",
                     "model.afua", "training_curve.csv", "sweep.csv",
                     "confusion.csv", "budget.txt", "manifest.json",
                     "frames.frame"):
            assert (tiny_run / name).exists(), name
        from biozpipe import fem
        assert len(datapipe.load_frames(tiny_run / "frames.frame")) == 40
        assert not (tiny_run / "phantoms").exists()
        assert not (tiny_run / "frames").exists()

    def test_phantoms_rebuild_from_seeds(self, tiny_run):
        # phantoms.csv seeds stand in for stored conductivities
        from biozpipe import fem
        from biozpipe import phantom as phm
        cfg = cli.RunConfig()
        mesh = geo.load_mesh(tiny_run / "mesh.txt")
        layout = geo.load_layout(tiny_run / "geometry.txt")
        with open(tiny_run / "phantoms.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        frames = datapipe.load_frames(tiny_run / "frames.frame")
        for i in (0, 39):
            assert int(rows[i]["index"]) == i
            p = phm.make_phantom(mesh, layout, cfg.tissue_model(),
                                 int(rows[i]["seed"]), cfg.rbf())
            assert p.label == int(rows[i]["label"])
            frame = fem.simulate_frame(
                p, mesh, layout,
                contact_impedance=cfg.contact_impedance_ohm_mm,
                phantom_id=phm.phantom_id(i))
            assert frames[i].phantom_id == frame.phantom_id
            assert frames[i].voltages.tobytes() == frame.voltages.tobytes()

    def test_validation_heldout_says_it_is_biased(self, tmp_path, capsys):
        assert run_cli(["pipeline", "--n", "12", "--epochs", "2",
                        "--seed", "5", "--mesh-edge", "0.3",
                        "--split", "0.5,0.5,0.0",
                        "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        at = next(k for k, ln in enumerate(lines)
                  if ln.startswith("held-out (validation) accuracy "))
        assert any(ln.startswith("note: the validation split also selected "
                                 "the best epoch") for ln in lines[at + 1:])

    def test_sweep_has_fp_row(self, tiny_run):
        with open(tiny_run / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 7
        assert rows[-1]["bits"] == "FP"

    def test_manifest_covers_outputs(self, tiny_run):
        manifest = json.loads((tiny_run / "manifest.json").read_text())
        assert "model.afua" in manifest
        assert "dataset.bzds" in manifest
        assert all(len(h) == 64 for h in manifest.values())

    # SHA-256 of the tiny run's manifest.json, the same at every BLAS thread
    # count.  A change meant to move no byte passes with this value as it
    # is; a change that moves bytes updates it and says why in CHANGES.md.
    TINY_MANIFEST_SHA256 = ("cd6a84ebeac8b09375a40cce8a830479"
                            "2bc36daeba3d39f75fbad243c98ba9bc")

    def test_tiny_run_manifest_pinned(self, tiny_run):
        manifest = (tiny_run / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == self.TINY_MANIFEST_SHA256

    def test_label_balance_printed(self, tiny_run):
        with open(tiny_run / "phantoms.csv") as f:
            rows = list(csv.DictReader(f))
        labels = [int(r["label"]) for r in rows]
        assert 0 < sum(labels) < len(labels)


def error_classes(cls=BiozError):
    """``cls`` and every class below it."""
    return [cls, *(c for sub in cls.__subclasses__()
                   for c in error_classes(sub))]


# the documented exit codes: 2 usage, 3 numerical, 4 file format and I/O
EXIT_CODES = {BiozError: 2, ConfigError: 2, MeshError: 3, SolverError: 3,
              NumericalError: 3, FormatError: 4, OSError: 4}


@pytest.mark.parametrize("error", [*error_classes(), OSError],
                         ids=lambda e: e.__name__)
def test_exit_code_comes_from_the_error_class(monkeypatch, capsys, error):
    def fake(out, as_json):
        raise error("injected")
    monkeypatch.setattr(cli, "stage_budget", fake)
    assert run_cli(["budget"]) == EXIT_CODES[error]
    assert capsys.readouterr().err == "error [budget]: injected\n"
    if error is not OSError:
        assert error.exit_code == EXIT_CODES[error]


class TestPipelineStages:
    STAGES = [("stage_generate", "generate", MeshError, 3),
              ("stage_train", "train", NumericalError, 3),
              ("stage_quantize", "quantize", FormatError, 4),
              ("stage_eval_heldout", "eval", ConfigError, 2),
              ("stage_budget", "budget", OSError, 4)]

    @pytest.mark.parametrize("failing, stage, error, code", STAGES,
                             ids=[s[1] for s in STAGES])
    def test_failure_names_its_stage(self, tmp_path, monkeypatch, capsys,
                                     failing, stage, error, code):
        # the tracer of bench/ wraps stages the same way, by module attribute
        called = []
        for name, _, _, _ in self.STAGES:
            def fake(*args, name=name, **kwargs):
                called.append(name)
                if name == failing:
                    raise error("injected")
            monkeypatch.setattr(cli, name, fake)
        assert run_cli(["pipeline", "--n", "12", "--mesh-edge", "0.3",
                        "--out", str(tmp_path / "run")]) == code
        assert capsys.readouterr().err == f"error [{stage}]: injected\n"
        names = [s[0] for s in self.STAGES]
        assert called == names[:names.index(failing) + 1]

    def test_pipeline_writes_what_the_chained_stages_write(self, tiny_run,
                                                           tmp_path):
        out = ["--seed", "5", "--out", str(tmp_path)]
        for args in (["generate", "--n", "40", "--mesh-edge", "0.3",
                      "--split", "0.5,0.25,0.25"],
                     ["train", "--epochs", "4"], ["quantize"]):
            assert run_cli([*args, *out]) == 0
        chained = json.loads((tmp_path / "manifest.json").read_text())
        piped = json.loads((tiny_run / "manifest.json").read_text())
        assert set(piped) - set(chained) == {"confusion.csv", "budget.txt"}
        assert chained == {k: piped[k] for k in chained}


    def test_each_stage_writes_the_files_it_lists(self, tmp_path):
        # a file a stage writes but does not list would survive a rerun of
        # an earlier stage, and mix two configurations
        out = tmp_path / "run"
        for args in (["generate", "--n", "12", "--mesh-edge", "0.5"],
                     ["train", "--epochs", "1"], ["quantize"]):
            before = {p.name for p in out.glob("*")}
            assert run_cli([*args, "--out", str(out)]) == 0
            matched = {glob: {p.name for p in out.glob(glob)}
                       for glob in cli.STAGES[args[0]].outputs}
            assert all(matched.values())
            listed = set().union(*matched.values())
            assert not listed & before
            assert ({p.name for p in out.iterdir()}
                    == before | listed | {"manifest.json"})


class TestReruns:
    def test_threads_do_not_change_manifest(self, tmp_path):
        manifests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert run_cli([*TINY_PIPELINE, "--threads", threads,
                            "--out", str(out)]) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_blas_threads_do_not_change_manifest(self, tmp_path):
        # every stage, model bytes included; generate on the finer mesh
        src = str(Path(biozpipe.__file__).resolve().parents[1])
        manifests = []
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "biozpipe.cli", *TINY_PIPELINE,
                 "--mesh-edge", "0.14", "--threads", "2", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_generate_replaces_frames_of_a_larger_run(self, tiny_run,
                                                      tmp_path):
        from biozpipe import fem
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        assert run_cli(["generate", "--n", "12", "--seed", "5",
                        "--mesh-edge", "0.3", "--split", "0.5,0.25,0.25",
                        "--out", str(run)]) == 0
        assert len(datapipe.load_frames(run / "frames.frame")) == 12
        manifest = json.loads((run / "manifest.json").read_text())
        assert not [name for name in manifest
                    if name.startswith(("frames/", "phantoms/"))]

    LATER_FILES = ("model.afua", "training_curve.csv", "sweep.csv",
                   "confusion.csv")

    @staticmethod
    def finished_copy(tiny_run, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        return run

    @staticmethod
    def assert_manifest_lists_files(run):
        manifest = json.loads((run / "manifest.json").read_text())
        assert set(manifest) == {p.name for p in run.iterdir()
                                 if p.name != "manifest.json"}

    def test_generate_deletes_every_later_stage_output(self, tiny_run,
                                                       tmp_path):
        run = self.finished_copy(tiny_run, tmp_path)
        assert run_cli(["generate", "--n", "12", "--seed", "8",
                        "--mesh-edge", "0.3", "--split", "0.5,0.25,0.25",
                        "--out", str(run)]) == 0
        for name in self.LATER_FILES:
            assert not (run / name).exists(), name
        assert not list(run.glob("model_q*.afuaq"))
        assert (run / "budget.txt").exists()
        self.assert_manifest_lists_files(run)

    def test_train_deletes_sweep_quantized_models_and_confusion(
            self, tiny_run, tmp_path):
        run = self.finished_copy(tiny_run, tmp_path)
        assert run_cli(["train", "--epochs", "1", "--seed", "5",
                        "--out", str(run)]) == 0
        assert (run / "model.afua").exists()
        assert len((run / "training_curve.csv").read_text().splitlines()) == 2
        for name in ("sweep.csv", "confusion.csv"):
            assert not (run / name).exists(), name
        assert not list(run.glob("model_q*.afuaq"))
        self.assert_manifest_lists_files(run)

    def test_quantize_fewer_bits_deletes_the_other_models(self, tiny_run,
                                                          tmp_path):
        run = self.finished_copy(tiny_run, tmp_path)
        assert run_cli(["quantize", "--bits", "3,4", "--out", str(run)]) == 0
        assert sorted(p.name for p in run.glob("model_q*.afuaq")) == [
            "model_q3.afuaq", "model_q4.afuaq"]
        with open(run / "sweep.csv") as f:
            assert [r["bits"] for r in csv.DictReader(f)] == ["3", "4", "FP"]
        assert not (run / "confusion.csv").exists()
        assert (run / "model.afua").read_bytes() == \
            (tiny_run / "model.afua").read_bytes()
        self.assert_manifest_lists_files(run)

    def test_config_fault_leaves_finished_run_untouched(self, tiny_run,
                                                        tmp_path):
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        for args in (["generate", "--split", "0.5,0.5,0.5"],
                     ["pipeline", "--bits", "2", "--epochs", "2"],
                     ["pipeline", "--bits", "3,3", "--epochs", "2"]):
            assert run_cli([*args, "--n", "12", "--mesh-edge", "0.3",
                            "--out", str(run)]) == 2
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("args, message", [
        (["generate", "--mesh-edge", "5"], "target_edge_length 5.0"),
        (["pipeline", "--bits", "3,3", "--epochs", "2", "--mesh-edge", "0.3"],
         "bits: repeated bit width")],
        ids=["mesh-edge-above-electrode", "bits-repeated"])
    def test_value_fault_exit_2_leaves_finished_run_untouched(
            self, tiny_run, tmp_path, capsys, args, message):
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert run_cli([*args, "--n", "12", "--out", str(run)]) == 2
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("config", [
        '{"saline_ms_per_m": NaN}', '{"contact_impedance_ohm_mm": 0}',
        '{"contact_impedance_ohm_mm": Infinity}',
        '{"contact_impedance_ohm_mm": -10.0}', '{"learning_rate": NaN}',
        '{"learning_rate": 0}', '{"learning_rate": -0.001}',
        '{"batch_size": 0}', '{"epochs": 0}',
        # Adam's constants are not configurable: unknown keys
        '{"beta1": 1.0}', '{"beta2": 1.5}', '{"adam_eps": -1.0}',
        '{"rbf_width_mm": NaN}', '{"rbf_width_mm": Infinity}',
        '{"rbf_width_mm": 1e-200}',
        '{"saline_ms_per_m": 1%s}' % ("0" * 400), '{"bits": []}'],
        ids=["saline-nan", "contact-zero", "contact-inf", "contact-negative",
             "lr-nan", "lr-zero", "lr-negative", "batch-size-zero",
             "epochs-zero",
             "beta1-one", "beta2-above-one", "eps-negative",
             "rbf-width-nan", "rbf-width-inf", "rbf-width-underflow",
             "saline-int-overflow", "bits-empty"])
    def test_config_file_value_fault_leaves_finished_run_untouched(
            self, tiny_run, tmp_path, capsys, config):
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        (tmp_path / "c.json").write_text(config)
        key = next(iter(json.loads(config)))
        # the flag would override the file's epochs
        epochs = [] if key == "epochs" else ["--epochs", "2"]
        assert run_cli(["pipeline", "--config", str(tmp_path / "c.json"),
                        "--n", "12", *epochs, "--mesh-edge", "0.3",
                        "--out", str(run)]) == 2
        assert key in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("config, named", [
        ('{"dt": 2.0, "n_phantoms": 12}', "dt"),
        ('{"n_phantoms": 2}', "n_phantoms")],
        ids=["dt-above-tau_h", "n_phantoms-empty-validation"])
    def test_training_fault_exit_2_leaves_finished_run_untouched(
            self, tiny_run, tmp_path, capsys, config, named):
        # each passed the configuration check and failed only in train,
        # after generate had replaced the finished run's files.  dt is not
        # a config key: the unknown-key check rejects it
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        (tmp_path / "c.json").write_text(config)
        assert run_cli(["pipeline", "--config", str(tmp_path / "c.json"),
                        "--epochs", "2", "--mesh-edge", "0.3",
                        "--out", str(run)]) == 2
        assert named in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_dead_head_train_exit_3_names_the_epoch(self, tiny_run, tmp_path,
                                                    monkeypatch, capsys):
        from dataclasses import replace
        init = cli.trainer.init_params
        monkeypatch.setattr(cli.trainer, "init_params", lambda seed: replace(
            init(seed), fc2_b=np.full(2, -5.0)))
        run = self.finished_copy(tiny_run, tmp_path)
        assert run_cli(["train", "--epochs", "2", "--out", str(run)]) == 3
        assert "error [train]: training stalled at epoch 0" in \
            capsys.readouterr().err

    def test_generate_recomputes_reference(self, tmp_path):
        from biozpipe import fem
        out = tmp_path / "run"
        base = ["generate", "--n", "2", "--seed", "1", "--mesh-edge", "0.3",
                "--out", str(out), "--split", "0.5,0.5,0.0"]
        assert run_cli(base) == 0
        assert run_cli([*base, "--model", "bovine"]) == 0
        # a reused reference would still be that of the prostate's 126 mS/m
        want = fem.reference_frame(
            geo.load_mesh(out / "mesh.txt"),
            geo.load_layout(out / "geometry.txt"), sigma_saline=341.0,
            contact_impedance=cli.RunConfig().contact_impedance_ohm_mm)
        got = datapipe.load_frames(out / "reference.frame")[0]
        assert np.array_equal(got.voltages, want.voltages)


class TestEvalCommand:
    def test_eval_on_dataset(self, tiny_run, tmp_path, capsys):
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(tiny_run / "dataset.bzds"),
                        "--out", str(tmp_path)])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_creates_out_dir(self, tiny_run, tmp_path):
        out = tmp_path / "new" / "eval"
        assert run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(tiny_run / "dataset.bzds"),
                        "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["confusion.csv",
                                                         "manifest.json"]

    def test_eval_on_frames_with_labels(self, tiny_run, tmp_path, capsys):
        # externally measured frames path: reuse four simulated frames
        from biozpipe import fem
        frames = datapipe.load_frames(tiny_run / "frames.frame")[:4]
        bundle = tmp_path / "measured.frames"
        datapipe.save_frames(frames, bundle)
        with open(tiny_run / "phantoms.csv") as f:
            meta = {f"p{int(r['index']):05d}": r["label"]
                    for r in csv.DictReader(f)}
        labels = tmp_path / "labels.csv"
        with open(labels, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "label"])
            for fr in frames:
                w.writerow([fr.phantom_id, meta[fr.phantom_id]])
        out = tmp_path / "eval"
        out.mkdir()
        shutil.copy(tiny_run / "reference.frame", out)
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--labels", str(labels),
                        "--out", str(out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated 4 sequences" in out

    def test_frames_without_labels_exit_2(self, tiny_run, tmp_path):
        from biozpipe import fem
        bundle = tmp_path / "m.frames"
        datapipe.save_frames(
            datapipe.load_frames(tiny_run / "frames.frame")[:1], bundle)
        out = tmp_path / "eval"
        out.mkdir()
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--out", str(out)])
        assert code == 2

    def test_eval_on_frames_matches_dataset(self, tiny_run, tmp_path):
        labels = tmp_path / "labels.csv"
        with open(tiny_run / "phantoms.csv") as f, \
                open(labels, "w", newline="") as g:
            w = csv.writer(g)
            w.writerow(["id", "label"])
            for r in csv.DictReader(f):
                w.writerow([f"p{int(r['index']):05d}", r["label"]])
        confusions = []
        for name, data in (("dataset", ["--data",
                                         str(tiny_run / "dataset.bzds")]),
                           ("frames", ["--data",
                                       str(tiny_run / "frames.frame"),
                                       "--labels", str(labels)])):
            out = tmp_path / name
            out.mkdir()
            shutil.copy(tiny_run / "reference.frame", out)
            assert run_cli(["eval", "--model-file",
                            str(tiny_run / "model.afua"), *data,
                            "--out", str(out)]) == 0
            confusions.append((out / "confusion.csv").read_bytes())
        assert confusions[0] == confusions[1]

    @pytest.mark.parametrize("name", ["model.afua", "model_q6.afuaq"])
    def test_model_file_keeps_its_step(self, tiny_run, tmp_path, name):
        # a model file written at S = 10, dt = 0.1, the default before
        # S = 4, evaluates at that step.  Its head labels the first sequence
        # positive when the first A1 unit passes the midpoint of that
        # unit's values at the two steps, so the default gives another
        # confusion
        old = afua.IntegrationConfig(10, 0.1)
        default = afua.IntegrationConfig()
        X, y = trainer.to_arrays(
            datapipe.load_sequences(tiny_run / "dataset.bzds"))
        quantized = name.endswith(".afuaq")
        base = trainer.init_params(1)
        if quantized:
            base = quantizer.quantize(base, 6).dequantize()
        a1 = [afua.head_batch(afua.unroll(X[:1], base, c)[0], base)[1][0, 0]
              for c in (old, default)]
        model = replace(base, fc2_w=np.array([[0.0, 0.0], [1.0, 0.0]]),
                        fc2_b=np.array([np.mean(a1), 0.0]))
        if quantized:
            model = quantizer.quantize(model, 6)
        afua.write_model_file(tmp_path / name, old, model)
        full = model.dequantize() if quantized else model
        confusions = [
            [[int(np.sum((y == t) & (pred == p))) for p in (0, 1)]
             for t in (0, 1)]
            for pred in (afua.predict(afua.forward_probabilities(X, full, c))
                         for c in (old, default))]
        assert confusions[0] != confusions[1]
        out = tmp_path / "eval"
        assert run_cli(["eval", "--model-file", str(tmp_path / name),
                        "--data", str(tiny_run / "dataset.bzds"),
                        "--out", str(out)]) == 0
        with open(out / "confusion.csv") as f:
            rows = list(csv.reader(f))[1:3]
        assert [[int(v) for v in row[1:]] for row in rows] == confusions[0]

    def test_frames_with_wrong_pattern_count_exit_4(self, tiny_run,
                                                    tmp_path, capsys):
        bundle = tmp_path / "m.frames"
        pid = b"p00000"
        bundle.write_bytes(b"BZFR" + struct.pack("<IIIH", 1, 29, 25, len(pid))
                           + pid + bytes(8 * 2 * 29 * 25))
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\np00000,0\n")
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--labels", str(labels),
                        "--out", str(tmp_path)])
        assert code == 4
        assert "29 patterns" in capsys.readouterr().err


def narrow_w_z(data):
    """A model file whose W_z section is a consistent 16x24 matrix."""
    lines = data.decode("ascii").split("\n")
    i = next(k for k, ln in enumerate(lines) if ln.split()[:1] == ["W_z"])
    for k in range(i + 1, i + 1 + int(lines[i].split()[1])):
        lines[k] = " ".join(lines[k].split()[:24])
    return "\n".join(lines).encode("ascii")


def set_byte(offset, value):
    return lambda data: data[:offset] + bytes([value]) + data[offset + 1:]


def middle_byte_ff(data):
    return set_byte(len(data) // 2, 0xFF)(data)


def dt_above_tau_h(data):
    """A model file whose Euler step is twice its time constant."""
    lines = data.decode("ascii").split("\n")
    tau_h = next(float(ln.split()[1]) for ln in lines
                 if ln.startswith("tau_h "))
    return "\n".join(f"dt {2.0 * tau_h!r}" if ln.startswith("dt ") else ln
                     for ln in lines).encode("ascii")


def first_entry(key, value):
    """A model file whose first value in section ``key`` is ``value``: the
    first W_z weight or code, or with key "scales" the W_z scale."""
    def corrupt(data):
        lines = data.decode("ascii").split("\n")
        i = next(k for k, ln in enumerate(lines) if ln.split()[:1] == [key])
        lines[i + 1] = " ".join([value] + lines[i + 1].split()[1:])
        return "\n".join(lines).encode("ascii")
    return corrupt


def tau_h_2(data):
    """A model file that names a time constant other than the circuit's."""
    return data.replace(b"\ntau_h 1.0\n", b"\ntau_h 2.0\n")


MALFORMED_MODELS = {
    "afua-epsilon-1": ("model.afua", lambda data: data.replace(
        b"\nepsilon 1e-06\n", b"\nepsilon 1.0\n")),
    "afua-w_z-16x24": ("model.afua", narrow_w_z),
    "afua-byte-ff": ("model.afua", middle_byte_ff),
    "afua-dt-above-tau_h": ("model.afua", dt_above_tau_h),
    "afua-tau_h-2": ("model.afua", tau_h_2),
    "afua-w_z-nan": ("model.afua", first_entry("W_z", "nan")),
    "afuaq-w_z-16x24": ("model_q6.afuaq", narrow_w_z),
    "afuaq-bits-2": ("model_q6.afuaq", lambda data: data.replace(
        b"\nbits 6\n", b"\nbits 2\n")),
    "afuaq-byte-ff": ("model_q6.afuaq", middle_byte_ff),
    # 1000 is far past max_code(3) = 3
    "afuaq-code-1000": ("model_q3.afuaq", first_entry("W_z", "1000")),
    "afuaq-dt-above-tau_h": ("model_q6.afuaq", dt_above_tau_h),
    "afuaq-tau_h-2": ("model_q6.afuaq", tau_h_2),
    "afuaq-scale-zero": ("model_q6.afuaq", first_entry("scales", "0.0")),
}

# eval --data files: both hold their version at byte 4; a dataset holds its
# record width (700 = 0x2BC) at byte 12, and its first record starts at byte
# 16 with a 2-byte id length and the label byte
MALFORMED_DATASETS = {
    "half-length": ("dataset.bzds", lambda data: data[:len(data) // 2]),
    "id-not-utf8": ("dataset.bzds", set_byte(19, 0xFF)),
    "label-7": ("dataset.bzds", set_byte(18, 7)),
    "truncated-header": ("dataset.bzds", lambda data: data[:10]),
    "version-2": ("dataset.bzds", set_byte(4, 2)),
    "width-699": ("dataset.bzds", set_byte(12, 0xBB)),
    "trailing-byte": ("dataset.bzds", lambda data: data + b"\0"),
    "frames-version-2": ("frames.frame", set_byte(4, 2)),
}


class TestMalformedInputs:
    """Every malformed input file of ``eval`` or ``train`` exits 4 naming
    the file."""

    def eval_exit(self, capsys, model, data, out, labels=None):
        args = ["eval", "--model-file", str(model), "--data", str(data),
                "--out", str(out)]
        code = run_cli(args + (["--labels", str(labels)] if labels else []))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_model_file(self, tiny_run, tmp_path, capsys, case):
        name, corrupt = MALFORMED_MODELS[case]
        good = (tiny_run / name).read_bytes()
        bad = tmp_path / name
        bad.write_bytes(corrupt(good))
        assert bad.read_bytes() != good
        code, err = self.eval_exit(capsys, bad, tiny_run / "dataset.bzds",
                                   tmp_path)
        assert code == 4
        assert f"error [eval]: {bad}" in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_DATASETS))
    def test_dataset(self, tiny_run, tmp_path, capsys, case):
        name, corrupt = MALFORMED_DATASETS[case]
        good = (tiny_run / name).read_bytes()
        bad = tmp_path / name
        bad.write_bytes(corrupt(good))
        assert bad.read_bytes() != good
        # the frames file fails to load before any label is looked up; a
        # dataset holds its labels, and takes no --labels
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n")
        code, err = self.eval_exit(capsys, tiny_run / "model.afua", bad,
                                   tmp_path,
                                   labels if bad.suffix == ".frame" else None)
        assert code == 4
        assert f"error [eval]: {bad}" in err

    def test_dataset_with_a_repeated_id(self, tiny_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        path = run / "dataset.bzds"
        data = path.read_bytes()
        version, count, width = struct.unpack_from("<III", data, 4)
        (id_len,) = struct.unpack_from("<H", data, 16)
        first = data[16:16 + 3 + id_len + 4 * width]
        path.write_bytes(data[:4] + struct.pack("<III", version, count + 1,
                                                width) + data[16:] + first)
        assert run_cli(["train", "--epochs", "2", "--out", str(run)]) == 4
        pid = first[3:3 + id_len].decode("ascii")
        assert (f"error [train]: {path}: id {pid!r} listed twice"
                in capsys.readouterr().err)

    def test_frames_with_a_repeated_id(self, tiny_run, tmp_path, capsys):
        frames = datapipe.load_frames(tiny_run / "frames.frame")[:3]
        bundle = tmp_path / "m.frames"
        datapipe.save_frames(frames + frames[:1], bundle)
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\n" + "".join(
            f"{fr.phantom_id},0\n" for fr in frames))
        code, err = self.eval_exit(capsys, tiny_run / "model.afua", bundle,
                                   tiny_run, labels)
        assert code == 4
        assert (f"error [eval]: {bundle}: id {frames[0].phantom_id!r} "
                "listed twice" in err)

    def test_frames_with_24_electrodes(self, tiny_run, tmp_path, capsys):
        bundle = tmp_path / "m.frames"
        pid = b"p00000"
        bundle.write_bytes(b"BZFR" + struct.pack("<IIIH", 1, 28, 24, len(pid))
                           + pid + bytes(8 * 2 * 28 * 24))
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\np00000,0\n")
        code, err = self.eval_exit(capsys, tiny_run / "model.afua", bundle,
                                   tiny_run, labels)
        assert code == 4
        assert f"error [eval]: {bundle}" in err
        assert "24 electrodes" in err

    def test_reference_without_frame(self, tiny_run, tmp_path, capsys):
        run = TestReruns.finished_copy(tiny_run, tmp_path)
        (run / "reference.frame").write_bytes(b"")
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        labels = tmp_path / "labels.csv"
        ids = [f.phantom_id for f in datapipe.load_frames(run / "frames.frame")]
        labels.write_text("id,label\n" + "".join(f"{i},0\n" for i in ids))
        code, err = self.eval_exit(capsys, run / "model.afua",
                                   run / "frames.frame", run, labels)
        assert code == 4
        assert f"error [eval]: {run / 'reference.frame'}" in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    def test_labels_lacking_a_frame_id(self, tiny_run, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\np00000,1\n")
        shutil.copy(tiny_run / "reference.frame", tmp_path)
        code, err = self.eval_exit(capsys, tiny_run / "model.afua",
                                   tiny_run / "frames.frame", tmp_path, labels)
        assert code == 4
        assert (f"error [eval]: {labels}: no label for frame id 'p00001'"
                in err)
        assert not (tmp_path / "confusion.csv").exists()

    @pytest.mark.parametrize("name", ["empty.bzds", "empty.frame"])
    def test_data_without_records(self, tiny_run, tmp_path, capsys, name):
        data = tmp_path / name
        if name.endswith(".bzds"):
            datapipe.save_sequences([], data)
        else:
            data.write_bytes(b"")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label\np00000,1\n")
        shutil.copy(tiny_run / "reference.frame", tmp_path)
        code, err = self.eval_exit(capsys, tiny_run / "model.afua", data,
                                   tmp_path,
                                   labels if data.suffix == ".frame" else None)
        assert code == 4
        assert f"error [eval]: {data}: holds no record" in err

    def test_model_file_with_too_many_substeps(self, tiny_run, tmp_path,
                                               capsys):
        bad = tmp_path / "model.afua"
        good = (tiny_run / "model.afua").read_bytes()
        line = f"\nsubsteps {afua.IntegrationConfig().substeps_per_pattern}\n"
        bad.write_bytes(good.replace(
            line.encode("ascii"),
            f"\nsubsteps {afua.MAX_SUBSTEPS + 1}\n".encode("ascii")))
        assert bad.read_bytes() != good
        code, err = self.eval_exit(capsys, bad, tiny_run / "dataset.bzds",
                                   tmp_path)
        assert code == 4
        assert f"error [eval]: {bad}" in err
        assert "substeps_per_pattern" in err

    @pytest.mark.parametrize("content", [
        b"id,label\np00000,x\n", b"id,label\np00000,2\n",
        b"id,label\np00000,\n", b"name,label\np00000,1\n",
        b"id,label\np\xe900000,1\n", b"id,label\np00000,0\np00000,1\n"])
    def test_labels_file(self, tiny_run, tmp_path, capsys, content):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(content)
        code, err = self.eval_exit(capsys, tiny_run / "model.afua",
                                   tiny_run / "frames.frame",
                                   tiny_run, labels)
        assert code == 4
        assert f"error [eval]: {labels}" in err

    @pytest.mark.parametrize("case", ["id-not-in-dataset", "missing-id",
                                      "no-split-column", "non-ascii",
                                      "repeated-id", "unknown-split"])
    def test_split_manifest(self, tiny_run, tmp_path, capsys, case):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        manifest = run / "dataset_manifest.csv"
        lines = manifest.read_bytes().splitlines(keepends=True)
        dropped = lines[2].split(b",")[0].decode("ascii")
        bad = {"id-not-in-dataset": lines + [b"p99999,test,1\n"],
               "missing-id": lines[:2] + lines[3:],
               "no-split-column": [b"id,part,label\n"] + lines[1:],
               "non-ascii": lines[:2] + [b"p\xe9" + lines[2]] + lines[3:],
               # an id listed again under another split
               "repeated-id": lines + [dropped.encode("ascii") + b",test,1\n"],
               "unknown-split": lines[:2]
               + [dropped.encode("ascii") + b",holdout,1\n"] + lines[3:]}
        manifest.write_bytes(b"".join(bad[case]))
        assert run_cli(["quantize", "--out", str(run)]) == 4
        err = capsys.readouterr().err
        assert f"error [quantize]: {manifest}" in err
        if case in ("missing-id", "repeated-id", "unknown-split"):
            assert repr(dropped) in err
        if case == "id-not-in-dataset":
            assert f"id 'p99999' is not in {run / 'dataset.bzds'}" in err
