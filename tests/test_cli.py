import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biozpipe
from biozpipe import cli


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


class TestBudgetCommand:
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
    ], ids=["split-flag", "split-two-fractions", "bits-flag",
            "n_phantoms-str", "split-int", "threads-bool", "json-list"])
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


class TestResolveConfig:
    @staticmethod
    def resolve(*argv):
        return cli.resolve_config(cli.build_parser().parse_args(
            ["generate", *argv]))

    def test_bovine_config_file_keeps_explicit_saline(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": "bovine", "saline_ms_per_m": 126.0}')
        got = self.resolve("--config", str(cfg))
        assert (got.split, got.saline_ms_per_m) == ((0.75, 0.25, 0.0), 126.0)
        got = self.resolve("--model", "bovine")
        assert (got.split, got.saline_ms_per_m) == ((0.75, 0.25, 0.0), 341.0)

    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": "bovine", "split": [0.5, 0.5, 0.0], '
                       '"bits": [4], "seed": 3}')
        got = self.resolve("--config", str(cfg), "--split", "0.6,0.2,0.2",
                           "--saline", "200")
        assert (got.model, got.split, got.saline_ms_per_m, got.bits,
                got.seed) == ("bovine", (0.6, 0.2, 0.2), 200.0, (4,), 3)


class TestPipelineOutputs:
    def test_expected_files(self, tiny_run):
        for name in ("geometry.txt", "mesh.txt", "reference.frame",
                     "phantoms.csv", "dataset.bzds", "dataset_manifest.csv",
                     "model.afua", "training_curve.csv", "sweep.csv",
                     "confusion.csv", "budget.txt", "manifest.json",
                     "frames.frame"):
            assert (tiny_run / name).exists(), name
        from biozpipe import fem
        assert len(fem.load_frames(tiny_run / "frames.frame")) == 40
        assert not (tiny_run / "phantoms").exists()
        assert not (tiny_run / "frames").exists()

    def test_phantoms_rebuild_from_seeds(self, tiny_run):
        # phantoms.csv seeds stand in for stored conductivities
        from biozpipe import fem
        from biozpipe import geometry as geo
        from biozpipe import phantom as phm
        cfg = cli.RunConfig()
        mesh = geo.load_mesh(tiny_run / "mesh.txt")
        layout = geo.load_layout(tiny_run / "geometry.txt")
        rows = phm.load_phantom_metadata(tiny_run / "phantoms.csv")
        frames = fem.load_frames(tiny_run / "frames.frame")
        for i in (0, 39):
            p = phm.make_phantom(mesh, layout, cfg.tissue_model(),
                                 rows[i]["seed"], cfg.rbf())
            assert p.label == rows[i]["label"]
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

    def test_label_balance_printed(self, tiny_run):
        with open(tiny_run / "phantoms.csv") as f:
            rows = list(csv.DictReader(f))
        labels = [int(r["label"]) for r in rows]
        assert 0 < sum(labels) < len(labels)


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
        src = str(Path(biozpipe.__file__).resolve().parents[1])
        manifests = []
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                   "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "biozpipe.cli", "generate",
                 "--n", "24", "--mesh-edge", "0.14", "--threads", "2",
                 "--out", str(out)],
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
        assert len(fem.load_frames(run / "frames.frame")) == 12
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
                     ["generate", "--saline", "-1"],
                     ["pipeline", "--bits", "2", "--epochs", "2"]):
            assert run_cli([*args, "--n", "12", "--mesh-edge", "0.3",
                            "--out", str(run)]) == 2
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("args, message", [
        (["generate", "--mesh-edge", "5"], "target_edge_length 5.0"),
        (["pipeline", "--gain", "nan", "--epochs", "2", "--mesh-edge", "0.3"],
         "gain_per_mv")], ids=["mesh-edge-above-electrode", "gain-nan"])
    def test_value_fault_exit_2_leaves_finished_run_untouched(
            self, tiny_run, tmp_path, capsys, args, message):
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        assert run_cli([*args, "--n", "12", "--out", str(run)]) == 2
        assert message in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("config", [
        '{"saline_ms_per_m": NaN}', '{"contact_impedance_ohm_mm": 0}',
        '{"contact_impedance_ohm_mm": Infinity}', '{"learning_rate": NaN}',
        '{"beta1": 1.0}', '{"beta2": 1.5}', '{"adam_eps": -1.0}'],
        ids=["saline-nan", "contact-zero", "contact-inf", "lr-nan",
             "beta1-one", "beta2-above-one", "eps-negative"])
    def test_config_file_value_fault_leaves_finished_run_untouched(
            self, tiny_run, tmp_path, capsys, config):
        run = self.finished_copy(tiny_run, tmp_path)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        (tmp_path / "c.json").write_text(config)
        assert run_cli(["pipeline", "--config", str(tmp_path / "c.json"),
                        "--n", "12", "--epochs", "2", "--mesh-edge", "0.3",
                        "--out", str(run)]) == 2
        assert next(iter(json.loads(config))) in capsys.readouterr().err
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
        from biozpipe import geometry as geo
        out = tmp_path / "run"
        base = ["generate", "--n", "2", "--seed", "1", "--mesh-edge", "0.3",
                "--out", str(out), "--split", "0.5,0.5,0.0"]
        assert run_cli([*base, "--saline", "126"]) == 0
        assert run_cli([*base, "--saline", "300"]) == 0
        # a reused reference would still be that of the 126 mS/m bath
        want = fem.reference_frame(
            geo.load_mesh(out / "mesh.txt"),
            geo.load_layout(out / "geometry.txt"), sigma_saline=300.0,
            contact_impedance=cli.RunConfig().contact_impedance_ohm_mm)
        got = fem.load_frames(out / "reference.frame")[0]
        assert np.array_equal(got.voltages, want.voltages)


class TestEvalCommand:
    def test_eval_on_dataset(self, tiny_run, capsys):
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(tiny_run / "dataset.bzds"),
                        "--out", str(tiny_run)])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_eval_on_frames_with_labels(self, tiny_run, tmp_path, capsys):
        # externally measured frames path: reuse four simulated frames
        from biozpipe import fem
        frames = fem.load_frames(tiny_run / "frames.frame")[:4]
        bundle = tmp_path / "measured.frames"
        fem.save_frames(frames, bundle)
        with open(tiny_run / "phantoms.csv") as f:
            meta = {f"p{int(r['index']):05d}": r["label"]
                    for r in csv.DictReader(f)}
        labels = tmp_path / "labels.csv"
        with open(labels, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "label"])
            for fr in frames:
                w.writerow([fr.phantom_id, meta[fr.phantom_id]])
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--labels", str(labels),
                        "--out", str(tiny_run)])
        assert code == 0
        out = capsys.readouterr().out
        assert "evaluated 4 sequences" in out

    def test_frames_without_labels_exit_2(self, tiny_run, tmp_path):
        from biozpipe import fem
        bundle = tmp_path / "m.frames"
        fem.save_frames(fem.load_frames(tiny_run / "frames.frame")[:1],
                        bundle)
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--out", str(tiny_run)])
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
                        "--out", str(tiny_run)])
        assert code == 4
        assert "29 patterns" in capsys.readouterr().err


def narrow_w_z(data):
    """A model file whose W_z block is a consistent 16x24 matrix."""
    lines = data.decode("ascii").split("\n")
    i = next(k for k, ln in enumerate(lines) if ln.split()[1:2] == ["W_z"])
    head = lines[i].split()
    lines[i] = " ".join(head[:3] + ["24"] + head[4:])
    for k in range(i + 1, i + 1 + int(head[2])):
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


MALFORMED_MODELS = {
    "afua-epsilon-1": ("model.afua", lambda data: data.replace(
        b"\nepsilon 1e-06\n", b"\nepsilon 1.0\n")),
    "afua-w_z-16x24": ("model.afua", narrow_w_z),
    "afua-byte-ff": ("model.afua", middle_byte_ff),
    "afua-dt-above-tau_h": ("model.afua", dt_above_tau_h),
    "afuaq-w_z-16x24": ("model_q6.afuaq", narrow_w_z),
    "afuaq-bits-2": ("model_q6.afuaq", lambda data: data.replace(
        b"\nbits 6\n", b"\nbits 2\n")),
    "afuaq-byte-ff": ("model_q6.afuaq", middle_byte_ff),
    "afuaq-dt-above-tau_h": ("model_q6.afuaq", dt_above_tau_h),
}

# a record starts at byte 16 with a 2-byte id length and the label byte
MALFORMED_DATASETS = {
    "half-length": lambda data: data[:len(data) // 2],
    "id-not-utf8": set_byte(19, 0xFF),
    "label-7": set_byte(18, 7),
    "truncated-header": lambda data: data[:10],
}


class TestMalformedInputs:
    """Every malformed input file of ``eval`` exits 4 naming the file."""

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
        good = (tiny_run / "dataset.bzds").read_bytes()
        bad = tmp_path / "bad.bzds"
        bad.write_bytes(MALFORMED_DATASETS[case](good))
        assert bad.read_bytes() != good
        code, err = self.eval_exit(capsys, tiny_run / "model.afua", bad,
                                   tmp_path)
        assert code == 4
        assert f"error [eval]: {bad}" in err

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

    @pytest.mark.parametrize("content", [
        b"id,label\np00000,x\n", b"id,label\np00000,2\n",
        b"id,label\np00000,\n", b"name,label\np00000,1\n",
        b"id,label\np\xe900000,1\n"])
    def test_labels_file(self, tiny_run, tmp_path, capsys, content):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(content)
        code, err = self.eval_exit(capsys, tiny_run / "model.afua",
                                   tiny_run / "frames.frame",
                                   tiny_run, labels)
        assert code == 4
        assert f"error [eval]: {labels}" in err

    @pytest.mark.parametrize("case", ["missing-id", "no-split-column",
                                      "non-ascii"])
    def test_split_manifest(self, tiny_run, tmp_path, capsys, case):
        run = tmp_path / "run"
        shutil.copytree(tiny_run, run)
        manifest = run / "dataset_manifest.csv"
        lines = manifest.read_bytes().splitlines(keepends=True)
        dropped = lines[2].split(b",")[0].decode("ascii")
        bad = {"missing-id": lines[:2] + lines[3:],
               "no-split-column": [b"id,part,label\n"] + lines[1:],
               "non-ascii": lines[:2] + [b"p\xe9" + lines[2]] + lines[3:]}
        manifest.write_bytes(b"".join(bad[case]))
        assert run_cli(["quantize", "--out", str(run)]) == 4
        err = capsys.readouterr().err
        assert f"error [quantize]: {manifest}" in err
        if case == "missing-id":
            assert repr(dropped) in err


class TestGeometryOverride:
    def test_geometry_flag(self, tmp_path):
        from biozpipe import geometry as geo
        layout = geo.build_probe_layout(geo.GeometryConfig(
            domain_radius=3.6, ring_radius=3.0, grid_pitch=0.9,
            sensing_radius=2.25))
        gfile = tmp_path / "probe.txt"
        geo.save_layout(layout, gfile)
        out = tmp_path / "run"
        code = run_cli(["generate", "--n", "3", "--seed", "1",
                        "--mesh-edge", "0.3", "--geometry", str(gfile),
                        "--out", str(out), "--split", "0.5,0.5,0.0"])
        assert code == 0
        back = geo.load_layout(out / "geometry.txt")
        assert back.sensing_radius == 2.25

    def test_malformed_layout_exit_4(self, tmp_path, capsys):
        from biozpipe import geometry as geo
        gfile = tmp_path / "probe.txt"
        geo.save_layout(geo.build_probe_layout(), gfile)
        good = gfile.read_bytes()
        lines = good.split(b"\n")
        for bad in (middle_byte_ff(good),
                    # 24 inner electrodes: rows and count agree, count wrong
                    b"\n".join(lines[:3] + [b"inner 24"] + lines[5:])):
            gfile.write_bytes(bad)
            code = run_cli(["generate", "--n", "2", "--geometry", str(gfile),
                            "--out", str(tmp_path / "run")])
            assert code == 4
            assert f"error [generate]: {gfile}" in capsys.readouterr().err
