import csv
import json

import numpy as np
import pytest

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

    def test_unknown_subcommand_exit_2(self):
        assert run_cli(["frobnicate"]) == 2


class TestPipelineOutputs:
    def test_expected_files(self, tiny_run):
        for name in ("geometry.txt", "mesh.txt", "reference.frame",
                     "phantoms.csv", "dataset.bzds", "dataset_manifest.csv",
                     "model.afua", "training_curve.csv", "sweep.csv",
                     "confusion.csv", "budget.txt", "manifest.json"):
            assert (tiny_run / name).exists(), name
        assert len(list((tiny_run / "phantoms").glob("*.cond"))) == 40
        assert len(list((tiny_run / "frames").glob("*.frame"))) == 40

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
        # externally measured frames path: reuse two simulated frame files
        from biozpipe import fem
        frames = []
        for p in sorted((tiny_run / "frames").glob("*.frame"))[:4]:
            frames.extend(fem.load_frames(p))
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
        src = sorted((tiny_run / "frames").glob("*.frame"))[0]
        bundle = tmp_path / "m.frames"
        fem.save_frames(fem.load_frames(src), bundle)
        code = run_cli(["eval", "--model-file", str(tiny_run / "model.afua"),
                        "--data", str(bundle), "--out", str(tiny_run)])
        assert code == 2


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
