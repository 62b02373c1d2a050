"""Command-line entry point chaining the full pipeline.

Subcommands: generate, train, quantize, eval, budget, and pipeline (the
end-to-end chain).  All outputs land under the run directory together with
a manifest of file hashes; re-running with the same configuration must
reproduce every hash.  Files of a run directory, by the stage that writes
them; every command but budget also rewrites manifest.json:

    generate   geometry.txt, mesh.txt (format v2), reference.frame,
               phantoms.csv (index, seed, inclusion and label: make_phantom
               rebuilds a phantom from its seed), frames.frame (all frames,
               in index order), dataset.bzds, dataset_manifest.csv
    train      model.afua, training_curve.csv
    quantize   sweep.csv, model_q<bits>.afuaq for each bit width
    eval       confusion.csv (pipeline: on the held-out split)
    budget     budget.txt, or budget.json with --json

The records of reference.frame and frames.frame do not store a pattern
order: each holds the 28 patterns in the canonical order of
``geometry.enumerate_current_patterns``.

The run configuration (``RunConfig``) is resolved once, in this order: the
defaults, then the ``--config`` JSON file, then the flags given, then the
bovine protocol defaults (``BOVINE_DEFAULTS``) for keys that none of those
set.  It is checked in full, types included, before any stage touches the
run directory, so a configuration fault exits 2 and leaves a finished run
as it was.

Before it writes, each stage deletes the files that it and every later
stage of that list write (``STAGE_OUTPUTS``), so a run directory never
mixes the outputs of two configurations.  The budget files depend on no
run input and are left in place.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure,
4 I/O or file-format failure, which covers any malformed model, quantized
model, dataset, frames or layout file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import afua, analog, datapipe, fem, quantizer, trainer
from . import geometry as geo
from . import phantom as phm
from .errors import (BiozError, ConfigError, FormatError, MeshError,
                     NumericalError, SolverError)

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


@dataclass(frozen=True)
class RunConfig:
    """Complete pipeline configuration, checked in full when it is built:
    each value has its default's type (an int passes for a float, a bool
    for nothing), and the objects the stages build from it are built once,
    so their own checks run before any stage writes a file."""

    model: str = "prostate"
    n_phantoms: int = 1500
    seed: int = 7
    mesh_edge_mm: float = 0.14
    # effective sheet noise: the 10% volumetric heterogeneity depth-averages
    # over the 5 mm slice to ~2.3% at the default correlation length
    noise_rel_std: float = 0.023
    rbf_centers: int = 1300
    rbf_width_mm: float = 0.15
    saline_ms_per_m: float = 126.0
    contact_impedance_ohm_mm: float = 10.0
    gain_per_mv: float = 0.05
    split: tuple[float, float, float] = (0.5623, 0.1876, 0.2501)
    batch_size: int = 100
    epochs: int = 500
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    substeps: int = 10
    dt: float = 0.1
    epsilon: float = 1e-6
    bits: tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    out: str = "run"
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.default)
        if self.n_phantoms < 1:
            raise ConfigError("n_phantoms must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if not self.mesh_edge_mm > 0:
            raise ConfigError("mesh_edge_mm must be positive")
        if not 0 < self.saline_ms_per_m < math.inf:
            raise ConfigError("saline_ms_per_m must be positive and finite")
        if not 0 < abs(self.contact_impedance_ohm_mm) < math.inf:
            raise ConfigError("contact_impedance_ohm_mm must be finite and "
                              "nonzero")
        if not 0 < self.gain_per_mv < math.inf:
            raise ConfigError("gain_per_mv must be positive and finite")
        self.tissue_model()
        self.rbf()
        self.integration()
        self.train_config()
        try:
            datapipe.split_counts(self.n_phantoms, self.split)
        except ConfigError as exc:
            raise ConfigError(f"split: {exc}") from exc
        for b in self.bits:
            try:
                quantizer.QuantSpec(total_bits=b, scales={})
            except ConfigError as exc:
                raise ConfigError(f"bits: {exc}") from exc

    def tissue_model(self) -> phm.TissueModel:
        if self.model not in phm.TISSUE_MODELS:
            raise ConfigError(
                f"unknown tissue model {self.model!r}; "
                f"choose from {sorted(phm.TISSUE_MODELS)}"
            )
        base = phm.TISSUE_MODELS[self.model]
        return replace(base, noise_rel_std=self.noise_rel_std)

    def rbf(self) -> phm.RbfNoiseConfig:
        return phm.RbfNoiseConfig(n_centers=self.rbf_centers,
                                  kernel_width=self.rbf_width_mm)

    def integration(self) -> afua.IntegrationConfig:
        return afua.IntegrationConfig(substeps_per_pattern=self.substeps,
                                      dt=self.dt, epsilon=self.epsilon)

    def train_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(batch_size=self.batch_size,
                                   epochs=self.epochs,
                                   learning_rate=self.learning_rate,
                                   seed=self.seed, beta1=self.beta1,
                                   beta2=self.beta2, adam_eps=self.adam_eps)


def _check_type(name: str, value, default) -> None:
    if isinstance(default, tuple):
        if not isinstance(value, tuple):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        for item in value:
            _check_type(f"{name} entries", item, default[0])
    elif isinstance(value, bool) or not isinstance(value, (
            (int, float) if isinstance(default, float) else type(default))):
        raise ConfigError(
            f"{name} must be {type(default).__name__}, got {value!r}")


# bovine protocol: train/validation only, reference in the muscle's saline
BOVINE_DEFAULTS = {"split": (0.75, 0.25, 0.0), "saline_ms_per_m": 341.0}


def resolve_config(args) -> RunConfig:
    """Defaults, then the ``--config`` file, then the flags given, then the
    bovine protocol defaults for keys that none of them set."""
    raw = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise ConfigError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config}: not a JSON object")
        unknown = set(raw) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"{args.config}: unknown keys {sorted(unknown)}")
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            raw[f.name] = getattr(args, f.name)
    if raw.get("model") == "bovine":
        raw = {**BOVINE_DEFAULTS, **raw}
    return RunConfig(**{k: tuple(v) if isinstance(v, list) else v
                        for k, v in raw.items()})


def _layout(args) -> geo.ProbeLayout:
    if getattr(args, "geometry", None):
        return geo.load_layout(args.geometry)
    return geo.build_probe_layout()


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

# the files (glob patterns) each stage writes, in pipeline order
STAGE_OUTPUTS = {
    "generate": ("geometry.txt", "mesh.txt", "reference.frame",
                 "phantoms.csv", "frames.frame", "dataset.bzds",
                 "dataset_manifest.csv"),
    "train": ("model.afua", "training_curve.csv"),
    "quantize": ("sweep.csv", "model_q*.afuaq"),
    "eval": ("confusion.csv",),
}


def _clear_outputs(out: Path, stage: str) -> None:
    """Delete the files of ``stage`` and of every stage after it."""
    stages = list(STAGE_OUTPUTS)
    for later in stages[stages.index(stage):]:
        for pattern in STAGE_OUTPUTS[later]:
            for path in out.glob(pattern):
                path.unlink()


def stage_generate(cfg: RunConfig, layout: geo.ProbeLayout, out: Path):
    """Geometry, mesh, reference, phantoms.csv, frames and the dataset.

    The mesh, its CEM operator and the reference frame are built before
    anything is deleted, so a mesh the probe rejects leaves the run as it
    was."""
    mesh = geo.build_mesh(layout, cfg.mesh_edge_mm)
    ref = fem.reference_frame(mesh, layout, sigma_saline=cfg.saline_ms_per_m,
                              contact_impedance=cfg.contact_impedance_ohm_mm)
    out.mkdir(parents=True, exist_ok=True)
    _clear_outputs(out, "generate")
    geo.save_layout(layout, out / "geometry.txt")
    geo.save_mesh(mesh, out / "mesh.txt")
    fem.save_frames([ref], out / "reference.frame")

    model = cfg.tissue_model()

    def one(i_ph):
        i, p = i_ph
        frame = fem.simulate_frame(
            p, mesh, layout, contact_impedance=cfg.contact_impedance_ohm_mm,
            phantom_id=phm.phantom_id(i))
        return frame, datapipe.normalize(frame, ref, gain=cfg.gain_per_mv,
                                         label=p.label)

    seqs = []

    def frames_keeping_seqs(results):
        # frames stream to the file; only their sequences stay in memory
        for frame, seq in results:
            seqs.append(seq)
            yield frame

    # one pool for synthesis and simulation; map keeps index order
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        phantoms = phm.generate_phantom_set(
            mesh, layout, model, cfg.n_phantoms, seed=cfg.seed,
            rbf=cfg.rbf(), map=pool.map)
        phm.save_phantom_metadata(phantoms, out / "phantoms.csv")
        fem.save_frames(
            frames_keeping_seqs(pool.map(one, enumerate(phantoms))),
            out / "frames.frame")

    datapipe.save_sequences(seqs, out / "dataset.bzds")
    split = datapipe.make_splits(seqs, cfg.split, seed=cfg.seed)
    datapipe.save_split_manifest(split, out / "dataset_manifest.csv")
    n_pos = sum(s.label for s in seqs)
    print(f"generated {len(seqs)} sequences "
          f"({n_pos} positive / {len(seqs) - n_pos} negative); "
          f"splits {len(split.train)}/{len(split.validation)}/{len(split.test)}")


def _load_split(out: Path) -> datapipe.DatasetSplit:
    seqs = datapipe.load_sequences(out / "dataset.bzds")
    manifest = out / "dataset_manifest.csv"
    assignment = datapipe.load_split_assignment(manifest)
    buckets = {"train": [], "validation": [], "test": []}
    for s in seqs:
        if s.provenance not in assignment:
            raise FormatError(f"{manifest}: no split for id {s.provenance!r}")
        if assignment[s.provenance] not in buckets:
            raise FormatError(f"{manifest}: id {s.provenance!r} has unknown "
                              f"split {assignment[s.provenance]!r}")
        buckets[assignment[s.provenance]].append(s)
    return datapipe.DatasetSplit(train=buckets["train"],
                                 validation=buckets["validation"],
                                 test=buckets["test"])


def _heldout(split: datapipe.DatasetSplit):
    """Name and sequences of the held-out split: test, else validation."""
    return (("test", split.test) if split.test
            else ("validation", split.validation))


def _evaluate_and_report(params, seqs, icfg, out: Path, title: str):
    """Evaluate, write confusion.csv and print the accuracy and confusion."""
    acc, confusion = trainer.evaluate(params, seqs, icfg)
    _clear_outputs(out, "eval")
    trainer.save_confusion_csv(acc, confusion, out / "confusion.csv")
    print(f"{title} accuracy {acc:.4f}")
    print(f"confusion (rows true, cols predicted):\n{confusion}")


def stage_train(cfg: RunConfig, out: Path, split: datapipe.DatasetSplit):
    params, report = trainer.train(split, cfg.train_config(),
                                   cfg.integration())
    _clear_outputs(out, "train")
    afua.save_model(params, cfg.integration(), out / "model.afua")
    trainer.save_training_curve(report, out / "training_curve.csv")
    print(f"trained {cfg.epochs} epochs; best epoch {report.best_epoch} "
          f"(validation accuracy {max(report.val_acc):.4f})")
    return params


def stage_quantize(cfg: RunConfig, out: Path, split: datapipe.DatasetSplit,
                   params, icfg):
    _, eval_set = _heldout(split)
    rows = quantizer.sweep(params, eval_set, cfg.bits, icfg)
    _clear_outputs(out, "quantize")
    quantizer.save_sweep_csv(rows, out / "sweep.csv")
    for bits in cfg.bits:
        q = quantizer.quantize(params, bits)
        quantizer.save_quantized_model(q, icfg, out / f"model_q{bits}.afuaq")
    for label, acc in rows:
        print(f"bits {label:>2}: accuracy {acc:.4f}")


def stage_eval(cfg: RunConfig, out: Path, model_path, data_path,
               labels_path=None):
    """Evaluate a (quantized) model on a dataset or a frames file."""
    model_path = Path(model_path)
    if model_path.suffix == ".afuaq":
        params, icfg = quantizer.load_quantized_model(model_path)
    else:
        params, icfg = afua.load_model(model_path)

    data_path = Path(data_path)
    if data_path.suffix == ".bzds":
        seqs = datapipe.load_sequences(data_path)
    else:
        # externally measured frames: normalize against the run's reference
        frames = fem.load_frames(data_path)
        ref = fem.load_frames(out / "reference.frame")[0]
        if labels_path is None:
            raise ConfigError("frames input requires --labels <csv>")
        labels = datapipe.load_labels(labels_path)
        try:
            seqs = [datapipe.normalize(fr, ref, gain=cfg.gain_per_mv,
                                       label=labels[fr.phantom_id])
                    for fr in frames]
        except KeyError as exc:
            raise ConfigError(f"no label for frame id {exc}") from exc

    _evaluate_and_report(params, seqs, icfg, out,
                         f"evaluated {len(seqs)} sequences:")


def stage_eval_heldout(cfg: RunConfig, out: Path,
                       split: datapipe.DatasetSplit, params, icfg):
    """Evaluate the trained model on the run's held-out split."""
    which, eval_set = _heldout(split)
    _evaluate_and_report(params, eval_set, icfg, out, f"held-out ({which})")
    if which == "validation":
        print("note: the validation split also selected the best epoch, "
              "so this accuracy is biased upward")


def stage_budget(out: Path | None, as_json: bool):
    result = analog.hardware_budget()
    if as_json:
        text = json.dumps(asdict(result), indent=2)
    else:
        text = analog.budget_table()
    print(text)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        name = "budget.json" if as_json else "budget.txt"
        with open(out / name, "w", encoding="ascii") as f:
            f.write(text + "\n")
    return result


def write_manifest(out: Path) -> Path:
    """SHA-256 of every output file (except the manifest itself)."""
    entries = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            # in blocks: frames.frame alone is 17 MB at 1500 phantoms
            digest = hashlib.sha256()
            with open(path, "rb") as f:
                while block := f.read(1 << 20):
                    digest.update(block)
            entries[str(path.relative_to(out))] = digest.hexdigest()
    manifest = out / "manifest.json"
    with open(manifest, "w", encoding="ascii") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def _comma_list(kind):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a list of {kind.__name__}") from None
    return parse


# stage flags: flag -> (RunConfig field, type, help); pipeline takes them all
STAGE_FLAGS = {
    "--n": ("n_phantoms", int, "number of phantoms"),
    "--mesh-edge": ("mesh_edge_mm", float, "mesh edge length (mm)"),
    "--gain": ("gain_per_mv", float, "preprocessing gain per mV"),
    "--saline": ("saline_ms_per_m", float,
                 "reference saline conductivity (mS/m)"),
    "--split": ("split", _comma_list(float), "train,val,test fractions"),
    "--epochs": ("epochs", int, "training epochs"),
    "--bits": ("bits", _comma_list(int), "comma-separated bit widths"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biozpipe",
        description="bioimpedance tissue-classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, summary, flags):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--out", help="run directory")
        p.add_argument("--threads", type=int, help="worker cap")
        p.add_argument("--geometry", help="probe layout file override")
        p.add_argument("--model", choices=sorted(phm.TISSUE_MODELS),
                       help="tissue model")
        for flag in flags:
            dest, kind, text = STAGE_FLAGS[flag]
            p.add_argument(flag, dest=dest, type=kind, help=text)
        return p

    stage("generate", "phantoms, frames, dataset",
          ("--n", "--mesh-edge", "--gain", "--saline", "--split"))
    stage("train", "train the full-precision model", ("--epochs",))
    stage("quantize", "bit-width accuracy sweep", ("--bits",))
    p_eval = stage("eval", "evaluate a model on data", ("--gain",))
    p_eval.add_argument("--model-file", required=True, dest="model_file",
                        help=".afua or .afuaq model")
    p_eval.add_argument("--data", required=True,
                        help=".bzds dataset or frames file")
    p_eval.add_argument("--labels", help="CSV (id,label) for frames input")

    p_budget = sub.add_parser("budget", help="hardware power/area budget")
    p_budget.add_argument("--json", action="store_true", dest="as_json")
    p_budget.add_argument("--out")

    stage("pipeline", "generate + train + quantize + eval + budget",
          tuple(STAGE_FLAGS))
    return parser


def run_command(args) -> int:
    if args.command == "budget":
        stage_budget(Path(args.out) if args.out else None, args.as_json)
        return 0

    cfg = resolve_config(args)
    out = Path(cfg.out)
    layout = _layout(args)

    if args.command == "generate":
        stage_generate(cfg, layout, out)
    elif args.command == "train":
        stage_train(cfg, out, _load_split(out))
    elif args.command == "quantize":
        params, icfg = afua.load_model(out / "model.afua")
        stage_quantize(cfg, out, _load_split(out), params, icfg)
    elif args.command == "eval":
        stage_eval(cfg, out, args.model_file, args.data, args.labels)
    elif args.command == "pipeline":
        stage_generate(cfg, layout, out)
        split = _load_split(out)
        params = stage_train(cfg, out, split)
        stage_quantize(cfg, out, split, params, cfg.integration())
        stage_eval_heldout(cfg, out, split, params, cfg.integration())
        stage_budget(out, as_json=False)
    write_manifest(out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    stage = args.command
    try:
        return run_command(args)
    except ConfigError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, SolverError, MeshError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FormatError, OSError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_IO
    except BiozError as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
