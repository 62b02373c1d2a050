"""Command-line entry point chaining the full pipeline.

Subcommands: the stage commands generate, train, quantize, eval and budget,
and pipeline, which runs them in that order, eval on the held-out split.
Each stage reads its inputs from the run directory, so a pipeline run
writes what ``generate; train; quantize`` write.  All outputs land under
the run directory together with a manifest of file hashes; re-running with
the same configuration must reproduce every hash.  Files of a run
directory, by the stage that writes them; every command also rewrites
manifest.json (budget when given --out):

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

Only generate and pipeline load SciPy, at their first FEM operator build
(``fem`` imports it inside its solver functions): train, quantize, eval
and budget start without it.

The run configuration (``RunConfig``) is resolved once, in this order: the
defaults, then the ``--config`` JSON file, then the flags given, then the
bovine protocol's split (``BOVINE_DEFAULTS``) unless one of those set it.
It is checked in full, types included, before any stage touches the run
directory, so a configuration fault exits 2 and leaves a finished run as it
was.  The probe's gain, contact impedance, texture centre count and
reference saline are ``RunConfig`` constants: no flag or config key sets
them.

Before it writes, each stage deletes the files that it and every later
stage of that list write (``STAGE_OUTPUTS``), so a run directory never
mixes the outputs of two configurations.  The budget files depend on no
run input and are left in place.  The stage deletes manifest.json too, so
a command that fails after it began writing leaves no manifest.

Exit codes: 0 success, else the ``exit_code`` that ``errors`` gives the
class of the error raised, and 4 for an OSError.  Exit 4 covers any
malformed model, quantized model, dataset or frames file, an eval --data
file that holds no record and an eval --labels file that lacks a frame's
id.  generate exits 3 when every normalized step of the run is equal, so
the frames carry no signal against the reference (a zero gain would do
this); it leaves geometry.txt through frames.frame and writes no
dataset.bzds or dataset_manifest.csv.  The
error message names the stage that failed (``error [train]: ...``), also
inside pipeline; a configuration fault, found before any stage runs,
names the command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

from . import afua, analog, datapipe, fem, quantizer, trainer
from . import geometry as geo
from . import phantom as phm
from .errors import BiozError, ConfigError, FormatError, NumericalError

# upper bounds on the sizes a run commits, sized at the defaults (h = 0.14
# mm, 3200 triangles; batch 100).  epochs needs none: an epoch commits only
# time and four floats of the curve, and train writes nothing until it ends,
# so stopping a long run leaves the run directory as it was.
MAX_SIZES = {
    # each phantom's conductivities (3200 x 16 B = 51 KB) stay in memory
    # through generate: 0.5 GB at 10 000, 6.7x the paper's 1500
    "n_phantoms": 10_000,
    # each pool thread holds one phantom in flight, about 4 MB (synthesis,
    # solve and its LU factor); threads beyond the cores only queue
    "threads": 32,
    # a training batch keeps 28 x 10 substeps records of 640 B, 179 KB, per
    # sequence: 179 MB at 1 000, 10x the default.  The float64 split arrays
    # add 5.6 KB per train and validation sequence: 42 MB at 10 000 phantoms
    "batch_size": 1_000,
}


@dataclass(frozen=True)
class RunConfig:
    """Complete pipeline configuration, checked in full when it is built:
    each value has its default's type (an int passes for a float, a bool
    for nothing), and ``rbf()`` and ``tissue_model()``, which build anew on
    each call, run once, so their checks pass before any stage writes a
    file.  The class constants, the same in every run, are not fields."""

    # the probe's front end, and the texture's centre count
    gain_per_mv: ClassVar[float] = 0.05
    contact_impedance_ohm_mm: ClassVar[float] = 10.0
    rbf_centers: ClassVar[int] = 1300

    model: str = "prostate"
    n_phantoms: int = 1500
    seed: int = 7
    mesh_edge_mm: float = 0.14
    # the texture's effective sheet noise (RbfNoiseConfig): the 10%
    # volumetric heterogeneity depth-averages over the 5 mm slice to ~2.3%
    # at the default correlation length
    noise_rel_std: float = 0.023
    rbf_width_mm: float = 0.15
    split: tuple[float, float, float] = (0.5623, 0.1876, 0.2501)
    batch_size: int = 100
    epochs: int = 500
    learning_rate: float = 1e-3
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
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive and finite")
        for name, most in MAX_SIZES.items():
            if getattr(self, name) > most:
                raise ConfigError(f"{name} {getattr(self, name)} exceeds "
                                  f"its bound {most}")
        geo.check_mesh_edge(self.mesh_edge_mm)
        self.tissue_model()
        try:
            self.rbf()
        except ConfigError as exc:
            raise ConfigError(f"noise_rel_std, rbf_width_mm: {exc}") from exc
        try:
            datapipe.split_counts(self.n_phantoms, self.split)
        except ConfigError as exc:
            raise ConfigError(f"split: {exc}") from exc
        for b in self.bits:
            try:
                quantizer.check_bits(b)
            except ConfigError as exc:
                raise ConfigError(f"bits: {exc}") from exc
        if len(set(self.bits)) < len(self.bits):
            raise ConfigError(f"bits: repeated bit width in {list(self.bits)}")

    def check_trainable(self) -> None:
        """Raise ConfigError unless the split leaves train and validation
        phantoms: a dataset that ``generate`` alone writes, for ``eval``,
        may lack them, but one that is trained on may not."""
        counts = datapipe.split_counts(self.n_phantoms, self.split)
        if not counts[0] or not counts[1]:
            raise ConfigError(
                f"n_phantoms {self.n_phantoms} splits into {counts[0]} "
                f"train and {counts[1]} validation phantoms; training "
                "needs at least one of each")

    def tissue_model(self) -> phm.TissueModel:
        if self.model not in phm.TISSUE_MODELS:
            raise ConfigError(
                f"unknown tissue model {self.model!r}; "
                f"choose from {sorted(phm.TISSUE_MODELS)}"
            )
        return phm.TISSUE_MODELS[self.model]

    @property
    def saline_ms_per_m(self) -> float:
        """The reference bath: the tissue's background conductivity."""
        return self.tissue_model().sigma_background.real

    def rbf(self) -> phm.RbfNoiseConfig:
        return phm.RbfNoiseConfig(n_centers=self.rbf_centers,
                                  kernel_width=self.rbf_width_mm,
                                  noise_rel_std=self.noise_rel_std)

    def integration(self) -> afua.IntegrationConfig:
        return afua.IntegrationConfig()


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
    elif isinstance(default, float) and not abs(value) <= sys.float_info.max:
        # NaN, an infinity, or an int too large to convert
        raise ConfigError(f"{name} must be finite, got {value!r}")


# bovine protocol: train/validation only
BOVINE_DEFAULTS = {"split": (0.75, 0.25, 0.0)}


def resolve_config(args) -> RunConfig:
    """Defaults, then the ``--config`` file, then the flags given, then the
    bovine protocol's split unless one of them set it."""
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
    """Delete the files of ``stage`` and of every stage after it, and the
    manifest, which names them."""
    (out / "manifest.json").unlink(missing_ok=True)
    stages = list(STAGE_OUTPUTS)
    for later in stages[stages.index(stage):]:
        for pattern in STAGE_OUTPUTS[later]:
            for path in out.glob(pattern):
                path.unlink()


def stage_generate(cfg: RunConfig, out: Path):
    """Geometry, mesh, reference, phantoms.csv, frames and the dataset.

    The mesh, its CEM operator and the reference frame are built before
    anything is deleted, so a mesh the probe rejects leaves the run as it
    was, and before the pool starts, so SciPy is imported on this thread
    before any pool thread solves.  Raises NumericalError before it writes
    the dataset when every normalized step of the run is equal."""
    from concurrent.futures import ThreadPoolExecutor
    layout = geo.build_probe_layout()
    mesh = geo.build_mesh(layout, cfg.mesh_edge_mm)
    ref = fem.reference_frame(mesh, layout, sigma_saline=cfg.saline_ms_per_m,
                              contact_impedance=cfg.contact_impedance_ohm_mm)
    out.mkdir(parents=True, exist_ok=True)
    _clear_outputs(out, "generate")
    geo.save_layout(layout, out / "geometry.txt")
    geo.save_mesh(mesh, out / "mesh.txt")
    datapipe.save_frames([ref], out / "reference.frame")

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
        datapipe.save_phantom_metadata(phantoms, out / "phantoms.csv")
        datapipe.save_frames(
            frames_keeping_seqs(pool.map(one, enumerate(phantoms))),
            out / "frames.frame")

    first = seqs[0].steps.flat[0]
    if all((s.steps == first).all() for s in seqs):
        raise NumericalError(
            f"every normalized step is {float(first):.8g}: the frames carry "
            "no signal against the reference in saline of "
            f"{cfg.saline_ms_per_m!r} mS/m at gain {cfg.gain_per_mv!r} per mV")
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
    buckets = {name: [] for name in datapipe.SPLITS}
    for s in seqs:
        if s.provenance not in assignment:
            raise FormatError(f"{manifest}: no split for id {s.provenance!r}")
        buckets[assignment[s.provenance]].append(s)
    # every record has a split, so a longer manifest names an id that the
    # dataset lacks
    if len(assignment) > len(seqs):
        ids = {s.provenance for s in seqs}
        missing = next(i for i in assignment if i not in ids)
        raise FormatError(f"{manifest}: id {missing!r} is not in "
                          f"{out / 'dataset.bzds'}")
    return datapipe.DatasetSplit(**buckets)


def _heldout(split: datapipe.DatasetSplit):
    """Name and sequences of the held-out split: test, else validation."""
    return (("test", split.test) if split.test
            else ("validation", split.validation))


def _evaluate_and_report(params, seqs, icfg, out: Path, title: str):
    """Evaluate, write confusion.csv and print the accuracy and confusion."""
    out.mkdir(parents=True, exist_ok=True)
    acc, confusion = trainer.evaluate(params, seqs, icfg)
    _clear_outputs(out, "eval")
    trainer.save_confusion_csv(acc, confusion, out / "confusion.csv")
    print(f"{title} accuracy {acc:.4f}")
    print(f"confusion (rows true, cols predicted):\n{confusion}")


def stage_train(cfg: RunConfig, out: Path):
    params, report = trainer.train(_load_split(out), cfg.batch_size,
                                   cfg.epochs, cfg.learning_rate, cfg.seed,
                                   cfg.integration())
    _clear_outputs(out, "train")
    afua.write_model_file(out / "model.afua", cfg.integration(), params)
    trainer.save_training_curve(report, out / "training_curve.csv")
    print(f"trained {cfg.epochs} epochs; best epoch {report.best_epoch} "
          f"(validation accuracy {max(report.val_acc):.4f})")


def stage_quantize(cfg: RunConfig, out: Path):
    params, icfg = afua.load_model(out / "model.afua")
    _, eval_set = _heldout(_load_split(out))
    models = [quantizer.quantize(params, b) for b in cfg.bits]
    rows = quantizer.sweep(params, models, eval_set, icfg)
    _clear_outputs(out, "quantize")
    quantizer.save_sweep_csv(rows, out / "sweep.csv")
    for q in models:
        afua.write_model_file(out / f"model_q{q.total_bits}.afuaq", icfg, q)
    for label, acc in rows:
        print(f"bits {label:>2}: accuracy {acc:.4f}")


def stage_eval(cfg: RunConfig, out: Path, model_path, data_path,
               labels_path=None):
    """Evaluate a (quantized) model on a dataset or a frames file."""
    model_path, data_path = Path(model_path), Path(data_path)
    if data_path.suffix != ".bzds" and labels_path is None:
        raise ConfigError("frames input requires --labels <csv>")
    if model_path.suffix == ".afuaq":
        params, icfg = quantizer.load_quantized_model(model_path)
    else:
        params, icfg = afua.load_model(model_path)

    if data_path.suffix == ".bzds":
        seqs = datapipe.load_sequences(data_path)
    else:
        # externally measured frames: normalize against the run's reference
        frames = datapipe.load_frames(data_path)
        refs = datapipe.load_frames(out / "reference.frame")
        if not refs:
            raise FormatError(f"{out / 'reference.frame'}: holds no frame")
        ref = refs[0]
        labels = datapipe.load_labels(labels_path)
        try:
            seqs = [datapipe.normalize(fr, ref, gain=cfg.gain_per_mv,
                                       label=labels[fr.phantom_id])
                    for fr in frames]
        except KeyError as exc:
            raise FormatError(
                f"{labels_path}: no label for frame id {exc}") from exc
    if not seqs:
        raise FormatError(f"{data_path}: holds no record")

    _evaluate_and_report(params, seqs, icfg, out,
                         f"evaluated {len(seqs)} sequences:")


def stage_eval_heldout(cfg: RunConfig, out: Path):
    """Evaluate the run's model.afua on the run's held-out split."""
    params, icfg = afua.load_model(out / "model.afua")
    which, eval_set = _heldout(_load_split(out))
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


# stage flags: flag -> (destination, type, help); pipeline takes them all
STAGE_FLAGS = {
    "--n": ("n_phantoms", int, "number of phantoms"),
    "--mesh-edge": ("mesh_edge_mm", float, "mesh edge length (mm)"),
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
        p.add_argument("--model", choices=sorted(phm.TISSUE_MODELS),
                       help="tissue model")
        for flag in flags:
            dest, kind, text = STAGE_FLAGS[flag]
            p.add_argument(flag, dest=dest, type=kind, help=text)
        return p

    stage("generate", "phantoms, frames, dataset",
          ("--n", "--mesh-edge", "--split"))
    stage("train", "train the full-precision model", ("--epochs",))
    stage("quantize", "bit-width accuracy sweep", ("--bits",))
    p_eval = stage("eval", "evaluate a model on data", ())
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


# the stage commands that pipeline runs, in order
PIPELINE = ("generate", "train", "quantize", "eval", "budget")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    stage = args.command
    try:
        if stage == "budget":
            out = Path(args.out) if args.out else None
        else:
            cfg = resolve_config(args)
            out = Path(cfg.out)
        if stage == "pipeline":
            cfg.check_trainable()
        # each stage function is looked up by name as it runs, so a wrapper
        # set on this module (a test's fake, a tracer) is the one called
        for stage in PIPELINE if args.command == "pipeline" else (stage,):
            if stage == "generate":
                stage_generate(cfg, out)
            elif stage == "train":
                stage_train(cfg, out)
            elif stage == "quantize":
                stage_quantize(cfg, out)
            elif stage == "eval" and args.command == "eval":
                stage_eval(cfg, out, args.model_file, args.data, args.labels)
            elif stage == "eval":
                stage_eval_heldout(cfg, out)
            else:
                stage_budget(out, getattr(args, "as_json", False))
        stage = args.command
        if out is not None:
            write_manifest(out)
        return 0
    except (BiozError, OSError) as exc:
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", FormatError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
