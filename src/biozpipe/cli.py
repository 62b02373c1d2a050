"""Command-line entry point chaining the full pipeline.

Subcommands: generate, train, quantize, eval, budget, and pipeline (the
end-to-end chain).  All outputs land under the run directory together with
a manifest of file hashes; re-running with the same configuration must
reproduce every hash.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure,
4 I/O or file-format failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

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
    """Complete pipeline configuration; unknown keys in files are rejected."""

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


# bovine protocol defaults: train/validation only
BOVINE_SPLIT = (0.75, 0.25, 0.0)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(raw, source=str(path))


def config_from_dict(raw: dict, source: str = "config") -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
    if "split" in raw:
        raw["split"] = tuple(raw["split"])
    if "bits" in raw:
        raw["bits"] = tuple(int(b) for b in raw["bits"])
    cfg = RunConfig(**raw)
    if cfg.n_phantoms < 1:
        raise ConfigError("n_phantoms must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    return cfg


def _config_with_overrides(args) -> RunConfig:
    split_was_set = bool(getattr(args, "split", None))
    if args.config:
        cfg = load_config(args.config)
        with open(args.config, "r", encoding="utf-8") as f:
            split_was_set = split_was_set or "split" in json.load(f)
    else:
        cfg = RunConfig()
    overrides = {}
    for key in ("model", "seed", "out", "threads", "gain_per_mv",
                "n_phantoms", "epochs", "mesh_edge_mm", "saline_ms_per_m"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "bits", None):
        overrides["bits"] = tuple(int(b) for b in args.bits.split(","))
    if split_was_set and getattr(args, "split", None):
        overrides["split"] = tuple(float(v) for v in args.split.split(","))
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.model == "bovine" and not split_was_set:
        # bovine protocol trains/validates only; no held-out test set
        cfg = replace(cfg, split=BOVINE_SPLIT)
    if cfg.model == "bovine" and "saline_ms_per_m" not in overrides \
            and cfg.saline_ms_per_m == RunConfig.saline_ms_per_m:
        cfg = replace(cfg, saline_ms_per_m=341.0)
    return config_from_dict({k: (list(v) if isinstance(v, tuple) else v)
                             for k, v in asdict(cfg).items()})


def _layout(args) -> geo.ProbeLayout:
    if getattr(args, "geometry", None):
        return geo.load_layout(args.geometry)
    return geo.build_probe_layout()


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_generate(cfg: RunConfig, layout: geo.ProbeLayout, out: Path):
    """Phantoms, frames, reference frame, and the normalized dataset."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "phantoms").mkdir(exist_ok=True)
    (out / "frames").mkdir(exist_ok=True)

    geo.save_layout(layout, out / "geometry.txt")
    mesh = geo.build_mesh(layout, cfg.mesh_edge_mm)
    geo.save_mesh(mesh, out / "mesh.txt")

    model = cfg.tissue_model()
    ref = fem.reference_frame(mesh, layout, sigma_saline=cfg.saline_ms_per_m,
                              contact_impedance=cfg.contact_impedance_ohm_mm)
    fem.save_frames([ref], out / "reference.frame")

    def one(i_ph):
        i, p = i_ph
        pid = phm.phantom_id(i)
        phm.save_conductivity(p.element_sigma, out / "phantoms" / f"{pid}.cond")
        frame = fem.simulate_frame(
            p, mesh, layout, contact_impedance=cfg.contact_impedance_ohm_mm,
            phantom_id=pid)
        fem.save_frames([frame], out / "frames" / f"{pid}.frame")
        return datapipe.normalize(frame, ref, gain=cfg.gain_per_mv,
                                  label=p.label)

    # one pool for synthesis and simulation; map keeps index order
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        phantoms = phm.generate_phantom_set(
            mesh, layout, model, cfg.n_phantoms, seed=cfg.seed,
            rbf=cfg.rbf(), map=pool.map)
        phm.save_phantom_metadata(phantoms, out / "phantoms.csv")
        seqs = list(pool.map(one, enumerate(phantoms)))

    datapipe.save_sequences(seqs, out / "dataset.bzds")
    split = datapipe.make_splits(seqs, cfg.split, seed=cfg.seed)
    datapipe.save_split_manifest(split, out / "dataset_manifest.csv")
    n_pos = sum(s.label for s in seqs)
    print(f"generated {len(seqs)} sequences "
          f"({n_pos} positive / {len(seqs) - n_pos} negative); "
          f"splits {len(split.train)}/{len(split.validation)}/{len(split.test)}")
    return split


def _load_split(out: Path) -> datapipe.DatasetSplit:
    seqs = datapipe.load_sequences(out / "dataset.bzds")
    assignment = datapipe.load_split_assignment(out / "dataset_manifest.csv")
    buckets = {"train": [], "validation": [], "test": []}
    for s in seqs:
        buckets[assignment[s.provenance]].append(s)
    return datapipe.DatasetSplit(train=buckets["train"],
                                 validation=buckets["validation"],
                                 test=buckets["test"], split_seed=-1)


def stage_train(cfg: RunConfig, out: Path):
    split = _load_split(out)
    params, report = trainer.train(split, cfg.train_config(),
                                   cfg.integration())
    afua.save_model(params, cfg.integration(), out / "model.afua")
    trainer.save_training_curve(report, out / "training_curve.csv")
    print(f"trained {cfg.epochs} epochs; best epoch {report.best_epoch} "
          f"(validation accuracy {max(report.val_acc):.4f})")
    return params


def stage_quantize(cfg: RunConfig, out: Path):
    params, icfg = afua.load_model(out / "model.afua")
    split = _load_split(out)
    eval_set = split.test if split.test else split.validation
    rows = quantizer.sweep(params, eval_set, cfg.bits, icfg)
    quantizer.save_sweep_csv(rows, out / "sweep.csv")
    for bits in cfg.bits:
        q = quantizer.quantize(params, bits)
        quantizer.save_quantized_model(q, icfg, out / f"model_q{bits}.afuaq")
    for label, acc in rows:
        print(f"bits {label:>2}: accuracy {acc:.4f}")
    return rows


def stage_eval(cfg: RunConfig, out: Path, model_path, data_path,
               labels_path=None):
    """Evaluate a (quantized) model on a dataset or a frames file."""
    model_path = Path(model_path)
    if model_path.suffix == ".afuaq":
        qparams, icfg = quantizer.load_quantized_model(model_path)
        params = qparams.dequantize()
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
        labels = {}
        with open(labels_path, "r", newline="", encoding="ascii") as f:
            for row in csv.DictReader(f):
                labels[row["id"]] = int(row["label"])
        try:
            seqs = [datapipe.normalize(fr, ref, gain=cfg.gain_per_mv,
                                       label=labels[fr.phantom_id])
                    for fr in frames]
        except KeyError as exc:
            raise ConfigError(f"no label for frame id {exc}") from exc

    acc, confusion = trainer.evaluate(params, seqs, icfg)
    trainer.save_confusion_csv(acc, confusion, out / "confusion.csv")
    print(f"evaluated {len(seqs)} sequences: accuracy {acc:.4f}")
    print(f"confusion (rows true, cols predicted):\n{confusion}")
    return acc, confusion


def stage_eval_heldout(cfg: RunConfig, out: Path):
    """Evaluate the trained model on the run's held-out split."""
    params, icfg = afua.load_model(out / "model.afua")
    split = _load_split(out)
    eval_set = split.test if split.test else split.validation
    acc, confusion = trainer.evaluate(params, eval_set, icfg)
    trainer.save_confusion_csv(acc, confusion, out / "confusion.csv")
    which = "test" if split.test else "validation"
    print(f"held-out ({which}) accuracy {acc:.4f}")
    print(f"confusion (rows true, cols predicted):\n{confusion}")
    return acc, confusion


def stage_budget(out: Path | None, as_json: bool):
    result = analog.hardware_budget()
    if as_json:
        payload = {"chip_area_mm2": result.chip_area_mm2,
                   "array_area_mm2": result.array_area_mm2,
                   "power_mw": result.power_mw,
                   "supply_current_ma": result.supply_current_ma}
        text = json.dumps(payload, indent=2)
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
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries[str(path.relative_to(out))] = digest
    manifest = out / "manifest.json"
    with open(manifest, "w", encoding="ascii") as f:
        json.dump(entries, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biozpipe",
        description="bioimpedance tissue-classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="master random seed")
        p.add_argument("--out", help="run directory")
        p.add_argument("--threads", type=int, help="worker cap")
        p.add_argument("--geometry", help="probe layout file override")
        p.add_argument("--model", choices=sorted(phm.TISSUE_MODELS),
                       help="tissue model")

    p_gen = sub.add_parser("generate", help="phantoms, frames, dataset")
    common(p_gen)
    p_gen.add_argument("--n", dest="n_phantoms", type=int,
                       help="number of phantoms")
    p_gen.add_argument("--mesh-edge", dest="mesh_edge_mm", type=float)
    p_gen.add_argument("--gain", dest="gain_per_mv", type=float)
    p_gen.add_argument("--saline", dest="saline_ms_per_m", type=float)
    p_gen.add_argument("--split", help="train,val,test fractions")

    p_train = sub.add_parser("train", help="train the full-precision model")
    common(p_train)
    p_train.add_argument("--epochs", type=int)

    p_quant = sub.add_parser("quantize", help="bit-width accuracy sweep")
    common(p_quant)
    p_quant.add_argument("--bits", help="comma-separated bit widths")

    p_eval = sub.add_parser("eval", help="evaluate a model on data")
    common(p_eval)
    p_eval.add_argument("--model-file", required=True, dest="model_file",
                        help=".afua or .afuaq model")
    p_eval.add_argument("--data", required=True,
                        help=".bzds dataset or frames file")
    p_eval.add_argument("--labels", help="CSV (id,label) for frames input")
    p_eval.add_argument("--gain", dest="gain_per_mv", type=float)

    p_budget = sub.add_parser("budget", help="hardware power/area budget")
    p_budget.add_argument("--json", action="store_true", dest="as_json")
    p_budget.add_argument("--out")

    p_pipe = sub.add_parser("pipeline",
                            help="generate + train + quantize + eval + budget")
    common(p_pipe)
    p_pipe.add_argument("--n", dest="n_phantoms", type=int)
    p_pipe.add_argument("--epochs", type=int)
    p_pipe.add_argument("--mesh-edge", dest="mesh_edge_mm", type=float)
    p_pipe.add_argument("--gain", dest="gain_per_mv", type=float)
    p_pipe.add_argument("--saline", dest="saline_ms_per_m", type=float)
    p_pipe.add_argument("--split", help="train,val,test fractions")
    p_pipe.add_argument("--bits", help="comma-separated bit widths")
    return parser


def run_command(args) -> int:
    if args.command == "budget":
        stage_budget(Path(args.out) if args.out else None, args.as_json)
        return 0

    cfg = _config_with_overrides(args)
    out = Path(cfg.out)
    layout = _layout(args)

    if args.command == "generate":
        stage_generate(cfg, layout, out)
        write_manifest(out)
    elif args.command == "train":
        stage_train(cfg, out)
        write_manifest(out)
    elif args.command == "quantize":
        stage_quantize(cfg, out)
        write_manifest(out)
    elif args.command == "eval":
        stage_eval(cfg, out, args.model_file, args.data, args.labels)
        write_manifest(out)
    elif args.command == "pipeline":
        stage_generate(cfg, layout, out)
        stage_train(cfg, out)
        stage_quantize(cfg, out)
        stage_eval_heldout(cfg, out)
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
