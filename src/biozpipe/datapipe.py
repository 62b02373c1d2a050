"""Frame preprocessing, dataset assembly, splits, and persistence.

Preprocessing squashes the magnitude difference against the reference frame
through tanh: x = tanh(gain * (|V_meas| - |V_ref|)), magnitudes in mV.
Sequences are stored as float32 (the on-disk precision) with values clamped
strictly inside (-1, 1) at the float32 boundary.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .fem import Frame
from .geometry import N_INNER as N_INPUTS, N_PATTERNS as N_STEPS

_ONE_MINUS = np.nextafter(np.float32(1.0), np.float32(0.0))


@dataclass(frozen=True)
class InputSequence:
    """One normalized frame: 28 steps of 25 values in (-1, 1), plus label."""

    steps: np.ndarray  # (28, 25) float32
    label: int
    provenance: str

    def __post_init__(self):
        if self.steps.shape != (N_STEPS, N_INPUTS):
            raise ConfigError(
                f"sequence shape {self.steps.shape} != ({N_STEPS}, {N_INPUTS})"
            )
        if self.label not in (0, 1):
            raise ConfigError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class DatasetSplit:
    train: list[InputSequence]
    validation: list[InputSequence]
    test: list[InputSequence]


def normalize(meas: Frame, ref: Frame, gain: float = 1.0,
              label: int = 0) -> InputSequence:
    """Apply the tanh magnitude-difference preprocessing to one frame."""
    x = np.tanh(gain * (np.abs(meas.voltages) - np.abs(ref.voltages)))
    x = np.clip(x.astype(np.float32), -_ONE_MINUS, _ONE_MINUS)
    return InputSequence(steps=x, label=label, provenance=meas.phantom_id)


def split_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Partition sizes by the largest-remainder rule.

    Each split gets the floor of its share; leftover items go to the splits
    with the largest fractional parts (ties resolved in train/val/test
    order).  This reproduces published counts such as 4265 -> (2398, 800,
    1067) at fractions (0.5623, 0.1876, 0.2501).
    """
    if len(fractions) != 3:
        raise ConfigError(f"need 3 fractions (train, validation, test), "
                          f"got {len(fractions)}")
    if any(f < 0 for f in fractions) or fractions[0] <= 0 or fractions[1] <= 0:
        raise ConfigError("train and validation fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)}")
    shares = [f * n for f in fractions]
    counts = [int(np.floor(s)) for s in shares]
    leftover = n - sum(counts)
    order = sorted(range(3), key=lambda i: (-(shares[i] - counts[i]), i))
    for k in range(leftover):
        counts[order[k % 3]] += 1
    return tuple(counts)


def make_splits(sequences: list[InputSequence],
                fractions: tuple[float, float, float],
                seed: int) -> DatasetSplit:
    """Deterministic shuffle by seed, then contiguous partition."""
    if not sequences:
        raise ConfigError("cannot split an empty sequence list")
    n = len(sequences)
    n_train, n_val, n_test = split_counts(n, fractions)
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [sequences[i] for i in perm]
    return DatasetSplit(
        train=shuffled[:n_train],
        validation=shuffled[n_train:n_train + n_val],
        test=shuffled[n_train + n_val:],
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_DS_MAGIC = b"BZDS"
_DS_VERSION = 1


def save_sequences(sequences: list[InputSequence], path) -> None:
    """Binary dataset: per record, length-prefixed id, label byte, 700 f32."""
    with open(path, "wb") as f:
        f.write(_DS_MAGIC)
        f.write(struct.pack("<III", _DS_VERSION, len(sequences), N_STEPS * N_INPUTS))
        for seq in sequences:
            pid = seq.provenance.encode("utf-8")
            f.write(struct.pack("<HB", len(pid), seq.label))
            f.write(pid)
            f.write(seq.steps.astype("<f4").tobytes())


def load_sequences(path) -> list[InputSequence]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != _DS_MAGIC:
        raise FormatError(f"{path}: not a biozpipe dataset file")
    try:
        version, count, width = struct.unpack_from("<III", data, 4)
        if version != _DS_VERSION:
            raise FormatError(f"{path}: unsupported dataset version {version}")
        if width != N_STEPS * N_INPUTS:
            raise FormatError(f"{path}: unexpected record width {width}")
        pos = 16
        out = []
        for _ in range(count):
            id_len, label = struct.unpack_from("<HB", data, pos)
            pos += 3
            pid = data[pos:pos + id_len].decode("utf-8")
            pos += id_len
            steps = np.frombuffer(data, dtype="<f4", count=width,
                                  offset=pos).reshape(N_STEPS, N_INPUTS).copy()
            pos += 4 * width
            if not np.all(np.abs(steps) < 1):
                raise FormatError(f"{path}: {pid!r} is not inside (-1, 1)")
            out.append(InputSequence(steps=steps, label=int(label),
                                     provenance=pid))
    except (struct.error, ValueError, ConfigError) as exc:
        # truncated records, a non-UTF-8 id or a label other than 0 or 1
        raise FormatError(f"{path}: malformed dataset: {exc}") from exc
    if pos != len(data):
        raise FormatError(f"{path}: trailing bytes after {count} records")
    return out


def save_split_manifest(split: DatasetSplit, path) -> None:
    """CSV listing (id, split, label) for every sequence."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["id", "split", "label"])
        for name, seqs in (("train", split.train),
                           ("validation", split.validation),
                           ("test", split.test)):
            for seq in seqs:
                w.writerow([seq.provenance, name, seq.label])


def load_split_assignment(path) -> dict[str, str]:
    out = {}
    try:
        with open(path, "r", newline="", encoding="ascii") as f:
            reader = csv.DictReader(f)
            if not {"id", "split"} <= set(reader.fieldnames or ()):
                raise FormatError(f"{path}: needs the columns id and split")
            for row in reader:
                out[row["id"]] = row["split"]
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII: {exc}") from exc
    return out


def load_labels(path) -> dict[str, int]:
    """Labels of externally measured frames: CSV with columns id and label."""
    labels = {}
    try:
        with open(path, "r", newline="", encoding="ascii") as f:
            for row in csv.DictReader(f):
                label = (row.get("label") or "").strip()
                if row.get("id") is None or label not in ("0", "1"):
                    raise FormatError(f"{path}: row {row} needs an id and a "
                                      "label of 0 or 1")
                labels[row["id"]] = int(label)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII: {exc}") from exc
    return labels
