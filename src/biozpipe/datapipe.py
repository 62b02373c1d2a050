"""Frame preprocessing, dataset assembly, splits, and persistence.

Preprocessing squashes the magnitude difference against the reference frame
through tanh: x = tanh(gain * (|V_meas| - |V_ref|)), magnitudes in mV.
Sequences are stored as float32 (the on-disk precision) with values clamped
strictly inside (-1, 1) at the float32 boundary.

An ``InputSequence`` is array-like: ``np.asarray`` of one is its steps.

Both binary run files, the dataset and the frames file of ``fem.Frame``
records, are written and read here, and both readers decode a record's id
by one rule, ``_record_id``.

Every CSV file of a run, phantoms.csv included, has one writer, ``write_csv``,
and one id-column reader reads the split manifest and the labels file.  All
four id readers (dataset, frames, split manifest, labels) reject an id listed
twice with a FormatError naming the file and the id.
"""

from __future__ import annotations

import csv
import struct
from collections.abc import Iterable
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError
from .fem import Frame
from .geometry import N_INNER as N_INPUTS, N_PATTERNS as N_STEPS
from .phantom import Phantom

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

    def __array__(self, dtype=None, copy=None):
        return np.array(self.steps, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class DatasetSplit:
    train: list[InputSequence]
    validation: list[InputSequence]
    test: list[InputSequence]


# the split names, in manifest order
SPLITS = tuple(f.name for f in fields(DatasetSplit))


def normalize(meas: Frame, ref: Frame, gain: float,
              label: int) -> InputSequence:
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
_FRAME_MAGIC = b"BZFR"
_FRAME_VERSION = 1


def _record_id(path, data: bytes, pos: int, length: int, seen: set) -> str:
    """The id in ``data[pos:pos + length]``, added to ``seen``.  An id that
    is not UTF-8, or that ``seen`` holds already, is a FormatError."""
    try:
        pid = data[pos:pos + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: id is not UTF-8: {exc}") from exc
    if pid in seen:
        raise FormatError(f"{path}: id {pid!r} listed twice")
    seen.add(pid)
    return pid


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
        seen = set()
        for _ in range(count):
            id_len, label = struct.unpack_from("<HB", data, pos)
            pid = _record_id(path, data, pos + 3, id_len, seen)
            pos += 3 + id_len
            steps = np.frombuffer(data, dtype="<f4", count=width,
                                  offset=pos).reshape(N_STEPS, N_INPUTS).copy()
            pos += 4 * width
            if not np.all(np.abs(steps) < 1):
                raise FormatError(f"{path}: {pid!r} is not inside (-1, 1)")
            out.append(InputSequence(steps=steps, label=int(label),
                                     provenance=pid))
    except (struct.error, ValueError, ConfigError) as exc:
        # truncated records or a label other than 0 or 1
        raise FormatError(f"{path}: malformed dataset: {exc}") from exc
    if pos != len(data):
        raise FormatError(f"{path}: trailing bytes after {count} records")
    return out


def save_frames(frames: Iterable[Frame], path) -> None:
    """Frames file, concatenable: per record, magic, version, shape,
    length-prefixed id and the voltages as little-endian complex128."""
    with open(path, "wb") as f:
        for frame in frames:
            pid = frame.phantom_id.encode("utf-8")
            f.write(_FRAME_MAGIC + struct.pack(
                "<IIIH", _FRAME_VERSION, *frame.voltages.shape, len(pid))
                + pid + frame.voltages.astype("<c16").tobytes())


def load_frames(path) -> list[Frame]:
    """Read all frame records from a file.

    Records hold no pattern order: externally measured frames must be
    recorded in the canonical order (see ``fem.Frame``), and a record whose
    pattern or electrode count is not the probe's raises ``FormatError``.
    """
    with open(path, "rb") as f:
        data = f.read()
    frames, seen, pos = [], set(), 0
    while pos < len(data):
        if data[pos:pos + 4] != _FRAME_MAGIC:
            raise FormatError(f"{path}: bad frame magic at offset {pos}")
        if len(data) < pos + 18:
            raise FormatError(f"{path}: truncated frame header")
        version, n_pat, n_el, id_len = struct.unpack_from("<IIIH", data,
                                                          pos + 4)
        if version != _FRAME_VERSION:
            raise FormatError(f"{path}: unsupported frame version {version}")
        pid = _record_id(path, data, pos + 18, id_len, seen)
        pos += 18 + id_len
        if n_pat != N_STEPS:
            raise FormatError(f"{path}: frame {pid!r} has {n_pat} patterns, "
                              f"the probe drives {N_STEPS}")
        if n_el != N_INPUTS:
            raise FormatError(f"{path}: frame {pid!r} has {n_el} electrodes, "
                              f"the probe has {N_INPUTS} inner electrodes")
        if len(data) < pos + 16 * n_pat * n_el:
            raise FormatError(f"{path}: truncated frame body")
        voltages = np.frombuffer(data, dtype="<c16", count=n_pat * n_el,
                                 offset=pos).reshape(n_pat, n_el)
        if not np.all(np.isfinite(voltages)):
            raise FormatError(f"{path}: frame {pid!r} has non-finite voltages")
        pos += voltages.nbytes
        frames.append(Frame(voltages=voltages, phantom_id=pid))
    return frames


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` as ASCII CSV in the csv module's default
    dialect, each float, Python or NumPy, as ``repr(float(v))``."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                     else v for v in row] for row in rows)


def save_split_manifest(split: DatasetSplit, path) -> None:
    """CSV listing (id, split, label) for every sequence."""
    write_csv(path, ["id", "split", "label"],
              ([seq.provenance, name, seq.label]
               for name in SPLITS for seq in getattr(split, name)))


def save_phantom_metadata(phantoms: list[Phantom], path) -> None:
    """phantoms.csv: index, seed, inclusion and label of each phantom;
    ``phantom.make_phantom`` rebuilds its conductivities from the seed."""
    write_csv(path, ["index", "seed", "center_x", "center_y", "diameter",
                     "label"],
              ([i, ph.seed, *ph.inclusion.center, ph.inclusion.diameter,
                ph.label] for i, ph in enumerate(phantoms)))


def _read_id_column(path, column: str, allowed) -> dict[str, str]:
    """The ``column`` value of each id in an ASCII CSV file with the columns
    id and ``column``: each id listed once, each value, stripped of
    surrounding whitespace, one of ``allowed``."""
    out = {}
    try:
        with open(path, "r", newline="", encoding="ascii") as f:
            reader = csv.DictReader(f)
            if not {"id", column} <= set(reader.fieldnames or ()):
                raise FormatError(f"{path}: needs the columns id and {column}")
            for row in reader:
                value = (row[column] or "").strip()
                if row["id"] in out:
                    raise FormatError(f"{path}: id {row['id']!r} listed twice")
                if value not in allowed:
                    raise FormatError(
                        f"{path}: id {row['id']!r} has {column} {value!r}, "
                        f"not one of {', '.join(allowed)}")
                out[row["id"]] = value
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII: {exc}") from exc
    return out


def load_split_assignment(path) -> dict[str, str]:
    """The split name of each id in a ``save_split_manifest`` file."""
    return _read_id_column(path, "split", SPLITS)


def load_labels(path) -> dict[str, int]:
    """Labels of externally measured frames: CSV with columns id and label."""
    labels = _read_id_column(path, "label", ("0", "1"))
    return {k: int(v) for k, v in labels.items()}
