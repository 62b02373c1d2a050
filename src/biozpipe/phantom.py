"""Digital tissue phantoms: noisy background plus one circular inclusion.

Two tissue models are bundled: prostate (normal background vs. cancerous
inclusion) and bovine (muscle background vs. adipose inclusion), with complex
conductivities in mS/m at the 10 kHz operating point.  Background texture is
a random radial-basis-function field rescaled so the relative standard
deviation of the real part hits the configured target exactly.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .geometry import Mesh, ProbeLayout

LABEL_NEGATIVE = 0
LABEL_POSITIVE = 1

AREA_FRACTION_THRESHOLD = 0.08
MAX_INCLUSION_DIAMETER_MM = 3.0

# element rows per block of the background kernel (see synth_background)
_KERNEL_BLOCK_ROWS = 128


@dataclass(frozen=True)
class TissueModel:
    """Background/inclusion conductivity pair (mS/m) and noise target."""

    name: str
    sigma_background: complex
    sigma_inclusion: complex
    noise_rel_std: float = 0.10

    def __post_init__(self):
        if self.sigma_background.real <= 0 or self.sigma_inclusion.real <= 0:
            raise ConfigError("conductivity real parts must be positive")
        if not 0 <= self.noise_rel_std < 1:
            raise ConfigError("noise_rel_std must be in [0, 1)")


PROSTATE = TissueModel("prostate", 126.0 + 12.76j, 106.0 + 14.9j)
BOVINE = TissueModel("bovine", 341.0 + 14.4j, 23.8 + 0.604j)

TISSUE_MODELS = {m.name: m for m in (PROSTATE, BOVINE)}


@dataclass(frozen=True)
class RbfNoiseConfig:
    """Gaussian-bump random field: centers uniform in the domain disk.

    The default correlation length sits at the mesh-element scale, modeling
    fine-grained tissue heterogeneity; longer kernels produce blobs that
    mimic inclusions and destroy class separability.
    """

    n_centers: int = 1300
    kernel_width: float = 0.15  # mm
    weight_seed: int = 0
    amplitude: complex = 1.0 + 1.0j  # mS/m scale of raw weights, pre-rescale

    def __post_init__(self):
        if self.n_centers < 1:
            raise ConfigError("n_centers must be >= 1")
        if self.kernel_width <= 0:
            raise ConfigError("kernel_width must be positive")


@dataclass(frozen=True)
class Inclusion:
    """Circular inclusion: center (mm) and diameter (mm)."""

    center: tuple[float, float]
    diameter: float


def validate_inclusion(inclusion: Inclusion, layout: ProbeLayout) -> None:
    if not 0 <= inclusion.diameter <= MAX_INCLUSION_DIAMETER_MM:
        raise ConfigError(
            f"inclusion diameter {inclusion.diameter} outside "
            f"[0, {MAX_INCLUSION_DIAMETER_MM}] mm"
        )
    if math.hypot(*inclusion.center) > layout.domain_radius:
        raise ConfigError("inclusion center outside the domain disk")


@dataclass(frozen=True)
class Phantom:
    """Per-element conductivity plus inclusion metadata and binary label."""

    element_sigma: np.ndarray  # (nt,) complex128, mS/m
    inclusion: Inclusion
    label: int
    seed: int


def synth_background(mesh: Mesh, model: TissueModel,
                     rbf: RbfNoiseConfig = RbfNoiseConfig(),
                     seed: int | None = None) -> np.ndarray:
    """Background conductivity with RBF texture at element centroids.

    The raw field (Gaussian bumps, standard-normal complex weights scaled by
    ``rbf.amplitude``) is rescaled by a single real factor so the empirical
    relative standard deviation of the real part equals
    ``model.noise_rel_std`` exactly.  Deterministic given the seed.

    The element x center kernel is built ``_KERNEL_BLOCK_ROWS`` elements at
    a time, so each block's temporaries stay cache-sized (about 1.3 MB at
    1300 centers) and parallel callers need no dense 3200 x 1300 matrix
    each.  Distances come from plain coordinate differences rather than the
    expanded ``|c|^2 + |x|^2 - 2 c.x`` BLAS product: they cannot go
    negative by cancellation, and their bytes do not depend on how many
    threads the BLAS library runs.  The kernel stays real; the real and
    imaginary parts of the field are two real matrix-vector products.
    """
    if seed is None:
        seed = rbf.weight_seed
    rng = np.random.default_rng(seed)
    centroids = mesh.centroids()
    n = len(centroids)
    if model.noise_rel_std == 0.0:
        return np.full(n, complex(model.sigma_background), dtype=complex)

    # centers uniform in the domain disk (area-uniform polar sampling)
    domain_r = math.hypot(*mesh.vertices[np.argmax(
        np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))])
    radii = domain_r * np.sqrt(rng.uniform(size=rbf.n_centers))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rbf.n_centers)
    cx, cy = radii * np.cos(angles), radii * np.sin(angles)
    weights = (rng.standard_normal(rbf.n_centers)
               + 1j * rng.standard_normal(rbf.n_centers)) * rbf.amplitude
    w_re = np.ascontiguousarray(weights.real)
    w_im = np.ascontiguousarray(weights.imag)

    # cap the exponent so far-field kernels stay in normal float range
    two_w2 = 2.0 * rbf.kernel_width ** 2
    raw_re = np.empty(n)
    raw_im = np.empty(n)
    for lo in range(0, n, _KERNEL_BLOCK_ROWS):
        rows = slice(lo, lo + _KERNEL_BLOCK_ROWS)
        k = centroids[rows, 0:1] - cx
        dy = centroids[rows, 1:2] - cy
        k *= k
        dy *= dy
        k += dy
        k /= two_w2
        np.minimum(k, 46.0, out=k)
        np.negative(k, out=k)
        np.exp(k, out=k)
        raw_re[rows] = k @ w_re
        raw_im[rows] = k @ w_im

    raw_std = float(np.std(raw_re))
    if raw_std == 0.0:
        raise NumericalError("RBF field is identically zero; cannot rescale")
    scale = model.noise_rel_std * abs(model.sigma_background) / raw_std
    field = model.sigma_background + (raw_re + 1j * raw_im) * scale
    if np.any(field.real <= 0):
        raise NumericalError("background noise drove conductivity non-positive")
    return field


def place_inclusion(field: np.ndarray, mesh: Mesh, inclusion: Inclusion,
                    sigma_inc: complex) -> np.ndarray:
    """Replace conductivity of elements whose centroid lies in the circle."""
    out = np.array(field, dtype=complex, copy=True)
    if inclusion.diameter <= 0:
        return out
    c = mesh.centroids()
    r = 0.5 * inclusion.diameter
    inside = ((c[:, 0] - inclusion.center[0]) ** 2
              + (c[:, 1] - inclusion.center[1]) ** 2) <= r * r
    out[inside] = sigma_inc
    return out


def disk_overlap_area(r1: float, r2: float, dist: float) -> float:
    """Area of intersection of two disks with radii r1, r2 at center distance dist."""
    if r1 <= 0 or r2 <= 0 or dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        r = min(r1, r2)
        return math.pi * r * r
    a1 = math.acos((dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist * r1))
    a2 = math.acos((dist * dist + r2 * r2 - r1 * r1) / (2.0 * dist * r2))
    tri = 0.5 * math.sqrt(max(0.0, (-dist + r1 + r2) * (dist + r1 - r2)
                              * (dist - r1 + r2) * (dist + r1 + r2)))
    return r1 * r1 * a1 + r2 * r2 * a2 - tri


def label_phantom(inclusion: Inclusion, layout: ProbeLayout) -> int:
    """Positive iff the inclusion covers >= 8% of the sensing disk area."""
    r_inc = 0.5 * inclusion.diameter
    r_sense = layout.sensing_radius
    dist = math.hypot(*inclusion.center)
    overlap = disk_overlap_area(r_inc, r_sense, dist)
    threshold = AREA_FRACTION_THRESHOLD * math.pi * r_sense * r_sense
    return LABEL_POSITIVE if overlap >= threshold else LABEL_NEGATIVE


def phantom_seed(master_seed: int, index: int) -> int:
    """Single reproducible integer seed for phantom ``index`` of a set."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def make_phantom(mesh: Mesh, layout: ProbeLayout, model: TissueModel,
                 seed: int, rbf: RbfNoiseConfig = RbfNoiseConfig()) -> Phantom:
    """One phantom from its own seed: inclusion draw, then background synth."""
    ss = np.random.SeedSequence(seed)
    inc_seed, bg_seed = ss.spawn(2)
    rng = np.random.default_rng(inc_seed)
    diameter = rng.uniform(0.0, MAX_INCLUSION_DIAMETER_MM)
    radius = layout.sensing_radius * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    inclusion = Inclusion(
        center=(radius * math.cos(angle), radius * math.sin(angle)),
        diameter=diameter,
    )
    field = synth_background(mesh, model, rbf, seed=bg_seed)
    field = place_inclusion(field, mesh, inclusion, model.sigma_inclusion)
    return Phantom(element_sigma=field, inclusion=inclusion,
                   label=label_phantom(inclusion, layout), seed=seed)


def phantom_id(index: int) -> str:
    """Name of phantom ``index`` in a run: its files and error messages."""
    return f"p{index:05d}"


def generate_phantom_set(mesh: Mesh, layout: ProbeLayout, model: TissueModel,
                         n: int, seed: int,
                         rbf: RbfNoiseConfig = RbfNoiseConfig(),
                         map=map) -> list[Phantom]:
    """n labeled phantoms with per-phantom seeds derived from (seed, index).

    Inclusion diameters are uniform on [0, 3] mm and centers uniform on the
    sensing disk.  ``map`` runs one phantom per index and must keep index
    order, as an executor's ``map`` does; parallel and serial generation
    agree because each phantom depends only on its own derived seed.  A
    synthesis failure names the phantom and its seed.
    """
    if n < 1:
        raise ConfigError("phantom count must be >= 1")

    def one(i):
        ph_seed = phantom_seed(seed, i)
        try:
            return make_phantom(mesh, layout, model, ph_seed, rbf)
        except NumericalError as exc:
            raise NumericalError(
                f"phantom {phantom_id(i)} (seed {ph_seed}): {exc}") from exc

    return list(map(one, range(n)))


# ---------------------------------------------------------------------------
# Persistence: metadata CSV plus per-phantom conductivity binaries
# ---------------------------------------------------------------------------

_COND_MAGIC = b"BZPH"
_COND_VERSION = 1


def save_conductivity(sigma: np.ndarray, path) -> None:
    """Little-endian binary: magic, version, count, interleaved re/im f64."""
    sigma = np.asarray(sigma, dtype=complex)
    body = np.empty(2 * len(sigma), dtype="<f8")
    body[0::2] = sigma.real
    body[1::2] = sigma.imag
    with open(path, "wb") as f:
        f.write(_COND_MAGIC)
        f.write(struct.pack("<II", _COND_VERSION, len(sigma)))
        f.write(body.tobytes())


def load_conductivity(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _COND_MAGIC:
            raise FormatError(f"{path}: not a conductivity file")
        version, count = struct.unpack("<II", f.read(8))
        if version != _COND_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        body = np.frombuffer(f.read(16 * count), dtype="<f8")
    if len(body) != 2 * count:
        raise FormatError(f"{path}: truncated body")
    return body[0::2] + 1j * body[1::2]


def save_phantom_metadata(phantoms: list[Phantom], path) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["index", "seed", "center_x", "center_y", "diameter", "label"])
        for i, ph in enumerate(phantoms):
            w.writerow([i, ph.seed,
                        repr(float(ph.inclusion.center[0])),
                        repr(float(ph.inclusion.center[1])),
                        repr(float(ph.inclusion.diameter)), ph.label])


def load_phantom_metadata(path) -> list[dict]:
    rows = []
    with open(path, "r", newline="", encoding="ascii") as f:
        for row in csv.DictReader(f):
            rows.append({
                "index": int(row["index"]),
                "seed": int(row["seed"]),
                "center": (float(row["center_x"]), float(row["center_y"])),
                "diameter": float(row["diameter"]),
                "label": int(row["label"]),
            })
    return rows
