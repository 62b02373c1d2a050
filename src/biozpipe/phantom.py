"""Digital tissue phantoms: noisy background plus one circular inclusion.

Two tissue models are bundled: prostate (normal background vs. cancerous
inclusion) and bovine (muscle background vs. adipose inclusion), with complex
conductivities in mS/m at the 10 kHz operating point.  Background texture is
a random radial-basis-function field rescaled so the relative standard
deviation of the real part hits ``RbfNoiseConfig.noise_rel_std`` exactly.
No run setting has a default here: ``cli.RunConfig`` holds them all.
Nothing here touches a file: ``datapipe.save_phantom_metadata`` writes a
run's phantoms.csv, and ``make_phantom`` rebuilds a phantom from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .geometry import Mesh, ProbeLayout

# the two classes, also the classifier's (``afua.predict``)
LABEL_NEGATIVE = 0
LABEL_POSITIVE = 1

AREA_FRACTION_THRESHOLD = 0.08
MAX_INCLUSION_DIAMETER_MM = 3.0

# element rows per block of the background kernel (see synth_background):
# one product fills a block's (near x rows) exponents into a buffer that
# stays cache-sized; smaller blocks spend more of a call in per-block
# dispatch, which holds the GIL.  On 2 threads at h = 0.14, blocks of 32
# and 64 rows were slower; 256 was faster on 2 threads but slower on 1,
# and its wider quadrants raise the expansion's error
_KERNEL_BLOCK_ROWS = 128
# scale of the raw weights (mS/m); the rescale cancels its magnitude
_WEIGHT_SCALE = 1.0 + 1.0j
# kernel exponent cap: an entry whose exponent is below -46 is exactly
# exp(-46), so a center beyond the cap radius sqrt(46 * 2 w^2) of a whole
# block adds exp(-46) times its weight to each of its elements unevaluated
_KERNEL_EXP_CAP = 46.0


@dataclass(frozen=True)
class TissueModel:
    """Background/inclusion conductivity pair (mS/m)."""

    name: str
    sigma_background: complex
    sigma_inclusion: complex

    def __post_init__(self):
        if self.sigma_background.real <= 0 or self.sigma_inclusion.real <= 0:
            raise ConfigError("conductivity real parts must be positive")


PROSTATE = TissueModel("prostate", 126.0 + 12.76j, 106.0 + 14.9j)
BOVINE = TissueModel("bovine", 341.0 + 14.4j, 23.8 + 0.604j)

TISSUE_MODELS = {m.name: m for m in (PROSTATE, BOVINE)}


@dataclass(frozen=True)
class RbfNoiseConfig:
    """Gaussian-bump random field: centers uniform in the domain disk.

    A correlation length at the mesh-element scale models fine-grained
    tissue heterogeneity; longer kernels produce blobs that mimic
    inclusions and destroy class separability.
    """

    n_centers: int
    kernel_width: float  # mm
    noise_rel_std: float  # std of the real part / |sigma_background|

    def __post_init__(self):
        if self.n_centers < 1:
            raise ConfigError("n_centers must be >= 1")
        if not 0 <= self.noise_rel_std < 1:
            raise ConfigError("noise_rel_std must be in [0, 1)")
        # the kernel is exp(-d^2 / (2 w^2)): inside this range 1/(2 w^2) is
        # finite and nonzero
        if not 1e-150 < self.kernel_width < 1e150:
            raise ConfigError("kernel_width must lie in (1e-150, 1e150)")


@dataclass(frozen=True)
class Inclusion:
    """Circular inclusion: center (mm) and diameter (mm)."""

    center: tuple[float, float]
    diameter: float


@dataclass(frozen=True)
class Phantom:
    """Per-element conductivity plus inclusion metadata and binary label."""

    element_sigma: np.ndarray  # (nt,) complex128, mS/m
    inclusion: Inclusion
    label: int
    seed: int


@dataclass(frozen=True)
class BackgroundLayout:
    """What the background kernel needs of a mesh, in mm.

    ``order`` lists the elements in serpentine-strip order (x running
    forward and back in turn along strips of y); block ``b`` is rows
    ``b * _KERNEL_BLOCK_ROWS`` onward of ``order`` and ``elements``, and
    ``mid[b] +- half[b]`` is its bounding box.  The box's middle splits the
    block into four quadrants ``q = 2 [x > mid x] + [y > mid y]``, and
    ``centre[b, q]`` is the middle of the box around quadrant q's elements
    and the block's middle.  An element at ``centre[b, q] + b'`` has
    ``[b'x, b'y, 1]`` in columns ``3q`` to ``3q + 2`` of its row of the
    element factor ``elements``, ``|b'|^2`` in column 12 and zeros
    elsewhere.
    """

    order: np.ndarray  # (nt,) element indices
    elements: np.ndarray  # (13, nt) element factor of the exponent product
    centre: np.ndarray  # (n_blocks, 4, 2) expansion centre per quadrant
    mid: np.ndarray  # (n_blocks, 2) middle of each block's bounding box
    half: np.ndarray  # (n_blocks, 2) half its width and height
    domain_radius: float  # farthest vertex from the origin


def _build_layout(mesh: Mesh) -> BackgroundLayout:
    centroids = mesh.centroids()
    n = len(centroids)
    domain_r = math.hypot(*mesh.vertices[np.argmax(
        np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))])
    # serpentine strip order: strip index in y, then x forward or backward;
    # a strip is as high as a square holding one block's share of the disk
    strip_h = math.sqrt(_KERNEL_BLOCK_ROWS * math.pi * domain_r ** 2 / n)
    strip = np.floor((centroids[:, 1] - centroids[:, 1].min()) / strip_h)
    order = np.lexsort((np.where(strip % 2 == 0, 1.0, -1.0) * centroids[:, 0],
                        strip))
    ordered = centroids[order]
    starts = np.arange(0, n, _KERNEL_BLOCK_ROWS)
    lo = np.minimum.reduceat(ordered, starts)
    hi = np.maximum.reduceat(ordered, starts)
    mid = 0.5 * (lo + hi)
    block = np.arange(n) // _KERNEL_BLOCK_ROWS
    quadrant = (ordered > mid[block]) @ np.array([2, 1])
    # each box holds its block's middle, so an empty quadrant has a finite
    # centre and every box is at most a quarter of the block's
    q_lo = np.repeat(mid, 4, axis=0)
    q_hi = q_lo.copy()
    np.minimum.at(q_lo, 4 * block + quadrant, ordered)
    np.maximum.at(q_hi, 4 * block + quadrant, ordered)
    centre = 0.5 * (q_lo + q_hi)
    rel = ordered - centre[4 * block + quadrant]
    elements = np.zeros((13, n))
    elements[3 * quadrant + np.arange(3)[:, None], np.arange(n)] = [
        *rel.T, np.ones(n)]
    elements[12] = (rel ** 2).sum(axis=1)
    return BackgroundLayout(order=order, elements=elements,
                            centre=centre.reshape(-1, 4, 2), mid=mid,
                            half=0.5 * (hi - lo), domain_radius=domain_r)


def background_layout(mesh: Mesh) -> BackgroundLayout:
    """The mesh's background-kernel layout, built on first use and kept on
    the mesh."""
    return mesh.derived(_build_layout)


def synth_background(mesh: Mesh, model: TissueModel, rbf: RbfNoiseConfig,
                     *, seed: int) -> np.ndarray:
    """Background conductivity with RBF texture at element centroids.

    The raw field (Gaussian bumps, standard-normal complex weights scaled by
    ``_WEIGHT_SCALE``) is rescaled by a single real factor so the empirical
    relative standard deviation of the real part equals
    ``rbf.noise_rel_std`` exactly; a raw real part flat to rounding
    raises NumericalError.  Deterministic given the seed.

    The kernel exponent is capped at 46, so every center farther than the
    cap radius ``sqrt(46 * 2 w^2)`` from an element adds exactly
    ``exp(-46)`` times its weight.  Elements go in blocks of
    ``_KERNEL_BLOCK_ROWS``, compact patches of the mesh's
    ``background_layout``.  One (blocks x centers) test picks the centers
    within the cap radius of each block's bounding box; all other centers
    enter as ``exp(-46)`` times the sum of their weights, which is what the
    dense element x center kernel gives them.

    A block's exponents ``-u |b - c|^2``, with ``u = 1/(2 w^2)``, are one
    (near x 13) @ (13 x rows) product, written into one reused buffer.  Its
    right factor is the block's columns of the layout's element factor.
    Row j of the left factor holds, for each of the block's four quadrant
    centres, ``u [2 c'x, 2 c'y, -|c'|^2]`` with ``c'`` the offset of center
    j from that quadrant centre, and last ``-u``.  An element picks its own
    quadrant's entries, so each exponent is ``-u (|b'|^2 - 2 b'.c' +
    |c'|^2)``, expanded about the centre of the element's quadrant.

    The expansion cancels: an entry that matters, with ``c`` near ``b``,
    carries an error of a few eps * u * |b'|^2, and about the quadrant
    centre ``|b'|`` is at most a quarter of the block's diagonal.  On the
    h = 0.3 test mesh at w = 0.02 mm the worst case measured is 2.4e-13 of
    the texture, against 2.1e-12 when expanding about each block's centre;
    about the origin the error reaches eps * u * (3 mm)^2.

    After the cap and ``exp`` in place, the near weights' real and
    imaginary parts times the buffer are two vector-matrix products.  In
    these forms the bytes do not depend on how many threads OpenBLAS runs
    (``test_blas_threads_do_not_change_fields``); the (rows x 4),
    (rows x 13) and (2 x near) product forms gave other bytes on 2 threads
    once near passed a few hundred to a few thousand centers.
    """
    rng = np.random.default_rng(seed)
    if rbf.noise_rel_std == 0.0:
        return np.full(mesh.n_triangles, complex(model.sigma_background),
                       dtype=complex)
    layout = background_layout(mesh)

    # centers uniform in the domain disk (area-uniform polar sampling)
    radii = layout.domain_radius * np.sqrt(rng.uniform(size=rbf.n_centers))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rbf.n_centers)
    centers = np.array([radii * np.cos(angles), radii * np.sin(angles)])
    weights = (rng.standard_normal(rbf.n_centers)
               + 1j * rng.standard_normal(rbf.n_centers)) * _WEIGHT_SCALE
    w = np.array([weights.real, weights.imag])
    w_sum = w.sum(axis=1)

    # near[b, j]: center j lies within the cap radius of block b's box
    u = 1.0 / (2.0 * rbf.kernel_width ** 2)
    gap = np.abs(centers[:, None, :] - layout.mid.T[:, :, None])
    gap -= layout.half.T[:, :, None]
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    near = gap[0] + gap[1] <= _KERNEL_EXP_CAP / u
    capped = math.exp(-_KERNEL_EXP_CAP)  # every entry past the cap radius

    # the raw field in layout order, one block of elements at a time
    raw = np.empty((2, mesh.n_triangles))
    buf = np.empty(_KERNEL_BLOCK_ROWS * int(near.sum(axis=1).max()))
    for b, lo in enumerate(range(0, mesh.n_triangles, _KERNEL_BLOCK_ROWS)):
        block = slice(lo, lo + _KERNEL_BLOCK_ROWS)
        elements = layout.elements[:, block]
        idx = np.flatnonzero(near[b])
        # per quadrant q: u [2 c'x, 2 c'y, -|c'|^2], c' = c - centre[b, q]
        cols = np.empty((13, len(idx)))
        quad = cols[:12].reshape(4, 3, len(idx))
        np.subtract(centers.take(idx, axis=1), layout.centre[b, :, :, None],
                    out=quad[:, :2])
        np.multiply(quad[:, 0], quad[:, 0], out=quad[:, 2])
        quad[:, 2] += quad[:, 1] ** 2
        quad[:, :2] *= 2.0 * u
        quad[:, 2] *= -u
        cols[12] = -u
        shape = (len(idx), elements.shape[1])
        k = buf[:shape[0] * shape[1]].reshape(shape)
        np.matmul(cols.T, elements, out=k)
        np.maximum(k, -_KERNEL_EXP_CAP, out=k)
        np.exp(k, out=k)
        w_near = w.take(idx, axis=1)
        raw[0, block] = w_near[0] @ k
        raw[1, block] = w_near[1] @ k
        raw[:, block] += capped * (w_sum - w_near.sum(axis=1))[:, None]

    # flat to rounding: std at most 1e-9 of the largest magnitude, a rescale
    # would blow rounding noise up to the target
    raw_std = float(np.std(raw[0]))
    if raw_std <= 1e-9 * float(np.abs(raw[0]).max()):
        raise NumericalError("RBF field is flat to rounding; cannot rescale")
    scale = rbf.noise_rel_std * abs(model.sigma_background) / raw_std
    field = np.empty(mesh.n_triangles, dtype=complex)
    field[layout.order] = (model.sigma_background
                           + (raw[0] + 1j * raw[1]) * scale)
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
    # near tangency rounding can push the cosines past +-1 and the area
    # past its bounds; clamp both
    def angle(ra, rb):
        cos = (dist * dist + ra * ra - rb * rb) / (2.0 * dist * ra)
        return math.acos(min(1.0, max(-1.0, cos)))
    tri = 0.5 * math.sqrt(max(0.0, (-dist + r1 + r2) * (dist + r1 - r2)
                              * (dist - r1 + r2) * (dist + r1 + r2)))
    area = r1 * r1 * angle(r1, r2) + r2 * r2 * angle(r2, r1) - tri
    return min(max(area, 0.0), math.pi * min(r1, r2) ** 2)


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
                 seed: int, rbf: RbfNoiseConfig) -> Phantom:
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
    """Name of phantom ``index`` in a run: its frame id and error messages."""
    return f"p{index:05d}"


def generate_phantom_set(mesh: Mesh, layout: ProbeLayout, model: TissueModel,
                         n: int, seed: int, rbf: RbfNoiseConfig,
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

