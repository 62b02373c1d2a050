"""Probe geometry: electrode layout, current-pattern sequence, and disk mesh.

The probe face is modeled in 2D: 25 point-like voltage electrodes on a 5x5
grid, 8 current electrodes as arcs on a ring inside the meshed disk, and a
triangulated domain extending past the ring so current can spread beyond the
probe footprint.

The mesher is fully structured (concentric rings, quarter-sector
triangulation replicated by 90-degree rotation), which gives three
properties the downstream solver tests rely on:

* determinism: identical (layout, edge length) inputs give byte-identical
  meshes;
* exact vertices at every inner-electrode position, so point-probe voltage
  reads carry no interpolation offset;
* exact invariance of the mesh under 90-degree rotations, so uniform-medium
  frames inherit the probe's axis-aligned symmetries to solver precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConfigError, FormatError, MeshError

N_INNER = 25
N_OUTER = 8
# every source/sink pair of outer electrodes: the steps of one frame
N_PATTERNS = N_OUTER * (N_OUTER - 1) // 2
FIRST_OUTER = 26  # electrodes 1..25 are inner probes, 26..33 outer arcs

# 1 mA peak-to-peak sinusoid -> 0.5 mA phasor amplitude
PATTERN_AMPLITUDE_MA = 0.5

_TWO_PI = 2.0 * math.pi
_QUARTER = 0.5 * math.pi


@dataclass(frozen=True)
class GeometryConfig:
    """Probe dimensions in mm (angles in radians).

    Defaults describe a millimeter-scale probe face: inclusions of up to
    3 mm diameter are large relative to the 1.875 mm sensing disk, so the
    8% overlap rule yields balanced labels with resolvable contrast.
    """

    domain_radius: float = 3.0
    ring_radius: float = 2.5
    grid_pitch: float = 0.75
    sensing_radius: float = 1.875
    arc_halfwidth: float = 0.175


@dataclass(frozen=True)
class Arc:
    """One outer electrode: an arc segment of the ring."""

    start_angle: float
    end_angle: float
    radius: float

    @property
    def length(self) -> float:
        return (self.end_angle - self.start_angle) * self.radius


@dataclass(frozen=True)
class ProbeLayout:
    """Electrode positions plus the labeling and meshing radii."""

    inner_electrodes: np.ndarray  # (25, 2) mm, electrodes 1..25
    outer_electrodes: tuple[Arc, ...]  # electrodes 26..33
    sensing_radius: float
    domain_radius: float

    def inner_position(self, electrode: int) -> np.ndarray:
        """Position of inner electrode ``electrode`` (1-based, 1..25)."""
        if not 1 <= electrode <= len(self.inner_electrodes):
            raise ConfigError(f"inner electrode index {electrode} out of range")
        return self.inner_electrodes[electrode - 1]


@dataclass(frozen=True)
class CurrentPattern:
    """Source/sink pair of outer electrodes with phasor amplitude in mA."""

    source: int
    sink: int
    amplitude: float = PATTERN_AMPLITUDE_MA


def validate_layout(layout: ProbeLayout) -> None:
    """Raise ConfigError unless all ProbeLayout invariants hold."""
    inner = np.asarray(layout.inner_electrodes, dtype=float)
    if inner.shape != (N_INNER, 2):
        raise ConfigError(f"expected {N_INNER} inner electrodes, got {inner.shape}")
    if len(layout.outer_electrodes) != N_OUTER:
        raise ConfigError(
            f"expected {N_OUTER} outer electrodes, got {len(layout.outer_electrodes)}"
        )
    ring = layout.outer_electrodes[0].radius
    radii = np.hypot(inner[:, 0], inner[:, 1])
    if np.any(radii >= ring):
        raise ConfigError("inner electrodes must lie strictly inside the outer ring")
    d = inner[:, None, :] - inner[None, :, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    np.fill_diagonal(dist, np.inf)
    if dist.min() <= 1e-12:
        raise ConfigError("two inner electrodes coincide")
    for a, b in combinations(layout.outer_electrodes, 2):
        if a.start_angle < b.end_angle and b.start_angle < a.end_angle:
            raise ConfigError("outer electrode arcs overlap")
    if layout.sensing_radius > layout.domain_radius:
        raise ConfigError("sensing_radius must not exceed domain_radius")


def build_probe_layout(config: GeometryConfig = GeometryConfig()) -> ProbeLayout:
    """Construct the default probe: 5x5 inner grid plus 8 equispaced arcs.

    Inner electrodes are numbered 1..25 in reading order (top row first,
    x ascending), so electrode 13 sits at the origin.  Outer electrodes
    26..33 are centered at angles 0, 45, ..., 315 degrees.
    """
    if config.domain_radius <= 0 or config.ring_radius <= 0:
        raise ConfigError("radii must be positive")
    if config.grid_pitch <= 0:
        raise ConfigError("grid pitch must be positive")
    if config.ring_radius >= config.domain_radius:
        raise ConfigError("outer ring must lie inside the meshed domain")
    if not 0 < config.arc_halfwidth < math.pi / N_OUTER:
        raise ConfigError("arc halfwidth must be in (0, pi/8) so arcs stay disjoint")
    corner = config.grid_pitch * 2.0 * math.sqrt(2.0)
    if corner >= config.ring_radius:
        raise ConfigError(
            f"5x5 grid (corner radius {corner:.3f} mm) extends past the "
            f"outer ring (radius {config.ring_radius:.3f} mm)"
        )

    offsets = (np.arange(5) - 2) * config.grid_pitch
    inner = np.array(
        [(x, y) for y in offsets[::-1] for x in offsets], dtype=float
    )
    arcs = tuple(
        Arc(
            start_angle=k * _TWO_PI / N_OUTER - config.arc_halfwidth,
            end_angle=k * _TWO_PI / N_OUTER + config.arc_halfwidth,
            radius=config.ring_radius,
        )
        for k in range(N_OUTER)
    )
    layout = ProbeLayout(
        inner_electrodes=inner,
        outer_electrodes=arcs,
        sensing_radius=config.sensing_radius,
        domain_radius=config.domain_radius,
    )
    validate_layout(layout)
    return layout


def enumerate_current_patterns(layout: ProbeLayout) -> list[CurrentPattern]:
    """All unordered outer-electrode pairs in lexicographic (source < sink) order."""
    n = len(layout.outer_electrodes)
    return [
        CurrentPattern(source=FIRST_OUTER + i, sink=FIRST_OUTER + j)
        for i in range(n)
        for j in range(i + 1, n)
    ]


# ---------------------------------------------------------------------------
# Mesh
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the probe disk.

    ``electrode_edges`` maps each outer electrode (26..33) to the ring edges
    covering its arc; ``inner_vertex`` maps each inner electrode (1..25) to
    the mesh vertex at its position.
    """

    vertices: np.ndarray  # (nv, 2) float64, mm
    triangles: np.ndarray  # (nt, 3) int32, CCW
    electrode_edges: dict[int, tuple[tuple[int, int], ...]]
    inner_vertex: dict[int, int]
    _centroids: np.ndarray | None = field(default=None, repr=False, compare=False)
    # memo of fem.cem_operator: the CEM system's structure depends on the
    # mesh alone
    _cem_operator: object | None = field(default=None, repr=False,
                                         compare=False)
    # memo of phantom.background_layout: the background kernel's element
    # order and blocks depend on the mesh alone
    _background_layout: object | None = field(default=None, repr=False,
                                              compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def centroids(self) -> np.ndarray:
        """Per-triangle centroid positions, cached after first call."""
        if self._centroids is None:
            c = self.vertices[self.triangles].mean(axis=1)
            object.__setattr__(self, "_centroids", c)
        return self._centroids

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )


def _dedupe_sorted(values: list[float], tol: float) -> list[float]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return out


def _ring_radii(layout: ProbeLayout, h: float) -> list[float]:
    """Sorted ring radii: quasi-uniform spacing with electrode radii pinned."""
    ring = layout.outer_electrodes[0].radius
    dom = layout.domain_radius
    special = {ring}
    for x, y in layout.inner_electrodes:
        r = math.hypot(x, y)
        if r > 1e-12:
            special.add(r)
    special_list = _dedupe_sorted(list(special), 1e-9)

    n_low = max(1, round(ring / h))
    n_high = max(1, round((dom - ring) / h))
    uniform = [ring * k / n_low for k in range(n_low + 1)]
    uniform += [ring + (dom - ring) * k / n_high for k in range(1, n_high + 1)]

    keep = [0.0]
    for r in uniform:
        if r <= 1e-12:
            continue
        if min(abs(r - s) for s in special_list) < 0.35 * h:
            continue
        keep.append(r)
    keep.extend(special_list)
    return _dedupe_sorted(keep, 1e-9)


def _quarter_angles(layout: ProbeLayout, radius: float, h: float) -> list[float]:
    """Angle samples in [0, pi/2) for one ring; the full ring is 4 copies.

    Always contains 0.  Inner-electrode angles (folded mod 90 degrees) and
    outer-arc subdivision angles are pinned; a uniform fill tops the ring up
    to the target spacing, skipping fill angles that crowd a pinned one.
    """
    special = [0.0]
    for x, y in layout.inner_electrodes:
        r = math.hypot(x, y)
        if abs(r - radius) < 1e-9 and r > 1e-12:
            special.append(math.atan2(y, x) % _QUARTER)
    arc_on_ring = abs(layout.outer_electrodes[0].radius - radius) < 1e-9
    if arc_on_ring:
        for arc in layout.outer_electrodes:
            width = arc.end_angle - arc.start_angle
            n_seg = max(2, math.ceil(width * radius / h))
            for k in range(n_seg + 1):
                a = (arc.start_angle + width * k / n_seg) % _TWO_PI
                special.append(a % _QUARTER)
    special = _dedupe_sorted(special, 1e-9)

    n_fill = max(2, round(_QUARTER * radius / h))
    spacing = _QUARTER / n_fill
    angles = list(special)
    for k in range(n_fill):
        a = k * spacing
        if min(abs(a - s) for s in special) < 0.4 * spacing:
            continue
        # the pi/2 end belongs to the next copy
        if _QUARTER - a < 0.4 * spacing:
            continue
        angles.append(a)
    return _dedupe_sorted(angles, 1e-9)


def _merge_quarter(a_ids: list[int], a_ang: list[float],
                   b_ids: list[int], b_ang: list[float],
                   out: list[tuple[int, int, int]]) -> None:
    """Triangulate the quarter annulus between two rings by angular merge.

    Both id/angle sequences include the 0 and pi/2 endpoints.
    """
    i = j = 0
    na, nb = len(a_ang), len(b_ang)
    while i < na - 1 or j < nb - 1:
        advance_a = j == nb - 1 or (
            i < na - 1 and a_ang[i + 1] <= b_ang[j + 1] + 1e-12
        )
        if advance_a:
            out.append((a_ids[i], b_ids[j], a_ids[i + 1]))
            i += 1
        else:
            out.append((a_ids[i], b_ids[j], b_ids[j + 1]))
            j += 1


def build_mesh(layout: ProbeLayout, target_edge_length: float) -> Mesh:
    """Triangulate the probe disk with roughly ``target_edge_length`` edges.

    Raises ConfigError for invalid edge lengths and MeshError if the
    generated triangulation fails validation (non-conforming, inverted, or
    electrode coverage is incomplete).
    """
    h = float(target_edge_length)
    if h <= 0:
        raise ConfigError("target_edge_length must be positive")
    min_extent = min(a.length for a in layout.outer_electrodes)
    if h >= min_extent:
        raise ConfigError(
            f"target_edge_length {h} must be below the smallest electrode "
            f"extent {min_extent:.3f} mm"
        )

    radii = _ring_radii(layout, h)
    quarters = [[0.0]]  # ring 0 = origin placeholder
    ring_start = [0]
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    for r in radii[1:]:
        q = _quarter_angles(layout, r, h)
        ring_start.append(len(verts))
        quarters.append(q)
        for copy in range(4):
            for a in q:
                ang = a + copy * _QUARTER
                verts.append((r * math.cos(ang), r * math.sin(ang)))

    n_rings = len(radii)

    def quarter_ids(k: int) -> list[int]:
        # quarter vertex ids including the pi/2 endpoint (first id of copy 1)
        m = len(quarters[k])
        s = ring_start[k]
        return [s + t for t in range(m)] + [s + m]

    def rotate(vid: int, copy: int) -> int:
        if vid == 0:
            return 0
        k = ring_of[vid]
        m = len(quarters[k])
        s = ring_start[k]
        return s + (vid - s + copy * m) % (4 * m)

    ring_of = np.empty(len(verts), dtype=np.int32)
    ring_of[0] = 0
    for k in range(1, n_rings):
        end = ring_start[k] + 4 * len(quarters[k])
        ring_of[ring_start[k]:end] = k

    quarter_tris: list[tuple[int, int, int]] = []
    ids1 = quarter_ids(1)
    for j in range(len(ids1) - 1):
        quarter_tris.append((0, ids1[j], ids1[j + 1]))
    for k in range(1, n_rings - 1):
        a_ang = quarters[k] + [_QUARTER]
        b_ang = quarters[k + 1] + [_QUARTER]
        _merge_quarter(quarter_ids(k), a_ang, quarter_ids(k + 1), b_ang,
                       quarter_tris)

    tris: list[tuple[int, int, int]] = []
    for copy in range(4):
        for t in quarter_tris:
            tris.append((rotate(t[0], copy), rotate(t[1], copy),
                         rotate(t[2], copy)))

    vertices = np.array(verts, dtype=float)
    triangles = np.array(tris, dtype=np.int32)

    # enforce CCW orientation
    p = vertices[triangles]
    signed = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    electrode_edges = _collect_electrode_edges(layout, radii, quarters,
                                               ring_start, vertices)
    inner_vertex = _locate_inner_vertices(layout, vertices, h)

    mesh = Mesh(vertices=vertices, triangles=triangles,
                electrode_edges=electrode_edges, inner_vertex=inner_vertex)
    validate_mesh(mesh, layout)
    return mesh


def _collect_electrode_edges(layout, radii, quarters, ring_start, vertices):
    ring_r = layout.outer_electrodes[0].radius
    k_ring = next(k for k, r in enumerate(radii) if abs(r - ring_r) < 1e-9)
    m = len(quarters[k_ring])
    s = ring_start[k_ring]
    n_ring = 4 * m
    full_angles = [
        quarters[k_ring][t % m] + (t // m) * _QUARTER for t in range(n_ring)
    ]
    edges_by_electrode: dict[int, list[tuple[int, int]]] = {
        FIRST_OUTER + i: [] for i in range(len(layout.outer_electrodes))
    }
    for t in range(n_ring):
        t2 = (t + 1) % n_ring
        a1 = full_angles[t]
        a2 = full_angles[t2] if t2 != 0 else _TWO_PI
        mid = 0.5 * (a1 + a2)
        for i, arc in enumerate(layout.outer_electrodes):
            lo = arc.start_angle % _TWO_PI
            hi = arc.end_angle % _TWO_PI
            inside = (lo <= mid <= hi) if lo < hi else (mid >= lo or mid <= hi)
            if inside:
                edges_by_electrode[FIRST_OUTER + i].append((s + t, s + t2))
                break
    return {e: tuple(v) for e, v in edges_by_electrode.items()}


def _locate_inner_vertices(layout, vertices, h):
    inner_vertex: dict[int, int] = {}
    for e in range(1, len(layout.inner_electrodes) + 1):
        p = layout.inner_position(e)
        d = np.hypot(vertices[:, 0] - p[0], vertices[:, 1] - p[1])
        v = int(np.argmin(d))
        if d[v] > h:
            raise MeshError(
                f"no mesh vertex within {h} mm of inner electrode {e}"
            )
        inner_vertex[e] = v
    return inner_vertex


def validate_mesh(mesh: Mesh, layout: ProbeLayout | None = None) -> None:
    """Raise MeshError unless the mesh is conforming and well-oriented."""
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} has non-positive area {areas[bad]}")

    edge_count: dict[tuple[int, int], int] = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            edge_count[key] = edge_count.get(key, 0) + 1
    if any(c > 2 for c in edge_count.values()):
        raise MeshError("edge shared by more than two triangles")
    if layout is not None:
        boundary = [e for e, c in edge_count.items() if c == 1]
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        for a, b in boundary:
            if (abs(r[a] - layout.domain_radius) > 1e-6
                    or abs(r[b] - layout.domain_radius) > 1e-6):
                raise MeshError("boundary edge off the domain circle: mesh has holes")

    seen: set[tuple[int, int]] = set()
    for e, edges in mesh.electrode_edges.items():
        if len(edges) < 2:
            raise MeshError(f"outer electrode {e} resolved by {len(edges)} edges")
        for a, b in edges:
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise MeshError(f"electrode edge {key} assigned twice")
            if key not in edge_count:
                raise MeshError(f"electrode edge {key} is not a mesh edge")
            seen.add(key)
    if layout is not None and len(mesh.inner_vertex) != len(layout.inner_electrodes):
        raise MeshError("missing inner-electrode vertex assignments")


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------

_LAYOUT_HEADER = "biozpipe-layout v1"
_MESH_HEADER = "biozpipe-mesh v2"


def save_layout(layout: ProbeLayout, path) -> None:
    lines = [_LAYOUT_HEADER,
             f"domain_radius {float(layout.domain_radius)!r}",
             f"sensing_radius {float(layout.sensing_radius)!r}",
             f"inner {len(layout.inner_electrodes)}"]
    for x, y in layout.inner_electrodes:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"outer {len(layout.outer_electrodes)}")
    for arc in layout.outer_electrodes:
        lines.append(f"{float(arc.start_angle)!r} {float(arc.end_angle)!r} "
                     f"{float(arc.radius)!r}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_layout(path) -> ProbeLayout:
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = [ln.strip() for ln in data.decode("ascii").splitlines()
                 if ln.strip()]
        if not lines or lines[0] != _LAYOUT_HEADER:
            raise FormatError(f"{path}: not a biozpipe layout file")
        idx = 1
        dom = float(lines[idx].split()[1]); idx += 1
        sens = float(lines[idx].split()[1]); idx += 1
        n_in = int(lines[idx].split()[1]); idx += 1
        inner = np.array(
            [[float(v) for v in lines[idx + k].split()] for k in range(n_in)]
        )
        idx += n_in
        n_out = int(lines[idx].split()[1]); idx += 1
        arcs = []
        for k in range(n_out):
            s, e, r = (float(v) for v in lines[idx + k].split())
            arcs.append(Arc(s, e, r))
        layout = ProbeLayout(inner_electrodes=inner,
                             outer_electrodes=tuple(arcs),
                             sensing_radius=sens, domain_radius=dom)
        validate_layout(layout)
    except (ValueError, IndexError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed layout file: {exc}") from exc
    return layout


def save_mesh(mesh: Mesh, path) -> None:
    lines = [_MESH_HEADER, f"vertices {mesh.n_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"triangles {mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"{a} {b} {c}")
    n_edges = sum(len(v) for v in mesh.electrode_edges.values())
    lines.append(f"electrode_edges {n_edges}")
    for e in sorted(mesh.electrode_edges):
        for a, b in mesh.electrode_edges[e]:
            lines.append(f"{e} {a} {b}")
    lines.append(f"inner_vertices {len(mesh.inner_vertex)}")
    for e in sorted(mesh.inner_vertex):
        lines.append(f"{e} {mesh.inner_vertex[e]}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def load_mesh(path) -> Mesh:
    """Read a mesh file; a malformed or non-conforming mesh is a FormatError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = [ln.strip() for ln in data.decode("ascii").splitlines()
                 if ln.strip()]
        if not lines or lines[0] != _MESH_HEADER:
            raise FormatError(f"{path}: not a biozpipe mesh file")
        idx = 1
        nv = int(lines[idx].split()[1]); idx += 1
        vertices = np.array(
            [[float(v) for v in lines[idx + k].split()] for k in range(nv)]
        ).reshape(nv, 2)
        idx += nv
        nt = int(lines[idx].split()[1]); idx += 1
        triangles = np.array(
            [[int(v) for v in lines[idx + k].split()] for k in range(nt)],
            dtype=np.int32).reshape(nt, 3)
        idx += nt
        ne = int(lines[idx].split()[1]); idx += 1
        electrode_edges: dict[int, list[tuple[int, int]]] = {}
        for k in range(ne):
            e, a, b = (int(v) for v in lines[idx + k].split())
            electrode_edges.setdefault(e, []).append((a, b))
        idx += ne
        ni = int(lines[idx].split()[1]); idx += 1
        inner_vertex = {}
        for k in range(ni):
            e, v = (int(x) for x in lines[idx + k].split())
            inner_vertex[e] = v
        if not np.all(np.isfinite(vertices)):
            raise FormatError(f"{path}: non-finite vertex coordinates")
        # validate_mesh requires every electrode edge to be a triangle edge
        used = [*triangles.ravel().tolist(), *inner_vertex.values()]
        if any(not 0 <= v < nv for v in used):
            raise FormatError(f"{path}: vertex index outside [0, {nv})")
        mesh = Mesh(vertices=vertices, triangles=triangles,
                    electrode_edges={e: tuple(v)
                                     for e, v in electrode_edges.items()},
                    inner_vertex=inner_vertex)
        validate_mesh(mesh)
    except (ValueError, IndexError, OverflowError, MeshError) as exc:
        # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: malformed mesh file: {exc}") from exc
    return mesh
