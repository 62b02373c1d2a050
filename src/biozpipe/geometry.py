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

This module also owns the text format of the run's text files: a header
line, then sections in a fixed order (``read_sections`` /
``write_sections``).  geometry.txt and mesh.txt are written here, and
``afua`` writes model.afua and the model_q<bits>.afuaq files with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, MeshError

N_INNER = 25
N_OUTER = 8
# every source/sink pair of outer electrodes: the steps of one frame
N_PATTERNS = N_OUTER * (N_OUTER - 1) // 2
FIRST_OUTER = 26  # electrodes 1..25 are inner probes, 26..33 outer arcs

# 1 mA peak-to-peak sinusoid -> 0.5 mA phasor amplitude
PATTERN_AMPLITUDE_MA = 0.5

# probe dimensions in mm and radians: inclusions of up to 3 mm are large
# against the 1.875 mm sensing disk, so the 8% overlap rule yields balanced
# labels with resolvable contrast
DOMAIN_RADIUS_MM = 3.0
RING_RADIUS_MM = 2.5
GRID_PITCH_MM = 0.75
SENSING_RADIUS_MM = 1.875
ARC_HALFWIDTH = 0.175

# lower bound on the mesh edge of the default probe: the mesh and each
# phantom's conductivities grow as 1/h^2, the LU factor slightly faster.
# Measured for one phantom (mesh, reference, synthesis and solve; triangles,
# LU fill, RSS above the import): h = 0.14: 3200, 73 k, 7.8 MB; 0.1: 5948,
# 159 k, 13 MB; 0.07: 12 276, 373 k, 28 MB.  At 0.07 the conductivities kept
# through generate reach 2.0 GB at cli's n_phantoms bound, and a pool
# thread's 4 MB in flight grows to about 14 MB, 0.46 GB at its threads
# bound
MIN_MESH_EDGE_MM = 0.07

_TWO_PI = 2.0 * math.pi
_QUARTER = 0.5 * math.pi


@dataclass(frozen=True)
class Arc:
    """One outer electrode: an arc segment of the ring."""

    start_angle: float
    end_angle: float
    radius: float


@dataclass(frozen=True)
class ProbeLayout:
    """Electrode positions plus the labeling and meshing radii."""

    inner_electrodes: np.ndarray  # (25, 2) mm, electrodes 1..25
    outer_electrodes: tuple[Arc, ...]  # electrodes 26..33
    sensing_radius: float
    domain_radius: float


@dataclass(frozen=True)
class CurrentPattern:
    """Source/sink pair of outer electrodes with phasor amplitude in mA."""

    source: int
    sink: int
    amplitude: float = PATTERN_AMPLITUDE_MA


def check_mesh_edge(h: float) -> None:
    """Raise ConfigError unless the probe meshes at edge length ``h`` mm:
    from MIN_MESH_EDGE_MM up to below the arc extent."""
    if not h >= MIN_MESH_EDGE_MM:
        raise ConfigError(f"mesh_edge_mm {h} is below its bound "
                          f"{MIN_MESH_EDGE_MM}")
    extent = 2 * ARC_HALFWIDTH * RING_RADIUS_MM
    if not h < extent:
        raise ConfigError(f"target_edge_length {h} must be below the "
                          f"smallest electrode extent {extent:.3f} mm")


def build_probe_layout() -> ProbeLayout:
    """Construct the default probe: 5x5 inner grid plus 8 equispaced arcs.

    Inner electrodes are numbered 1..25 in reading order (top row first,
    x ascending), so electrode 13 sits at the origin.  Outer electrodes
    26..33 are centered at angles 0, 45, ..., 315 degrees.
    """
    offsets = (np.arange(5) - 2) * GRID_PITCH_MM
    inner = np.array(
        [(x, y) for y in offsets[::-1] for x in offsets], dtype=float
    )
    arcs = tuple(
        Arc(
            start_angle=k * _TWO_PI / N_OUTER - ARC_HALFWIDTH,
            end_angle=k * _TWO_PI / N_OUTER + ARC_HALFWIDTH,
            radius=RING_RADIUS_MM,
        )
        for k in range(N_OUTER)
    )
    return ProbeLayout(
        inner_electrodes=inner,
        outer_electrodes=arcs,
        sensing_radius=SENSING_RADIUS_MM,
        domain_radius=DOMAIN_RADIUS_MM,
    )


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

    What depends on the mesh alone (its centroids, the solver's operator,
    the background kernel's layout) is built on first use by ``derived``
    and kept in one memo, keyed by the function that builds it.
    """

    vertices: np.ndarray  # (nv, 2) float64, mm
    triangles: np.ndarray  # (nt, 3) int32, CCW
    electrode_edges: dict[int, tuple[tuple[int, int], ...]]
    inner_vertex: dict[int, int]
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def derived(self, build):
        """``build(self)``, built on first use and kept on the mesh.

        Threads that find it missing may each build one; the first one
        stored is the one every caller gets."""
        value = self._memo.get(build)
        if value is None:
            value = self._memo.setdefault(build, build(self))
        return value

    def centroids(self) -> np.ndarray:
        """Per-triangle centroid positions, built once."""
        return self.derived(_centroid_positions)

    def triangle_areas(self) -> np.ndarray:
        return _signed_areas(self.vertices, self.triangles)


def _centroid_positions(mesh: Mesh) -> np.ndarray:
    return mesh.vertices[mesh.triangles].mean(axis=1)


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Triangle areas, positive for counter-clockwise vertex order."""
    p = vertices[triangles]
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

    Raises ConfigError for an edge length ``check_mesh_edge`` refuses and
    MeshError if the generated triangulation fails validation
    (non-conforming, inverted, or electrode coverage is incomplete).
    """
    h = float(target_edge_length)
    check_mesh_edge(h)

    radii = _ring_radii(layout, h)
    # ring 0 is the origin; ring k > 0 is 4 copies of its quarter angles,
    # each turned by pi/2, with vertex ids from starts[k] on
    quarters = [[0.0]] + [_quarter_angles(layout, r, h) for r in radii[1:]]
    sizes = np.array([1] + [4 * len(q) for q in quarters[1:]])
    starts = np.cumsum(sizes) - sizes
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    for r, q in zip(radii[1:], quarters[1:]):
        for copy in range(4):
            for a in q:
                ang = a + copy * _QUARTER
                verts.append((r * math.cos(ang), r * math.sin(ang)))
    vertices = np.array(verts, dtype=float)

    # quarter vertex ids including the pi/2 endpoint (first id of copy 1)
    ids = [list(range(s, s + len(q) + 1))
           for s, q in zip(starts.tolist(), quarters)]
    quarter_tris = [(0, ids[1][j], ids[1][j + 1])
                    for j in range(len(quarters[1]))]
    for k in range(1, len(radii) - 1):
        _merge_quarter(ids[k], quarters[k] + [_QUARTER],
                       ids[k + 1], quarters[k + 1] + [_QUARTER], quarter_tris)

    # copy c of vertex start + local on a ring of n vertices is
    # start + (local + c n/4) % n; the origin (n = 1) stays put
    tri = np.array(quarter_tris)
    ring = np.repeat(np.arange(len(radii)), sizes)[tri]
    start, size = starts[ring], sizes[ring]
    copies = np.arange(4)[:, None, None]
    triangles = (start + (tri - start + copies * (size // 4)) % size
                 ).reshape(-1, 3).astype(np.int32)
    flip = _signed_areas(vertices, triangles) < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    ring_r = layout.outer_electrodes[0].radius
    k_ring = next(k for k, r in enumerate(radii) if abs(r - ring_r) < 1e-9)
    electrode_edges = _collect_electrode_edges(layout, quarters[k_ring],
                                               int(starts[k_ring]))
    inner_vertex = _locate_inner_vertices(layout, vertices, h)

    mesh = Mesh(vertices=vertices, triangles=triangles,
                electrode_edges=electrode_edges, inner_vertex=inner_vertex)
    validate_mesh(mesh, layout)
    return mesh


def _collect_electrode_edges(layout, quarter, start):
    """Each edge of the electrode ring (vertex ids from ``start`` on) goes
    to the first arc that holds its mid-angle."""
    m = len(quarter)
    n = 4 * m
    t = np.arange(n)
    angle = np.array(quarter)[t % m] + (t // m) * _QUARTER
    mid = (0.5 * (angle + np.append(angle[1:], _TWO_PI)))[:, None]
    arcs = layout.outer_electrodes
    lo = np.array([arc.start_angle % _TWO_PI for arc in arcs])
    hi = np.array([arc.end_angle % _TWO_PI for arc in arcs])
    # an arc across angle 0 has lo > hi
    inside = np.where(lo < hi, (lo <= mid) & (mid <= hi),
                      (mid >= lo) | (mid <= hi))
    arc_of = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    edges = np.stack([start + t, start + (t + 1) % n], axis=1)
    return {FIRST_OUTER + i: tuple(map(tuple, edges[arc_of == i].tolist()))
            for i in range(len(arcs))}


def _locate_inner_vertices(layout, vertices, h):
    offset = vertices - layout.inner_electrodes[:, None, :]  # (25, nv, 2)
    d = np.hypot(offset[..., 0], offset[..., 1])
    far = np.flatnonzero(d.min(axis=1) > h)
    if far.size:
        raise MeshError(
            f"no mesh vertex within {h} mm of inner electrode {far[0] + 1}")
    return {e + 1: int(v) for e, v in enumerate(d.argmin(axis=1))}


def validate_mesh(mesh: Mesh, layout: ProbeLayout) -> None:
    """Raise MeshError unless the mesh is conforming and well-oriented, and
    fills the layout's domain and places each of its electrodes."""
    areas = mesh.triangle_areas()
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshError(f"triangle {bad} has non-positive area {areas[bad]}")

    pairs = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    # each sorted pair read as one int64: unlike a * nv + b, a key no other
    # pair shares (the indices passed the area check, so they fit int32)
    keys = np.sort(pairs, axis=1).astype(np.int32).view(np.int64)
    keys, count = np.unique(keys, return_counts=True)
    mesh_edges = keys.view(np.int32).reshape(-1, 2)
    if np.any(count > 2):
        raise MeshError("edge shared by more than two triangles")
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    boundary = mesh_edges[count == 1]
    if np.any(np.abs(r[boundary] - layout.domain_radius) > 1e-6):
        raise MeshError("boundary edge off the domain circle: mesh has holes")
    # Python int pairs: an electrode edge read from a file may hold any int
    edge_set = set(zip(*mesh_edges.T.tolist()))

    outer = range(FIRST_OUTER, FIRST_OUTER + len(layout.outer_electrodes))
    if (sorted(mesh.inner_vertex) != list(range(1, FIRST_OUTER))
            or sorted(mesh.electrode_edges) != list(outer)):
        raise MeshError(f"electrode ids are not the probe's 1..{outer[-1]}")
    seen: set[tuple[int, int]] = set()
    for e, edges in mesh.electrode_edges.items():
        if len(edges) < 2:
            raise MeshError(f"outer electrode {e} resolved by {len(edges)} edges")
        for a, b in edges:
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise MeshError(f"electrode edge {key} assigned twice")
            if key not in edge_set:
                raise MeshError(f"electrode edge {key} is not a mesh edge")
            seen.add(key)


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------

_LAYOUT_HEADER = "biozpipe-layout v1"
_MESH_HEADER = "biozpipe-mesh v2"

# one section table per text file, as ``read_sections`` reads it
_LAYOUT_SECTIONS = (("domain_radius", float, 0), ("sensing_radius", float, 0),
                    ("inner", float, 2), ("outer", float, 3))
_MESH_SECTIONS = (("vertices", float, 2), ("triangles", int, 3),
                  ("electrode_edges", int, 3), ("inner_vertices", int, 2))


def read_sections(path, header, sections) -> dict:
    """The value or the rows by key of an ASCII file of a ``header`` line
    and ``sections``, in order.  A section ``(key, kind, width)`` is a
    ``<key> <n>`` line and n rows of ``width`` values of type ``kind``;
    width None lets every row have the width of the first, and width 0
    makes it one ``<key> <value>`` line.  Another header is a FormatError;
    a misnamed key, a row of the wrong width or a line left over is a
    ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    lines = [ln.strip() for ln in data.decode("ascii").splitlines()
             if ln.strip()]
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: not a {header} file")
    found, idx = {}, 1
    for key, kind, width in sections:
        words = lines[idx].split() if idx < len(lines) else []
        if len(words) != 2 or words[0] != key:
            raise ValueError(f"expected a {key!r} line, got {words}")
        idx += 1
        if width == 0:
            found[key] = kind(words[1])
            continue
        n = int(words[1])
        rows = [[kind(v) for v in ln.split()] for ln in lines[idx:idx + n]]
        if width is None and rows:
            width = len(rows[0])
        if n < 0 or len(rows) != n or any(len(r) != width for r in rows):
            raise ValueError(f"{key} is not {n} rows of {width} values")
        found[key] = rows
        idx += n
    if idx != len(lines):
        raise ValueError(f"{len(lines) - idx} lines after the last section")
    return found


def write_sections(path, header, sections, found) -> None:
    """Write ``found``, by key, as ``read_sections`` parses it, each value
    as ``repr(kind(v))``."""
    lines = [header]
    for key, kind, width in sections:
        if width == 0:
            lines.append(f"{key} {kind(found[key])!r}")
            continue
        lines.append(f"{key} {len(found[key])}")
        lines.extend(" ".join(repr(kind(v)) for v in row)
                     for row in found[key])
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def _layout_sections(layout: ProbeLayout) -> dict:
    return {"domain_radius": layout.domain_radius,
            "sensing_radius": layout.sensing_radius,
            "inner": layout.inner_electrodes,
            "outer": [(a.start_angle, a.end_angle, a.radius)
                      for a in layout.outer_electrodes]}


def save_layout(layout: ProbeLayout, path) -> None:
    write_sections(path, _LAYOUT_HEADER, _LAYOUT_SECTIONS,
                   _layout_sections(layout))


def load_layout(path) -> ProbeLayout:
    """The probe of a layout file, which must be ``build_probe_layout``'s,
    value for value; a malformed file or another probe is a FormatError."""
    try:
        sec = read_sections(path, _LAYOUT_HEADER, _LAYOUT_SECTIONS)
    except (ValueError, IndexError) as exc:
        raise FormatError(f"{path}: malformed layout file: {exc}") from exc
    probe = build_probe_layout()
    if not all(np.array_equal(sec[key], value)
               for key, value in _layout_sections(probe).items()):
        raise FormatError(f"{path}: not the biozpipe probe")
    return probe


def save_mesh(mesh: Mesh, path) -> None:
    write_sections(path, _MESH_HEADER, _MESH_SECTIONS, {
        "vertices": mesh.vertices, "triangles": mesh.triangles,
        "electrode_edges": [(e, a, b) for e in sorted(mesh.electrode_edges)
                            for a, b in mesh.electrode_edges[e]],
        "inner_vertices": sorted(mesh.inner_vertex.items())})


def load_mesh(path) -> Mesh:
    """Read a mesh file; a malformed or non-conforming mesh, or one that is
    not of the probe's layout, is a FormatError."""
    try:
        sec = read_sections(path, _MESH_HEADER, _MESH_SECTIONS)
        nv = len(sec["vertices"])
        vertices = np.array(sec["vertices"], dtype=float).reshape(nv, 2)
        triangles = np.array(sec["triangles"], dtype=np.int32).reshape(-1, 3)
        electrode_edges: dict[int, list[tuple[int, int]]] = {}
        for e, a, b in sec["electrode_edges"]:
            electrode_edges.setdefault(e, []).append((a, b))
        inner_vertex = {e: v for e, v in sec["inner_vertices"]}
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
        validate_mesh(mesh, build_probe_layout())
    except (ValueError, IndexError, OverflowError, MeshError) as exc:
        # UnicodeDecodeError is a ValueError
        raise FormatError(f"{path}: malformed mesh file: {exc}") from exc
    return mesh
