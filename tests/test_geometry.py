import hashlib
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from biozpipe import geometry as geo
from biozpipe.errors import ConfigError, FormatError, MeshError


# SHA-256 of build_mesh's output on the default probe (see mesh_digest),
# recorded at commit e04a617
MESH_DIGESTS = {
    0.5: "0bc6a3072fbebe30fdfb550fc456d20d27ac465329c2c82cd3438e32a9c3f654",
    0.3: "424413639f3a3b9ed66bbb8242a6957ee8a25a86e2f47fbcf8f9f12d32010043",
    0.14: "48a0fee74f9de777511cb35d83e26534a4746514e16119d94cbade1637585748",
}


def mesh_digest(mesh):
    h = hashlib.sha256()
    for array in (mesh.vertices, mesh.triangles):
        h.update(array.dtype.str.encode() + array.tobytes())
    h.update(repr(sorted(mesh.electrode_edges.items())).encode())
    h.update(repr(sorted(mesh.inner_vertex.items())).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def layout():
    return geo.build_probe_layout()


@pytest.fixture(scope="module")
def mesh(layout):
    return geo.build_mesh(layout, 0.5)


def assert_refused(layout, path):
    """``load_layout`` refuses ``layout`` as written by ``save_layout``."""
    geo.save_layout(layout, path)
    with pytest.raises(FormatError,
                       match=re.escape(f"{path}: not the biozpipe probe")):
        geo.load_layout(path)


class TestProbeLayout:
    def test_default_counts(self, layout):
        assert len(layout.inner_electrodes) == 25
        assert len(layout.outer_electrodes) == 8

    # the probe's dimensions are constants, and load_layout refuses a
    # geometry.txt that holds any other probe, such as these faulty ones
    def test_zero_pitch_rejected(self, layout, tmp_path):
        flat = replace(layout, inner_electrodes=0.0 * layout.inner_electrodes)
        assert_refused(flat, tmp_path / "probe.txt")

    def test_grid_past_ring_rejected(self, layout, tmp_path):
        # at pitch 0.9 the corner radius 0.9 * 2 * sqrt(2) = 2.55 mm lies
        # past the 2.5 mm ring
        wide = replace(layout, inner_electrodes=1.2 * layout.inner_electrodes)
        assert_refused(wide, tmp_path / "probe.txt")

    def test_arc_off_the_ring_rejected(self, layout, tmp_path):
        arcs = layout.outer_electrodes
        off = replace(layout, outer_electrodes=(
            *arcs[:-1], replace(arcs[-1], radius=2.0)))
        assert_refused(off, tmp_path / "probe.txt")

    def test_ring_past_domain_rejected(self, layout, tmp_path):
        assert_refused(replace(layout, domain_radius=2.0),
                       tmp_path / "probe.txt")

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), 3.5])
    def test_sensing_radius_off_domain_rejected(self, layout, tmp_path,
                                                radius):
        assert_refused(replace(layout, sensing_radius=radius),
                       tmp_path / "probe.txt")

    @pytest.mark.parametrize("field", ["inner", "outer", "domain_radius"])
    def test_non_finite_value_rejected(self, layout, tmp_path, field):
        bad = {"inner": np.vstack([[math.nan, 1.5],
                                   layout.inner_electrodes[1:]]),
               "outer": (*layout.outer_electrodes[:-1],
                         geo.Arc(math.nan, math.nan, 2.5)),
               "domain_radius": math.inf}[field]
        key = {"inner": "inner_electrodes",
               "outer": "outer_electrodes"}.get(field, field)
        assert_refused(replace(layout, **{key: bad}), tmp_path / "probe.txt")

    @pytest.mark.parametrize("width", [0.0, -0.35])
    def test_arc_without_positive_width_rejected(self, layout, tmp_path,
                                                 width):
        arcs = layout.outer_electrodes
        start = arcs[-1].start_angle
        bad = replace(layout, outer_electrodes=(
            *arcs[:-1], replace(arcs[-1], end_angle=start + width)))
        assert_refused(bad, tmp_path / "probe.txt")

    def test_ring_on_domain_edge_meshes(self, layout):
        edge = replace(layout, domain_radius=geo.RING_RADIUS_MM)
        assert geo.build_mesh(edge, 0.3).n_triangles == 596

    def test_arcs_disjoint_and_values_finite(self, layout):
        # with the other tests of this class: the layout invariants that
        # the mesher and the labeling rely on hold for the constants
        arcs = np.array([(a.start_angle, a.end_angle, a.radius)
                         for a in layout.outer_electrodes])
        assert np.all(np.isfinite(arcs))
        assert np.all(np.isfinite(layout.inner_electrodes))
        assert np.isfinite([layout.sensing_radius, layout.domain_radius]).all()
        assert np.all(arcs[:, 1] > arcs[:, 0])
        # in angular order, each arc ends before the next one starts, and
        # the last before the first's start one turn on
        start, end = arcs[np.argsort(arcs[:, 0]), :2].T
        assert np.all(end < np.append(start[1:], start[0] + 2 * math.pi))

    @pytest.mark.parametrize("pitch", [geo.GRID_PITCH_MM])
    def test_nearest_pair_separation_equals_pitch(self, layout, pitch):
        # exhaustive pairwise check over the 25 points
        pts = layout.inner_electrodes
        best = math.inf
        for i in range(25):
            for j in range(i + 1, 25):
                best = min(best, math.hypot(*(pts[i] - pts[j])))
        assert best == pytest.approx(pitch, abs=1e-12)

    def test_inner_electrodes_inside_ring(self, layout):
        ring = layout.outer_electrodes[0].radius
        assert all(a.radius == ring for a in layout.outer_electrodes)
        r = np.hypot(layout.inner_electrodes[:, 0], layout.inner_electrodes[:, 1])
        assert r.max() < ring

    def test_center_electrode_is_13(self, layout):
        assert np.allclose(layout.inner_electrodes[13 - 1], [0.0, 0.0])

    def test_sensing_radius_within_domain(self, layout):
        assert 0 < layout.sensing_radius <= layout.domain_radius
        assert layout.outer_electrodes[0].radius <= layout.domain_radius


class TestCurrentPatterns:
    def test_28_patterns_first_last(self, layout):
        pats = geo.enumerate_current_patterns(layout)
        assert len(pats) == 28
        assert (pats[0].source, pats[0].sink) == (26, 27)
        assert (pats[-1].source, pats[-1].sink) == (32, 33)

    def test_amplitude_half_ma(self, layout):
        assert all(p.amplitude == 0.5 for p in geo.enumerate_current_patterns(layout))

    def test_small_rings(self, layout):
        # hypothetical rings exercise the n-choose-2 counting
        for n, expect in ((2, 1), (5, 10)):
            fake = geo.ProbeLayout(
                inner_electrodes=layout.inner_electrodes,
                outer_electrodes=layout.outer_electrodes[:n],
                sensing_radius=layout.sensing_radius,
                domain_radius=layout.domain_radius,
            )
            assert len(geo.enumerate_current_patterns(fake)) == expect

    def test_deterministic_and_balanced(self, layout):
        p1 = geo.enumerate_current_patterns(layout)
        p2 = geo.enumerate_current_patterns(layout)
        assert p1 == p2
        # each electrode appears in exactly 7 patterns; totals balance
        appearances = {e: 0 for e in range(26, 34)}
        n_src = n_snk = 0
        for p in p1:
            appearances[p.source] += 1
            appearances[p.sink] += 1
            n_src += 1
            n_snk += 1
        assert all(v == 7 for v in appearances.values())
        assert n_src == n_snk

    def test_ordering_lexicographic(self, layout):
        pats = geo.enumerate_current_patterns(layout)
        keys = [(p.source, p.sink) for p in pats]
        assert keys == sorted(keys)
        assert all(p.source < p.sink for p in pats)


class TestMesh:
    def test_positive_areas(self, mesh):
        assert np.all(mesh.triangle_areas() > 0)

    def test_refinement_triples_count(self, layout):
        coarse = geo.build_mesh(layout, 0.6)
        fine = geo.build_mesh(layout, 0.3)
        assert fine.n_triangles >= 3 * coarse.n_triangles

    def test_all_electrodes_covered(self, mesh):
        assert sorted(mesh.electrode_edges) == list(range(26, 34))
        for e in range(26, 34):
            assert len(mesh.electrode_edges[e]) >= 2
        assert sorted(mesh.inner_vertex) == list(range(1, 26))

    def test_inner_vertices_exact(self, layout, mesh):
        for e in range(1, 26):
            p = layout.inner_electrodes[e - 1]
            v = mesh.vertices[mesh.inner_vertex[e]]
            assert math.hypot(*(v - p)) < 1e-9

    def test_electrode_edges_disjoint(self, mesh):
        seen = set()
        for edges in mesh.electrode_edges.values():
            for a, b in edges:
                key = (min(a, b), max(a, b))
                assert key not in seen
                seen.add(key)

    def test_deterministic(self, layout):
        m1 = geo.build_mesh(layout, 0.5)
        m2 = geo.build_mesh(layout, 0.5)
        assert np.array_equal(m1.vertices, m2.vertices)
        assert np.array_equal(m1.triangles, m2.triangles)
        assert m1.electrode_edges == m2.electrode_edges

    @pytest.mark.parametrize("h", sorted(MESH_DIGESTS))
    def test_mesh_bytes_pinned(self, layout, h):
        assert mesh_digest(geo.build_mesh(layout, h)) == MESH_DIGESTS[h]

    def test_conforming(self, mesh):
        counts = {}
        for tri in mesh.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) == 2
        # boundary edges form the outer circle only
        dom = geo.DOMAIN_RADIUS_MM
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        for (a, b), c in counts.items():
            if c == 1:
                assert r[a] == pytest.approx(dom, abs=1e-9)
                assert r[b] == pytest.approx(dom, abs=1e-9)

    def test_edge_length_validation(self, layout):
        with pytest.raises(ConfigError, match="0.0 is below its bound"):
            geo.build_mesh(layout, 0.0)
        with pytest.raises(ConfigError, match="extent 0.875 mm"):
            geo.build_mesh(layout, 5.0)  # exceeds electrode extent

    def test_rings_bounded_by_the_default_probe(self, layout, monkeypatch):
        # the smallest edge the bound allows reaches the ring builder
        class Rings(Exception):
            pass

        def rings(*_):
            raise Rings

        monkeypatch.setattr(geo, "_ring_radii", rings)
        with pytest.raises(Rings):
            geo.build_mesh(layout, geo.MIN_MESH_EDGE_MM)

    def test_validate_mesh_catches_inversion(self, mesh, layout):
        bad_tris = mesh.triangles.copy()
        bad_tris[0] = bad_tris[0][[0, 2, 1]]
        bad = geo.Mesh(vertices=mesh.vertices, triangles=bad_tris,
                       electrode_edges=mesh.electrode_edges,
                       inner_vertex=mesh.inner_vertex)
        with pytest.raises(MeshError):
            geo.validate_mesh(bad, layout)


class TestDerived:
    def test_racing_threads_share_the_first_result(self, mesh):
        fresh = geo.Mesh(vertices=mesh.vertices, triangles=mesh.triangles,
                         electrode_edges=mesh.electrode_edges,
                         inner_vertex=mesh.inner_vertex)
        barrier = threading.Barrier(4, timeout=60)

        def build(m):
            # every thread builds before any result is stored
            barrier.wait()
            return object()

        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: fresh.derived(build), range(4),
                                timeout=120))
        assert all(g is got[0] for g in got)
        assert fresh.derived(build) is got[0]


class TestSerialization:
    def test_layout_roundtrip(self, layout, tmp_path):
        path = tmp_path / "layout.txt"
        geo.save_layout(layout, path)
        back = geo.load_layout(path)
        assert np.array_equal(back.inner_electrodes, layout.inner_electrodes)
        assert back.outer_electrodes == layout.outer_electrodes
        assert back.sensing_radius == layout.sensing_radius

    def test_layout_roundtrip_numpy_scalars(self, layout, tmp_path):
        # NumPy >= 2 reprs scalars as "np.float64(...)"; the file must
        # still hold plain numbers
        arcs = tuple(geo.Arc(np.float64(a.start_angle),
                             np.float64(a.end_angle), np.float64(a.radius))
                     for a in layout.outer_electrodes)
        np_layout = geo.ProbeLayout(
            inner_electrodes=layout.inner_electrodes, outer_electrodes=arcs,
            sensing_radius=np.float64(layout.sensing_radius),
            domain_radius=np.float64(layout.domain_radius))
        path = tmp_path / "layout.txt"
        geo.save_layout(np_layout, path)
        assert "np." not in path.read_text()
        back = geo.load_layout(path)
        assert np.array_equal(back.inner_electrodes, layout.inner_electrodes)
        assert back.outer_electrodes == layout.outer_electrodes
        assert back.sensing_radius == layout.sensing_radius
        assert back.domain_radius == layout.domain_radius

    @pytest.mark.parametrize("case", ["wide-arc", "sensing_radius",
                                      "domain_radius"])
    def test_other_probe_is_format_error(self, layout, tmp_path, case):
        # a last arc 7 rad wide used to pass and mesh
        other = {"wide-arc": {"outer_electrodes": (
                     *layout.outer_electrodes[:-1], geo.Arc(5.3, 12.3, 2.5))},
                 "sensing_radius": {"sensing_radius": 2.25},
                 "domain_radius": {"domain_radius": 40.0}}[case]
        assert_refused(replace(layout, **other), tmp_path / "probe.txt")

    def test_mesh_roundtrip(self, mesh, tmp_path):
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        back = geo.load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert back.electrode_edges == mesh.electrode_edges
        assert back.inner_vertex == mesh.inner_vertex

    @pytest.mark.parametrize("case", ["non-ascii", "triangles",
                                      "electrode_edges", "inner_vertices",
                                      "vertices-key", "trailing-line",
                                      "hole", "no-inner-13", "no-outer-33",
                                      "edge-twice", "outer-26-one-edge"])
    def test_malformed_mesh_is_format_error(self, mesh, tmp_path, case):
        # non-ASCII, vertex 999999 as the last index of a section's first
        # row, the vertices count under another key, a line past the end,
        # or a well-formed mesh that is not the probe's: one triangle short,
        # no vertex for inner electrode 13, no edges for outer electrode 33,
        # outer electrode 26's first edge listed twice, or only that edge
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        lines = path.read_bytes().split(b"\n")
        if case == "non-ascii":
            lines[1] += b"\xe9"
        elif case == "vertices-key":
            lines[1] = lines[1].replace(b"vertices", b"triangles")
        elif case == "trailing-line":
            lines.append(b"1 2")
        elif case in ("hole", "no-inner-13", "no-outer-33"):
            key, electrode = {"hole": (b"triangles", None),
                              "no-inner-13": (b"inner_vertices", b"13"),
                              "no-outer-33": (b"electrode_edges", b"33")}[case]
            at = next(k for k, ln in enumerate(lines)
                      if ln.split(b" ")[0] == key)
            rows = lines[at + 1:at + 1 + int(lines[at].split()[1])]
            kept = (rows[:-1] if electrode is None
                    else [r for r in rows if r.split()[0] != electrode])
            lines[at:at + 1 + len(rows)] = [b"%s %d" % (key, len(kept)), *kept]
        elif case in ("edge-twice", "outer-26-one-edge"):
            at = next(k for k, ln in enumerate(lines)
                      if ln.split(b" ")[0] == b"electrode_edges")
            rows = lines[at + 1:at + 1 + int(lines[at].split()[1])]
            kept = rows[:1] + (rows if case == "edge-twice" else
                               [r for r in rows if r.split()[0] != b"26"])
            lines[at:at + 1 + len(rows)] = [b"electrode_edges %d" % len(kept),
                                            *kept]
        else:
            at = next(k for k, ln in enumerate(lines)
                      if ln.split(b" ")[0] == case.encode()) + 1
            row = lines[at].split(b" ")
            row[-2 if case == "triangles" else -1] = b"999999"
            lines[at] = b" ".join(row)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=str(path)):
            geo.load_mesh(path)

    def test_electrode_edge_past_the_vertices_is_format_error(self, mesh,
                                                              tmp_path):
        # keyed as a * nv + b, (a - 1, nv + c) would pass for mesh edge (a, c)
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        lines = path.read_text().split("\n")
        at = next(k for k, ln in enumerate(lines)
                  if ln.startswith("electrode_edges ")) + 1
        e, a, c = (int(v) for v in lines[at].split())
        a, c = min(a, c), max(a, c)
        lines[at] = f"{e} {a - 1} {mesh.n_vertices + c}"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="is not a mesh edge"):
            geo.load_mesh(path)

    def test_v1_mesh_is_format_error(self, mesh, tmp_path):
        # format v1 carried a region tag as a fourth column of each triangle
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        lines = path.read_text().split("\n")
        lines[0] = "biozpipe-mesh v1"
        at = lines.index(f"triangles {mesh.n_triangles}") + 1
        for k in range(at, at + mesh.n_triangles):
            lines[k] += " 0"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="not a biozpipe-mesh v2 file"):
            geo.load_mesh(path)
        lines[0] = "biozpipe-mesh v2"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="malformed mesh file"):
            geo.load_mesh(path)

    def test_mesh_file_deterministic(self, mesh, tmp_path):
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        geo.save_mesh(mesh, p1)
        geo.save_mesh(mesh, p2)
        assert p1.read_bytes() == p2.read_bytes()
