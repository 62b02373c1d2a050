import math

import numpy as np
import pytest

from biozpipe import geometry as geo
from biozpipe.errors import ConfigError, FormatError, MeshError


@pytest.fixture(scope="module")
def layout():
    return geo.build_probe_layout()


@pytest.fixture(scope="module")
def mesh(layout):
    return geo.build_mesh(layout, 0.5)


class TestProbeLayout:
    def test_default_counts(self, layout):
        assert len(layout.inner_electrodes) == 25
        assert len(layout.outer_electrodes) == 8

    def test_zero_pitch_rejected(self):
        with pytest.raises(ConfigError):
            geo.build_probe_layout(geo.GeometryConfig(grid_pitch=0.0))

    def test_grid_past_ring_rejected(self):
        # corner radius = pitch * 2 * sqrt(2) must stay inside the ring
        with pytest.raises(ConfigError):
            geo.build_probe_layout(geo.GeometryConfig(grid_pitch=0.9))

    @pytest.mark.parametrize("pitch", [0.75, 0.6])
    def test_nearest_pair_separation_equals_pitch(self, pitch):
        # exhaustive pairwise check over the 25 points
        cfg = geo.GeometryConfig(grid_pitch=pitch)
        pts = geo.build_probe_layout(cfg).inner_electrodes
        best = math.inf
        for i in range(25):
            for j in range(i + 1, 25):
                best = min(best, math.hypot(*(pts[i] - pts[j])))
        assert best == pytest.approx(pitch, abs=1e-12)

    def test_inner_electrodes_inside_ring(self, layout):
        r = np.hypot(layout.inner_electrodes[:, 0], layout.inner_electrodes[:, 1])
        assert r.max() < layout.outer_electrodes[0].radius

    def test_center_electrode_is_13(self, layout):
        assert np.allclose(layout.inner_position(13), [0.0, 0.0])

    def test_sensing_radius_within_domain(self, layout):
        assert layout.sensing_radius <= layout.domain_radius


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
            p = layout.inner_position(e)
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

    def test_conforming(self, mesh):
        counts = {}
        for tri in mesh.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) == 2
        # boundary edges form the outer circle only
        dom = geo.GeometryConfig().domain_radius
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        for (a, b), c in counts.items():
            if c == 1:
                assert r[a] == pytest.approx(dom, abs=1e-9)
                assert r[b] == pytest.approx(dom, abs=1e-9)

    def test_edge_length_validation(self, layout):
        with pytest.raises(ConfigError):
            geo.build_mesh(layout, 0.0)
        with pytest.raises(ConfigError):
            geo.build_mesh(layout, 5.0)  # exceeds electrode extent

    def test_validate_mesh_catches_inversion(self, mesh):
        bad_tris = mesh.triangles.copy()
        bad_tris[0] = bad_tris[0][[0, 2, 1]]
        bad = geo.Mesh(vertices=mesh.vertices, triangles=bad_tris,
                       electrode_edges=mesh.electrode_edges,
                       inner_vertex=mesh.inner_vertex)
        with pytest.raises(MeshError):
            geo.validate_mesh(bad)


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

    def test_mesh_roundtrip(self, mesh, tmp_path):
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        back = geo.load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert back.electrode_edges == mesh.electrode_edges
        assert back.inner_vertex == mesh.inner_vertex

    @pytest.mark.parametrize("case", ["non-ascii", "triangles",
                                      "electrode_edges", "inner_vertices"])
    def test_malformed_mesh_is_format_error(self, mesh, tmp_path, case):
        # non-ASCII, or vertex 999999 as the last index of a section's first row
        path = tmp_path / "mesh.txt"
        geo.save_mesh(mesh, path)
        lines = path.read_bytes().split(b"\n")
        if case == "non-ascii":
            lines[1] += b"\xe9"
        else:
            at = next(k for k, ln in enumerate(lines)
                      if ln.split(b" ")[0] == case.encode()) + 1
            row = lines[at].split(b" ")
            row[-2 if case == "triangles" else -1] = b"999999"
            lines[at] = b" ".join(row)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=str(path)):
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
        with pytest.raises(FormatError, match="not a biozpipe mesh file"):
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
