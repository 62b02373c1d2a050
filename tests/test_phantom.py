import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from biozpipe import geometry as geo
from biozpipe import phantom as phm
from biozpipe.errors import NumericalError


@pytest.fixture(scope="module")
def layout():
    return geo.build_probe_layout()


@pytest.fixture(scope="module")
def mesh(layout):
    return geo.build_mesh(layout, 0.3)


@pytest.fixture(scope="module")
def wide_layout():
    # wider probe used by the closed-form labeling examples below
    return geo.build_probe_layout(geo.GeometryConfig(
        domain_radius=6.0, ring_radius=5.0, grid_pitch=1.5,
        sensing_radius=3.75))


class TestBackground:
    def test_zero_noise_uniform(self, mesh):
        model = phm.TissueModel("t", 126 + 12.76j, 106 + 14.9j, noise_rel_std=0.0)
        field = phm.synth_background(mesh, model, seed=1)
        assert np.all(field == 126 + 12.76j)

    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    def test_relative_std_hits_target(self, mesh, seed):
        field = phm.synth_background(mesh, phm.PROSTATE, seed=seed)
        rel = np.std(field.real) / abs(phm.PROSTATE.sigma_background)
        assert 0.09 <= rel <= 0.11

    def test_deterministic(self, mesh):
        a = phm.synth_background(mesh, phm.PROSTATE, seed=5)
        b = phm.synth_background(mesh, phm.PROSTATE, seed=5)
        assert np.array_equal(a, b)

    def test_real_parts_positive(self, mesh):
        for seed in range(5):
            field = phm.synth_background(mesh, phm.BOVINE, seed=seed)
            assert np.all(field.real > 0)

    def test_all_zero_raw_field_raises(self, mesh):
        # zero weight amplitude makes the raw field identically zero, so
        # the rescaling to the noise target is impossible
        rbf = phm.RbfNoiseConfig(n_centers=4, kernel_width=1.0, amplitude=0.0)
        with pytest.raises(NumericalError):
            phm.synth_background(mesh, phm.PROSTATE, rbf, seed=3)


def dense_background(mesh, model, rbf=phm.RbfNoiseConfig(), seed=0):
    """The background as one dense kernel: expanded squared distances via
    a matrix product, then one complex matrix-vector product."""
    rng = np.random.default_rng(seed)
    centroids = mesh.centroids()
    domain_r = math.hypot(*mesh.vertices[np.argmax(
        np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))])
    radii = domain_r * np.sqrt(rng.uniform(size=rbf.n_centers))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rbf.n_centers)
    centers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    weights = (rng.standard_normal(rbf.n_centers)
               + 1j * rng.standard_normal(rbf.n_centers)) * rbf.amplitude
    d2 = ((centroids ** 2).sum(axis=1)[:, None]
          + (centers ** 2).sum(axis=1)[None, :]
          - 2.0 * centroids @ centers.T)
    expo = np.maximum(d2, 0.0) / (2.0 * rbf.kernel_width ** 2)
    raw = np.exp(-np.minimum(expo, 46.0)) @ weights
    target = model.noise_rel_std * abs(model.sigma_background)
    return model.sigma_background + raw * (target / float(np.std(raw.real)))


class TestBackgroundReference:
    @pytest.mark.parametrize("edge", [0.3, 0.14])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_matches_dense_kernel(self, layout, edge, seed):
        mesh = geo.build_mesh(layout, edge)
        got = phm.synth_background(mesh, phm.PROSTATE, seed=seed)
        want = dense_background(mesh, phm.PROSTATE, seed=seed)
        # the texture, not the 126 mS/m offset, sets the scale
        texture = want - phm.PROSTATE.sigma_background
        assert np.abs(got - want).max() <= 1e-12 * np.abs(texture).max()

    def test_partial_last_block(self, layout):
        # 840 elements: six full blocks and one of 72 rows
        mesh = geo.build_mesh(layout, 0.3)
        assert mesh.n_triangles % phm._KERNEL_BLOCK_ROWS != 0
        rbf = phm.RbfNoiseConfig(n_centers=37, kernel_width=0.4)
        got = phm.synth_background(mesh, phm.BOVINE, rbf, seed=11)
        want = dense_background(mesh, phm.BOVINE, rbf, seed=11)
        texture = want - phm.BOVINE.sigma_background
        assert np.abs(got - want).max() <= 1e-12 * np.abs(texture).max()


class TestInclusion:
    def test_zero_diameter_unchanged(self, mesh):
        field = np.full(mesh.n_triangles, 1 + 1j)
        out = phm.place_inclusion(field, mesh, phm.Inclusion((0, 0), 0.0), 9 + 9j)
        assert np.array_equal(out, field)

    def test_total_replacement(self, mesh):
        field = np.full(mesh.n_triangles, 1 + 1j)
        big = phm.Inclusion((0, 0), 100.0)  # invariant relaxed deliberately
        out = phm.place_inclusion(field, mesh, big, 9 + 9j)
        assert np.all(out == 9 + 9j)

    def test_membership_matches_bruteforce(self, mesh):
        field = np.full(mesh.n_triangles, 1 + 0j)
        inc = phm.Inclusion((0.0, 0.0), 2.0)
        out = phm.place_inclusion(field, mesh, inc, 5 + 0j)
        replaced = set(np.flatnonzero(out == 5 + 0j))
        expected = set()
        for k in range(mesh.n_triangles):
            cx, cy = mesh.vertices[mesh.triangles[k]].mean(axis=0)
            if math.hypot(cx - inc.center[0], cy - inc.center[1]) <= 1.0:
                expected.add(k)
        assert replaced == expected

    def test_idempotent(self, mesh):
        field = np.full(mesh.n_triangles, 1 + 1j)
        inc = phm.Inclusion((0.5, -0.3), 1.7)
        once = phm.place_inclusion(field, mesh, inc, 3 - 1j)
        twice = phm.place_inclusion(once, mesh, inc, 3 - 1j)
        assert np.array_equal(once, twice)


class TestLabel:
    def test_zero_diameter_negative(self, layout):
        assert phm.label_phantom(phm.Inclusion((0, 0), 0.0), layout) == 0

    def test_three_mm_inside_positive(self, wide_layout):
        # closed form: pi*1.5^2 / (pi*3.75^2) = 0.16 >= 0.08
        assert phm.label_phantom(phm.Inclusion((0, 0), 3.0), wide_layout) == 1

    def test_two_mm_inside_negative(self, wide_layout):
        # pi*1.0^2 / (pi*3.75^2) = 0.0711 < 0.08
        assert phm.label_phantom(phm.Inclusion((0, 0), 2.0), wide_layout) == 0

    def test_default_probe_threshold(self, layout):
        # sensing radius 1.875: 8% of the disk corresponds to a fully
        # contained inclusion of diameter 2*sqrt(0.08)*1.875 = 1.0607 mm
        d_star = 2 * math.sqrt(0.08) * layout.sensing_radius
        assert phm.label_phantom(phm.Inclusion((0, 0), d_star + 1e-9), layout) == 1
        assert phm.label_phantom(phm.Inclusion((0, 0), d_star - 1e-6), layout) == 0

    def test_overlap_area_against_quadrature(self):
        # Monte-Carlo/grid oracle for the lens area formula
        rng = np.random.default_rng(8)
        for _ in range(5):
            r1 = rng.uniform(0.3, 2.0)
            r2 = 3.75
            dist = rng.uniform(0.0, r1 + r2 + 0.5)
            exact = phm.disk_overlap_area(r1, r2, dist)
            xs = np.linspace(dist - r1, dist + r1, 2001)
            dx = xs[1] - xs[0]
            area = 0.0
            for x in xs:
                half1 = math.sqrt(max(0.0, r1 * r1 - (x - dist) ** 2))
                half2 = math.sqrt(max(0.0, r2 * r2 - x * x)) if abs(x) <= r2 else 0.0
                area += 2.0 * min(half1, half2) * dx
            assert exact == pytest.approx(area, abs=2e-3)

    def test_monotone_in_diameter(self, layout):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r = layout.sensing_radius * math.sqrt(rng.uniform())
            a = rng.uniform(0, 2 * math.pi)
            center = (r * math.cos(a), r * math.sin(a))
            d1, d2 = sorted(rng.uniform(0, 3, size=2))
            if phm.label_phantom(phm.Inclusion(center, d1), layout) == 1:
                assert phm.label_phantom(phm.Inclusion(center, d2), layout) == 1


class TestGeneration:
    def test_counts(self, mesh, layout):
        phs = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 12, seed=1)
        assert len(phs) == 12
        for p in phs:
            assert p.element_sigma.shape == (mesh.n_triangles,)
            assert np.all(p.element_sigma.real > 0)
            assert p.label == phm.label_phantom(p.inclusion, layout)

    def test_deterministic(self, mesh, layout):
        a = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6, seed=9)
        b = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6, seed=9)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.element_sigma, pb.element_sigma)
            assert pa.inclusion == pb.inclusion

    def test_pool_map_matches_serial(self, mesh, layout):
        serial = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6, seed=3)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6,
                                              seed=3, map=pool.map)
        for a, b in zip(serial, pooled, strict=True):
            assert a.seed == b.seed
            assert np.array_equal(a.element_sigma, b.element_sigma)

    def test_synthesis_failure_names_phantom(self, mesh, layout):
        # 90% noise drives some element's conductivity non-positive
        model = phm.TissueModel("t", 126 + 12.76j, 106 + 14.9j,
                                noise_rel_std=0.9)
        seed = phm.phantom_seed(4, 0)
        with pytest.raises(NumericalError,
                           match=f"phantom p00000 \\(seed {seed}\\): "
                                 "background noise"):
            phm.generate_phantom_set(mesh, layout, model, 2, seed=4)

    def test_per_phantom_seeds_independent_of_batching(self, mesh, layout):
        # generating a prefix yields the same phantoms as the full set
        full = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 8, seed=4)
        prefix = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3, seed=4)
        for pa, pb in zip(prefix, full[:3]):
            assert pa.seed == pb.seed
            assert np.array_equal(pa.element_sigma, pb.element_sigma)

    def test_positive_fraction_matches_geometric_oracle(self, mesh, layout):
        # Independent Monte-Carlo oracle of the 8%-rule acceptance
        # probability under the stated sampling: diameter ~ U[0, 3],
        # center area-uniform on the sensing disk.  For the default
        # probe the oracle gives ~0.62, inside the expected near-balance
        # band; the generator must agree within Monte-Carlo error.
        rng = np.random.default_rng(123)
        n_mc = 200_000
        d = rng.uniform(0, 3, n_mc)
        r = layout.sensing_radius * np.sqrt(rng.uniform(size=n_mc))
        hits = 0
        threshold = 0.08 * math.pi * layout.sensing_radius ** 2
        for k in range(n_mc):
            if phm.disk_overlap_area(d[k] / 2, layout.sensing_radius, r[k]) >= threshold:
                hits += 1
        p_oracle = hits / n_mc
        assert 0.35 <= p_oracle <= 0.65  # near-balance under the default probe

        phs = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 1000, seed=7)
        frac = np.mean([p.label for p in phs])
        # 3-sigma binomial band around the oracle estimate
        band = 3 * math.sqrt(p_oracle * (1 - p_oracle) / 1000)
        assert abs(frac - p_oracle) <= band


class TestPersistence:
    def test_conductivity_roundtrip(self, mesh, tmp_path):
        sigma = np.arange(mesh.n_triangles) * (0.5 + 0.25j) + 1.0
        path = tmp_path / "p.cond"
        phm.save_conductivity(sigma, path)
        back = phm.load_conductivity(path)
        assert np.array_equal(back, sigma)

    def test_metadata_roundtrip(self, mesh, layout, tmp_path):
        phs = phm.generate_phantom_set(mesh, layout, phm.BOVINE, 5, seed=2)
        path = tmp_path / "meta.csv"
        phm.save_phantom_metadata(phs, path)
        rows = phm.load_phantom_metadata(path)
        assert len(rows) == 5
        for p, row in zip(phs, rows):
            assert row["seed"] == p.seed
            assert row["label"] == p.label
            assert row["diameter"] == p.inclusion.diameter
            assert row["center"] == p.inclusion.center

    def test_byte_identical_files(self, mesh, layout, tmp_path):
        phs1 = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3, seed=6)
        phs2 = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3, seed=6)
        f1, f2 = tmp_path / "a.cond", tmp_path / "b.cond"
        phm.save_conductivity(phs1[0].element_sigma, f1)
        phm.save_conductivity(phs2[0].element_sigma, f2)
        assert f1.read_bytes() == f2.read_bytes()
