import csv
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import biozpipe
from biozpipe import datapipe as dp
from biozpipe import geometry as geo
from biozpipe import phantom as phm
from biozpipe.errors import ConfigError, NumericalError

# a run's kernel (1300 centers, 0.15 mm) at a 10% noise target
TEXTURE = phm.RbfNoiseConfig(n_centers=1300, kernel_width=0.15,
                             noise_rel_std=0.10)


@pytest.fixture(scope="module")
def layout():
    return geo.build_probe_layout()


@pytest.fixture(scope="module")
def mesh(layout):
    return geo.build_mesh(layout, 0.3)


class TestRbfNoiseConfig:
    @pytest.mark.parametrize("width", [1e-200, 1e200, 0.0, -1.0])
    def test_width_outside_the_kernels_range_raises(self, width):
        # 1/(2 w^2) would be infinite at 1e-200 and zero at 1e200
        with pytest.raises(ConfigError, match="kernel_width"):
            replace(TEXTURE, kernel_width=width)

    @pytest.mark.parametrize("noise", [1.0, -0.1, float("nan")])
    def test_noise_outside_unit_interval_raises(self, noise):
        with pytest.raises(ConfigError, match="noise_rel_std"):
            replace(TEXTURE, noise_rel_std=noise)


class TestBackground:
    def test_zero_noise_uniform(self, mesh):
        model = phm.TissueModel("t", 126 + 12.76j, 106 + 14.9j)
        rbf = replace(TEXTURE, noise_rel_std=0.0)
        field = phm.synth_background(mesh, model, rbf, seed=1)
        assert np.all(field == 126 + 12.76j)

    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    def test_relative_std_hits_target(self, mesh, seed):
        field = phm.synth_background(mesh, phm.PROSTATE, TEXTURE,
                                     seed=seed)
        rel = np.std(field.real) / abs(phm.PROSTATE.sigma_background)
        assert 0.09 <= rel <= 0.11

    def test_deterministic(self, mesh):
        a = phm.synth_background(mesh, phm.PROSTATE, TEXTURE, seed=5)
        b = phm.synth_background(mesh, phm.PROSTATE, TEXTURE, seed=5)
        assert np.array_equal(a, b)

    def test_real_parts_positive(self, mesh):
        for seed in range(5):
            field = phm.synth_background(mesh, phm.BOVINE, TEXTURE,
                                         seed=seed)
            assert np.all(field.real > 0)

    def test_all_zero_raw_field_raises(self, mesh):
        # one center under a kernel far wider than the domain makes the raw
        # field its weight everywhere: flat, as an all-zero field is, but
        # to rounding only, so its std (about 1e-16 of its magnitude) is
        # rounding noise that the rescale would blow up to the target
        rbf = phm.RbfNoiseConfig(n_centers=1, kernel_width=1e10,
                                 noise_rel_std=0.10)
        with pytest.raises(NumericalError, match="flat"):
            phm.synth_background(mesh, phm.PROSTATE, rbf, seed=3)


def dense_raw(mesh, rbf, seed=0, expanded=True):
    """The raw RBF field from one dense element x center kernel, and the
    kernel's largest entry.

    Squared distances come from the expanded |x|^2 + |c|^2 - 2 x.c matrix
    product, or with ``expanded=False`` from coordinate differences.  The
    expanded form is taken about the origin and cancels: each exponent
    carries an error of about eps * (3 mm)^2 / (2 w^2), which is 1e-12 at
    w = 0.02 mm.  ``synth_background`` also expands, but about the centre
    of each element's block quadrant, which is at most a quarter of the
    block's diagonal away; so narrow kernels compare with the exact
    coordinate differences.
    """
    rng = np.random.default_rng(seed)
    centroids = mesh.centroids()
    domain_r = math.hypot(*mesh.vertices[np.argmax(
        np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))])
    radii = domain_r * np.sqrt(rng.uniform(size=rbf.n_centers))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=rbf.n_centers)
    centers = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    weights = (rng.standard_normal(rbf.n_centers)
               + 1j * rng.standard_normal(rbf.n_centers)) * (1 + 1j)
    if expanded:
        d2 = ((centroids ** 2).sum(axis=1)[:, None]
              + (centers ** 2).sum(axis=1)[None, :]
              - 2.0 * centroids @ centers.T)
    else:
        d2 = ((centroids[:, 0:1] - centers[:, 0]) ** 2
              + (centroids[:, 1:2] - centers[:, 1]) ** 2)
    expo = np.maximum(d2, 0.0) / (2.0 * rbf.kernel_width ** 2)
    kernel = np.exp(-np.minimum(expo, 46.0))
    return kernel @ weights, kernel.max()


def dense_background(mesh, model, rbf, seed=0, expanded=True):
    """The background from ``dense_raw``, rescaled to the noise target."""
    raw, _ = dense_raw(mesh, rbf, seed, expanded)
    target = rbf.noise_rel_std * abs(model.sigma_background)
    return model.sigma_background + raw * (target / float(np.std(raw.real)))


class TestBackgroundReference:
    @pytest.mark.parametrize("edge", [0.3, 0.14])
    @pytest.mark.parametrize("seed", [0, 5, 2024])
    def test_matches_dense_kernel(self, layout, edge, seed):
        mesh = geo.build_mesh(layout, edge)
        got = phm.synth_background(mesh, phm.PROSTATE, TEXTURE, seed=seed)
        want = dense_background(mesh, phm.PROSTATE, TEXTURE, seed=seed)
        # the texture, not the 126 mS/m offset, sets the scale
        texture = want - phm.PROSTATE.sigma_background
        assert np.abs(got - want).max() <= 1e-12 * np.abs(texture).max()

    def test_partial_last_block(self, layout):
        # 840 elements: six full blocks and one of 72 rows
        mesh = geo.build_mesh(layout, 0.3)
        assert mesh.n_triangles % phm._KERNEL_BLOCK_ROWS != 0
        rbf = phm.RbfNoiseConfig(n_centers=37, kernel_width=0.4,
                                 noise_rel_std=0.10)
        got = phm.synth_background(mesh, phm.BOVINE, rbf, seed=11)
        want = dense_background(mesh, phm.BOVINE, rbf, seed=11)
        texture = want - phm.BOVINE.sigma_background
        assert np.abs(got - want).max() <= 1e-12 * np.abs(texture).max()

    @settings(max_examples=60, deadline=None, database=None)
    @given(width=st.floats(0.02, 3.0), n_centers=st.integers(1, 2000),
           seed=st.integers(0, 2 ** 32 - 1))
    # the narrowest kernel, where the expansion cancels most; expanded
    # about each block's centre instead of its quadrants' these two seeds
    # miss the bound (1.3e-12 and 2.1e-12 of the texture)
    @example(width=0.02, n_centers=1300, seed=31)
    @example(width=0.02, n_centers=2000, seed=26)
    def test_bounded_kernel_matches_dense(self, mesh, width, n_centers, seed):
        # The cap radius sqrt(92) * width runs from 0.19 mm, under the
        # element spacing, to beyond the 6 mm domain, where every block
        # selects every center.  Coordinate differences keep the reference
        # exact for narrow kernels (see dense_raw).
        rbf = phm.RbfNoiseConfig(n_centers=n_centers, kernel_width=width,
                                 noise_rel_std=0.10)
        _, peak = dense_raw(mesh, rbf, seed, expanded=False)
        # a kernel that never rises far above its exp(-46) floor makes a
        # texture of rounding noise, which no two summation orders share
        assume(peak > math.exp(-40.0))
        want = dense_background(mesh, phm.BOVINE, rbf, seed, expanded=False)
        if np.any(want.real <= 0):
            with pytest.raises(NumericalError, match="non-positive"):
                phm.synth_background(mesh, phm.BOVINE, rbf, seed=seed)
            return
        got = phm.synth_background(mesh, phm.BOVINE, rbf, seed=seed)
        texture = want - phm.BOVINE.sigma_background
        assert np.abs(got - want).max() <= 1e-12 * np.abs(texture).max()


def fresh_copy(mesh):
    """The same mesh with no background layout built yet."""
    return geo.Mesh(vertices=mesh.vertices, triangles=mesh.triangles,
                    electrode_edges=mesh.electrode_edges,
                    inner_vertex=mesh.inner_vertex)


class TestLayoutMemo:
    """Fields are the same bytes whichever call builds the mesh's layout."""

    SEEDS = [phm.phantom_seed(6, i) for i in range(4)]

    @staticmethod
    def field_bytes(mesh, seed):
        return phm.synth_background(mesh, phm.PROSTATE, TEXTURE,
                                    seed=seed).tobytes()

    def test_loaded_mesh_copy(self, mesh, tmp_path):
        want = [self.field_bytes(fresh_copy(mesh), s) for s in self.SEEDS]
        geo.save_mesh(mesh, tmp_path / "mesh.txt")
        loaded = geo.load_mesh(tmp_path / "mesh.txt")
        assert phm._build_layout not in loaded._memo
        assert [self.field_bytes(loaded, s) for s in self.SEEDS] == want

    def test_threads_race_to_build(self, mesh):
        # more threads than cores, switching often, all past one barrier:
        # each may find the layout missing and build its own
        want = [self.field_bytes(fresh_copy(mesh), s) for s in self.SEEDS]
        copy = fresh_copy(mesh)
        barrier = threading.Barrier(len(self.SEEDS), timeout=60)

        def task(seed):
            barrier.wait()
            return self.field_bytes(copy, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(self.SEEDS)) as pool:
                assert list(pool.map(task, self.SEEDS, timeout=120)) == want
        finally:
            sys.setswitchinterval(interval)


# hash of fields whose near-center counts reach the sizes at which the
# BLAS library splits a product's work differently on 2 threads
_FIELDS_HASH = """
import hashlib
from biozpipe import geometry as geo, phantom as phm
mesh = geo.build_mesh(geo.build_probe_layout(), 0.3)
h = hashlib.sha256()
for width, n_centers in ((0.15, 1300), (0.5, 1300), (3.0, 5000)):
    rbf = phm.RbfNoiseConfig(n_centers=n_centers, kernel_width=width,
                             noise_rel_std=0.10)
    h.update(phm.synth_background(mesh, phm.BOVINE, rbf, seed=4).tobytes())
print(h.hexdigest())
"""


def test_blas_threads_do_not_change_fields():
    src = str(Path(biozpipe.__file__).resolve().parents[1])
    hashes = []
    for blas in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": blas, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", _FIELDS_HASH], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


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

    def test_three_mm_inside_positive(self, layout):
        # a 3 mm inclusion on a probe of twice the size, halved; closed
        # form: pi*0.75^2 / (pi*1.875^2) = 0.16 >= 0.08
        assert phm.label_phantom(phm.Inclusion((0, 0), 1.5), layout) == 1

    def test_two_mm_inside_negative(self, layout):
        # likewise 2 mm, halved: pi*0.5^2 / (pi*1.875^2) = 0.0711 < 0.08
        assert phm.label_phantom(phm.Inclusion((0, 0), 1.0), layout) == 0

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

    @pytest.mark.parametrize("r1, r2, dist, limit", [
        # internally tangent: the cosine rounds past 1
        (0.01, 1.875, 1.8650000000000002, math.pi * 0.01 ** 2),
        # externally tangent: the lens rounds below 0
        (0.5, 1.875, 2.3749999999999996, 0.0),
        # internally tangent: the lens rounds above the small disk
        (1.0, 1.875, 0.8750000000000001, math.pi),
    ])
    def test_overlap_area_at_tangency(self, layout, r1, r2, dist, limit):
        area = phm.disk_overlap_area(r1, r2, dist)
        assert 0.0 <= area <= math.pi * min(r1, r2) ** 2
        assert area == pytest.approx(limit, rel=1e-4, abs=1e-12)
        # label_phantom reaches the same arithmetic from an inclusion
        phm.label_phantom(phm.Inclusion((dist, 0.0), 2 * r1), layout)

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
        phs = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 12,
                                       seed=1, rbf=TEXTURE)
        assert len(phs) == 12
        for p in phs:
            assert p.element_sigma.shape == (mesh.n_triangles,)
            assert np.all(p.element_sigma.real > 0)
            assert p.label == phm.label_phantom(p.inclusion, layout)

    def test_deterministic(self, mesh, layout):
        a = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6,
                                     seed=9, rbf=TEXTURE)
        b = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6,
                                     seed=9, rbf=TEXTURE)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.element_sigma, pb.element_sigma)
            assert pa.inclusion == pb.inclusion

    def test_pool_map_matches_serial(self, mesh, layout):
        serial = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6,
                                          seed=3, rbf=TEXTURE)
        with ThreadPoolExecutor(max_workers=3) as pool:
            pooled = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 6,
                                              seed=3, rbf=TEXTURE,
                                              map=pool.map)
        for a, b in zip(serial, pooled, strict=True):
            assert a.seed == b.seed
            assert np.array_equal(a.element_sigma, b.element_sigma)

    def test_synthesis_failure_names_phantom(self, mesh, layout):
        # 90% noise drives some element's conductivity non-positive
        model = phm.TissueModel("t", 126 + 12.76j, 106 + 14.9j)
        rbf = replace(TEXTURE, noise_rel_std=0.9)
        seed = phm.phantom_seed(4, 0)
        with pytest.raises(NumericalError,
                           match=f"phantom p00000 \\(seed {seed}\\): "
                                 "background noise"):
            phm.generate_phantom_set(mesh, layout, model, 2, seed=4,
                                     rbf=rbf)

    def test_per_phantom_seeds_independent_of_batching(self, mesh, layout):
        # generating a prefix yields the same phantoms as the full set
        full = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 8,
                                        seed=4, rbf=TEXTURE)
        prefix = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3,
                                          seed=4, rbf=TEXTURE)
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

        phs = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 1000,
                                       seed=7, rbf=TEXTURE)
        frac = np.mean([p.label for p in phs])
        # 3-sigma binomial band around the oracle estimate
        band = 3 * math.sqrt(p_oracle * (1 - p_oracle) / 1000)
        assert abs(frac - p_oracle) <= band


class TestPersistence:
    def test_metadata_roundtrip(self, mesh, layout, tmp_path):
        phs = phm.generate_phantom_set(mesh, layout, phm.BOVINE, 5,
                                       seed=2, rbf=TEXTURE)
        path = tmp_path / "meta.csv"
        dp.save_phantom_metadata(phs, path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 5
        for i, (p, row) in enumerate(zip(phs, rows)):
            assert int(row["index"]) == i
            assert int(row["seed"]) == p.seed
            assert int(row["label"]) == p.label
            assert float(row["diameter"]) == p.inclusion.diameter
            assert (float(row["center_x"]),
                    float(row["center_y"])) == p.inclusion.center

    def test_byte_identical_files(self, mesh, layout):
        phs1 = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3,
                                        seed=6, rbf=TEXTURE)
        phs2 = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 3,
                                        seed=6, rbf=TEXTURE)
        assert (phs1[0].element_sigma.tobytes()
                == phs2[0].element_sigma.tobytes())
