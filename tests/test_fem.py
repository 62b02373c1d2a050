import os
import struct
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

import biozpipe
from biozpipe import datapipe, fem
from biozpipe import geometry as geo
from biozpipe import phantom as phm
from biozpipe.errors import FormatError, SolverError
from biozpipe.phantom import Inclusion, Phantom

# a run's contact impedance (ohm mm) and kernel, at a 10% noise target
Z = 10.0
TEXTURE = phm.RbfNoiseConfig(n_centers=1300, kernel_width=0.15,
                             noise_rel_std=0.10)


@pytest.fixture(scope="module")
def layout():
    return geo.build_probe_layout()


@pytest.fixture(scope="module")
def mesh(layout):
    return geo.build_mesh(layout, 0.5)


@pytest.fixture(scope="module")
def uniform_system(mesh):
    sigma = np.full(mesh.n_triangles, 126.0 + 12.76j)
    return fem.assemble(mesh, sigma, contact_impedance=Z)


def hand_mesh():
    """Single right triangle with unit legs."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]], dtype=np.int32)
    return geo.Mesh(vertices=verts, triangles=tris, electrode_edges={},
                    inner_vertex={})


def galerkin_stiffness(mesh, element_sigma):
    """Reference P1 stiffness for div(sigma * t * grad u) over the vertices.

    Triangle (p_0, p_1, p_2) adds sheet conductance * (b_i b_j + c_i c_j) /
    (4 A) at (i, j), with b_i = y_j - y_k and c_i = x_k - x_j over the
    cyclic (i, j, k).  As in ``fem``, sigma multiplies the values per unit
    conductivity last.  Rounded any other way, other sums cancel to exactly
    zero, and the L+U fill that ``test_matches_reference_assembly``
    compares differed by one entry on the h = 0.5 bovine cases."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[..., 0], p[..., 1]
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    # per unit conductivity: mS/m times the slice thickness in mm -> S
    coef = fem.SLICE_THICKNESS_MM * 1e-6 / (4.0 * mesh.triangle_areas())
    local = coef[:, None, None] * (b[:, :, None] * b[:, None, :]
                                   + c[:, :, None] * c[:, None, :])
    local = np.asarray(element_sigma, dtype=complex)[:, None, None] * local
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    nv = mesh.n_vertices
    return coo_matrix((local.reshape(-1), (rows, cols)),
                      shape=(nv, nv)).tocsc()


def frame_record(n_pat=28, n_el=25, pid=b"x"):
    """Bytes of one all-zero frame record with the given header fields."""
    return (b"BZFR" + struct.pack("<IIIH", 1, n_pat, n_el, len(pid)) + pid
            + bytes(16 * n_pat * n_el))


class TestAssembly:
    def test_single_triangle_matches_hand_computation(self):
        # P1 stiffness of the unit right triangle with sheet conductance s:
        # K = s/2 * [[2, -1, -1], [-1, 1, 0], [-1, 0, 1]]
        mesh = hand_mesh()
        sigma = np.array([100.0 + 0j])  # mS/m
        K = galerkin_stiffness(mesh, sigma).toarray()
        s = 100.0 * 5.0 * 1e-6
        expected = s / 2.0 * np.array([[2.0, -1.0, -1.0],
                                       [-1.0, 1.0, 0.0],
                                       [-1.0, 0.0, 1.0]])
        assert np.allclose(K, expected, atol=1e-18)

    def test_symmetric(self, uniform_system):
        A = uniform_system.stiffness
        assert abs(A - A.T).max() == 0.0

    def test_interior_block_is_galerkin(self, mesh):
        sigma = np.full(mesh.n_triangles, 126.0 + 12.76j)
        system = fem.assemble(mesh, sigma, contact_impedance=Z)
        K = galerkin_stiffness(mesh, sigma)
        nv = mesh.n_vertices
        interior = system.stiffness[:nv, :nv]
        # contact terms only touch ring vertices; compare away from them
        ring_nodes = {v for edges in mesh.electrode_edges.values()
                      for e in edges for v in e}
        free = sorted(set(range(nv)) - ring_nodes)
        sub = (interior - K)[np.ix_(free, free)]
        assert abs(sub).max() < 1e-15

    def test_doubling_material_doubles_matrix(self, mesh):
        sigma = np.full(mesh.n_triangles, 50.0 + 5.0j)
        a1 = fem.assemble(mesh, sigma, contact_impedance=10.0)
        a2 = fem.assemble(mesh, 2 * sigma, contact_impedance=5.0)
        diff = abs(a2.stiffness - 2 * a1.stiffness).max()
        assert diff < 1e-12

    def test_rejects_nonpositive_conductivity(self, mesh):
        # a non-finite one is named before the factorization
        for bad, fault in ((-1.0, "positive"), (np.nan, "finite"),
                           (np.inf, "finite"),
                           (complex(100.0, np.inf), "finite")):
            sigma = np.full(mesh.n_triangles, 100.0 + 0j)
            sigma[3] = bad
            with pytest.raises(SolverError, match=fault):
                fem.assemble(mesh, sigma, contact_impedance=Z)

    def test_rejects_wrong_length(self, mesh):
        with pytest.raises(SolverError):
            fem.assemble(mesh, np.ones(5, dtype=complex), contact_impedance=Z)

    @pytest.mark.parametrize("z, fault", [
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        # a real part that is not positive breaks LU without pivoting
        (-10.0, "real part"),
    ])
    def test_rejects_malformed_contact_impedance(self, mesh, z, fault):
        # named before any arithmetic: no broadcasting error, no warning
        # from 1/z and no singular factor
        sigma = np.full(mesh.n_triangles, 100.0 + 0j)
        with pytest.raises(SolverError, match=fault):
            fem.assemble(mesh, sigma, contact_impedance=z)


class TestSolve:
    def test_grounded_mean_and_conservation(self, uniform_system, layout):
        pats = geo.enumerate_current_patterns(layout)
        for pat in pats[::7]:
            (U,), (inner,) = fem.solve_pattern(uniform_system, [pat])
            assert abs(U.sum()) < 1e-9
            rhs = np.zeros(uniform_system.n_vertices + 8, dtype=complex)
            rhs[uniform_system.n_vertices + (pat.source - 26)] = pat.amplitude
            rhs[uniform_system.n_vertices + (pat.sink - 26)] = -pat.amplitude
            x = uniform_system.lu.solve(rhs)
            currents = fem.electrode_currents(uniform_system, x)
            expected = np.zeros(8, dtype=complex)
            expected[pat.source - 26] = pat.amplitude
            expected[pat.sink - 26] = -pat.amplitude
            assert np.abs(currents - expected).max() <= 1e-10 * pat.amplitude

    def test_conductivity_scaling_halves_voltages(self, mesh, layout):
        sigma = np.full(mesh.n_triangles, 126.0 + 12.76j)
        s1 = fem.assemble(mesh, sigma, contact_impedance=10.0)
        s2 = fem.assemble(mesh, 2 * sigma, contact_impedance=5.0)
        pat = geo.enumerate_current_patterns(layout)[4]
        _, (v1,) = fem.solve_pattern(s1, [pat])
        _, (v2,) = fem.solve_pattern(s2, [pat])
        assert np.max(np.abs(v2 - 0.5 * v1) / np.abs(0.5 * v1)) <= 1e-10

    def test_reciprocity(self, uniform_system, mesh, layout):
        pat = geo.enumerate_current_patterns(layout)[0]  # (26, 27)
        _, (inner,) = fem.solve_pattern(uniform_system, [pat])
        m_forward = inner[0] - inner[1]  # potential across electrodes 1, 2
        # reverse experiment: the same current between the two inner
        # electrodes' vertices, read across outer electrodes 26 and 27
        nv = uniform_system.n_vertices
        rhs = np.zeros(nv + 8, dtype=complex)
        rhs[mesh.inner_vertex[1]] = pat.amplitude
        rhs[mesh.inner_vertex[2]] = -pat.amplitude
        x = uniform_system.lu.solve(rhs)
        m_reverse = x[nv + 0] - x[nv + 1]
        assert abs(m_forward - m_reverse) / abs(m_forward) <= 1e-8


def simulate(phantom, mesh, layout, z=Z):
    """``fem.simulate_frame`` named after the phantom's seed."""
    return fem.simulate_frame(phantom, mesh, layout, contact_impedance=z,
                              phantom_id=f"seed{phantom.seed}")


def single_solve_frame(system, layout, lu=None):
    """28 x 25 frame from one solve per pattern, through ``lu`` (the
    system's own factorization by default)."""
    lu = system.lu if lu is None else lu
    nv = system.n_vertices
    pats = geo.enumerate_current_patterns(layout)
    frame = np.empty((len(pats), 25), dtype=complex)
    for i, pat in enumerate(pats):
        rhs = np.zeros(nv + 8, dtype=complex)
        rhs[nv + system.electrode_order.index(pat.source)] = pat.amplitude
        rhs[nv + system.electrode_order.index(pat.sink)] = -pat.amplitude
        frame[i] = lu.solve(rhs)[system.operator.inner_vertices]
    return frame


class TestSuperposition:
    def test_frame_matches_single_pattern_solves(self, mesh, layout):
        ph = phm.make_phantom(mesh, layout, phm.PROSTATE,
                              seed=phm.phantom_seed(4, 0), rbf=TEXTURE)
        frame = simulate(ph, mesh, layout).voltages
        system = fem.assemble(mesh, ph.element_sigma, contact_impedance=Z)
        want = single_solve_frame(system, layout)
        assert np.abs(frame - want).max() <= 1e-13 * np.abs(want).max()

    def test_unpivoted_lu_on_high_contrast(self, mesh, layout):
        # bovine contrast (adipose inclusion in muscle, 14x) and a complex
        # contact impedance: the symmetric-mode LU takes diagonal pivots
        # without row interchanges, and must still conserve current and
        # agree with SuperLU's default partial pivoting
        bg = phm.synth_background(mesh, phm.BOVINE, TEXTURE, seed=9)
        inc = Inclusion((0.4, -0.3), 2.5)
        sigma = phm.place_inclusion(bg, mesh, inc,
                                    phm.BOVINE.sigma_inclusion)
        z = 10.0 + 3.0j
        system = fem.assemble(mesh, sigma, contact_impedance=z)
        nv = system.n_vertices
        for pat in geo.enumerate_current_patterns(layout):
            injected = np.zeros(8, dtype=complex)
            injected[system.electrode_order.index(pat.source)] = pat.amplitude
            injected[system.electrode_order.index(pat.sink)] = -pat.amplitude
            x = system.lu.solve(np.concatenate([np.zeros(nv), injected]))
            currents = fem.electrode_currents(system, x)
            assert np.abs(currents - injected).max() <= 1e-10 * pat.amplitude

        # the grounding term of assemble, rebuilt for a pivoting LU
        alpha = abs(system.stiffness.diagonal()[:nv]).mean()
        el = np.arange(nv, nv + 8)
        ground = coo_matrix((np.full(64, alpha), (np.repeat(el, 8),
                                                  np.tile(el, 8))),
                            shape=system.stiffness.shape)
        pivoting = splu((system.stiffness + ground).tocsc())
        want = single_solve_frame(system, layout, pivoting)
        frame = simulate(Phantom(sigma, inc, 1, 0), mesh, layout, z).voltages
        assert np.abs(frame - want).max() <= 1e-10 * np.abs(want).max()


def reference_assemble(mesh, element_sigma, contact_impedance=10.0):
    """Reference for ``fem.assemble``: the CEM system assembled from COO
    triplets for this phantom alone, with no per-mesh operator.  Returns
    the ungrounded matrix ``stiffness``, its grounded ``lu`` (symmetric
    mode, ``MMD_AT_PLUS_A`` ordering) and the unit-electrode responses.

    The triplets become a matrix in one conversion, which keeps an entry
    that sums to zero (the cotangent weights of a uniform patch often do).
    A sparse sum would drop it, and with it change the ordering."""
    electrodes = tuple(sorted(mesh.electrode_edges))
    n_el = len(electrodes)
    z = np.broadcast_to(np.asarray(contact_impedance, dtype=complex), (n_el,))
    nv = mesh.n_vertices
    dim = nv + n_el
    K = galerkin_stiffness(mesh, element_sigma).tocoo()
    rows, cols, vals = [K.row], [K.col], [K.data]
    for k, e in enumerate(electrodes):
        edges = np.array(mesh.electrode_edges[e], dtype=np.int64)
        va, vb = edges[:, 0], edges[:, 1]
        seg = mesh.vertices[va] - mesh.vertices[vb]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        g = 1.0 / z[k]
        col_e = np.full(len(va), nv + k, dtype=np.int64)
        rows += [va, vb, va, vb, va, vb, col_e, col_e, [nv + k]]
        cols += [va, vb, vb, va, col_e, col_e, va, vb, [nv + k]]
        vals += [g * lengths / 3.0, g * lengths / 3.0, g * lengths / 6.0,
                 g * lengths / 6.0, *[-g * lengths / 2.0] * 4,
                 [g * lengths.sum()]]

    def matrix():
        return coo_matrix((np.concatenate(vals).astype(complex),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(dim, dim)).tocsc()

    full = matrix()
    el = np.arange(nv, dim)
    rows.append(np.repeat(el, n_el))
    cols.append(np.tile(el, n_el))
    vals.append(np.full(n_el * n_el, abs(full.diagonal()[:nv]).mean()))
    lu = splu(matrix(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    unit = np.zeros((dim, n_el), dtype=complex)
    unit[nv:] = np.eye(n_el)
    response = lu.solve(unit)
    inner = [mesh.inner_vertex[e] for e in sorted(mesh.inner_vertex)]
    return SimpleNamespace(stiffness=full, lu=lu,
                           electrode_response=response[nv:].T,
                           inner_response=response[inner].T)


@pytest.fixture(scope="module")
def fine_mesh(layout):
    return geo.build_mesh(layout, 0.14)


def bovine_sigma(mesh):
    bg = phm.synth_background(mesh, phm.BOVINE, TEXTURE, seed=9)
    return phm.place_inclusion(bg, mesh, Inclusion((0.4, -0.3), 2.5),
                               phm.BOVINE.sigma_inclusion)


class TestOperatorAssembly:
    """``assemble`` on the per-mesh operator against the per-phantom
    assembly it replaced."""

    @pytest.mark.parametrize("mesh_name", ["mesh", "fine_mesh"])
    @pytest.mark.parametrize("case", ["prostate", "bovine-complex-z"])
    def test_matches_reference_assembly(self, request, layout, mesh_name,
                                        case):
        mesh = request.getfixturevalue(mesh_name)
        if case == "prostate":
            sigma = phm.make_phantom(mesh, layout, phm.PROSTATE,
                                     seed=phm.phantom_seed(4, 1),
                                     rbf=TEXTURE).element_sigma
            z = 10.0
        else:
            sigma = bovine_sigma(mesh)
            z = 10.0 + 3.0j
        system = fem.assemble(mesh, sigma, contact_impedance=z)
        want = reference_assemble(mesh, sigma, contact_impedance=z)
        for got, ref in ((system.electrode_response, want.electrode_response),
                         (system.inner_response, want.inner_response)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        scale = abs(want.stiffness).max()
        assert abs(system.stiffness - want.stiffness).max() <= 1e-15 * scale
        # a reversed permutation solves just as accurately, with ten times
        # the fill; only the fill tells the two apart
        factor = system.lu.factor
        assert (factor.L.nnz + factor.U.nnz
                == want.lu.L.nnz + want.lu.U.nnz)

    def test_fill_at_default_mesh_edge(self, fine_mesh):
        factor = fem.assemble(fine_mesh, bovine_sigma(fine_mesh),
                              contact_impedance=Z).lu.factor
        assert factor.L.nnz + factor.U.nnz == 72556


def fresh_copy(mesh):
    """The same mesh with no CEM operator built yet."""
    return geo.Mesh(vertices=mesh.vertices, triangles=mesh.triangles,
                    electrode_edges=mesh.electrode_edges,
                    inner_vertex=mesh.inner_vertex)


class TestOperatorMemo:
    """Frames are the same bytes whichever call builds the mesh's operator."""

    @staticmethod
    def phantoms(mesh, layout):
        return [phm.make_phantom(mesh, layout, phm.PROSTATE,
                                 seed=phm.phantom_seed(6, i), rbf=TEXTURE)
                for i in range(2)]

    @staticmethod
    def frame_bytes(phantom, mesh, layout, z=Z):
        return simulate(phantom, mesh, layout, z).voltages.tobytes()

    def test_loaded_mesh_copy(self, mesh, layout, tmp_path):
        ph = self.phantoms(mesh, layout)[0]
        want = self.frame_bytes(ph, fresh_copy(mesh), layout)
        geo.save_mesh(mesh, tmp_path / "mesh.txt")
        loaded = geo.load_mesh(tmp_path / "mesh.txt")
        assert fem._build_operator not in loaded._memo
        assert self.frame_bytes(ph, loaded, layout) == want

    def test_first_built_by_another_phantom_and_impedance(self, mesh,
                                                          layout):
        ph, other = self.phantoms(mesh, layout)
        want = self.frame_bytes(ph, fresh_copy(mesh), layout)
        copy = fresh_copy(mesh)
        self.frame_bytes(other, copy, layout, z=4.0 - 1.5j)
        assert self.frame_bytes(ph, copy, layout) == want

    def test_threads_race_to_build(self, mesh, layout):
        # more threads than cores, switching often, all past one barrier:
        # each may find the operator missing and build its own
        phantoms = self.phantoms(mesh, layout) * 2
        want = [self.frame_bytes(p, fresh_copy(mesh), layout)
                for p in phantoms]
        copy = fresh_copy(mesh)
        barrier = threading.Barrier(len(phantoms), timeout=60)

        def task(p):
            barrier.wait()
            return self.frame_bytes(p, copy, layout)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(phantoms)) as pool:
                assert list(pool.map(task, phantoms, timeout=120)) == want
        finally:
            sys.setswitchinterval(interval)

    def test_threads_race_to_import_scipy(self):
        # a fresh interpreter has not loaded SciPy, so both threads reach
        # fem's deferred import at once; the frames are the serial ones
        script = """
import sys, threading
from concurrent.futures import ThreadPoolExecutor
from biozpipe import fem, geometry as geo, phantom as phm

layout = geo.build_probe_layout()
rbf = phm.RbfNoiseConfig(n_centers=1300, kernel_width=0.15,
                         noise_rel_std=0.10)
barrier = threading.Barrier(2, timeout=60)

def frame(p, mesh):
    return fem.simulate_frame(p, mesh, layout, contact_impedance=10.0,
                              phantom_id="x").voltages.tobytes()

def racing(p, mesh):
    barrier.wait()
    return frame(p, mesh)

mesh = geo.build_mesh(layout, 0.3)
phantoms = [phm.make_phantom(mesh, layout, phm.PROSTATE,
                             seed=phm.phantom_seed(6, i), rbf=rbf)
            for i in range(2)]
assert "scipy" not in sys.modules
sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(max_workers=2) as pool:
    got = list(pool.map(racing, phantoms, [mesh] * 2, timeout=60))
fresh = geo.build_mesh(layout, 0.3)
assert got == [frame(p, fresh) for p in phantoms]
"""
        src = str(Path(biozpipe.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestFrames:
    def test_frame_shape(self, mesh, layout):
        ph = phm.make_phantom(mesh, layout, phm.PROSTATE,
                              seed=phm.phantom_seed(1, 0), rbf=TEXTURE)
        frame = simulate(ph, mesh, layout)
        assert frame.voltages.shape == (28, 25)

    def test_zero_inclusion_equals_background(self, mesh, layout):
        model = phm.TissueModel("t", 126 + 12.76j, 106 + 14.9j)
        bg = phm.synth_background(mesh, model,
                                  replace(TEXTURE, noise_rel_std=0.0), seed=0)
        ph_zero = Phantom(element_sigma=phm.place_inclusion(
            bg, mesh, Inclusion((0, 0), 0.0), model.sigma_inclusion),
            inclusion=Inclusion((0, 0), 0.0), label=0, seed=0)
        ph_bg = Phantom(element_sigma=bg, inclusion=Inclusion((0, 0), 0.0),
                        label=0, seed=0)
        f1 = simulate(ph_zero, mesh, layout)
        f2 = simulate(ph_bg, mesh, layout)
        assert np.array_equal(f1.voltages, f2.voltages)

    def test_inclusion_signature_localized(self, mesh, layout):
        # conductive inclusion under electrode 13 (the grid center)
        bg = np.full(mesh.n_triangles, 126.0 + 12.76j)
        inc = Inclusion((0.0, 0.0), 2.0)
        bumped = phm.place_inclusion(bg, mesh, inc, 2 * 126.0 + 12.76j)
        f0 = simulate(Phantom(bg, inc, 0, 0), mesh, layout)
        f1 = simulate(Phantom(bumped, inc, 1, 0), mesh, layout)
        dv = np.abs(f1.voltages - f0.voltages)
        _, j = np.unravel_index(np.argmax(dv), dv.shape)
        pos = layout.inner_electrodes[j]
        assert np.hypot(*pos) <= 1.5

    def test_reference_frame_symmetry(self, mesh, layout):
        # rotating the pattern pair by two ring positions (90 degrees)
        # permutes inner voltages by the spatial rotation
        ref = fem.reference_frame(mesh, layout, sigma_saline=200.0,
                                  contact_impedance=Z)
        pats = geo.enumerate_current_patterns(layout)
        index = {(p.source, p.sink): i for i, p in enumerate(pats)}
        pos = layout.inner_electrodes
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotated = pos @ rot.T
        perm = np.array([int(np.argmin(np.hypot(*(pos - q).T)))
                         for q in rotated])
        for i, p in enumerate(pats):
            s2 = (p.source - 26 + 2) % 8 + 26
            k2 = (p.sink - 26 + 2) % 8 + 26
            j = index[(min(s2, k2), max(s2, k2))]
            sign = 1.0 if s2 < k2 else -1.0
            expect = sign * ref.voltages[j][perm]
            scale = np.max(np.abs(ref.voltages[i]))
            assert np.max(np.abs(expect - ref.voltages[i])) <= 1e-9 * scale

    def test_reference_scaling(self, mesh, layout):
        f1 = fem.reference_frame(mesh, layout, sigma_saline=200.0,
                                 contact_impedance=10.0)
        f2 = fem.reference_frame(mesh, layout, sigma_saline=2000.0,
                                 contact_impedance=1.0)
        assert np.max(np.abs(f2.voltages - 0.1 * f1.voltages)) <= 1e-10 * np.max(
            np.abs(f1.voltages))

    def test_refinement_convergence(self, layout):
        # halving edge length changes homogeneous-frame voltages < 5% of the
        # frame's scale, and the change shrinks under further refinement.
        # The change is measured against max|V| rather than entry by entry:
        # some voltages vanish by the probe's symmetry (|V| down to 1e-14 mV)
        # and the C4-symmetric mesh reproduces those zeros only up to
        # discretization noise, so a per-entry ratio measures noise there.
        sigma_val = 126.0 + 12.76j
        frames = {}
        for h in (0.6, 0.3, 0.15):
            m = geo.build_mesh(layout, h)
            ph = Phantom(np.full(m.n_triangles, sigma_val),
                         Inclusion((0, 0), 0.0), 0, 0)
            frames[h] = simulate(ph, m, layout).voltages
        scale = np.abs(frames[0.3]).max()
        coarse = np.abs(frames[0.3] - frames[0.6]).max() / scale
        fine = np.abs(frames[0.15] - frames[0.3]).max() / scale
        assert coarse < 0.05
        assert fine < coarse


class TestFrameIO:
    def test_roundtrip_multi(self, mesh, layout, tmp_path):
        phs = [phm.make_phantom(mesh, layout, phm.PROSTATE,
                                seed=phm.phantom_seed(2, i), rbf=TEXTURE)
               for i in range(3)]
        frames = [fem.simulate_frame(p, mesh, layout, contact_impedance=Z,
                                     phantom_id=f"p{i}")
                  for i, p in enumerate(phs)]
        path = tmp_path / "all.frames"
        datapipe.save_frames(frames, path)
        back = datapipe.load_frames(path)
        assert len(back) == 3
        for a, b in zip(frames, back):
            assert np.array_equal(a.voltages, b.voltages)
            assert a.phantom_id == b.phantom_id

    @pytest.mark.parametrize("data, match", [
        (frame_record(n_pat=27), "27 patterns"),
        (frame_record(n_pat=29), "29 patterns"),
        (frame_record(n_el=24), "24 electrodes"),
        (frame_record(n_el=26), "26 electrodes"),
        (frame_record()[:-8] + struct.pack("<d", np.nan), "non-finite"),
        (frame_record(pid=b"\xff"), "UTF-8"),
        (frame_record()[:10], "truncated frame header"),
        (frame_record()[:-8], "truncated frame body"),
        (frame_record(pid=b"p0") + frame_record(pid=b"p1")
         + frame_record(pid=b"p0"), "id 'p0' listed twice"),
    ])
    def test_malformed_record_is_format_error(self, tmp_path, data, match):
        path = tmp_path / "bad.frames"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=match):
            datapipe.load_frames(path)
