"""Complete-electrode-model forward solver on the quasi-2D probe slice.

The 3D tissue slab is collapsed to a 2D sheet: element conductivities are
scaled by the slice thickness, current electrodes are arcs of the ring
handled with the complete electrode model (one contact impedance per unit
arc length, the same at every arc), and the 25 inner electrodes are point
potential probes read at their mesh vertices.

Unit system: lengths in mm, conductivity input in mS/m (converted to sheet
conductance in S), injected currents in mA, hence all potentials in mV.

The assembled matrix is complex symmetric over (vertex potentials, 8
electrode potentials).  It is singular up to an additive constant; a
symmetric rank-one term enforcing zero mean electrode potential grounds the
system without changing its dimension.  Its real part is positive definite,
so one sparse LU in SuperLU's symmetric mode (diagonal pivots, no row
interchanges) factorizes it.

Everything but the numbers depends on the mesh alone, so it is built once
per mesh (``cem_operator``, kept in the mesh's memo by ``Mesh.derived``):
the sparsity pattern of the grounded matrix, SuperLU's minimum-degree
ordering of A + A^T, and a sparse map from the element conductivities and
the 8 contact conductances to the matrix values.  The pattern is stored
already permuted: old row and column i is new row and column ``perm[i]``
(SuperLU's ``perm_c``).  Per phantom, ``assemble`` only refills the values,
adds the grounding term and refactorizes in the natural order of that
permuted pattern.

The model is linear in the injected electrode currents, so ``assemble``
solves it once for each of the 8 unit-electrode currents, as one 8-column
right-hand side, and keeps those responses at the electrodes and at the
inner-electrode vertices.  Each of the 28 current patterns of a frame is
then the difference of two responses times its amplitude (superposition,
as in Geselowitz's lead theory); no pattern needs a solve of its own, and
``solve_pattern`` takes a frame's patterns together.

The module only solves and holds no file format: ``datapipe`` writes and
reads frames files, beside the dataset file.

SciPy is imported inside the three functions that use it,
``_build_operator``, ``assemble`` and ``AssembledSystem.stiffness``, not
at module level.  ``datapipe`` imports this module for ``Frame``, so a
module-level import would make every command pay for ``scipy.sparse`` and
``scipy.sparse.linalg`` at start-up (about 0.2 s on a 2-core Xeon, with
the parts of NumPy they pull in), though only the commands that solve use
them.  Python's per-module import locks make a first import from several
threads at once safe.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import SolverError
from .geometry import (N_INNER, N_PATTERNS, CurrentPattern, Mesh, ProbeLayout,
                       enumerate_current_patterns)
from .phantom import Phantom

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix, csr_matrix

SLICE_THICKNESS_MM = 5.0

# mS/m * mm slice -> sheet conductance in S
_SHEET_SCALE = 1e-6


@dataclass(frozen=True)
class Frame:
    """28 patterns x 25 single-ended inner-electrode voltages (mV, phasors);
    row k is pattern k of ``geometry.enumerate_current_patterns``."""

    voltages: np.ndarray  # (28, 25) complex128
    phantom_id: str

    def __post_init__(self):
        v = self.voltages
        if v.shape != (N_PATTERNS, N_INNER):
            raise SolverError(f"frame {self.phantom_id} has shape {v.shape}, "
                              f"expected {(N_PATTERNS, N_INNER)}")
        if not np.all(np.isfinite(v)):
            raise SolverError(f"non-finite voltage in frame {self.phantom_id}")


@dataclass(frozen=True)
class CemOperator:
    """The grounded CEM system of one mesh without its numbers.

    ``fill`` maps the element conductivities (mS/m) followed by the 8
    contact conductances ``1/z`` (per mm, in ``electrode_order``) to the
    values of the ungrounded matrix on the permuted CSC pattern
    ``(indptr, indices)``.  Old row and column i of the matrix in vertex
    order is row and column ``perm[i]`` of the pattern.
    """

    perm: np.ndarray  # (dim,) SuperLU's perm_c
    indptr: np.ndarray
    indices: np.ndarray
    fill: csr_matrix  # (nnz, n_triangles + n_electrodes), real
    ground: np.ndarray  # data slots of the electrode block, for the rank one
    vertex_diag: np.ndarray  # data slots of the vertex diagonal, vertex order
    n_vertices: int
    electrode_order: tuple[int, ...]  # outer electrode ids, block order
    inner_vertices: np.ndarray  # (25,) vertex index per inner electrode
    edge_data: list  # per electrode: (v_a array, v_b array, lengths)


@dataclass(frozen=True)
class PermutedLU:
    """SuperLU factor of the permuted matrix; ``solve`` takes and returns
    vectors in vertex order."""

    factor: object  # scipy SuperLU of the matrix on the permuted pattern
    perm: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        permuted = np.empty(np.shape(b), dtype=complex)
        permuted[self.perm] = b
        return self.factor.solve(permuted)[self.perm]


@dataclass
class AssembledSystem:
    """Factorized CEM system for one conductivity field and its responses.

    Only ``data``, the factor and the responses belong to the phantom; the
    structure is the mesh's ``operator``.  ``lu.solve`` works in vertex
    order, like the unpermuted matrix ``stiffness``.

    Row k of ``electrode_response`` and ``inner_response`` holds the
    potentials (mV) at the 8 outer electrodes and at the 25 inner-electrode
    vertices when 1 mA enters outer electrode ``electrode_order[k]`` and
    nothing else is injected.  A single unit current does not sum to zero,
    so one row alone is no physical state; the difference of two rows is
    the grounded solution for a source/sink pair of 1 mA.
    """

    operator: CemOperator
    data: np.ndarray  # ungrounded matrix values on the operator's pattern
    lu: PermutedLU  # symmetric-mode LU of (matrix + grounding rank-one)
    n_vertices: int
    electrode_order: tuple[int, ...]
    contact_impedance: complex  # ohm * mm, every outer electrode's
    electrode_response: np.ndarray  # (8, 8) complex, row per unit source
    inner_response: np.ndarray  # (8, 25) complex, row per unit source

    @property
    def stiffness(self) -> csc_matrix:
        """The ungrounded symmetric matrix in vertex order."""
        from scipy.sparse import csc_matrix
        op = self.operator
        dim = len(op.perm)
        permuted = csc_matrix((self.data, op.indices, op.indptr),
                              shape=(dim, dim))
        return permuted[op.perm][:, op.perm].tocsc()


def _p1_entries(mesh: Mesh):
    """Rows, columns and values per unit conductivity (mS/m) of the P1
    stiffness: triangle t adds ``sigma[t] * values[t]`` at its 9 entries.

    For a triangle with vertices p1,p2,p3, K_ij = sigma_sheet * (b_i b_j +
    c_i c_j) / (4 A) with b/c the usual edge-difference coefficients.
    """
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    coef = SLICE_THICKNESS_MM * _SHEET_SCALE / (4.0 * mesh.triangle_areas())
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    values = (coef[:, None, None] * local).reshape(-1, 9)
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    return rows, cols, values


def _build_operator(mesh: Mesh) -> CemOperator:
    from scipy.sparse import coo_matrix, csr_matrix
    from scipy.sparse.linalg import splu
    nv, nt = mesh.n_vertices, mesh.n_triangles
    electrodes = tuple(sorted(mesh.electrode_edges))
    n_el = len(electrodes)
    dim = nv + n_el

    # (row, col, source, value): source t < nt is triangle t's
    # conductivity, source nt + k electrode k's contact conductance
    p1_rows, p1_cols, p1_values = _p1_entries(mesh)
    rows, cols, values = [p1_rows], [p1_cols], [p1_values.reshape(-1)]
    sources = [np.repeat(np.arange(nt), 9)]
    edge_data = []
    for k, e in enumerate(electrodes):
        edges = np.array(mesh.electrode_edges[e], dtype=np.int64)
        va, vb = edges[:, 0], edges[:, 1]
        seg = mesh.vertices[va] - mesh.vertices[vb]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        edge_data.append((va, vb, lengths))
        el = np.full(len(va), nv + k, dtype=np.int64)
        # vertex-vertex contact mass (L/3 diagonal, L/6 cross), then the
        # vertex-electrode coupling (-L/2 each endpoint), then the
        # electrode diagonal (total arc length)
        rows += [va, vb, va, vb, va, vb, el, el, el[:1]]
        cols += [va, vb, vb, va, el, el, va, vb, el[:1]]
        values += [lengths / 3.0, lengths / 3.0, lengths / 6.0,
                   lengths / 6.0, *[-lengths / 2.0] * 4, [lengths.sum()]]
        sources.append(np.full(8 * len(va) + 1, nt + k))
    n_filled = sum(len(r) for r in rows)
    # the grounding rank-one fills the whole electrode block
    block = np.arange(nv, dim)
    rows.append(np.repeat(block, n_el))
    cols.append(np.tile(block, n_el))
    r, c = np.concatenate(rows), np.concatenate(cols)

    # SuperLU's symmetric ordering depends on the pattern alone, so any
    # strictly diagonally dominant matrix on it gives the phantoms' ordering
    # (complex, like theirs, to share their factorization path).  perm_c is
    # a view into the factor's storage: a copy lets the factor go.
    pattern = coo_matrix((np.ones(len(r), dtype=complex), (r, c)),
                         shape=(dim, dim)).tocsc()
    pattern.data[:] = 1.0
    pattern.setdiag(dim)
    perm = splu(pattern, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)).perm_c.copy()

    # the permuted pattern, its entries keyed column-major (so sorted), and
    # the data slot of every (row, col) above
    r, c = perm[r], perm[c]
    permuted = coo_matrix((np.ones(len(r)), (r, c)), shape=(dim, dim)).tocsc()
    keys = (np.repeat(np.arange(dim, dtype=np.int64) * dim,
                      np.diff(permuted.indptr)) + permuted.indices)
    slot = np.searchsorted(keys, c.astype(np.int64) * dim + r)
    fill = csr_matrix(
        (np.concatenate(values),
         (slot[:n_filled], np.concatenate(sources))),
        shape=(len(keys), nt + n_el))
    diagonal = perm[:nv].astype(np.int64) * (dim + 1)
    # the ground slots are copied: a view would keep all of ``slot`` alive
    inner = [mesh.inner_vertex[e] for e in sorted(mesh.inner_vertex)]
    return CemOperator(
        perm=perm, indptr=permuted.indptr, indices=permuted.indices,
        fill=fill, ground=slot[n_filled:].copy(),
        vertex_diag=np.searchsorted(keys, diagonal), n_vertices=nv,
        electrode_order=electrodes,
        inner_vertices=np.array(inner, dtype=np.int64), edge_data=edge_data)


def cem_operator(mesh: Mesh) -> CemOperator:
    """The mesh's CEM operator, built on first use and kept on the mesh."""
    return mesh.derived(_build_operator)


def assemble(mesh: Mesh, element_sigma: np.ndarray,
             contact_impedance) -> AssembledSystem:
    """Fill the mesh's CEM operator for one phantom and factorize it.

    ``contact_impedance`` is one value per unit arc length (ohm * mm), the
    same at every outer electrode: a finite number, complex allowed, with a
    positive real part.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu
    sigma = np.asarray(element_sigma, dtype=complex)
    if sigma.shape != (mesh.n_triangles,):
        raise SolverError(
            f"conductivity length {sigma.shape} does not match "
            f"{mesh.n_triangles} mesh elements"
        )
    if not np.all(np.isfinite(sigma)):
        raise SolverError("element conductivities must be finite")
    if np.any(sigma.real <= 0):
        raise SolverError("element conductivity real parts must be positive")

    n_el = len(mesh.electrode_edges)
    z = complex(contact_impedance)
    if not cmath.isfinite(z):
        raise SolverError("contact impedance must be finite")
    if not z.real > 0:
        # Re(1/z) > 0 keeps the real part positive definite (module docstring)
        raise SolverError("contact impedance real part must be positive")
    if n_el == 0:
        raise SolverError(
            "grounding constraint needs at least one electrode: the "
            "zero-mean electrode potential cannot be imposed"
        )

    op = cem_operator(mesh)
    nv, dim = op.n_vertices, len(op.perm)
    # the real map applied to the real and imaginary parts at once
    x = np.concatenate([sigma, 1.0 / np.full(n_el, z)]
                       ).view(float).reshape(-1, 2)
    data = (op.fill @ x).view(complex).ravel()
    # zero-mean electrode potential: since the injected currents sum to zero,
    # adding alpha * q q^T (q = electrode-block indicator) makes the system
    # nonsingular and forces sum(U) = 0 in the solution.
    grounded = data.copy()
    grounded[op.ground] += abs(data[op.vertex_diag]).mean()

    # complex symmetric with a positive-definite real part: diagonal pivots
    # need no row interchanges, and the pattern is already in the
    # fill-reducing order
    try:
        factor = splu(csc_matrix((grounded, op.indices, op.indptr),
                                 shape=(dim, dim)),
                      permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(
            f"factorization failed despite zero-mean electrode grounding: {exc}"
        ) from exc

    # unit current into each outer electrode: one 8-column solve
    unit = np.zeros((dim, n_el), dtype=complex)
    unit[op.perm[nv:], np.arange(n_el)] = 1.0
    response = factor.solve(unit)
    if not np.all(np.isfinite(response)):
        raise SolverError("solver produced non-finite potentials")

    return AssembledSystem(
        operator=op, data=data, lu=PermutedLU(factor, op.perm),
        n_vertices=nv, electrode_order=op.electrode_order,
        contact_impedance=z,
        electrode_response=np.ascontiguousarray(response[op.perm[nv:]].T),
        inner_response=np.ascontiguousarray(
            response[op.perm[op.inner_vertices]].T),
    )


def solve_pattern(system: AssembledSystem,
                  patterns: Sequence[CurrentPattern]):
    """Drive each source/sink pair of ``patterns``; return the (P, 8)
    electrode and (P, 25) inner potentials, row k for pattern k.

    +amplitude enters at the source electrode and leaves at the sink; by
    superposition the potentials are amplitude times the difference of the
    two unit responses, referenced to the grounded zero-mean electrode
    potential.
    """
    try:
        src = [system.electrode_order.index(p.source) for p in patterns]
        snk = [system.electrode_order.index(p.sink) for p in patterns]
    except ValueError as exc:
        raise SolverError(f"pattern references unknown electrode: {exc}") from exc
    amp = np.array([p.amplitude for p in patterns])[:, None]
    el, inner = system.electrode_response, system.inner_response
    return amp * (el[src] - el[snk]), amp * (inner[src] - inner[snk])


def electrode_currents(system: AssembledSystem, solution: np.ndarray) -> np.ndarray:
    """Boundary current through each electrode, recomputed from the solution.

    I_l = (1/z) * integral over the arc of (U_l - u) ds, evaluated with the
    same trapezoidal edge quadrature used in assembly, so for an exact solve
    this reproduces the injected currents to factorization precision.
    """
    nv = system.n_vertices
    g = 1.0 / system.contact_impedance
    out = np.zeros(len(system.electrode_order), dtype=complex)
    for k in range(len(system.electrode_order)):
        va, vb, lengths = system.operator.edge_data[k]
        u_mean = 0.5 * (solution[va] + solution[vb])
        out[k] = np.sum(g * lengths * (solution[nv + k] - u_mean))
    return out


def _frame(sigma, mesh: Mesh, layout: ProbeLayout, contact_impedance,
           phantom_id: str) -> Frame:
    """One assembly, then the 28 patterns from its 8 unit responses."""
    try:
        system = assemble(mesh, sigma, contact_impedance)
        _, voltages = solve_pattern(system, enumerate_current_patterns(layout))
    except SolverError as exc:
        raise SolverError(f"phantom {phantom_id}: {exc}") from exc
    return Frame(voltages=voltages, phantom_id=phantom_id)


def simulate_frame(phantom: Phantom, mesh: Mesh, layout: ProbeLayout,
                   contact_impedance, phantom_id: str) -> Frame:
    """Frame of one phantom's conductivities."""
    return _frame(phantom.element_sigma, mesh, layout, contact_impedance,
                  phantom_id)


def reference_frame(mesh: Mesh, layout: ProbeLayout, sigma_saline: complex,
                    contact_impedance) -> Frame:
    """Frame of a uniform saline bath."""
    if complex(sigma_saline).real <= 0:
        raise SolverError("saline conductivity real part must be positive")
    sigma = np.full(mesh.n_triangles, complex(sigma_saline), dtype=complex)
    return _frame(sigma, mesh, layout, contact_impedance, "reference")
