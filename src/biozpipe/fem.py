"""Complete-electrode-model forward solver on the quasi-2D probe slice.

The 3D tissue slab is collapsed to a 2D sheet: element conductivities are
scaled by the slice thickness, current electrodes are arcs of the ring
handled with the complete electrode model (contact impedance per unit arc
length), and the 25 inner electrodes are point potential probes read at
their mesh vertices.

Unit system: lengths in mm, conductivity input in mS/m (converted to sheet
conductance in S), injected currents in mA, hence all potentials in mV.

The assembled matrix is complex symmetric over (vertex potentials, 8
electrode potentials).  It is singular up to an additive constant; a
symmetric rank-one term enforcing zero mean electrode potential grounds the
system without changing its dimension.  Its real part is positive definite,
so one sparse LU in SuperLU's symmetric mode (minimum degree on A + A^T,
diagonal pivots, no row interchanges) factorizes it.

The model is linear in the injected electrode currents, so ``assemble``
solves it once for each of the 8 unit-electrode currents, as one 8-column
right-hand side, and keeps those responses at the electrodes and at the
inner-electrode vertices.  Each of the 28 current patterns of a frame is
then the difference of two responses times its amplitude (superposition,
as in Geselowitz's lead theory); no pattern needs a solve of its own.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from .errors import FormatError, SolverError
from .geometry import (N_INNER, N_PATTERNS, CurrentPattern, Mesh, ProbeLayout,
                       enumerate_current_patterns)
from .phantom import Inclusion, Phantom

SLICE_THICKNESS_MM = 5.0
DEFAULT_CONTACT_IMPEDANCE_OHM_MM = 10.0

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
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise SolverError(f"non-finite voltage in frame {self.phantom_id}")


@dataclass
class AssembledSystem:
    """Factorized CEM system for one conductivity field and its responses.

    Row k of ``electrode_response`` and ``inner_response`` holds the
    potentials (mV) at the 8 outer electrodes and at the 25 inner-electrode
    vertices when 1 mA enters outer electrode ``electrode_order[k]`` and
    nothing else is injected.  A single unit current does not sum to zero,
    so one row alone is no physical state; the difference of two rows is
    the grounded solution for a source/sink pair of 1 mA.
    """

    stiffness: csc_matrix  # symmetric, ungrounded
    lu: object  # symmetric-mode SuperLU of (stiffness + grounding rank-one)
    n_vertices: int
    electrode_order: tuple[int, ...]  # outer electrode ids, block order
    contact_impedance: np.ndarray
    inner_vertices: np.ndarray  # (25,) vertex index per inner electrode
    edge_data: list  # per electrode: (v_a array, v_b array, lengths)
    electrode_response: np.ndarray  # (8, 8) complex, row per unit source
    inner_response: np.ndarray  # (8, 25) complex, row per unit source


def galerkin_stiffness(mesh: Mesh, element_sigma: np.ndarray) -> csc_matrix:
    """Linear-element stiffness for div(sigma * t * grad u) over the vertices.

    Vectorized standard P1 assembly: for a triangle with vertices p1,p2,p3,
    K_ij = sigma_sheet * (b_i b_j + c_i c_j) / (4 A) with b/c the usual
    edge-difference coefficients.
    """
    sigma_sheet = (np.asarray(element_sigma, dtype=complex)
                   * SLICE_THICKNESS_MM * _SHEET_SCALE)
    tri = mesh.triangles
    p = mesh.vertices[tri]  # (nt, 3, 2)
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    coef = sigma_sheet / (4.0 * mesh.triangle_areas())
    local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    vals = (coef[:, None, None] * local).reshape(-1)
    rows = np.repeat(tri, 3, axis=1).reshape(-1)
    cols = np.tile(tri, (1, 3)).reshape(-1)
    nv = mesh.n_vertices
    return coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsc()


def assemble(mesh: Mesh, element_sigma: np.ndarray,
             contact_impedance=DEFAULT_CONTACT_IMPEDANCE_OHM_MM
             ) -> AssembledSystem:
    """Assemble and factorize the complete-electrode-model system.

    ``contact_impedance`` is per unit arc length (ohm * mm), scalar or one
    value per outer electrode; complex values are allowed.
    """
    sigma = np.asarray(element_sigma, dtype=complex)
    if sigma.shape != (mesh.n_triangles,):
        raise SolverError(
            f"conductivity length {sigma.shape} does not match "
            f"{mesh.n_triangles} mesh elements"
        )
    if np.any(sigma.real <= 0):
        raise SolverError("element conductivity real parts must be positive")

    electrodes = tuple(sorted(mesh.electrode_edges))
    n_el = len(electrodes)
    z = np.broadcast_to(np.asarray(contact_impedance, dtype=complex),
                        (n_el,)).copy()
    if np.any(z == 0):
        raise SolverError("contact impedance must be nonzero")

    nv = mesh.n_vertices
    dim = nv + n_el
    K = galerkin_stiffness(mesh, sigma)

    rows, cols, vals = [], [], []
    edge_data = []
    for k, e in enumerate(electrodes):
        edges = np.array(mesh.electrode_edges[e], dtype=np.int64)
        va, vb = edges[:, 0], edges[:, 1]
        seg = mesh.vertices[va] - mesh.vertices[vb]
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        edge_data.append((va, vb, lengths))
        g = 1.0 / z[k]  # contact conductance per mm
        # vertex-vertex contact mass: L/3 diagonal, L/6 cross
        rows += [va, vb, va, vb]
        cols += [va, vb, vb, va]
        vals += [g * lengths / 3.0, g * lengths / 3.0,
                 g * lengths / 6.0, g * lengths / 6.0]
        # vertex-electrode coupling: -L/2 each endpoint
        col_e = np.full(len(va), nv + k, dtype=np.int64)
        rows += [va, vb, col_e, col_e]
        cols += [col_e, col_e, va, vb]
        vals += [-g * lengths / 2.0] * 4
        # electrode diagonal: total arc length
        rows.append(np.array([nv + k]))
        cols.append(np.array([nv + k]))
        vals.append(np.array([g * lengths.sum()]))

    contact = coo_matrix(
        (np.concatenate(vals).astype(complex),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsc()
    K_coo = K.tocoo()
    bulk = coo_matrix((K_coo.data, (K_coo.row, K_coo.col)),
                      shape=(dim, dim)).tocsc()
    full = (bulk + contact).tocsc()

    # zero-mean electrode potential: since the injected currents sum to zero,
    # adding alpha * q q^T (q = electrode-block indicator) makes the system
    # nonsingular and forces sum(U) = 0 in the solution.
    if n_el == 0:
        raise SolverError(
            "grounding constraint needs at least one electrode: the "
            "zero-mean electrode potential cannot be imposed"
        )
    alpha = abs(full.diagonal()[:nv]).mean()
    q_rows = np.repeat(np.arange(nv, dim), n_el)
    q_cols = np.tile(np.arange(nv, dim), n_el)
    ground = coo_matrix(
        (np.full(n_el * n_el, alpha, dtype=complex), (q_rows, q_cols)),
        shape=(dim, dim),
    ).tocsc()

    # complex symmetric with a positive-definite real part: diagonal pivots
    # need no row interchanges, and the symmetric ordering keeps L and U
    # sparser than the default column ordering
    try:
        lu = splu((full + ground).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(
            f"factorization failed despite zero-mean electrode grounding: {exc}"
        ) from exc

    # unit current into each outer electrode: one 8-column solve
    unit = np.zeros((dim, n_el), dtype=complex)
    unit[nv:] = np.eye(n_el)
    response = lu.solve(unit)
    if not np.all(np.isfinite(response.real)) or not np.all(
            np.isfinite(response.imag)):
        raise SolverError("solver produced non-finite potentials")

    inner = np.array(
        [mesh.inner_vertex[e] for e in sorted(mesh.inner_vertex)],
        dtype=np.int64,
    )
    return AssembledSystem(
        stiffness=full, lu=lu, n_vertices=nv, electrode_order=electrodes,
        contact_impedance=z, inner_vertices=inner, edge_data=edge_data,
        electrode_response=np.ascontiguousarray(response[nv:].T),
        inner_response=np.ascontiguousarray(response[inner].T),
    )


def solve_pattern(system: AssembledSystem, pattern: CurrentPattern):
    """Drive one source/sink pair; return (8 electrode potentials, 25 inner).

    +amplitude enters at the source electrode and leaves at the sink; by
    superposition the potentials are amplitude times the difference of the
    two unit responses, referenced to the grounded zero-mean electrode
    potential.
    """
    try:
        i_src = system.electrode_order.index(pattern.source)
        i_snk = system.electrode_order.index(pattern.sink)
    except ValueError as exc:
        raise SolverError(f"pattern references unknown electrode: {exc}") from exc
    el, inner = system.electrode_response, system.inner_response
    return (pattern.amplitude * (el[i_src] - el[i_snk]),
            pattern.amplitude * (inner[i_src] - inner[i_snk]))


def electrode_currents(system: AssembledSystem, solution: np.ndarray) -> np.ndarray:
    """Boundary current through each electrode, recomputed from the solution.

    I_l = (1/z_l) * integral over the arc of (U_l - u) ds, evaluated with the
    same trapezoidal edge quadrature used in assembly, so for an exact solve
    this reproduces the injected currents to factorization precision.
    """
    nv = system.n_vertices
    out = np.zeros(len(system.electrode_order), dtype=complex)
    for k in range(len(system.electrode_order)):
        va, vb, lengths = system.edge_data[k]
        u_mean = 0.5 * (solution[va] + solution[vb])
        g = 1.0 / system.contact_impedance[k]
        out[k] = np.sum(g * lengths * (solution[nv + k] - u_mean))
    return out


def simulate_frame(phantom: Phantom, mesh: Mesh, layout: ProbeLayout,
                   contact_impedance=DEFAULT_CONTACT_IMPEDANCE_OHM_MM,
                   phantom_id: str | None = None) -> Frame:
    """One assembly, then the 28 patterns from its 8 unit responses."""
    if phantom_id is None:
        phantom_id = f"seed{phantom.seed}"
    try:
        system = assemble(mesh, phantom.element_sigma, contact_impedance)
        patterns = tuple(enumerate_current_patterns(layout))
        voltages = np.empty((len(patterns), len(system.inner_vertices)),
                            dtype=complex)
        for i, pat in enumerate(patterns):
            _, inner = solve_pattern(system, pat)
            voltages[i] = inner
    except SolverError as exc:
        raise SolverError(f"phantom {phantom_id}: {exc}") from exc
    return Frame(voltages=voltages, phantom_id=phantom_id)


def reference_frame(mesh: Mesh, layout: ProbeLayout, sigma_saline: complex,
                    contact_impedance=DEFAULT_CONTACT_IMPEDANCE_OHM_MM) -> Frame:
    """Frame of a uniform saline bath."""
    if complex(sigma_saline).real <= 0:
        raise SolverError("saline conductivity real part must be positive")
    sigma = np.full(mesh.n_triangles, complex(sigma_saline), dtype=complex)
    ref = Phantom(element_sigma=sigma,
                  inclusion=Inclusion(center=(0.0, 0.0), diameter=0.0),
                  label=0, seed=0)
    return simulate_frame(ref, mesh, layout, contact_impedance,
                          phantom_id="reference")


# ---------------------------------------------------------------------------
# Frame persistence: binary records (concatenable)
# ---------------------------------------------------------------------------

_FRAME_MAGIC = b"BZFR"
_FRAME_VERSION = 1


def _frame_record(frame: Frame) -> bytes:
    n_pat, n_el = frame.voltages.shape
    pid = frame.phantom_id.encode("utf-8")
    body = np.empty(2 * n_pat * n_el, dtype="<f8")
    flat = frame.voltages.reshape(-1)
    body[0::2] = flat.real
    body[1::2] = flat.imag
    return (_FRAME_MAGIC
            + struct.pack("<IIIH", _FRAME_VERSION, n_pat, n_el, len(pid))
            + pid + body.tobytes())


def save_frames(frames: Iterable[Frame], path) -> None:
    """Write one or more frame records to a single file, in iteration order."""
    with open(path, "wb") as f:
        for frame in frames:
            f.write(_frame_record(frame))


def load_frames(path) -> list[Frame]:
    """Read all frame records from a file.

    Records hold no pattern order: externally measured frames must be
    recorded in the canonical order (see ``Frame``), and a record whose
    pattern or electrode count is not the probe's raises ``FormatError``.
    """
    frames = []
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        if data[pos:pos + 4] != _FRAME_MAGIC:
            raise FormatError(f"{path}: bad frame magic at offset {pos}")
        if len(data) < pos + 18:
            raise FormatError(f"{path}: truncated frame header")
        version, n_pat, n_el, id_len = struct.unpack_from("<IIIH", data, pos + 4)
        if version != _FRAME_VERSION:
            raise FormatError(f"{path}: unsupported frame version {version}")
        pos += 4 + 14
        try:
            pid = data[pos:pos + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: frame id is not UTF-8: {exc}") from exc
        pos += id_len
        if n_pat != N_PATTERNS:
            raise FormatError(f"{path}: frame {pid!r} has {n_pat} patterns, "
                              f"the probe drives {N_PATTERNS}")
        if n_el != N_INNER:
            raise FormatError(f"{path}: frame {pid!r} has {n_el} electrodes, "
                              f"the probe has {N_INNER} inner electrodes")
        count = 2 * n_pat * n_el
        if len(data) < pos + 8 * count:
            raise FormatError(f"{path}: truncated frame body")
        body = np.frombuffer(data, dtype="<f8", count=count, offset=pos)
        if not np.all(np.isfinite(body)):
            raise FormatError(f"{path}: frame {pid!r} has non-finite voltages")
        pos += 8 * count
        voltages = (body[0::2] + 1j * body[1::2]).reshape(n_pat, n_el)
        frames.append(Frame(voltages=voltages, phantom_id=pid))
    return frames

