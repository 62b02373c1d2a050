"""Health counters computed from outside the program.

A performance change must leave these unchanged; they are recorded as they
are, including the dead classifier head of the current training setup.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from biozpipe import afua, cli, datapipe, fem
from biozpipe import geometry as geo


def current_residual_max(mesh, layout, sigma_saline, contact_impedance):
    """Max |electrode_currents - injected| (mA) over the 28 reference solves.

    Rebuilds the uniform-saline system of ``fem.reference_frame`` and solves
    every pattern through the factorization, keeping the full solution that
    ``fem.solve_pattern`` does not return.
    """
    sigma = np.full(mesh.n_triangles, complex(sigma_saline))
    system = fem.assemble(mesh, sigma, contact_impedance)
    nv = system.n_vertices
    worst = 0.0
    for pat in geo.enumerate_current_patterns(layout):
        injected = np.zeros(len(system.electrode_order), dtype=complex)
        injected[system.electrode_order.index(pat.source)] = pat.amplitude
        injected[system.electrode_order.index(pat.sink)] = -pat.amplitude
        x = system.lu.solve(np.concatenate([np.zeros(nv, complex), injected]))
        residual = np.abs(fem.electrode_currents(system, x) - injected)
        worst = max(worst, float(residual.max()))
    return worst


def dead_head_frac(params, final_states):
    """Share of the ReLU head units whose pre-activation is <= 0 for every
    final hidden state given."""
    H = np.stack(final_states)
    a1 = afua.sigmoid(H @ params.fc1_w.T + params.fc1_b)
    pre2 = np.atleast_2d(a1 @ params.fc2_w.T + params.fc2_b)
    return float(np.all(pre2 <= 0.0, axis=0).mean())


def run_dir_health(run_dir):
    """Counters of a finished run directory (mesh, model and dataset)."""
    run_dir = Path(run_dir)
    cfg = cli.RunConfig()
    layout = geo.load_layout(run_dir / "geometry.txt")
    mesh = geo.load_mesh(run_dir / "mesh.txt")
    params, icfg = afua.load_model(run_dir / "model.afua")
    split = datapipe.load_split_assignment(run_dir / "dataset_manifest.csv")
    validation = [s for s in datapipe.load_sequences(run_dir / "dataset.bzds")
                  if split[s.provenance] == "validation"]
    finals = [afua.run_sequence(s, params, icfg) for s in validation]
    return {
        "fem.current_residual_max": current_residual_max(
            mesh, layout, cfg.saline_ms_per_m, cfg.contact_impedance_ohm_mm),
        "trainer.dead_head_frac": dead_head_frac(params, finals),
    }
