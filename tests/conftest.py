import numpy as np
import pytest

from biozpipe import datapipe as dp
from biozpipe import fem
from biozpipe import geometry as geo
from biozpipe import phantom as phm


@pytest.fixture(scope="session")
def toy_phantom_dataset():
    """50 real prostate phantoms on a coarse mesh, normalized at gain 0.05."""
    layout = geo.build_probe_layout()
    mesh = geo.build_mesh(layout, 0.25)
    ref = fem.reference_frame(mesh, layout, sigma_saline=126.0,
                              contact_impedance=10.0)
    rbf = phm.RbfNoiseConfig(n_centers=1300, kernel_width=0.15,
                             noise_rel_std=0.023)
    phantoms = phm.generate_phantom_set(mesh, layout, phm.PROSTATE, 50,
                                        seed=40, rbf=rbf)
    seqs = []
    for i, p in enumerate(phantoms):
        frame = fem.simulate_frame(p, mesh, layout, contact_impedance=10.0,
                                   phantom_id=f"toy{i:03d}")
        seqs.append(dp.normalize(frame, ref, gain=0.05, label=p.label))
    return seqs
