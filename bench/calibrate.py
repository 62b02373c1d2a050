"""Host-speed reference kernel for the ``stream`` workload.

The 2-core host this benchmark was built on runs interpreter-bound code up
to a third slower for minutes at a time, and ``stream``'s per-frame latency
follows it: two back-to-back sets of ten runs gave medians 34% apart.  So
``stream`` also times this kernel, the gated recurrent update of the cell
on one input for 280 substeps written with NumPy only (never biozpipe),
after every few frames, and scales its frame time to the host speed at
which the kernel takes ``REFERENCE_S``.  A change to the program moves the
frames and not the kernel.
"""

from __future__ import annotations

import numpy as np

# the kernel's time at the reference host speed; it sets only the scale of
# the adjusted latency (about the median on the host the benchmark was
# built on)
REFERENCE_S = 0.005


def make_kernel():
    """A zero-argument callable doing one kernel call on fixed inputs."""
    rng = np.random.default_rng(0)
    W = rng.uniform(-0.2, 0.2, (16, 25))
    U = rng.uniform(-0.25, 0.25, (16, 16))
    x = rng.uniform(-1.0, 1.0, (1, 25))

    def kernel():
        h = np.full((1, 16), 0.5)
        xw = x @ W.T
        for _ in range(280):
            z = 1.0 / (1.0 + np.exp(-(xw + h @ U.T)))
            c = np.maximum(1.0 / (1.0 + np.exp(xw - h @ U.T)), 1e-6)
            h = np.clip(h + 0.1 * z * (1.0 - h / c), 1e-6, 1.0 - 1e-6)
        return h

    return kernel

