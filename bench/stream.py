"""The ``stream`` workload: one caller labels probe frames as they arrive.

Set-up simulates 32 frames on the default h = 0.14 mesh and quantizes the
untrained weights of ``trainer.init_params(seed)`` to 6 bits: the cost of
the recurrent cell does not depend on weight values, so no training is
needed.  Each timed operation takes the next frame (cycling through the 32)
and runs ``datapipe.normalize`` -> ``quantizer.quantized_forward`` ->
``analog.simulate_current_mode``, the on-probe path.  The loop is closed:
the next frame is sent only when the previous one is labelled.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

from biozpipe import (afua, analog, cli, datapipe, fem, quantizer,
                      trainer)
from biozpipe import geometry as geo
from biozpipe import phantom as phm

import calibrate
import health

N_FRAMES = 32
MESH_EDGE_MM = 0.14
BITS = 6
I_UNIT_NA = 10.0
# at least 10 samples above the p95 latency
MIN_OPS = 200
# current-mode trajectory against the voltage-domain reference
STATE_TOL = 1e-12
# one host-speed kernel call after every this many frames
KERNEL_EVERY = 4


def set_up(seed):
    """Frames, reference frame, quantized model and expected outputs."""
    cfg = cli.RunConfig(seed=seed)
    layout = geo.build_probe_layout()
    mesh = geo.build_mesh(layout, MESH_EDGE_MM)
    ref = fem.reference_frame(mesh, layout, sigma_saline=cfg.saline_ms_per_m,
                              contact_impedance=cfg.contact_impedance_ohm_mm)
    phantoms = phm.generate_phantom_set(mesh, layout, cfg.tissue_model(),
                                        N_FRAMES, seed=seed, rbf=cfg.rbf())
    frames = [fem.simulate_frame(p, mesh, layout,
                                 contact_impedance=cfg.contact_impedance_ohm_mm,
                                 phantom_id=f"p{i:05d}")
              for i, p in enumerate(phantoms)]
    icfg = cfg.integration()
    qparams = quantizer.quantize(trainer.init_params(seed), BITS)
    params = qparams.dequantize()
    seqs = [datapipe.normalize(f, ref, gain=cfg.gain_per_mv, label=p.label)
            for f, p in zip(frames, phantoms)]
    # the labels the batched path gives; evaluate's confusion must agree
    P = trainer.forward_probabilities(seqs, params, icfg)
    labels = (P[:, 1] > P[:, 0]).astype(int)
    _, confusion = trainer.evaluate(qparams, seqs, icfg)
    expected = np.zeros((2, 2), dtype=np.int64)
    for s, lab in zip(seqs, labels):
        expected[s.label, lab] += 1
    if not np.array_equal(confusion, expected):
        raise RuntimeError("trainer.evaluate disagrees with its batched "
                           "forward pass")
    finals = [afua.run_sequence(s, params, icfg) for s in seqs]
    return {"cfg": cfg, "mesh": mesh, "layout": layout, "ref": ref,
            "frames": frames, "seqs": seqs, "labels": labels,
            "finals": finals, "qparams": qparams, "params": params,
            "icfg": icfg}


def one_frame(st, k):
    """One timed operation; returns (latency s, output, problem or None)."""
    frame, want = st["frames"][k], st["seqs"][k]
    t0 = time.perf_counter()
    seq = datapipe.normalize(frame, st["ref"], gain=st["cfg"].gain_per_mv,
                             label=want.label)
    label, _ = quantizer.quantized_forward(st["qparams"], seq, st["icfg"])
    traj = analog.simulate_current_mode(seq, st["params"], I_UNIT_NA,
                                        st["icfg"])
    latency = time.perf_counter() - t0
    problem = None
    if not np.array_equal(seq.steps, want.steps):
        problem = f"frame {k}: normalized input differs from set-up"
    elif label != st["labels"][k]:
        problem = (f"frame {k}: label {label}, batched evaluate gave "
                   f"{st['labels'][k]}")
    else:
        err = float(np.abs(traj.normalized_h()[-1] - st["finals"][k]).max())
        if not err <= STATE_TOL:
            problem = f"frame {k}: current-mode state off by {err:.3g}"
    return latency, (label, traj.clamped_substeps), problem


def run(seed, seconds, setups, tracer=None):
    """Set up ``setups`` times and label frames for ``seconds`` in all.

    Each set-up is followed by its share of the timed frames, so that the
    timed window spans the whole process rather than its last seconds: the
    host's speed drifts over tens of seconds.  The host-speed kernel runs
    after every KERNEL_EVERY frames.  With a tracer, set-up is traced and
    timed frames alternate between untraced and traced, so the two latency
    medians give the tracing overhead.
    """
    setup_s, latencies, traced, problems = [], [], [], []
    kernel = calibrate.make_kernel()
    kernel_s = []
    clamped = {}
    outputs = {}
    i = 0
    for r in range(setups):
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        st = set_up(seed)
        setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        gc.collect()

        start = time.perf_counter()
        while (i < MIN_OPS * (r + 1) / setups
               or time.perf_counter() - start < seconds / setups):
            k = i % N_FRAMES
            # parity flips every cycle, so each frame is seen both ways
            on = tracer is not None and (i + i // N_FRAMES) % 2 == 1
            if on:
                tracer.install()
            latency, (label, n_clamped), problem = one_frame(st, k)
            if on:
                tracer.uninstall()
            latencies.append(latency)
            traced.append(on)
            problems.append(problem)
            clamped[k] = n_clamped
            outputs[k] = label
            i += 1
            if i % KERNEL_EVERY == 0:
                t0 = time.perf_counter()
                kernel()
                kernel_s.append(time.perf_counter() - t0)

    truth = [s.label for s in st["seqs"]]
    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "kernel_median_s": statistics.median(kernel_s),
        "host_scale": calibrate.REFERENCE_S / statistics.median(kernel_s),
        "traced": traced,
        "problems": problems,
        "heldout_acc": float(np.mean([outputs[k] == truth[k]
                                      for k in outputs])),
    }
    if tracer is not None:
        cfg = st["cfg"]
        result["health"] = {
            "fem.current_residual_max": health.current_residual_max(
                st["mesh"], st["layout"], cfg.saline_ms_per_m,
                cfg.contact_impedance_ohm_mm),
            "trainer.dead_head_frac": health.dead_head_frac(st["params"],
                                                            st["finals"]),
            "analog.clamped_substeps": sum(clamped.values()),
        }
    return result

