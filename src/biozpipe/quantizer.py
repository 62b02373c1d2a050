"""Signed fixed-point weight quantization and the bit-width accuracy sweep.

N total bits means one sign bit plus N-1 magnitude bits: codes live in
[-(2^(N-1)-1), +(2^(N-1)-1)] with a symmetric per-matrix scale equal to the
largest absolute weight, and ties round half away from zero.  Only weights
are quantized; activations, state, and the time constant stay full
precision.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .afua import (PARAM_NAMES, IntegrationConfig, NetworkParams, classify,
                   read_model_file, write_model_file)
from .errors import ConfigError

MIN_BITS = 3
MAX_BITS = 16


@dataclass(frozen=True)
class QuantSpec:
    """Bit width plus the per-matrix symmetric scales."""

    total_bits: int
    scales: dict[str, float]

    def __post_init__(self):
        if not MIN_BITS <= self.total_bits <= MAX_BITS:
            raise ConfigError(
                f"bit width {self.total_bits} outside [{MIN_BITS}, {MAX_BITS}]"
            )
        if not all(0 < s < np.inf for s in self.scales.values()):
            raise ConfigError("scales must be positive and finite")

    @property
    def max_code(self) -> int:
        return 2 ** (self.total_bits - 1) - 1

    def step(self, name: str) -> float:
        return self.scales[name] / self.max_code


@dataclass(frozen=True)
class QuantizedParams:
    """Integer codes mirroring NetworkParams; tau_h stays full precision."""

    codes: dict[str, np.ndarray]
    spec: QuantSpec
    tau_h: float

    def __post_init__(self):
        self.dequantize()  # ConfigError unless the codes fit NetworkParams

    def dequantize(self) -> NetworkParams:
        deq = {name: self.codes[name] * self.spec.step(name)
               for name in PARAM_NAMES}
        return NetworkParams(tau_h=self.tau_h, **deq)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (unlike banker's rounding)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def make_spec(params: NetworkParams, total_bits: int) -> QuantSpec:
    scales = {}
    for name in PARAM_NAMES:
        s = float(np.max(np.abs(getattr(params, name))))
        scales[name] = s if s > 0 else 1.0
    return QuantSpec(total_bits=total_bits, scales=scales)


def quantize(params: NetworkParams, total_bits: int) -> QuantizedParams:
    """Quantize every weight matrix and bias with the per-matrix rule."""
    spec = make_spec(params, total_bits)
    codes = {}
    for name in PARAM_NAMES:
        w = np.asarray(getattr(params, name), dtype=float)
        c = round_half_away(w / spec.step(name))
        codes[name] = np.clip(c, -spec.max_code, spec.max_code).astype(np.int32)
    return QuantizedParams(codes=codes, spec=spec, tau_h=float(params.tau_h))


def quantized_forward(qparams: QuantizedParams, seq,
                      cfg: IntegrationConfig = IntegrationConfig()):
    """Classify with dequantized weights; full-precision state/activations."""
    return classify(seq, qparams.dequantize(), cfg)


def sweep(params: NetworkParams, test_set, bit_list,
          cfg: IntegrationConfig = IntegrationConfig()):
    """Accuracy at each bit width plus full precision.

    Returns rows of (label, accuracy) where label is the bit count or the
    literal "FP".
    """
    from .trainer import evaluate  # local import avoids a cycle

    if not test_set:
        raise ConfigError("sweep needs a non-empty evaluation set")
    rows = []
    for bits in bit_list:
        acc, _ = evaluate(quantize(params, int(bits)), test_set, cfg)
        rows.append((str(int(bits)), acc))
    acc_fp, _ = evaluate(params, test_set, cfg)
    rows.append(("FP", acc_fp))
    return rows


def save_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["bits", "accuracy"])
        for label, acc in rows:
            w.writerow([label, repr(float(acc))])


# ---------------------------------------------------------------------------
# Quantized model file: the model-file layout with codes and scales
# ---------------------------------------------------------------------------


def save_quantized_model(qparams: QuantizedParams, cfg: IntegrationConfig,
                         path) -> None:
    write_model_file(path, qparams.tau_h, cfg, qparams.codes, qparams.spec)


def load_quantized_model(path) -> tuple[QuantizedParams, IntegrationConfig]:
    return read_model_file(
        path, lambda tau_h, codes, bits, scales: QuantizedParams(
            codes=codes, spec=QuantSpec(total_bits=bits, scales=scales),
            tau_h=tau_h), quantized=True)
