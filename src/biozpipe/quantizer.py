"""Signed fixed-point weight quantization and the bit-width accuracy sweep.

N total bits means one sign bit plus N-1 magnitude bits: codes live in
[-(2^(N-1)-1), +(2^(N-1)-1)] with a symmetric per-matrix scale equal to the
largest absolute weight, and ties round half away from zero.  Only weights
are quantized; activations and state stay full precision.

The sweep scores the quantized models it is given: ``cli.stage_quantize``
quantizes each bit width once and passes the very models it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .afua import (PARAM_NAMES, IntegrationConfig, NetworkParams, classify,
                   read_model_file)
from .datapipe import write_csv
from .errors import ConfigError
from .trainer import evaluate

MIN_BITS = 3
MAX_BITS = 16


def check_bits(total_bits: int) -> None:
    if not MIN_BITS <= total_bits <= MAX_BITS:
        raise ConfigError(
            f"bit width {total_bits} outside [{MIN_BITS}, {MAX_BITS}]")


def max_code(total_bits: int) -> int:
    """The largest code magnitude of ``total_bits`` signed bits."""
    return 2 ** (total_bits - 1) - 1


@dataclass(frozen=True)
class QuantizedParams:
    """Integer codes mirroring NetworkParams, with bit width and scales."""

    codes: dict[str, np.ndarray]
    total_bits: int
    scales: dict[str, float]
    # built once: ConfigError here unless the codes fit NetworkParams
    _dequantized: NetworkParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_bits(self.total_bits)
        if not all(0 < s < np.inf for s in self.scales.values()):
            raise ConfigError("scales must be positive and finite")
        top = max_code(self.total_bits)
        for name in PARAM_NAMES:
            codes = self.codes[name]
            if np.min(codes) < -top or np.max(codes) > top:
                raise ConfigError(f"{name} has a code beyond +-{top}")
        deq = {name: self.codes[name] * self.step(name)
               for name in PARAM_NAMES}
        object.__setattr__(self, "_dequantized", NetworkParams(**deq))

    def step(self, name: str) -> float:
        """The weight one code unit of matrix ``name`` stands for."""
        return self.scales[name] / max_code(self.total_bits)

    def dequantize(self) -> NetworkParams:
        """The dequantized weights, the same object on every call."""
        return self._dequantized


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero (unlike banker's rounding)."""
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def quantize(params: NetworkParams, total_bits: int) -> QuantizedParams:
    """Quantize every weight matrix and bias with the per-matrix rule; an
    all-zero matrix gets scale 1."""
    check_bits(total_bits)
    top = max_code(total_bits)
    codes, scales = {}, {}
    for name in PARAM_NAMES:
        w = np.asarray(getattr(params, name), dtype=float)
        scales[name] = float(np.max(np.abs(w))) or 1.0
        c = round_half_away(w / (scales[name] / top))
        codes[name] = np.clip(c, -top, top).astype(np.int32)
    return QuantizedParams(codes=codes, total_bits=total_bits, scales=scales)


def quantized_forward(qparams: QuantizedParams, seq, cfg: IntegrationConfig):
    """Classify with dequantized weights; full-precision state/activations."""
    return classify(seq, qparams.dequantize(), cfg)


def sweep(params: NetworkParams, models: list[QuantizedParams], test_set,
          cfg: IntegrationConfig):
    """Accuracy of each quantized model, in order, plus full precision.

    Returns rows of (label, accuracy) where label is the model's bit count
    or the literal "FP".
    """
    rows = [(str(q.total_bits), evaluate(q, test_set, cfg)[0]) for q in models]
    acc_fp, _ = evaluate(params, test_set, cfg)
    rows.append(("FP", acc_fp))
    return rows


def save_sweep_csv(rows, path) -> None:
    write_csv(path, ["bits", "accuracy"], rows)


# ---------------------------------------------------------------------------
# Quantized model file: the model-file sections with bits, scales and codes,
# written by ``afua.write_model_file``
# ---------------------------------------------------------------------------


def load_quantized_model(path) -> tuple[QuantizedParams, IntegrationConfig]:
    return read_model_file(path, lambda codes, bits, scales: QuantizedParams(
        codes=codes, total_bits=bits, scales=scales), quantized=True)
