"""Full-precision training: cross-entropy, BPTT through the Euler unroll,
Adam updates, and accuracy/confusion reporting.

The forward pass is the batched kernel ``afua.unroll`` / ``head_batch``;
the backward pass walks its record arrays in reverse, one substep (row) at
a time over the whole batch.
Clamps are treated as straight-through in the backward pass, so the
gradients are the exact reverse-mode derivatives of the unclamped recursion.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .afua import (N_HIDDEN, PARAM_NAMES, IntegrationConfig, NetworkParams,
                   head_batch, predict, unroll)
from .datapipe import N_INPUTS, DatasetSplit, InputSequence
from .errors import ConfigError, NumericalError

_EVAL_BATCH = 256


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    epochs: int = 500
    learning_rate: float = 1e-3
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")
        if not 0 < self.adam_eps < np.inf:
            raise ConfigError("adam_eps must be positive and finite")


@dataclass
class TrainReport:
    """Per-epoch curves plus the selected parameters."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1


def _stack_steps(batch) -> np.ndarray:
    return np.stack([np.asarray(getattr(s, "steps", s), dtype=float)
                     for s in batch])  # (B, T, D)


def _labels(batch) -> np.ndarray:
    return np.array([s.label for s in batch], dtype=np.int64)


def _loss_and_hits(P: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and the number of correct labels of a batch."""
    p_true = np.clip(P[np.arange(len(y)), y], 1e-12, None)
    return float(-np.log(p_true).mean()), int((predict(P) == y).sum())


def forward_probabilities(batch, params: NetworkParams,
                          cfg: IntegrationConfig) -> np.ndarray:
    """Class probabilities for a list of sequences, 256 at a time."""
    return np.concatenate([
        head_batch(unroll(_stack_steps(batch[lo:lo + _EVAL_BATCH]),
                          params, cfg)[0], params)[0]
        for lo in range(0, len(batch), _EVAL_BATCH)])


def gradients(batch: list[InputSequence], params: NetworkParams,
              cfg: IntegrationConfig):
    """Mean-loss gradients via reverse-mode BPTT, plus the batch's loss
    and hits as ``batch_loss_and_hits`` gives them."""
    if not batch:
        raise ConfigError("gradient batch must be non-empty")
    X, y = _stack_steps(batch), _labels(batch)
    B = len(batch)
    H_final, _, records = unroll(X, params, cfg, keep_records=True)
    P, A1, A2 = head_batch(H_final, params)

    grads = {name: np.zeros_like(getattr(params, name))
             for name in PARAM_NAMES}

    # a diverging run overflows in here first; stop at the first non-finite
    # value instead of carrying NaN and inf through the remaining substeps
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # softmax + cross-entropy
            dA2 = P.copy()
            dA2[np.arange(B), y] -= 1.0
            dA2 /= B
            dpre2 = dA2 * (A2 > 0.0)
            grads["fc2_w"] = dpre2.T @ A1
            grads["fc2_b"] = dpre2.sum(axis=0)
            dA1 = dpre2 @ params.fc2_w
            dpre1 = dA1 * A1 * (1.0 - A1)
            grads["fc1_w"] = dpre1.T @ H_final
            grads["fc1_b"] = dpre1.sum(axis=0)
            dH = dpre1 @ params.fc1_w

            dt_tau = cfg.dt / params.tau_h
            S = cfg.substeps_per_pattern
            for k in reversed(range(len(records[0]))):
                H_in, Z, C, Ht, G = (rec[k] for rec in records)
                Xt = X[:, k // S, :]
                # clamp on the updated state is straight-through
                dZ = dH * dt_tau * G
                dG = dH * dt_tau * Z
                dHt = dG * (H_in / (Ht * Ht))
                dC = dHt  # straight-through at the epsilon floor
                dpre_c = dC * C * (1.0 - C)
                dpre_z = dZ * Z * (1.0 - Z)
                grads["W_z"] += dpre_z.T @ Xt
                grads["U_z"] += dpre_z.T @ H_in
                grads["W"] += dpre_c.T @ Xt
                grads["U"] += dpre_c.T @ H_in
                dH = dH - dG / Ht + dpre_z @ params.U_z + dpre_c @ params.U
    except FloatingPointError as exc:
        raise NumericalError(f"non-finite backward state: {exc}") from exc

    for name, gmat in grads.items():
        if not np.all(np.isfinite(gmat)):
            raise NumericalError(f"non-finite gradient in {name}")
    return (grads, *_loss_and_hits(P, y))


def batch_loss_and_hits(batch, params, cfg):
    """Mean cross-entropy and correct-label count, forward pass only."""
    return _loss_and_hits(forward_probabilities(batch, params, cfg),
                          _labels(batch))


def init_params(seed: int) -> NetworkParams:
    """Uniform init in [-1/sqrt(fan_in), 1/sqrt(fan_in)].

    ``fc1_b`` starts at 0 and ``fc2_b`` at 0.5. The sigmoid layer's output
    A1 lies in (0, 1) and barely varies across inputs at init (about
    0.42-0.50), so with a zero ``fc2_b`` the 2x2 ``fc2_w`` often makes both
    ReLU pre-activations negative for every input. A ReLU head whose units
    are all inactive outputs [0.5, 0.5] and gets no gradient, so training
    never moves. Each pre-activation is 0.5 plus two terms of at most
    sqrt(2)/2 * A1 each, so a unit starts inactive only when both of its
    weights are large and negative; 0.1 still leaves some seeds dead.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0,)))

    def u(shape, fan_in):
        lim = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-lim, lim, size=shape)

    return NetworkParams(
        W_z=u((N_HIDDEN, N_INPUTS), N_INPUTS),
        U_z=u((N_HIDDEN, N_HIDDEN), N_HIDDEN),
        W=u((N_HIDDEN, N_INPUTS), N_INPUTS),
        U=u((N_HIDDEN, N_HIDDEN), N_HIDDEN),
        fc1_w=u((2, N_HIDDEN), N_HIDDEN),
        fc1_b=np.zeros(2),
        fc2_w=u((2, 2), 2),
        fc2_b=np.full(2, 0.5),
    )


def train(splits: DatasetSplit, config: TrainConfig,
          cfg: IntegrationConfig = IntegrationConfig()):
    """Adam over mini-batches; returns best-validation-epoch params + report.

    The training list is sorted by provenance before the seeded shuffle, so
    results do not depend on the order sequences were loaded from disk.
    Deterministic given config.seed.  Raises NumericalError naming the
    epoch when every gradient of a whole epoch is zero, as a ReLU head that
    is dead for every input gives.
    """
    if not splits.train or not splits.validation:
        raise ConfigError("train and validation sets must be non-empty")
    train_set = sorted(splits.train, key=lambda s: s.provenance)
    val_set = sorted(splits.validation, key=lambda s: s.provenance)

    params = init_params(config.seed)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(1,)))

    m = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    v = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    step = 0
    report = TrainReport()
    best_acc = -1.0
    best_params = params

    n = len(train_set)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_hits = 0
        moved = False  # any non-zero gradient entry this epoch
        for lo in range(0, n, config.batch_size):
            batch = [train_set[i] for i in order[lo:lo + config.batch_size]]
            try:
                grads, bl, hits = gradients(batch, params, cfg)
            except NumericalError as exc:
                raise NumericalError(
                    f"training diverged at epoch {epoch}: {exc}") from exc
            moved = moved or any(g.any() for g in grads.values())
            epoch_loss += bl * len(batch)
            epoch_hits += hits
            step += 1
            updates = {}
            for k in PARAM_NAMES:
                m[k] = config.beta1 * m[k] + (1 - config.beta1) * grads[k]
                v[k] = config.beta2 * v[k] + (1 - config.beta2) * grads[k] ** 2
                mhat = m[k] / (1 - config.beta1 ** step)
                vhat = v[k] / (1 - config.beta2 ** step)
                updates[k] = (getattr(params, k)
                              - config.learning_rate * mhat
                              / (np.sqrt(vhat) + config.adam_eps))
            params = replace(params, **updates)
        if not moved:
            # a ReLU head inactive for every input passes no gradient back
            raise NumericalError(
                f"training stalled at epoch {epoch}: every gradient was zero "
                f"in all {len(range(0, n, config.batch_size))} batches "
                "(dead ReLU head)")

        vl, vhits = batch_loss_and_hits(val_set, params, cfg)
        report.train_loss.append(epoch_loss / n)
        report.train_acc.append(epoch_hits / n)
        report.val_loss.append(vl)
        val_acc = vhits / len(val_set)
        report.val_acc.append(val_acc)
        if val_acc >= best_acc:  # ties resolve to the later epoch
            best_acc = val_acc
            best_params = params
            report.best_epoch = epoch

    return best_params, report


def evaluate(params, sequences: list[InputSequence],
             cfg: IntegrationConfig = IntegrationConfig()):
    """Accuracy and 2x2 confusion matrix (rows true, columns predicted).

    Accepts full-precision NetworkParams or QuantizedParams (dequantized on
    the fly).
    """
    if not sequences:
        raise ConfigError("evaluation set must be non-empty")
    if hasattr(params, "dequantize"):
        params = params.dequantize()
    pred = predict(forward_probabilities(sequences, params, cfg))
    confusion = np.zeros((2, 2), dtype=np.int64)
    np.add.at(confusion, (_labels(sequences), pred), 1)
    accuracy = float(np.trace(confusion)) / len(sequences)
    return accuracy, confusion


def save_training_curve(report: TrainReport, path) -> None:
    """CSV: epoch, train_loss, train_acc, val_loss, val_acc."""
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
        for i in range(len(report.train_loss)):
            w.writerow([i, repr(report.train_loss[i]), repr(report.train_acc[i]),
                        repr(report.val_loss[i]), repr(report.val_acc[i])])


def save_confusion_csv(accuracy: float, confusion: np.ndarray, path) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        w = csv.writer(f)
        w.writerow(["", "pred_negative", "pred_positive"])
        w.writerow(["true_negative", int(confusion[0, 0]), int(confusion[0, 1])])
        w.writerow(["true_positive", int(confusion[1, 0]), int(confusion[1, 1])])
        w.writerow(["accuracy", repr(accuracy), ""])
