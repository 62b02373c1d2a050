"""Full-precision training: cross-entropy, BPTT through the Euler unroll,
Adam updates, and accuracy/confusion reporting.

Lists of sequences become arrays in ``to_arrays`` alone: once per split
in ``train``, and once per call in ``evaluate``.

The forward pass is the batched kernel ``afua.unroll`` / ``head_batch``;
the passes that need no gradient (the validation loss, ``evaluate``) run
``afua.forward_probabilities``, the one inference forward.  The backward
pass has the form of ``unroll``: it walks the records of ``unroll``
in reverse, one substep (row) at a time over the whole batch, writing
preallocated (B, n) and (B, 2n) workspaces in place.  Like ``unroll`` it
builds the views of each record row once per call, a list it walks
backwards, and binds its ufuncs to local names.  Each substep takes
one stacked gate derivative ``d * g * (1 - g)`` over the (B, 2n) gate row
and one product with the stacked recurrent weights ``[U_z; U]``.  The
stacked derivatives of one held input's S substeps fill an (S, B, 2n)
block, and the four weight gradients take it once per held input: the
input weights through its sum over the S substeps, and the recurrent
weights as one (S*B)-row product with that input's state records.
Clamps are treated as straight-through in the backward pass, so the
gradients are the exact reverse-mode derivatives of the unclamped recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .afua import (N_HIDDEN, PARAM_NAMES, TAU_H, IntegrationConfig,
                   NetworkParams, forward_probabilities,
                   head_batch, predict, unroll)
from .datapipe import N_INPUTS, DatasetSplit, InputSequence, write_csv
from .errors import ConfigError, NumericalError

# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class TrainReport:
    """Per-epoch curves plus the selected parameters."""

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1


def to_arrays(sequences: list[InputSequence]):
    """The float64 (N, T, D) steps and the int64 (N,) labels of a list."""
    return (np.asarray(sequences, dtype=float),
            np.array([s.label for s in sequences], dtype=np.int64))


def _loss_and_hits(P: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and the number of correct labels of a batch."""
    p_true = np.clip(P[np.arange(len(y)), y], 1e-12, None)
    return float(-np.log(p_true).mean()), int((predict(P) == y).sum())


# OpenBLAS runs a product on one thread while m * n * k <= 2^18; past that
# its bytes can depend on the BLAS thread count
_ONE_THREAD_MNK = 2 ** 18


def _add_gram(out, A, M):
    """``out += A.T @ M``, in row blocks that each run on one BLAS thread,
    so the sum has the same bytes at every BLAS thread count."""
    rows = max(1, _ONE_THREAD_MNK // (A.shape[1] * M.shape[1]))
    for lo in range(0, len(A), rows):
        out += A[lo:lo + rows].T @ M[lo:lo + rows]


def gradients(X: np.ndarray, y: np.ndarray, params: NetworkParams,
              cfg: IntegrationConfig):
    """Mean-loss gradients via reverse-mode BPTT of ``to_arrays``' steps
    and labels, plus the loss and hits as ``batch_loss_and_hits`` gives."""
    if not len(y):
        raise ConfigError("gradient batch must be non-empty")
    B, T, _ = X.shape
    n, S = params.n_hidden, cfg.substeps_per_pattern
    H_final, _, (Hs, gates, Ht, G) = unroll(X, params, cfg, keep_records=True)
    Z = gates[:, :, :n]
    P, A1, A2 = head_batch(H_final, params)

    grads = dict.fromkeys(PARAM_NAMES)
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

            dt_tau = np.array(cfg.dt / TAU_H)
            U_stack = np.vstack([params.U_z, params.U])  # (2n, n)
            g_in = np.zeros((2 * n, X.shape[2]))  # [W_z; W]
            g_rec = np.zeros((2 * n, n))  # [U_z; U]
            a = np.empty((B, n))
            dgate = np.empty((B, 2 * n))
            # one held input's stacked pre-activation derivatives
            D = np.empty((S, B, 2 * n))
            # each row's views built once, as in unroll: at small batches
            # slicing a row costs more than a substep's arithmetic
            rows = list(zip(list(Hs), list(gates), list(Z), list(Ht),
                            list(G)))
            d_rows = list(zip(list(D), list(D[:, :, :n]),
                              list(D[:, :, n:])))[::-1]
            matmul, add, subtract, multiply, divide = (
                np.matmul, np.add, np.subtract, np.multiply, np.divide)
            for t in reversed(range(T)):
                k0 = t * S
                for (h, g, z, ht, gg), (d, dz, dc) in zip(
                        reversed(rows[k0:k0 + S]), d_rows):
                    multiply(dH, dt_tau, a)
                    multiply(a, gg, dz)
                    multiply(a, z, a)  # dG
                    divide(a, ht, a)
                    subtract(dH, a, dH)
                    # dC = dG * H / Ht^2, straight-through at the epsilon floor
                    multiply(a, h, dc)
                    divide(dc, ht, dc)
                    # the stacked gate derivative d * g * (1 - g)
                    multiply(d, g, d)
                    subtract(1.0, g, dgate)
                    multiply(d, dgate, d)
                    matmul(d, U_stack, a)
                    add(dH, a, dH)
                _add_gram(g_in, D.sum(axis=0), X[:, t, :])
                _add_gram(g_rec, D.reshape(S * B, 2 * n),
                          Hs[k0:k0 + S].reshape(S * B, n))
    except FloatingPointError as exc:
        raise NumericalError(f"non-finite backward state: {exc}") from exc

    grads.update(W_z=g_in[:n], W=g_in[n:], U_z=g_rec[:n], U=g_rec[n:])
    for name, gmat in grads.items():
        if not np.all(np.isfinite(gmat)):
            raise NumericalError(f"non-finite gradient in {name}")
    return (grads, *_loss_and_hits(P, y))


def batch_loss_and_hits(X, y, params, cfg):
    """Mean cross-entropy and correct-label count of ``to_arrays``' steps
    and labels, forward pass only."""
    return _loss_and_hits(forward_probabilities(X, params, cfg), y)


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


def train(splits: DatasetSplit, batch_size: int, epochs: int,
          learning_rate: float, seed: int, cfg: IntegrationConfig):
    """Adam over mini-batches; returns best-validation-epoch params + report.

    Both lists are sorted by provenance before they become arrays, so
    results do not depend on the order sequences were loaded from disk.
    Deterministic given ``seed``.  Raises NumericalError naming the epoch
    when every gradient of a whole epoch is zero, as a ReLU head that is
    dead for every input gives.
    """
    if not splits.train or not splits.validation:
        raise ConfigError("train and validation sets must be non-empty")
    X, y = to_arrays(sorted(splits.train, key=lambda s: s.provenance))
    X_val, y_val = to_arrays(sorted(splits.validation,
                                    key=lambda s: s.provenance))

    params = init_params(seed)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1,)))

    m = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    v = {k: np.zeros_like(getattr(params, k)) for k in PARAM_NAMES}
    step = 0
    report = TrainReport()
    best_acc = -1.0
    best_params = params

    n = len(y)
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_hits = 0
        moved = False  # any non-zero gradient entry this epoch
        for lo in range(0, n, batch_size):
            idx = order[lo:lo + batch_size]
            try:
                grads, bl, hits = gradients(X[idx], y[idx], params, cfg)
            except NumericalError as exc:
                raise NumericalError(
                    f"training diverged at epoch {epoch}: {exc}") from exc
            moved = moved or any(g.any() for g in grads.values())
            epoch_loss += bl * len(idx)
            epoch_hits += hits
            step += 1
            updates = {}
            for k in PARAM_NAMES:
                m[k] = _BETA1 * m[k] + (1 - _BETA1) * grads[k]
                v[k] = _BETA2 * v[k] + (1 - _BETA2) * grads[k] ** 2
                mhat = m[k] / (1 - _BETA1 ** step)
                vhat = v[k] / (1 - _BETA2 ** step)
                updates[k] = (getattr(params, k) - learning_rate * mhat
                              / (np.sqrt(vhat) + _ADAM_EPS))
            params = replace(params, **updates)
        if not moved:
            # a ReLU head inactive for every input passes no gradient back
            raise NumericalError(
                f"training stalled at epoch {epoch}: every gradient was zero "
                f"in all {len(range(0, n, batch_size))} batches "
                "(dead ReLU head)")

        vl, vhits = batch_loss_and_hits(X_val, y_val, params, cfg)
        report.train_loss.append(epoch_loss / n)
        report.train_acc.append(epoch_hits / n)
        report.val_loss.append(vl)
        val_acc = vhits / len(y_val)
        report.val_acc.append(val_acc)
        if val_acc >= best_acc:  # ties resolve to the later epoch
            best_acc = val_acc
            best_params = params
            report.best_epoch = epoch

    return best_params, report


def evaluate(params, sequences: list[InputSequence], cfg: IntegrationConfig):
    """Accuracy and 2x2 confusion matrix (rows true, columns predicted) of
    a list of sequences, which ``to_arrays`` turns into arrays.

    Accepts full-precision NetworkParams or QuantizedParams (dequantized on
    the fly).
    """
    if not sequences:
        raise ConfigError("evaluation set must be non-empty")
    if hasattr(params, "dequantize"):
        params = params.dequantize()
    X, y = to_arrays(sequences)
    pred = predict(forward_probabilities(X, params, cfg))
    confusion = np.zeros((2, 2), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    accuracy = float(np.trace(confusion)) / len(y)
    return accuracy, confusion


def save_training_curve(report: TrainReport, path) -> None:
    """CSV: epoch, train_loss, train_acc, val_loss, val_acc."""
    write_csv(path, ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"],
              ([i, *row] for i, row in enumerate(zip(
                  report.train_loss, report.train_acc, report.val_loss,
                  report.val_acc))))


def save_confusion_csv(accuracy: float, confusion: np.ndarray, path) -> None:
    write_csv(path, ["", "pred_negative", "pred_positive"],
              [["true_negative", *map(int, confusion[0])],
               ["true_positive", *map(int, confusion[1])],
               ["accuracy", accuracy, ""]])
