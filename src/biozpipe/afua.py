"""Gated continuous-time recurrent classifier.

The recurrent layer holds each input vector fixed while its hidden state
relaxes toward a gated candidate:

    z      = logistic(W_z x + U_z h)
    h_cand = max(logistic(W x + U h), eps)
    tau_h * dh/dt = z * (1 - h / h_cand)

integrated with forward Euler from h = H0 in every unit.  tau_h is the
circuit's fixed ``TAU_H``, the Euler step dt is in its units and at most 1,
and model files keep a ``tau_h 1.0`` line.  A two-unit sigmoid layer, a
two-unit ReLU layer, and a softmax head map the final hidden state to class
probabilities.  The state update multiplies no two state vectors together
(no Hadamard products); each unit couples to the others only through the
four matrix-vector products.

``unroll`` and ``head_batch`` are the batched kernel that training and
current mode run.  ``forward_probabilities`` is the one inference forward
through them: ``classify``, evaluation and the quantized sweep all call it,
and ``predict`` is the one label rule.  ``afua_step`` and ``run_sequence``
step one sequence at a time: the reference for the tests.
``forward_probabilities`` and ``run_sequence`` take any array-like.

Every logistic gate is ``sigmoid``, in its tanh form
``0.5 + 0.5 * tanh(v / 2)`` clamped into the open range (0, 1).  ``unroll``
repeats its steps inline, for speed, and folds the 1/2 into its stacked
input and recurrent weights; halving is exact in binary, so its gates equal
``sigmoid`` of the full pre-activation bit for bit.

``unroll`` allocates its work arrays once per call and writes them in
place, through views of each row that it also builds once per call: at
batch 1, as in current mode, slicing a row on every substep would cost
more than the substep's arithmetic.  With ``keep_records`` it returns the
arrays as the records of the whole unroll, four arrays ``(H, gates, Ht,
G)`` for T held inputs of S substeps each: row ``k`` is substep ``k``,
which holds input ``k // S``.  ``H[k]`` (T*S, B, n) is the state substep
``k`` started from; ``gates[k]`` (T*S, B, 2n) stacks the gate ``Z[k]`` in
its first n columns and the raw candidate ``C[k]`` in its last n;
``Ht[k]`` (T*S, B, n) is the candidate after the epsilon floor and
``G[k] = 1 - H[k] / Ht[k]`` (T*S, B, n).  Backpropagation (``trainer.gradients``) walks these rows in reverse, and
current mode (``analog``) reads them at B = 1.

A model file (``write_model_file`` / ``read_model_file``) is a text file
of ``geometry``'s section format: the header ``biozpipe-model v2``, the
value lines ``tau_h``, ``substeps``, ``dt`` and ``epsilon``, then one
section per name of ``PARAM_NAMES``, a matrix's rows or a bias as one
row.  A quantized ``.afuaq`` file has the header ``biozpipe-qmodel v2``, a
``bits`` line before the value lines, a ``scales`` section of one row, in
``PARAM_NAMES`` order, before the matrices, and integer codes in them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError, NumericalError
from .geometry import read_sections, write_sections
from .phantom import LABEL_NEGATIVE, LABEL_POSITIVE

N_HIDDEN = 16
# every unit's hidden state at the start of a sequence
H0 = 0.5
# the relaxation time constant of every unit
TAU_H = 1.0
# upper bound on substeps_per_pattern: S = 1000 at dt = 0.001, the
# continuous-time reference that the step study checks labels against
# (RESULTS_32.json).  Without records ``unroll`` keeps one held input's S
# substeps: per sequence and substep, 96 float64 columns over five arrays
# and 16 bools, 784 B, so a 256-sequence chunk of ``forward_probabilities``
# takes 0.2 MB per substep, 200 MB at 1000
MAX_SUBSTEPS = 1000

@dataclass(frozen=True)
class NetworkParams:
    """All learnable weights."""

    W_z: np.ndarray  # (16, 25)
    U_z: np.ndarray  # (16, 16)
    W: np.ndarray  # (16, 25)
    U: np.ndarray  # (16, 16)
    fc1_w: np.ndarray  # (2, 16)
    fc1_b: np.ndarray  # (2,)
    fc2_w: np.ndarray  # (2, 2)
    fc2_b: np.ndarray  # (2,)

    def __post_init__(self):
        # a W_z that is not a matrix fails its own shape check below
        n, d = (np.shape(self.W_z) + (0, 0))[:2]
        shapes = ((n, d), (n, n), (n, d), (n, n), (2, n), (2,), (2, 2), (2,))
        for name, shape in zip(PARAM_NAMES, shapes):
            mat = getattr(self, name)
            if np.shape(mat) != shape:
                raise ConfigError(f"{name} has shape {np.shape(mat)}, "
                                  f"expected {shape}")
            if not np.all(np.isfinite(mat)):
                raise ConfigError(f"non-finite entries in {name}")

    @property
    def n_hidden(self) -> int:
        return self.W_z.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.W_z.shape[1]

    def matrices(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


# the learnable weights, in model-file order
PARAM_NAMES = tuple(f.name for f in fields(NetworkParams))


@dataclass(frozen=True)
class IntegrationConfig:
    """Euler discretization: S substeps of size dt per held input.

    The default S = 4, dt = 0.25 (S * dt = 1, and 0.25 is exact in binary)
    is the coarsest step whose trained models keep test accuracy at seeds
    7, 8 and 9 and at least 99% of their test labels at the S = 1000
    continuous-time limit; ``RESULTS_32.json`` holds the study.  A model
    file carries its own S and dt, so a model keeps the step it was
    trained at.
    """

    substeps_per_pattern: int = 4
    dt: float = 0.25
    epsilon: float = 1e-6

    def __post_init__(self):
        if not 1 <= self.substeps_per_pattern <= MAX_SUBSTEPS:
            raise ConfigError(f"substeps_per_pattern must be in [1, "
                              f"{MAX_SUBSTEPS}], got "
                              f"{self.substeps_per_pattern!r}")
        if not 0 <= self.dt <= TAU_H:
            raise ConfigError(f"dt must be in [0, tau_h = {TAU_H!r}], "
                              f"got {self.dt!r}")
        if not 0 < self.epsilon <= 1e-4:
            raise ConfigError("epsilon must be in (0, 1e-4]")


# output clamped strictly inside (0, 1): the candidate state is divided by,
# and the saturated tails would otherwise round to exactly 0 or 1.  The
# constants are 0-d arrays because ufuncs take them faster than Python
# floats, which matters at batch 1.
_SIG_FLOOR = np.array(np.nextafter(0.0, 1.0))
_SIG_CEIL = np.array(np.nextafter(1.0, 0.0))
_HALF = np.array(0.5)
_ONE = np.array(1.0)


def sigmoid(v):
    """Logistic function ``0.5 + 0.5 * tanh(v / 2)``, with open range (0, 1).

    Accurate to 1.2e-16 in absolute terms, not in relative ones: near 0
    the result moves in steps of 2^-54 (5.6e-17), so from v = -38 on,
    where the true value is below 3.2e-17, it is the floor.  A scalar
    ``v`` gives a float.
    """
    v = np.asarray(v, dtype=float)
    # out= keeps a 0-d v an array, which the in-place calls below need
    e = np.multiply(v, _HALF, out=np.empty_like(v))
    np.tanh(e, out=e)
    np.multiply(e, _HALF, out=e)
    np.add(e, _HALF, out=e)
    np.maximum(e, _SIG_FLOOR, out=e)
    np.minimum(e, _SIG_CEIL, out=e)
    return float(e) if e.ndim == 0 else e


def afua_step(x: np.ndarray, h: np.ndarray, params: NetworkParams,
              cfg: IntegrationConfig):
    """One forward-Euler substep from state h with the input held at x;
    returns the new state, the gate and the candidate."""
    z = sigmoid(params.W_z @ x + params.U_z @ h)
    h_tilde = np.maximum(sigmoid(params.W @ x + params.U @ h), cfg.epsilon)
    h_new = h + cfg.dt * (z / TAU_H) * (1.0 - h / h_tilde)
    for name, vec in (("gate", z), ("candidate", h_tilde), ("state", h_new)):
        bad = ~np.isfinite(vec)
        if bad.any():
            raise NumericalError(
                f"non-finite {name} value at unit {int(np.argmax(bad))}"
            )
    return np.clip(h_new, cfg.epsilon, 1.0 - cfg.epsilon), z, h_tilde


def run_sequence(seq, params: NetworkParams,
                 cfg: IntegrationConfig) -> np.ndarray:
    """Integrate through all input steps; return the final hidden vector.

    ``seq`` is any array-like of shape (steps, inputs), an InputSequence
    included.  Each row is held constant for S substeps.
    """
    steps = np.asarray(seq, dtype=float)
    if steps.ndim != 2 or steps.shape[1] != params.n_inputs:
        raise ConfigError(
            f"sequence width {steps.shape} does not match {params.n_inputs} inputs"
        )
    h = np.full(params.n_hidden, H0)
    for t, x in enumerate(steps):
        try:
            for _ in range(cfg.substeps_per_pattern):
                h, _, _ = afua_step(x, h, params, cfg)
        except NumericalError as exc:
            raise NumericalError(f"step {t}: {exc}") from exc
    return h


def unroll(X: np.ndarray, params: NetworkParams, cfg: IntegrationConfig,
           keep_records: bool = False):
    """Euler unroll of a (B, T, D) batch with the gates stacked.

    Returns the final (B, n) states, the number of state entries the clamp
    moved, and the records ``(H, gates, Ht, G)`` laid out as the module
    docstring says (``None`` unless ``keep_records``).  Without records
    the work arrays hold one held input's S substeps and are reused.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.n_inputs:
        raise ConfigError(
            f"sequence width {X.shape} does not match {params.n_inputs} inputs"
        )
    B, T, _ = X.shape
    n, S = params.n_hidden, cfg.substeps_per_pattern
    # the gates' 1/2, folded in: each substep runs sigmoid's later steps
    W_in = _HALF * np.vstack([params.W_z, params.W]).T
    U_rec = _HALF * np.vstack([params.U_z, params.U]).T
    dt_tau = np.array(cfg.dt / TAU_H)
    eps, top = np.array(cfg.epsilon), np.array(1.0 - cfg.epsilon)
    L = T * S if keep_records else S
    Hs = np.empty((L + 1, B, n))  # Hs[k]: the state substep k starts from
    gates = np.empty((L, B, 2 * n))
    Ht = np.empty((L, B, n))
    G = np.empty((L, B, n))
    x_in = np.empty((B, 2 * n))
    free = np.empty((S, B, n))  # one held input's updates before the clamp
    moved = np.empty((S, B, n), dtype=bool)
    # each row's views built once and the ufuncs bound to locals: at batch
    # 1 a slice or lookup costs more than a substep's arithmetic.  maximum
    # and minimum keep out=: NumPy 2.4 deprecates a positional third argument
    rows = list(zip(list(Hs[:-1]), list(Hs[1:]), list(gates),
                    list(gates[:, :, :n]), list(gates[:, :, n:]), list(Ht),
                    list(G), list(free) * (L // S)))
    matmul, add, subtract, multiply, divide, tanh, maximum, minimum = (
        np.matmul, np.add, np.subtract, np.multiply, np.divide, np.tanh,
        np.maximum, np.minimum)
    Hs[0] = H0
    clamped = last = 0
    for t in range(T):
        k0 = t * S if keep_records else 0
        if not keep_records and t:
            Hs[0] = Hs[S]
        matmul(X[:, t, :], W_in, x_in)
        for h, hn, g, z, c, ht, gg, u in rows[k0:k0 + S]:
            matmul(h, U_rec, g)
            add(x_in, g, g)
            # sigmoid's steps on the halved pre-activation
            tanh(g, g)
            multiply(g, _HALF, g)
            add(g, _HALF, g)
            maximum(g, _SIG_FLOOR, out=g)
            minimum(g, _SIG_CEIL, out=g)
            maximum(c, eps, out=ht)
            divide(h, ht, gg)
            subtract(_ONE, gg, gg)
            multiply(dt_tau, z, u)
            multiply(u, gg, u)
            add(h, u, u)
            maximum(u, eps, out=hn)
            minimum(hn, top, out=hn)
        last = k0 + S
        np.not_equal(free, Hs[k0 + 1:last + 1], out=moved)
        clamped += int(np.count_nonzero(moved))
        # a non-finite value stays non-finite through every later substep
        if not np.isfinite(Hs[last]).all():
            raise NumericalError(f"step {t}: non-finite state value")
    records = (Hs[:L], gates, Ht, G) if keep_records else None
    return Hs[last], clamped, records


def head_batch(H: np.ndarray, params: NetworkParams):
    """Class probabilities of (B, n) states, with the A1 and A2 layers."""
    A1 = sigmoid(H @ params.fc1_w.T + params.fc1_b)
    A2 = np.maximum(A1 @ params.fc2_w.T + params.fc2_b, 0.0)
    E = np.exp(A2 - A2.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True), A1, A2


def predict(P: np.ndarray) -> np.ndarray:
    """Labels of (..., 2) class probabilities; ties resolve to negative."""
    return np.where(P[..., 1] > P[..., 0], LABEL_POSITIVE, LABEL_NEGATIVE)


_EVAL_BATCH = 256


def forward_probabilities(batch, params: NetworkParams,
                          cfg: IntegrationConfig) -> np.ndarray:
    """Class probabilities for a list of (T, D) array-likes, InputSequences
    included, or a (B, T, D) array, 256 at a time."""
    return np.concatenate([
        head_batch(unroll(batch[lo:lo + _EVAL_BATCH], params, cfg)[0],
                   params)[0]
        for lo in range(0, len(batch), _EVAL_BATCH)])


def classify(seq, params: NetworkParams, cfg: IntegrationConfig):
    """Label one sequence; return the label and the class probabilities."""
    p = forward_probabilities([seq], params, cfg)[0]
    return int(predict(p)), p


# ---------------------------------------------------------------------------
# Model file: geometry's section format, bit-exact on reload
# ---------------------------------------------------------------------------

_SETTINGS = (("tau_h", float, 0), ("substeps", int, 0), ("dt", float, 0),
             ("epsilon", float, 0))
# header and section table by quantized: each matrix is a section of rows,
# a bias one row
_MODEL_FILES = {
    False: ("biozpipe-model v2",
            _SETTINGS + tuple((name, float, None) for name in PARAM_NAMES)),
    True: ("biozpipe-qmodel v2",
           (("bits", int, 0), *_SETTINGS, ("scales", float, len(PARAM_NAMES)),
            *((name, int, None) for name in PARAM_NAMES)))}


def write_model_file(path, cfg: IntegrationConfig, params) -> None:
    """Write the weights of NetworkParams, or the integer codes, bit width
    and scales of QuantizedParams."""
    quantized = hasattr(params, "codes")
    mats = params.codes if quantized else params.matrices()
    found = {"tau_h": TAU_H, "substeps": cfg.substeps_per_pattern,
             "dt": cfg.dt, "epsilon": cfg.epsilon,
             **{name: np.atleast_2d(mats[name]) for name in PARAM_NAMES}}
    if quantized:
        found["bits"] = params.total_bits
        found["scales"] = [[params.scales[name] for name in PARAM_NAMES]]
    write_sections(path, *_MODEL_FILES[quantized], found)


def read_model_file(path, build, quantized: bool = False):
    """Parse a file ``write_model_file`` wrote into ``(model, cfg)``, the
    model made by ``build(mats, bits, scales)``.  Malformed content, a
    ``tau_h`` other than ``TAU_H`` and values ``build`` or the config
    reject included, raises FormatError."""
    try:
        sec = read_sections(path, *_MODEL_FILES[quantized])
        if sec["tau_h"] != TAU_H:
            raise ValueError(f"tau_h {sec['tau_h']!r} is not {TAU_H!r}")
        mats = {}
        for name in PARAM_NAMES:
            mat = np.array(sec[name], dtype=np.int32 if quantized else float)
            mats[name] = mat.ravel() if name.endswith("_b") else mat
        scales = sec.get("scales", [[]])  # none in an .afua file
        if len(scales) != 1:
            raise ValueError(f"scales is {len(scales)} rows, not one")
        cfg = IntegrationConfig(substeps_per_pattern=sec["substeps"],
                                dt=sec["dt"], epsilon=sec["epsilon"])
        model = build(mats, sec.get("bits"),
                      dict(zip(PARAM_NAMES, scales[0])))
    except (ValueError, IndexError, OverflowError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc}") from exc
    return model, cfg


def load_model(path) -> tuple[NetworkParams, IntegrationConfig]:
    return read_model_file(path, lambda mats, *_: NetworkParams(**mats))
