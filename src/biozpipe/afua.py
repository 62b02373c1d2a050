"""Gated continuous-time recurrent classifier.

The recurrent layer holds each input vector fixed while its hidden state
relaxes toward a gated candidate:

    z      = logistic(W_z x + U_z h)
    h_cand = max(logistic(W x + U h), eps)
    tau_h * dh/dt = z * (1 - h / h_cand)

integrated with forward Euler from h = H0 in every unit.  A two-unit
sigmoid layer, a two-unit ReLU layer, and a softmax head map the final
hidden state to class probabilities.  The state update multiplies no two
state vectors together (no Hadamard products); each unit couples to the
others only through the four matrix-vector products.

``unroll`` and ``head_batch`` are the batched kernel that classify,
training, the quantized sweep and current mode all run, and ``predict`` is
the one label rule.  ``afua_step`` and ``run_sequence`` step one sequence at
a time: the reference for the tests.

``unroll`` allocates its work arrays once per call and writes them in
place.  With ``keep_records`` it returns them as the records of the whole
unroll, five arrays ``(H, Z, C, Ht, G)`` of shape (T*S, B, n) for T held
inputs of S substeps each: row ``k`` is substep ``k``, which holds input
``k // S``.  ``H[k]`` is the state substep ``k`` started from, ``Z[k]`` the
gate, ``C[k]`` the raw candidate, ``Ht[k]`` the candidate after the epsilon
floor and ``G[k] = 1 - H[k] / Ht[k]``.  Z and C are the two halves of one
(T*S, B, 2n) gate array.  Backpropagation (``trainer.gradients``) walks
these rows in reverse, and current mode (``analog``) reads them at B = 1.

A quantized ``.afuaq`` file uses the same model-file layout as ``.afua``
(``write_model_file`` / ``read_model_file``), with integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, FormatError, NumericalError

N_HIDDEN = 16
# every unit's hidden state at the start of a sequence
H0 = 0.5

LABEL_BENIGN = 0
LABEL_LESION = 1

@dataclass(frozen=True)
class NetworkParams:
    """All learnable weights plus the (fixed) relaxation time constant."""

    W_z: np.ndarray  # (16, 25)
    U_z: np.ndarray  # (16, 16)
    W: np.ndarray  # (16, 25)
    U: np.ndarray  # (16, 16)
    fc1_w: np.ndarray  # (2, 16)
    fc1_b: np.ndarray  # (2,)
    fc2_w: np.ndarray  # (2, 2)
    fc2_b: np.ndarray  # (2,)
    tau_h: float = 1.0

    def __post_init__(self):
        if not 0 < self.tau_h < np.inf:
            raise ConfigError("tau_h must be positive and finite")
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
PARAM_NAMES = tuple(f.name for f in fields(NetworkParams) if f.name != "tau_h")


@dataclass(frozen=True)
class IntegrationConfig:
    """Euler discretization: S substeps of size dt per held input."""

    substeps_per_pattern: int = 10
    dt: float = 0.1
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.substeps_per_pattern < 1:
            raise ConfigError("substeps_per_pattern must be >= 1")
        if not 0 <= self.dt < np.inf:
            raise ConfigError("dt must be non-negative and finite")
        if not 0 < self.epsilon <= 1e-4:
            raise ConfigError("epsilon must be in (0, 1e-4]")


# output clamped strictly inside (0, 1): the candidate state is divided by,
# and the saturated tails would otherwise round to exactly 0 or 1.  The
# constants are 0-d arrays because ufuncs take them faster than Python
# floats, which matters at batch 1.
_SIG_FLOOR = np.array(np.nextafter(0.0, 1.0))
_SIG_CEIL = np.array(np.nextafter(1.0, 0.0))
_ZERO = np.array(0.0)
_ONE = np.array(1.0)


def sigmoid(v, out=None):
    """Logistic function, numerically stable, with open range (0, 1).

    Writes into ``out`` when it is given, which may be ``v`` itself.  A
    scalar ``v`` gives a float.
    """
    v = np.asarray(v, dtype=float)
    nonneg = np.greater_equal(v, _ZERO)
    e = np.abs(v, out=np.empty_like(v) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(nonneg, _ONE, e)
    np.add(_ONE, e, out=e)
    np.divide(num, e, out=e)
    np.maximum(e, _SIG_FLOOR, out=e)
    np.minimum(e, _SIG_CEIL, out=e)
    return float(e) if e.ndim == 0 else e


def afua_step(x: np.ndarray, h: np.ndarray, params: NetworkParams,
              cfg: IntegrationConfig):
    """One forward-Euler substep from state h with the input held at x;
    returns the new state, the gate and the candidate."""
    z = sigmoid(params.W_z @ x + params.U_z @ h)
    h_tilde = np.maximum(sigmoid(params.W @ x + params.U @ h), cfg.epsilon)
    h_new = h + cfg.dt * (z / params.tau_h) * (1.0 - h / h_tilde)
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

    ``seq`` is an InputSequence or a plain (steps, inputs) array.  Each row
    is held constant for S substeps.
    """
    steps = np.asarray(getattr(seq, "steps", seq), dtype=float)
    if steps.ndim != 2 or steps.shape[1] != params.n_inputs:
        raise ConfigError(
            f"sequence width {steps.shape} does not match {params.n_inputs} inputs"
        )
    if cfg.dt > params.tau_h:
        raise ConfigError("dt must not exceed tau_h")
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
    moved, and the records ``(H, Z, C, Ht, G)``: five (T*S, B, n) arrays
    laid out as the module docstring says (``None`` unless
    ``keep_records``).  Without records the work arrays hold one held
    input's S substeps and are reused.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.n_inputs:
        raise ConfigError(
            f"sequence width {X.shape} does not match {params.n_inputs} inputs"
        )
    if cfg.dt > params.tau_h:
        raise ConfigError("dt must not exceed tau_h")
    B, T, _ = X.shape
    n, S = params.n_hidden, cfg.substeps_per_pattern
    W_in = np.vstack([params.W_z, params.W]).T
    U_rec = np.vstack([params.U_z, params.U]).T
    dt_tau = np.array(cfg.dt / params.tau_h)
    eps, top = np.array(cfg.epsilon), np.array(1.0 - cfg.epsilon)
    L = T * S if keep_records else S
    Hs = np.empty((L + 1, B, n))  # Hs[k]: the state substep k starts from
    gates = np.empty((L, B, 2 * n))
    Z, C = gates[:, :, :n], gates[:, :, n:]
    Ht = np.empty((L, B, n))
    G = np.empty((L, B, n))
    x_in = np.empty((B, 2 * n))
    free = np.empty((S, B, n))  # one held input's updates before the clamp
    moved = np.empty((S, B, n), dtype=bool)
    Hs[0] = H0
    clamped = last = 0
    for t in range(T):
        k0 = t * S if keep_records else 0
        if not keep_records and t:
            Hs[0] = Hs[S]
        np.matmul(X[:, t, :], W_in, out=x_in)
        for j in range(S):
            k = k0 + j
            h, hn, g, ht, gg = Hs[k], Hs[k + 1], gates[k], Ht[k], G[k]
            u = free[j]
            np.matmul(h, U_rec, out=g)
            np.add(x_in, g, out=g)
            sigmoid(g, out=g)
            np.maximum(C[k], eps, out=ht)
            np.divide(h, ht, out=gg)
            np.subtract(_ONE, gg, out=gg)
            np.multiply(dt_tau, Z[k], out=u)
            np.multiply(u, gg, out=u)
            np.add(h, u, out=u)
            np.maximum(u, eps, out=hn)
            np.minimum(hn, top, out=hn)
        last = k0 + S
        np.not_equal(free, Hs[k0 + 1:last + 1], out=moved)
        clamped += int(np.count_nonzero(moved))
        # a non-finite value stays non-finite through every later substep
        if not np.isfinite(Hs[last]).all():
            raise NumericalError(f"step {t}: non-finite state value")
    records = (Hs[:L], Z, C, Ht, G) if keep_records else None
    return Hs[last], clamped, records


def head_batch(H: np.ndarray, params: NetworkParams):
    """Class probabilities of (B, n) states, with the A1 and A2 layers."""
    A1 = sigmoid(H @ params.fc1_w.T + params.fc1_b)
    A2 = np.maximum(A1 @ params.fc2_w.T + params.fc2_b, 0.0)
    E = np.exp(A2 - A2.max(axis=1, keepdims=True))
    return E / E.sum(axis=1, keepdims=True), A1, A2


def predict(P: np.ndarray) -> np.ndarray:
    """Labels of (..., 2) class probabilities; ties resolve to benign."""
    return np.where(P[..., 1] > P[..., 0], LABEL_LESION, LABEL_BENIGN)


def classify(seq, params: NetworkParams,
             cfg: IntegrationConfig = IntegrationConfig()):
    """Label one sequence; return the label and the class probabilities."""
    steps = np.asarray(getattr(seq, "steps", seq), dtype=float)
    H, _, _ = unroll(steps[None], params, cfg)
    p = head_batch(H, params)[0][0]
    return int(predict(p)), p


# ---------------------------------------------------------------------------
# Model file: named matrices in plain text, bit-exact on reload
# ---------------------------------------------------------------------------

# header line and value type per block key; a "codes" file (.afuaq) adds a
# bits line and a scale on each block header
_MODEL_LAYOUTS = {"matrix": ("biozpipe-model v1", float),
                  "codes": ("biozpipe-qmodel v1", int)}


def write_model_file(path, tau_h: float, cfg: IntegrationConfig,
                     mats: dict[str, np.ndarray], spec=None) -> None:
    """Write weights, or the integer codes of a quantization ``spec``."""
    key = "matrix" if spec is None else "codes"
    header, kind = _MODEL_LAYOUTS[key]
    lines = [header] + ([] if spec is None else [f"bits {spec.total_bits}"])
    lines += [f"tau_h {float(tau_h)!r}",
              f"substeps {cfg.substeps_per_pattern}",
              f"dt {float(cfg.dt)!r}",
              f"epsilon {float(cfg.epsilon)!r}"]
    for name in PARAM_NAMES:
        mat = np.atleast_2d(mats[name])
        scale = "" if spec is None else f" {float(spec.scales[name])!r}"
        lines.append(f"{key} {name} {mat.shape[0]} {mat.shape[1]}{scale}")
        lines.extend(" ".join(repr(kind(v)) for v in row) for row in mat)
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def read_model_file(path, build, quantized: bool = False):
    """Parse a file ``write_model_file`` wrote into ``(model, cfg)``, the
    model made by ``build(tau_h, mats, bits, scales)``.  Malformed content,
    values ``build`` or the config reject included, raises FormatError."""
    key = "codes" if quantized else "matrix"
    header, kind = _MODEL_LAYOUTS[key]
    with open(path, "rb") as f:
        data = f.read()
    try:
        lines = [ln.split() for ln in data.decode("ascii").splitlines()
                 if ln.strip()]
        if not lines or lines[0] != header.split():
            raise FormatError(f"{path}: not a {header} file")
        names = ["bits"] * quantized + ["tau_h", "substeps", "dt", "epsilon"]
        settings = dict(lines[1:1 + len(names)])  # "name value" lines only
        if list(settings) != names:
            raise ValueError(f"expected the lines {names}")
        mats, scales = {}, {}
        idx = 1 + len(names)
        while idx < len(lines):
            head = lines[idx]
            if len(head) != 4 + quantized or head[0] != key \
                    or head[1] not in PARAM_NAMES or head[1] in mats:
                raise ValueError(f"bad block header {' '.join(head)!r}")
            name, r, c = head[1], int(head[2]), int(head[3])
            rows = [[kind(v) for v in ln] for ln in lines[idx + 1:idx + 1 + r]]
            if len(rows) != r or any(len(row) != c for row in rows):
                raise ValueError(f"{name} is not {r} rows of {c} values")
            mat = np.array(rows, dtype=np.int32 if quantized else float)
            mats[name] = mat.ravel() if name.endswith("_b") else mat
            if quantized:
                scales[name] = float(head[4])
            idx += 1 + r
        if len(mats) != len(PARAM_NAMES):
            raise ValueError(f"missing {set(PARAM_NAMES) - set(mats)}")
        cfg = IntegrationConfig(
            substeps_per_pattern=int(settings["substeps"]),
            dt=float(settings["dt"]), epsilon=float(settings["epsilon"]))
        tau_h = float(settings["tau_h"])
        if cfg.dt > tau_h:
            raise ValueError(f"dt {cfg.dt!r} exceeds tau_h {tau_h!r}")
        bits = int(settings["bits"]) if quantized else None
        model = build(tau_h, mats, bits, scales)
    except (ValueError, OverflowError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed model file: {exc}") from exc
    return model, cfg


def save_model(params: NetworkParams, cfg: IntegrationConfig, path) -> None:
    write_model_file(path, params.tau_h, cfg, params.matrices())


def load_model(path) -> tuple[NetworkParams, IntegrationConfig]:
    return read_model_file(
        path, lambda tau_h, mats, *_: NetworkParams(tau_h=tau_h, **mats))
