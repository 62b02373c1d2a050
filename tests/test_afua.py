import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biozpipe import afua, datapipe, trainer
from biozpipe.afua import IntegrationConfig, NetworkParams
from biozpipe.errors import ConfigError, FormatError, NumericalError


def rand_params(n_hidden=16, n_inputs=25, seed=0, scale=0.5):
    r = np.random.default_rng(seed)
    return NetworkParams(
        W_z=r.normal(0, scale, (n_hidden, n_inputs)),
        U_z=r.normal(0, scale, (n_hidden, n_hidden)),
        W=r.normal(0, scale, (n_hidden, n_inputs)),
        U=r.normal(0, scale, (n_hidden, n_hidden)),
        fc1_w=r.normal(0, scale, (2, n_hidden)),
        fc1_b=r.normal(0, scale, 2),
        fc2_w=r.normal(0, scale, (2, 2)),
        fc2_b=r.normal(0, scale, 2),
    )


def zero_params(n_hidden=16, n_inputs=25):
    return NetworkParams(
        W_z=np.zeros((n_hidden, n_inputs)), U_z=np.zeros((n_hidden, n_hidden)),
        W=np.zeros((n_hidden, n_inputs)), U=np.zeros((n_hidden, n_hidden)),
        fc1_w=np.zeros((2, n_hidden)), fc1_b=np.zeros(2),
        fc2_w=np.zeros((2, 2)), fc2_b=np.zeros(2),
    )


def reference_sigmoid(v):
    """The logistic function as one tanh expression, allocating every
    step."""
    v = np.asarray(v, dtype=float)
    out = np.clip(0.5 + 0.5 * np.tanh(0.5 * v),
                  np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def reference_unroll(X, params, cfg, keep_records=False):
    """``unroll`` with fresh arrays per substep and a clamp count per
    substep; its records are a ``(t, h, z, cand, h_tilde, 1 - h/h_tilde)``
    tuple per substep, ``h`` being the state the substep started from."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or X.shape[2] != params.n_inputs:
        raise ConfigError(
            f"sequence width {X.shape} does not match {params.n_inputs} inputs"
        )
    n = params.n_hidden
    W_in = np.vstack([params.W_z, params.W]).T
    U_rec = np.vstack([params.U_z, params.U]).T
    dt_tau = cfg.dt / afua.TAU_H
    H = np.full((X.shape[0], n), afua.H0)
    clamped = 0
    records = [] if keep_records else None
    for t in range(X.shape[1]):
        x_in = X[:, t, :] @ W_in
        for _ in range(cfg.substeps_per_pattern):
            gates = reference_sigmoid(x_in + H @ U_rec)
            Z, C = gates[:, :n], gates[:, n:]
            Ht = np.maximum(C, cfg.epsilon)
            G = 1.0 - H / Ht
            H_new = H + dt_tau * Z * G
            if records is not None:
                records.append((t, H, Z, C, Ht, G))
            H = np.clip(H_new, cfg.epsilon, 1.0 - cfg.epsilon)
            clamped += int(np.count_nonzero(H != H_new))
        if not np.all(np.isfinite(H)):
            raise NumericalError(f"step {t}: non-finite state value")
    return H, clamped, records


class TestSigmoid:
    def test_zero(self):
        assert afua.sigmoid(0.0) == 0.5

    def test_reference_value(self):
        assert afua.sigmoid(2.0) == pytest.approx(0.880797077978, abs=1e-10)

    # the tanh form's absolute error bound; the worst measured, 1.07e-16,
    # is where the ceiling 1 - 2^-53 stands in for values nearer 1
    EXACT_ABS = 1.2e-16

    def test_matches_exact_logistic_in_absolute_terms(self):
        ctx = decimal.Context(prec=50)

        def exact(x):  # 1 / (1 + e^-x) to 50 digits, in a stable form
            e = ctx.exp(ctx.create_decimal_from_float(-abs(x)))
            p = ctx.divide(1, ctx.add(1, e))
            return p if x >= 0 else ctx.subtract(1, p)

        rng = np.random.default_rng(11)
        v = np.concatenate([np.linspace(-745.0, 40.0, 4001),
                            rng.uniform(-40.0, 40.0, 4000),
                            rng.uniform(-3.0, 3.0, 2000)])
        err = [abs(ctx.create_decimal_from_float(got) - exact(x))
               for got, x in zip(afua.sigmoid(v).tolist(), v.tolist())]
        assert float(max(err)) <= self.EXACT_ABS

    def test_open_range_even_when_saturated(self):
        assert 0.0 < afua.sigmoid(-800.0) < afua.sigmoid(40.0) < 1.0

    def test_monotone(self):
        v = np.linspace(-30, 30, 301)
        out = afua.sigmoid(v)
        assert np.all(np.diff(out) >= 0)

    def test_scalar_gives_float(self):
        assert type(afua.sigmoid(-3.0)) is float
        assert afua.sigmoid(-3.0) == reference_sigmoid(-3.0)

    @settings(max_examples=100, deadline=None, database=None)
    @given(v=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                      min_size=1, max_size=64))
    def test_matches_reference_bit_for_bit(self, v):
        v = np.array(v)
        want = reference_sigmoid(v)
        assert np.array_equal(afua.sigmoid(v), want, equal_nan=True)


class TestStep:
    def test_dt_zero_is_identity(self):
        p = zero_params(4, 3)
        h = np.full(4, 0.3)
        cfg = IntegrationConfig(substeps_per_pattern=1, dt=0.0)
        out, _, _ = afua.afua_step(np.zeros(3), h, p, cfg)
        assert np.array_equal(out, h)

    def test_zero_weights_fixed_point(self):
        # z = h_tilde = 0.5 and h = H0 = 0.5 make the derivative exactly zero
        p = zero_params(4, 3)
        h = np.full(4, afua.H0)
        cfg = IntegrationConfig()
        for _ in range(40):
            h, z, h_tilde = afua.afua_step(np.zeros(3), h, p, cfg)
        assert np.all(h == 0.5)
        assert np.all(z == 0.5)
        assert np.all(h_tilde == 0.5)

    def test_euler_arithmetic(self):
        # h=0.25, h_tilde=0.5, z=0.5, tau=1, dt=0.1 -> 0.25 + 0.1*0.5*0.5
        p = zero_params(1, 1)
        cfg = IntegrationConfig(substeps_per_pattern=1, dt=0.1)
        out, _, _ = afua.afua_step(np.array([0.0]), np.array([0.25]), p, cfg)
        assert out[0] == pytest.approx(0.275, abs=1e-15)

    def test_state_stays_in_open_unit_interval(self):
        p = rand_params(8, 5, seed=3, scale=2.0)
        cfg = IntegrationConfig()
        rng = np.random.default_rng(0)
        h = np.full(8, afua.H0)
        for _ in range(300):
            h, _, _ = afua.afua_step(rng.uniform(-1, 1, 5), h, p, cfg)
            assert np.all(h >= cfg.epsilon)
            assert np.all(h <= 1 - cfg.epsilon)

    def test_no_cross_unit_coupling_without_recurrent_weights(self):
        # with U and U_z zero, perturbing h_k leaves every other unit's
        # update unchanged: units couple only through matrix products
        p = rand_params(6, 4, seed=9)
        p = NetworkParams(W_z=p.W_z, U_z=np.zeros((6, 6)), W=p.W,
                          U=np.zeros((6, 6)), fc1_w=p.fc1_w, fc1_b=p.fc1_b,
                          fc2_w=p.fc2_w, fc2_b=p.fc2_b)
        cfg = IntegrationConfig()
        x = np.random.default_rng(1).uniform(-1, 1, 4)
        base = np.full(6, afua.H0)
        bumped = base.copy()
        bumped[2] = 0.9
        out_a, _, _ = afua.afua_step(x, base, p, cfg)
        out_b, _, _ = afua.afua_step(x, bumped, p, cfg)
        others = [i for i in range(6) if i != 2]
        assert np.array_equal(out_a[others], out_b[others])


class TestRunSequence:
    def test_zero_weights_keeps_initial_h(self):
        p = zero_params()
        seq = np.zeros((28, 25))
        h = afua.run_sequence(seq, p, IntegrationConfig())
        assert np.all(h == afua.H0)

    def test_output_shape_and_range(self):
        p = rand_params(seed=4)
        seq = np.random.default_rng(2).uniform(-1, 1, (28, 25))
        h = afua.run_sequence(seq, p, IntegrationConfig())
        assert h.shape == (16,)
        assert np.all((h > 0) & (h < 1))

    def test_constant_input_converges_to_equilibrium(self):
        # hold one input for 20 tau; h must sit at the self-consistent
        # fixed point h* = max(sigmoid(Wx + U h*), eps) within 1e-3
        p = rand_params(8, 5, seed=11)
        x = np.random.default_rng(5).uniform(-1, 1, 5)
        cfg = IntegrationConfig(substeps_per_pattern=200, dt=0.1)
        h = afua.run_sequence(x[None, :].repeat(1, axis=0), p, cfg)
        # fixed-point iteration oracle
        h_star = np.full(8, 0.5)
        for _ in range(10000):
            h_star = np.maximum(afua.sigmoid(p.W @ x + p.U @ h_star),
                                cfg.epsilon)
        assert np.max(np.abs(h - h_star)) <= 1e-3

    def test_euler_first_order_convergence(self):
        p = rand_params(6, 4, seed=12)
        seq = np.random.default_rng(3).uniform(-1, 1, (5, 4))
        results = {}
        for s, dt in ((10, 0.1), (20, 0.05), (40, 0.025)):
            cfg = IntegrationConfig(substeps_per_pattern=s, dt=dt)
            results[dt] = afua.run_sequence(seq, p, cfg)
        d1 = np.max(np.abs(results[0.1] - results[0.05]))
        d2 = np.max(np.abs(results[0.05] - results[0.025]))
        assert d2 < d1
        assert d1 < 1e-2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_euler_error_halves_as_substeps_double(self, seed):
        # first order at S * dt = 1: against the S = 1000 continuous-time
        # limit, doubling S halves the error of the final states
        p = trainer.init_params(seed)
        X = np.random.default_rng(seed).uniform(-1, 1, (16, 28, 25))
        limit = afua.unroll(X, p, IntegrationConfig(1000, 0.001))[0]
        err = [np.abs(afua.unroll(X, p, IntegrationConfig(s, 1 / s))[0]
                      - limit).max() for s in (4, 8)]
        assert 1.7 <= err[0] / err[1] <= 2.4

    def test_dt_above_tau_rejected(self):
        # no integration config carries a step longer than the time constant
        with pytest.raises(ConfigError, match="dt"):
            IntegrationConfig(substeps_per_pattern=1, dt=1.5)
        cfg = IntegrationConfig(substeps_per_pattern=1, dt=afua.TAU_H)
        h = afua.run_sequence(np.zeros((2, 2)), zero_params(2, 2), cfg)
        assert np.all(h == afua.H0)


def assert_unroll_matches_reference(X, params, cfg, keep_records):
    H, clamped, records = afua.unroll(X, params, cfg, keep_records)
    H_ref, clamped_ref, ref = reference_unroll(X, params, cfg, keep_records)
    assert np.array_equal(H, H_ref)
    assert clamped == clamped_ref
    if not keep_records:
        assert records is None
        return clamped
    S = cfg.substeps_per_pattern
    assert [rec[0] for rec in ref] == [k // S for k in range(len(ref))]
    H_rec, gates, Ht, G = records
    n = H.shape[1]
    assert gates.shape[2] == 2 * n
    records = (H_rec, gates[:, :, :n], gates[:, :, n:], Ht, G)
    for got, i in zip(records, range(1, 6)):  # H, Z, C, Ht, G
        want = (np.stack([rec[i] for rec in ref]) if ref
                else np.empty((0, *H.shape)))
        assert got.shape == want.shape == (X.shape[1] * S, *H.shape)
        assert np.array_equal(got, want)
    return clamped


class TestUnrollReference:
    """The in-place unroll against the per-substep one, bit for bit."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(batch=st.one_of(st.just(1), st.integers(2, 40),
                           st.integers(257, 300)),
           steps=st.integers(0, 4), substeps=st.integers(1, 4),
           n_hidden=st.integers(1, 8), n_inputs=st.integers(1, 6),
           scale=st.sampled_from([0.5, 5.0, 300.0]),
           dt=st.sampled_from([0.0, 0.1, 1.0]),
           keep_records=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, batch, steps, substeps, n_hidden,
                               n_inputs, scale, dt, keep_records, seed):
        p = rand_params(n_hidden, n_inputs, seed=seed, scale=scale)
        cfg = IntegrationConfig(substeps_per_pattern=substeps, dt=dt)
        X = np.random.default_rng(seed).uniform(-1, 1,
                                                (batch, steps, n_inputs))
        assert_unroll_matches_reference(X, p, cfg, keep_records)

    @pytest.mark.parametrize("batch", [1, 7, 300])
    @pytest.mark.parametrize("keep_records", [False, True])
    def test_large_weights_hit_sigmoid_bounds_and_state_clamp(
            self, batch, keep_records):
        # weights of scale 300 drive the pre-activations far past +-745,
        # where exp underflows and the sigmoid needs its floor and ceiling
        p = rand_params(8, 5, seed=batch, scale=300.0)
        cfg = IntegrationConfig(substeps_per_pattern=3)
        X = np.random.default_rng(batch).uniform(-1, 1, (batch, 4, 5))
        assert assert_unroll_matches_reference(X, p, cfg,
                                               keep_records) > 0  # clamped
        _, _, (_, gates, _, _) = afua.unroll(X, p, cfg, keep_records=True)
        assert np.any(gates == np.nextafter(0.0, 1.0))
        assert np.any(gates == np.nextafter(1.0, 0.0))

    def test_paper_config_batches(self):
        p = rand_params(seed=14)
        rng = np.random.default_rng(15)
        for batch in (1, 100, 257):
            X = rng.uniform(-1, 1, (batch, 28, 25))
            for keep_records in (False, True):
                assert_unroll_matches_reference(X, p, IntegrationConfig(),
                                                keep_records)


def head(h, params):
    """Class probabilities of one final state."""
    return afua.head_batch(h[None, :], params)[0][0]


class TestHead:
    def test_uniform_when_fc2_output_zero(self):
        p = zero_params()
        out = head(np.full(16, 0.5), p)
        assert np.allclose(out, [0.5, 0.5])

    def test_softmax_closed_form(self):
        # relu outputs (ln 3, 0) -> probabilities (0.75, 0.25)
        p = zero_params(2, 2)
        p = NetworkParams(W_z=p.W_z, U_z=p.U_z, W=p.W, U=p.U,
                          fc1_w=np.zeros((2, 2)), fc1_b=np.zeros(2),
                          fc2_w=np.zeros((2, 2)),
                          fc2_b=np.array([np.log(3.0), 0.0]))
        out = head(np.full(2, 0.5), p)
        assert out[0] == pytest.approx(0.75, abs=1e-12)
        assert out[1] == pytest.approx(0.25, abs=1e-12)

    def test_probabilities_normalized(self):
        rng = np.random.default_rng(7)
        p = rand_params(seed=8, scale=2.0)
        for _ in range(20):
            out = head(rng.uniform(0, 1, 16), p)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0)


class TestClassify:
    def test_argmax_and_tiebreak(self):
        p = zero_params()
        seq = np.zeros((28, 25))
        label, probs = afua.classify(seq, p, IntegrationConfig())
        assert np.allclose(probs, [0.5, 0.5])
        assert label == 0  # tie resolves to the benign class

    def test_scale_invariance_of_argmax(self):
        # scaling relu outputs leaves the argmax unchanged
        p = rand_params(seed=20)
        seq = np.random.default_rng(9).uniform(-1, 1, (28, 25))
        label1, _ = afua.classify(seq, p, IntegrationConfig())
        p2 = NetworkParams(W_z=p.W_z, U_z=p.U_z, W=p.W, U=p.U,
                           fc1_w=p.fc1_w, fc1_b=p.fc1_b,
                           fc2_w=3.0 * p.fc2_w, fc2_b=3.0 * p.fc2_b)
        label2, _ = afua.classify(seq, p2, IntegrationConfig())
        assert label1 == label2

    def test_rejects_width_mismatch_and_dt_above_tau(self):
        p = zero_params()
        with pytest.raises(ConfigError):
            afua.classify(np.zeros((28, 24)), p, IntegrationConfig())
        with pytest.raises(ConfigError):
            IntegrationConfig(substeps_per_pattern=1, dt=1.5)

    def test_records_and_stacked_array_agree(self):
        # 300 records cross the 256-row evaluation batch
        rng = np.random.default_rng(11)
        seqs = [datapipe.InputSequence(
            steps=rng.uniform(-1, 1, (28, 25)).astype(np.float32),
            label=0, provenance=f"p{i}") for i in range(300)]
        p, cfg = rand_params(seed=21), IntegrationConfig()
        from_records = afua.forward_probabilities(seqs, p, cfg)
        stacked = np.stack([s.steps for s in seqs]).astype(float)
        assert np.array_equal(from_records,
                              afua.forward_probabilities(stacked, p, cfg))
        assert np.array_equal(afua.run_sequence(seqs[0], p, cfg),
                              afua.run_sequence(stacked[0], p, cfg))


class TestParams:
    @pytest.mark.parametrize("name, shape", [
        ("W_z", (16, 24)), ("W", (16, 24)), ("U", (16, 15)),
        ("fc1_w", (2, 15)), ("fc1_b", (3,)), ("fc2_w", (2, 3)),
        ("W_z", (16,))])
    def test_rejects_shapes_that_disagree(self, name, shape):
        fields = rand_params().matrices()
        fields[name] = np.zeros(shape)
        with pytest.raises(ConfigError, match="shape"):
            NetworkParams(**fields)


class TestModelFile:
    def test_bit_exact_roundtrip(self, tmp_path):
        p = rand_params(seed=31)
        cfg = IntegrationConfig(substeps_per_pattern=7, dt=0.05, epsilon=1e-5)
        path = tmp_path / "model.afua"
        afua.write_model_file(path, cfg, p)
        back, cfg2 = afua.load_model(path)
        for name, mat in p.matrices().items():
            assert np.array_equal(getattr(back, name), mat), name
        assert cfg2 == cfg

    def test_substeps_bounded(self, tmp_path):
        cfg = IntegrationConfig(substeps_per_pattern=afua.MAX_SUBSTEPS)
        with pytest.raises(ConfigError, match="substeps_per_pattern"):
            IntegrationConfig(substeps_per_pattern=afua.MAX_SUBSTEPS + 1)
        # a model file past the bound fails on load, before any unroll
        # allocates its work arrays
        path = tmp_path / "model.afua"
        afua.write_model_file(path, cfg, rand_params(seed=33))
        path.write_bytes(path.read_bytes().replace(
            b"\nsubsteps 1000\n", b"\nsubsteps 1000000000000\n"))
        with pytest.raises(FormatError, match="substeps_per_pattern"):
            afua.load_model(path)

    def test_rewrite_identical(self, tmp_path):
        p = rand_params(seed=32)
        cfg = IntegrationConfig()
        p1, p2 = tmp_path / "a.afua", tmp_path / "b.afua"
        afua.write_model_file(p1, cfg, p)
        back, cfg2 = afua.load_model(p1)
        afua.write_model_file(p2, cfg2, back)
        assert p1.read_bytes() == p2.read_bytes()
