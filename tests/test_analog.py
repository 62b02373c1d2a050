import numpy as np
import pytest

from biozpipe import afua, analog
from biozpipe.afua import IntegrationConfig, NetworkParams
from biozpipe.errors import ConfigError


def rand_params(seed=0):
    r = np.random.default_rng(seed)
    return NetworkParams(
        W_z=r.normal(0, 0.5, (16, 25)), U_z=r.normal(0, 0.5, (16, 16)),
        W=r.normal(0, 0.5, (16, 25)), U=r.normal(0, 0.5, (16, 16)),
        fc1_w=r.normal(0, 0.5, (2, 16)), fc1_b=r.normal(0, 0.5, 2),
        fc2_w=r.normal(0, 0.5, (2, 2)), fc2_b=r.normal(0, 0.5, 2),
    )


def zero_params():
    return NetworkParams(
        W_z=np.zeros((16, 25)), U_z=np.zeros((16, 16)),
        W=np.zeros((16, 25)), U=np.zeros((16, 16)),
        fc1_w=np.zeros((2, 16)), fc1_b=np.zeros(2),
        fc2_w=np.zeros((2, 2)), fc2_b=np.zeros(2))


def clamping_params():
    """A candidate pinned near zero forces the state down to the floor."""
    p = zero_params()
    return NetworkParams(W_z=p.W_z, U_z=p.U_z, W=np.full((16, 25), -3.0),
                         U=p.U, fc1_w=p.fc1_w, fc1_b=p.fc1_b, fc2_w=p.fc2_w,
                         fc2_b=p.fc2_b)


class TestCurrentMode:
    def test_fixed_point_scales_with_unit_current(self):
        p = zero_params()
        x = np.zeros((5, 25))
        traj = analog.simulate_current_mode(x, p, I_unit=10.0,
                                            cfg=IntegrationConfig())
        assert traj.I_h.shape == (5 * IntegrationConfig().substeps_per_pattern,
                                  16)
        assert np.allclose(traj.I_h, 5.0)  # 0.5 * I_unit, constant

    def test_matches_normalized_dynamics(self):
        # I_h, I_z and I_htilde equal I_unit times the per-substep afua_step
        # trajectory bit for bit, with and without the state clamp firing
        cfg = IntegrationConfig()
        rng = np.random.default_rng(1)
        for p in (rand_params(3), rand_params(5), clamping_params()):
            seq = rng.uniform(-1, 1, (28, 25))
            traj = analog.simulate_current_mode(seq, p, I_unit=7.5, cfg=cfg)
            h = np.full(p.n_hidden, afua.H0)
            ref = []  # (h, z, h_tilde) after each substep
            for x in seq:
                for _ in range(cfg.substeps_per_pattern):
                    h, z, h_tilde = afua.afua_step(x, h, p, cfg)
                    ref.append((h, z, h_tilde))
            for i, (got, field) in enumerate(((traj.I_h, "h"), (traj.I_z, "z"),
                                              (traj.I_htilde, "h_tilde"))):
                want = 7.5 * np.stack([r[i] for r in ref])
                assert got.shape == want.shape
                assert np.array_equal(got, want), field
        assert traj.clamped_substeps > 0

    def test_doubling_unit_current_doubles_currents(self):
        p = rand_params(4)
        seq = np.random.default_rng(2).uniform(-1, 1, (6, 25))
        t1 = analog.simulate_current_mode(seq, p, I_unit=5.0,
                                          cfg=IntegrationConfig())
        t2 = analog.simulate_current_mode(seq, p, I_unit=10.0,
                                          cfg=IntegrationConfig())
        for name in ("I_h", "I_z", "I_htilde"):
            assert np.allclose(getattr(t2, name), 2 * getattr(t1, name),
                               rtol=1e-12)

    def test_underflow_clamped_and_counted(self):
        p = clamping_params()
        seq = np.ones((28, 25))
        cfg = IntegrationConfig()
        traj = analog.simulate_current_mode(seq, p, I_unit=10.0, cfg=cfg)
        floor = cfg.epsilon * 10.0
        assert traj.clamped_substeps > 0
        assert traj.I_h.min() >= floor

    @pytest.mark.parametrize("I_unit", [0.0, -1.0, np.nan, np.inf])
    def test_requires_positive_unit(self, I_unit):
        with pytest.raises(ConfigError, match="positive and finite"):
            analog.simulate_current_mode(np.zeros((2, 25)), zero_params(),
                                         I_unit=I_unit,
                                         cfg=IntegrationConfig())

    def test_probabilities_are_the_batched_forward(self):
        # the head of the final state, bit for bit, and the label classify
        # gives, on sequences of both labels, with and without clamping
        cfg = IntegrationConfig()
        rng = np.random.default_rng(6)
        labels = set()
        for k, p in enumerate([rand_params(s) for s in range(9)]
                              + [clamping_params()]):
            seq = rng.uniform(-1, 1, (28, 25)) * (1 + k % 3)
            traj = analog.simulate_current_mode(seq, p, I_unit=10.0, cfg=cfg)
            want = afua.forward_probabilities([seq], p, cfg)[0]
            assert traj.probabilities.tobytes() == want.tobytes()
            label, _ = afua.classify(seq, p, cfg)
            assert afua.predict(traj.probabilities) == label
            labels.add(label)
        assert labels == {0, 1}


class TestBudget:
    def test_paper_constants(self):
        r = analog.hardware_budget()
        assert r.chip_area_mm2 == pytest.approx(30.0, abs=0.1)
        assert r.array_area_mm2 == pytest.approx(22.81, abs=0.01)
        assert r.supply_current_ma == pytest.approx(11.75, abs=1e-12)
        assert r.power_mw == pytest.approx(38.775, abs=1e-9)

    def test_table_mentions_key_numbers(self):
        text = analog.budget_table()
        assert "30.0" in text or "29.99" in text
        assert "11.75" in text
        assert "38.775" in text
        assert "22.81" in text
