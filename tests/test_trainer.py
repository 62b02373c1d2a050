import numpy as np
import pytest
from dataclasses import replace

from biozpipe import afua, datapipe as dp, trainer
from biozpipe.afua import IntegrationConfig, NetworkParams
from biozpipe.errors import ConfigError, NumericalError


def rand_params(n_hidden, n_inputs, seed, scale=0.5):
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


class Seq:
    """Raw stand-in for InputSequence at toy dimensions."""

    def __init__(self, steps, label, pid="t"):
        self.steps = steps
        self.label = label
        self.provenance = pid


def toy_batch(n, rng, n_steps=2, n_inputs=3):
    return [Seq(rng.uniform(-1, 1, (n_steps, n_inputs)),
                int(rng.integers(0, 2)), f"s{i}") for i in range(n)]


def make_dataset(n, seed, separation=1.2):
    """Synthetic learnable set: class shifts a block of channels."""
    rng = np.random.default_rng(seed)
    seqs = []
    for i in range(n):
        y = i % 2
        x = rng.uniform(-0.6, 0.6, (28, 25))
        if y:
            x[:, :6] += separation * 0.4
        else:
            x[:, :6] -= separation * 0.4
        steps = np.clip(x, -0.99, 0.99).astype(np.float32)
        seqs.append(dp.InputSequence(steps=steps, label=y,
                                     provenance=f"p{i:05d}"))
    return seqs


class TestLoss:
    # batch_loss_and_hits on a head whose output does not depend on the input
    CFG = IntegrationConfig(substeps_per_pattern=2, dt=0.1)

    @staticmethod
    def fixed_head(fc2_b):
        return replace(rand_params(4, 3, seed=0), fc2_w=np.zeros((2, 2)),
                       fc2_b=np.array(fc2_b, dtype=float))

    def test_perfect_prediction(self):
        # ReLU outputs [800, 0]: the softmax is exactly [1, 0]
        batch = toy_batch(5, np.random.default_rng(0))
        for s in batch:
            s.label = 0
        bl, hits = trainer.batch_loss_and_hits(
            batch, self.fixed_head([800.0, 0.0]), self.CFG)
        assert bl == 0.0
        assert hits == 5

    def test_half(self):
        # equal ReLU outputs: [0.5, 0.5], and ties are labelled benign
        batch = [Seq(np.zeros((2, 3)), lab) for lab in (0, 1, 1, 1)]
        bl, hits = trainer.batch_loss_and_hits(
            batch, self.fixed_head([0.3, 0.3]), self.CFG)
        assert bl == pytest.approx(np.log(2), abs=1e-12)
        assert hits == 1

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            batch = toy_batch(5, rng)
            bl, hits = trainer.batch_loss_and_hits(
                batch, rand_params(4, 3, seed=seed, scale=2.0), self.CFG)
            assert bl >= 0.0
            assert 0 <= hits <= 5


class TestGradients:
    def test_zero_input_kills_input_weight_gradient(self):
        params = rand_params(4, 3, seed=1)
        batch = [Seq(np.zeros((2, 3)), lab) for lab in (0, 1, 1)]
        g, _, _ = trainer.gradients(batch, params, IntegrationConfig(
            substeps_per_pattern=2, dt=0.1))
        assert np.all(g["W"] == 0.0)
        assert np.all(g["W_z"] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_finite_difference_agreement(self, seed):
        # toy net: 2 units, 3 inputs, 2 steps, S=2; central differences 1e-5
        rng = np.random.default_rng(seed)
        params = rand_params(2, 3, seed=100 + seed)
        cfg = IntegrationConfig(substeps_per_pattern=2, dt=0.1)
        batch = toy_batch(3, rng)
        grads, _, _ = trainer.gradients(batch, params, cfg)

        def mean_loss(p):
            P = trainer.forward_probabilities(batch, p, cfg)
            y = np.array([s.label for s in batch])
            return float(-np.log(
                np.clip(P[np.arange(len(y)), y], 1e-12, None)).mean())

        step = 1e-5
        for name in grads:
            mat = getattr(params, name)
            it = np.nditer(mat, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                up = mat.copy(); up[ix] += step
                dn = mat.copy(); dn[ix] -= step
                fd = (mean_loss(replace(params, **{name: up}))
                      - mean_loss(replace(params, **{name: dn}))) / (2 * step)
                got = grads[name][ix]
                rel = abs(fd - got) / max(abs(fd), abs(got), 1e-8)
                assert rel <= 1e-4, f"{name}[{ix}]: bp {got} vs fd {fd}"

    def test_duplicated_batch_same_mean_gradient(self):
        rng = np.random.default_rng(8)
        params = rand_params(3, 4, seed=42)
        cfg = IntegrationConfig(substeps_per_pattern=2, dt=0.1)
        batch = toy_batch(4, rng, n_steps=3, n_inputs=4)
        g1, _, _ = trainer.gradients(batch, params, cfg)
        g2, _, _ = trainer.gradients(batch + batch, params, cfg)
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-14)

    def test_empty_batch_raises(self):
        with pytest.raises(ConfigError):
            trainer.gradients([], rand_params(2, 3, 0), IntegrationConfig())

    def test_batched_forward_matches_per_sequence(self):
        params = rand_params(16, 25, seed=77)
        cfg = IntegrationConfig()
        rng = np.random.default_rng(6)
        for batch in (1, 4):
            seqs = [rng.uniform(-1, 1, (28, 25)) for _ in range(batch)]
            H, _, _ = afua.unroll(np.stack(seqs), params, cfg)
            for k, s in enumerate(seqs):
                h = afua.run_sequence(s, params, cfg)
                assert np.max(np.abs(H[k] - h)) < 1e-12

    def test_loss_and_hits_match_forward_only_pass(self):
        params = rand_params(16, 25, seed=78)
        cfg = IntegrationConfig()
        batch = make_dataset(12, seed=11)
        _, bl, hits = trainer.gradients(batch, params, cfg)
        assert (bl, hits) == trainer.batch_loss_and_hits(batch, params, cfg)


class TestInit:
    def test_head_starts_alive(self):
        # with zero ReLU biases both head units start inactive on every
        # input for 7 of these seeds, and every gradient is then exactly 0
        seqs = make_dataset(40, seed=10)
        for seed in range(20):
            grads, _, _ = trainer.gradients(seqs, trainer.init_params(seed),
                                            IntegrationConfig())
            assert np.any(grads["fc2_w"] != 0.0), f"seed {seed}"


class TestTrain:
    def test_overfits_toy_phantom_set(self, toy_phantom_dataset):
        # 50 phantoms, 200 epochs: the training accuracy must reach 0.95
        seqs = toy_phantom_dataset
        splits = dp.DatasetSplit(train=seqs, validation=seqs[:10], test=[])
        cfg = trainer.TrainConfig(batch_size=10, epochs=200, seed=1)
        params, report = trainer.train(splits, cfg)
        assert max(report.train_acc) >= 0.95
        assert len(report.train_loss) == 200

    def test_dead_head_raises_naming_the_epoch(self, monkeypatch):
        # fc2_b = -5 keeps both ReLU pre-activations below zero for every
        # input (|fc2_w @ A1| < sqrt(2)), so every gradient is exactly zero
        init = trainer.init_params
        monkeypatch.setattr(trainer, "init_params", lambda seed: replace(
            init(seed), fc2_b=np.full(2, -5.0)))
        seqs = make_dataset(30, seed=6)
        splits = dp.DatasetSplit(train=seqs[:20], validation=seqs[20:],
                                 test=[])
        cfg = trainer.TrainConfig(batch_size=8, epochs=3, seed=9)
        with pytest.raises(NumericalError,
                           match="epoch 0: .* all 3 batches .*dead ReLU"):
            trainer.train(splits, cfg)

    def test_deterministic(self):
        seqs = make_dataset(30, seed=6)
        splits = dp.DatasetSplit(train=seqs[:20], validation=seqs[20:],
                                 test=[])
        cfg = trainer.TrainConfig(batch_size=10, epochs=5, seed=9)
        p1, r1 = trainer.train(splits, cfg)
        p2, r2 = trainer.train(splits, cfg)
        for name in p1.matrices():
            assert np.array_equal(getattr(p1, name), getattr(p2, name))
        assert r1.train_loss == r2.train_loss
        assert r1.val_acc == r2.val_acc
        assert r1.best_epoch == r2.best_epoch

    def test_input_order_irrelevant(self):
        # loading the same dataset in a different order yields the same
        # report because train() provenance-sorts before shuffling
        seqs = make_dataset(24, seed=7)
        rev = list(reversed(seqs))
        cfg = trainer.TrainConfig(batch_size=8, epochs=4, seed=2)
        _, r1 = trainer.train(dp.DatasetSplit(seqs[:16], seqs[16:], []), cfg)
        _, r2 = trainer.train(dp.DatasetSplit(rev[8:], rev[:8], []), cfg)
        assert r1.train_loss == r2.train_loss

    def test_returned_params_beat_first_epoch(self):
        seqs = make_dataset(60, seed=8)
        splits = dp.DatasetSplit(train=seqs[:40], validation=seqs[40:],
                                 test=[])
        cfg = trainer.TrainConfig(batch_size=20, epochs=60, seed=3)
        params, report = trainer.train(splits, cfg)
        acc, _ = trainer.evaluate(params, splits.validation)
        assert acc >= report.val_acc[0]

    # the backward pass stops at the first overflow, before NumPy warns
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_aborts_with_epoch(self):
        seqs = make_dataset(20, seed=9)
        splits = dp.DatasetSplit(train=seqs[:15], validation=seqs[15:],
                                 test=[])
        cfg = trainer.TrainConfig(batch_size=5, epochs=10, seed=4,
                                  learning_rate=1e9)
        with pytest.raises(NumericalError, match="epoch"):
            trainer.train(splits, cfg)


class TestEvaluate:
    def test_perfect_and_base_rate(self):
        seqs = make_dataset(40, seed=10, separation=3.0)
        splits = dp.DatasetSplit(train=seqs, validation=seqs[:8], test=[])
        params, _ = trainer.train(splits, trainer.TrainConfig(
            batch_size=10, epochs=150, seed=5))
        acc, cm = trainer.evaluate(params, seqs)
        assert cm.shape == (2, 2)
        assert cm.sum() == 40
        if acc == 1.0:
            assert cm[0, 1] == 0 and cm[1, 0] == 0

    def test_constant_classifier_scores_base_rate(self):
        # zero weights predict class 0 everywhere (tie-break)
        params = NetworkParams(
            W_z=np.zeros((16, 25)), U_z=np.zeros((16, 16)),
            W=np.zeros((16, 25)), U=np.zeros((16, 16)),
            fc1_w=np.zeros((2, 16)), fc1_b=np.zeros(2),
            fc2_w=np.zeros((2, 2)), fc2_b=np.zeros(2))
        seqs = make_dataset(30, seed=11)
        acc, cm = trainer.evaluate(params, seqs)
        labels = np.array([s.label for s in seqs])
        assert acc == pytest.approx(np.mean(labels == 0))
        assert cm[:, 1].sum() == 0

    def test_confusion_orientation(self):
        seqs = make_dataset(10, seed=12)
        params = trainer.init_params(0)
        acc, cm = trainer.evaluate(params, seqs)
        # rows are true classes: row sums equal class counts
        labels = np.array([s.label for s in seqs])
        assert cm[0].sum() == np.sum(labels == 0)
        assert cm[1].sum() == np.sum(labels == 1)

    def test_chunked_pass_matches_per_sequence_classify(self):
        # 300 sequences cross the 256-sequence chunk boundary
        params = rand_params(4, 3, seed=18, scale=1.0)
        cfg = IntegrationConfig(substeps_per_pattern=5, dt=0.5)
        seqs = toy_batch(300, np.random.default_rng(22), n_steps=3)
        want = np.zeros((2, 2), dtype=np.int64)
        for s in seqs:
            want[s.label, afua.classify(s, params, cfg)[0]] += 1
        assert 0 < want[:, 1].sum() < 300
        acc, cm = trainer.evaluate(params, seqs, cfg)
        assert np.array_equal(cm, want)
        assert acc == np.trace(want) / 300
        _, hits = trainer.batch_loss_and_hits(seqs, params, cfg)
        assert hits == np.trace(want)


class TestReports:
    def test_curve_csv(self, tmp_path):
        seqs = make_dataset(20, seed=13)
        splits = dp.DatasetSplit(train=seqs[:15], validation=seqs[15:],
                                 test=[])
        _, report = trainer.train(splits, trainer.TrainConfig(
            batch_size=5, epochs=3, seed=6))
        path = tmp_path / "curve.csv"
        trainer.save_training_curve(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[1]) == report.train_loss[0]
