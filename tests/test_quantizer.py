import numpy as np
import pytest

from biozpipe import afua, quantizer, trainer
from biozpipe.afua import IntegrationConfig, NetworkParams
from biozpipe.errors import ConfigError


def rand_params(seed=0, scale=0.6):
    r = np.random.default_rng(seed)
    return NetworkParams(
        W_z=r.normal(0, scale, (16, 25)), U_z=r.normal(0, scale, (16, 16)),
        W=r.normal(0, scale, (16, 25)), U=r.normal(0, scale, (16, 16)),
        fc1_w=r.normal(0, scale, (2, 16)), fc1_b=r.normal(0, scale, 2),
        fc2_w=r.normal(0, scale, (2, 2)), fc2_b=r.normal(0, scale, 2),
    )


class TestRounding:
    def test_half_away_from_zero(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49])
        out = quantizer.round_half_away(x)
        assert np.array_equal(out, [1, 2, 3, -1, -2, -3, 0, -0])

    def test_worked_example(self):
        # N=5, s=1: step 1/15; w=0.3 -> 4.5 -> code 5 -> 1/3
        p = rand_params()
        w = np.zeros((16, 25))
        w[0, 0] = 1.0
        w[0, 1] = 0.3
        p = NetworkParams(W_z=w, U_z=p.U_z, W=p.W, U=p.U, fc1_w=p.fc1_w,
                          fc1_b=p.fc1_b, fc2_w=p.fc2_w, fc2_b=p.fc2_b)
        q = quantizer.quantize(p, 5)
        assert q.scales["W_z"] == 1.0
        assert q.codes["W_z"][0, 1] == 5
        deq = q.dequantize()
        assert deq.W_z[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)


class TestQuantize:
    def test_zero_preserved(self):
        p = rand_params(1)
        q = quantizer.quantize(p, 6)
        zeros = p.W == 0.0
        assert np.all(q.codes["W"][zeros] == 0)

    def test_extreme_exactly_representable(self):
        p = rand_params(2)
        for bits in (3, 5, 8):
            q = quantizer.quantize(p, bits)
            deq = q.dequantize()
            for name in ("W_z", "U_z", "W", "U"):
                w = getattr(p, name)
                s = np.max(np.abs(w))
                i = np.unravel_index(np.argmax(np.abs(w)), w.shape)
                assert abs(getattr(deq, name)[i]) == pytest.approx(s, rel=1e-12)

    def test_error_bound_half_step(self):
        p = rand_params(3)
        for bits in (4, 6, 10):
            q = quantizer.quantize(p, bits)
            deq = q.dequantize()
            for name, w in p.matrices().items():
                step = q.step(name)
                err = np.abs(np.asarray(getattr(deq, name)) - w)
                assert err.max() <= step / 2 + 1e-12

    def test_monotone_refinement(self):
        p = rand_params(4)
        prev = np.inf
        for bits in (3, 4, 5, 6, 8, 12, 16):
            deq = quantizer.quantize(p, bits).dequantize()
            mae = np.mean([np.mean(np.abs(np.asarray(getattr(deq, n)) - w))
                           for n, w in p.matrices().items()])
            assert mae <= prev + 1e-15
            prev = mae

    def test_deterministic(self):
        p = rand_params(5)
        q1 = quantizer.quantize(p, 5)
        q2 = quantizer.quantize(p, 5)
        for name in q1.codes:
            assert np.array_equal(q1.codes[name], q2.codes[name])

    def test_zero_matrix_gets_unit_scale(self):
        p = rand_params(6)
        p = NetworkParams(W_z=np.zeros((16, 25)), U_z=p.U_z, W=p.W, U=p.U,
                          fc1_w=p.fc1_w, fc1_b=np.zeros(2), fc2_w=p.fc2_w,
                          fc2_b=p.fc2_b)
        q = quantizer.quantize(p, 5)
        assert q.scales["W_z"] == 1.0
        assert q.scales["fc1_b"] == 1.0

    def test_bits_range_enforced(self):
        p = rand_params(7)
        for bad in (2, 17):
            with pytest.raises(ConfigError):
                quantizer.quantize(p, bad)

    def test_codes_within_range(self):
        p = rand_params(8, scale=3.0)
        for bits in (3, 5, 9):
            q = quantizer.quantize(p, bits)
            lim = 2 ** (bits - 1) - 1
            for mat in q.codes.values():
                assert np.abs(mat).max() <= lim

    def test_dequantized_once(self):
        # quantized_forward runs once per streamed frame of one model
        q = quantizer.quantize(rand_params(9), 6)
        assert q.dequantize() is q.dequantize()


class TestQuantizedForward:
    def test_16_bit_close_to_full_precision(self):
        p = rand_params(10)
        cfg = IntegrationConfig()
        q = quantizer.quantize(p, 16)
        rng = np.random.default_rng(0)
        for _ in range(5):
            seq = rng.uniform(-1, 1, (28, 25))
            _, prob_q = quantizer.quantized_forward(q, seq, cfg)
            _, prob_f = afua.classify(seq, p, cfg)
            assert np.max(np.abs(prob_q - prob_f)) < 1e-3

    def test_probabilities_sum_to_one(self):
        p = rand_params(12)
        cfg = IntegrationConfig()
        seq = np.random.default_rng(2).uniform(-1, 1, (28, 25))
        for bits in (3, 5, 8):
            _, prob = quantizer.quantized_forward(
                quantizer.quantize(p, bits), seq, cfg)
            assert abs(prob.sum() - 1.0) < 1e-12


def make_labeled_set(n, seed):
    rng = np.random.default_rng(seed)
    from biozpipe import datapipe as dp
    seqs = []
    for i in range(n):
        y = i % 2
        x = rng.uniform(-0.5, 0.5, (28, 25))
        x[:, :6] += (0.4 if y else -0.4)
        seqs.append(dp.InputSequence(
            steps=np.clip(x, -0.99, 0.99).astype(np.float32), label=y,
            provenance=f"p{i}"))
    return seqs


class TestSweep:
    def test_table_shape_and_fp_row(self):
        seqs = make_labeled_set(30, 3)
        p = trainer.init_params(1)
        cfg = IntegrationConfig()
        rows = quantizer.sweep(
            p, [quantizer.quantize(p, b) for b in [3, 4, 5, 6, 7, 8]], seqs,
            cfg)
        assert len(rows) == 7
        assert rows[-1][0] == "FP"
        acc_fp, _ = trainer.evaluate(p, seqs, cfg)
        assert rows[-1][1] == acc_fp

    def test_sweep_matches_quantized_forward(self):
        seqs = make_labeled_set(20, 4)
        p = rand_params(13)
        cfg = IntegrationConfig()
        rows = quantizer.sweep(p, [quantizer.quantize(p, 4)], seqs, cfg)
        acc4 = rows[0][1]
        hits = sum(quantizer.quantized_forward(
            quantizer.quantize(p, 4), s, cfg)[0] == s.label for s in seqs)
        assert acc4 == pytest.approx(hits / len(seqs))

    def test_csv(self, tmp_path):
        rows = [("3", 0.5), ("5", 0.875), ("FP", 0.9)]
        path = tmp_path / "sweep.csv"
        quantizer.save_sweep_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bits,accuracy"
        assert lines[1] == "3,0.5"
        assert lines[-1] == "FP,0.9"


class TestQuantizedModelFile:
    def test_rewrite_identical(self, tmp_path):
        q = quantizer.quantize(rand_params(15), 6)
        cfg = IntegrationConfig(substeps_per_pattern=7, dt=0.05, epsilon=1e-5)
        p1, p2 = tmp_path / "a.afuaq", tmp_path / "b.afuaq"
        afua.write_model_file(p1, cfg, q)
        back, cfg2 = quantizer.load_quantized_model(p1)
        afua.write_model_file(p2, cfg2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip(self, tmp_path):
        p = rand_params(14)
        q = quantizer.quantize(p, 5)
        # scales held as NumPy scalars must still write plain floats
        q_np = quantizer.QuantizedParams(
            codes=q.codes, total_bits=5,
            scales={k: np.float64(v) for k, v in q.scales.items()})
        cfg = IntegrationConfig()
        for k, qp in enumerate((q, q_np)):
            path = tmp_path / f"m{k}.afuaq"
            afua.write_model_file(path, cfg, qp)
            back, cfg2 = quantizer.load_quantized_model(path)
            assert back.total_bits == 5
            assert cfg2 == cfg
            for name in qp.codes:
                assert np.array_equal(back.codes[name], qp.codes[name])
                assert back.scales[name] == qp.scales[name]
            d1, d2 = qp.dequantize(), back.dequantize()
            for name in d1.matrices():
                assert np.array_equal(getattr(d1, name), getattr(d2, name))
