import math

import numpy as np
import pytest

from biozpipe import datapipe as dp
from biozpipe import fem
from biozpipe.errors import ConfigError, SolverError


def make_frame(values, pid="x"):
    return fem.Frame(voltages=np.asarray(values, dtype=complex),
                     phantom_id=pid)


def seq_of(arr, label=0, pid="s"):
    return dp.InputSequence(steps=np.asarray(arr, dtype=np.float32),
                            label=label, provenance=pid)


class TestNormalize:
    def test_identity_frames_zero(self):
        f = make_frame(np.full((28, 25), 3 + 4j))
        out = dp.normalize(f, f, gain=2.0)
        assert np.all(out.steps == 0.0)

    def test_scalar_tanh_value(self):
        # |V_meas| - |V_ref| = 3.0 mV at one cell, gain 1
        meas = np.zeros((28, 25), dtype=complex)
        ref = np.zeros((28, 25), dtype=complex)
        meas[4, 7] = 3.0
        out = dp.normalize(make_frame(meas), make_frame(ref), gain=1.0)
        assert out.steps[4, 7] == pytest.approx(0.995054753687, abs=1e-9)

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        meas = make_frame(rng.uniform(-500, 500, (28, 25))
                          + 1j * rng.uniform(-10, 10, (28, 25)))
        ref = make_frame(np.zeros((28, 25)))
        out = dp.normalize(meas, ref, gain=1.0)
        assert np.all(out.steps > -1.0)
        assert np.all(out.steps < 1.0)

    def test_monotone_in_magnitude(self):
        base = np.full((28, 25), 10.0 + 0j)
        ref = make_frame(np.full((28, 25), 8.0 + 0j))
        lo = dp.normalize(make_frame(base), ref, gain=0.3)
        hi = dp.normalize(make_frame(base + 1.0), ref, gain=0.3)
        assert np.all(hi.steps >= lo.steps)

    def test_shape_mismatch_raises(self):
        # a frame of another shape cannot be built, so normalize never
        # meets a measurement and a reference that disagree
        for shape in ((28, 24), (27, 25)):
            with pytest.raises(SolverError, match="shape"):
                make_frame(np.zeros(shape))


class TestSplits:
    def test_paper_counts_prostate(self):
        assert dp.split_counts(4265, (0.5623, 0.1876, 0.2501)) == (2398, 800, 1067)

    def test_paper_counts_bovine(self):
        assert dp.split_counts(2988, (0.75, 0.25, 0.0)) == (2241, 747, 0)

    def test_counts_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 5000))
            f = rng.uniform(0.1, 1.0, 3)
            f = f / f.sum()
            counts = dp.split_counts(n, tuple(f))
            assert sum(counts) == n

    def test_deterministic_membership(self):
        seqs = [seq_of(np.zeros((28, 25)), label=i % 2, pid=f"p{i}")
                for i in range(101)]
        s1 = dp.make_splits(seqs, (0.6, 0.2, 0.2), seed=5)
        s2 = dp.make_splits(seqs, (0.6, 0.2, 0.2), seed=5)
        ids = lambda part: [q.provenance for q in part]
        assert ids(s1.train) == ids(s2.train)
        assert ids(s1.validation) == ids(s2.validation)
        assert ids(s1.test) == ids(s2.test)

    def test_disjoint_and_complete(self):
        seqs = [seq_of(np.zeros((28, 25)), pid=f"p{i}") for i in range(57)]
        s = dp.make_splits(seqs, (0.5, 0.3, 0.2), seed=3)
        all_ids = ([q.provenance for q in s.train]
                   + [q.provenance for q in s.validation]
                   + [q.provenance for q in s.test])
        assert sorted(all_ids) == sorted(q.provenance for q in seqs)
        assert len(set(all_ids)) == len(all_ids)

    def test_empty_input_raises(self):
        with pytest.raises(ConfigError):
            dp.make_splits([], (0.6, 0.2, 0.2), seed=0)

    def test_bad_fractions_raise(self):
        seqs = [seq_of(np.zeros((28, 25)))]
        with pytest.raises(ConfigError):
            dp.make_splits(seqs, (0.6, 0.2, 0.1), seed=0)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        seqs = [seq_of(np.tanh(rng.normal(size=(28, 25))).astype(np.float32),
                       label=int(rng.integers(0, 2)), pid=f"ph{i:04d}")
                for i in range(7)]
        path = tmp_path / "data.bzds"
        dp.save_sequences(seqs, path)
        back = dp.load_sequences(path)
        assert len(back) == 7
        for a, b in zip(seqs, back):
            assert np.array_equal(a.steps, b.steps)
            assert a.steps.dtype == b.steps.dtype
            assert a.label == b.label
            assert a.provenance == b.provenance

    def test_save_load_save_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        seqs = [seq_of(np.tanh(rng.normal(size=(28, 25))).astype(np.float32),
                       pid=f"q{i}") for i in range(4)]
        p1, p2 = tmp_path / "a.bzds", tmp_path / "b.bzds"
        dp.save_sequences(seqs, p1)
        dp.save_sequences(dp.load_sequences(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest(self, tmp_path):
        seqs = [seq_of(np.zeros((28, 25)), label=i % 2, pid=f"p{i}")
                for i in range(10)]
        split = dp.make_splits(seqs, (0.5, 0.3, 0.2), seed=1)
        path = tmp_path / "manifest.csv"
        dp.save_split_manifest(split, path)
        assign = dp.load_split_assignment(path)
        assert len(assign) == 10
        assert sorted(set(assign.values())) == ["test", "train", "validation"]
        for q in split.train:
            assert assign[q.provenance] == "train"
