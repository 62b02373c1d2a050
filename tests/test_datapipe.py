import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from biozpipe import datapipe as dp
from biozpipe import fem
from biozpipe.errors import ConfigError, FormatError, SolverError


def make_frame(values, pid="x"):
    return fem.Frame(voltages=np.asarray(values, dtype=complex),
                     phantom_id=pid)


def seq_of(arr, label=0, pid="s"):
    return dp.InputSequence(steps=np.asarray(arr, dtype=np.float32),
                            label=label, provenance=pid)


class TestNormalize:
    def test_identity_frames_zero(self):
        f = make_frame(np.full((28, 25), 3 + 4j))
        out = dp.normalize(f, f, gain=2.0, label=0)
        assert np.all(out.steps == 0.0)

    def test_scalar_tanh_value(self):
        # |V_meas| - |V_ref| = 3.0 mV at one cell, gain 1
        meas = np.zeros((28, 25), dtype=complex)
        ref = np.zeros((28, 25), dtype=complex)
        meas[4, 7] = 3.0
        out = dp.normalize(make_frame(meas), make_frame(ref), gain=1.0,
                           label=0)
        assert out.steps[4, 7] == pytest.approx(0.995054753687, abs=1e-9)

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        meas = make_frame(rng.uniform(-500, 500, (28, 25))
                          + 1j * rng.uniform(-10, 10, (28, 25)))
        ref = make_frame(np.zeros((28, 25)))
        out = dp.normalize(meas, ref, gain=1.0, label=0)
        assert np.all(out.steps > -1.0)
        assert np.all(out.steps < 1.0)

    def test_monotone_in_magnitude(self):
        base = np.full((28, 25), 10.0 + 0j)
        ref = make_frame(np.full((28, 25), 8.0 + 0j))
        lo = dp.normalize(make_frame(base), ref, gain=0.3, label=0)
        hi = dp.normalize(make_frame(base + 1.0), ref, gain=0.3, label=0)
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

    def test_labels_with_a_repeated_id_raise(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\np00000,0\np00001,1\np00000,1\n")
        with pytest.raises(FormatError, match="'p00000' listed twice"):
            dp.load_labels(path)

    def test_dataset_with_a_repeated_id_raises(self, tmp_path):
        seqs = [seq_of(np.zeros((28, 25)), pid=pid)
                for pid in ("p0", "p1", "p0")]
        path = tmp_path / "data.bzds"
        dp.save_sequences(seqs, path)
        with pytest.raises(FormatError, match="id 'p0' listed twice"):
            dp.load_sequences(path)

    @pytest.mark.parametrize("load, column, value, want", [
        (dp.load_split_assignment, "split", " test ", "test"),
        (dp.load_labels, "label", " 1 ", 1)])
    def test_id_column_readers(self, tmp_path, load, column, value, want):
        # both strip the value and need both columns in the header
        path = tmp_path / "ids.csv"
        path.write_text(f"id,{column}\np0,{value}\n")
        assert load(path) == {"p0": want}
        path.write_text(f"id,other\np0,{value}\n")
        with pytest.raises(FormatError, match=f"columns id and {column}"):
            load(path)

    def test_write_csv_floats_and_ints(self, tmp_path):
        # NumPy >= 2 reprs scalars as "np.float64(...)"; the file must hold
        # plain numbers, each float exactly as repr(float(v))
        path = tmp_path / "t.csv"
        dp.write_csv(path, ["a", "b", "c", "d", "e"],
                     [[0.1, np.float64(0.1), np.float32(0.1), 7,
                       np.int64(8)], ["x", 1e-300, -0.0, 0, ""]])
        assert path.read_bytes() == (
            b"a,b,c,d,e\r\n"
            b"0.1,0.1," + repr(float(np.float32(0.1))).encode() + b",7,8\r\n"
            b"x,1e-300,-0.0,0,\r\n")

    def test_sequences_are_array_like(self):
        rng = np.random.default_rng(4)
        s1, s2 = (seq_of(rng.uniform(-1, 1, (28, 25))) for _ in range(2))
        got = np.asarray([s1, s2], dtype=float)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.stack([s1.steps, s2.steps]))
        # np.array copies, as the protocol's copy=True asks
        assert np.array(s1) is not s1.steps
        assert np.array_equal(np.array(s1), s1.steps)

    def test_frame_record_bytes_pinned(self, tmp_path):
        # the <c16 voltages are the interleaved <f8 real and imaginary parts
        rng = np.random.default_rng(5)
        v = rng.normal(size=(28, 25)) + 1j * rng.normal(size=(28, 25))
        v[0, 0] = complex(-0.0, 0.0)
        path = tmp_path / "one.frame"
        dp.save_frames([make_frame(v, "p7")], path)
        body = np.empty(2 * v.size)
        body[0::2], body[1::2] = v.real.ravel(), v.imag.ravel()
        assert path.read_bytes() == (
            b"BZFR" + struct.pack("<IIIH", 1, 28, 25, 2) + b"p7"
            + struct.pack(f"<{body.size}d", *body))
        back = dp.load_frames(path)[0]
        assert back.phantom_id == "p7"
        assert back.voltages.tobytes() == v.tobytes()

    @pytest.mark.parametrize("save, load, record", [
        (dp.save_sequences, dp.load_sequences,
         lambda pid: seq_of(np.zeros((28, 25)), pid=pid)),
        (dp.save_frames, dp.load_frames,
         lambda pid: make_frame(np.ones((28, 25)), pid))])
    def test_binary_readers_share_the_id_rule(self, tmp_path, save, load,
                                              record):
        path = tmp_path / "ids.bin"
        save([record("q\u00e9"), record("r\u00e9")], path)
        data = path.read_bytes()
        # the second id's last byte becomes a lone UTF-8 lead byte
        at = data.rindex("r\u00e9".encode("utf-8")) + 2
        path.write_bytes(data[:at] + b"\xc3" + data[at + 1:])
        with pytest.raises(FormatError, match="id is not UTF-8"):
            load(path)

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


def test_only_datapipe_imports_csv():
    # every CSV file of a run directory goes through write_csv and
    # _read_id_column, and every binary one (dataset and frames) through
    # the struct-packed records here
    for module in ("csv", "struct"):
        assert importers_of(module) == {"datapipe.py"}, module


def importers_of(module: str) -> set[str]:
    importers = set()
    for path in Path(dp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == module for n in names):
                importers.add(path.name)
    return importers
