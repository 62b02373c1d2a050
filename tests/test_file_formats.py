"""Property tests of the file readers.

A valid file cut to any prefix, or with any one byte overwritten, must
either load or raise FormatError (exit 4 in the CLI), never another
exception.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biozpipe import afua, datapipe, fem, quantizer
from biozpipe import geometry as geo
from biozpipe.afua import IntegrationConfig, NetworkParams
from biozpipe.errors import FormatError

LOADERS = {
    "model.afua": afua.load_model,
    "model.afuaq": quantizer.load_quantized_model,
    "data.bzds": datapipe.load_sequences,
    "frames.frame": datapipe.load_frames,
    "layout.txt": geo.load_layout,
    "mesh.txt": geo.load_mesh,
    "dataset_manifest.csv": datapipe.load_split_assignment,
    "labels.csv": datapipe.load_labels,
}

# few examples per format keep the suite fast; each draws a fresh offset
PROPERTY = settings(max_examples=150, deadline=None, database=None)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file per format, as {name: (path, bytes)}."""
    root = tmp_path_factory.mktemp("formats")
    rng = np.random.default_rng(0)
    n, d = 3, 4
    params = NetworkParams(
        W_z=rng.normal(size=(n, d)), U_z=rng.normal(size=(n, n)),
        W=rng.normal(size=(n, d)), U=rng.normal(size=(n, n)),
        fc1_w=rng.normal(size=(2, n)), fc1_b=rng.normal(size=2),
        fc2_w=rng.normal(size=(2, 2)), fc2_b=rng.normal(size=2))
    cfg = IntegrationConfig()
    afua.write_model_file(root / "model.afua", cfg, params)
    afua.write_model_file(root / "model.afuaq", cfg,
                          quantizer.quantize(params, 5))
    seqs = [datapipe.InputSequence(
        steps=rng.uniform(-1, 1, (28, 25)).astype(np.float32), label=k % 2,
        provenance=f"p{k:05d}") for k in range(2)]
    datapipe.save_sequences(seqs, root / "data.bzds")
    datapipe.save_split_manifest(
        datapipe.make_splits(seqs, (0.5, 0.5, 0.0), seed=0),
        root / "dataset_manifest.csv")
    (root / "labels.csv").write_text("id,label\np00000,0\np00001,1\n")
    layout = geo.build_probe_layout()
    frames = [fem.Frame(voltages=rng.normal(size=(28, 25))
                        + 1j * rng.normal(size=(28, 25)),
                        phantom_id=f"p{k:05d}")
              for k in range(2)]
    datapipe.save_frames(frames, root / "frames.frame")
    geo.save_layout(layout, root / "layout.txt")
    geo.save_mesh(geo.build_mesh(layout, 0.5), root / "mesh.txt")
    return {name: (root / name, (root / name).read_bytes())
            for name in LOADERS}


def load_or_format_error(name, path, blob):
    mutant = path.with_name("mutant-" + name)
    mutant.write_bytes(blob)
    try:
        LOADERS[name](mutant)
    except FormatError:
        pass


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_file_loads(valid_files, name):
    LOADERS[name](valid_files[name][0])


@pytest.mark.parametrize("name", sorted(LOADERS))
@PROPERTY
@given(data=st.data())
def test_any_prefix(valid_files, name, data):
    path, blob = valid_files[name]
    cut = data.draw(st.integers(0, len(blob) - 1), label="length")
    load_or_format_error(name, path, blob[:cut])


@pytest.mark.parametrize("name", sorted(LOADERS))
@PROPERTY
@given(data=st.data())
def test_any_one_byte_overwritten(valid_files, name, data):
    path, blob = valid_files[name]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    value = data.draw(st.integers(0, 255), label="byte")
    load_or_format_error(name, path, blob[:at] + bytes([value])
                         + blob[at + 1:])
