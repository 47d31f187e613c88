"""Unit tests for feature containers, the synthetic generator, and batching."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hscmae.data_io import (DataError, FeatureSet, SynthConfig, batches,
                            generate_synthetic, load_features, save_features)

from conftest import corrupted


def sample_set(n=7, d_a=3, d_v=5, labels=True, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSet(audio=rng.normal(size=(n, d_a)),
                      visual=rng.normal(size=(n, d_v)),
                      labels=rng.integers(0, 4, n) if labels else None)


def test_feature_set_validation():
    with pytest.raises(DataError):
        FeatureSet(audio=np.zeros((3, 2)), visual=np.zeros((4, 2)), labels=None)
    with pytest.raises(DataError):
        FeatureSet(audio=np.zeros((3, 2)), visual=np.zeros((3, 2)), labels=np.zeros(2))


def test_unlabeled_view_strips_labels():
    fs = sample_set()
    view = fs.unlabeled()
    assert not hasattr(view, "labels")
    np.testing.assert_array_equal(view.audio, fs.audio)
    np.testing.assert_array_equal(view.visual, fs.visual)


def test_binary_roundtrip_with_labels(tmp_path):
    fs = sample_set()
    path = tmp_path / "feat.bin"
    save_features(path, fs)
    loaded = load_features(path, split="test")
    # payload is stored as float32
    np.testing.assert_array_equal(loaded.audio, fs.audio.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.visual, fs.visual.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(loaded.labels, fs.labels)


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
def test_load_features_accepts_and_ignores_split(tmp_path, suffix):
    path = tmp_path / f"feat{suffix}"
    save_features(path, sample_set())
    train, test = load_features(path, split="train"), load_features(path, split="test")
    assert not hasattr(train, "split")
    for a, b in ((train.audio, test.audio), (train.visual, test.visual), (train.labels, test.labels)):
        np.testing.assert_array_equal(a, b)


def test_binary_roundtrip_without_labels(tmp_path):
    fs = sample_set(labels=False)
    path = tmp_path / "feat.bin"
    save_features(path, fs)
    loaded = load_features(path)
    assert loaded.labels is None


def test_binary_save_is_deterministic(tmp_path):
    fs = sample_set()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_features(p1, fs)
    save_features(p2, fs)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_roundtrip_exact(tmp_path):
    fs = sample_set()
    path = tmp_path / "feat.csv"
    save_features(path, fs)
    loaded = load_features(path)
    np.testing.assert_array_equal(loaded.audio, fs.audio)  # repr() round-trips float64
    np.testing.assert_array_equal(loaded.visual, fs.visual)
    np.testing.assert_array_equal(loaded.labels, fs.labels)


def test_csv_field_count_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a0,v0,label\n1.0,2.0\n")
    with pytest.raises(DataError):
        load_features(path)


def test_csv_header_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(DataError):
        load_features(path)


def test_csv_non_number_cell_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a0,v0,label\n1.0,2.0,0\n1.0,x,1\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: could not convert string to float: 'x'")):
        load_features(path)


@pytest.mark.parametrize("label", ["2.5", "-0.5", "1e30", "-1", "4294967296"])
def test_csv_label_must_be_a_whole_number_the_container_holds(tmp_path, label):
    # the binary container stores labels as u32, so 0..2**32-1 is the range
    path = tmp_path / "bad.csv"
    path.write_text(f"a0,v0,label\n1.0,2.0,0\n1.0,2.0,{label}\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: label {float(label)!r} is not a whole "
                                                  "number in 0..4294967295")):
        load_features(path)


@pytest.mark.parametrize("label, value", [("4294967295", 2 ** 32 - 1), ("3.0", 3), ("-0", 0)])
def test_csv_whole_number_labels_load_exactly(tmp_path, label, value):
    path = tmp_path / "feat.csv"
    path.write_text(f"a0,v0,label\n1.0,2.0,{label}\n")
    assert load_features(path).labels.tolist() == [value]


@pytest.mark.parametrize("suffix", [".bin", ".csv"])
@pytest.mark.parametrize("labels, first", [([-1, 2 ** 33 + 5], "label -1 of sample 0"),
                                           ([0, 2 ** 32], "label 4294967296 of sample 1")])
def test_save_refuses_labels_the_container_cannot_hold(tmp_path, suffix, labels, first):
    path = tmp_path / f"feat{suffix}"
    fs = FeatureSet(audio=np.ones((2, 1)), visual=np.ones((2, 1)), labels=labels)
    with pytest.raises(DataError, match=re.escape(f"{path}: {first} is outside 0..4294967295")):
        save_features(path, fs)
    assert not path.exists()  # refused before the file is opened
    fs.labels[:] = [0, 2 ** 32 - 1]  # the range's ends save and load exactly
    save_features(path, fs)
    assert load_features(path).labels.tolist() == [0, 2 ** 32 - 1]


def test_csv_header_only_error(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("a0,v0,label\n", "a0,v0\n"):
        path.write_text(text)
        with pytest.raises(DataError, match="no data rows"):
            load_features(path)


@pytest.mark.parametrize("header, found", [
    ("v0,v1,a0,label", "column 1 is 'v0'"),
    ("a0,a0,v0,extra", "column 2 is 'a0'"),
    ("a0,v0,extra", "column 3 is 'extra'"),
    ("a0,v0,label,extra", "column 4 is 'extra'"),
    ("a0,a1,label", "column 3 is 'label'"),
    ("a1,v0", "column 1 is 'a1'"),
    ("a0,v1", "column 2 is 'v1'"),
    ("a0,v0,v2", "column 3 is 'v2'"),
    ("a0, v0", "column 2 is ' v0'"),
    ("a0", "header ends after 1 columns"),
], ids=("modalities-swapped", "repeated", "extra", "extra-after-label", "no-visual",
        "audio-from-one", "visual-from-one", "visual-gap", "space", "audio-only"))
def test_csv_header_names_the_first_unexpected_column(tmp_path, header, found):
    path = tmp_path / "bad.csv"
    width = len(header.split(","))
    path.write_text(header + "\n" + ",".join(["1.0"] * width) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: {found}; expected a0, a1, ..., then v0")):
        load_features(path)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(order=st.permutations(range(5)))
def test_csv_columns_match_by_name_not_position(tmp_path, order):
    """A header is accepted only in its one canonical order."""
    fs = sample_set(n=2, d_a=2, d_v=2)
    path = tmp_path / "feat.csv"
    save_features(path, fs)
    lines = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(cells[k] for k in order) + "\n" for cells in lines))
    if list(order) == sorted(order):
        np.testing.assert_array_equal(load_features(path).visual, fs.visual)
    else:
        with pytest.raises(DataError, match="expected a0, a1, ..., then v0, v1, ..., then an optional label"):
            load_features(path)


def test_csv_not_utf8_error(tmp_path):
    path = tmp_path / "bytes.csv"
    path.write_bytes(b"a0,v0\n1.0,\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_features(path)


def test_binary_has_labels_byte_must_be_zero_or_one(tmp_path):
    path = tmp_path / "feat.bin"
    save_features(path, sample_set(labels=False))
    blob = bytearray(path.read_bytes())
    blob[20] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="has-labels byte is 7"):
        load_features(path)


@pytest.mark.parametrize("labels", [True, False], ids=("labelled", "unlabelled"))
def test_binary_without_samples_error(tmp_path, labels):
    path = tmp_path / "empty.bin"
    save_features(path, sample_set(n=0, labels=labels))
    assert path.stat().st_size == 21
    with pytest.raises(DataError, match=re.escape(f"{path}: no samples")):
        load_features(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 20)
    with pytest.raises(DataError):
        load_features(path)


def test_binary_truncation(tmp_path):
    fs = sample_set()
    path = tmp_path / "feat.bin"
    save_features(path, fs)
    blob = path.read_bytes()
    for cut in (12, len(blob) - 3):
        bad = tmp_path / f"cut{cut}.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_features(bad)
    extra = tmp_path / "extra.bin"
    extra.write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataError):
        load_features(extra)


def test_binary_non_finite_payload(tmp_path):
    path = tmp_path / "nan.bin"
    with open(path, "wb") as fh:
        fh.write(b"AVFEAT01")
        fh.write(struct.pack("<IIIB", 1, 2, 2, 0))
        fh.write(np.array([1.0, np.nan], dtype="<f4").tobytes())
        fh.write(np.array([1.0, 2.0], dtype="<f4").tobytes())
    with pytest.raises(DataError):
        load_features(path)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_feature_file_fuzz_loads_or_raises_data_error(tmp_path, data):
    suffix = data.draw(st.sampled_from([".bin", ".csv"]), label="format")
    path = tmp_path / f"feat{suffix}"
    save_features(path, sample_set(n=3, d_a=2, d_v=2, labels=data.draw(st.booleans(), label="labels")))
    path.write_bytes(corrupted(data, path.read_bytes()))
    try:
        load_features(path)
    except DataError:
        pass


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_generator_shapes_and_split(synth_default):
    train, test = synth_default
    assert train.n == 2000 and test.n == 500
    assert train.audio.shape[1] == 12 and train.visual.shape[1] == 24
    np.testing.assert_array_equal(np.bincount(train.labels), np.full(8, 250))
    np.testing.assert_array_equal(np.bincount(test.labels), [63, 63, 63, 63, 62, 62, 62, 62])


def test_generator_deterministic():
    a_train, a_test = generate_synthetic(SynthConfig(seed=5))
    b_train, b_test = generate_synthetic(SynthConfig(seed=5))
    c_train, _ = generate_synthetic(SynthConfig(seed=6))
    np.testing.assert_array_equal(a_train.audio, b_train.audio)
    np.testing.assert_array_equal(a_test.visual, b_test.visual)
    assert not np.array_equal(a_train.audio, c_train.audio)


def test_generator_shared_latent_is_class_informative(synth_default):
    train, _ = synth_default
    # class means of the two modalities should be far apart relative to noise
    for block in (train.audio, train.visual):
        centers = np.stack([block[train.labels == c].mean(axis=0) for c in range(8)])
        spread = np.linalg.norm(centers - centers.mean(axis=0), axis=1).mean()
        within = np.linalg.norm(block - centers[train.labels], axis=1).mean()
        assert spread > 0.2 * within


def test_generator_warp_changes_visual_only():
    warped_train, _ = generate_synthetic(SynthConfig(seed=0, warp=True))
    plain_train, _ = generate_synthetic(SynthConfig(seed=0, warp=False))
    np.testing.assert_array_equal(warped_train.audio, plain_train.audio)
    np.testing.assert_array_equal(warped_train.visual, plain_train.visual ** 3)


def test_generator_validation():
    with pytest.raises(ValueError):
        SynthConfig(classes=1)
    with pytest.raises(ValueError):
        SynthConfig(noise_scale=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(mean_scale=0.0)
    for field in ("mean_scale", "noise_scale"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"scales must be positive and finite .*{field}={value}"):
                SynthConfig(**{field: value})
    for field in ("per_class", "d_audio", "d_visual"):
        for value in (0, -1):
            with pytest.raises(ValueError, match="must be >= 1"):
                SynthConfig(**{field: value})


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_batches_partition_without_tail():
    out = batches(10, 4, seed=0)
    assert [b.size for b in out] == [4, 4]
    seen = np.concatenate(out)
    assert len(set(seen.tolist())) == 8


def test_batches_deterministic_and_seed_sensitive():
    a = batches(20, 5, seed=1)
    b = batches(20, 5, seed=1)
    c = batches(20, 5, seed=2)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_batches_validation():
    with pytest.raises(ValueError):
        batches(10, 1, seed=0)
