"""Feature-file ingestion, mini-batching, and a synthetic paired-data
generator with known classes for desk-scale verification.

Labels ride along for evaluation only; the training entry point accepts a
label-stripped view so no training code path can reach them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FEATURE_MAGIC = b"AVFEAT01"
_LABEL_MAX = 2 ** 32 - 1  # the largest label the container's u32 field holds
LATENT_DIM = 8  # dimension of the synthetic generator's shared latent space
# numpy refuses an array of more than np.intp's largest value in bytes
MAX_FLOAT64_VALUES = np.iinfo(np.intp).max // 8


class DataError(Exception):
    pass


class TrainView(NamedTuple):
    """What the trainer is allowed to see: paired features, nothing else."""
    audio: np.ndarray
    visual: np.ndarray


@dataclass
class FeatureSet:
    audio: np.ndarray            # n x d_a, float64 in memory
    visual: np.ndarray           # n x d_v
    labels: np.ndarray | None    # n int class ids, evaluation only

    def __post_init__(self):
        self.audio = np.asarray(self.audio, dtype=np.float64)
        self.visual = np.asarray(self.visual, dtype=np.float64)
        if self.audio.shape[0] != self.visual.shape[0]:
            raise DataError(f"sample counts differ: {self.audio.shape[0]} vs {self.visual.shape[0]}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.audio.shape[0],):
                raise DataError(f"label count {self.labels.shape} vs n={self.audio.shape[0]}")

    @property
    def n(self):
        return self.audio.shape[0]

    def unlabeled(self):
        return TrainView(audio=self.audio, visual=self.visual)


# ---------------------------------------------------------------------------
# binary container + CSV
# ---------------------------------------------------------------------------

def _first_non_finite(block):
    """The flat offset of the first value of ``block`` that is not finite,
    or None."""
    bad = np.flatnonzero(~np.isfinite(block).reshape(-1))
    return int(bad[0]) if bad.size else None


def check_savable(path, fs):
    """The audio and visual blocks of ``fs`` in the dtype that
    ``save_features(path, fs)`` stores: float64 for a ``.csv`` file,
    little-endian float32 for the binary container. Raises DataError for
    what ``load_features`` would refuse: a label outside 0..2^32-1, or a
    value that is not finite in that dtype, such as a finite float64 past
    float32's range, named by modality and flat offset."""
    path = str(path)
    if fs.labels is not None:
        bad = np.flatnonzero((fs.labels < 0) | (fs.labels > _LABEL_MAX))
        if bad.size:
            raise DataError(f"{path}: label {int(fs.labels[bad[0]])} of sample {bad[0]} is "
                            f"outside 0..{_LABEL_MAX}")
    dtype = np.dtype(np.float64 if path.endswith(".csv") else "<f4")
    blocks = []
    for name, values in (("audio", fs.audio), ("visual", fs.visual)):
        with np.errstate(over="ignore"):  # rounds to inf, refused next
            block = np.ascontiguousarray(values, dtype=dtype)
        bad = _first_non_finite(block)
        if bad is not None:
            raise DataError(f"{path}: {name} value {float(values.flat[bad])!r} at flat offset "
                            f"{bad} is not finite in {dtype.name}")
        blocks.append(block)
    return blocks


def save_features(path, fs):
    """Binary container: magic, u32 n/d_a/d_v, u8 has-labels, row-major
    little-endian float32 audio then visual blocks, optional u32 labels.
    Either format refuses what ``check_savable`` refuses before it opens
    the file."""
    path = str(path)
    audio, visual = check_savable(path, fs)
    if path.endswith(".csv"):
        _save_csv(path, fs)
        return
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIIB", fs.n, fs.audio.shape[1], fs.visual.shape[1],
                             1 if fs.labels is not None else 0))
        fh.write(audio.tobytes())
        fh.write(visual.tobytes())
        if fs.labels is not None:
            fh.write(np.ascontiguousarray(fs.labels, dtype="<u4").tobytes())


def load_features(path, split="train"):
    """The FeatureSet of a binary container or a ``.csv`` file (see
    ``save_features``); ``split`` is accepted and ignored."""
    path = str(path)
    if path.endswith(".csv"):
        return _load_csv(path)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < 21:
        raise DataError(f"{path}: truncated header ({len(blob)} bytes)")
    n, d_a, d_v, has_labels = struct.unpack_from("<IIIB", blob, 8)
    if has_labels not in (0, 1):
        raise DataError(f"{path}: has-labels byte is {has_labels}, expected 0 or 1")
    off = 21
    expected = off + 4 * n * (d_a + d_v) + (4 * n if has_labels else 0)
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(blob)}")
    if n == 0:
        raise DataError(f"{path}: no samples")
    audio = np.frombuffer(blob, dtype="<f4", count=n * d_a, offset=off).reshape(n, d_a)
    off += 4 * n * d_a
    visual = np.frombuffer(blob, dtype="<f4", count=n * d_v, offset=off).reshape(n, d_v)
    off += 4 * n * d_v
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=off).astype(np.int64)
    for name, block in (("audio", audio), ("visual", visual)):
        bad = _first_non_finite(block)
        if bad is not None:
            raise DataError(f"{path}: non-finite {name} value at flat offset {bad}")
    return FeatureSet(audio=audio.astype(np.float64), visual=visual.astype(np.float64), labels=labels)


def _save_csv(path, fs):
    d_a, d_v = fs.audio.shape[1], fs.visual.shape[1]
    header = [f"a{i}" for i in range(d_a)] + [f"v{i}" for i in range(d_v)]
    if fs.labels is not None:
        header.append("label")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(fs.n):
            row = [repr(float(v)) for v in fs.audio[i]] + [repr(float(v)) for v in fs.visual[i]]
            if fs.labels is not None:
                row.append(str(int(fs.labels[i])))
            fh.write(",".join(row) + "\n")


def _csv_columns(path, header):
    """(d_a, d_v, has_labels) of a header that reads exactly a0..a{d_a-1},
    then v0..v{d_v-1}, then an optional ``label``, with d_a, d_v >= 1."""
    i = 0
    while i < len(header) and header[i] == f"a{i}":
        i += 1
    d_a = i
    while d_a and i < len(header) and header[i] == f"v{i - d_a}":
        i += 1
    d_v = i - d_a
    has_labels = bool(d_v) and i < len(header) and header[i] == "label"
    i += has_labels
    if d_v == 0 or i < len(header):
        found = f"column {i + 1} is {header[i]!r}" if i < len(header) else f"header ends after {i} columns"
        raise DataError(f"{path}: {found}; expected a0, a1, ..., then v0, v1, ..., "
                        "then an optional label")
    return d_a, d_v, has_labels


def _load_csv(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    header = lines[0].strip().split(",") if lines else []
    d_a, d_v, has_labels = _csv_columns(path, header)
    rows = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        if len(parts) != len(header):
            raise DataError(f"{path}:{ln}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:  # "could not convert string to float: 'x'"
            raise DataError(f"{path}:{ln}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: non-finite payload")
    labels = None
    if has_labels:
        labels = data[:, -1]
        bad = np.flatnonzero((labels != np.floor(labels)) | (labels < 0) | (labels > _LABEL_MAX))
        if bad.size:
            raise DataError(f"{path}:{bad[0] + 2}: label {float(labels[bad[0]])!r} is not a whole "
                            f"number in 0..{_LABEL_MAX}")
        labels = labels.astype(np.int64)
    return FeatureSet(audio=data[:, :d_a], visual=data[:, d_a:d_a + d_v], labels=labels)


# ---------------------------------------------------------------------------
# synthetic paired data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    classes: int = 8
    per_class: int = 250          # training samples per class; test adds 25% overall
    d_audio: int = 12
    d_visual: int = 24
    mean_scale: float = 1.0
    noise_scale: float = 0.8
    warp: bool = True             # elementwise cubic warp on the visual view
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("SynthConfig: need at least 2 classes")
        if not (math.isfinite(self.mean_scale) and math.isfinite(self.noise_scale)
                and self.mean_scale > 0 and self.noise_scale >= 0):
            raise ValueError("SynthConfig: scales must be positive and finite (mean_scale > 0, "
                             f"noise_scale >= 0), got mean_scale={self.mean_scale}, "
                             f"noise_scale={self.noise_scale}")
        if min(self.per_class, self.d_audio, self.d_visual) < 1:
            raise ValueError("SynthConfig: per_class, d_audio and d_visual must be >= 1")
        if self.seed < 0:
            raise ValueError(f"SynthConfig: seed must be >= 0, got {self.seed}")
        values = self.classes * self.per_class * max(self.d_audio, self.d_visual, LATENT_DIM)
        if values > MAX_FLOAT64_VALUES:
            raise ValueError(f"SynthConfig: classes * per_class * max(d_audio, d_visual, {LATENT_DIM}) = {values} "
                             f"values exceed numpy's largest float64 array ({MAX_FLOAT64_VALUES})")


def generate_synthetic(config):
    """Paired features whose class structure lives in a shared latent space.

    Per class a ``LATENT_DIM``-dimensional latent center is drawn and
    pushed through fixed random linear maps into each modality, so
    audio/visual class structure is genuinely correlated; samples add
    isotropic per-modality noise. The optional cubic warp distorts the
    visual view so a purely linear alignment is suboptimal.
    Deterministic per seed. The split keeps an exact 80/20 train/test ratio,
    stratified by class (test counts may differ by one across classes)."""
    rng = np.random.default_rng(config.seed)
    c, ld = config.classes, LATENT_DIM
    centers = rng.normal(0.0, config.mean_scale, (c, ld))
    map_a = rng.normal(0.0, 1.0, (ld, config.d_audio)) / np.sqrt(ld)
    map_v = rng.normal(0.0, 1.0, (ld, config.d_visual)) / np.sqrt(ld)

    n_test_total = round(config.classes * config.per_class * 0.25)
    base, extra = divmod(n_test_total, c)
    test_counts = [base + (1 if j < extra else 0) for j in range(c)]

    def draw(count, cls):
        mu_a = centers[cls] @ map_a
        mu_v = centers[cls] @ map_v
        xa = mu_a + rng.normal(0.0, config.noise_scale, (count, config.d_audio))
        xv = mu_v + rng.normal(0.0, config.noise_scale, (count, config.d_visual))
        if config.warp:
            xv = xv ** 3
        return xa, xv

    def build(counts):
        parts_a, parts_v, parts_y = [], [], []
        for cls, count in enumerate(counts):
            xa, xv = draw(count, cls)
            parts_a.append(xa)
            parts_v.append(xv)
            parts_y.append(np.full(count, cls, dtype=np.int64))
        return FeatureSet(audio=np.vstack(parts_a), visual=np.vstack(parts_v),
                          labels=np.concatenate(parts_y))

    train = build([config.per_class] * c)
    test = build(test_counts)
    return train, test


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batches(n, batch_size, seed):
    """Epoch-seeded shuffle cut into full batches; the incomplete tail is
    dropped (batch statistics and covariance estimates need full batches)."""
    if batch_size < 2:
        raise ValueError("batches: batch_size must be >= 2")
    order = np.random.default_rng(seed).permutation(n)
    return [order[start:start + batch_size] for start in range(0, n - batch_size + 1, batch_size)]
