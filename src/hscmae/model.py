"""The dual-path network: two modality encoders, single-token cross-modal
fusion, linear projectors into the retrieval space, and per-modality decoders.

Each sample is one token in the fusion block. Attention over a length-1 key
sequence gives that key weight 1, so query/key projections cannot change the
output and the block keeps only a value-output mixer with residual connection
and layer norm: layernorm(h + h_other·Wv·Wo).

Each encoder layer, decoder hidden layer and fusion residual is one
``diffcore`` node (``encoder_layer``, ``linear_tanh``, ``add_layer_norm``),
so a taped pass keeps per layer only what its backward reads.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .data_io import MAX_FLOAT64_VALUES


@dataclass(frozen=True)
class ModelConfig:
    audio_widths: tuple = (128, 1024, 1024, 1024)
    visual_widths: tuple = (1024, 1024, 1024, 1024)
    heads: int = 64
    proj_dim: int = 32
    dropout: float = 0.2

    def __post_init__(self):
        if len(self.audio_widths) < 2 or len(self.visual_widths) < 2:
            raise ValueError("encoder widths must contain at least one layer")
        if min(*self.audio_widths, *self.visual_widths) < 1:
            raise ValueError(f"encoder widths must be >= 1, got {self.audio_widths}/{self.visual_widths}")
        if self.audio_widths[-1] != self.visual_widths[-1]:
            raise ValueError("encoder output widths must match for fusion")
        if self.heads < 1:
            raise ValueError(f"heads must be >= 1, got {self.heads}")
        if self.audio_widths[-1] % self.heads:
            raise ValueError(f"model dim {self.audio_widths[-1]} not divisible by {self.heads} heads")
        if self.proj_dim < 1:
            raise ValueError("proj_dim must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.param_count() > MAX_FLOAT64_VALUES:
            raise ValueError(f"the model's {self.param_count()} parameters exceed numpy's largest "
                             f"float64 array ({MAX_FLOAT64_VALUES} values)")

    def param_count(self):
        """The number of parameter values in ``ModelParams``'s arena."""
        m, p = self.model_dim, self.proj_dim
        encoders = sum(a * b + 3 * b for w in (self.audio_widths, self.visual_widths)
                       for a, b in zip(w, w[1:]))
        decoders = sum(2 * (m * m + m) + m * d + d for d in (self.d_audio, self.d_visual))
        return encoders + 2 * (2 * m * m + 2 * m) + 2 * (m * p + p) + decoders + len(LOSS_NAMES)

    @property
    def model_dim(self):
        return self.audio_widths[-1]

    @property
    def d_audio(self):
        return self.audio_widths[0]

    @property
    def d_visual(self):
        return self.visual_widths[0]


LOSS_NAMES = ("rec", "cca", "infonce", "dis")


class ModelParams:
    """All learnable weights plus batch-norm running statistics.

    ``params`` maps name -> Parameter, ``buffers`` maps name -> ndarray
    (running mean/var of the first-layer batch norms). Insertion order is
    fixed by construction and reused for checkpoints and optimizer walks.
    The parameters live in ``arena``, a ``dc.ParamArena`` in that order; the
    decay-exempt ``sigma.*`` weights come last. With ``entries`` (name ->
    array, as ``state_entries`` or ``load_entries`` give them, or name ->
    ``StoredEntry``, as ``read_index`` gives them) each parameter and buffer
    copies its entry instead of its seeded init; extra names are ignored
    (and a stored one is never read), and a missing name or a differing
    shape raises CheckpointError. Every entry is checked before the arena is
    allocated, and each value is written into the arena once: a stored
    entry is read from its file straight into its arena slice. A forward
    pass writes nothing here but a training pass's running statistics: no
    per-pass count or flag is kept.
    """

    def __init__(self, config, seed=0, entries=None):
        self.config = config
        self.buffers = {}
        rng = np.random.default_rng(seed)
        layout, inits = [], []

        def check(name, shape):
            if name not in entries:
                raise CheckpointError(f"missing entry {name!r}")
            if entries[name].shape != shape:
                raise CheckpointError(f"entry {name!r} has shape {entries[name].shape}, "
                                      f"the model expects {shape}")

        def param(name, shape, init, decay=True):
            if entries is not None:
                check(name, shape)
            layout.append((name, shape, decay))
            inits.append(init)

        def buffer(name, shape, init):
            if entries is not None:
                check(name, shape)
            self.buffers[name] = init(shape) if entries is None else _copy(entries[name], np.empty(shape))

        def glorot(skip=0):
            # draws only when the arena is filled; a model built from
            # checkpoint entries draws nothing
            def draw(shape):
                if skip:
                    rng.bit_generator.advance(skip)
                lim = np.sqrt(6.0 / (shape[0] + shape[1]))
                return rng.uniform(-lim, lim, shape)
            return draw

        def linear(name, fan_in, fan_out):
            param(f"{name}.w", (fan_in, fan_out), glorot())
            param(f"{name}.b", (1, fan_out), np.zeros)

        def norm(name, d):
            param(f"{name}.gamma", (1, d), np.ones)
            param(f"{name}.beta", (1, d), np.zeros)

        for mod, widths in (("a", config.audio_widths), ("v", config.visual_widths)):
            for i in range(len(widths) - 1):
                linear(f"enc.{mod}.{i}", widths[i], widths[i + 1])
                if i == 0:
                    bn, shape = f"enc.{mod}.{i}.bn", (1, widths[i + 1])
                    norm(bn, widths[i + 1])
                    buffer(f"{bn}.mean", shape, np.zeros)
                    buffer(f"{bn}.var", shape, np.ones)
                else:
                    norm(f"enc.{mod}.{i}.ln", widths[i + 1])

        m = config.model_dim
        for direction in ("a2v", "v2a"):
            # skip the draws of the former Q/K weights so every other weight keeps its init
            param(f"fuse.{direction}.wv", (m, m), glorot(skip=2 * m * m))
            param(f"fuse.{direction}.wo", (m, m), glorot())
            norm(f"fuse.{direction}.ln", m)

        for mod in ("a", "v"):
            linear(f"proj.{mod}", m, config.proj_dim)

        for mod, d_out in (("a", config.d_audio), ("v", config.d_visual)):
            dec_widths = (m, m, m, d_out)
            for i in range(3):
                linear(f"dec.{mod}.{i}", dec_widths[i], dec_widths[i + 1])

        for name in LOSS_NAMES:
            param(f"sigma.{name}", (1, 1), np.zeros, decay=False)

        # the init draws run here, in layout order, each written into its view once
        self.arena = dc.ParamArena(layout)
        self.params = {p.name: p for p in self.arena.params}
        for p, init in zip(self.arena.params, inits):
            if entries is None:
                p.value[...] = init(p.value.shape)
            else:
                _copy(entries[p.name], p.value)

    # -- access helpers ----------------------------------------------------

    def t(self, name, dtype=np.float64):
        return self.params[name].tensor(dtype)

    def sigma(self, loss_name):
        return self.params[f"sigma.{loss_name}"]

    def parameters(self):
        return list(self.params.values())

    def copy(self):
        return ModelParams(self.config, entries=self.state_entries())

    def state_entries(self):
        """Name -> the live array of every parameter value and buffer."""
        entries = {name: p.value for name, p in self.params.items()}
        entries.update(self.buffers)
        return entries


def _copy(entry, out):
    """Write a checkpoint entry, an array or a ``StoredEntry``, into ``out``."""
    if isinstance(entry, StoredEntry):
        return entry.read(out)
    out[...] = entry
    return out


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

# Each pass takes its parameter tensors in the dtype of its input tensors:
# float64 values, or in float32 the arena's mirror: for the student, what the
# last ``arena.prepare_step()`` copied (``train_step`` calls it once per
# step); for the EMA teacher, what ``ema_update`` last rounded.

def encode(mp, xa, xv, train, rng=None):
    """Per-modality MLP pipeline: linear -> norm -> tanh -> dropout, one
    ``dc.encoder_layer`` node per layer. The first layer's norm is batch
    norm over the sample axis, whose running statistics train mode updates;
    the others are layer norms."""
    cfg = mp.config
    if train and xa.shape[0] < 2:
        raise dc.ShapeError("encode: train mode needs a batch of at least 2 samples")
    if xa.shape[1] != cfg.d_audio or xv.shape[1] != cfg.d_visual:
        raise dc.ShapeError(f"encode: inputs {xa.shape}/{xv.shape} vs dims "
                            f"{cfg.d_audio}/{cfg.d_visual}")

    def run(mod, widths, h):
        dtype = h.value.dtype
        for i in range(len(widths) - 1):
            layer = f"enc.{mod}.{i}"
            norm, stats = f"{layer}.ln", None
            if i == 0:
                norm = f"{layer}.bn"
                stats = (mp.buffers[f"{norm}.mean"], mp.buffers[f"{norm}.var"])
            h = dc.encoder_layer(h, mp.t(f"{layer}.w", dtype), mp.t(f"{layer}.b", dtype),
                                 mp.t(f"{norm}.gamma", dtype), mp.t(f"{norm}.beta", dtype),
                                 stats, train, cfg.dropout, rng)
        return h

    return run("a", cfg.audio_widths, xa), run("v", cfg.visual_widths, xv)


def fuse(mp, ha, hv):
    """One-token cross-modal fusion, per direction layernorm(h + h_other·Wv·Wo):
    two ``dc.matmul`` nodes, then one ``dc.add_layer_norm`` node.

    This is cross-attention with one key per query: the softmax weight is
    identically 1, so query/key projections would have no effect and are not
    kept, and the concatenated per-head value slices equal the full value
    projection.
    """
    if ha.shape != hv.shape or ha.shape[1] != mp.config.model_dim:
        raise dc.ShapeError(f"fuse: {ha.shape} vs {hv.shape}, model dim {mp.config.model_dim}")

    dtype = ha.value.dtype

    def one(direction, hq, hkv):
        attended = dc.matmul(dc.matmul(hkv, mp.t(f"fuse.{direction}.wv", dtype)),
                             mp.t(f"fuse.{direction}.wo", dtype))
        return dc.add_layer_norm(hq, attended, mp.t(f"fuse.{direction}.ln.gamma", dtype),
                                 mp.t(f"fuse.{direction}.ln.beta", dtype))

    return one("a2v", ha, hv), one("v2a", hv, ha)


def project(mp, ua, uv):
    """Linear projection to the retrieval space, rows L2-normalized.

    A row whose pre-normalization norm is below ``dc.ZERO_ROW_NORM`` comes
    out as an exact zero row; a caller that wants to know how many did counts
    the all-zero rows of the embeddings it holds.
    """
    out = []
    for mod, u in (("a", ua), ("v", uv)):
        dtype = u.value.dtype
        out.append(dc.l2_normalize_rows(dc.linear(u, mp.t(f"proj.{mod}.w", dtype),
                                                  mp.t(f"proj.{mod}.b", dtype))))
    return tuple(out)


def decode(mp, ua, uv):
    """Mirror-image 3-layer MLP per modality: two ``dc.linear_tanh`` hidden
    layers, then a linear output."""
    def run(mod, h):
        dtype = h.value.dtype
        for i in range(3):
            layer = dc.linear_tanh if i < 2 else dc.linear
            h = layer(h, mp.t(f"dec.{mod}.{i}.w", dtype), mp.t(f"dec.{mod}.{i}.b", dtype))
        return h

    return run("a", ua), run("v", uv)


def forward_embed(mp, xa, xv, train, rng=None):
    """encode -> fuse -> project; returns (z_a, z_v, u_a, u_v) tape nodes."""
    ha, hv = encode(mp, xa, xv, train, rng)
    ua, uv = fuse(mp, ha, hv)
    za, zv = project(mp, ua, uv)
    return za, zv, ua, uv


# values per activation of ``embed_arrays``'s widest layer in one row block:
# 4 MiB of float64, so that a block's activations stay near the cache
EMBED_BLOCK_VALUES = 1 << 19
# A block's rows must get the bits of one pass over all rows, and OpenBLAS
# (0.3.31, x86-64) gives a row other bits when its place in the kernel's row
# tiles moves, or when a product of at most 100**3 multiply-adds goes to its
# small-matrix kernels instead. So every block but the last holds a multiple
# of EMBED_ROW_ALIGN rows, and every block enough rows that each of its
# products stays above SMALL_PRODUCT.
EMBED_ROW_ALIGN = 8
SMALL_PRODUCT = 100 ** 3


def _row_blocks(cfg, n):
    """Row bounds of ``embed_arrays``'s blocks: as many balanced blocks as
    the cache rule asks for, and no more than the small-product rule allows."""
    widest = max(*cfg.audio_widths, *cfg.visual_widths, cfg.proj_dim)
    layers = [a * b for w in (cfg.audio_widths, cfg.visual_widths) for a, b in zip(w, w[1:])]
    layers += [cfg.model_dim * cfg.model_dim, cfg.model_dim * cfg.proj_dim]
    cache_units = max(1, EMBED_BLOCK_VALUES // widest // EMBED_ROW_ALIGN)
    safe_units = -(-(SMALL_PRODUCT // min(layers) + 1) // EMBED_ROW_ALIGN)
    units = -(-n // EMBED_ROW_ALIGN)
    blocks = max(1, min(-(-units // cache_units), units // safe_units))
    return [min(n, EMBED_ROW_ALIGN * (k * units // blocks)) for k in range(blocks + 1)]


def embed_arrays(mp, audio, visual):
    """Clean eval-mode float64 embeddings as plain arrays, whatever the
    inputs' dtype; records no tape. Evaluation and the end-of-training CCA
    fit use it; the training step's teacher pass runs in float32 instead.

    The rows run in balanced blocks of at most ``EMBED_BLOCK_VALUES //``
    (the widest layer) rows, 512 at a 1024-wide trunk, each written into
    preallocated outputs. Every layer is row-wise in eval mode, and the
    blocks are cut so that BLAS gives each row the bits of one pass over all
    rows (see ``EMBED_ROW_ALIGN``); a model whose smallest layer product is
    tiny therefore takes fewer, larger blocks. Every input takes this path;
    one that fits one block (every desk model, a 400-row batch at paper
    widths) runs as one block over all its rows. Audio and visual inputs
    with different row counts raise ShapeError before any compute."""
    audio, visual = (np.asarray(x, dtype=np.float64) for x in (audio, visual))
    n, m = audio.shape[0], mp.config.model_dim
    if visual.shape[0] != n:  # the text fuse gives the mismatch
        raise dc.ShapeError(f"fuse: {(n, m)} vs {(visual.shape[0], m)}, model dim {m}")
    bounds = _row_blocks(mp.config, n)
    za, zv = np.empty((n, mp.config.proj_dim)), np.empty((n, mp.config.proj_dim))
    with dc.no_tape():
        for lo, hi in zip(bounds, bounds[1:]):
            ba, bv, _, _ = forward_embed(mp, dc.const(audio[lo:hi]), dc.const(visual[lo:hi]),
                                         train=False)
            za[lo:hi], zv[lo:hi] = ba.value, bv.value
    return za, zv


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"HSCMAE01"


class CheckpointError(Exception):
    pass


def save_entries(path, entries):
    """Versioned binary container: magic, then per-matrix records
    (u32 name length, UTF-8 name, u32 rows, u32 cols, little-endian f64)."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in entries.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            if arr.ndim != 2:
                raise CheckpointError(f"entry {name!r} is not a matrix")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
            fh.write(arr.tobytes())


class StoredEntry:
    """One entry of an open checkpoint container, located by its header and
    not yet read."""

    __slots__ = ("fh", "path", "name", "shape", "offset")

    def __init__(self, fh, path, name, shape, offset):
        self.fh, self.path, self.name, self.shape, self.offset = fh, path, name, shape, offset

    def read(self, out=None):
        """The entry's values as float64, read straight into ``out`` (a
        C-contiguous float64 array of the entry's shape) or a new array."""
        if out is None:
            out = np.empty(self.shape)
        self.fh.seek(self.offset)
        if self.fh.readinto(out) != out.nbytes:
            raise OSError(f"{self.path}: entry {self.name!r} ended early: "
                          "the file changed while it was read")
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        return out


def read_index(fh, path):
    """Name -> ``StoredEntry`` of every entry of the checkpoint open as
    ``fh``, in file order, from the record headers alone: no value is read.
    A bad magic, a truncated record, a name that is not UTF-8 or that
    repeats, and values running past the end of the file raise
    CheckpointError naming ``path``."""
    size = os.fstat(fh.fileno()).st_size
    magic = fh.read(8)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    entries = {}
    off = 8
    while off < size:
        if off + 4 > size:
            raise CheckpointError(f"{path}: truncated record header at offset {off}")
        fh.seek(off)
        (nlen,) = struct.unpack("<I", fh.read(4))
        off += 4
        if off + nlen + 8 > size:
            raise CheckpointError(f"{path}: truncated record at offset {off}")
        try:
            name = fh.read(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name at offset {off} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        off += nlen
        rows, cols = struct.unpack("<II", fh.read(8))
        off += 8
        nbytes = rows * cols * 8
        if off + nbytes > size:
            raise CheckpointError(f"{path}: entry {name!r} expects {nbytes} bytes, "
                                  f"{size - off} available")
        entries[name] = StoredEntry(fh, path, name, (rows, cols), off)
        off += nbytes
    return entries


def load_entries(path):
    """Name -> float64 array of every entry of a checkpoint, in file order.
    The headers are indexed first (``read_index``, which raises
    CheckpointError for any malformed container), then each entry is read
    straight into its own array."""
    with open(path, "rb") as fh:
        return {name: entry.read() for name, entry in read_index(fh, path).items()}


def config_entries(config):
    return {
        "config/audio_widths": np.array([config.audio_widths], dtype=np.float64),
        "config/visual_widths": np.array([config.visual_widths], dtype=np.float64),
        "config/heads": np.array([[config.heads]], dtype=np.float64),
        "config/proj_dim": np.array([[config.proj_dim]], dtype=np.float64),
        "config/dropout": np.array([[config.dropout]], dtype=np.float64),
    }


def config_from_entries(entries):
    return ModelConfig(
        audio_widths=tuple(int(w) for w in entries["config/audio_widths"][0]),
        visual_widths=tuple(int(w) for w in entries["config/visual_widths"][0]),
        heads=int(entries["config/heads"][0, 0]),
        proj_dim=int(entries["config/proj_dim"][0, 0]),
        dropout=float(entries["config/dropout"][0, 0]),
    )
