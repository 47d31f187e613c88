"""The dual-path network: two modality encoders, single-token cross-modal
fusion, linear projectors into the retrieval space, and per-modality decoders.

Each sample is one token in the fusion block. Attention over a length-1 key
sequence gives that key weight 1, so query/key projections cannot change the
output and the block keeps only a value-output mixer with residual connection
and layer norm: layernorm(h + h_other·Wv·Wo).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc


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
    array, as ``state_entries`` or a checkpoint holds them) each parameter
    and buffer copies its entry instead of its seeded init; extra names are
    ignored, and a missing name or a differing shape raises CheckpointError.
    Every entry is checked before the arena is allocated, and each value is
    written into the arena once.
    """

    def __init__(self, config, seed=0, entries=None):
        self.config = config
        self.buffers = {}
        self.zero_row_warnings = 0
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
            self.buffers[name] = np.array(init(shape) if entries is None else entries[name])

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
            p.value[...] = init(p.value.shape) if entries is None else entries[p.name]

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


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

# Each pass takes its parameter tensors in the dtype of its input tensors:
# float64 values, or in float32 the arena's mirror, which holds what the last
# ``arena.prepare_step()`` copied (``train_step`` calls it once per step).

def encode(mp, xa, xv, train, rng=None):
    """Per-modality MLP pipeline: linear -> norm -> tanh -> dropout."""
    cfg = mp.config
    if train and xa.shape[0] < 2:
        raise dc.ShapeError("encode: train mode needs a batch of at least 2 samples")
    if xa.shape[1] != cfg.d_audio or xv.shape[1] != cfg.d_visual:
        raise dc.ShapeError(f"encode: inputs {xa.shape}/{xv.shape} vs dims "
                            f"{cfg.d_audio}/{cfg.d_visual}")

    def run(mod, widths, h):
        dtype = h.value.dtype
        for i in range(len(widths) - 1):
            h = dc.linear(h, mp.t(f"enc.{mod}.{i}.w", dtype), mp.t(f"enc.{mod}.{i}.b", dtype))
            if i == 0:
                h = dc.batch_norm(h, mp.t(f"enc.{mod}.{i}.bn.gamma", dtype),
                                  mp.t(f"enc.{mod}.{i}.bn.beta", dtype),
                                  mp.buffers[f"enc.{mod}.{i}.bn.mean"],
                                  mp.buffers[f"enc.{mod}.{i}.bn.var"],
                                  train, update_stats=train)
            else:
                h = dc.layer_norm(h, mp.t(f"enc.{mod}.{i}.ln.gamma", dtype),
                                  mp.t(f"enc.{mod}.{i}.ln.beta", dtype))
            h = dc.tanh(h)
            h = dc.dropout(h, cfg.dropout, train, rng)
        return h

    return run("a", cfg.audio_widths, xa), run("v", cfg.visual_widths, xv)


def fuse(mp, ha, hv):
    """One-token cross-modal fusion, per direction layernorm(h + h_other·Wv·Wo).

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
        return dc.layer_norm(dc.add(hq, attended), mp.t(f"fuse.{direction}.ln.gamma", dtype),
                             mp.t(f"fuse.{direction}.ln.beta", dtype))

    return one("a2v", ha, hv), one("v2a", hv, ha)


def project(mp, ua, uv):
    """Linear projection to the retrieval space, rows L2-normalized.

    Rows whose pre-normalization norm is below 1e-12 stay zero and bump
    ``mp.zero_row_warnings``.
    """
    out = []
    for mod, u in (("a", ua), ("v", uv)):
        dtype = u.value.dtype
        z = dc.linear(u, mp.t(f"proj.{mod}.w", dtype), mp.t(f"proj.{mod}.b", dtype))
        mp.zero_row_warnings += int((np.linalg.norm(z.value, axis=1) < 1e-12).sum())
        out.append(dc.l2_normalize_rows(z))
    return tuple(out)


def decode(mp, ua, uv):
    """Mirror-image 3-layer MLP per modality; tanh hidden, linear output."""
    def run(mod, h):
        dtype = h.value.dtype
        for i in range(3):
            h = dc.linear(h, mp.t(f"dec.{mod}.{i}.w", dtype), mp.t(f"dec.{mod}.{i}.b", dtype))
            if i < 2:
                h = dc.tanh(h)
        return h

    return run("a", ua), run("v", uv)


def forward_embed(mp, xa, xv, train, rng=None):
    """encode -> fuse -> project; returns (z_a, z_v, u_a, u_v) tape nodes."""
    ha, hv = encode(mp, xa, xv, train, rng)
    ua, uv = fuse(mp, ha, hv)
    za, zv = project(mp, ua, uv)
    return za, zv, ua, uv


def embed_arrays(mp, audio, visual):
    """Clean eval-mode float64 embeddings as plain arrays, whatever the
    inputs' dtype; records no tape."""
    audio, visual = (np.asarray(x, dtype=np.float64) for x in (audio, visual))
    with dc.no_tape():
        za, zv, _, _ = forward_embed(mp, dc.const(audio), dc.const(visual), train=False)
    return za.value, zv.value


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


def load_entries(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    entries = {}
    off = 8
    while off < len(blob):
        if off + 4 > len(blob):
            raise CheckpointError(f"{path}: truncated record header at offset {off}")
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        if off + nlen + 8 > len(blob):
            raise CheckpointError(f"{path}: truncated record at offset {off}")
        try:
            name = blob[off:off + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name at offset {off} is not UTF-8") from None
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        off += nlen
        rows, cols = struct.unpack_from("<II", blob, off)
        off += 8
        nbytes = rows * cols * 8
        if off + nbytes > len(blob):
            raise CheckpointError(f"{path}: entry {name!r} expects {nbytes} bytes, "
                                  f"{len(blob) - off} available")
        entries[name] = np.frombuffer(blob, dtype="<f8", count=rows * cols,
                                      offset=off).reshape(rows, cols).copy()
        off += nbytes
    return entries


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
