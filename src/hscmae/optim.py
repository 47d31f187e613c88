"""AdamW with decoupled weight decay (Loshchilov and Hutter, arXiv:1711.05101)
and Kingma and Ba's betas and eps as constants (arXiv:1412.6980), global-norm
gradient clipping, and a cosine-annealing learning-rate schedule (per-epoch,
from lr0 towards 0, restarting every T_max epochs)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import NumericError


# Safe for float32 moments: BETA2 rounds to a float32 below 1, and EPS is above
# the least normal float32, so no Adam denominator is 0.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# The largest clip_norm: a clipped gradient entry is at most clip_norm, so
# its square, and every second moment, stays finite in float32.
MAX_CLIP_NORM = 1e18


@dataclass(frozen=True)
class OptimConfig:
    """The optimizer's settings; Adam's betas and eps are the constants above."""

    lr0: float = 3e-4
    weight_decay: float = 1e-4
    clip_norm: float = 1.0
    cosine_t_max: int = 50

    def __post_init__(self):
        for name in ("lr0", "weight_decay", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"OptimConfig: {name} must be finite, got {getattr(self, name)}")
        if self.lr0 <= 0:
            raise ValueError("OptimConfig: lr0 must be positive")
        if self.weight_decay < 0:
            raise ValueError(f"OptimConfig: weight_decay must be >= 0, got {self.weight_decay}")
        if not 0 < self.clip_norm <= MAX_CLIP_NORM:
            raise ValueError(f"OptimConfig: clip_norm must be in (0, {MAX_CLIP_NORM:g}], "
                             f"got {self.clip_norm}")
        if self.cosine_t_max < 1:
            raise ValueError(f"OptimConfig: cosine_t_max must be >= 1, got {self.cosine_t_max}")


def clip_global_norm(arena, max_norm):
    """Scale all gradients of a ``ParamArena`` so the global L2 norm is at
    most ``max_norm``.

    Every parameter counts in the norm, the decay-exempt ``sigma.*``
    log-variance leaves of the loss weighting among them, and every gradient,
    theirs too, is scaled by the same factor. The squared norm is one sum per
    parameter, added in parameter order on the calling thread; only the
    scaling walks the arena over its workers. Returns the pre-clip norm. A
    non-finite norm aborts the step before any gradient is scaled; the
    message names the first parameter whose own sum is not finite, if one
    is."""
    if max_norm <= 0:
        raise ValueError("clip_global_norm: max_norm must be positive")
    total = 0.0
    for p in arena.params:
        sq = np.multiply(p.grad, p.grad, out=arena.scratch[:p.grad.size].reshape(p.grad.shape))
        part = float(np.sum(sq))
        if not math.isfinite(part):
            raise NumericError(f"clip_global_norm: non-finite gradient norm in {p.name!r}")
        total += part
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericError("clip_global_norm: non-finite gradient norm")
    if norm > max_norm:
        factor = max_norm / norm

        def block(start, stop, scratch):
            arena.grad[start:stop] *= factor

        arena.walk(block)
    return norm


def adamw_step(arena, config, step_index, lr_t):
    """One decoupled-decay Adam step with bias-corrected moments over a
    ``ParamArena``, with ``BETA1``, ``BETA2`` and ``EPS``; ``config`` gives
    the weight decay.

    Decay is applied first, as theta <- theta * (1 - lr_t * wd); parameters
    flagged ``decay=False`` (the log-variance weights, the arena's tail) are
    exempt. The moments are float32: each clipped gradient block is rounded
    to float32, m and v are updated from it in float32, and the float32 step
    (m / (sqrt(v) / sqrt(c2) + eps)) * (lr_t / c1), the bias corrections
    folded into the two scalars, is subtracted from the float64 values.
    ``arena.walk`` spreads the cache-sized blocks over the workers, each
    block running the whole update through float32 views of its scratch;
    every operation is elementwise, so neither the blocking nor the worker
    count can change a bit."""
    if step_index < 1:
        raise ValueError("adamw_step: step_index starts at 1")
    # Python floats, so that each enters the float32 ufuncs as a float32
    inv_sqrt_c2 = 1.0 / math.sqrt(1.0 - BETA2 ** step_index)
    lr_c1 = float(lr_t) / (1.0 - BETA1 ** step_index)
    decay_end = arena.decay_end if config.weight_decay else 0
    keep = 1.0 - lr_t * config.weight_decay

    def block(start, stop, scratch):
        n = stop - start
        val = arena.value[start:stop]
        m, v = arena.adam_m[start:stop], arena.adam_v[start:stop]
        f32 = scratch.view(np.float32)  # its 2n float64 hold the three float32 blocks
        g, s, d = f32[:n], f32[n:2 * n], f32[2 * n:3 * n]
        k = min(stop, decay_end) - start
        if k > 0:
            val[:k] *= keep
        np.copyto(g, arena.grad[start:stop], casting="same_kind")
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=s)
        m += s
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=s)
        s *= g
        v += s
        np.sqrt(v, out=d)
        d *= inv_sqrt_c2
        d += EPS
        np.divide(m, d, out=s)
        s *= lr_c1
        val -= s

    arena.walk(block)


def cosine_lr(epoch, config):
    """Cosine annealing over epochs from lr0 towards 0, restarting every T_max."""
    if epoch < 1:
        raise ValueError("cosine_lr: epoch starts at 1")
    tmax = config.cosine_t_max
    t = (epoch - 1) % tmax
    return config.lr0 * (1.0 + math.cos(math.pi * t / tmax)) / 2.0
