"""AdamW with decoupled weight decay, global-norm gradient clipping, and a
cosine-annealing learning-rate schedule (per-epoch, from lr0 towards 0,
restarting every T_max epochs)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import NumericError


@dataclass(frozen=True)
class OptimConfig:
    lr0: float = 3e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    cosine_t_max: int = 50

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ValueError("OptimConfig: lr0 must be positive")
        if self.weight_decay < 0:
            raise ValueError(f"OptimConfig: weight_decay must be >= 0, got {self.weight_decay}")
        if self.clip_norm <= 0:
            raise ValueError("OptimConfig: clip_norm must be positive")
        if self.cosine_t_max < 1:
            raise ValueError(f"OptimConfig: cosine_t_max must be >= 1, got {self.cosine_t_max}")


def clip_global_norm(arena, max_norm):
    """Scale all gradients of a ``ParamArena`` so the global L2 norm is at
    most ``max_norm``.

    The squared norm is one sum per parameter, added in parameter order on
    the calling thread; only the scaling walks the arena over its workers.
    Returns the pre-clip norm. A non-finite norm aborts the step before any
    gradient is scaled."""
    if max_norm <= 0:
        raise ValueError("clip_global_norm: max_norm must be positive")
    total = 0.0
    for p in arena.params:
        sq = np.multiply(p.grad, p.grad, out=arena.scratch[:p.grad.size].reshape(p.grad.shape))
        total += float(np.sum(sq))
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
    ``ParamArena``.

    Decay is applied as theta <- theta - lr_t * wd * theta before the Adam
    delta; parameters flagged ``decay=False`` (the log-variance weights, the
    arena's tail) are exempt. ``arena.walk`` spreads the cache-sized blocks
    over the workers, each block running the whole update through two
    scratch blocks; every operation is elementwise, so neither the blocking
    nor the worker count can change a bit."""
    if step_index < 1:
        raise ValueError("adamw_step: step_index starts at 1")
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** step_index
    c2 = 1.0 - b2 ** step_index
    decay_end = arena.decay_end if config.weight_decay else 0
    lr_wd = lr_t * config.weight_decay

    def block(start, stop, scratch):
        n = stop - start
        val, g = arena.value[start:stop], arena.grad[start:stop]
        m, v = arena.adam_m[start:stop], arena.adam_v[start:stop]
        s1, s2 = scratch[:n], scratch[n:2 * n]
        k = min(stop, decay_end) - start
        if k > 0:
            np.multiply(lr_wd, val[:k], out=s1[:k])
            val[:k] -= s1[:k]
        m *= b1
        np.multiply(1.0 - b1, g, out=s1)
        m += s1
        v *= b2
        np.multiply(1.0 - b2, g, out=s1)
        s1 *= g
        v += s1
        np.divide(v, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += config.eps
        np.divide(m, c1, out=s1)
        np.multiply(lr_t, s1, out=s1)
        s1 /= s2
        val -= s1

    arena.walk(block)


def cosine_lr(epoch, config):
    """Cosine annealing over epochs from lr0 towards 0, restarting every T_max."""
    if epoch < 1:
        raise ValueError("cosine_lr: epoch starts at 1")
    tmax = config.cosine_t_max
    t = (epoch - 1) % tmax
    return config.lr0 * (1.0 + math.cos(math.pi * t / tmax)) / 2.0
