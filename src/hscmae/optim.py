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
        if self.clip_norm <= 0:
            raise ValueError("OptimConfig: clip_norm must be positive")
        if self.cosine_t_max < 1:
            raise ValueError(f"OptimConfig: cosine_t_max must be >= 1, got {self.cosine_t_max}")


def clip_global_norm(params, max_norm):
    """Scale all gradients so the global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. A non-finite norm aborts the step."""
    if max_norm <= 0:
        raise ValueError("clip_global_norm: max_norm must be positive")
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NumericError("clip_global_norm: non-finite gradient norm")
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            p.grad *= factor
    return norm


def adamw_step(params, config, step_index, lr_t):
    """One decoupled-decay Adam step with bias-corrected moments.

    Decay is applied as theta <- theta - lr_t * wd * theta before the Adam
    delta; parameters flagged ``decay=False`` (the log-variance weights) are
    exempt."""
    if step_index < 1:
        raise ValueError("adamw_step: step_index starts at 1")
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** step_index
    c2 = 1.0 - b2 ** step_index
    for p in params:
        if p.decay and config.weight_decay:
            p.value -= lr_t * config.weight_decay * p.value
        p.adam_m *= b1
        p.adam_m += (1.0 - b1) * p.grad
        p.adam_v *= b2
        p.adam_v += (1.0 - b2) * p.grad * p.grad
        p.value -= lr_t * (p.adam_m / c1) / (np.sqrt(p.adam_v / c2) + config.eps)


def cosine_lr(epoch, config):
    """Cosine annealing over epochs from lr0 towards 0, restarting every T_max."""
    if epoch < 1:
        raise ValueError("cosine_lr: epoch starts at 1")
    tmax = config.cosine_t_max
    t = (epoch - 1) % tmax
    return config.lr0 * (1.0 + math.cos(math.pi * t / tmax)) / 2.0
