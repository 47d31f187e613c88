"""Sample-level value masking for the reconstruction path, and the gradient
gate of a plan.

A plan fixes, per sample and per modality, exactly floor(ratio * d) feature
dimensions chosen uniformly without replacement. The gradient gate is the
complement indicator of the value mask. Training does not use it: the clean
pass runs on constant inputs, where a gate could change no output. It is kept
for the gradient checks of acceptance criterion 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaskPlan:
    d_audio: int
    d_visual: int
    audio_idx: np.ndarray   # n x floor(ratio * d_audio), int
    visual_idx: np.ndarray  # n x floor(ratio * d_visual), int


def make_plan(n, d_audio, d_visual, ratio, seed):
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"mask ratio {ratio} outside [0, 1)")
    rng = np.random.default_rng(seed)

    def pick(d):
        k = int(np.floor(ratio * d))
        # argsort of uniform noise = uniform sample without replacement
        return np.argsort(rng.random((n, d)), axis=1)[:, :k]

    return MaskPlan(d_audio=d_audio, d_visual=d_visual,
                    audio_idx=pick(d_audio), visual_idx=pick(d_visual))


def _indicator(idx, n, d):
    ind = np.zeros((n, d))
    if idx.shape[1]:
        np.put_along_axis(ind, idx, 1.0, axis=1)
    return ind


def mask_indicator(plan, modality):
    """0/1 matrix with 1 at masked positions."""
    n = plan.audio_idx.shape[0]
    if modality == "audio":
        return _indicator(plan.audio_idx, n, plan.d_audio)
    if modality == "visual":
        return _indicator(plan.visual_idx, n, plan.d_visual)
    raise ValueError(f"unknown modality {modality!r}")


def apply_value_mask(x, plan, modality):
    """Zero the planned positions of ``x``; all others bit-identical. A
    float32 ``x`` stays float32; anything else becomes float64."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    if modality == "audio":
        d, idx = plan.d_audio, plan.audio_idx
    elif modality == "visual":
        d, idx = plan.d_visual, plan.visual_idx
    else:
        raise ValueError(f"unknown modality {modality!r}")
    if x.shape != (idx.shape[0], d):
        raise ValueError(f"apply_value_mask: {x.shape} does not match plan ({idx.shape[0]}, {d})")
    out = x.copy()
    if idx.shape[1]:
        np.put_along_axis(out, idx, 0.0, axis=1)
    return out


def make_grad_gate(plan):
    """Gates (audio, visual): 0 at masked positions, 1 elsewhere."""
    return (1.0 - mask_indicator(plan, "audio"),
            1.0 - mask_indicator(plan, "visual"))
