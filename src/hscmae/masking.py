"""Sample-level value masking for the reconstruction path, and the gradient
gate of a plan.

A plan fixes, per sample and per modality, exactly floor(ratio * d) feature
dimensions chosen uniformly without replacement. ``apply_value_mask`` zeroes
them in a batch. ``make_grad_gate`` builds the gradient gates of a plan: ones,
with 0 at the planned positions. Training does not use them: the clean pass
runs on constant inputs, where a gate could change no output. They are kept
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
    gates = []
    for idx, d in ((plan.audio_idx, plan.d_audio), (plan.visual_idx, plan.d_visual)):
        gate = np.ones((idx.shape[0], d))
        np.put_along_axis(gate, idx, 0.0, axis=1)
        gates.append(gate)
    return tuple(gates)
