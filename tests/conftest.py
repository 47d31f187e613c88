"""Shared fixtures and the desk-scale verification profile.

The desk profile is a deliberately small configuration (narrow trunk, short
schedule, high learning rate) calibrated so the behavioral properties of the
full system show up within seconds per training run on the default synthetic
data.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from hscmae.data_io import SynthConfig, generate_synthetic
from hscmae.model import ModelConfig
from hscmae.optim import OptimConfig
from hscmae.trainer import TrainConfig


def desk_model_config(**overrides):
    base = dict(audio_widths=(12, 10, 10, 10), visual_widths=(24, 10, 10, 10),
                heads=2, proj_dim=10, dropout=0.2)
    base.update(overrides)
    return ModelConfig(**base)


def desk_train_config(seed=0, **overrides):
    cfg = TrainConfig(model=desk_model_config(),
                      optim=OptimConfig(lr0=3e-3),
                      epochs=15, batch_size=250, mask_ratio=0.2,
                      cca_r=8, cca_post_dim=10, seed=seed)
    return replace(cfg, **overrides) if overrides else cfg


def tiny_model_config(**overrides):
    """Smallest full model exercising every layer type."""
    base = dict(audio_widths=(3, 4, 4), visual_widths=(5, 4, 4),
                heads=2, proj_dim=3, dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def corrupted(data, blob):
    """A Hypothesis-drawn damaged copy of ``blob``: cut short, or with one to
    four bytes changed."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        out[at] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(out)


@pytest.fixture(scope="session")
def synth_default():
    """Default synthetic splits: 2000 train / 500 test, 8 classes."""
    return generate_synthetic(SynthConfig())


@pytest.fixture(scope="session")
def tiny_pair():
    """A small deterministic paired batch for forward/backward unit tests."""
    rng = np.random.default_rng(7)
    return rng.normal(size=(6, 3)), rng.normal(size=(6, 5))
