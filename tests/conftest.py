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

import hscmae.diffcore as dc
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


def arena_param(value, name="p", decay=True):
    """A ``dc.Parameter`` holding a float64 copy of ``value``, the only
    parameter of its own ``dc.ParamArena``."""
    value = np.asarray(value, dtype=np.float64)
    p = dc.ParamArena([(name, value.shape, decay)]).params[0]
    p.value[...] = value
    return p


def tape_nodes(*roots):
    """(tensor, arrays its closure holds) for every tensor reachable from
    ``roots`` through parent links, each once, roots first. A leaf, or a
    node that records no closure, holds none. Closure cells are searched
    through tuples, lists, tensors' values and nested closures."""
    out, seen, stack = [], set(), list(reversed(roots))
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            held = []
            _held_arrays(t._backward, held, set())
            out.append((t, held))
            stack.extend(reversed(t._parents))
    return out


def _held_arrays(obj, held, seen):
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        held.append(obj)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_arrays(item, held, seen)
    elif isinstance(obj, dc.Tensor):
        _held_arrays(obj.value, held, seen)
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            _held_arrays(cell.cell_contents, held, seen)


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
