"""Unit tests for gradient clipping, AdamW, and the cosine schedule.

The blocked passes over a parameter arena are checked bit for bit against
``listwise_clip_global_norm`` and ``listwise_adamw_step``, the former
per-parameter passes, kept here as the reference oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscmae.diffcore import BLOCK, NumericError, ParamArena, Parameter
from hscmae.optim import OptimConfig, adamw_step, clip_global_norm, cosine_lr


def listwise_clip_global_norm(params, max_norm):
    """Reference oracle: the per-parameter clip over a list of Parameters."""
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


def listwise_adamw_step(params, config, step_index, lr_t):
    """Reference oracle: the per-parameter AdamW step over a list of Parameters."""
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


def make_arena(*values, decay=None):
    """An arena holding ``values`` as parameters p0, p1, ...; all decayed
    unless ``decay`` lists the flags."""
    decay = decay or [True] * len(values)
    values = [np.asarray(v, dtype=float) for v in values]
    arena = ParamArena([(f"p{i}", v.shape, d) for i, (v, d) in enumerate(zip(values, decay))])
    for p, v in zip(arena.params, values):
        p.value[...] = v
    return arena


def test_clip_pythagorean_case():
    arena = make_arena([[3.0]], [[4.0]])
    p1, p2 = arena.params
    p1.grad[...] = 3.0
    p2.grad[...] = 4.0
    norm = clip_global_norm(arena, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert p1.grad[0, 0] == pytest.approx(0.6)
    assert p2.grad[0, 0] == pytest.approx(0.8)


def test_clip_noop_below_threshold():
    arena = make_arena([[1.0, 1.0]])
    p = arena.params[0]
    p.grad[...] = 0.1
    norm = clip_global_norm(arena, max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(0.02))
    assert np.all(p.grad == 0.1)


def test_clip_rejects_non_finite_and_bad_threshold():
    arena = make_arena([[1.0]])
    arena.params[0].grad[...] = np.nan
    with pytest.raises(NumericError):
        clip_global_norm(arena, 1.0)
    with pytest.raises(ValueError):
        clip_global_norm(make_arena(), 0.0)


def test_adamw_scripted_trace():
    # hand-rolled reference for 3 steps on a single scalar parameter
    cfg = OptimConfig(lr0=0.1, weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    arena = make_arena([[2.0]])
    p = arena.params[0]
    grads = [0.5, -1.0, 0.25]
    theta, m, v = 2.0, 0.0, 0.0
    for step, g in enumerate(grads, start=1):
        p.grad[...] = g
        adamw_step(arena, cfg, step, lr_t=0.1)
        theta -= 0.1 * 0.01 * theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** step)
        vhat = v / (1 - 0.999 ** step)
        theta -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p.value[0, 0] == pytest.approx(theta, abs=1e-15)


def test_adamw_zero_decay_matches_adam():
    cfg_wd = OptimConfig(lr0=0.05, weight_decay=0.0)
    arena = make_arena([[1.0, -2.0]])
    p = arena.params[0]
    rng = np.random.default_rng(0)
    ref = p.value.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for step in range(1, 6):
        g = rng.normal(size=ref.shape)
        p.grad[...] = g
        adamw_step(arena, cfg_wd, step, lr_t=0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.05 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    np.testing.assert_allclose(p.value, ref, atol=1e-15)


def test_adamw_respects_decay_flag():
    cfg = OptimConfig(lr0=0.1, weight_decay=0.5)
    arena = make_arena([[1.0]], [[1.0]], decay=[True, False])
    decayed, exempt = arena.params
    adamw_step(arena, cfg, 1, lr_t=0.1)  # zero grads: pure decay
    assert decayed.value[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert exempt.value[0, 0] == pytest.approx(1.0)


def test_adamw_step_index_validation():
    with pytest.raises(ValueError):
        adamw_step(make_arena(), OptimConfig(), 0, 0.1)


def test_arena_requires_decayed_parameters_first():
    with pytest.raises(ValueError):
        make_arena([[1.0]], [[1.0]], decay=[False, True])


# sizes on both sides of the block edge, and one spanning two whole blocks
SIZES = st.sampled_from([1, 3, 17, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(SIZES, min_size=1, max_size=4), exempt=st.integers(0, 2),
       weight_decay=st.sampled_from([0.0, 1e-4, 0.3]), steps=st.integers(1, 5),
       max_norm=st.sampled_from([1e-3, 1.0, 1e6]), seed=st.integers(0, 2 ** 16))
def test_blocked_passes_bit_identical_to_listwise(sizes, exempt, weight_decay, steps, max_norm, seed):
    """Several parameters, the exempt ones last (the decay split may fall
    inside a block), clipped above and below the limit, stepped 1-5 times."""
    rng = np.random.default_rng(seed)
    shapes = [(1, n) if n % 2 else (2, n // 2) for n in sizes] + [(1, 1)] * exempt
    decay = [True] * len(sizes) + [False] * exempt
    values = [rng.normal(size=shape) for shape in shapes]
    arena = make_arena(*values, decay=decay)
    listed = [Parameter(v, name=f"p{i}", decay=d) for i, (v, d) in enumerate(zip(values, decay))]
    cfg = OptimConfig(lr0=0.01, weight_decay=weight_decay)
    for step in range(1, steps + 1):
        for p, q in zip(arena.params, listed):
            p.grad[...] = q.grad[...] = rng.normal(size=p.value.shape)
        assert clip_global_norm(arena, max_norm) == listwise_clip_global_norm(listed, max_norm)
        adamw_step(arena, cfg, step, lr_t=0.003)
        listwise_adamw_step(listed, cfg, step, lr_t=0.003)
    for p, q in zip(arena.params, listed):
        for kind in ("value", "grad", "adam_m", "adam_v"):
            np.testing.assert_array_equal(getattr(p, kind).view(np.uint64),
                                          getattr(q, kind).view(np.uint64), err_msg=f"{p.name}.{kind}")


def test_cosine_schedule_shape():
    cfg = OptimConfig(lr0=1.0, cosine_t_max=50)
    assert cosine_lr(1, cfg) == pytest.approx(1.0)
    assert cosine_lr(26, cfg) == pytest.approx(0.5)  # halfway through the cycle
    assert cosine_lr(50, cfg) < 0.002
    # restart: epoch 51 begins a new cycle at full rate
    assert cosine_lr(51, cfg) == pytest.approx(1.0)
    vals = [cosine_lr(e, cfg) for e in range(1, 51)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_cosine_bounds_and_validation():
    cfg = OptimConfig(lr0=0.3, cosine_t_max=7)
    for e in range(1, 30):
        assert 0.0 < cosine_lr(e, cfg) <= 0.3
    with pytest.raises(ValueError):
        cosine_lr(0, cfg)


def test_optim_config_validation():
    with pytest.raises(ValueError):
        OptimConfig(lr0=0.0)
    with pytest.raises(ValueError):
        OptimConfig(clip_norm=0.0)
