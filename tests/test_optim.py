"""Unit tests for gradient clipping, AdamW, and the cosine schedule."""

import numpy as np
import pytest

from hscmae.diffcore import NumericError, Parameter
from hscmae.optim import OptimConfig, adamw_step, clip_global_norm, cosine_lr


def make_param(values, name="p", decay=True):
    p = Parameter(np.asarray(values, dtype=float), name=name, decay=decay)
    return p


def test_clip_pythagorean_case():
    p1 = make_param([[3.0]])
    p2 = make_param([[4.0]])
    p1.grad[...] = 3.0
    p2.grad[...] = 4.0
    norm = clip_global_norm([p1, p2], max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert p1.grad[0, 0] == pytest.approx(0.6)
    assert p2.grad[0, 0] == pytest.approx(0.8)


def test_clip_noop_below_threshold():
    p = make_param([[1.0, 1.0]])
    p.grad[...] = 0.1
    norm = clip_global_norm([p], max_norm=1.0)
    assert norm == pytest.approx(np.sqrt(0.02))
    assert np.all(p.grad == 0.1)


def test_clip_rejects_non_finite_and_bad_threshold():
    p = make_param([[1.0]])
    p.grad[...] = np.nan
    with pytest.raises(NumericError):
        clip_global_norm([p], 1.0)
    with pytest.raises(ValueError):
        clip_global_norm([], 0.0)


def test_adamw_scripted_trace():
    # hand-rolled reference for 3 steps on a single scalar parameter
    cfg = OptimConfig(lr0=0.1, weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    p = make_param([[2.0]])
    grads = [0.5, -1.0, 0.25]
    theta, m, v = 2.0, 0.0, 0.0
    for step, g in enumerate(grads, start=1):
        p.grad[...] = g
        adamw_step([p], cfg, step, lr_t=0.1)
        theta -= 0.1 * 0.01 * theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** step)
        vhat = v / (1 - 0.999 ** step)
        theta -= 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert p.value[0, 0] == pytest.approx(theta, abs=1e-15)


def test_adamw_zero_decay_matches_adam():
    cfg_wd = OptimConfig(lr0=0.05, weight_decay=0.0)
    p = make_param([[1.0, -2.0]])
    rng = np.random.default_rng(0)
    ref = p.value.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for step in range(1, 6):
        g = rng.normal(size=ref.shape)
        p.grad[...] = g
        adamw_step([p], cfg_wd, step, lr_t=0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.05 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    np.testing.assert_allclose(p.value, ref, atol=1e-15)


def test_adamw_respects_decay_flag():
    cfg = OptimConfig(lr0=0.1, weight_decay=0.5)
    decayed = make_param([[1.0]])
    exempt = make_param([[1.0]], decay=False)
    adamw_step([decayed, exempt], cfg, 1, lr_t=0.1)  # zero grads: pure decay
    assert decayed.value[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)
    assert exempt.value[0, 0] == pytest.approx(1.0)


def test_adamw_step_index_validation():
    with pytest.raises(ValueError):
        adamw_step([], OptimConfig(), 0, 0.1)


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
