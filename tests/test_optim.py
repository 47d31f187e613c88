"""Unit tests for gradient clipping, AdamW, the cosine schedule and the
walk that spreads an arena's blocks over worker threads.

The blocked passes over a parameter arena are checked bit for bit against
``listwise_clip_global_norm`` and ``listwise_adamw_step``, the former
per-parameter passes, kept here as the reference oracles, and against
themselves on one worker.
"""

import math
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc
from hscmae import optim
from hscmae.diffcore import BLOCK, NumericError, ParamArena
from hscmae.optim import BETA1, BETA2, EPS, OptimConfig, adamw_step, clip_global_norm, cosine_lr
from hscmae.teacher import ema_update

from conftest import ARENA_ARRAYS, arena_arrays, arena_param
from test_diffcore import assert_bits_equal


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
    """Reference oracle: the per-parameter AdamW step over a list of
    Parameters, with float32 moments updated from the float32-rounded
    gradient and a float32 step subtracted from the float64 value."""
    b1, b2, eps = BETA1, BETA2, EPS
    inv_sqrt_c2 = 1.0 / math.sqrt(1.0 - b2 ** step_index)
    lr_c1 = lr_t / (1.0 - b1 ** step_index)
    for p in params:
        if p.decay and config.weight_decay:
            p.value *= 1.0 - lr_t * config.weight_decay
        g = p.grad.astype(np.float32)
        p.adam_m *= b1
        p.adam_m += (1.0 - b1) * g
        p.adam_v *= b2
        p.adam_v += (1.0 - b2) * g * g
        p.value -= p.adam_m / (np.sqrt(p.adam_v) * inv_sqrt_c2 + eps) * lr_c1


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
    # hand-rolled reference for 3 steps on a single scalar parameter: the
    # moments and the step in float32 scalars, decay and value in float64;
    # the constants are Kingma and Ba's defaults
    cfg = OptimConfig(lr0=0.1, weight_decay=0.01)
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)
    arena = make_arena([[2.0]])
    p = arena.params[0]
    assert p.adam_m.dtype == p.adam_v.dtype == np.float32
    f32 = np.float32
    grads = [0.5, -1.0, 0.25]
    theta, m, v = 2.0, f32(0.0), f32(0.0)
    for step, g in enumerate(grads, start=1):
        p.grad[...] = g
        adamw_step(arena, cfg, step, lr_t=0.1)
        theta *= 1.0 - 0.1 * 0.01
        m = f32(BETA1) * m + f32(1.0 - BETA1) * f32(g)
        v = f32(BETA2) * v + f32(1.0 - BETA2) * f32(g) * f32(g)
        d = np.sqrt(v) * f32(1.0 / math.sqrt(1.0 - BETA2 ** step)) + f32(EPS)
        theta -= float(m / d * f32(0.1 / (1.0 - BETA1 ** step)))
        assert_bits_equal([p.value[0, 0], p.adam_m[0, 0], p.adam_v[0, 0]], [theta, m, v])


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
    listed = [arena_param(v, name=f"p{i}", decay=d) for i, (v, d) in enumerate(zip(values, decay))]
    cfg = OptimConfig(lr0=0.01, weight_decay=weight_decay)
    for step in range(1, steps + 1):
        for p, q in zip(arena.params, listed):
            p.grad[...] = q.grad[...] = rng.normal(size=p.value.shape)
        assert clip_global_norm(arena, max_norm) == listwise_clip_global_norm(listed, max_norm)
        adamw_step(arena, cfg, step, lr_t=0.003)
        listwise_adamw_step(listed, cfg, step, lr_t=0.003)
    for p, q in zip(arena.params, listed):
        kinds = ("value", "grad", "adam_m", "adam_v")
        assert_bits_equal([getattr(p, kind) for kind in kinds], [getattr(q, kind) for kind in kinds])


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(SIZES, min_size=1, max_size=4), exempt=st.integers(1, 2),
       workers=st.integers(2, 4), max_norm=st.sampled_from([1e-3, 1e6]),
       seed=st.integers(0, 2 ** 16))
def test_walked_passes_bit_identical_for_any_worker_count(sizes, exempt, workers, max_norm, seed):
    """The gradient-zeroing walk, clipping (norm and gradients), AdamW and
    the EMA leave the same bits on several workers as on one; the exempt
    tail puts the decay boundary inside a block. Neither arena gains an
    array, such as a float32 copy of its values."""
    rng = np.random.default_rng(seed)
    shapes = [(1, n) if n % 2 else (2, n // 2) for n in sizes] + [(1, 1)] * exempt
    decay = [True] * len(sizes) + [False] * exempt
    values = [rng.normal(size=shape) for shape in shapes]
    grads = [[rng.normal(size=shape) for shape in shapes] for _ in range(3)]
    cfg = OptimConfig(lr0=0.01, weight_decay=0.3)
    runs = []
    for count in (1, workers):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dc, "_WORKERS", count)
            student = SimpleNamespace(arena=make_arena(*values, decay=decay), buffers={})
            teacher = SimpleNamespace(arena=make_arena(*[-v for v in values], decay=decay), buffers={})
            arena, norms = student.arena, []
            for step, gs in enumerate(grads, start=1):
                arena.grad[...] = 1.0
                arena.prepare_step()
                assert not arena.grad.any()
                for p, g in zip(arena.params, gs):
                    p.grad[...] = g
                norms.append(clip_global_norm(arena, max_norm))
                adamw_step(arena, cfg, step, lr_t=0.003)
                ema_update(teacher, student, 0.99)
            runs.append((norms, [a.tobytes() for a in (arena.value, arena.grad, arena.adam_m,
                                                       arena.adam_v, teacher.arena.value)]))
            assert arena_arrays(arena) == arena_arrays(teacher.arena) == ARENA_ARRAYS
    assert runs[0] == runs[1]


def test_one_block_arena_never_starts_the_pool(monkeypatch):
    def no_pool():
        raise AssertionError("a one-block walk started the pool")

    monkeypatch.setattr(dc, "_pool", no_pool)
    monkeypatch.setattr(dc, "_WORKERS", 4)
    values = [np.ones((2, BLOCK // 2 - 1)), np.ones((1, 2))]
    student = SimpleNamespace(arena=make_arena(*values, decay=[True, False]), buffers={})
    teacher = SimpleNamespace(arena=make_arena(*values, decay=[True, False]), buffers={})
    arena = student.arena
    assert arena.size == BLOCK
    arena.prepare_step()
    arena.grad[...] = 1.0
    assert clip_global_norm(arena, 1e-3) > 1e-3
    adamw_step(arena, OptimConfig(), 1, lr_t=0.1)
    ema_update(teacher, student, 0.9)


def test_non_finite_norm_raises_before_any_scaling(monkeypatch):
    monkeypatch.setattr(dc, "_WORKERS", 2)
    arena = make_arena(np.ones((1, BLOCK)), np.ones((1, BLOCK)))
    arena.grad[...] = 2.0
    arena.grad[-1] = np.inf
    arena.walk = None  # calling it would raise a TypeError, not a NumericError
    with pytest.raises(NumericError):
        clip_global_norm(arena, 1.0)
    assert np.all(arena.grad[:-1] == 2.0)


def test_non_finite_norm_names_the_first_parameter_whose_sum_is_not_finite():
    """A NaN in p2 and an overflowing square in p1: the message names p1,
    and no gradient is scaled; finite sums whose total overflows name none."""
    arena = make_arena(np.ones((1, 3)), np.ones((2, 4)), np.ones((1, 5)))
    arena.grad[...] = 2.0
    arena.params[2].grad[0, 4] = np.nan
    arena.params[1].grad[1, 0] = 1e200
    before = arena.grad.copy()
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^clip_global_norm: non-finite gradient norm in 'p1'$"):
        clip_global_norm(arena, 1.0)
    assert before.tobytes() == arena.grad.tobytes()
    arena.grad[...] = 4e153  # 8 squares sum to 1.28e308, all 16 overflow
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=r"^clip_global_norm: non-finite gradient norm$"):
        clip_global_norm(arena, 1.0)
    assert np.all(arena.grad == 4e153)


def test_walk_error_reaches_the_caller_after_every_share_stops(monkeypatch):
    """Four blocks on two workers: the caller walks blocks 0-1, a pool thread
    blocks 2-3. A failure in either share is raised once the other share
    has finished, and the next walk covers every block once, each share with
    its own scratch on its own thread."""
    monkeypatch.setattr(dc, "_WORKERS", 2)
    arena = ParamArena([("w", (1, 4 * BLOCK), True)])
    for bad, want in ((0, {2 * BLOCK, 3 * BLOCK}), (3 * BLOCK, {0, BLOCK, 2 * BLOCK})):
        done = []

        def failing(start, stop, scratch):
            if start == bad:
                raise RuntimeError(f"block at {start}")
            time.sleep(0.02)
            done.append(start)

        with pytest.raises(RuntimeError, match=f"block at {bad}$"):
            arena.walk(failing)
        assert set(done) == want

    seen = []
    arena.walk(lambda start, stop, scratch: seen.append(
        (start, stop, scratch, threading.get_ident())))
    seen.sort(key=lambda call: call[0])
    assert [(start, stop) for start, stop, _, _ in seen] == [
        (k * BLOCK, (k + 1) * BLOCK) for k in range(4)]
    assert all(scratch.size >= 2 * BLOCK for _, _, scratch, _ in seen)
    assert seen[0][2] is seen[1][2] and seen[2][2] is seen[3][2]
    assert not np.shares_memory(seen[0][2], seen[2][2])
    assert seen[0][3] == threading.get_ident() != seen[2][3]


def test_walk_stress_more_workers_than_cores(monkeypatch):
    """Eight workers on nine blocks, the interpreter switching threads every
    microsecond: each walk adds one to every value, all distinct, through
    its worker's scratch. A scratch shared by two shares, or a block walked twice or
    never, breaks the count."""
    monkeypatch.setattr(dc, "_WORKERS", 8)
    monkeypatch.setattr(dc, "_executor", None)
    monkeypatch.setattr(dc, "_worker_scratch", [])
    arena = ParamArena([("w", (1, 9 * BLOCK - 7), True)])
    arena.value[...] = np.arange(arena.size)

    def bump(start, stop, scratch):
        n = stop - start
        np.add(arena.value[start:stop], 1.0, out=scratch[:n])
        np.copyto(scratch[n:2 * n], scratch[:n])
        arena.value[start:stop] = scratch[n:2 * n]

    walker = threading.Thread(target=lambda: [arena.walk(bump) for _ in range(20)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        walker.start()
        walker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        if dc._executor is not None:
            dc._executor.shutdown(wait=False)
    assert not walker.is_alive()
    assert len(dc._worker_scratch) == 7
    assert np.all(arena.value == np.arange(arena.size) + 20.0)


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


@pytest.mark.parametrize("field, value, reason", [
    ("lr0", math.nan, "lr0 must be finite, got nan"),
    ("lr0", math.inf, "lr0 must be finite, got inf"),
    ("weight_decay", math.nan, "weight_decay must be finite, got nan"),
    ("clip_norm", math.nan, "clip_norm must be finite, got nan"),
    ("clip_norm", -math.inf, "clip_norm must be finite, got -inf"),
    ("clip_norm", 2e18, "clip_norm must be in (0, 1e+18], got 2e+18"),
])
def test_optim_config_rejects_values_naming_the_field(field, value, reason):
    with pytest.raises(ValueError) as info:
        OptimConfig(**{field: value})
    assert str(info.value).startswith(f"OptimConfig: {reason}")


@pytest.mark.parametrize("name", ["BETA1", "BETA2"])
def test_adam_betas_stay_below_one_when_rounded_to_float32(name):
    """The float32 moments use each beta rounded to float32; below 1 there,
    the bias correction 1 - beta**t is never 0."""
    beta = getattr(optim, name)
    assert 0.0 <= beta < 1.0
    assert 0.0 <= np.float32(beta) < np.float32(1.0)


def test_adam_eps_is_at_least_the_least_normal_float32():
    """With a zero second moment the Adam denominator is eps alone."""
    assert math.isfinite(EPS)
    assert np.float32(EPS) >= np.finfo(np.float32).tiny


@pytest.mark.parametrize("name", ["beta1", "beta2", "eps"])
def test_optim_config_sets_no_adam_constant(name):
    with pytest.raises(TypeError):
        OptimConfig(**{name: 0.5})


def test_adamw_float32_moments_stay_finite_at_the_range_ends():
    """clip_norm 1e18 is accepted. A clipped gradient entry is then at most
    1e18, so its float32 moments and the step stay finite, and a parameter
    with no gradient does not move."""
    cfg = OptimConfig(clip_norm=1e18, weight_decay=0.0)
    arena = make_arena([[0.5, -0.5]], [[1.0]])
    arena.params[0].grad[...] = [[1e30, -1e30]]
    for step in range(1, 4):
        clip_global_norm(arena, cfg.clip_norm)
        adamw_step(arena, cfg, step, lr_t=1e-3)
    assert np.isfinite(arena.adam_v).all() and np.isfinite(arena.value).all()
    assert arena.params[1].value[0, 0] == 1.0
