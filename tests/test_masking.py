"""Unit tests for value masking and the complementary gradient gates,
checked against ``mask_indicator``, a 0/1 matrix of the plan's masked
positions built here as the reference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hscmae.masking import apply_value_mask, make_grad_gate, make_plan


def mask_indicator(plan, modality):
    """Reference oracle: 0/1 matrix with 1 at the plan's masked positions."""
    idx, d = (plan.audio_idx, plan.d_audio) if modality == "audio" else (plan.visual_idx, plan.d_visual)
    ind = np.zeros((idx.shape[0], d))
    ind[np.arange(idx.shape[0])[:, None], idx] = 1.0
    return ind


def test_exact_floor_counts_per_sample():
    plan = make_plan(16, 12, 24, 0.3, seed=0)
    assert plan.audio_idx.shape == (16, 3)   # floor(0.3 * 12)
    assert plan.visual_idx.shape == (16, 7)  # floor(0.3 * 24)
    ind_a = mask_indicator(plan, "audio")
    ind_v = mask_indicator(plan, "visual")
    np.testing.assert_array_equal(ind_a.sum(axis=1), np.full(16, 3))
    np.testing.assert_array_equal(ind_v.sum(axis=1), np.full(16, 7))


def test_ratio_zero_masks_nothing():
    plan = make_plan(4, 6, 8, 0.0, seed=1)
    x = np.random.default_rng(0).normal(size=(4, 6))
    np.testing.assert_array_equal(apply_value_mask(x, plan, "audio"), x)
    gate_a, gate_v = make_grad_gate(plan)
    assert np.all(gate_a == 1.0) and np.all(gate_v == 1.0)


def test_ratio_validation():
    with pytest.raises(ValueError):
        make_plan(2, 4, 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_plan(2, 4, 4, -0.1, seed=0)


def test_unknown_modality_rejected():
    plan = make_plan(2, 4, 4, 0.5, seed=0)
    with pytest.raises(ValueError):
        apply_value_mask(np.zeros((2, 4)), plan, "text")


def test_masking_zeros_planned_positions_only():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 10)) + 5.0  # keep all entries away from zero
    plan = make_plan(8, 10, 10, 0.4, seed=3)
    masked = apply_value_mask(x, plan, "audio")
    ind = mask_indicator(plan, "audio")
    assert np.all(masked[ind == 1.0] == 0.0)
    np.testing.assert_array_equal(masked[ind == 0.0], x[ind == 0.0])


def test_masking_idempotent():
    x = np.random.default_rng(4).normal(size=(5, 9))
    plan = make_plan(5, 9, 9, 0.5, seed=5)
    once = apply_value_mask(x, plan, "visual")
    np.testing.assert_array_equal(apply_value_mask(once, plan, "visual"), once)


def test_gate_is_complement_of_indicator():
    # bytes, not values: the gates are float64 ones with +0.0 at masked positions
    for ratio in (0.0, 0.25, 0.3, 0.7):
        plan = make_plan(6, 7, 11, ratio, seed=6)
        gate_a, gate_v = make_grad_gate(plan)
        assert gate_a.tobytes() == (1.0 - mask_indicator(plan, "audio")).tobytes()
        assert gate_v.tobytes() == (1.0 - mask_indicator(plan, "visual")).tobytes()


def test_plan_deterministic_per_seed():
    p1 = make_plan(10, 8, 8, 0.25, seed=42)
    p2 = make_plan(10, 8, 8, 0.25, seed=42)
    p3 = make_plan(10, 8, 8, 0.25, seed=43)
    np.testing.assert_array_equal(p1.audio_idx, p2.audio_idx)
    np.testing.assert_array_equal(p1.visual_idx, p2.visual_idx)
    assert not np.array_equal(p1.audio_idx, p3.audio_idx)


def test_shape_mismatch_rejected():
    plan = make_plan(4, 6, 6, 0.5, seed=0)
    with pytest.raises(ValueError):
        apply_value_mask(np.zeros((4, 7)), plan, "audio")


def test_marginal_mask_frequency():
    # with ratio 0.3 and d=10 each coordinate is masked with probability 0.3
    plan = make_plan(20_000, 10, 10, 0.3, seed=7)
    freq = mask_indicator(plan, "audio").mean(axis=0)
    assert np.abs(freq - 0.3).max() <= 0.01


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 30), st.floats(0.0, 0.99), st.integers(0, 10_000))
def test_counts_and_indices_valid(n, d, ratio, seed):
    plan = make_plan(n, d, d, ratio, seed)
    k = int(np.floor(ratio * d))
    assert plan.audio_idx.shape == (n, k)
    if k:
        assert plan.audio_idx.min() >= 0 and plan.audio_idx.max() < d
        # indices within a row are distinct
        for row in plan.audio_idx:
            assert len(set(row.tolist())) == k
