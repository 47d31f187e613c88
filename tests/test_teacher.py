"""Unit tests for EMA teacher maintenance and affinity mining.

The blocked EMA pass is checked bit for bit against ``listwise_ema_update``,
the former per-parameter update, kept here as the reference oracle. Mined
targets are read through ``reference_ops.dense_rows``, their n x n view, and
checked bit for bit against the per-anchor loop that mining once ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hscmae.diffcore import BLOCK, NumericError
from hscmae.model import ModelConfig, ModelParams
from hscmae.teacher import (anneal_momentum, ema_update, identity_affinities,
                            mine_affinities)

import reference_ops as ops
from conftest import tiny_model_config


def listwise_ema_update(teacher, student, rho):
    """Reference oracle: the per-parameter EMA update."""
    for name, tp in teacher.params.items():
        tp.value *= rho
        tp.value += (1.0 - rho) * student.params[name].value
    for name, tb in teacher.buffers.items():
        tb *= rho
        tb += (1.0 - rho) * student.buffers[name]


@pytest.mark.parametrize("config", [
    tiny_model_config(),
    # about 55,000 parameters: the arena spans two blocks
    ModelConfig(audio_widths=(40, 64, 64), visual_widths=(50, 64, 64), heads=2, proj_dim=8),
], ids=("one-block", "two-blocks"))
def test_ema_bit_identical_to_listwise(config):
    """The blocked EMA gives the listwise update's bits and writes only the
    teacher's values: no float32 copy, gradient or moment. A float32 leaf
    read after the update holds the new values rounded."""
    student = ModelParams(config, seed=5)
    teachers = [ModelParams(config, seed=6) for _ in range(2)]
    for name, b in student.buffers.items():
        b[...] = np.random.default_rng(7).normal(size=b.shape)
    if config.model_dim == 64:
        assert student.arena.size > BLOCK
    for rho in (0.95, 0.9973, 0.999):
        ema_update(teachers[0], student, rho)
        listwise_ema_update(teachers[1], student, rho)
    for (name, a), b in zip(teachers[0].state_entries().items(), teachers[1].state_entries().values()):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)
    assert teachers[0].arena.value32 is None
    for p in teachers[0].parameters():
        np.testing.assert_array_equal(p.tensor(np.float32).value.view(np.uint32),
                                      p.value.astype(np.float32).view(np.uint32), err_msg=p.name)
    for t in teachers:  # no gradient or moment is written
        assert not (t.arena.grad.any() or t.arena.adam_m.any() or t.arena.adam_v.any())


def test_ema_rejects_a_different_model():
    with pytest.raises(ValueError):
        ema_update(ModelParams(tiny_model_config(proj_dim=2), seed=0),
                   ModelParams(tiny_model_config(), seed=0), 0.9)


def test_ema_fixed_point():
    student = ModelParams(tiny_model_config(), seed=0)
    teacher = student.copy()
    ema_update(teacher, student, rho=0.9)
    for name, p in student.params.items():
        np.testing.assert_allclose(teacher.params[name].value, p.value, atol=1e-15)


def test_ema_recursion_elementwise():
    student = ModelParams(tiny_model_config(), seed=1)
    teacher = ModelParams(tiny_model_config(), seed=2)
    student.buffers["enc.a.0.bn.mean"][...] = 0.5
    prev = {name: p.value.copy() for name, p in teacher.params.items()}
    prev_buf = {name: b.copy() for name, b in teacher.buffers.items()}
    rho = 0.97
    ema_update(teacher, student, rho)
    for name, p in teacher.params.items():
        np.testing.assert_allclose(
            p.value, rho * prev[name] + (1 - rho) * student.params[name].value, atol=1e-15)
    for name, b in teacher.buffers.items():
        np.testing.assert_allclose(
            b, rho * prev_buf[name] + (1 - rho) * student.buffers[name], atol=1e-15)


def test_ema_leaves_student_and_moments_untouched():
    student = ModelParams(tiny_model_config(), seed=3)
    teacher = ModelParams(tiny_model_config(), seed=4)
    before = {name: p.value.copy() for name, p in student.params.items()}
    student.params["enc.a.0.w"].adam_m[...] = 7.0
    ema_update(teacher, student, 0.5)
    for name, p in student.params.items():
        np.testing.assert_array_equal(p.value, before[name])
    assert np.all(student.params["enc.a.0.w"].adam_m == 7.0)


def test_anneal_endpoints_and_midpoint():
    assert anneal_momentum(1, 100) == pytest.approx(0.95)
    assert anneal_momentum(100, 100) == pytest.approx(0.999)
    assert anneal_momentum(2, 3) == pytest.approx(0.9745)
    assert anneal_momentum(5, 1) == 0.999  # degenerate schedule clamps high
    with pytest.raises(ValueError):
        anneal_momentum(0, 10)
    with pytest.raises(ValueError):
        anneal_momentum(11, 10)


def test_anneal_monotone():
    vals = [anneal_momentum(e, 20) for e in range(1, 21)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# affinity mining
# ---------------------------------------------------------------------------

def test_mining_hand_example():
    # scores for anchor 0: pair score is low but must still be included
    scores_a = np.array([
        [0.1, 0.9, 0.8, 0.2],
        [0.7, 0.6, 0.1, 0.0],
        [0.0, 0.0, 1.0, 0.9],
        [0.5, 0.4, 0.3, 0.2],
    ])
    # construct embeddings realizing these scores exactly: za = scores, zv = I
    za = scores_a
    zv = np.eye(4)
    targets = mine_affinities(za, zv, k=2, tau=0.5)
    w = ops.dense_rows(targets.a2v)
    # anchor 0: neighborhood {0 (forced), 1 (top score)}
    assert set(np.flatnonzero(w[0])) == {0, 1}
    e = np.exp(np.array([0.1, 0.9]) / 0.5)
    np.testing.assert_allclose(w[0, [0, 1]], e / e.sum(), atol=1e-12)
    # anchor 2: 2 is both pair and top; next best is 3
    assert set(np.flatnonzero(w[2])) == {2, 3}
    # rows are distributions
    np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-12)


def test_mining_tie_breaks_toward_lower_index():
    scores = np.array([
        [0.5, 0.3, 0.3, 0.3],
    ] * 4)
    targets = mine_affinities(scores, np.eye(4), k=2, tau=0.1)
    # for anchor 0 column 0 is the pair and top; the tie among 1,2,3 resolves to 1
    assert set(np.flatnonzero(ops.dense_rows(targets.a2v)[0])) == {0, 1}


def test_mining_k_clamped_to_n():
    rng = np.random.default_rng(0)
    za = rng.normal(size=(3, 4))
    zv = rng.normal(size=(3, 4))
    w = ops.dense_rows(mine_affinities(za, zv, k=10, tau=0.5).a2v)
    assert np.all(w > 0.0)  # every candidate mined
    np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-12)


def test_mining_high_temperature_near_uniform():
    rng = np.random.default_rng(1)
    za = rng.normal(size=(8, 5))
    za /= np.linalg.norm(za, axis=1, keepdims=True)
    zv = rng.normal(size=(8, 5))
    zv /= np.linalg.norm(zv, axis=1, keepdims=True)
    w = ops.dense_rows(mine_affinities(za, zv, k=5, tau=10.0).a2v)
    mined = w[w > 0].reshape(8, 5)
    assert np.abs(mined - 0.2).max() < 0.05


def test_mining_directions_are_transposed_scores():
    rng = np.random.default_rng(2)
    za, zv = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    t = mine_affinities(za, zv, k=3, tau=0.3)
    t_swapped = mine_affinities(zv, za, k=3, tau=0.3)
    np.testing.assert_allclose(ops.dense_rows(t.v2a), ops.dense_rows(t_swapped.a2v), atol=1e-15)


def test_mining_validation():
    with pytest.raises(ValueError):
        mine_affinities(np.zeros((2, 2)), np.zeros((2, 2)), k=0, tau=0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mining_rejects_non_finite_scores(bad):
    za = np.ones((4, 3))
    za[2, 1] = bad
    with pytest.raises(NumericError, match="mine_affinities"):
        mine_affinities(za, np.ones((4, 3)), k=2, tau=0.05)


def loop_mine_direction(scores, k, tau):
    """Reference oracle: the per-anchor loop mining once ran."""
    n = scores.shape[0]
    kk = min(k, n)
    w = np.zeros((n, n))
    # stable descending sort so equal scores break toward lower index
    order = np.argsort(-scores, axis=1, kind="stable")
    for i in range(n):
        neigh = [i]  # paired sample is always included
        for j in order[i]:
            if len(neigh) == kk:
                break
            if j != i:
                neigh.append(int(j))
        neigh = np.asarray(neigh)
        logits = scores[i, neigh] / tau
        e = np.exp(logits - logits.max())
        w[i, neigh] = e / e.sum()
    return w


def assert_matches_loop(scores, k, tau):
    # za = scores, zv = I realises the scores exactly, as in the hand example
    eye = np.eye(scores.shape[0])
    targets = mine_affinities(scores, eye, k=k, tau=tau)
    realised = scores @ eye.T
    for got, want in ((ops.dense_rows(targets.a2v), loop_mine_direction(realised, k, tau)),
                      (ops.dense_rows(targets.v2a), loop_mine_direction(realised.T, k, tau))):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mining_bit_identical_to_loop(data):
    n = data.draw(st.integers(1, 40), label="n")
    k = data.draw(st.integers(1, n + 5), label="k")
    tau = data.draw(st.sampled_from([0.05, 0.3, 2.0]), label="tau")
    raw = data.draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)), label="scores")
    assert_matches_loop(np.round(raw, 1), k, tau)  # one decimal makes ties common


@pytest.mark.parametrize("n, k", [(250, 5), (300, 300)])
def test_mining_bit_identical_to_loop_at_batch_scale(n, k):
    # (300, 300) sums more than 128 weights per row, past numpy's pairwise block
    rng = np.random.default_rng(n)
    assert_matches_loop(np.round(rng.normal(size=(n, n)), 2), k, 0.05)


def test_identity_affinities():
    t = identity_affinities(4)
    for idx, w in (t.a2v, t.v2a):
        np.testing.assert_array_equal(idx, np.arange(4)[:, None])
        np.testing.assert_array_equal(w, np.ones((4, 1)))
    t.a2v[1][0, 0] = 0.0
    assert t.v2a[1][0, 0] == 1.0  # independent copies


@pytest.mark.parametrize("n", [1, 2, 7, 250])
def test_mining_with_k_one_is_identity_affinities_bit_for_bit(n):
    rng = np.random.default_rng(n)
    mined = mine_affinities(rng.normal(size=(n, 6)), rng.normal(size=(n, 6)), k=1, tau=0.05)
    want = identity_affinities(n)
    for (idx, w), (want_idx, want_w) in ((mined.a2v, want.a2v), (mined.v2a, want.v2a)):
        assert idx.dtype == want_idx.dtype and w.dtype == want_w.dtype
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(w.view(np.uint64), want_w.view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mined_rows_name_m_distinct_columns_the_pair_first(data):
    n = data.draw(st.integers(1, 30), label="n")
    k = data.draw(st.integers(1, n + 3), label="k")
    raw = data.draw(arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0)), label="scores")
    targets = mine_affinities(np.round(raw, 1), np.eye(n), k=k, tau=0.3)
    for idx, w in (targets.a2v, targets.v2a):
        assert idx.shape == w.shape == (n, min(k, n))
        np.testing.assert_array_equal(idx[:, 0], np.arange(n))
        assert all(len(set(row)) == min(k, n) for row in idx.tolist())
        assert ((0 <= idx) & (idx < n)).all()
