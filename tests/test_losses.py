"""Unit tests for the four objectives and their combination.

The canonical-correlation term is checked against two independent references:
the closed-form linear CCA fit and a scipy generalized-eigenvalue solve. The
contrastive node is checked bit for bit against the chain of row log-softmax
tape nodes it replaced.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc
from hscmae import cca_linear
from hscmae.losses import (CcaConfig, LossBundle, dcca_loss, distill_loss, rec_loss,
                           soft_infonce, total_loss, warmup_weight)
from hscmae.teacher import identity_affinities, mine_affinities


def random_pair(n, da, dv, seed):
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(n, min(da, dv)))
    za = shared @ rng.normal(size=(min(da, dv), da)) + 0.3 * rng.normal(size=(n, da))
    zv = shared @ rng.normal(size=(min(da, dv), dv)) + 0.3 * rng.normal(size=(n, dv))
    return za, zv


def eigen_oracle(za, zv, r, eps):
    """Canonical correlations via the generalized symmetric eigenproblem
    S_av S_vv^-1 S_va a = rho^2 S_aa a, with the same covariance regularizer."""
    n, da = za.shape
    dv = zv.shape[1]
    ha = za - za.mean(axis=0)
    hv = zv - zv.mean(axis=0)
    s_aa = ha.T @ ha / (n - 1) + eps * np.eye(da)
    s_vv = hv.T @ hv / (n - 1) + eps * np.eye(dv)
    s_av = ha.T @ hv / (n - 1)
    m = s_av @ np.linalg.solve(s_vv, s_av.T)
    w = scipy.linalg.eigh(m, s_aa, eigvals_only=True)
    rho = np.sqrt(np.clip(w, 0.0, None))[::-1]
    return float(rho[:r].sum())


# ---------------------------------------------------------------------------
# canonical-correlation loss
# ---------------------------------------------------------------------------

def test_dcca_matches_linear_fit():
    za, zv = random_pair(60, 5, 5, seed=0)
    loss = dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=5, eps=1e-4))
    model = cca_linear.fit(za, zv, p=5, eps=1e-4)
    assert abs(-loss.value[0, 0] - model.rho.sum()) < 1e-8


def test_dcca_matches_generalized_eigen_oracle():
    for seed in range(5):
        za, zv = random_pair(80, 6, 4, seed=seed)
        loss = dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=3, eps=1e-4))
        assert abs(-loss.value[0, 0] - eigen_oracle(za, zv, 3, 1e-4)) < 1e-8


def test_dcca_identical_views_near_full_correlation():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(500, 4))
    loss = dcca_loss(dc.const(z), dc.const(z.copy()), CcaConfig(r=4, eps=1e-4))
    assert -loss.value[0, 0] > 4.0 - 0.01


def test_dcca_rotation_invariant():
    za, zv = random_pair(70, 5, 5, seed=2)
    rng = np.random.default_rng(3)
    qa, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    qv, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    cfg = CcaConfig(r=5, eps=1e-4)
    base = dcca_loss(dc.const(za), dc.const(zv), cfg).value[0, 0]
    rot = dcca_loss(dc.const(za @ qa), dc.const(zv @ qv), cfg).value[0, 0]
    assert abs(base - rot) < 1e-8


def test_dcca_huge_regularizer_kills_correlation():
    za, zv = random_pair(60, 5, 5, seed=4)
    loss = dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=5, eps=1e6))
    assert abs(loss.value[0, 0]) < 1e-3


def test_dcca_gradient_against_finite_differences():
    pa = dc.Parameter(np.random.default_rng(5).normal(size=(12, 4)), name="za")
    pv = dc.Parameter(np.random.default_rng(6).normal(size=(12, 3)), name="zv")
    cfg = CcaConfig(r=3, eps=1e-2)
    err = dc.grad_check(lambda: dcca_loss(pa.tensor(), pv.tensor(), cfg),
                        [pa, pv], max_coords=8)
    assert err < 1e-4


def test_dcca_rank_deficient_covariance_raises_like_linear_fit():
    # constant inputs leave only the regularizer, here far below the rank tolerance
    za, zv = np.ones((10, 3)), np.ones((10, 3))
    with pytest.raises(dc.NumericError, match="dcca_loss: covariance rank-deficient"):
        dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=3, eps=1e-300))
    with pytest.raises(cca_linear.CcaFitError):
        cca_linear.fit(za, zv, p=3, eps=1e-300)


def test_dcca_validation():
    cfg = CcaConfig(r=3, eps=1e-4)
    with pytest.raises(dc.ShapeError):
        dcca_loss(dc.const(np.zeros((4, 3))), dc.const(np.zeros((5, 3))), cfg)
    with pytest.raises(ValueError):
        dcca_loss(dc.const(np.zeros((1, 3))), dc.const(np.zeros((1, 3))), cfg)
    with pytest.raises(ValueError):
        dcca_loss(dc.const(np.zeros((8, 2))), dc.const(np.zeros((8, 2))), cfg)
    with pytest.raises(ValueError):
        CcaConfig(r=0)
    with pytest.raises(ValueError):
        CcaConfig(eps=0.0)


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _transpose(a):
    return dc._node("transpose", a.value.T, (a,), lambda g: (g.T,))


def _row_log_softmax(a, temp):
    z = a.value / temp
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    y = z - lse
    sm = np.exp(y)

    def bwd(g):
        return ((g - sm * g.sum(axis=1, keepdims=True)) / temp,)

    return dc._node("row_log_softmax", y, (a,), bwd)


def composed_soft_infonce(za, zv, targets, tau):
    """The contrastive loss composed from 13 tape nodes (transpose, matmul,
    row log-softmax, product with the constant weights, sum, scale and add),
    the reference oracle for the single node."""
    n = za.shape[0]
    logits = dc.matmul(za, _transpose(zv))
    half_a = dc.scale(dc.sum_all(dc.mul(dc.const(targets.w_a2v), _row_log_softmax(logits, tau))), -1.0 / n)
    half_v = dc.scale(dc.sum_all(dc.mul(dc.const(targets.w_v2a), _row_log_softmax(_transpose(logits), tau))), -1.0 / n)
    return dc.scale(dc.add(half_a, half_v), 0.5)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def infonce_value_and_grads(loss_fn, za, zv, targets, tau, epoch, sigma):
    """Loss value and both input gradients, with the upstream gradient that
    total_loss sends: the warm-up weight at epoch 1, exp(-sigma) at epoch 6."""
    pa, pv = dc.Parameter(za, name="za"), dc.Parameter(zv, name="zv")
    term = loss_fn(pa.tensor(), pv.tensor(), targets, tau)
    sigmas = {"infonce": dc.Parameter([[sigma]], name="sigma.infonce", decay=False)}
    total, _ = total_loss(LossBundle(infonce=term), sigmas, epoch, warmup_epochs=5)
    dc.backward(total)
    return term.value, pa.grad, pv.grad


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 8), mined=st.booleans(), k=st.integers(1, 6),
       tau=st.sampled_from([0.01, 0.05, 0.2, 1.0]), epoch=st.sampled_from([1, 6]),
       sigma=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_soft_infonce_bit_identical_to_composed(n, d, mined, k, tau, epoch, sigma, seed):
    rng = np.random.default_rng(seed)
    za, zv, ta, tv = (unit_rows(rng.normal(size=(n, d))) for _ in range(4))
    targets = mine_affinities(ta, tv, k=k, tau=tau) if mined else identity_affinities(n)
    got = infonce_value_and_grads(soft_infonce, za, zv, targets, tau, epoch, sigma)
    want = infonce_value_and_grads(composed_soft_infonce, za, zv, targets, tau, epoch, sigma)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(bits(g), bits(w))


def test_soft_infonce_is_one_node_with_the_closed_form_gradient():
    rng = np.random.default_rng(15)
    n, tau = 7, 0.1
    za, zv = unit_rows(rng.normal(size=(n, 4))), unit_rows(rng.normal(size=(n, 4)))
    targets = mine_affinities(unit_rows(rng.normal(size=(n, 4))), unit_rows(rng.normal(size=(n, 4))),
                              k=3, tau=tau)
    pa, pv = dc.Parameter(za, name="za"), dc.Parameter(zv, name="zv")
    loss = soft_infonce(pa.tensor(), pv.tensor(), targets, tau)
    assert [p.op for p in loss._parents] == ["param", "param"]
    dc.backward(loss)

    def softmax(lg):
        e = np.exp(lg - lg.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    logits = za @ zv.T
    d = ((softmax(logits / tau) - targets.w_a2v)
         + (softmax(logits.T / tau) - targets.w_v2a).T) / (2 * n * tau)
    np.testing.assert_allclose(pa.grad, d @ zv, atol=1e-12)
    np.testing.assert_allclose(pv.grad, d.T @ za, atol=1e-12)


def test_soft_infonce_identity_equals_single_positive():
    rng = np.random.default_rng(7)
    za = unit_rows(rng.normal(size=(9, 6)))
    zv = unit_rows(rng.normal(size=(9, 6)))
    tau = 0.05
    loss = soft_infonce(dc.const(za), dc.const(zv), identity_affinities(9), tau)

    logits = za @ zv.T / tau
    def ce_diag(lg):
        m = lg.max(axis=1, keepdims=True)
        log_sm = lg - (m + np.log(np.exp(lg - m).sum(axis=1, keepdims=True)))
        return -np.mean(np.diag(log_sm))
    expected = 0.5 * (ce_diag(logits) + ce_diag(logits.T))
    assert abs(loss.value[0, 0] - expected) < 1e-12


def test_soft_infonce_mined_targets_manual():
    rng = np.random.default_rng(8)
    za = unit_rows(rng.normal(size=(6, 4)))
    zv = unit_rows(rng.normal(size=(6, 4)))
    targets = mine_affinities(za, zv, k=3, tau=0.05)
    loss = soft_infonce(dc.const(za), dc.const(zv), targets, 0.05).value[0, 0]

    def direction(w, lg):
        m = lg.max(axis=1, keepdims=True)
        log_sm = lg - (m + np.log(np.exp(lg - m).sum(axis=1, keepdims=True)))
        return -np.mean((w * log_sm).sum(axis=1))
    logits = za @ zv.T / 0.05
    expected = 0.5 * (direction(targets.w_a2v, logits) + direction(targets.w_v2a, logits.T))
    assert abs(loss - expected) < 1e-12


def test_soft_infonce_rejects_bad_weights():
    rng = np.random.default_rng(9)
    za = unit_rows(rng.normal(size=(4, 3)))
    zv = unit_rows(rng.normal(size=(4, 3)))
    targets = identity_affinities(4)
    targets.w_a2v[0, 0] = 0.5  # row no longer sums to 1
    with pytest.raises(ValueError):
        soft_infonce(dc.const(za), dc.const(zv), targets, 0.05)
    with pytest.raises(ValueError):
        soft_infonce(dc.const(za), dc.const(zv), identity_affinities(4), 0.0)


def test_soft_infonce_gradient():
    pa = dc.Parameter(np.random.default_rng(10).normal(size=(5, 4)), name="za")
    pv = dc.Parameter(np.random.default_rng(11).normal(size=(5, 4)), name="zv")
    targets = identity_affinities(5)

    def fn():
        return soft_infonce(dc.l2_normalize_rows(pa.tensor()),
                            dc.l2_normalize_rows(pv.tensor()), targets, 0.2)

    assert dc.grad_check(fn, [pa, pv], max_coords=6) < 1e-5


# ---------------------------------------------------------------------------
# reconstruction and distillation
# ---------------------------------------------------------------------------

def test_rec_loss_manual():
    rng = np.random.default_rng(12)
    xa, xv = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
    xa_hat = dc.const(rng.normal(size=(4, 3)))
    xv_hat = dc.const(rng.normal(size=(4, 5)))
    loss = rec_loss(xa, xv, xa_hat, xv_hat).value[0, 0]
    expected = 0.5 * (((xa_hat.value - xa) ** 2).sum() / 4 + ((xv_hat.value - xv) ** 2).sum() / 4)
    assert abs(loss - expected) < 1e-12


def test_distill_zero_at_equality_and_teacher_gradient_free():
    p = dc.Parameter(np.random.default_rng(13).normal(size=(4, 3)), name="z")
    student = p.tensor()
    teacher = p.tensor()
    loss = distill_loss(student, student, teacher, teacher)
    assert loss.value[0, 0] == 0.0

    q = dc.Parameter(np.random.default_rng(14).normal(size=(4, 3)), name="t")
    loss = distill_loss(p.tensor(), p.tensor(), q.tensor(), q.tensor())
    dc.backward(loss)
    assert np.all(q.grad == 0.0)
    assert np.any(p.grad != 0.0)


# ---------------------------------------------------------------------------
# combination
# ---------------------------------------------------------------------------

def make_bundle(values):
    return LossBundle(rec=dc.const([[values[0]]]), cca=dc.const([[values[1]]]),
                      infonce=dc.const([[values[2]]]), dis=dc.const([[values[3]]]))


def sigma_set(vals=(0.0, 0.0, 0.0, 0.0)):
    names = ("rec", "cca", "infonce", "dis")
    return {n: dc.Parameter(np.array([[v]]), name=f"sigma.{n}", decay=False)
            for n, v in zip(names, vals)}


def test_warmup_schedule_values():
    assert warmup_weight("rec", 3) == 1.0
    assert warmup_weight("cca", 3) == pytest.approx(0.3)
    assert warmup_weight("dis", 3) == 0.1
    assert warmup_weight("infonce", 3) == 0.05


def test_total_loss_warmup_combination_and_frozen_sigmas():
    bundle = make_bundle([2.0, -1.5, 0.7, 0.4])
    sigmas = sigma_set((0.3, -0.2, 0.1, 0.0))
    total, weights = total_loss(bundle, sigmas, epoch=3, warmup_epochs=5)
    expected = 1.0 * 2.0 + 0.3 * -1.5 + 0.05 * 0.7 + 0.1 * 0.4
    assert abs(total.value[0, 0] - expected) < 1e-12
    assert weights == {"rec": 1.0, "cca": pytest.approx(0.3),
                       "infonce": 0.05, "dis": 0.1}
    dc.backward(total)
    for sig in sigmas.values():
        assert np.all(sig.grad == 0.0)


def test_total_loss_uncertainty_weighting_and_sigma_gradient():
    values = [2.0, -1.5, 0.7, 0.4]
    sig_values = (0.3, -0.2, 0.1, 0.0)
    bundle = make_bundle(values)
    sigmas = sigma_set(sig_values)
    total, weights = total_loss(bundle, sigmas, epoch=6, warmup_epochs=5)
    expected = sum(np.exp(-s) * v + s for s, v in zip(sig_values, values))
    assert abs(total.value[0, 0] - expected) < 1e-12
    for name, s in zip(("rec", "cca", "infonce", "dis"), sig_values):
        assert weights[name] == pytest.approx(np.exp(-s))
    dc.backward(total)
    # d/d sigma of exp(-sigma) L + sigma is 1 - exp(-sigma) L
    for (name, s, v) in zip(("rec", "cca", "infonce", "dis"), sig_values, values):
        assert sigmas[name].grad[0, 0] == pytest.approx(1.0 - np.exp(-s) * v, abs=1e-12)


def test_total_loss_skips_inactive_terms():
    bundle = LossBundle(rec=dc.const([[3.0]]))
    total, weights = total_loss(bundle, sigma_set(), epoch=1)
    assert total.value[0, 0] == pytest.approx(3.0)
    assert set(weights) == {"rec"}


def test_total_loss_validation():
    with pytest.raises(ValueError):
        total_loss(LossBundle(), sigma_set(), epoch=1)
    with pytest.raises(ValueError):
        total_loss(make_bundle([1, 1, 1, 1]), sigma_set(), epoch=0)


def test_bundle_values_default_zero():
    b = LossBundle(rec=dc.const([[1.5]]))
    assert b.values() == {"rec": 1.5, "cca": 0.0, "infonce": 0.0, "dis": 0.0}
