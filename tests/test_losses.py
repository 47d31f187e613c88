"""Unit tests for the four objectives and their combination.

The canonical-correlation term shares its whitening with the closed-form
linear CCA fit, and its value is pinned to the fit's bit for bit; a scipy
generalized-eigenvalue solve is its independent reference. The
contrastive node reads k neighbours per anchor; it is checked against the
dense form, a chain of row log-softmax tape nodes over the n x n weight
rows, at stated tolerances. The reconstruction, distillation and total nodes
are checked bit for bit against the chains of ``reference_ops`` primitives
they replaced.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc
from hscmae import cca_linear
from hscmae.losses import (CcaConfig, LossBundle, dcca_loss, distill_loss, rec_loss,
                           soft_infonce, total_loss, warmup_weight)
from hscmae.model import LOSS_NAMES
from hscmae.teacher import AffinityTargets, identity_affinities, mine_affinities

import reference_ops as ops
from conftest import arena_param


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


def test_dcca_value_is_the_linear_fit_rho_sum_bit_for_bit():
    # criterion 2's inputs; the loss and the fit share cca_linear.whiten
    for seed in range(50):
        rng = np.random.default_rng(seed)
        za = rng.normal(size=(60, 5))
        zv = 0.6 * za @ rng.normal(size=(5, 5)) + 0.4 * rng.normal(size=(60, 5))
        loss = dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=5, eps=1e-4))
        rho_sum = cca_linear.fit(za, zv, p=5, eps=1e-4).rho.sum()
        assert bits(loss.value[0, 0]) == bits(-rho_sum), f"seed {seed}"


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
    pa = arena_param(np.random.default_rng(5).normal(size=(12, 4)), name="za")
    pv = arena_param(np.random.default_rng(6).normal(size=(12, 3)), name="zv")
    cfg = CcaConfig(r=3, eps=1e-2)
    err = dc.grad_check(lambda: dcca_loss(pa.tensor(), pv.tensor(), cfg),
                        [pa, pv], max_coords=8)
    assert err < 1e-4


def test_dcca_rank_deficient_covariance_raises_like_linear_fit():
    # constant inputs leave only the regularizer, here far below the rank tolerance
    za, zv = np.ones((10, 3)), np.ones((10, 3))
    with pytest.raises(dc.NumericError, match="^dcca_loss: covariance rank-deficient after regularization"):
        dcca_loss(dc.const(za), dc.const(zv), CcaConfig(r=3, eps=1e-300))
    with pytest.raises(cca_linear.CcaFitError, match="^covariance rank-deficient after regularization"):
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
    """The dense contrastive loss composed from 13 tape nodes (transpose,
    matmul, row log-softmax, product with the constant n x n weight rows,
    sum, scale and add), the reference oracle for the single node."""
    n = za.shape[0]
    logits = dc.matmul(za, _transpose(zv))
    w_a, w_v = (dc.const(ops.dense_rows(pair)) for pair in (targets.a2v, targets.v2a))
    half_a = ops.scale(ops.sum_all(ops.mul(w_a, _row_log_softmax(logits, tau))), -1.0 / n)
    half_v = ops.scale(ops.sum_all(ops.mul(w_v, _row_log_softmax(_transpose(logits), tau))), -1.0 / n)
    return ops.scale(ops.add(half_a, half_v), 0.5)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def infonce_value_and_grads(loss_fn, za, zv, targets, tau, epoch, sigma):
    """Loss value and both input gradients, with the upstream gradient that
    total_loss sends: the warm-up weight at epoch 1, exp(-sigma) at epoch 6."""
    pa, pv = arena_param(za, name="za"), arena_param(zv, name="zv")
    term = loss_fn(pa.tensor(), pv.tensor(), targets, tau)
    sigmas = {"infonce": arena_param([[sigma]], name="sigma.infonce", decay=False)}
    total, _ = total_loss(LossBundle(infonce=term), sigmas, epoch, warmup_epochs=5)
    dc.backward(total)
    return term.value, pa.grad, pv.grad


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 8), mined=st.booleans(), k=st.integers(1, 6),
       tau=st.sampled_from([0.01, 0.05, 0.2, 1.0]), epoch=st.sampled_from([1, 6]),
       sigma=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1))
def test_soft_infonce_matches_the_dense_composed_oracle(n, d, mined, k, tau, epoch, sigma, seed):
    """Only the summation order differs from the dense chain: the value
    agrees to 1e-12 relative, and each gradient entry to 1e-12 times the
    upstream gradient / (n tau), the scale of the gradients. The value is
    >= 0 exactly, as perfbench's step check requires."""
    rng = np.random.default_rng(seed)
    za, zv, ta, tv = (unit_rows(rng.normal(size=(n, d))) for _ in range(4))
    targets = mine_affinities(ta, tv, k=k, tau=tau) if mined else identity_affinities(n)
    got = infonce_value_and_grads(soft_infonce, za, zv, targets, tau, epoch, sigma)
    want = infonce_value_and_grads(composed_soft_infonce, za, zv, targets, tau, epoch, sigma)
    assert got[0][0, 0] >= 0.0
    np.testing.assert_allclose(got[0], want[0], rtol=1e-12, atol=0.0)
    upstream = warmup_weight("infonce", epoch) if epoch <= 5 else np.exp(-sigma)
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * upstream / (n * tau))


def test_soft_infonce_is_one_node_with_the_closed_form_gradient():
    rng = np.random.default_rng(15)
    n, tau = 7, 0.1
    za, zv = unit_rows(rng.normal(size=(n, 4))), unit_rows(rng.normal(size=(n, 4)))
    targets = mine_affinities(unit_rows(rng.normal(size=(n, 4))), unit_rows(rng.normal(size=(n, 4))),
                              k=3, tau=tau)
    pa, pv = arena_param(za, name="za"), arena_param(zv, name="zv")
    loss = soft_infonce(pa.tensor(), pv.tensor(), targets, tau)
    assert [p.op for p in loss._parents] == ["param", "param"]
    dc.backward(loss)

    def softmax(lg):
        e = np.exp(lg - lg.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    logits = za @ zv.T
    d = ((softmax(logits / tau) - ops.dense_rows(targets.a2v))
         + (softmax(logits.T / tau) - ops.dense_rows(targets.v2a)).T) / (2 * n * tau)
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
    expected = 0.5 * (direction(ops.dense_rows(targets.a2v), logits)
                      + direction(ops.dense_rows(targets.v2a), logits.T))
    assert abs(loss - expected) < 1e-12


def test_soft_infonce_rejects_bad_weights():
    rng = np.random.default_rng(9)
    za = unit_rows(rng.normal(size=(4, 3)))
    zv = unit_rows(rng.normal(size=(4, 3)))
    targets = identity_affinities(4)
    targets.a2v[1][0, 0] = 0.5  # row no longer sums to 1
    with pytest.raises(ValueError, match="a2v weight rows do not sum to 1"):
        soft_infonce(dc.const(za), dc.const(zv), targets, 0.05)
    k2 = mine_affinities(za, zv, k=2, tau=0.05)
    for bad in (AffinityTargets(a2v=k2.a2v, v2a=(k2.v2a[0][:, :1], k2.v2a[1])),
                AffinityTargets(a2v=identity_affinities(3).a2v, v2a=k2.v2a)):
        with pytest.raises(dc.ShapeError, match="soft_infonce: (a2v|v2a) targets have shapes"):
            soft_infonce(dc.const(za), dc.const(zv), bad, 0.05)
    with pytest.raises(ValueError):
        soft_infonce(dc.const(za), dc.const(zv), identity_affinities(4), 0.0)


def test_soft_infonce_gradient():
    pa = arena_param(np.random.default_rng(10).normal(size=(5, 4)), name="za")
    pv = arena_param(np.random.default_rng(11).normal(size=(5, 4)), name="zv")
    targets = identity_affinities(5)

    def fn():
        return soft_infonce(dc.l2_normalize_rows(pa.tensor()),
                            dc.l2_normalize_rows(pv.tensor()), targets, 0.2)

    assert dc.grad_check(fn, [pa, pv], max_coords=6) < 1e-5


# ---------------------------------------------------------------------------
# reconstruction and distillation
# ---------------------------------------------------------------------------

def composed_rec_loss(xa, xv, xa_hat, xv_hat):
    """The reconstruction loss composed from four tape nodes (two mse, add
    and scale), the reference oracle for the single node."""
    xa = xa if isinstance(xa, dc.Tensor) else dc.const(xa)
    xv = xv if isinstance(xv, dc.Tensor) else dc.const(xv)
    return ops.scale(ops.add(ops.mse(xa_hat, xa), ops.mse(xv_hat, xv)), 0.5)


def composed_distill_loss(z_mae_a, z_mae_v, z_t_a, z_t_v):
    """The distillation loss composed from four tape nodes behind constant
    float64 copies of the teacher's embeddings, the reference oracle for the
    single node, which upcasts the teacher rows itself."""
    def freeze(z):
        return dc.const(np.asarray(z.value if isinstance(z, dc.Tensor) else z, dtype=np.float64))

    return ops.scale(ops.add(ops.mse(z_mae_a, freeze(z_t_a)), ops.mse(z_mae_v, freeze(z_t_v))), 0.5)


def test_paired_mse_shapes_must_match():
    pred = dc.const(np.zeros((4, 3), dtype=np.float32))
    with pytest.raises(dc.ShapeError, match="rec_loss"):
        rec_loss(np.zeros((4, 2)), np.zeros((4, 3)), pred, pred)
    with pytest.raises(dc.ShapeError, match="distill_loss"):
        distill_loss(pred, pred, np.zeros((4, 3)), dc.const(np.zeros((5, 3))))

def test_rec_loss_manual():
    rng = np.random.default_rng(12)
    xa, xv = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
    xa_hat = dc.const(rng.normal(size=(4, 3)))
    xv_hat = dc.const(rng.normal(size=(4, 5)))
    loss = rec_loss(xa, xv, xa_hat, xv_hat).value[0, 0]
    expected = 0.5 * (((xa_hat.value - xa) ** 2).sum() / 4 + ((xv_hat.value - xv) ** 2).sum() / 4)
    assert abs(loss - expected) < 1e-12


def test_distill_zero_at_equality_and_teacher_gradient_free():
    p = arena_param(np.random.default_rng(13).normal(size=(4, 3)), name="z")
    student = p.tensor()
    teacher = p.tensor()
    loss = distill_loss(student, student, teacher, teacher)
    assert loss.value[0, 0] == 0.0

    q = arena_param(np.random.default_rng(14).normal(size=(4, 3)), name="t")
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
    return {n: arena_param(np.array([[v]]), name=f"sigma.{n}", decay=False)
            for n, v in zip(names, vals)}


def composed_total_loss(bundle, sigmas, epoch, warmup_epochs):
    """The weighted total composed from scale, exp, mul and add nodes, four
    per active term after warm-up and one during it, plus an add per further
    term: the reference oracle for the single node."""
    active = [(name, term) for name, term in bundle.items() if term is not None]
    total = None
    weights = {}
    for name, term in active:
        if epoch <= warmup_epochs:
            w = warmup_weight(name, epoch)
            piece = ops.scale(term, w)
            weights[name] = w
        else:
            sig = sigmas[name].tensor()
            piece = ops.add(ops.mul(ops.exp(ops.scale(sig, -1.0)), term), sig)
            weights[name] = float(np.exp(-sigmas[name].value[0, 0]))
        total = piece if total is None else ops.add(total, piece)
    return total, weights


def loss_heads_run(heads, data, active, epoch, warmup_epochs, target_tensors):
    """Values, effective weights and gradients of the active loss terms and
    their total, built by ``heads`` = (rec_loss, distill_loss, total_loss),
    with ``data["upstream"]`` as the total's incoming gradient.

    Predictions are float32 leaves tied to float64 parameters, as in the
    student passes; canonical-correlation and contrastive terms are 1 x 1
    parameter leaves. With ``target_tensors`` the reconstruction targets are
    constant tensors and the teacher embeddings parameter leaves, which must
    get no gradient."""
    rec, dis, total_fn = heads
    params = {}

    def leaf(name, value, dtype=np.float32):
        p = params[name] = arena_param(value, name=name)
        return dc.Tensor(p.value.astype(dtype), op="param", param=p)

    bundle = LossBundle()
    if "rec" in active:
        xa, xv = (data[k] if not target_tensors else dc.const(data[k]) for k in ("xa", "xv"))
        bundle.rec = rec(xa, xv, leaf("xa_hat", data["xa_hat"]), leaf("xv_hat", data["xv_hat"]))
    if "dis" in active:
        ta, tv = (leaf(k, data[k], data[k].dtype) if target_tensors else data[k] for k in ("ta", "tv"))
        bundle.dis = dis(leaf("za", data["za"]), leaf("zv", data["zv"]), ta, tv)
    for name in ("cca", "infonce"):
        if name in active:
            setattr(bundle, name, leaf(name, data[name], np.float64))
    sigmas = sigma_set(data["sigmas"])
    total, weights = total_fn(bundle, sigmas, epoch, warmup_epochs)
    dc.backward(ops.mul(total, dc.const([[data["upstream"]]])))
    values = [t.value for _, t in bundle.items() if t is not None] + [total.value]
    grads = [p.grad for p in params.values()] + [s.grad for s in sigmas.values()]
    return values, weights, grads, params


NODE_HEADS = (rec_loss, distill_loss, total_loss)
COMPOSED_HEADS = (composed_rec_loss, composed_distill_loss, composed_total_loss)


@settings(max_examples=200, deadline=None)
@given(active=st.sets(st.sampled_from(LOSS_NAMES), min_size=1), n=st.integers(1, 30),
       da=st.integers(1, 6), dv=st.integers(1, 6),
       target_dtype=st.sampled_from([np.float32, np.float64]), target_tensors=st.booleans(),
       epoch=st.integers(1, 8), warmup_epochs=st.integers(0, 6),
       sigmas=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
       terms=st.tuples(st.floats(-8.0, 0.0), st.floats(0.0, 8.0)),
       upstream=st.one_of(st.just(1.0), st.floats(-4.0, 4.0)), seed=st.integers(0, 2**32 - 1))
def test_loss_heads_bit_identical_to_composed(active, n, da, dv, target_dtype, target_tensors, epoch,
                                              warmup_epochs, sigmas, terms, upstream, seed):
    rng = np.random.default_rng(seed)
    data = {"sigmas": sigmas, "cca": [[terms[0]]], "infonce": [[terms[1]]], "upstream": upstream}
    for key, d in (("xa", da), ("xv", dv), ("ta", da), ("tv", dv)):
        data[key] = rng.normal(size=(n, d)).astype(target_dtype)
    for key, d in (("xa_hat", da), ("xv_hat", dv), ("za", da), ("zv", dv)):
        data[key] = rng.normal(size=(n, d)).astype(np.float32)
    got = loss_heads_run(NODE_HEADS, data, active, epoch, warmup_epochs, target_tensors)
    want = loss_heads_run(COMPOSED_HEADS, data, active, epoch, warmup_epochs, target_tensors)
    assert got[1] == want[1]
    for g, w in zip(got[0] + got[2], want[0] + want[2]):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(bits(g), bits(w))
    for name in ("ta", "tv"):
        if name in got[3]:
            assert not got[3][name].grad.any()


@pytest.mark.parametrize("target_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("head", [rec_loss, distill_loss])
def test_paired_mse_is_one_node_returning_gradients_in_the_predictions_dtype(head, target_dtype):
    rng = np.random.default_rng(16)
    preds = [dc.Tensor(rng.normal(size=(5, d)).astype(np.float32), op="param",
                       param=arena_param(np.zeros((5, d)))) for d in (3, 4)]
    targets = [rng.normal(size=(5, d)).astype(target_dtype) for d in (3, 4)]
    loss = head(*targets, *preds) if head is rec_loss else head(*preds, *targets)
    assert loss.op == head.__name__ and loss.value.dtype == np.float64
    assert list(loss._parents) == preds
    grads = loss._backward(np.ones((1, 1)))
    assert [g.dtype for g in grads] == [np.dtype(np.float32)] * 2


def test_distill_loss_upcasts_float32_teacher_rows():
    """Float32 teacher rows give the value and gradients of their float64
    copies, bit for bit: the head stays float64 whoever calls it."""
    rng = np.random.default_rng(17)
    preds = [dc.Tensor(rng.normal(size=(6, d)).astype(np.float32), op="param",
                       param=arena_param(np.zeros((6, d)))) for d in (3, 4)]
    targets = [rng.normal(size=(6, d)).astype(np.float32) for d in (3, 4)]
    got = distill_loss(*preds, *targets)
    want = distill_loss(*preds, *(t.astype(np.float64) for t in targets))
    assert got.value.dtype == np.float64
    np.testing.assert_array_equal(bits(got.value), bits(want.value))
    g = np.full((1, 1), 0.7)
    for a, b in zip(got._backward(g), want._backward(g)):
        assert a.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


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
    total, weights = total_loss(bundle, sigma_set(), epoch=1, warmup_epochs=5)
    assert total.value[0, 0] == pytest.approx(3.0)
    assert set(weights) == {"rec"}


def test_total_loss_validation():
    with pytest.raises(ValueError):
        total_loss(LossBundle(), sigma_set(), epoch=1, warmup_epochs=5)
    with pytest.raises(ValueError):
        total_loss(make_bundle([1, 1, 1, 1]), sigma_set(), epoch=0, warmup_epochs=5)


@pytest.mark.parametrize("values, sigmas, epoch", [
    ([2.0, -1.5, 0.7, 0.4], (-800.0, 0.0, 0.0, 0.0), 6),   # exp(800) overflows
    ([0.0, -1.5, 0.7, 0.4], (-800.0, 0.0, 0.0, 0.0), 6),   # inf * 0 is NaN
    ([1.5e308, 1.5e308, 0.7, 0.4], (0.0, 0.0, 0.0, 0.0), 5),  # warm-up sum overflows
], ids=("overflow", "nan", "warm-up"))
def test_non_finite_weighted_total_names_terms_and_sigmas(values, sigmas, epoch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dc.NumericError) as info:
            total_loss(make_bundle(values), sigma_set(sigmas), epoch=epoch, warmup_epochs=5)
    raw = dict(zip(LOSS_NAMES, values))
    assert str(info.value) == (f"total_loss: non-finite weighted total at epoch {epoch}; "
                               f"terms {raw}, sigmas {dict(zip(LOSS_NAMES, sigmas))}")


def test_bundle_values_default_zero():
    b = LossBundle(rec=dc.const([[1.5]]))
    assert b.values() == {"rec": 1.5, "cca": 0.0, "infonce": 0.0, "dis": 0.0}
