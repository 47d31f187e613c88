"""The four training objectives and their uncertainty-weighted combination.

Each loss head, and the weighted total, is one tape node with a closed-form
gradient. Reconstruction and distillation share one node, the mean squared
row distance to constant targets averaged over the two modalities. The
canonical-correlation head whitens through ``cca_linear.whiten``, the linear
fit's own covariances and SVD, so its value is minus the fit's correlation
sum, bit for bit.

Every loss value is a float64 1 x 1. The canonical-correlation,
contrastive and distillation heads compute in float64 on their n x r inputs
whatever those inputs' dtype (the covariances, ``eigh`` and ``svd`` among
them) and return each input gradient in that input's dtype. Reconstruction
computes in the wider dtype of the decoder output and its target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cca_linear, diffcore as dc


@dataclass(frozen=True)
class CcaConfig:
    r: int = 32          # canonical directions kept (full retrieval dim)
    eps: float = cca_linear.EPS  # covariance regularizer, shared with the linear fit

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("CcaConfig: r must be >= 1")
        if self.eps <= 0:
            raise ValueError("CcaConfig: eps must be positive")


@dataclass
class LossBundle:
    """Per-term scalar tape nodes; None marks an inactive term."""
    rec: dc.Tensor | None = None
    cca: dc.Tensor | None = None
    infonce: dc.Tensor | None = None
    dis: dc.Tensor | None = None

    def items(self):
        return [(n, getattr(self, n)) for n in ("rec", "cca", "infonce", "dis")]

    def values(self):
        return {n: (float(t.value[0, 0]) if t is not None else 0.0) for n, t in self.items()}


def _float64(*tensors):
    """The tensors' values as float64 arrays, for a head to compute on."""
    return [t.value.astype(np.float64, copy=False) for t in tensors]


def _like(t, grad):
    """``grad`` in the dtype of the input tensor ``t`` it belongs to."""
    return grad.astype(t.value.dtype, copy=False)


def dcca_loss(za, zv, config):
    """Negative sum of the top-r canonical correlations of the two batches.

    Forward: ``cca_linear.whiten``, the linear fit's own centring,
    regularized covariances and SVD of T = S_aa^{-1/2} S_av S_vv^{-1/2},
    whose singular values are the canonical correlations; its CcaFitError
    becomes a NumericError. Backward: closed-form gradient through whitening.
    """
    n, da = za.shape
    dv = zv.shape[1]
    if zv.shape[0] != n:
        raise dc.ShapeError(f"dcca_loss: {za.shape} vs {zv.shape}")
    if n < 2:
        raise ValueError("dcca_loss: need at least 2 samples")
    r = config.r
    if r > min(da, dv):
        raise ValueError(f"dcca_loss: r={r} exceeds min embedding dim {min(da, dv)}")

    try:
        _, _, ha, hv, k_aa, k_vv, u, sv, vt = cca_linear.whiten(*_float64(za, zv), config.eps)
    except cca_linear.CcaFitError as exc:
        raise dc.NumericError(f"dcca_loss: {exc}") from None
    corr = float(sv[:r].sum())

    ur = u[:, :r]
    vr = vt[:r].T
    sr = sv[:r]
    d_av = k_aa @ ur @ vr.T @ k_vv                  # d corr / d S_av
    d_aa = -0.5 * k_aa @ (ur * sr) @ ur.T @ k_aa    # d corr / d S_aa
    d_vv = -0.5 * k_vv @ (vr * sr) @ vr.T @ k_vv
    denom = n - 1
    grad_a = (2.0 * ha @ d_aa + hv @ d_av.T) / denom
    grad_v = (2.0 * hv @ d_vv + ha @ d_av) / denom

    def bwd(g):
        s = g[0, 0]
        return _like(za, -s * grad_a), _like(zv, -s * grad_v)

    return dc._node("dcca", [[-corr]], (za, zv), bwd)


def soft_infonce(za, zv, targets, tau):
    """Symmetric affinity-weighted cross-modal InfoNCE as one tape node.

    Logits L = za zv^T are cosine similarities of unit rows. Each anchor's
    cross-entropy target is its mined neighbourhood (``AffinityTargets``: m
    distinct columns per row and their weights W), over softmax(L/tau) rows
    (a2v) or softmax(L^T/tau) rows (v2a), and the two directions are averaged.
    With z = L/tau, a row's cross-entropy is -sum_j W_j (z_j - logsumexp(z))
    over its m columns; every term is <= 0 in floating point, so the loss is
    >= 0. Gradient: dL = (D_a2v + D_v2a^T) / (2 n tau), where D is the
    softmax P scaled by each row's weight sum, minus W scattered at its
    columns; dza = dL zv and dzv = dL^T za.
    """
    if tau <= 0:
        raise ValueError("soft_infonce: temperature must be positive")
    n = za.shape[0]
    if zv.shape != za.shape:
        raise dc.ShapeError(f"soft_infonce: {za.shape} vs {zv.shape}")

    za_v, zv_v = _float64(za, zv)
    logits = za_v @ zv_v.T
    c = -1.0 / n
    halves, saved = [], []
    for name, lg, (idx, w) in (("a2v", logits, targets.a2v), ("v2a", logits.T, targets.v2a)):
        if idx.shape != w.shape or w.ndim != 2 or w.shape[0] != n:
            raise dc.ShapeError(f"soft_infonce: {name} targets have shapes {idx.shape} and {w.shape}")
        if np.abs(w.sum(axis=1) - 1.0).max() > 1e-6:
            raise ValueError(f"soft_infonce: {name} weight rows do not sum to 1")
        p = lg / tau  # z, then in place the softmax rows from one exponential pass
        zmax = p.max(axis=1, keepdims=True)
        y = np.take_along_axis(p, idx, axis=1)
        p -= zmax
        np.exp(p, out=p)
        sums = p.sum(axis=1, keepdims=True)
        y -= zmax + np.log(sums)
        p /= sums
        halves.append(float((w * y).sum()) * c)
        saved.append((idx, w, p))
    loss = (halves[0] + halves[1]) * 0.5
    rows = np.arange(n)[:, None]

    def bwd(g):
        for idx, w, p in saved:  # in place: only this backward reads the softmax rows
            p *= w.sum(axis=1, keepdims=True)
            p[rows, idx] -= w
        d = saved[0][2]
        d += saved[1][2].T
        d *= (g * -0.5 * c)[0, 0] / tau
        return _like(za, d @ zv_v), _like(zv, (za_v.T @ d).T)

    return dc._node("soft_infonce", [[loss]], (za, zv), bwd)


def _paired_mse(op, pred_a, pred_v, target_a, target_v):
    """0.5 * (mse_a + mse_v) as one node, where each mse is the mean over
    rows of the squared L2 row distance of prediction to target, computed in
    the wider dtype of the two. Targets are arrays or Tensors, taken as
    constants: no gradient reaches them. Values and gradients match, bit
    for bit, the chain of two mse nodes, an add and a scale by 0.5 that the
    tests keep as the oracle."""
    diffs = []
    for pred, target in ((pred_a, target_a), (pred_v, target_v)):
        target = target.value if isinstance(target, dc.Tensor) else dc.const(target).value
        if pred.shape != target.shape:
            raise dc.ShapeError(f"{op}: {pred.shape} vs {target.shape}")
        diffs.append(pred.value - target)
    mse_a, mse_v = (float((d * d).sum() / d.shape[0]) for d in diffs)

    def bwd(g):
        s = float((g * 0.5)[0, 0]) * 2.0
        return tuple((s / d.shape[0] * d).astype(p.value.dtype, copy=False)
                     for p, d in zip((pred_a, pred_v), diffs))

    return dc._node(op, [[(mse_a + mse_v) * 0.5]], (pred_a, pred_v), bwd)


def rec_loss(xa, xv, xa_hat, xv_hat):
    """Full-vector reconstruction MSE: mean-per-sample squared L2 error,
    averaged over the two modalities."""
    return _paired_mse("rec_loss", xa_hat, xv_hat, xa, xv)


def distill_loss(z_mae_a, z_mae_v, z_t_a, z_t_v):
    """Mean squared row distance of student embeddings to (gradient-free)
    teacher embeddings, averaged over modalities; computed in float64, the
    teacher rows upcast here whatever their dtype."""
    z_t_a, z_t_v = (np.asarray(z.value if isinstance(z, dc.Tensor) else z, dtype=np.float64)
                    for z in (z_t_a, z_t_v))
    return _paired_mse("distill_loss", z_mae_a, z_mae_v, z_t_a, z_t_v)


def warmup_weight(name, epoch):
    return {"rec": 1.0, "cca": 0.1 * epoch, "dis": 0.1, "infonce": 0.05}[name]


def _weighted(bundle, sigmas, epoch, warmup_epochs):
    """(names, terms, factors, addends) of the bundle's active terms in
    bundle order. A factor is the term's weight in the weighted total, and
    so the gradient the total sends the term per unit of its own: through
    epoch ``warmup_epochs`` the warm-up weight, with addend factor * term;
    after, exp(-sigma) as a 1 x 1 array (inf where it overflows), with
    addend factor * term + sigma."""
    active = [(name, term) for name, term in bundle.items() if term is not None]
    names = [name for name, _ in active]
    terms = [term for _, term in active]
    with np.errstate(over="ignore", invalid="ignore"):
        if epoch <= warmup_epochs:
            factors = [warmup_weight(name, epoch) for name in names]
            addends = [t.value * w for t, w in zip(terms, factors)]
        else:
            sigs = [sigmas[name].value for name in names]
            factors = [np.exp(s * -1.0) for s in sigs]
            addends = [e * t.value + s for e, t, s in zip(factors, terms, sigs)]
    return names, terms, factors, addends


def weighted_terms(bundle, sigmas, epoch, warmup_epochs):
    """A 1 x 1 root over the bundle's active terms whose backward sends each
    term the gradient ``total_loss`` sends it and the sigma leaves nothing,
    so that the terms' tape can be spent before the total exists;
    ``total_loss``, given the spent terms as constants, then sends the sigma
    leaves theirs. Its value is 0: the terms count in that total, not here.
    A non-finite addend makes that total non-finite, and ``total_loss``
    raises naming every term, so the root then takes no parents and
    back-propagates nothing."""
    _, terms, factors, addends = _weighted(bundle, sigmas, epoch, warmup_epochs)
    if not np.isfinite(addends).all():
        terms = []

    def bwd(g):
        return [g * f for f in factors]

    return dc._node("weighted_terms", np.zeros((1, 1)), terms, bwd)


def total_loss(bundle, sigmas, epoch, warmup_epochs):
    """Combine the active terms as one node.

    Epochs 1..warmup_epochs use the fixed schedule (rec=1, cca=0.1*epoch,
    dis=0.1, infonce=0.05) with the log-variance parameters frozen; later
    epochs use sum_m exp(-sigma_m) L_m + sigma_m over the active terms, with
    the sigma leaves as parents. Pieces are summed in bundle order; values
    and gradients match, bit for bit, the chain of scale, exp, mul and add
    nodes that the tests keep as the oracle. A non-finite total raises
    NumericError naming the raw terms and the sigma values.

    Returns (scalar node, effective-weight dict for logging).
    """
    if epoch < 1:
        raise ValueError("total_loss: epoch starts at 1")
    names, terms, factors, addends = _weighted(bundle, sigmas, epoch, warmup_epochs)
    if not names:
        raise ValueError("total_loss: no active loss terms")

    warm = epoch <= warmup_epochs
    sigs = [] if warm else [sigmas[name].tensor() for name in names]
    with np.errstate(over="ignore", invalid="ignore"):
        if warm:
            weights = dict(zip(names, factors))
        else:
            weights = {name: float(np.exp(-sigmas[name].value[0, 0])) for name in names}
        total = sum(addends[1:], addends[0])
    if not np.isfinite(total).all():
        raw = {name: float(t.value[0, 0]) for name, t in zip(names, terms)}
        sig_values = {name: float(sigmas[name].value[0, 0]) for name in names}
        raise dc.NumericError(f"total_loss: non-finite weighted total at epoch {epoch}; "
                              f"terms {raw}, sigmas {sig_values}")

    def bwd(g):
        grads = [g * f for f in factors]
        if warm:
            return grads
        return grads + [g + g * t.value * e * -1.0 for t, e in zip(terms, factors)]

    return dc._node("total_loss", total, terms + sigs, bwd), weights
