"""Tape primitives and the AP formula that the program no longer calls,
kept for the tests as the building blocks of reference chains and oracles.

``scale``, ``mul``, ``exp``, ``mse``, ``stop_gradient`` and ``sum_all``
compose the former loss heads (``test_losses.composed_rec_loss`` and its
siblings), against which the single-node heads are checked bit for bit;
``add``, ``tanh``, ``batch_norm``, ``layer_norm`` and ``dropout`` compose
the former trunk layers (``test_diffcore.composed_encoder_layer`` and its
siblings), against which the layer nodes are checked bit for bit;
``average_precision`` is the per-query AP of the loop oracle of the
retrieval tests. Each primitive goes through ``diffcore._node`` as the
library's own do. ``dense_rows`` is the n x n weight-row view of one
direction of mined affinity targets, which the mining and contrastive
oracles read. ``single_backward_train_step`` is the former training step,
which kept both student tapes alive until one backward from the weighted
total: the oracle of the split step. ``strided_direction_aps`` is the former
ranking of one retrieval direction, which gathered a label's query rows
from the similarity matrix (a transposed view, for v2a) once for the sort,
again for the relevant block and once more per tie count.
"""

import numpy as np

import hscmae.diffcore as dc
from hscmae.losses import LossBundle, dcca_loss, distill_loss, rec_loss, soft_infonce, total_loss
from hscmae.masking import apply_value_mask, make_plan
from hscmae.model import LOSS_NAMES, decode, encode, forward_embed, fuse, project
from hscmae.optim import adamw_step, clip_global_norm
from hscmae.teacher import ema_update, mine_affinities


def scale(a, c):
    c = float(c)

    def bwd(g):
        return (g * c,)

    return dc._node("scale", a.value * c, (a,), bwd)


def mul(a, b):
    """Elementwise product; either operand may be 1x1 (scalar broadcast)."""
    av, bv = a.value, b.value
    if a.shape == b.shape:
        def bwd(g):
            return g * bv, g * av
    elif a.shape == (1, 1):
        def bwd(g):
            return np.sum(g * bv, keepdims=True).reshape(1, 1), g * av[0, 0]
    elif b.shape == (1, 1):
        def bwd(g):
            return g * bv[0, 0], np.sum(g * av, keepdims=True).reshape(1, 1)
    else:
        raise dc.ShapeError(f"mul: {a.shape} * {b.shape}")
    return dc._node("mul", av * bv, (a, b), bwd)


def exp(a):
    y = np.exp(a.value)

    def bwd(g):
        return (g * y,)

    return dc._node("exp", y, (a,), bwd)


def mse(a, b):
    """Mean over rows of the squared L2 row difference, computed in the
    wider dtype of the two inputs."""
    if a.shape != b.shape:
        raise dc.ShapeError(f"mse: {a.shape} vs {b.shape}")
    n = a.shape[0]
    diff = a.value - b.value
    b_grad = b.needs_grad

    def bwd(g):
        d = float(g[0, 0]) * 2.0 / n * diff
        db = (-d).astype(b.value.dtype, copy=False) if b_grad else None
        return d.astype(a.value.dtype, copy=False), db

    return dc._node("mse", [[float((diff * diff).sum() / n)]], (a, b), bwd)


def stop_gradient(a):
    """A copy of ``a`` that needs no gradient: nothing flows back through it."""
    return dc.Tensor(a.value.copy(), op="stop_gradient")


def sum_all(a):
    def bwd(g):
        return (np.full(a.shape, g[0, 0], dtype=a.value.dtype),)

    return dc._node("sum_all", [[float(a.value.sum())]], (a,), bwd)


def add(a, b):
    """Elementwise add; ``b`` may be a 1 x cols bias row broadcast over rows."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
    elif b.shape == (1, a.shape[1]):
        def bwd(g):
            return g, g.sum(axis=0, keepdims=True)
    else:
        raise dc.ShapeError(f"add: {a.shape} + {b.shape}")
    return dc._node("add", a.value + b.value, (a, b), bwd)


def tanh(a):
    y = np.tanh(a.value)

    def bwd(g):
        dy = y * y
        np.subtract(1.0, dy, out=dy)
        dy *= g
        return (dy,)

    return dc._node("tanh", y, (a,), bwd)


def batch_norm(x, gamma, beta, running_mean, running_var, train, update_stats=True, momentum=0.1):
    """Batch normalization over the row (sample) axis.

    ``running_mean``/``running_var`` are plain float64 1 x d arrays mutated
    in place when ``train and update_stats``; eval mode normalizes with
    them, cast to the input's dtype.
    """
    d = x.shape[1]
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise dc.ShapeError(f"batch_norm: affine shapes {gamma.shape}/{beta.shape} vs d={d}")
    if train:
        if x.shape[0] < 2:
            raise dc.ShapeError("batch_norm: train mode needs at least 2 samples")
        mu, var, inv, xhat, y = dc._standardize(x.value, 0)
        if update_stats:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * var
        np.multiply(xhat, gamma.value, out=y)

        def bwd(g):
            return dc._norm_backward(g, gamma.value, xhat, inv, 0)
    else:
        dtype = x.value.dtype
        inv = 1.0 / np.sqrt(running_var.astype(dtype, copy=False) + dc._NORM_EPS)
        xhat = x.value - running_mean.astype(dtype, copy=False)
        xhat *= inv
        y = xhat * gamma.value

        def bwd(g):
            return g * gamma.value * inv, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    y += beta.value
    return dc._node("batch_norm", y, (x, gamma, beta), bwd)


def layer_norm(x, gamma, beta):
    """Per-row normalization with affine parameters (1 x d)."""
    d = x.shape[1]
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise dc.ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} vs d={d}")
    _, _, inv, xhat, y = dc._standardize(x.value, 1)
    np.multiply(xhat, gamma.value, out=y)
    y += beta.value

    def bwd(g):
        return dc._norm_backward(g, gamma.value, xhat, inv, 1)

    return dc._node("layer_norm", y, (x, gamma, beta), bwd)


def dropout(x, rate, train, rng):
    """Inverted dropout: survivors scaled by 1/(1-rate) so eval is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    if not train or rate == 0.0:
        return x
    # the tape keeps a boolean mask; (v * mask) * scale equals v * (mask / (1 - rate))
    # bit for bit, since multiplying by 1.0 is exact
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def bwd(g):
        dx = g * keep
        dx *= scale
        return (dx,)

    y = x.value * keep
    y *= scale
    return dc._node("dropout", y, (x,), bwd)


def average_precision(relevance):
    """AP of a ranked 0/1 relevance sequence: mean precision at relevant ranks."""
    bits = np.asarray(relevance, dtype=np.int64)
    total = int(bits.sum())
    if total == 0:
        raise ValueError("average_precision: no relevant items")
    hits = np.flatnonzero(bits)
    return float(np.mean(np.cumsum(bits)[hits] / (hits + 1)))


def strided_direction_aps(sims, query_labels, gallery_labels):
    """(AP per query, whether the query has a relevant gallery item) of one
    direction, gathering from ``sims`` at every use."""
    g = sims.shape[1]
    aps = np.zeros(sims.shape[0])
    scored = np.zeros(sims.shape[0], dtype=bool)
    for label in np.unique(query_labels):
        rows = np.flatnonzero(query_labels == label)
        rel = np.flatnonzero(gallery_labels == label)
        if rel.size == 0:
            continue
        ordered = np.sort(sims[rows], axis=1)
        block = sims[np.ix_(rows, rel)]
        perm = np.argsort(block, axis=1)
        block = np.take_along_axis(block, perm, axis=1)
        right = np.empty(block.shape, dtype=np.int64)
        for r in range(rows.size):
            right[r] = np.searchsorted(ordered[r], block[r], side="right")
        ranks = g + 1 - right
        shared = (right >= 2) & (ordered.take(np.arange(rows.size)[:, None] * g + right - 2) == block)
        for r, k in zip(*np.nonzero(shared)):
            ranks[r, k] += np.count_nonzero(sims[rows[r], :rel[perm[r, k]]] == block[r, k])
        ranks.sort(axis=1)
        aps[rows] = (np.arange(1, rel.size + 1) / ranks).mean(axis=1)
        scored[rows] = True
    return aps, scored


def dense_rows(pair):
    """The n x n weight rows of an (indices, weights) target pair: zeros but
    each row's weights at its columns. Scattering into zeros is exact, so
    the view keeps every weight's bits."""
    idx, w = pair
    rows = np.zeros((idx.shape[0], idx.shape[0]))
    np.put_along_axis(rows, idx, w, axis=1)
    return rows


def single_backward_train_step(mp, teacher, xa, xv, cfg, epoch, step_seed, lr_t, rho, adam_step):
    """``trainer.train_step`` as one backward over both student tapes: the
    masked pass, the teacher pass with mining and the clean pass all run
    before ``total_loss`` joins every term, and ``dc.backward`` walks both
    tapes from it at once. Same arguments and return value."""
    n = xa.shape[0]
    active = cfg.active_losses()
    mp.arena.prepare_step()
    xa32, xv32 = (np.asarray(x, dtype=np.float32) for x in (xa, xv))
    ss = np.random.SeedSequence(step_seed)
    rng_mae, rng_cca = (np.random.default_rng(child) for child in ss.spawn(2))
    plan = make_plan(n, cfg.model.d_audio, cfg.model.d_visual, cfg.mask_ratio, step_seed)
    bundle = LossBundle()

    if active["rec"] or active["infonce"] or active["dis"]:
        xa_masked = dc.const(apply_value_mask(xa32, plan, "audio"))
        xv_masked = dc.const(apply_value_mask(xv32, plan, "visual"))
        ha, hv = encode(mp, xa_masked, xv_masked, train=True, rng=rng_mae)
        ua, uv = fuse(mp, ha, hv)
        z_mae = project(mp, ua, uv)
        if active["rec"]:
            xa_hat, xv_hat = decode(mp, ua, uv)
            bundle.rec = rec_loss(xa32, xv32, xa_hat, xv_hat)

    if active["infonce"] or active["dis"]:
        with dc.no_tape():
            zt_a, zt_v, _, _ = forward_embed(teacher, dc.const(xa32), dc.const(xv32), train=False)
        zt_a, zt_v = zt_a.value.astype(np.float64), zt_v.value.astype(np.float64)
        if active["infonce"]:
            targets = mine_affinities(zt_a, zt_v, k=cfg.k, tau=cfg.tau)
            bundle.infonce = soft_infonce(z_mae[0], z_mae[1], targets, cfg.tau)
        if active["dis"]:
            bundle.dis = distill_loss(z_mae[0], z_mae[1], zt_a, zt_v)

    if active["cca"]:
        z_cca_a, z_cca_v, _, _ = forward_embed(mp, dc.const(xa32), dc.const(xv32), train=True, rng=rng_cca)
        bundle.cca = dcca_loss(z_cca_a, z_cca_v, cfg.cca_config())

    total, weights = total_loss(bundle, {name: mp.sigma(name) for name in LOSS_NAMES},
                                epoch, cfg.warmup_epochs)
    dc.backward(total)
    clip_global_norm(mp.arena, cfg.optim.clip_norm)
    adamw_step(mp.arena, cfg.optim, adam_step, lr_t)
    ema_update(teacher, mp, rho)
    return bundle.values(), weights, float(total.value[0, 0])
