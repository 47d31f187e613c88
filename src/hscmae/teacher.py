"""EMA teacher maintenance and soft top-k affinity mining.

The teacher is a momentum-averaged copy of the student. It never receives
gradients; its clean eval-mode embeddings supply the affinity targets for the
multi-positive contrastive loss and the targets for distillation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AffinityTargets:
    """Dense per-anchor weight rows (zeros outside the mined neighborhood)."""
    w_a2v: np.ndarray
    w_v2a: np.ndarray


def ema_update(teacher, student, rho):
    """theta_t <- rho * theta_t + (1 - rho) * theta, values and buffers alike."""
    if set(teacher.params) != set(student.params):
        raise ValueError("ema_update: parameter sets differ")
    for name, tp in teacher.params.items():
        sp = student.params[name]
        if tp.value.shape != sp.value.shape:
            raise ValueError(f"ema_update: shape mismatch on {name!r}")
        tp.value *= rho
        tp.value += (1.0 - rho) * sp.value
    for name, tb in teacher.buffers.items():
        tb *= rho
        tb += (1.0 - rho) * student.buffers[name]


def anneal_momentum(epoch, total_epochs, lo=0.95, hi=0.999):
    """Linear anneal from lo at epoch 1 to hi at the final epoch."""
    if total_epochs < 2:
        return hi
    if not 1 <= epoch <= total_epochs:
        raise ValueError(f"anneal_momentum: epoch {epoch} outside 1..{total_epochs}")
    return lo + (hi - lo) * (epoch - 1) / (total_epochs - 1)


def _mine_direction(scores, k, tau):
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


def mine_affinities(zt_a, zt_v, k=5, tau=0.05):
    """Cross-modal soft top-k mining on teacher embeddings.

    For each anchor the paired index is force-included, the remaining k-1
    slots take the highest cosine scores, and the weights are a
    temperature-scaled softmax over the neighborhood. Both directions are
    mined; the result carries no gradient by construction (plain arrays).
    """
    if k < 1:
        raise ValueError("mine_affinities: k must be >= 1")
    zt_a = np.asarray(zt_a, dtype=np.float64)
    zt_v = np.asarray(zt_v, dtype=np.float64)
    scores = zt_a @ zt_v.T
    return AffinityTargets(w_a2v=_mine_direction(scores, k, tau),
                           w_v2a=_mine_direction(scores.T, k, tau))


def identity_affinities(n, tau=None):
    """Single-positive targets: each anchor's entire weight on its pair.

    The targets do not depend on a temperature; ``tau`` is accepted and
    ignored so that callers of the earlier signature (acceptance criterion
    4 among them) keep working."""
    eye = np.eye(n)
    return AffinityTargets(w_a2v=eye, w_v2a=eye.copy())
