"""EMA teacher maintenance and soft top-k affinity mining.

The teacher is a momentum-averaged copy of the student. It never receives
gradients; its clean eval-mode embeddings, computed in float32 on its values
rounded per parameter as the pass reads them, supply the affinity targets
for the multi-positive contrastive loss and the targets for distillation.
Targets are m = min(k, n) neighbour indices and weights per anchor, not
n x n rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import NumericError


@dataclass(frozen=True)
class AffinityTargets:
    """Per direction, an (indices, weights) pair of n x m arrays: row i
    names m distinct columns, the pair i first, and their weights, which
    sum to 1. Every other column's weight is zero."""
    a2v: tuple
    v2a: tuple


def ema_update(teacher, student, rho):
    """theta_t <- rho * theta_t + (1 - rho) * theta, values and buffers alike.

    The teacher's value arena is walked in cache-sized blocks spread over
    its workers (``ParamArena.walk``), one scratch block each; only the
    teacher's values are written, never a float32 copy of them, a gradient
    or a moment. The update is elementwise, so the worker count cannot
    change a bit. The few buffers follow on the calling thread."""
    ta, sa = teacher.arena, student.arena
    if ta.layout() != sa.layout():
        raise ValueError("ema_update: teacher and student parameters differ")

    def block(start, stop, scratch):
        tv = ta.value[start:stop]
        tv *= rho
        tv += np.multiply(1.0 - rho, sa.value[start:stop], out=scratch[:stop - start])

    ta.walk(block)
    for name, tb in teacher.buffers.items():
        tb *= rho
        tb += (1.0 - rho) * student.buffers[name]


def anneal_momentum(epoch, total_epochs):
    """Linear anneal of the EMA momentum from 0.95 at epoch 1 to 0.999 at
    the final epoch."""
    lo, hi = 0.95, 0.999
    if total_epochs < 2:
        return hi
    if not 1 <= epoch <= total_epochs:
        raise ValueError(f"anneal_momentum: epoch {epoch} outside 1..{total_epochs}")
    return lo + (hi - lo) * (epoch - 1) / (total_epochs - 1)


def _mine_direction(scores, k, tau):
    """Soft top-k (indices, weights), both n x min(k, n), for one direction.

    Row i's neighbourhood is i itself, then the min(k, n) - 1 highest
    off-diagonal scores of row i in descending order, equal scores going to
    the lower column index. Its weights are a softmax of score / tau taken
    over the neighbourhood in that order. Selection is O(n^2) for any k: a
    partition finds each row's m-th largest score t, every score above t is
    taken, and the remaining slots go to the scores equal to t from the
    lowest column up. Scores must be finite.
    """
    n = scores.shape[0]
    m = min(k, n) - 1
    rows = np.arange(n)
    neigh = rows[:, None]
    if m > 0:
        w = scores.copy()  # the partition works in place
        w[rows, rows] = -np.inf
        w.partition(n - m, axis=1)
        t = w[:, n - m, None]
        sel = scores >= t
        sel[rows, rows] = False  # the pair often beats t; keep such rows off the path below
        # rows holding more scores equal to t than free slots keep the lowest columns
        over = np.flatnonzero(sel.sum(axis=1) > m)
        sub, t_over = scores[over], t[over]
        sub[np.arange(over.size), over] = -np.inf
        above = sub > t_over
        tied = sub == t_over
        tied &= np.cumsum(tied, axis=1) <= m - above.sum(axis=1, keepdims=True)
        sel[over] = above | tied
        cols = np.flatnonzero(sel).reshape(n, m) - n * rows[:, None]
        # cols ascend per row, so a stable sort keeps ties toward the lower index
        order = np.argsort(-np.take_along_axis(scores, cols, axis=1), axis=1, kind="stable")
        neigh = np.concatenate([neigh, np.take_along_axis(cols, order, axis=1)], axis=1)
    logits = np.take_along_axis(scores, neigh, axis=1) / tau
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return neigh, e / e.sum(axis=1, keepdims=True)


def mine_affinities(zt_a, zt_v, k, tau):
    """Cross-modal soft top-k mining on teacher embeddings.

    For each anchor the paired index is force-included, the remaining k-1
    slots take the highest cosine scores (ties toward the lower index), and
    the weights are a temperature-scaled softmax over the neighborhood. Both
    directions are mined, each as n x min(k, n) indices and weights; the
    result carries no gradient by construction (plain arrays). Non-finite
    scores raise NumericError.
    """
    if k < 1:
        raise ValueError("mine_affinities: k must be >= 1")
    zt_a = np.asarray(zt_a, dtype=np.float64)
    zt_v = np.asarray(zt_v, dtype=np.float64)
    scores = zt_a @ zt_v.T
    if not np.all(np.isfinite(scores)):
        raise NumericError("mine_affinities: non-finite similarity scores")
    return AffinityTargets(a2v=_mine_direction(scores, k, tau),
                           v2a=_mine_direction(scores.T, k, tau))


def identity_affinities(n, tau=None):
    """Single-positive targets, each anchor's whole weight on its pair: what
    mining with k = 1 returns, bit for bit. They need no temperature;
    ``tau`` is accepted and ignored, as acceptance criterion 4 passes it."""
    return AffinityTargets(a2v=(np.arange(n)[:, None], np.ones((n, 1))),
                           v2a=(np.arange(n)[:, None], np.ones((n, 1))))
