"""Tape primitives and the AP formula that the program no longer calls,
kept for the tests as the building blocks of reference chains and oracles.

``scale``, ``mul``, ``exp``, ``mse``, ``stop_gradient`` and ``sum_all``
compose the former loss heads (``test_losses.composed_rec_loss`` and its
siblings), against which the single-node heads are checked bit for bit;
``average_precision`` is the per-query AP of the loop oracle of the
retrieval tests. Each primitive goes through ``diffcore._node`` as the
library's own do.
"""

import numpy as np

import hscmae.diffcore as dc


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


def average_precision(relevance):
    """AP of a ranked 0/1 relevance sequence: mean precision at relevant ranks."""
    bits = np.asarray(relevance, dtype=np.int64)
    total = int(bits.sum())
    if total == 0:
        raise ValueError("average_precision: no relevant items")
    hits = np.flatnonzero(bits)
    return float(np.mean(np.cumsum(bits)[hits] / (hits + 1)))
