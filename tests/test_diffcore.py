"""Unit tests for the reverse-mode engine.

Every primitive's forward is checked against plain numpy and its backward
against the central finite-difference oracle in diffcore.grad_check; so are
the primitives of ``reference_ops``, which build the tests' reference chains. The
freeing ``backward`` is checked against ``keeping_backward``, the reverse
pass that keeps the whole tape alive until the walk ends; ``linear`` against
``add(matmul(...))``; the layer nodes against ``composed_encoder_layer``,
``composed_linear_tanh`` and ``composed_add_layer_norm``, chains of
``reference_ops`` single-op nodes; and those norms against
``formula_layer_norm`` and ``formula_batch_norm``, the former
textbook-formula implementations, all kept here as reference oracles.
"""

import ast
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hscmae.diffcore as dc

import reference_ops as ops
from conftest import arena_param


def keeping_backward(loss):
    """Reference oracle for ``dc.backward``: the same walk, but every node's
    gradient, closure and parent links stay alive until it ends, and the map
    of node gradients is returned."""
    if loss.shape != (1, 1):
        raise dc.ShapeError(f"backward: root must be 1x1, got {loss.shape}")

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.param is not None:
            node.param.grad += g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
    return grads


def formula_batch_norm(x, gamma, beta, running_mean, running_var, train, update_stats=True,
                       momentum=0.1):
    """Reference oracle for ``reference_ops.batch_norm``: np.var and fresh arrays per step."""
    eps = 1e-5
    if train:
        n = x.shape[0]
        mu = x.value.mean(axis=0, keepdims=True)
        var = x.value.var(axis=0, keepdims=True)
        if update_stats:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * var
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.value - mu) * inv
        y = gamma.value * xhat + beta.value

        def bwd(g):
            dxhat = g * gamma.value
            dx = inv / n * (n * dxhat
                            - dxhat.sum(axis=0, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
            return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)
    else:  # the running statistics in the input's dtype
        mean, var = (s.astype(x.value.dtype, copy=False) for s in (running_mean, running_var))
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.value - mean) * inv
        y = gamma.value * xhat + beta.value

        def bwd(g):
            return g * gamma.value * inv, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return dc._node("batch_norm", y, (x, gamma, beta), bwd)


def formula_layer_norm(x, gamma, beta):
    """Reference oracle for ``reference_ops.layer_norm``: np.var and fresh arrays per step."""
    d = x.shape[1]
    mu = x.value.mean(axis=1, keepdims=True)
    var = x.value.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.value - mu) * inv
    y = gamma.value * xhat + beta.value

    def bwd(g):
        dxhat = g * gamma.value
        dx = inv / d * (d * dxhat
                        - dxhat.sum(axis=1, keepdims=True)
                        - xhat * (dxhat * xhat).sum(axis=1, keepdims=True))
        return dx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return dc._node("layer_norm", y, (x, gamma, beta), bwd)


def composed_linear(x, w, b):
    """Reference oracle for ``dc.linear``: the former two-node layer."""
    return ops.add(dc.matmul(x, w), b)


def composed_encoder_layer(x, w, b, gamma, beta, stats, train, rate, rng):
    """Reference oracle for ``dc.encoder_layer``: the former chain of
    linear, norm, tanh and dropout nodes."""
    h = dc.linear(x, w, b)
    if stats is None:
        h = ops.layer_norm(h, gamma, beta)
    else:
        h = ops.batch_norm(h, gamma, beta, *stats, train, update_stats=train)
    return ops.dropout(ops.tanh(h), rate, train, rng)


def composed_linear_tanh(x, w, b):
    """Reference oracle for ``dc.linear_tanh``: a linear node, then tanh."""
    return ops.tanh(dc.linear(x, w, b))


def composed_add_layer_norm(a, b, gamma, beta):
    """Reference oracle for ``dc.add_layer_norm``: an add node, then layer norm."""
    return ops.layer_norm(ops.add(a, b), gamma, beta)


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))


def node_grads(node, g):
    """The gradients a node's closure sends to each of its leaf inputs,
    walking a composed chain's inner nodes by hand."""
    out = []
    for parent, pg in zip(node._parents, node._backward(g)):
        out += node_grads(parent, pg) if parent._backward is not None else [pg]
    return out


def param(shape, seed=0, name="p"):
    return arena_param(np.random.default_rng(seed).normal(size=shape), name=name)


def check(fn, params, tol=1e-6, **kw):
    assert dc.grad_check(fn, params, **kw) < tol


# ---------------------------------------------------------------------------
# tensor / parameter basics
# ---------------------------------------------------------------------------

def test_tensor_requires_2d():
    with pytest.raises(dc.ShapeError):
        dc.const(np.zeros(3))
    with pytest.raises(dc.ShapeError):
        dc.const(np.zeros((2, 2, 2)))


def test_parameter_requires_2d():
    with pytest.raises(dc.ShapeError):
        arena_param(np.zeros(3)).tensor()


def test_tensors_keep_float32_and_float64_and_make_anything_else_float64():
    for dtype in (np.float32, np.float64):
        assert dc.const(np.ones((2, 2), dtype=dtype)).value.dtype == dtype
        assert ops.tanh(dc.const(np.ones((2, 2), dtype=dtype))).value.dtype == dtype
    for value in ([[1, 2]], np.ones((1, 2), dtype=np.float16), np.ones((1, 2), dtype=bool)):
        assert dc.const(value).value.dtype == np.float64


def float32_leaf(shape, seed):
    """A float32 tape leaf tied to a float64 parameter."""
    p = param(shape, seed)
    return dc.Tensor(p.value.astype(np.float32), op="param", param=p)


FLOAT32_CASES = ("matmul", "linear", "add", "add_row", "scale", "mul", "mul_scalar", "tanh", "exp",
                 "batch_norm", "batch_norm_eval", "layer_norm", "dropout", "encoder_layer",
                 "encoder_layer_eval", "encoder_layer_ln", "linear_tanh", "add_layer_norm",
                 "l2_normalize_rows", "gradient_gate", "mse", "mse_float64_target", "sum_all")


@pytest.mark.parametrize("name", FLOAT32_CASES)
def test_primitives_compute_in_float32_and_return_gradients_in_each_inputs_dtype(name):
    """On float32 inputs every primitive gives a float32 value (a float64
    1 x 1 for the scalar reductions) and sends each input its gradient in
    that input's dtype."""
    x, y, w = float32_leaf((5, 4), 1), float32_leaf((5, 4), 2), float32_leaf((4, 3), 3)
    row, s, row3 = float32_leaf((1, 4), 4), float32_leaf((1, 1), 5), float32_leaf((1, 3), 6)
    stats = (np.zeros((1, 4)), np.ones((1, 4)))
    stats3 = (np.zeros((1, 3)), np.ones((1, 3)))
    node = {
        "matmul": lambda: dc.matmul(x, w),
        "linear": lambda: dc.linear(x, w, float32_leaf((1, 3), 6)),
        "add": lambda: ops.add(x, y),
        "add_row": lambda: ops.add(x, row),
        "scale": lambda: ops.scale(x, 0.3),
        "mul": lambda: ops.mul(x, y),
        "mul_scalar": lambda: ops.mul(s, x),
        "tanh": lambda: ops.tanh(x),
        "exp": lambda: ops.exp(x),
        "batch_norm": lambda: ops.batch_norm(x, row, row, *stats, train=True),
        "batch_norm_eval": lambda: ops.batch_norm(x, row, row, *stats, train=False),
        "layer_norm": lambda: ops.layer_norm(x, row, row),
        "dropout": lambda: ops.dropout(x, 0.5, True, np.random.default_rng(0)),
        "encoder_layer": lambda: dc.encoder_layer(x, w, row3, row3, row3, stats3, True, 0.5,
                                                  np.random.default_rng(0)),
        "encoder_layer_eval": lambda: dc.encoder_layer(x, w, row3, row3, row3, stats3, False, 0.5, None),
        "encoder_layer_ln": lambda: dc.encoder_layer(x, w, row3, row3, row3, None, True, 0.0, None),
        "linear_tanh": lambda: dc.linear_tanh(x, w, row3),
        "add_layer_norm": lambda: dc.add_layer_norm(x, y, row, row),
        "l2_normalize_rows": lambda: dc.l2_normalize_rows(x),
        "gradient_gate": lambda: dc.gradient_gate(x, np.ones((5, 4))),
        "mse": lambda: ops.mse(x, y),
        "mse_float64_target": lambda: ops.mse(x, param((5, 4), 7).tensor()),
        "sum_all": lambda: ops.sum_all(x),
    }[name]()
    scalar = name.startswith(("mse", "sum_all"))
    assert node.value.dtype == (np.float64 if scalar else np.float32)
    grads = node._backward(np.ones(node.shape, dtype=node.value.dtype))
    assert [pg.dtype for pg in grads] == [p.value.dtype for p in node._parents]


def test_float32_leaf_reads_the_arena_mirror_and_accumulates_into_float64():
    """Without a mirror a float32 leaf holds its own rounded copy of the
    current value; after ``prepare_step`` it is a view of the mirror."""
    arena = dc.ParamArena([("w", (3, 2), True), ("s", (1, 1), False)])
    w = arena.params[0]
    arena.value[...] = np.random.default_rng(2).normal(size=arena.size)
    assert arena.value32 is None and w.value32 is None  # allocated by the first prepare_step
    for _ in range(2):
        leaf = w.tensor(np.float32)
        assert leaf.value.dtype == np.float32 and not np.shares_memory(leaf.value, arena.value)
        np.testing.assert_array_equal(leaf.value.view(np.uint32), w.value.astype(np.float32).view(np.uint32))
        w.value *= 3.0  # the next leaf rounds the new value
    assert arena.value32 is None
    arena.prepare_step()
    np.testing.assert_array_equal(arena.value32, arena.value.astype(np.float32))
    leaf = w.tensor(np.float32)
    assert leaf.value.dtype == np.float32 and np.shares_memory(leaf.value, arena.value32)
    loss = ops.sum_all(ops.tanh(leaf))
    assert loss.value.dtype == np.float64
    dc.backward(loss)
    want = 1.0 - np.tanh(w.value32) ** 2
    assert want.dtype == np.float32
    np.testing.assert_array_equal(w.grad, want.astype(np.float64))
    assert w.grad.dtype == np.float64 and np.shares_memory(w.grad, arena.grad)


def test_non_finite_forward_rejected():
    a = dc.const([[1.0, np.inf]])
    with pytest.raises(dc.NumericError):
        ops.tanh(ops.exp(ops.scale(a, 2.0)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(dc.NumericError):
            ops.scale(dc.const([[1.0, 2.0], [bad, 3.0]]), 1.0)
    assert ops.scale(dc.const(np.zeros((0, 3))), 2.0).shape == (0, 3)


def test_backward_requires_scalar_root():
    with pytest.raises(dc.ShapeError):
        dc.backward(dc.const(np.zeros((2, 2))))


def test_backward_twice_doubles_param_grads():
    p = param((3, 2), seed=1)
    loss = ops.sum_all(ops.tanh(p.tensor()))
    dc.backward(loss)
    once = p.grad.copy()
    loss2 = ops.sum_all(ops.tanh(p.tensor()))
    dc.backward(loss2)
    np.testing.assert_allclose(p.grad, 2.0 * once, rtol=0, atol=0)


def test_zero_grad_resets():
    p = param((2, 2))
    dc.backward(ops.sum_all(p.tensor()))
    assert np.any(p.grad != 0)
    p.zero_grad()
    assert np.all(p.grad == 0)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_add_scale_forward():
    a = np.arange(6, dtype=float).reshape(2, 3)
    b = np.arange(12, dtype=float).reshape(3, 4)
    bias = np.ones((1, 4))
    out = ops.scale(ops.add(dc.matmul(dc.const(a), dc.const(b)), dc.const(bias)), 0.5)
    np.testing.assert_allclose(out.value, 0.5 * (a @ b + bias))


def test_matmul_shape_mismatch():
    with pytest.raises(dc.ShapeError):
        dc.matmul(dc.const(np.zeros((2, 3))), dc.const(np.zeros((4, 2))))


def test_add_rejects_bad_broadcast():
    with pytest.raises(dc.ShapeError):
        ops.add(dc.const(np.zeros((3, 2))), dc.const(np.zeros((3, 1))))


def test_mul_scalar_broadcast_forward():
    a = np.array([[2.0]])
    b = np.arange(4, dtype=float).reshape(2, 2)
    np.testing.assert_allclose(ops.mul(dc.const(a), dc.const(b)).value, 2.0 * b)
    np.testing.assert_allclose(ops.mul(dc.const(b), dc.const(a)).value, 2.0 * b)


def test_mse_forward_is_mean_row_squared_distance():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 0.0], [3.0, 2.0]])
    expected = ((1 + 4) + (0 + 4)) / 2.0
    assert ops.mse(dc.const(a), dc.const(b)).value[0, 0] == pytest.approx(expected, abs=1e-15)


def test_l2_normalize_unit_norms_and_zero_rows():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1e-13, 0.0]])
    y = dc.l2_normalize_rows(dc.const(x)).value
    np.testing.assert_allclose(y[0], [0.6, 0.8], atol=1e-15)
    np.testing.assert_allclose(y[1], [0.0, 0.0])
    np.testing.assert_allclose(y[2], [0.0, 0.0])


def test_sum_mean_forward():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert ops.sum_all(dc.const(x)).value[0, 0] == 15.0
    # a mean is a sum scaled by 1/size, as the losses build it
    assert ops.scale(ops.sum_all(dc.const(x)), 1.0 / x.size).value[0, 0] == 2.5


def test_batch_norm_train_forward_standardizes():
    x = np.random.default_rng(4).normal(loc=3.0, scale=2.0, size=(64, 5))
    gamma = dc.const(np.ones((1, 5)))
    beta = dc.const(np.zeros((1, 5)))
    rm, rv = np.zeros((1, 5)), np.ones((1, 5))
    y = ops.batch_norm(dc.const(x), gamma, beta, rm, rv, train=True).value
    np.testing.assert_allclose(y.mean(axis=0), np.zeros(5), atol=1e-10)
    np.testing.assert_allclose(y.var(axis=0), np.ones(5), atol=1e-4)


def test_batch_norm_running_stats_update():
    x = np.random.default_rng(5).normal(loc=1.0, size=(32, 3))
    rm, rv = np.zeros((1, 3)), np.ones((1, 3))
    gamma, beta = dc.const(np.ones((1, 3))), dc.const(np.zeros((1, 3)))
    ops.batch_norm(dc.const(x), gamma, beta, rm, rv, train=True, momentum=0.1)
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=0, keepdims=True), atol=1e-12)
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.var(axis=0, keepdims=True), atol=1e-12)
    # eval mode normalizes with the running stats and leaves them untouched
    rm2, rv2 = rm.copy(), rv.copy()
    y = ops.batch_norm(dc.const(x), gamma, beta, rm, rv, train=False).value
    np.testing.assert_allclose(y, (x - rm2) / np.sqrt(rv2 + 1e-5), atol=1e-12)
    np.testing.assert_array_equal(rm, rm2)
    np.testing.assert_array_equal(rv, rv2)


def test_batch_norm_needs_two_samples_in_train():
    gamma, beta = dc.const(np.ones((1, 2))), dc.const(np.zeros((1, 2)))
    with pytest.raises(dc.ShapeError):
        ops.batch_norm(dc.const(np.zeros((1, 2))), gamma, beta,
                      np.zeros((1, 2)), np.ones((1, 2)), train=True)


def test_layer_norm_rows_standardized():
    x = np.random.default_rng(6).normal(size=(4, 9))
    gamma, beta = dc.const(np.ones((1, 9))), dc.const(np.zeros((1, 9)))
    y = ops.layer_norm(dc.const(x), gamma, beta).value
    np.testing.assert_allclose(y.mean(axis=1), np.zeros(4), atol=1e-12)
    np.testing.assert_allclose(y.var(axis=1), np.ones(4), atol=1e-4)


def test_dropout_eval_identity_and_train_scaling():
    x = dc.const(np.ones((2000, 4)))
    assert ops.dropout(x, 0.5, train=False, rng=None) is x
    assert ops.dropout(x, 0.0, train=True, rng=None) is x
    y = ops.dropout(x, 0.25, train=True, rng=np.random.default_rng(0)).value
    survivors = y[y != 0]
    np.testing.assert_allclose(survivors, 1.0 / 0.75)
    assert abs(y.mean() - 1.0) < 0.02
    with pytest.raises(ValueError):
        ops.dropout(x, 1.0, train=True, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# gradient flow control
# ---------------------------------------------------------------------------

def test_stop_gradient_blocks_and_severed_node_gets_zero_grad():
    p = param((2, 3), seed=7)
    leaf = p.tensor()
    frozen = ops.stop_gradient(leaf)
    loss = ops.sum_all(ops.mul(frozen, frozen))
    dc.backward(loss)
    assert np.all(p.grad == 0)


def test_gradient_gate_identity_forward_masked_backward():
    p = param((2, 3), seed=8)
    gate = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    gated = dc.gradient_gate(p.tensor(), gate)
    np.testing.assert_array_equal(gated.value, p.value)
    dc.backward(ops.sum_all(ops.mul(gated, gated)))
    np.testing.assert_allclose(p.grad, 2.0 * p.value * gate)


# ---------------------------------------------------------------------------
# memory release: backward lets go of the tape, no_tape records none
# ---------------------------------------------------------------------------

def small_loss(w, s):
    """A tape with a shared leaf, a broadcast bias, a scalar broadcast, a
    severed branch and a pass-through dropout."""
    x = dc.const(np.random.default_rng(41).normal(size=(5, 3)))
    h = ops.tanh(ops.add(dc.matmul(x, w.tensor()), dc.const(np.ones((1, 4)))))
    h = ops.dropout(h, 0.0, train=True, rng=None)
    frozen = ops.stop_gradient(ops.exp(w.tensor()))
    z = dc.l2_normalize_rows(ops.mul(s.tensor(), h))
    return ops.add(ops.sum_all(ops.mul(z, z)), ops.add(ops.sum_all(ops.mul(h, h)), ops.sum_all(frozen)))


def test_backward_matches_keeping_backward_bit_for_bit():
    grads = []
    for walk in (dc.backward, keeping_backward):
        w, s = param((3, 4), seed=42, name="w"), param((1, 1), seed=43, name="s")
        walk(small_loss(w, s))
        walk(small_loss(w, s))  # a second tape accumulates on top of the first
        grads.append([w.grad.view(np.uint64), s.grad.view(np.uint64)])
    for freed, kept in zip(*grads):
        np.testing.assert_array_equal(freed, kept)


def test_backward_releases_the_tape():
    p = param((3, 4), seed=44)
    mid = ops.tanh(dc.matmul(dc.const(np.ones((2, 3))), p.tensor()))
    loss = ops.sum_all(ops.mul(mid, mid))
    node, value = weakref.ref(mid), weakref.ref(mid.value)
    del mid
    assert node() is not None and value() is not None  # the tape holds them
    assert dc.backward(loss) is None
    assert loss._parents == () and loss._backward is None
    assert node() is None and value() is None
    assert np.any(p.grad != 0)


def test_no_tape_records_nothing_and_restores_taping():
    p = param((2, 3), seed=45)
    with dc.no_tape():
        y = ops.tanh(ops.scale(p.tensor(), 2.0))
        with dc.no_tape():
            pass
        z = ops.tanh(p.tensor())  # the inner block left taping off
    assert y._parents == () and y._backward is None and z._parents == ()
    np.testing.assert_array_equal(y.value, np.tanh(p.value * 2.0))
    with pytest.raises(RuntimeError), dc.no_tape():
        raise RuntimeError
    taped = ops.tanh(p.tensor())
    assert len(taped._parents) == 1 and taped._backward is not None


def test_no_tape_still_rejects_non_finite_values():
    with pytest.raises(dc.NumericError), dc.no_tape():
        ops.scale(dc.const([[np.inf]]), 2.0)
    assert ops.tanh(param((1, 1)).tensor())._backward is not None  # taping resumes after the block


def test_constants_only_subgraph_tapes_nothing():
    x = dc.const(np.random.default_rng(46).normal(size=(4, 3)))
    h = ops.tanh(ops.add(dc.matmul(x, dc.const(np.ones((3, 3)))), dc.const(np.ones((1, 3)))))
    for t in (x, h, ops.stop_gradient(param((2, 2)).tensor())):
        assert not t.needs_grad and t._parents == () and t._backward is None
    p = param((3, 3), seed=47)
    y = dc.matmul(h, p.tensor())
    assert y.needs_grad and y._parents[0] is h
    dc.backward(ops.sum_all(y))
    np.testing.assert_array_equal(p.grad, h.value.T @ np.ones((4, 3)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), d_in=st.integers(1, 20), d_out=st.integers(1, 20),
       taped_input=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_linear_bit_identical_to_add_matmul(n, d_in, d_out, taped_input, seed):
    rng = np.random.default_rng(seed)
    x = param((n, d_in), seed=seed, name="x")
    w, b = arena_param(rng.normal(size=(d_in, d_out))), arena_param(rng.normal(size=(1, d_out)))
    g = rng.normal(size=(n, d_out))
    xt = x.tensor() if taped_input else dc.const(x.value)
    fused = dc.linear(xt, w.tensor(), b.tensor())
    composed = composed_linear(x.tensor(), w.tensor(), b.tensor())
    assert_bits_equal([fused.value], [composed.value])
    want = node_grads(composed, g)
    if not taped_input:
        want[0] = None
    got = list(fused._backward(g))
    assert (got[0] is None) == (not taped_input)
    assert_bits_equal([a for a in got if a is not None], [a for a in want if a is not None])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 24), rate=st.sampled_from([0.1, 0.2, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 16))
def test_tanh_and_dropout_bit_identical_to_formula(n, d, rate, seed):
    rng = np.random.default_rng(seed)
    x = arena_param(3.0 * rng.normal(size=(n, d)))
    g = rng.normal(size=(n, d))
    y = ops.tanh(x.tensor())
    want = np.tanh(x.value)
    assert_bits_equal([y.value, y._backward(g)[0]], [want, g * (1.0 - want * want)])
    dropped = ops.dropout(x.tensor(), rate, train=True, rng=np.random.default_rng(seed))
    keep = (np.random.default_rng(seed).random((n, d)) >= rate) / (1.0 - rate)
    assert_bits_equal([dropped.value, dropped._backward(g)[0]], [x.value * keep, g * keep])


NORM_SCALES = st.sampled_from([1e-3, 0.37, 1.0, 29.0, 1e3])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 500), d=st.integers(1, 24), scale=NORM_SCALES, seed=st.integers(0, 2 ** 16))
def test_layer_norm_bit_identical_to_formula(n, d, scale, seed):
    rng = np.random.default_rng(seed)
    x = arena_param(scale * rng.normal(loc=rng.normal(), size=(n, d)))
    gamma, beta = arena_param(rng.normal(size=(1, d))), arena_param(rng.normal(size=(1, d)))
    g = rng.normal(size=(n, d))
    new = ops.layer_norm(x.tensor(), gamma.tensor(), beta.tensor())
    old = formula_layer_norm(x.tensor(), gamma.tensor(), beta.tensor())
    assert_bits_equal([new.value], [old.value])
    assert_bits_equal(new._backward(g), old._backward(g))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 500), d=st.integers(1, 24), scale=NORM_SCALES, train=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_batch_norm_bit_identical_to_formula(n, d, scale, train, seed):
    n = max(n, 2) if train else n
    rng = np.random.default_rng(seed)
    x = arena_param(scale * rng.normal(loc=rng.normal(), size=(n, d)))
    gamma, beta = arena_param(rng.normal(size=(1, d))), arena_param(rng.normal(size=(1, d)))
    stats = [rng.normal(size=(1, d)), scale * scale * rng.uniform(0.5, 2.0, size=(1, d))]
    g = rng.normal(size=(n, d))
    new_stats, old_stats = [a.copy() for a in stats], [a.copy() for a in stats]
    new = ops.batch_norm(x.tensor(), gamma.tensor(), beta.tensor(), *new_stats, train=train)
    old = formula_batch_norm(x.tensor(), gamma.tensor(), beta.tensor(), *old_stats, train=train)
    assert_bits_equal([new.value] + new_stats, [old.value] + old_stats)
    assert_bits_equal(new._backward(g), old._backward(g))


def layer_leaves(dtype, seed, *shapes):
    """Tape leaves in ``dtype`` of parameters of the given shapes, normal draws."""
    rng = np.random.default_rng(seed)
    params = [arena_param(rng.normal(size=shape)) for shape in shapes]
    return [dc.Tensor(p.value.astype(dtype), op="param", param=p) for p in params]


def assert_same_grads(node, composed, g):
    """The node's closure and the composed chain send each input the same
    gradient, bit for bit, or both None, and neither writes into ``g``."""
    before = g.copy()
    got, want = list(node._backward(g)), node_grads(composed, g)
    assert [a is None for a in got] == [a is None for a in want]
    assert_bits_equal([a for a in got if a is not None], [a for a in want if a is not None])
    assert_bits_equal([g], [before])


DTYPES = st.sampled_from([np.float32, np.float64])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 300), d_in=st.integers(1, 16), d=st.integers(1, 24), dtype=DTYPES,
       batch=st.booleans(), train=st.booleans(), rate=st.sampled_from([0.0, 0.2, 0.5]),
       taped_input=st.booleans(), scale=NORM_SCALES, seed=st.integers(0, 2 ** 16))
def test_encoder_layer_bit_identical_to_composed_chain(n, d_in, d, dtype, batch, train, rate,
                                                       taped_input, scale, seed):
    """Values, running statistics, the dropout draw and every gradient."""
    n = max(n, 2) if batch and train else n
    x, w, b, gamma, beta = layer_leaves(dtype, seed, (n, d_in), (d_in, d), (1, d), (1, d), (1, d))
    x = x if taped_input else dc.const(x.value)
    x.value *= dtype(scale)
    rng = np.random.default_rng(seed + 1)
    stats = [rng.normal(size=(1, d)), rng.uniform(0.5, 2.0, size=(1, d))] if batch else None
    g = rng.normal(size=(n, d)).astype(dtype)
    runs = []
    for layer in (dc.encoder_layer, composed_encoder_layer):
        own = None if stats is None else [a.copy() for a in stats]
        draws = np.random.default_rng(seed + 2)
        runs.append((layer(x, w, b, gamma, beta, own, train, rate, draws), own or [], draws))
    (node, new_stats, new_rng), (composed, old_stats, old_rng) = runs
    assert node.op == "encoder_layer" and node.value.dtype == dtype
    assert_bits_equal([node.value] + new_stats, [composed.value] + old_stats)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert_same_grads(node, composed, g)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), d_in=st.integers(1, 16), d=st.integers(1, 24), dtype=DTYPES,
       taped_input=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_linear_tanh_bit_identical_to_composed_chain(n, d_in, d, dtype, taped_input, seed):
    x, w, b = layer_leaves(dtype, seed, (n, d_in), (d_in, d), (1, d))
    x = x if taped_input else dc.const(x.value)
    node, composed = dc.linear_tanh(x, w, b), composed_linear_tanh(x, w, b)
    assert node.op == "linear_tanh"
    assert_bits_equal([node.value], [composed.value])
    assert_same_grads(node, composed, np.random.default_rng(seed).normal(size=(n, d)).astype(dtype))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 24), dtype=DTYPES, taped_input=st.booleans(),
       scale=NORM_SCALES, seed=st.integers(0, 2 ** 16))
def test_add_layer_norm_bit_identical_to_composed_chain(n, d, dtype, taped_input, scale, seed):
    a, b, gamma, beta = layer_leaves(dtype, seed, (n, d), (n, d), (1, d), (1, d))
    a = a if taped_input else dc.const(a.value)
    b.value *= dtype(scale)
    node, composed = dc.add_layer_norm(a, b, gamma, beta), composed_add_layer_norm(a, b, gamma, beta)
    assert node.op == "add_layer_norm"
    assert_bits_equal([node.value], [composed.value])
    assert_same_grads(node, composed, np.random.default_rng(seed).normal(size=(n, d)).astype(dtype))


def raised_text(fn):
    """The text of the NumericError ``fn`` raises."""
    with pytest.raises(dc.NumericError) as info:
        fn()
    return str(info.value)


# each layer node with its composed chain and the shapes of its tensor
# inputs, in rows n and columns d
LAYER_NODES = {
    "encoder_layer": (dc.encoder_layer, composed_encoder_layer,
                      {"x": ("n", 3), "w": (3, "d"), "b": (1, "d"), "gamma": (1, "d"), "beta": (1, "d")}),
    "linear_tanh": (dc.linear_tanh, composed_linear_tanh, {"x": ("n", 3), "w": (3, "d"), "b": (1, "d")}),
    "add_layer_norm": (dc.add_layer_norm, composed_add_layer_norm,
                       {"a": ("n", "d"), "b": ("n", "d"), "gamma": (1, "d"), "beta": (1, "d")}),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(LAYER_NODES)), dtype=DTYPES,
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), batch=st.booleans(), train=st.booleans(),
       rate=st.sampled_from([0.0, 0.3]), n=st.integers(2, 20), d=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_layer_nodes_raise_the_composed_chains_numeric_error(data, name, dtype, bad, batch, train,
                                                            rate, n, d, seed):
    """NaN or inf entering at any input of a layer node, a running
    statistic included, or finite inputs whose product or sum overflows,
    raise the error of the single-op node of the composed chain that first
    meets it: the same text, after the same running-statistics update."""
    node, composed, inputs = LAYER_NODES[name]
    dims = {"n": n, "d": d}
    shapes = [tuple(dims.get(k, k) for k in shape) for shape in inputs.values()]
    leaves = dict(zip(inputs, layer_leaves(dtype, seed, *shapes)))
    stats = [np.zeros((1, d)), np.ones((1, d))] if name == "encoder_layer" and batch else None
    where = data.draw(st.sampled_from(list(inputs) + ["overflow"] + (["mean", "var"] if stats else [])))
    if where == "overflow":
        big = np.finfo(dtype).max
        for k, value in ({"x": big, "w": 2.0} if "x" in leaves else {"a": big, "b": big}).items():
            leaves[k].value[...] = value
    else:
        value = stats[where == "var"] if where in ("mean", "var") else leaves[where].value
        value[data.draw(st.integers(0, value.shape[0] - 1)),
              data.draw(st.integers(0, value.shape[1] - 1))] = bad
    runs = []
    for fn in (node, composed):
        own = None if stats is None else [a.copy() for a in stats]
        extra = (own, train, rate, np.random.default_rng(seed)) if name == "encoder_layer" else ()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                fn(*leaves.values(), *extra)
            runs.append((None, own or []))
        except dc.NumericError as exc:
            runs.append((str(exc), own or []))
    (new_text, new_stats), (old_text, old_stats) = runs
    assert new_text == old_text
    assert new_text is None or new_text in {f"{op}: non-finite forward value"
                                            for op in ("linear", "batch_norm", "layer_norm", "add")}
    if where == "overflow":
        assert new_text == ("add" if name == "add_layer_norm" else "linear") + ": non-finite forward value"
    assert_bits_equal(new_stats, old_stats)


# ---------------------------------------------------------------------------
# finite-difference gradient checks
# ---------------------------------------------------------------------------

def test_grad_matmul_add_bias():
    w = param((3, 4), seed=10, name="w")
    b = param((1, 4), seed=11, name="b")
    x = np.random.default_rng(12).normal(size=(5, 3))
    check(lambda: ops.sum_all(ops.tanh(ops.add(dc.matmul(dc.const(x), w.tensor()), b.tensor()))),
          [w, b])


def test_grad_mul_broadcast():
    s = param((1, 1), seed=13, name="s")
    m = param((3, 3), seed=14, name="m")
    check(lambda: ops.sum_all(ops.mul(s.tensor(), ops.tanh(m.tensor()))), [s, m])
    check(lambda: ops.sum_all(ops.mul(ops.tanh(m.tensor()), s.tensor())), [s, m])


def test_grad_exp_scale():
    p = param((2, 4), seed=15)
    check(lambda: ops.sum_all(ops.exp(ops.scale(p.tensor(), 0.3))), [p])


def test_grad_batch_norm_train():
    p = param((8, 3), seed=20)
    gamma = param((1, 3), seed=21, name="gamma")
    beta = param((1, 3), seed=22, name="beta")
    rm, rv = np.zeros((1, 3)), np.ones((1, 3))
    check(lambda: ops.sum_all(ops.tanh(ops.batch_norm(
        p.tensor(), gamma.tensor(), beta.tensor(), rm, rv, train=True, update_stats=False))),
        [p, gamma, beta])


def test_grad_batch_norm_eval():
    p = param((6, 3), seed=23)
    gamma = param((1, 3), seed=24, name="gamma")
    beta = param((1, 3), seed=25, name="beta")
    rm = np.random.default_rng(26).normal(size=(1, 3))
    rv = np.abs(np.random.default_rng(27).normal(size=(1, 3))) + 0.5
    check(lambda: ops.sum_all(ops.tanh(ops.batch_norm(
        p.tensor(), gamma.tensor(), beta.tensor(), rm, rv, train=False))),
        [p, gamma, beta])


def test_grad_layer_norm():
    p = param((5, 6), seed=28)
    gamma = param((1, 6), seed=29, name="gamma")
    beta = param((1, 6), seed=30, name="beta")
    check(lambda: ops.sum_all(ops.tanh(ops.layer_norm(p.tensor(), gamma.tensor(), beta.tensor()))),
          [p, gamma, beta])


def test_grad_dropout_with_fixed_mask():
    p = param((6, 4), seed=31)
    check(lambda: ops.sum_all(ops.tanh(ops.dropout(
        p.tensor(), 0.3, train=True, rng=np.random.default_rng(99)))), [p])


def test_grad_mse():
    a = param((4, 3), seed=32, name="a")
    b = param((4, 3), seed=33, name="b")
    check(lambda: ops.mse(a.tensor(), b.tensor()), [a, b])


def test_grad_l2_normalize_rows():
    p = param((4, 5), seed=36)
    t = np.random.default_rng(37).normal(size=(4, 5))
    check(lambda: ops.sum_all(ops.mul(dc.const(t), dc.l2_normalize_rows(p.tensor()))), [p])


def test_grad_shared_leaf_accumulates():
    # the same parameter feeds two branches; grads must sum
    p = param((3, 3), seed=40)
    check(lambda: ops.add(ops.sum_all(ops.tanh(p.tensor())),
                         ops.sum_all(ops.mul(p.tensor(), p.tensor()))), [p])


# ---------------------------------------------------------------------------
# a lean library
# ---------------------------------------------------------------------------

# public functions with no caller in the library: the input-gradient check of
# the masked path (acceptance criterion 1) uses the gates, the gate node and
# the finite-difference oracle, the InfoNCE reduction (criterion 4) builds
# single-positive targets, and perfbench reads checkpoints with load_entries
UNCALLED = {("diffcore", "gradient_gate"), ("diffcore", "grad_check"),
            ("masking", "make_grad_gate"), ("model", "load_entries"),
            ("teacher", "identity_affinities")}


def library_references(src):
    """(module, name) of every name the library's code refers to: a bare name
    in its own module or imported by ``from .module import name``, and
    ``alias.name`` for an alias bound by ``from . import module``."""
    used = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        origin, aliases = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        origin[a.asname or a.name] = (node.module, a.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(origin.get(node.id, (path.stem, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                used.add((aliases[node.value.id], node.attr))
    return used


def test_every_public_function_has_a_caller_in_the_library():
    src = Path(dc.__file__).parent
    public = {(path.stem, node.name) for path in src.glob("*.py")
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = library_references(src)
    # the walk finds calls within a module, through an alias and through an import
    assert {("losses", "warmup_weight"), ("diffcore", "linear"), ("trainer", "train")} <= used
    assert sorted(public - used - UNCALLED) == []


# the library's layers, lowest first: a module may import only from a lower one
LAYERS = ({"diffcore", "cca_linear", "data_io", "masking"}, {"model"},
          {"losses", "optim", "teacher"}, {"trainer"}, {"evaluate"}, {"cli"})


def library_imports(src):
    """(module, line, imported module) of every relative import in the
    library, inside functions too; a name that ``from . import`` takes from
    the package itself counts as an import of ``__init__``."""
    modules = {path.stem for path in src.glob("*.py")}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = ([node.module] if node.module is not None else
                           [a.name if a.name in modules else "__init__" for a in node.names])
                yield from ((path.stem, node.lineno, target) for target in targets)


def test_every_library_import_points_to_a_lower_layer():
    src = Path(dc.__file__).parent
    rank = {"__init__": -1, **{name: i for i, layer in enumerate(LAYERS) for name in layer}}
    assert set(rank) == {path.stem for path in src.glob("*.py")}
    found = list(library_imports(src))
    # the walk sees both import forms
    assert {("trainer", "cca_linear"), ("cli", "__init__")} <= {(m, t) for m, _, t in found}
    assert [f"{module}.py:{line} imports {target}" for module, line, target in found
            if rank[target] >= rank[module]] == []


def test_pool_calls_keep_the_callers_errstate(monkeypatch):
    """numpy keeps ``errstate`` in a context variable that pool threads do
    not inherit, so each pool call runs in a copy of the caller's context."""
    monkeypatch.setattr(dc, "_WORKERS", 2)
    monkeypatch.setattr(dc, "_executor", None)
    big = np.full(3, 3e38, dtype=np.float32)

    def overflow():
        return big * np.float32(10.0)

    try:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            dc._concurrently([lambda: None, overflow])
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(dc._concurrently([lambda: None, overflow])[1]).all()
    finally:
        dc._executor.shutdown(wait=True)
