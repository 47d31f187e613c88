"""Minimal reverse-mode autodiff over dense 2-D float32 or float64 matrices.

Provides the matrix primitives the model needs; the loss heads build their
own nodes through ``_node``. ``gradient_gate`` is kept for the input-gradient
check of acceptance criterion 1, with ``grad_check`` its finite-difference
oracle. Every primitive with an input that leads to a ``Parameter`` records
a closure computing its analytic input gradients; one whose inputs are all
constants records nothing.

Each trunk layer is one node whose closure keeps only what its backward
reads: ``encoder_layer`` (linear, batch or layer norm, tanh, dropout) keeps
the normalised values, the dropout mask and its output, and rebuilds the
tanh output under dropout; ``linear_tanh`` keeps its output and
``add_layer_norm`` the normalised values. No linear output, norm output or
residual sum outlives the forward. Each gives the values, gradients,
running statistics, dropout draws and NumericError texts of the chain of
single-op nodes it replaces, bit for bit.

``backward`` walks the tape from a scalar loss once, accumulates into
reachable ``Parameter`` objects and lets go of each node's gradient, closure
and parents as soon as it has used them, so nothing of the tape is kept
afterwards. Inside ``no_tape()`` primitives compute the same values but
record nothing. A tape is rebuilt on every forward pass and is
single-threaded.

A tensor keeps a float32 or a float64 value; anything else becomes float64.
Every primitive computes in the dtype of its inputs and returns each input
gradient in that input's dtype, so a float32 pass stays float32 forward and
backward. Scalars that enter a float32 computation are Python floats: under
NumPy 2 promotion (NEP 50) a float64 numpy scalar would turn the result
float64.

``ParamArena`` keeps the values and gradients of a model's parameters in
two flat float64 arrays and the Adam moments in two flat float32 arrays, so
that the optimizer and the EMA teacher can walk them in cache-sized blocks,
one share of the blocks per CPU. No float32 copy of the values is kept: a
float32 parameter leaf rounds the value each time an op reads it (see the
primitives).
"""

from __future__ import annotations

import contextvars
import os
from functools import partial

import numpy as np


class DiffError(Exception):
    """Base class for engine failures."""


class ShapeError(DiffError):
    pass


class NumericError(DiffError):
    pass


def _check_finite(op, value):
    if not np.isfinite(value).all():
        raise NumericError(f"{op}: non-finite forward value")


def _matrix(value):
    """``value`` as an array: float32 and float64 kept, anything else float64."""
    arr = np.asarray(value)
    return arr if arr.dtype.char in "fd" else arr.astype(np.float64)


class Tensor:
    """A 2-D float32 or float64 matrix plus tape bookkeeping.

    ``needs_grad`` is true for a parameter leaf and for a taped node, which
    has at least one parent that needs a gradient."""

    __slots__ = ("value", "op", "_parents", "_backward", "param", "needs_grad", "__weakref__")

    def __init__(self, value, op="const", param=None):
        arr = _matrix(value)
        if arr.ndim != 2:
            raise ShapeError(f"{op}: expected a 2-D matrix, got shape {arr.shape}")
        self.value = arr
        self.op = op
        self._parents = ()
        self._backward = None
        self.param = param
        self.needs_grad = param is not None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"<Tensor {self.op} {self.shape}>"


def const(value):
    return Tensor(value)


class _Float32Leaf(Tensor):
    """A float32 tape leaf of a parameter that holds no array: ``value``
    rounds the parameter's float64 value each time it is read, and
    ``shape`` is the parameter's, read without rounding."""

    __slots__ = ()

    def __init__(self, param):
        self.op, self._parents, self._backward = "param", (), None
        self.param, self.needs_grad = param, True

    @property
    def value(self):
        return self.param.value.astype(np.float32)

    @property
    def shape(self):
        return self.param.value.shape


class Parameter:
    """Learnable float64 matrix of a ``ParamArena``: its value, gradient
    accumulator and float32 Adam moments are views into the arena's arrays."""

    __slots__ = ("name", "value", "grad", "adam_m", "adam_v", "decay")

    def __init__(self, name, value, grad, adam_m, adam_v, decay):
        self.name = name
        self.value, self.grad, self.adam_m, self.adam_v = value, grad, adam_m, adam_v
        self.decay = decay

    def tensor(self, dtype=np.float64):
        """A tape leaf tied to this parameter, whose gradient in either dtype
        accumulates into the float64 ``grad``: in float64 the value itself,
        in float32 a leaf that rounds the value at each read. The values do
        not change between a pass's forward and its backward (the optimizer
        and the EMA run after both), so every read gives the same bits."""
        if dtype == np.float64:
            return Tensor(self.value, op="param", param=self)
        return _Float32Leaf(self)

    def zero_grad(self):
        self.grad[...] = 0.0

    def __repr__(self):
        return f"<Parameter {self.name!r} {self.value.shape}>"


# float64 elements per block of an arena pass: 256 KiB, so that the few
# arrays a pass touches stay in a core's L2 cache between its ufuncs
BLOCK = 1 << 15

# threads that share an arena walk, the calling one included: one per CPU
# this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_executor = None
_worker_scratch = []  # 2 * BLOCK float64 for each pool thread of a walk


def _pool():
    """The process's thread pool for arena walks, started by the first walk
    that needs one."""
    global _executor
    if _executor is None:
        # imported here: a process that never needs the pool, such as a desk
        # training, is spared the module's memory
        from concurrent.futures import ThreadPoolExecutor
        _executor = ThreadPoolExecutor(max_workers=_WORKERS - 1, thread_name_prefix="arena")
    return _executor


def _concurrently(calls):
    """Run every zero-argument call and return their results in order: the
    first on the calling thread, the others on the pool, each in a copy of
    the caller's context, so that they keep its ``np.errstate``. An
    exception raised by any call is re-raised here once every call has
    stopped. Each call must touch only its own outputs and call only numpy."""
    futures = [_pool().submit(contextvars.copy_context().run, call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc
    return [first] + [f.result() for f in futures]


def _forget_pool():
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool object but none of its threads
    os.register_at_fork(after_in_child=_forget_pool)


class ParamArena:
    """Values and gradients of many parameters, each kind in one contiguous
    float64 array laid out in parameter order, and the two Adam moments in
    two float32 arrays of the same layout.

    ``layout`` lists (name, shape, decay) triples; decayed parameters must
    come first, so weight decay covers the prefix ``[0, decay_end)``.
    ``params`` holds one ``Parameter`` per triple whose four arrays are
    reshaped views into the arena; values start uninitialised, for the
    caller to fill once. Gradients and moments start as ``np.zeros``, whose
    pages are mapped on first write, so an arena that is never trained (a
    teacher's, an eval model's) takes memory for its values only. No arena
    keeps a float32 copy of its values: a float32 pass rounds each value as
    an op reads it (``Parameter.tensor``). A trained arena takes 24 bytes
    per parameter (value and gradient 8 each, the moments 4 each), an EMA
    teacher's 8 (its values).

    The elementwise passes over an arena (``prepare_step``, the optimizer's
    and the EMA teacher's) go through ``walk``, which spreads the blocks over
    one thread per CPU. Each element gets the same ufuncs whatever the thread
    count, so every bit is independent of it. ``scratch`` serves the passes:
    two blocks (or twice the arena, when smaller) for the calling thread, or
    the largest parameter.
    """

    def __init__(self, layout):
        sizes = [int(np.prod(shape)) for _, shape, _ in layout]
        decays = [decay for _, _, decay in layout]
        if decays != sorted(decays, reverse=True):
            raise ValueError("ParamArena: decayed parameters must come first")
        self.size = sum(sizes)
        self.decay_end = sum(sizes[:decays.count(True)])
        self.value = np.empty(self.size)
        self.grad = np.zeros(self.size)
        self.adam_m = np.zeros(self.size, dtype=np.float32)
        self.adam_v = np.zeros(self.size, dtype=np.float32)
        self.scratch = np.empty(max([2 * min(BLOCK, self.size)] + sizes))
        self.params = []
        start = 0
        for (name, shape, decay), size in zip(layout, sizes):
            stop = start + size
            views = (a[start:stop].reshape(shape) for a in (self.value, self.grad, self.adam_m, self.adam_v))
            self.params.append(Parameter(name, *views, decay))
            start = stop

    def layout(self):
        return [(p.name, p.value.shape, p.decay) for p in self.params]

    def prepare_step(self):
        """Zero the gradients, in one walk, before a step accumulates its
        passes' gradients into them."""
        def block(start, stop, scratch):
            self.grad[start:stop] = 0.0

        self.walk(block)

    def walk(self, fn):
        """Call ``fn(start, stop, scratch)`` once for each consecutive stretch
        of at most ``BLOCK`` elements; ``scratch`` holds at least
        ``2 * (stop - start)`` float64 that no concurrent call shares.

        The blocks are cut into one contiguous share per worker, with one
        worker per CPU up to one per block. The calling thread walks the
        first share and the process's pool threads the others; with a single
        worker the walk runs inline and starts no thread. ``fn`` runs on
        several threads at once, so it must write only its own stretch and
        call only numpy. An exception raised in any share is re-raised here
        once every share has stopped."""
        nblocks = -(-self.size // BLOCK)
        workers = min(_WORKERS, nblocks)
        if workers <= 1:
            for start in range(0, self.size, BLOCK):
                fn(start, min(start + BLOCK, self.size), self.scratch)
            return
        bounds = [k * nblocks // workers * BLOCK for k in range(workers)] + [self.size]

        def share(lo, hi, scratch):
            for start in range(lo, hi, BLOCK):
                fn(start, min(start + BLOCK, hi), scratch)

        while len(_worker_scratch) < workers - 1:
            _worker_scratch.append(np.empty(2 * BLOCK))
        scratches = [self.scratch] + _worker_scratch[:workers - 1]
        _concurrently([partial(share, bounds[k], bounds[k + 1], scratches[k]) for k in range(workers)])


_taping = True


class no_tape:
    """Context manager for forward-only passes: primitives still check their
    values for finiteness but return tensors with no parents and no closure,
    so each intermediate is freed once nothing refers to it."""

    def __enter__(self):
        global _taping
        self._outer = _taping
        _taping = False

    def __exit__(self, *exc):
        global _taping
        _taping = self._outer


# ops whose nodes check their intermediate values themselves, under the
# names of the single ops they stand for; their outputs need no second check
_CHECKED_INSIDE = frozenset({"encoder_layer", "linear_tanh", "add_layer_norm"})


def _node(op, value, parents, backward):
    """A primitive's output, checked for finiteness; taped (with its parents
    and closure) only when taping is on and some parent needs a gradient."""
    value = _matrix(value)
    if op not in _CHECKED_INSIDE:
        _check_finite(op, value)
    out = Tensor(value, op=op)
    if _taping and any(p.needs_grad for p in parents):
        out._parents, out._backward, out.needs_grad = tuple(parents), backward, True
    return out


def backward(loss):
    """Reverse pass from a scalar loss; *accumulates* into each reachable
    ``Parameter.grad`` and returns None.

    A tape can be walked once: each node's gradient is dropped, and its
    closure and parent links cleared, as soon as the node has been processed,
    so saved activations are freed once their last consumer has run. No
    gradient is kept for a parent that needs none.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward: root must be 1x1, got {loss.shape}")

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
            if p.needs_grad and id(p) not in seen:
                stack.append((p, False))

    grads = {id(loss): np.ones((1, 1))}
    while order:
        node = order.pop()
        parents, node_backward = node._parents, node._backward
        node._parents, node._backward = (), None
        # None: no closure sent the node a gradient
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.param is not None:
            node.param.grad += g
        if node_backward is None:
            continue
        for p, pg in zip(parents, node_backward(g)):
            if pg is None or not p.needs_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

# The ops that take parameter leaves (matmul, linear and the layer nodes)
# read each input's ``value`` once in their forward. One whose backward needs
# a weight keeps the weight's tensor, not its value, and reads it again only
# for the input gradient g @ w.T, so a float32 leaf's rounded weight never
# outlives the forward or the closure that reads it.

def matmul(a, b):
    """a @ b; backward reads ``b`` again for the gradient of ``a``."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    av, a_grad = a.value, a.needs_grad

    def bwd(g):
        return (g @ b.value.T if a_grad else None), av.T @ g

    return _node("matmul", av @ b.value, (a, b), bwd)


def _linear_value(xv, w, b):
    """xv @ w + b with a 1 x cols bias row, as a fresh array."""
    if xv.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"linear: {xv.shape} x {w.shape} + {b.shape}")
    y = xv @ w.value
    y += b.value
    return y


def _linear_grads(g, xv, w, x_grad):
    """Input, weight and bias gradients of x @ w + b; no input gradient, and
    no read of the weight tensor ``w``, when ``x_grad`` is false."""
    return (g @ w.value.T if x_grad else None), xv.T @ g, g.sum(axis=0, keepdims=True)


def linear(x, w, b):
    """x @ w + b with a 1 x cols bias row, as one node. Values and gradients
    are those of an add node over a matmul node; the input gradient g @ w.T
    is not computed when ``x`` needs none, as for a first layer on data."""
    xv, x_grad = x.value, x.needs_grad

    def bwd(g):
        return _linear_grads(g, xv, w, x_grad)

    return _node("linear", _linear_value(xv, w, b), (x, w, b), bwd)


_NORM_EPS = 1e-5
_BN_MOMENTUM = 0.1


def _standardize(x, axis):
    """(mu, var, inv, xhat, spare) of x standardised over ``axis``.

    x - mu is computed once and scaled by inv = 1/sqrt(var + eps) in place
    into xhat; var is np.var's own arithmetic on the centred copy, bit for
    bit. ``spare`` is a free buffer of x's shape for the output."""
    mu = x.mean(axis=axis, keepdims=True)
    xhat = x - mu
    spare = xhat * xhat
    var = spare.sum(axis=axis, keepdims=True) / x.shape[axis]
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    xhat *= inv
    return mu, var, inv, xhat, spare


def _normalize(h, gamma, beta, stats, train):
    """(y, xhat, inv, axis) for y = gamma * xhat + beta, the normalised
    array ``h``, checked for finiteness; ``gamma`` and ``beta`` are 1 x d
    arrays.

    With ``stats``, the float64 1 x d running mean and variance, this is
    batch norm over rows: train mode standardises with the batch statistics
    and folds them into ``stats`` in place, eval mode standardises with
    ``stats`` cast to h's dtype (``axis`` None: the statistics are fixed).
    Without, it is layer norm over each row."""
    op = "layer_norm" if stats is None else "batch_norm"
    d = h.shape[1]
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(f"{op}: affine shapes {gamma.shape}/{beta.shape} vs d={d}")
    if stats is not None and not train:
        running_mean, running_var = stats
        inv = 1.0 / np.sqrt(running_var.astype(h.dtype, copy=False) + _NORM_EPS)
        xhat = h - running_mean.astype(h.dtype, copy=False)
        xhat *= inv
        y = xhat * gamma
        axis = None
    else:
        axis = 1 if stats is None else 0
        if axis == 0 and h.shape[0] < 2:
            raise ShapeError("batch_norm: train mode needs at least 2 samples")
        mu, var, inv, xhat, y = _standardize(h, axis)
        if stats is not None:
            running_mean, running_var = stats
            running_mean *= 1.0 - _BN_MOMENTUM
            running_mean += _BN_MOMENTUM * mu
            running_var *= 1.0 - _BN_MOMENTUM
            running_var += _BN_MOMENTUM * var
        np.multiply(xhat, gamma, out=y)
    y += beta
    _check_finite(op, y)
    return y, xhat, inv, axis


def _norm_backward(g, gamma, xhat, inv, axis):
    """Input, gamma and beta gradients of y = gamma * xhat + beta with xhat
    standardised over ``axis`` of length m: inv/m * (m*dxhat - sum(dxhat)
    - xhat*sum(dxhat*xhat)) in that operand order, on two buffers. With
    ``axis`` None the statistics are fixed and the input gradient is
    g * gamma * inv."""
    if axis is None:
        return g * gamma * inv, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)
    m = xhat.shape[axis]
    dx = g * gamma
    tmp = dx * xhat
    s2 = tmp.sum(axis=axis, keepdims=True)
    s1 = dx.sum(axis=axis, keepdims=True)
    np.multiply(g, xhat, out=tmp)
    dgamma = tmp.sum(axis=0, keepdims=True)
    dx *= m
    dx -= s1
    np.multiply(xhat, s2, out=tmp)
    dx -= tmp
    dx *= inv / m
    return dx, dgamma, g.sum(axis=0, keepdims=True)


def _tanh_grad(t, g, out=None):
    """g * (1 - t*t), the gradient through t = tanh(y), into ``out``."""
    dy = np.multiply(t, t, out=out)
    np.subtract(1.0, dy, out=dy)
    dy *= g
    return dy


def encoder_layer(x, w, b, gamma, beta, stats, train, rate, rng):
    """One encoder layer as one node: linear, norm, tanh, then in train mode
    inverted dropout at ``rate`` with a mask drawn from ``rng``, survivors
    scaled by 1/(1-rate). The norm is batch norm with the running ``stats``
    (see ``_normalize``), or layer norm when ``stats`` is None.

    Values, running statistics, the draw and every gradient are those of
    the chain of single-op nodes linear, batch or layer norm, tanh and
    dropout, bit for bit, and so is a NumericError: the linear and the norm
    outputs are checked, and a tanh or a dropout of finite values is finite.
    The closure keeps the normalised values, the dropout mask and the
    output; under dropout, backward rebuilds the tanh output from the
    normalised values with the forward's own ufuncs. The input gradient is
    not computed when ``x`` needs none."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate {rate} outside [0, 1)")
    xv, x_grad = x.value, x.needs_grad
    y = _linear_value(xv, w, b)
    _check_finite("linear", y)
    gv, bv = gamma.value, beta.value
    out, xhat, inv, axis = _normalize(y, gv, bv, stats, train)
    np.tanh(out, out=out)
    keep = None
    if train and rate > 0.0:
        # a boolean mask: (t * mask) * scale equals t * (mask / (1 - rate))
        # bit for bit, since multiplying by 1.0 is exact
        keep = rng.random(out.shape) >= rate
        scale = 1.0 / (1.0 - rate)
        out *= keep
        out *= scale

    def bwd(g):
        if keep is None:
            dy = _tanh_grad(out, g)
        else:
            dt = g * keep
            dt *= scale
            t = xhat * gv
            t += bv
            np.tanh(t, out=t)
            dy = _tanh_grad(t, dt, out=t)
        dx, dgamma, dbeta = _norm_backward(dy, gv, xhat, inv, axis)
        return _linear_grads(dx, xv, w, x_grad) + (dgamma, dbeta)

    return _node("encoder_layer", out, (x, w, b, gamma, beta), bwd)


def linear_tanh(x, w, b):
    """tanh(x @ w + b) as one node, a decoder hidden layer. Values,
    gradients and a NumericError are those of a linear node then a tanh
    node; only the linear output is checked."""
    xv, x_grad = x.value, x.needs_grad
    t = _linear_value(xv, w, b)
    _check_finite("linear", t)
    np.tanh(t, out=t)

    def bwd(g):
        return _linear_grads(_tanh_grad(t, g), xv, w, x_grad)

    return _node("linear_tanh", t, (x, w, b), bwd)


def add_layer_norm(a, b, gamma, beta):
    """layer_norm(a + b) as one node, a residual connection. Values,
    gradients and a NumericError are those of an add node then a layer
    norm node; the closure keeps the normalised values, not the sum."""
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} + {b.shape}")
    s = a.value + b.value
    _check_finite("add", s)
    gv = gamma.value
    y, xhat, inv, _ = _normalize(s, gv, beta.value, None, True)

    def bwd(g):
        dx, dgamma, dbeta = _norm_backward(g, gv, xhat, inv, 1)
        return dx, dx, dgamma, dbeta

    return _node("add_layer_norm", y, (a, b, gamma, beta), bwd)


ZERO_ROW_NORM = 1e-12


def l2_normalize_rows(a):
    """Rows scaled to unit L2 norm; rows with norm < ZERO_ROW_NORM map to zeros."""
    norms = np.linalg.norm(a.value, axis=1, keepdims=True)
    live = norms >= ZERO_ROW_NORM
    safe = np.where(live, norms, 1.0)
    y = np.where(live, a.value / safe, 0.0)

    def bwd(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return (np.where(live, (g - y * inner) / safe, 0.0),)

    return _node("l2_normalize_rows", y, (a,), bwd)


def gradient_gate(a, gate):
    """Identity forward; backward multiplies the incoming gradient by ``gate``."""
    gate = np.asarray(gate, dtype=a.value.dtype)
    if gate.shape != a.shape:
        raise ShapeError(f"gradient_gate: {a.shape} vs gate {gate.shape}")

    def bwd(g):
        return (g * gate,)

    return _node("gradient_gate", a.value, (a,), bwd)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(fn, params, step=1e-5, max_coords=5, seed=0):
    """Max relative error between analytic and central-difference gradients.

    ``fn`` must be a deterministic zero-argument callable returning a scalar
    Tensor built from the given parameters. Up to ``max_coords`` coordinates
    per parameter are sampled.
    """
    if step <= 0:
        raise ValueError("grad_check: step must be positive")
    for p in params:
        p.zero_grad()
    backward(fn())
    analytic = {id(p): p.grad.copy() for p in params}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        size = p.value.size
        coords = np.arange(size) if size <= max_coords else rng.choice(size, max_coords, replace=False)
        flat = p.value.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            up = fn().value[0, 0]
            flat[c] = orig - step
            down = fn().value[0, 0]
            flat[c] = orig
            fd = (up - down) / (2.0 * step)
            a = analytic[id(p)].reshape(-1)[c]
            err = abs(a - fd) / max(1e-8, abs(fd))
            worst = max(worst, err)
    return worst
