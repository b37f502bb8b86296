"""Reverse-mode automatic differentiation over dense numpy arrays.

Dynamic tape: each operation records a backward closure on its output node
and backward() replays the closures in reverse topological order. Two
precision modes are supported (float32 for training, float64 for
verification) and are kept strictly separate: mixing dtypes in one op is an
error. The elementwise ops take operands of equal shape only; matmul applies a
[k, n] weight to the last axis of a tensor of any rank; the layer kernels
broadcast internally. backward() leaves a gradient on the leaves only:
intermediate flows are dropped as soon as they have been propagated.

Each job is one op and one tape node with one hand-written VJP: rotate_pairs
applies the rotary transform, rms_norm normalizes, causal_attention scores,
masks, normalizes and applies the attention weights, and rk4_solve integrates
the basis ODE with fixed-step RK4, its VJP the discrete adjoint of all the
steps. causal_attention walks blocks of query rows and scores each block
against the keys up to its causal edge only, so no score of a later position
is computed outside the block's diagonal tile, and a no-grad call holds one
block's weights at a time.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

_GRAD_ENABLED = True
_DEBUG_CHECKS = False

_FLOAT_DTYPES = (np.float32, np.float64)


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block. Values are unaffected."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def set_debug_checks(on: bool) -> None:
    """When on, every created tensor is validated to be finite."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(on)


class Tensor:
    """A dense array node in the autodiff graph.

    data is always a contiguous float32 or float64 numpy array. grad is set by
    backward() on leaves only (tensors that no op produced), has the same
    shape and dtype and accumulates additively across backward calls until
    cleared.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        if _DEBUG_CHECKS and not np.all(np.isfinite(self.data)):
            raise FloatingPointError("non-finite values in tensor")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


def constant(x, dtype=None) -> Tensor:
    """A leaf that never receives gradients."""
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False)


def _node(data: np.ndarray, parents: Sequence[Tensor]) -> Tensor:
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(parents)
    return out


_FLOWS: dict[int, np.ndarray] | None = None


def _accum(t: Tensor, g: np.ndarray) -> None:
    # Closures run only inside backward(), which collects their flows per pass,
    # so a repeated backward never re-propagates stale intermediate gradients.
    cur = _FLOWS.get(id(t))
    _FLOWS[id(t)] = g if cur is None else cur + g


def _check_dtypes(a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"dtype mismatch: {a.data.dtype.name} vs {b.data.dtype.name}")


def _equal_pair(a, b) -> tuple[Tensor, Tensor]:
    a, b = as_tensor(a), as_tensor(b)
    _check_dtypes(a, b)
    if a.shape != b.shape:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}: operands must have equal shapes")
    return a, b


def backward(root: Tensor) -> None:
    """Accumulate d(root)/dx into .grad for every reachable requires_grad leaf.

    Repeated calls without zeroing add on top of existing gradients. Nodes
    that an op produced get no .grad: each one's flow is dropped once its
    closure has passed it on.
    """
    global _FLOWS
    if root.size != 1:
        raise ValueError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return
    order = _toposort(root)
    flows: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    _FLOWS = flows
    try:
        for node in reversed(order):
            if node._parents:
                g = flows.pop(id(node), None)
                if g is not None:
                    node._backward(g)
    finally:
        _FLOWS = None
    for node in order:
        g = flows.get(id(node))
        if g is not None:
            # A flow may be shared (add passes one array to both parents) and
            # optimisers scale .grad in place, so a fresh grad is a copy.
            node.grad = g.copy() if node.grad is None else node.grad + g


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS, so a chain of ops deeper than Python's recursion limit
    # still sorts.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# elementwise suite


def add(a, b) -> Tensor:
    a, b = _equal_pair(a, b)
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, g)
            if b.requires_grad:
                _accum(b, g)

        out._backward = bw
    return out


def mul(a, b) -> Tensor:
    a, b = _equal_pair(a, b)
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, g * b.data)
            if b.requires_grad:
                _accum(b, g * a.data)

        out._backward = bw
    return out


def scale(x, s: float) -> Tensor:
    """Multiply by a python scalar."""
    x = as_tensor(x)
    s = float(s)
    out = _node(x.data * x.data.dtype.type(s), (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, g * x.data.dtype.type(s))

        out._backward = bw
    return out


def exp(x) -> Tensor:
    x = as_tensor(x)
    data = np.exp(x.data)
    out = _node(data, (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, g * data)

        out._backward = bw
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp only ever sees -|z|.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def silu(x) -> Tensor:
    """x * sigmoid(x)."""
    x = as_tensor(x)
    s = _sigmoid(x.data)
    out = _node(x.data * s, (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, g * s * (1.0 + x.data * (1.0 - s)))

        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(x, w) -> Tensor:
    """x[..., k] of any rank >= 2 times a [k, n] weight, as one 2-D product
    over the folded leading axes of x."""
    x, w = as_tensor(x), as_tensor(w)
    _check_dtypes(x, w)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"matmul needs x[..., k] of rank >= 2 and a [k, n] weight, got {x.shape} x {w.shape}")
    x2 = x.data.reshape(-1, x.shape[-1])
    out = _node(np.matmul(x2, w.data).reshape(x.shape[:-1] + w.shape[1:]), (x, w))
    if out.requires_grad:

        def bw(g):
            g2 = g.reshape(-1, g.shape[-1])
            if x.requires_grad:
                _accum(x, np.matmul(g2, w.data.T).reshape(x.shape))
            if w.requires_grad:
                _accum(w, np.matmul(x2.T, g2))

        out._backward = bw
    return out


def transpose(x, axes: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    out = _node(np.transpose(x.data, axes), (x,))
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))

        def bw(g):
            _accum(x, np.transpose(g, inverse))

        out._backward = bw
    return out


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = as_tensor(x)
    shape = tuple(shape)
    out = _node(np.reshape(x.data, shape), (x,))
    if out.requires_grad:
        orig = x.shape

        def bw(g):
            _accum(x, np.reshape(g, orig))

        out._backward = bw
    return out


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.asarray(x.data.sum(dtype=x.data.dtype)), (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, np.broadcast_to(g, x.shape).astype(x.data.dtype, copy=False))

        out._backward = bw
    return out


def gather_rows(table, index) -> Tensor:
    """table[index]: embedding-style row lookup, index is an integer array."""
    table = as_tensor(table)
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise TypeError("gather index must be integral")
    if index.size and (index.min() < 0 or index.max() >= table.shape[0]):
        raise IndexError("gather index out of range")
    out = _node(table.data[index], (table,))
    if out.requires_grad:

        def bw(g):
            buf = np.zeros_like(table.data)
            np.add.at(buf, index, g)
            _accum(table, buf)

        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# layer kernels: rotary, normalization, attention, loss and the RK4 solve
#
# The kernels fix the order of their float operations: runs are compared byte
# for byte, so a reordering that is exact in real arithmetic still changes them.


def rotate_pairs(x, positions, theta) -> Tensor:
    """Rotary transform: rotate each adjacent channel pair (2i, 2i+1) of
    x[..., S, d] by the angle positions[s] * theta[i].

    positions is a plain array of S positions, theta a [d/2] tensor of the
    same dtype as x. Differentiable in x and theta.
    """
    x, theta = as_tensor(x), as_tensor(theta)
    _check_dtypes(x, theta)
    pos = np.asarray(positions, dtype=x.data.dtype).reshape(-1, 1)
    ang = np.matmul(pos, theta.data.reshape(1, -1))
    cos, sin = np.cos(ang), np.sin(ang)
    even, odd = x.data[..., 0::2], x.data[..., 1::2]
    data = np.empty_like(x.data)
    data[..., 0::2] = even * cos - odd * sin
    data[..., 1::2] = even * sin + odd * cos
    out = _node(data, (x, theta))
    if out.requires_grad:

        def bw(g):
            g_even, g_odd = g[..., 0::2], g[..., 1::2]
            if x.requires_grad:
                gx = np.empty_like(x.data)
                gx[..., 0::2] = g_even * cos + g_odd * sin
                gx[..., 1::2] = g_odd * cos - g_even * sin
                _accum(x, gx)
            if theta.requires_grad:
                lead = tuple(range(g.ndim - 2))
                g_cos = (g_even * even + g_odd * odd).sum(axis=lead)
                g_sin = (g_odd * even - g_even * odd).sum(axis=lead)
                g_ang = g_sin * cos + (-g_cos) * sin
                _accum(theta, np.matmul(pos.T, g_ang).reshape(theta.shape))

        out._backward = bw
    return out


def rms_norm(x, gain, eps: float) -> Tensor:
    """x / sqrt(mean(x**2, last axis) + eps) * gain, with gain a [d] tensor.
    Differentiable in x and gain."""
    x, gain = as_tensor(x), as_tensor(gain)
    _check_dtypes(x, gain)
    d = x.shape[-1]
    if gain.shape != (d,):
        raise ValueError(f"gain shape {gain.shape} does not match last axis {d}")
    dt = x.data.dtype.type
    ms = (x.data * x.data).sum(axis=-1, keepdims=True, dtype=x.data.dtype) * dt(1.0 / d) + dt(eps)
    inv = ms**-0.5
    y = x.data * inv
    out = _node(y * gain.data, (x, gain))
    if out.requires_grad:

        def bw(g):
            if gain.requires_grad:
                _accum(gain, (g * y).sum(axis=tuple(range(g.ndim - 1))))
            if x.requires_grad:
                gy = g * gain.data
                g_ms = (gy * x.data).sum(axis=-1, keepdims=True) * -0.5 * ms**-1.5 * dt(1.0 / d)
                g_sq = g_ms * x.data
                # Three separate additions, not gy * inv + 2 * g_sq: float addition
                # is not associative, and this is the order in which the x * inv
                # term and both operands of x * x reach x's gradient.
                _accum(x, gy * inv)
                _accum(x, g_sq)
                _accum(x, g_sq)

        out._backward = bw
    return out


ATTENTION_BLOCK = 128


def _add_rows(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    # Blocks are walked last first, and the last one reaches every key row, so
    # its part starts the sum and each earlier part adds into its leading rows.
    if total is None:
        return part
    total[..., : part.shape[-2], :] += part
    return total


def causal_attention(q, k, v, scale: float) -> Tensor:
    """Causal softmax attention over [..., S, d] inputs: output row i is the
    softmax of scale * q_i . k_j over the positions j <= i, applied to the
    rows of v. Differentiable in q, k and v.

    The kernel walks query blocks of ATTENTION_BLOCK rows. Block [a, b) scores
    its queries against keys [0, b) only, the keys cut at the causal edge, so
    a later position's score is computed inside the diagonal [a, b) x [a, b)
    tile alone. There it is set to a large negative constant before the
    rowwise max subtraction, so it gets exactly zero weight and exactly zero
    gradient. The softmax of each row runs over its whole [0, b) slab, so a
    no-grad call holds one [..., ATTENTION_BLOCK, S] slab of weights at a
    time, and a recorded one keeps only the causal slabs for its backward.
    With S <= ATTENTION_BLOCK there is one block, the dense kernel."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    _check_dtypes(q, k)
    _check_dtypes(q, v)
    if q.ndim < 2 or k.shape != q.shape or v.shape[:-1] != q.shape[:-1]:
        raise ValueError(f"attention needs q and k of one shape [..., S, d] and v [..., S, e], "
                         f"got {q.shape}, {k.shape} and {v.shape}")
    s = q.data.dtype.type(scale)
    n = q.shape[-2]
    blocks = [(a, min(a + ATTENTION_BLOCK, n)) for a in range(0, n, ATTENTION_BLOCK)]
    keep = _GRAD_ENABLED and (q.requires_grad or k.requires_grad or v.requires_grad)
    # k^T as the contiguous copy that a transpose node used to store, so both
    # products hand BLAS the operand layout they always had.
    kt = np.ascontiguousarray(k.data.swapaxes(-1, -2))
    data = np.empty(v.shape[:-2] + (n, v.shape[-1]), dtype=v.data.dtype)
    slabs = []
    for a, b in blocks:
        y = np.matmul(q.data[..., a:b, :], kt[..., :b])
        y *= s
        np.copyto(y[..., a:], s.dtype.type(-1e9), where=np.triu(np.ones((b - a, b - a), dtype=bool), k=1))
        y -= y.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
        y /= y.sum(axis=-1, keepdims=True)
        data[..., a:b, :] = np.matmul(y, v.data[..., :b, :])
        if keep:
            slabs.append(y)
    out = _node(data, (q, k, v))
    if out.requires_grad:

        def bw(g):
            g_q = np.empty_like(q.data) if q.requires_grad else None
            g_k = g_v = None
            for (a, b), y in zip(reversed(blocks), reversed(slabs)):
                g_b = g[..., a:b, :]
                g_att = np.matmul(g_b, v.data[..., :b, :].swapaxes(-1, -2))
                if v.requires_grad:
                    g_v = _add_rows(g_v, np.matmul(y.swapaxes(-1, -2), g_b))
                g_s = y * (g_att - (g_att * y).sum(axis=-1, keepdims=True)) * s
                if q.requires_grad:
                    g_q[..., a:b, :] = np.matmul(g_s, kt[..., :b].swapaxes(-1, -2))
                if k.requires_grad:
                    g_k = _add_rows(g_k, np.matmul(q.data[..., a:b, :].swapaxes(-1, -2), g_s).swapaxes(-1, -2))
            if v.requires_grad:
                _accum(v, g_v)
            if q.requires_grad:
                _accum(q, g_q)
            if k.requires_grad:
                _accum(k, g_k)

        out._backward = bw
    return out


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets over all positions.

    logits: [..., V]; targets: integer array of logits.shape[:-1].
    Stabilized by rowwise max subtraction.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} != {logits.shape[:-1]}")
    if targets.size == 0:
        raise ValueError("no positions to average over")
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(f"target out of vocabulary range [0, {vocab})")
    count = targets.size

    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    logp_t = np.take_along_axis(z - zmax - np.log(sez), targets[..., None], axis=-1)[..., 0]
    loss = np.asarray((-logp_t).sum(dtype=z.dtype) / z.dtype.type(count))
    out = _node(loss, (logits,))
    if out.requires_grad:

        def bw(g):
            p = ez / sez
            np.subtract.at(
                p.reshape(-1, vocab),
                (np.arange(count), targets.reshape(-1)),
                z.dtype.type(1),
            )
            p *= z.dtype.type(1.0 / count)
            _accum(logits, p * g)

        out._backward = bw
    return out


def rk4_solve(z, w_up, w_down, drift, h: float) -> Tensor:
    """Fixed-step RK4 from the state z[d] over n steps of size h, with the
    dynamics f(z, j) = silu(z @ w_up) @ w_down + drift[j].

    w_up is [d, m] and w_down [m, d]. drift is a plain [n, 4, d] array that
    holds the fixed drift at the times of each step's four stages. Returns
    the final state; differentiable in z, w_up and w_down.

    The forward makes the float operations of RK4 written as one tape op per
    operation (ad.matmul, ad.silu, ad.add, ad.scale), in their order: each
    stage input is a [1, d] row, and a step ends with
    z + ((k1 + (k2 + k3) * 2) + k4) * h/6. A recorded call keeps each stage's
    input, pre-activation, sigmoid and hidden row. Its backward is the
    discrete adjoint, the exact gradient of the discretised solve: it walks
    the steps last first and the stages k4, k3, k2, k1 within each, and adds
    into the weight gradients and the state's flow in the order in which
    backward() runs the closures of those per-operation nodes, so outputs
    and gradients equal theirs bit for bit."""
    z, w_up, w_down = as_tensor(z), as_tensor(w_up), as_tensor(w_down)
    _check_dtypes(z, w_up)
    _check_dtypes(z, w_down)
    drift = np.asarray(drift)
    if (z.ndim != 1 or w_up.ndim != 2 or w_up.shape[0] != z.size or w_down.shape != w_up.shape[::-1]
            or drift.ndim != 3 or len(drift) < 1 or drift.shape[1:] != (4, z.size)):
        raise ValueError(f"rk4_solve needs z [d], w_up [d, m], w_down [m, d] and drift [n >= 1, 4, d], "
                         f"got {z.shape}, {w_up.shape}, {w_down.shape} and {drift.shape}")
    d = z.size
    dt = z.data.dtype.type
    drift = drift.astype(z.data.dtype)
    keep = _GRAD_ENABLED and (z.requires_grad or w_up.requires_grad or w_down.requires_grad)
    stages = []

    def f(z_in, drift_row):
        a = np.matmul(z_in.reshape(1, d), w_up.data)
        s = _sigmoid(a)
        hidden = a * s
        if keep:
            stages.append((z_in, a, s, hidden))
        return np.matmul(hidden, w_down.data).reshape(d) + drift_row

    state = z.data
    for row in drift:
        k1 = f(state, row[0])
        k2 = f(state + k1 * dt(h / 2.0), row[1])
        k3 = f(state + k2 * dt(h / 2.0), row[2])
        k4 = f(state + k3 * dt(h), row[3])
        state = state + ((k1 + (k2 + k3) * dt(2.0)) + k4) * dt(h / 6.0)
    out = _node(state, (z, w_up, w_down))
    if out.requires_grad:

        def bw(g):
            g_up = g_down = None

            def stage_vjp(stage, g_k):
                # flow into the stage's output k -> flow into its input
                nonlocal g_up, g_down
                z_in, a, s, hidden = stage
                g_k = g_k.reshape(1, d)
                if w_down.requires_grad:
                    part = np.matmul(hidden.T, g_k)
                    g_down = part if g_down is None else g_down + part
                g_a = np.matmul(g_k, w_down.data.T)
                g_a = g_a * s * (1.0 + a * (1.0 - s))
                if w_up.requires_grad:
                    part = np.matmul(z_in.reshape(1, d).T, g_a)
                    g_up = part if g_up is None else g_up + part
                return np.matmul(g_a, w_up.data.T).reshape(d)

            g_z = g
            for step in reversed(range(len(drift))):
                s1, s2, s3, s4 = stages[4 * step:4 * step + 4]
                g_incr = g_z * dt(h / 6.0)
                g_mid = g_incr * dt(2.0)
                g4 = stage_vjp(s4, g_incr)
                g3 = stage_vjp(s3, g_mid + g4 * dt(h))
                g2 = stage_vjp(s2, g_mid + g3 * dt(h / 2.0))
                g1 = stage_vjp(s1, g_incr + g2 * dt(h / 2.0))
                # the state feeds the step's sum and the inputs of stages k4,
                # k3, k2 and k1; backward() ran the per-operation nodes in
                # that order, so their flows add up in it
                g_z = (((g_z + g4) + g3) + g2) + g1
            if z.requires_grad:
                _accum(z, g_z)
            if w_up.requires_grad:
                _accum(w_up, g_up)
            if w_down.requires_grad:
                _accum(w_down, g_down)

        out._backward = bw
    return out
