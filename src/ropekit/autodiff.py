"""Reverse-mode automatic differentiation over dense numpy arrays.

Dynamic tape: each operation records a backward closure on its output node
and backward() replays the closures in reverse topological order. Two
precision modes are supported (float32 for training, float64 for
verification) and are kept strictly separate: mixing dtypes in one op is an
error. Implicit broadcasting is limited to scalar-with-tensor and
equal-shape operands; everything else is an explicit op (reshape, expand).

Each job is one op and one tape node: causal_softmax scales, masks and
normalizes the attention scores in one pass with one hand-written VJP.
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

    data is always a contiguous float32 or float64 numpy array. grad, once
    populated by backward(), has the same shape and dtype and accumulates
    additively across backward calls until cleared.
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


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to a (scalar-broadcast) operand shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(dtype=g.dtype)).reshape(shape)


def _check_dtypes(a: Tensor, b: Tensor) -> None:
    if a.data.dtype != b.data.dtype:
        raise TypeError(f"dtype mismatch: {a.data.dtype.name} vs {b.data.dtype.name}")


def _coerce_pair(a, b) -> tuple[Tensor, Tensor]:
    # Bare python numbers adopt the other operand's dtype.
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = constant(b, dtype=a.data.dtype)
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = constant(a, dtype=b.data.dtype)
    else:
        a, b = as_tensor(a), as_tensor(b)
    _check_dtypes(a, b)
    if a.shape != b.shape and a.size != 1 and b.size != 1:
        raise ValueError(
            f"incompatible shapes {a.shape} and {b.shape}: only scalar-with-tensor "
            "and equal-shape broadcasting is supported"
        )
    return a, b


def backward(root: Tensor) -> None:
    """Accumulate d(root)/dx into .grad for every reachable requires_grad node.

    Repeated calls without zeroing add on top of existing gradients.
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
            g = flows.get(id(node))
            if g is not None and node._backward is not None:
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
    # Iterative DFS: unrolled ODE graphs are far deeper than the recursion limit.
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
    a, b = _coerce_pair(a, b)
    out = _node(a.data + b.data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, _reduce_to(g, a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(g, b.shape))

        out._backward = bw
    return out


def sub(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = _node(a.data - b.data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, _reduce_to(g, a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(-g, b.shape))

        out._backward = bw
    return out


def mul(a, b) -> Tensor:
    a, b = _coerce_pair(a, b)
    out = _node(a.data * b.data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, _reduce_to(g * b.data, a.shape))
            if b.requires_grad:
                _accum(b, _reduce_to(g * a.data, b.shape))

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


def cos(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.cos(x.data), (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, -g * np.sin(x.data))

        out._backward = bw
    return out


def sin(x) -> Tensor:
    x = as_tensor(x)
    out = _node(np.sin(x.data), (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, g * np.cos(x.data))

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


def powf(x, p: float) -> Tensor:
    """Elementwise x**p for real p; domain x > 0 when p is non-integral."""
    x = as_tensor(x)
    p = float(p)
    out = _node(x.data**p, (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, g * p * x.data ** (p - 1.0))

        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b) -> Tensor:
    """Matrix product; operands of equal rank >= 2 with equal leading dims."""
    a, b = as_tensor(a), as_tensor(b)
    _check_dtypes(a, b)
    if a.ndim < 2 or b.ndim < 2 or a.ndim != b.ndim:
        raise ValueError(f"matmul ranks must match and be >= 2, got {a.shape} x {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = _node(np.matmul(a.data, b.data), (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, np.matmul(g, b.data.swapaxes(-1, -2)))
            if b.requires_grad:
                _accum(b, np.matmul(a.data.swapaxes(-1, -2), g))

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


def expand(x, shape: Sequence[int]) -> Tensor:
    """Explicit broadcast to a larger shape; gradient sums over expanded axes."""
    x = as_tensor(x)
    shape = tuple(shape)
    out = _node(np.broadcast_to(x.data, shape), (x,))
    if out.requires_grad:
        orig = x.shape

        def bw(g):
            extra = g.ndim - len(orig)
            if extra:
                g = g.sum(axis=tuple(range(extra)))
            axes = tuple(i for i, s in enumerate(orig) if s == 1 and g.shape[i] != 1)
            if axes:
                g = g.sum(axis=axes, keepdims=True)
            _accum(x, g.reshape(orig))

        out._backward = bw
    return out


def _sum(x: Tensor, total: np.ndarray) -> Tensor:
    out = _node(total, (x,))
    if out.requires_grad:

        def bw(g):
            _accum(x, np.broadcast_to(g, x.shape).astype(x.data.dtype, copy=False))

        out._backward = bw
    return out


def sum_all(x) -> Tensor:
    x = as_tensor(x)
    return _sum(x, np.asarray(x.data.sum(dtype=x.data.dtype)))


def sum_last(x) -> Tensor:
    x = as_tensor(x)
    return _sum(x, x.data.sum(axis=-1, keepdims=True, dtype=x.data.dtype))


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
# paired-channel helpers (rotary layout: adjacent (2i, 2i+1) pairs)


def _every_other(x, start: int) -> Tensor:
    x = as_tensor(x)
    out = _node(x.data[..., start::2], (x,))
    if out.requires_grad:

        def bw(g):
            buf = np.zeros_like(x.data)
            buf[..., start::2] = g
            _accum(x, buf)

        out._backward = bw
    return out


def even_pairs(x) -> Tensor:
    """Channels 0, 2, 4, ...: the first member of each pair."""
    return _every_other(x, 0)


def odd_pairs(x) -> Tensor:
    """Channels 1, 3, 5, ...: the second member of each pair."""
    return _every_other(x, 1)


def interleave_pairs(a, b) -> Tensor:
    """Zip two [..., d/2] tensors back into [..., d] adjacent pairs."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"interleave shapes differ: {a.shape} vs {b.shape}")
    _check_dtypes(a, b)
    data = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.data.dtype)
    data[..., 0::2] = a.data
    data[..., 1::2] = b.data
    out = _node(data, (a, b))
    if out.requires_grad:

        def bw(g):
            if a.requires_grad:
                _accum(a, g[..., 0::2])
            if b.requires_grad:
                _accum(b, g[..., 1::2])

        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# attention and loss kernels


def causal_softmax(scores, scale: float) -> Tensor:
    """Attention weights: softmax along the last axis of scores * scale, with
    entries above the diagonal of the last two axes set to a large negative
    constant first, so future positions get exactly zero weight and exactly
    zero gradient. Stabilized by rowwise max subtraction."""
    scores = as_tensor(scores)
    s = scores.data.dtype.type(scale)
    future = np.triu(np.ones(scores.shape[-2:], dtype=bool), k=1)
    y = scores.data * s
    np.copyto(y, s.dtype.type(-1e9), where=future)
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = _node(y, (scores,))
    if out.requires_grad:

        def bw(g):
            inner = (g * y).sum(axis=-1, keepdims=True)
            _accum(scores, y * (g - inner) * s)

        out._backward = bw
    return out


def softmax_cross_entropy(logits, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood of integer targets over unmasked positions.

    logits: [..., V]; targets: integer array of logits.shape[:-1]; mask: bool
    array of the same shape as targets or None for all-on. Stabilized by
    rowwise max subtraction.
    """
    logits = as_tensor(logits)
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} != {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target out of vocabulary range [0, {vocab})")
    if mask is None:
        mask = np.ones(targets.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != targets.shape:
            raise ValueError("mask shape must match targets")
    count = int(mask.sum())
    if count == 0:
        raise ValueError("no unmasked positions to average over")

    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=-1, keepdims=True)
    logp_t = np.take_along_axis(z - zmax - np.log(sez), targets[..., None], axis=-1)[..., 0]
    loss = np.asarray((-logp_t * mask).sum(dtype=z.dtype) / z.dtype.type(count))
    out = _node(loss, (logits,))
    if out.requires_grad:

        def bw(g):
            p = ez / sez
            np.subtract.at(
                p.reshape(-1, vocab),
                (np.arange(targets.size), targets.reshape(-1)),
                z.dtype.type(1),
            )
            p *= (mask[..., None] / count).astype(z.dtype)
            _accum(logits, p * g)

        out._backward = bw
    return out
