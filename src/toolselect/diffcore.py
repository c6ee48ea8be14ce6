"""Minimal dense reverse-mode differentiation over float64 numpy arrays.

Tensors wrap a numpy array plus a backward closure; calling ``backward``
on a scalar root walks the tape in reverse topological order. There is no
broadcasting beyond row-vector bias addition -- every other shape must
match exactly, which keeps shape bugs loud.
"""

import itertools

import numpy as np

from . import kernels
from .errors import (
    EmptyReferenceSetError,
    NoValidCandidateError,
    ShapeMismatchError,
)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._prev = ()

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data.reshape(()))

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data, parents, backward_fn):
    req = any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._prev = tuple(parents)
        out._backward = backward_fn
    return out


def constant(data):
    return Tensor(data, requires_grad=False)


def add(a, b):
    """Elementwise add; also accepts a row-vector bias for a matrix ``a``."""
    if a.data.shape == b.data.shape:
        def back(g):
            if a.requires_grad:
                a.accumulate(g)
            if b.requires_grad:
                b.accumulate(g)
        return _make(a.data + b.data, (a, b), back)
    if a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]:
        def back(g):
            if a.requires_grad:
                a.accumulate(g)
            if b.requires_grad:
                b.accumulate(g.sum(axis=0))
        return _make(a.data + b.data[None, :], (a, b), back)
    raise ShapeMismatchError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")


def sub(a, b):
    return add(a, scale(b, -1.0))


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(g * b.data)
        if b.requires_grad:
            b.accumulate(g * a.data)
    return _make(a.data * b.data, (a, b), back)


def scale(a, c):
    c = float(c)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * c)
    return _make(a.data * c, (a,), back)


def affine(a, w, b):
    """Elementwise w*a + b with python scalars w, b."""
    w = float(w)
    b = float(b)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * w)
    return _make(a.data * w + b, (a,), back)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(
            f"matmul: expected 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul: inner dimensions disagree: {a.data.shape} vs {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)
    return _make(a.data @ b.data, (a, b), back)


def bmm(a, b):
    """Batched matrix product of 3-D tensors: (G, n, k) @ (G, k, m) -> (G, n, m)."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeMismatchError(
            f"bmm: expected 3-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeMismatchError(
            f"bmm: batch or inner dimensions disagree: {a.data.shape} vs {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.transpose(0, 2, 1))
        if b.requires_grad:
            b.accumulate(a.data.transpose(0, 2, 1) @ g)
    return _make(a.data @ b.data, (a, b), back)


def concat_cols(parts):
    """Column-wise concatenation of 2-D tensors with equal row counts."""
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeMismatchError("concat_cols: operands must be 2-D with equal row counts")
    offsets = list(itertools.accumulate([p.data.shape[1] for p in parts], initial=0))

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[:, lo:hi])
    return _make(np.concatenate([p.data for p in parts], axis=1), parts, back)


def stack_rows(parts):
    """Concatenate tensors along axis 0 (1-row blocks, 2-D blocks or 1-D vectors)."""
    offsets = list(itertools.accumulate([p.data.shape[0] for p in parts], initial=0))

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate(g[lo:hi])
    return _make(np.concatenate([p.data for p in parts], axis=0), parts, back)


def take_rows(a, idx):
    """Gather entries of ``a`` along axis 0; repeated indices are allowed."""
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, idx, g)
            a.accumulate(acc)
    return _make(a.data[idx], (a,), back)


def scatter_1d(a, idx, size):
    """Place a 1-D tensor's entries at distinct flat positions ``idx`` of a
    zero array of shape ``size`` (an int for a vector)."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 1 or idx.shape != a.data.shape:
        raise ShapeMismatchError(
            f"scatter_1d: values {a.data.shape} vs indices {idx.shape}")
    data = np.zeros(size)
    data.reshape(-1)[idx] = a.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g.reshape(-1)[idx])
    return _make(data, (a,), back)


def reshape(a, shape):
    def back(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))
    return _make(a.data.reshape(shape), (a,), back)


def sum_all(a):
    def back(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g)))
    return _make(a.data.sum(), (a,), back)


def mean_all(a):
    n = a.data.size

    def back(g):
        if a.requires_grad:
            a.accumulate(np.full_like(a.data, float(g) / n))
    return _make(a.data.mean(), (a,), back)


def wsum(a, w):
    """Weighted sum against a constant numpy array of identical shape."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != a.data.shape:
        raise ShapeMismatchError(f"wsum: weight shape {w.shape} != tensor shape {a.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(float(g) * w)
    return _make((a.data * w).sum(), (a,), back)


def exp(a):
    y = np.exp(a.data)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * y)
    return _make(y, (a,), back)


def log_clamped(a, eps=1e-12):
    clamped = np.maximum(a.data, eps)

    def back(g):
        if a.requires_grad:
            grad = np.where(a.data > eps, g / clamped, 0.0)
            a.accumulate(grad)
    return _make(np.log(clamped), (a,), back)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def back(g):
        if a.requires_grad:
            a.accumulate(g * y * (1.0 - y))
    return _make(y, (a,), back)


def gelu(a):
    """Exact-erf GELU: 0.5*x*(1+erf(x/sqrt(2)))."""
    def back(g):
        if a.requires_grad:
            a.accumulate(kernels.gelu_bwd(a.data, g))
    return _make(kernels.gelu_fwd(a.data), (a,), back)


def softmax_rows(a):
    """Softmax along the last axis."""
    shape = a.data.shape
    y = kernels.softmax_rows(a.data.reshape(-1, shape[-1])).reshape(shape)

    def back(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            a.accumulate(y * (g - dot))
    return _make(y, (a,), back)


def masked_softmax(scores, mask):
    """Softmax along the last axis over the unmasked entries.

    ``scores`` is one score vector or a stack of rows, with a boolean mask of
    the same shape. Masked entries are exactly zero in the output and receive
    exactly zero gradient. Raises NoValidCandidateError when every entry of a
    row is masked.
    """
    mask = np.asarray(mask, dtype=bool)
    if scores.data.ndim == 0 or mask.shape != scores.data.shape:
        raise ShapeMismatchError(
            f"masked_softmax: scores {scores.data.shape} vs mask {mask.shape}")
    if not mask.any(axis=-1).all():
        raise NoValidCandidateError("masked_softmax: all candidates masked")
    y = kernels.masked_softmax(scores.data, mask)

    def back(g):
        if scores.requires_grad:
            dot = (g * y).sum(axis=-1, keepdims=True)
            scores.accumulate(y * (g - dot))
    return _make(y, (scores,), back)


def attend(query_rows, keys, values, key_mask=None, dk_scale=None):
    """Single-head scaled dot-product attention; no output projection.

    out[i] = softmax(query_rows[i] . keys^T / sqrt(d_k)) @ values

    3-D operands stack G independent attentions: (G, n, d_k) queries over
    (G, R, d_k) keys and (G, R, d_v) values. ``key_mask`` ((R,) or (G, R))
    marks the real keys of sets padded to R rows.
    """
    ndim = keys.data.ndim
    if ndim not in (2, 3) or query_rows.data.ndim != ndim or values.data.ndim != ndim:
        raise ShapeMismatchError(
            f"attend: operands must all be 2-D or all 3-D, got {query_rows.data.shape}, "
            f"{keys.data.shape} and {values.data.shape}")
    if keys.data.shape[-2] == 0:
        raise EmptyReferenceSetError("attend: no keys/values to attend over")
    if keys.data.shape[:-1] != values.data.shape[:-1]:
        raise ShapeMismatchError(
            f"attend: keys {keys.data.shape} and values {values.data.shape} disagree")
    if query_rows.data.shape[-1] != keys.data.shape[-1] or \
            query_rows.data.shape[:-2] != keys.data.shape[:-2]:
        raise ShapeMismatchError(
            f"attend: queries {query_rows.data.shape} do not match keys {keys.data.shape}")
    product = matmul if ndim == 2 else bmm
    dk = keys.data.shape[-1] if dk_scale is None else dk_scale
    logits = scale(product(query_rows, transpose(keys)), 1.0 / np.sqrt(dk))
    if key_mask is None or np.all(key_mask):
        weights = softmax_rows(logits)
    else:
        row_mask = np.expand_dims(np.asarray(key_mask, dtype=bool), -2)
        weights = masked_softmax(logits, np.broadcast_to(row_mask, logits.data.shape))
    return product(weights, values)


def transpose(a):
    """Swap the last two axes."""
    def back(g):
        if a.requires_grad:
            a.accumulate(np.swapaxes(g, -1, -2))
    return _make(np.swapaxes(a.data, -1, -2), (a,), back)


def dropout(a, p, rng):
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return a
    keep = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def back(g):
        if a.requires_grad:
            a.accumulate(g * keep)
    return _make(a.data * keep, (a,), back)


def backward(root):
    """Populate gradients for every requires_grad tensor reachable from root."""
    if root.data.shape != ():
        raise ShapeMismatchError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not np.isfinite(root.data):
        raise ValueError("backward: root is not finite")
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params):
    for p in params:
        p.grad = None


def grad_check(f, params, h=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    ``f`` maps the parameter list to a scalar Tensor and must be
    deterministic (re-evaluated many times with perturbed parameters).
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    zero_grads(params)
    out = f(params)
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(params).item()
            flat[i] = orig - h
            fm = f(params).item()
            flat[i] = orig
            num = (fp - fm) / (2.0 * h)
            err = abs(aflat[i] - num) / max(abs(aflat[i]), abs(num), 1e-8)
            worst = max(worst, err)
    return worst
