"""Minimal dense reverse-mode differentiation over float64 or float32 numpy
arrays.

Tensors wrap a numpy array plus a backward closure; calling ``backward``
on a scalar root walks the tape in reverse topological order. There is no
broadcasting: ``linear`` is the one op that adds a row-vector bias, and
every other shape must match exactly, which keeps shape bugs loud.

A tensor keeps float32 data as float32 and makes everything else float64.
Every op's value and gradients keep its inputs' dtype: constants are cast
to it, and scale factors are Python floats, which never promote float32
(a ``np.float64`` scalar does under numpy 2).

A tensor's first gradient is ``g + 0.0`` into an array laid out like its
data, the bits ``zeros + g`` gave (-0 becomes +0) without the zero fill;
later ones add in place. A ``Params`` tensor's gradient is a zeroed view,
so its first gradient adds in place too: ``0.0 + g``, the same bits.
"""

import itertools
import math

import numpy as np

from . import kernels
from .errors import (
    EmptyReferenceSetError,
    NoValidCandidateError,
    ShapeMismatchError,
)


_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(
            data, dtype=_FLOAT32 if getattr(data, "dtype", None) is _FLOAT32 else _FLOAT64)
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
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Params(dict):
    """Name -> trainable ``Tensor``, each ``data`` a view of its part of one
    array ``flat`` and each ``grad`` a view of its part of one zeroed array
    ``grad``, laid out in name order; the keys keep the order of ``arrays``.
    ``dtype`` casts every array, else they must share one. As in ``Tensor``,
    float32 stays float32 and anything else becomes float64."""

    def __init__(self, arrays, dtype=None):
        arrays = {name: np.asarray(a) for name, a in arrays.items()}
        dtypes = {a.dtype for a in arrays.values()} if dtype is None else {np.dtype(dtype)}
        if len(dtypes) > 1:
            raise ValueError(f"Params: arrays of mixed dtypes {sorted(map(str, dtypes))}")
        self.flat = np.empty(sum(a.size for a in arrays.values()),
                             dtype=_FLOAT32 if dtypes == {_FLOAT32} else _FLOAT64)
        self.grad = np.zeros_like(self.flat)
        super().__init__(dict.fromkeys(arrays))
        lo = 0
        for name in sorted(arrays):
            a, part = arrays[name], slice(lo, lo + arrays[name].size)
            self.flat[part] = a.reshape(-1)
            self[name] = Tensor(self.flat[part].reshape(a.shape), requires_grad=True)
            self[name].grad = self.grad[part].reshape(a.shape)
            lo = part.stop


def _make(data, parents, backward_fn):
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._prev = tuple(parents)
            out._backward = backward_fn
            break
    return out


def constant(data):
    return Tensor(data, requires_grad=False)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(g)
        if b.requires_grad:
            b.accumulate(g)
    return _make(a.data + b.data, (a, b), back)


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


def linear(a, w, bias):
    """``a @ w + bias`` for a matrix ``a`` and a row-vector ``bias``, as one node.

    The same bits as ``matmul`` followed by a bias add: the bias is added in
    place to the product, and the backward computes the three gradients
    those two nodes computed, from the same upstream gradient. For a
    one-column weight, the input's gradient ``g @ w.T`` is the broadcast
    product ``g * w.T``: each entry is one product either way, and the two
    differ only in the signs of zeros, which ``accumulate`` normalises.
    """
    if a.data.ndim != 2 or w.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeMismatchError(
            f"linear: expected 2-D input and weight and a 1-D bias, got {a.data.shape}, "
            f"{w.data.shape} and {bias.data.shape}")
    if a.data.shape[1] != w.data.shape[0] or w.data.shape[1] != bias.data.shape[0]:
        raise ShapeMismatchError(
            f"linear: shapes disagree: {a.data.shape} @ {w.data.shape} + {bias.data.shape}")
    out = a.data @ w.data
    out += bias.data

    def back(g):
        if a.requires_grad:
            a.accumulate(g * w.data.T if w.data.shape[1] == 1 else g @ w.data.T)
        if w.requires_grad:
            w.accumulate(a.data.T @ g)
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=0))
    return _make(out, (a, w, bias), back)


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
    """Gather entries of ``a`` along axis 0; repeated indices are allowed.

    The backward sums each row's gradients in index order from zero, as
    ``np.add.at`` does: for a vector with ``np.add.at`` itself, otherwise
    with one ``np.bincount`` over the flat positions of the gathered rows,
    which adds its weights in input order. ``np.bincount`` sums in float64,
    so a float32 tensor's sums are rounded to float32 once, at the end.
    """
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def back(g):
        if not a.requires_grad:
            return
        if a.data.ndim == 1:
            acc = np.zeros_like(a.data)
            np.add.at(acc, idx, g)
        else:
            rows = idx.reshape(-1)
            if rows.size and rows.min() < 0:
                rows = rows % a.data.shape[0]
            width = math.prod(a.data.shape[1:])
            flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
            acc = np.bincount(flat, weights=g.reshape(-1), minlength=a.data.size)
            acc = acc.astype(a.data.dtype, copy=False).reshape(a.data.shape)
        a.accumulate(acc)
    return _make(data, (a,), back)


def scatter_1d(a, idx, size):
    """Place a 1-D tensor's entries at distinct flat positions ``idx`` of a
    zero array of shape ``size`` (an int for a vector)."""
    idx = np.asarray(idx, dtype=np.intp)
    if a.data.ndim != 1 or idx.shape != a.data.shape:
        raise ShapeMismatchError(
            f"scatter_1d: values {a.data.shape} vs indices {idx.shape}")
    data = np.zeros(size, dtype=a.data.dtype)
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


def wsum(a, w):
    """Weighted sum against a constant numpy array of identical shape, cast
    to the tensor's dtype."""
    w = np.asarray(w, dtype=a.data.dtype)
    if w.shape != a.data.shape:
        raise ShapeMismatchError(f"wsum: weight shape {w.shape} != tensor shape {a.data.shape}")

    def back(g):
        if a.requires_grad:
            a.accumulate(float(g) * w)
    return _make((a.data * w).sum(), (a,), back)


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
    """GELU 0.5*x*(1+erf(x/sqrt(2))): exact erf in float64, and within 5e-7
    in erf in float32 (``kernels.gelu_fwd``)."""
    y, cdf = kernels.gelu_fwd(a.data, with_cdf=True)

    def back(g):
        if a.requires_grad:
            a.accumulate(kernels.gelu_bwd(a.data, g, cdf))
    return _make(y, (a,), back)


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


def attend(query_rows, keys, values, key_mask=None):
    """Single-head scaled dot-product attention, as one node; no output projection.

    out[i] = softmax(query_rows[i] . keys^T / sqrt(d_k)) @ values

    3-D operands stack G independent attentions: (G, n, d_k) queries over
    (G, R, d_k) keys and (G, R, d_v) values. ``key_mask`` ((R,) or (G, R))
    marks the real keys of sets padded to R rows.

    The same bits as the chain transpose, product, scale, softmax, product:
    the forward computes the chain's expressions, and the backward its
    gradients, giving values, then queries, then keys theirs. The chain's
    intermediate gradients were normalised (``+ 0.0``); that changes only
    the signs of zeros, which products and sums carry into zero results
    alone, and ``accumulate`` normalises every input's gradient, so leaving
    them out changes no bit of an input's gradient, whose first term
    ``accumulate`` normalises.
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
    q, k, v = query_rows.data, keys.data, values.data
    c = float(1.0 / np.sqrt(k.shape[-1]))
    logits = (q @ np.swapaxes(k, -1, -2)) * c
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
    if key_mask is None or key_mask.all():
        weights = kernels.softmax_rows(logits.reshape(-1, logits.shape[-1])).reshape(logits.shape)
    else:
        mask = np.broadcast_to(np.expand_dims(key_mask, -2), logits.shape)
        if not mask.any(axis=-1).all():
            raise NoValidCandidateError("attend: every key of a set is masked")
        weights = kernels.masked_softmax(logits, mask)

    def back(g):
        if values.requires_grad:
            values.accumulate(np.swapaxes(weights, -1, -2) @ g)
        if not (query_rows.requires_grad or keys.requires_grad):
            return
        g_w = g @ np.swapaxes(v, -1, -2)
        g_logits = weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True))
        g_logits *= c
        if query_rows.requires_grad:
            query_rows.accumulate(g_logits @ k)
        if keys.requires_grad:
            keys.accumulate(np.swapaxes(np.swapaxes(q, -1, -2) @ g_logits, -1, -2))
    return _make(weights @ v, (query_rows, keys, values), back)


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
    keep = ((rng.random(a.data.shape) >= p) / (1.0 - p)).astype(a.data.dtype, copy=False)

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
    # depth-first post-order over the nodes with a backward; leaves finish
    # at once, so leaving them out does not change the order of the rest
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif node not in visited:
            visited.add(node)
            stack.append((node, True))
            stack.extend([(p, False) for p in node._prev
                          if p._backward is not None and p not in visited])
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grads(params):
    """Forget the gradients, so the next backward allocates fresh ones. A
    ``Params`` is zeroed with ``params.grad[...] = 0.0``, which keeps its views."""
    for p in params:
        p.grad = None


def grad_check(f, params, h=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    ``f`` maps the parameter list to a scalar Tensor and must be
    deterministic (re-evaluated many times with perturbed parameters). The
    parameters must be float64: a float32 central difference is rounding
    noise at the default ``h``.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    if any(p.data.dtype != np.float64 for p in params):
        raise ValueError("grad_check: parameters must be float64")
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
