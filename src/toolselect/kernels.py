"""Hot elementwise/reduction kernels with a numba fast path.

Backend selection: set TOOLSELECT_BACKEND=numpy to force the pure-numpy
path, TOOLSELECT_BACKEND=numba to require numba (ImportError if missing).
Default ("auto") uses numba when importable. Matrix products always go
through numpy/BLAS; only the elementwise-heavy kernels live here.

Both paths compute in float64 and agree to within normal floating-point
reassociation error; bit-determinism is guaranteed within one backend.
"""

import math
import os

import numpy as np
from scipy import special

_CHOICE = os.environ.get("TOOLSELECT_BACKEND", "auto").lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(f"TOOLSELECT_BACKEND must be auto|numba|numpy, got {_CHOICE!r}")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _gelu_fwd_np(x):
    return 0.5 * x * (1.0 + special.erf(x * _INV_SQRT2))


def _gelu_bwd_np(x, gy):
    # d/dx [0.5 x (1 + erf(x/sqrt(2)))] = Phi(x) + x * phi(x)
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return gy * (0.5 * (1.0 + special.erf(x * _INV_SQRT2)) + x * phi)


def _softmax_rows_np(s):
    z = s - s.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _masked_softmax_np(scores, mask):
    """Softmax along the last axis over the entries where ``mask`` is True;
    masked entries come out exactly zero."""
    z = np.where(mask, scores, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


BACKEND = "numpy"

if _CHOICE in ("auto", "numba"):
    try:
        from numba import njit

        @njit(cache=True)
        def _gelu_fwd_nb(x):
            out = np.empty_like(x)
            flat_x = x.ravel()
            flat_o = out.ravel()
            for i in range(flat_x.size):
                v = flat_x[i]
                flat_o[i] = 0.5 * v * (1.0 + math.erf(v * _INV_SQRT2))
            return out

        @njit(cache=True)
        def _gelu_bwd_nb(x, gy):
            out = np.empty_like(x)
            fx = x.ravel()
            fg = gy.ravel()
            fo = out.ravel()
            c = 1.0 / math.sqrt(2.0 * math.pi)
            for i in range(fx.size):
                v = fx[i]
                phi = c * math.exp(-0.5 * v * v)
                fo[i] = fg[i] * (0.5 * (1.0 + math.erf(v * _INV_SQRT2)) + v * phi)
            return out

        @njit(cache=True)
        def _softmax_rows_nb(s):
            n, m = s.shape
            out = np.empty_like(s)
            for i in range(n):
                mx = s[i, 0]
                for j in range(1, m):
                    if s[i, j] > mx:
                        mx = s[i, j]
                total = 0.0
                for j in range(m):
                    e = math.exp(s[i, j] - mx)
                    out[i, j] = e
                    total += e
                for j in range(m):
                    out[i, j] /= total
            return out

        @njit(cache=True)
        def _masked_softmax_nb(scores, mask):
            n = scores.size
            out = np.zeros_like(scores)
            mx = -1.0e300
            for j in range(n):
                if mask[j] and scores[j] > mx:
                    mx = scores[j]
            total = 0.0
            for j in range(n):
                if mask[j]:
                    e = math.exp(scores[j] - mx)
                    out[j] = e
                    total += e
            for j in range(n):
                if mask[j]:
                    out[j] /= total
            return out

        BACKEND = "numba"
    except ImportError:
        if _CHOICE == "numba":
            raise


def _contig(a):
    return np.ascontiguousarray(a, dtype=np.float64)


if BACKEND == "numba":

    def gelu_fwd(x):
        return _gelu_fwd_nb(_contig(x))

    def gelu_bwd(x, gy):
        return _gelu_bwd_nb(_contig(x), _contig(gy))

    def softmax_rows(s):
        return _softmax_rows_nb(_contig(s))

    def masked_softmax(scores, mask):
        s = _contig(scores)
        mk = np.ascontiguousarray(mask)
        if s.ndim == 1:
            return _masked_softmax_nb(s, mk)
        rows = s.reshape(-1, s.shape[-1])
        row_masks = mk.reshape(rows.shape)
        out = np.empty_like(rows)
        for i in range(rows.shape[0]):
            out[i] = _masked_softmax_nb(rows[i], row_masks[i])
        return out.reshape(s.shape)

else:
    gelu_fwd = _gelu_fwd_np
    gelu_bwd = _gelu_bwd_np
    softmax_rows = _softmax_rows_np
    masked_softmax = _masked_softmax_np

# Reference (always-numpy) versions, kept importable for the benchmark and
# for backend cross-checks in tests.
gelu_fwd_numpy = _gelu_fwd_np
gelu_bwd_numpy = _gelu_bwd_np
softmax_rows_numpy = _softmax_rows_np
masked_softmax_numpy = _masked_softmax_np
