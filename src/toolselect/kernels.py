"""Hot elementwise and reduction kernels in numpy; each keeps its input's
dtype (float64, or float32 for the MLPIndex baseline and the selector's
training step).

GELU is exact in float64 (scipy's ``erf``). In float32 its ``erf`` is a
rational approximation evaluated in float32, within 5e-7 of the exact
``erf`` and about 1.4 ulp of the exact GELU. Matrix products go through
numpy/BLAS; only the elementwise-heavy kernels live here.
"""

import math

import numpy as np
from scipy import special

BACKEND = "numpy"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Eigen's float32 erf (generic_fast_erf_float): erf(z) = z P(z^2) / Q(z^2)
# on z clamped to [-4, 4], where it rounds to exactly +-1 in float32.
# Coefficients from the highest degree down. They stay Python floats: a
# np.float64 scalar would promote float32 arrays under NEP 50.
_ERF_CLAMP = 4.0
_ERF_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
          -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
          -1.60960333262415e-02)
_ERF_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
          -7.37332916720468e-03, -1.42647390514189e-02)


def _erf_float32(x):
    """erf(x / sqrt(2)) of a float32 array, in float32, with three live
    temporaries of ``x``'s size; NaN propagates."""
    z = x * _INV_SQRT2
    np.clip(z, -_ERF_CLAMP, _ERF_CLAMP, out=z)
    z2 = z * z
    p = z2 * _ERF_P[0]
    for c in _ERF_P[1:-1]:
        p += c
        p *= z2
    p += _ERF_P[-1]
    p *= z
    q = np.multiply(z2, _ERF_Q[0], out=z)
    for c in _ERF_Q[1:-1]:
        q += c
        q *= z2
    q += _ERF_Q[-1]
    p /= q
    return p


def gelu_fwd(x, with_cdf=False):
    """GELU 0.5 x (1 + erf(x / sqrt(2))): exact in float64, and with
    ``_erf_float32`` (within 5e-7 in ``erf``) for float32 ``x``. With
    ``with_cdf`` also returns the factor 1 + erf(x / sqrt(2)), which
    ``gelu_bwd`` reuses."""
    if x.dtype == np.float32:
        cdf = _erf_float32(x)
        cdf += 1.0
    else:
        cdf = 1.0 + special.erf(x * _INV_SQRT2)
    y = np.multiply(x, 0.5)
    y *= cdf
    return (y, cdf) if with_cdf else y


def gelu_bwd(x, gy, cdf):
    """Gradient of GELU: gy (Phi(x) + x phi(x)), with Phi(x) = 0.5 ``cdf`` and
    ``cdf`` the forward's 1 + erf(x / sqrt(2)).

    ``x``, ``gy`` and ``cdf`` must share one dtype, as the tape guarantees
    (a node's gradient has its value's dtype): the in-place passes over one
    temporary would silently round a wider ``gy`` or ``cdf`` to ``x``'s.
    The result equals ``gy * (0.5 * cdf + x * phi)`` bit for bit: doubling
    and halving are exact here, so 0.5 (cdf + 2 x phi) rounds as
    0.5 cdf + x phi does."""
    t = np.multiply(x, -0.5)
    t *= x
    np.exp(t, out=t)
    t /= _SQRT_2PI
    t *= x
    t *= 2.0
    t += cdf
    t *= 0.5
    t *= gy
    return t


def softmax_rows(s):
    """Softmax along axis 1, in one new array: ``exp(s - max) / sum``."""
    z = s - s.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def masked_softmax(scores, mask):
    """Softmax along the last axis over the entries where ``mask`` is True;
    masked entries come out exactly zero."""
    z = np.where(mask, scores, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
