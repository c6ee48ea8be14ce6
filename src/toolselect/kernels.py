"""Hot elementwise and reduction kernels in numpy; each keeps its input's
dtype (float64, or float32 for the MLPIndex baseline and the selector's
training step).

Matrix products go through numpy/BLAS; only the elementwise-heavy kernels
live here.
"""

import math

import numpy as np
from scipy import special

BACKEND = "numpy"

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gelu_fwd(x, with_cdf=False):
    """Exact-erf GELU 0.5 x (1 + erf(x / sqrt(2))). With ``with_cdf`` also
    returns the factor 1 + erf(x / sqrt(2)), which ``gelu_bwd`` reuses."""
    cdf = 1.0 + special.erf(x * _INV_SQRT2)
    y = 0.5 * x * cdf
    return (y, cdf) if with_cdf else y


def gelu_bwd(x, gy, cdf):
    """Gradient of GELU: gy (Phi(x) + x phi(x)), with Phi(x) = 0.5 ``cdf`` and
    ``cdf`` the forward's 1 + erf(x / sqrt(2))."""
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return gy * (0.5 * cdf + x * phi)


def softmax_rows(s):
    z = s - s.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def masked_softmax(scores, mask):
    """Softmax along the last axis over the entries where ``mask`` is True;
    masked entries come out exactly zero."""
    z = np.where(mask, scores, -np.inf)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
