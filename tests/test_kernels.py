import math
import os

import numpy as np
from scipy import special

from toolselect import kernels


def test_gelu_zero_is_zero():
    assert kernels.gelu_fwd(np.array([[0.0]]))[0, 0] == 0.0


def test_gelu_large_x_near_identity():
    assert abs(kernels.gelu_fwd(np.array([[10.0]]))[0, 0] - 10.0) < 1e-9


def test_gelu_at_one():
    # 0.5 * (1 + erf(1/sqrt(2)))
    expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(kernels.gelu_fwd(np.array([[1.0]]))[0, 0] - expected) < 1e-12
    assert abs(expected - 0.84134) < 5e-6


def test_gelu_bwd_reuses_the_forward_cdf_bit_for_bit(rng):
    x = rng.standard_normal((13, 37)) * 3
    g = rng.standard_normal((13, 37))
    y, cdf = kernels.gelu_fwd(x, with_cdf=True)
    assert np.array_equal(y, kernels.gelu_fwd(x))
    # the backward as written before it took the forward's cdf
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    recomputed = g * (0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0)))) + x * phi)
    assert np.array_equal(kernels.gelu_bwd(x, g, cdf), recomputed)


def test_gelu_bwd_matches_central_differences(rng):
    x = rng.standard_normal((5, 7)) * 2
    h = 1e-6
    numeric = (kernels.gelu_fwd(x + h) - kernels.gelu_fwd(x - h)) / (2 * h)
    _, cdf = kernels.gelu_fwd(x, with_cdf=True)
    np.testing.assert_allclose(kernels.gelu_bwd(x, np.ones_like(x), cdf), numeric,
                               rtol=0, atol=1e-8)


def test_softmax_rows_sum_to_one(rng):
    y = kernels.softmax_rows(rng.standard_normal((8, 11)) * 10)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    assert (y >= 0).all()


def test_backend_flag_is_reported():
    assert kernels.BACKEND == "numpy"


def test_blas_threads_are_pinned_for_the_suite():
    """The root conftest pins BLAS to one thread before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(var), var
