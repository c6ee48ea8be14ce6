import math
import os

import numpy as np
import pytest
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


def _bits(a):
    return a.view(np.uint64 if a.dtype == np.float64 else np.uint32)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gelu_in_place_passes_equal_the_textbook_expressions_bit_for_bit(rng, dtype):
    """The forward's ``0.5 * x * cdf`` and the backward's
    ``gy * (0.5 * cdf + x * phi)`` in each dtype, over normal, tiny, huge,
    signed-zero, subnormal and non-finite inputs and gradients."""
    x = (rng.standard_normal((64, 97)) * 3).astype(dtype)
    x[0, :16] = [0.0, -0.0, 1e-42, -1e-42, 5.7, -5.7, 13.3, -13.3,
                 40.0, -40.0, 1e30, -1e30, np.nan, np.inf, -np.inf, 1e-20]
    g = rng.standard_normal(x.shape).astype(dtype)
    g[1] *= 1e-38 if dtype == np.float32 else 1e-306      # subnormal products
    g[2, :4] = [0.0, -0.0, np.inf, np.nan]
    inputs = x.copy(), g.copy()
    with np.errstate(all="ignore"):
        y, cdf = kernels.gelu_fwd(x, with_cdf=True)
        if dtype == np.float64:
            assert np.array_equal(_bits(cdf), _bits(1.0 + special.erf(x * (1.0 / math.sqrt(2.0)))))
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        expect = g * (0.5 * cdf + x * phi)
        got = kernels.gelu_bwd(x, g, cdf)
        assert np.array_equal(_bits(y), _bits(0.5 * x * cdf))
    assert y.dtype == cdf.dtype == got.dtype == kernels.gelu_fwd(x[3:]).dtype == dtype
    assert np.array_equal(_bits(got), _bits(expect))
    assert np.array_equal(_bits(x), _bits(inputs[0])) and np.array_equal(_bits(g), _bits(inputs[1]))


FLOAT32_GRID = np.linspace(-8.0, 8.0, 2_000_001, dtype=np.float32)


def test_float32_gelu_is_within_float32_rounding_of_the_exact_one():
    """On a dense float32 grid of [-8, 8]: ``erf`` within 5e-7 of float64
    scipy, and the GELU within 2e-6 of the float64 GELU of the same inputs."""
    x = FLOAT32_GRID
    y, cdf = kernels.gelu_fwd(x, with_cdf=True)
    x64 = x.astype(np.float64)
    exact_erf = special.erf(x64 / math.sqrt(2.0))
    assert np.abs((cdf.astype(np.float64) - 1.0) - exact_erf).max() < 5e-7
    assert np.abs(y - 0.5 * x64 * (1.0 + exact_erf)).max() < 2e-6


def test_float32_gelu_saturates_is_odd_and_propagates_nan():
    """``cdf`` is exactly 2 and 0 at |x| >= 4 sqrt(2), ``erf`` is exactly odd,
    and NaN passes through the clamp."""
    x = FLOAT32_GRID
    _, cdf = kernels.gelu_fwd(x, with_cdf=True)
    _, cdf_neg = kernels.gelu_fwd(-x, with_cdf=True)
    assert np.array_equal(kernels._erf_float32(-x), -kernels._erf_float32(x))
    far = x.astype(np.float64) >= 4.0 * math.sqrt(2.0)
    assert far.sum() > 100_000
    assert (cdf[far] == 2.0).all() and (cdf_neg[far] == 0.0).all()
    edge = np.array([np.nan, np.inf, -np.inf, 1e30, -1e30], dtype=np.float32)
    with np.errstate(invalid="ignore"):             # -inf * 0 in y
        y, cdf = kernels.gelu_fwd(edge, with_cdf=True)
    assert np.isnan(cdf[0]) and np.isnan(y[0])
    assert cdf[1:].tolist() == [2.0, 0.0, 2.0, 0.0]


def test_float32_gelu_bwd_matches_central_differences(rng):
    x = (rng.standard_normal((5, 7)) * 2).astype(np.float32)
    h = 1e-2
    numeric = (kernels.gelu_fwd(x + h).astype(np.float64)
               - kernels.gelu_fwd(x - h).astype(np.float64)) / (2 * h)
    _, cdf = kernels.gelu_fwd(x, with_cdf=True)
    np.testing.assert_allclose(kernels.gelu_bwd(x, np.ones_like(x), cdf), numeric,
                               rtol=0, atol=1e-4)


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (80, 6), (2480, 16), (1250, 64)])
def test_softmax_rows_equals_the_four_array_expression_bit_for_bit(rng, shape, dtype):
    """The in-place softmax has the bits of ``exp(s - max) / sum``, each
    step in a new array, and keeps the input's dtype and values."""
    s = (rng.standard_normal(shape) * 8).astype(dtype)
    before = s.copy()
    z = s - s.max(axis=1, keepdims=True)
    e = np.exp(z)
    expect = e / e.sum(axis=1, keepdims=True)
    got = kernels.softmax_rows(s)
    assert got.dtype == dtype and got.tobytes() == expect.tobytes()
    assert s.tobytes() == before.tobytes()


def test_backend_flag_is_reported():
    assert kernels.BACKEND == "numpy"


def test_blas_threads_are_pinned_for_the_suite():
    """The root conftest pins BLAS to one thread before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(var), var
