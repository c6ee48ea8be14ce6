import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from per_query import attend_chain
from toolselect import diffcore as dc
from toolselect.errors import (
    EmptyReferenceSetError,
    NoValidCandidateError,
    ShapeMismatchError,
)


def _sum(t):
    """Sum of every entry of a tensor, as a scalar tensor."""
    return dc.wsum(t, np.ones(t.data.shape))


def _fd_check(build, tensors, h=1e-6, tol=1e-6):
    """Central-difference check over every requires_grad tensor."""
    err = dc.grad_check(lambda ps: build(), tensors, h=h)
    assert err < tol, f"finite-difference mismatch: {err}"


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = dc.constant([[1.0, 0.0], [0.0, 1.0]])
    b = dc.constant([[3.0], [4.0]])
    np.testing.assert_array_equal(dc.matmul(a, b).data, [[3.0], [4.0]])


def test_matmul_direct():
    out = dc.matmul(dc.constant([[1.0, 2.0]]), dc.constant([[3.0], [4.0]]))
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_includes_shapes():
    with pytest.raises(ShapeMismatchError) as exc:
        dc.matmul(dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((5, 2))))
    assert "(3, 4)" in str(exc.value) and "(5, 2)" in str(exc.value)


def test_matmul_gradients_finite_difference(rng):
    a = dc.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = dc.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    _fd_check(lambda: _sum(dc.matmul(a, b)), [a, b])


# ----------------------------------------------------------------- linear

def test_linear_equals_matmul_plus_bias_bit_for_bit(rng):
    """The value and the three gradients are the bits the two-node
    ``add(matmul(a, w), bias)`` gave: ``a @ w + bias``, then ``g @ w.T``,
    ``a.T @ g`` and ``g.sum(axis=0)`` of the upstream gradient ``g``, in
    float64 and, on float32 inputs, in float32."""
    for rows, d_in, d_out, dtype in ((1, 3, 2, np.float64), (7, 5, 4, np.float64),
                                     (90, 47, 512, np.float64), (90, 512, 1, np.float64),
                                     (7, 5, 4, np.float32), (90, 47, 64, np.float32)):
        a = dc.Tensor(rng.standard_normal((rows, d_in)).astype(dtype), requires_grad=True)
        w = dc.Tensor(rng.standard_normal((d_in, d_out)).astype(dtype), requires_grad=True)
        bias = dc.Tensor(rng.standard_normal(d_out).astype(dtype), requires_grad=True)
        g = (rng.standard_normal((rows, d_out))
             * 10.0 ** rng.uniform(-6, 6, (rows, d_out))).astype(dtype)
        out = dc.linear(a, w, bias)
        assert out.data.dtype == dtype
        assert out.data.tobytes() == (a.data @ w.data + bias.data[None, :]).tobytes()
        dc.backward(dc.wsum(out, g))
        assert a.grad.tobytes() == (g @ w.data.T).tobytes()
        assert w.grad.tobytes() == (a.data.T @ g).tobytes()
        assert bias.grad.tobytes() == g.sum(axis=0).tobytes()


def test_linear_of_a_constant_input_has_only_weight_gradients(rng):
    x = dc.constant(rng.standard_normal((4, 3)))
    w = dc.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    bias = dc.Tensor(np.zeros(2), requires_grad=True)
    dc.backward(_sum(dc.linear(x, w, bias)))
    assert x.grad is None
    np.testing.assert_array_equal(bias.grad, [4.0, 4.0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_linear_one_column_weight_gradient_equals_the_product_after_accumulate(rng, dtype):
    """For a (d, 1) weight the input gradient is ``g * w.T``, not the K=1
    product ``g @ w.T``; with -0.0 in both factors the two may differ in the
    signs of zeros only, and ``accumulate`` gives the same bits from either,
    as a first gradient and as one added to another (in either order)."""
    a = dc.Tensor(rng.standard_normal((6, 5)).astype(dtype), requires_grad=True)
    w = dc.Tensor(rng.standard_normal((5, 1)).astype(dtype), requires_grad=True)
    bias = dc.Tensor(np.zeros(1, dtype=dtype), requires_grad=True)
    w.data[[1, 3], 0] = [-0.0, 0.0]
    g = rng.standard_normal((6, 1)).astype(dtype)
    g[[0, 2], 0] = [-0.0, 0.0]
    product = g @ w.data.T
    dc.backward(dc.wsum(dc.linear(a, w, bias), g))
    assert a.grad.dtype == dtype
    assert _bits(a.grad) == _bits(np.zeros_like(a.data) + product)
    other = rng.standard_normal(a.data.shape).astype(dtype)
    other[:, [1, 3]] = -0.0
    dc.zero_grads([a, w, bias])
    dc.backward(dc.add(dc.wsum(a, other), dc.wsum(dc.linear(a, w, bias), g)))
    assert _bits(a.grad) == _bits(np.zeros_like(a.data) + other + product)


def test_linear_and_add_reject_mismatched_shapes():
    a, w = dc.constant(np.zeros((3, 4))), dc.constant(np.zeros((4, 2)))
    for bias in (np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(ShapeMismatchError):
            dc.linear(a, w, dc.constant(bias))
    with pytest.raises(ShapeMismatchError):
        dc.linear(a, dc.constant(np.zeros((3, 2))), dc.constant(np.zeros(2)))
    # add has no broadcasting: a bias row goes through linear
    with pytest.raises(ShapeMismatchError):
        dc.add(a, dc.constant(np.zeros(4)))


# --------------------------------------------------------- masked_softmax

def test_masked_softmax_closed_form():
    s = dc.constant([1.0, 2.0, 0.0])
    out = dc.masked_softmax(s, [True, True, False])
    e = math.e
    np.testing.assert_allclose(out.data, [1 / (1 + e), e / (1 + e), 0.0], atol=1e-12)


def test_masked_softmax_symmetry():
    out = dc.masked_softmax(dc.constant([5.0, 5.0, 5.0]), [True] * 3)
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_masked_softmax_single_valid():
    out = dc.masked_softmax(dc.constant([-3.0, 9.0]), [False, True])
    np.testing.assert_array_equal(out.data, [0.0, 1.0])


def test_masked_softmax_all_false_raises():
    with pytest.raises(NoValidCandidateError):
        dc.masked_softmax(dc.constant([1.0, 2.0]), [False, False])


def test_masked_softmax_masked_entries_get_zero_gradient(rng):
    s = dc.Tensor(rng.standard_normal(5), requires_grad=True)
    mask = np.array([True, False, True, False, True])
    out = dc.masked_softmax(s, mask)
    loss = dc.wsum(dc.log_clamped(out), np.where(mask, -1.0, 0.0))
    dc.backward(loss)
    assert (s.grad[~mask] == 0.0).all()


def test_masked_softmax_gradient_finite_difference(rng):
    s = dc.Tensor(rng.standard_normal(6), requires_grad=True)
    mask = np.array([True, True, False, True, False, True])
    w = np.where(mask, rng.random(6), 0.0)

    def f(ps):
        return dc.wsum(dc.log_clamped(dc.masked_softmax(s, mask)), w)
    assert dc.grad_check(f, [s]) < 1e-6


# ----------------------------------------------------------------- attend

def test_attend_single_key_returns_value_row(rng):
    q = dc.constant(rng.standard_normal((3, 4)))
    k = dc.constant(rng.standard_normal((1, 4)))
    v = dc.constant(rng.standard_normal((1, 5)))
    out = dc.attend(q, k, v)
    for i in range(3):
        np.testing.assert_allclose(out.data[i], v.data[0], atol=1e-12)


def test_attend_identical_keys_gives_mean_of_values(rng):
    key = rng.standard_normal(4)
    k = dc.constant(np.stack([key] * 5))
    v = dc.constant(rng.standard_normal((5, 3)))
    out = dc.attend(dc.constant(rng.standard_normal((1, 4))), k, v)
    np.testing.assert_allclose(out.data[0], v.data.mean(axis=0), atol=1e-12)


def test_attend_two_key_oracle():
    k = dc.constant([[1.0, 0.0], [0.0, 1.0]])
    v = dc.constant([[1.0, 0.0], [0.0, 1.0]])
    q = dc.constant([[10.0, 0.0]])
    out = dc.attend(q, k, v)
    z = np.array([10.0, 0.0]) / math.sqrt(2.0)
    e = np.exp(z - z.max())
    w = e / e.sum()
    np.testing.assert_allclose(out.data[0], w, atol=1e-12)
    assert abs(out.data[0, 0] - 0.99917) < 1e-4


def test_attend_outputs_are_convex_combinations(rng):
    q = dc.constant(rng.standard_normal((6, 4)) * 3)
    k = dc.constant(rng.standard_normal((7, 4)))
    v = dc.constant(rng.standard_normal((7, 5)))
    out = dc.attend(q, k, v).data
    lo = v.data.min(axis=0) - 1e-12
    hi = v.data.max(axis=0) + 1e-12
    assert (out >= lo).all() and (out <= hi).all()


def test_bmm_matches_per_matrix_products(rng):
    a = rng.standard_normal((3, 2, 4))
    b = rng.standard_normal((3, 4, 5))
    out = dc.bmm(dc.constant(a), dc.constant(b)).data
    for g in range(3):
        np.testing.assert_allclose(out[g], a[g] @ b[g], atol=1e-12)


def test_bmm_shape_errors():
    with pytest.raises(ShapeMismatchError):
        dc.bmm(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((3, 2))))
    with pytest.raises(ShapeMismatchError):
        dc.bmm(dc.constant(np.zeros((2, 3, 4))), dc.constant(np.zeros((3, 4, 2))))


def test_masked_softmax_rows_match_vector_form(rng):
    s = rng.standard_normal((4, 6))
    mask = rng.random((4, 6)) > 0.4
    mask[:, 0] = True
    rows = dc.masked_softmax(dc.constant(s), mask).data
    for i in range(4):
        np.testing.assert_allclose(
            rows[i], dc.masked_softmax(dc.constant(s[i]), mask[i]).data, atol=1e-15)


def test_masked_softmax_rows_reject_a_fully_masked_row():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(NoValidCandidateError):
        dc.masked_softmax(dc.constant(np.zeros((2, 2))), mask)


def test_batched_attend_matches_per_set_attend_and_ignores_padding(rng):
    q = rng.standard_normal((2, 3, 4))
    k = rng.standard_normal((2, 5, 4))
    v = rng.standard_normal((2, 5, 3))
    lengths = [3, 5]
    mask = np.arange(5)[None, :] < np.array(lengths)[:, None]
    out = dc.attend(dc.constant(q), dc.constant(k), dc.constant(v), key_mask=mask).data
    for g, n in enumerate(lengths):
        expect = dc.attend(dc.constant(q[g]), dc.constant(k[g, :n]), dc.constant(v[g, :n]))
        np.testing.assert_allclose(out[g], expect.data, atol=1e-12)


def test_attend_empty_keys_raises():
    with pytest.raises(EmptyReferenceSetError):
        dc.attend(dc.constant(np.zeros((1, 4))),
                  dc.constant(np.zeros((0, 4))), dc.constant(np.zeros((0, 3))))


def _bits(a):
    """The bytes of an array, so -0.0 and 0.0 compare unequal."""
    return np.ascontiguousarray(a).tobytes()


def _attend_run(attend, inputs, key_mask, w):
    """Output and the three input gradients of ``wsum(attend(...), w)``."""
    leaves = [dc.Tensor(x.copy(), requires_grad=True) for x in inputs]
    out = attend(*leaves, key_mask=key_mask)
    dc.backward(dc.wsum(out, w))
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("masking", ["none", "all_valid", "padded"])
def test_fused_attend_equals_the_chain_bit_for_bit(rng, ndim, masking):
    lead = () if ndim == 2 else (3,)
    inputs = [rng.standard_normal(lead + (4, 5)), rng.standard_normal(lead + (6, 5)),
              rng.standard_normal(lead + (6, 3))]
    lengths = np.array([2, 6, 4])[:, None] if ndim == 3 else 4
    key_mask = {"none": None, "all_valid": np.ones(lead + (6,), dtype=bool),
                "padded": np.arange(6) < lengths}[masking]
    w = rng.standard_normal(lead + (4, 3))
    w[..., 0, :] = 0.0   # zero upstream gradients: the signs of zeros must agree too
    fused = _attend_run(dc.attend, inputs, key_mask, w)
    chain = _attend_run(attend_chain, inputs, key_mask, w)
    for got, expect in zip(fused, chain):
        assert _bits(got) == _bits(expect)


def test_fused_attend_accumulates_shared_inputs_as_the_chain_does(rng):
    """Self-attention's three projections of one tensor, and one tensor
    passed as queries, keys and values at once: every gradient has the
    chain's bits."""
    t0 = rng.standard_normal((2, 5, 4))
    ws0 = [rng.standard_normal((4, 4)) for _ in range(3)]
    mask = np.array([[True] * 3 + [False] * 2, [True] * 5])
    w = rng.standard_normal((2, 5, 4))

    def grads(attend):
        t = dc.Tensor(t0.copy(), requires_grad=True)
        ws = [dc.Tensor(x.copy(), requires_grad=True) for x in ws0]
        flat = dc.reshape(t, (10, 4))
        q, k, v = (dc.reshape(dc.matmul(flat, m), (2, 5, 4)) for m in ws)
        same = dc.Tensor(t0.copy(), requires_grad=True)
        loss = dc.add(dc.wsum(attend(q, k, v, key_mask=mask), w),
                      dc.wsum(attend(same, same, same, key_mask=mask), w))
        dc.backward(loss)
        return [loss.data, t.grad, same.grad] + [m.grad for m in ws]

    for got, expect in zip(grads(dc.attend), grads(attend_chain)):
        assert _bits(got) == _bits(expect)


def test_fused_attend_is_one_node(rng):
    q, k, v = (dc.Tensor(rng.standard_normal(s), requires_grad=True)
               for s in ((2, 3, 4), (2, 5, 4), (2, 5, 3)))
    out = dc.attend(q, k, v, key_mask=np.array([[True] * 5, [True, False] * 2 + [True]]))
    assert out._prev == (q, k, v)


def test_attend_rejects_a_set_with_every_key_masked(rng):
    q = dc.constant(rng.standard_normal((2, 1, 4)))
    k = dc.constant(rng.standard_normal((2, 3, 4)))
    v = dc.constant(rng.standard_normal((2, 3, 2)))
    with pytest.raises(NoValidCandidateError):
        dc.attend(q, k, v, key_mask=np.array([[True, False, False], [False] * 3]))


# --------------------------------------------------------------- backward

def test_backward_sum_gives_ones(rng):
    x = dc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    dc.backward(_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_square_closed_form():
    x = dc.Tensor(np.array(3.0), requires_grad=True)
    dc.backward(dc.reshape(dc.mul(x, x), ()))
    assert abs(float(x.grad) - 6.0) < 1e-12


def test_backward_nonscalar_root_rejected():
    x = dc.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        dc.backward(x)


def test_backward_diamond_graph_accumulates_once():
    # y = x*x + x*x -> dy/dx = 4x
    x = dc.Tensor(np.array(2.0), requires_grad=True)
    sq = dc.mul(x, x)
    dc.backward(dc.reshape(dc.add(sq, sq), ()))
    assert abs(float(x.grad) - 8.0) < 1e-12


def test_first_gradient_is_a_fresh_array_laid_out_like_the_data():
    """The first gradient is ``g + 0.0``: -0 becomes +0, as ``zeros + g``
    gave, the array is not the one passed in, and it has the data's layout
    even when the gradient arrives transposed."""
    x = dc.Tensor(np.ones((2, 3)), requires_grad=True)
    g = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, 3.0]])
    x.accumulate(g)
    assert x.grad is not g
    assert x.grad.tobytes() == (np.zeros((2, 3)) + g).tobytes()
    assert not np.signbit(x.grad[0, 0]) and not np.signbit(x.grad[1, 1])
    x.accumulate(g)
    assert x.grad.tobytes() == (np.zeros((2, 3)) + g + g).tobytes()
    t = dc.transpose(dc.Tensor(np.ones((3, 2)), requires_grad=True))
    t.accumulate(np.ascontiguousarray(g))
    assert t.grad.strides == np.zeros_like(t.data).strides


# take_rows: a row count, the shape of one row (a vector's entries have none)
# and indices with repeats, negative ones included
TAKE_CASES = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sampled_from([(), (1,), (5,), (8,), (3, 4), (2, 16)]),
    st.lists(st.integers(-n, n - 1), max_size=40),
    st.integers(0, 2**32 - 1)))


@given(TAKE_CASES)
def test_take_rows_backward_equals_add_at_bit_for_bit(case):
    """Each row's gradient is the ``np.add.at`` sum, in index order from
    zero, for vectors, matrices and 3-D stacks alike."""
    n, row_shape, idx, seed = case
    rng = np.random.default_rng(seed)
    a = dc.Tensor(rng.standard_normal((n,) + row_shape), requires_grad=True)
    g = rng.standard_normal((len(idx),) + row_shape) * 10.0 ** rng.uniform(
        -8, 8, (len(idx),) + row_shape)
    g[rng.random(g.shape) < 0.1] = -0.0
    out = dc.take_rows(a, idx)
    assert out.data.tobytes() == a.data[np.asarray(idx, dtype=np.intp)].tobytes()
    dc.backward(dc.wsum(out, g))
    want = np.zeros(a.data.shape)
    np.add.at(want, np.asarray(idx, dtype=np.intp), g)
    assert a.grad.tobytes() == (np.zeros(a.data.shape) + want).tobytes()


# ----------------------------------------------------------------- Params

PARAM_SHAPES = {"w": (4, 3), "b": (3,), "s": (), "a": (2, 1, 2)}


def _param_arrays(rng, dtype=np.float64):
    return {k: rng.standard_normal(shape).astype(dtype) for k, shape in PARAM_SHAPES.items()}


@pytest.mark.parametrize("given, dtype", [(np.float64, None), (np.float32, None),
                                          (np.float64, np.float32), (np.float32, np.float64)])
def test_params_lay_out_the_tensors_in_name_order_and_keep_the_key_order(rng, given, dtype):
    arrays = _param_arrays(rng, given)
    params = dc.Params(arrays, dtype)
    want = np.dtype(given if dtype is None else dtype)
    assert list(params) == list(PARAM_SHAPES)
    assert params.flat.dtype == params.grad.dtype == want
    assert params.flat.shape == params.grad.shape == (20,) and not params.grad.any()
    assert params.flat.tobytes() == np.concatenate(
        [arrays[k].reshape(-1) for k in sorted(arrays)]).astype(want).tobytes()
    for k, p in params.items():
        assert p.requires_grad and p.data.dtype == p.grad.dtype == want
        assert p.data.shape == p.grad.shape == PARAM_SHAPES[k]
        assert p.data.tobytes() == arrays[k].astype(want).tobytes()
        assert not np.shares_memory(p.data, arrays[k])


def test_params_data_and_grad_are_views_of_flat_and_grad(rng):
    params = dc.Params(_param_arrays(rng))
    params.flat[...] = np.arange(20)
    params.grad[...] = -np.arange(20)
    lo = 0
    for k in sorted(params):
        p, n = params[k], math.prod(PARAM_SHAPES[k])
        assert np.shares_memory(p.data, params.flat) and np.shares_memory(p.grad, params.grad)
        np.testing.assert_array_equal(p.data.reshape(-1), np.arange(lo, lo + n))
        np.testing.assert_array_equal(p.grad.reshape(-1), -np.arange(lo, lo + n))
        lo += n
    params["b"].data[...] = 0.5
    params["b"].grad[...] = 0.25
    assert (params.flat[4:7] == 0.5).all() and (params.grad[4:7] == 0.25).all()


def test_params_reject_arrays_of_mixed_dtypes():
    arrays = {"a": np.ones(2, dtype=np.float32), "b": np.ones(2)}
    with pytest.raises(ValueError, match="mixed dtypes"):
        dc.Params(arrays)
    assert dc.Params(arrays, np.float32).flat.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_backward_adds_into_the_params_views(rng, dtype):
    """Gradients are the bits fresh tensors get, written into the views, and
    a second backward adds to them as to theirs; a parameter the loss does
    not reach keeps a zero gradient."""
    arrays = _param_arrays(rng, dtype)
    params = dc.Params(arrays)
    plain = {k: dc.Tensor(a.copy(), requires_grad=True) for k, a in arrays.items()}

    x = dc.constant(rng.standard_normal((5, 4)).astype(dtype))

    def loss(ps):
        return dc.add(_sum(dc.linear(x, ps["w"], ps["b"])), _sum(dc.mul(ps["w"], ps["w"])))
    views = {k: p.grad for k, p in params.items()}
    for _ in range(2):
        for ps in (params, plain):
            dc.backward(loss(ps))
        for k in ("w", "b"):
            assert params[k].grad.tobytes() == plain[k].grad.tobytes(), k
        assert plain["s"].grad is None and plain["a"].grad is None
        assert not params["s"].grad.any() and not params["a"].grad.any()
        assert all(p.grad is views[k] for k, p in params.items())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_first_accumulate_of_minus_zero_into_params_gives_plus_zero(dtype):
    params = dc.Params({"a": np.ones(4, dtype=dtype)})
    g = np.array([-0.0, 0.0, -1.5, -0.0], dtype=dtype)
    params["a"].accumulate(g)
    assert params["a"].grad.tobytes() == np.add(g, 0.0).tobytes()
    assert not np.signbit(params["a"].grad[[0, 1, 3]]).any()
    assert np.signbit(params["a"].grad[2])


# ------------------------------------------------------------- grad_check

def test_grad_check_square():
    x = dc.Tensor(np.array(3.0), requires_grad=True)
    err = dc.grad_check(lambda ps: dc.reshape(dc.mul(x, x), ()), [x])
    assert err < 1e-8


def test_grad_check_rejects_nonpositive_h():
    x = dc.Tensor(np.array(1.0), requires_grad=True)
    with pytest.raises(ValueError):
        dc.grad_check(lambda ps: dc.reshape(dc.mul(x, x), ()), [x], h=0.0)


def test_grad_check_rejects_float32_parameters():
    x = dc.Tensor(np.array(1.0, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        dc.grad_check(lambda ps: dc.reshape(dc.mul(x, x), ()), [x])


# ------------------------------------------------------------------- dtypes

def test_tensor_keeps_float32_and_makes_everything_else_float64():
    x32 = np.ones(3, dtype=np.float32)
    x64 = np.ones(3)
    assert dc.Tensor(x32).data is x32 and dc.Tensor(x64).data is x64
    assert dc.Tensor(np.float32(2.0)).data.dtype == np.float32
    for data in (np.ones(2, dtype=np.float16), np.arange(3), [1, 2], 1.5, np.float64(2.0)):
        assert dc.Tensor(data).data.dtype == np.float64, data


def test_mixed_dtypes_promote_the_value_and_keep_each_gradients_dtype(rng):
    a = dc.Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    b = dc.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    out = dc.mul(a, b)
    assert out.data.dtype == np.float64
    dc.backward(_sum(out))
    assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
    np.testing.assert_array_equal(a.grad, b.data.astype(np.float32))


# ------------------------------------------------- per-op finite differences

def _op_cases(rng, dtype):
    """(build, leaves) per op: ``build`` computes a scalar from the leaves
    through the op, with every input and constant weight of ``dtype``."""

    def normal(shape):
        return rng.standard_normal(shape).astype(dtype)

    a = dc.Tensor(normal((4, 3)), requires_grad=True)
    b = dc.Tensor(normal((4, 3)), requires_grad=True)
    vec = dc.Tensor(normal(5), requires_grad=True)
    w_fixed = normal((4, 3))
    x3 = dc.Tensor(normal((2, 3, 4)), requires_grad=True)
    y3 = dc.Tensor(normal((2, 4, 5)), requires_grad=True)
    w_bmm = normal((2, 3, 5))
    w_t3 = normal((2, 4, 3))
    w_x3 = normal((2, 3, 4))
    row_mask = np.array([[True, False, True], [False, True, False],
                         [True, True, True], [False, False, True]])
    q3 = dc.Tensor(normal((2, 3, 4)), requires_grad=True)
    k3 = dc.Tensor(normal((2, 5, 4)), requires_grad=True)
    v3 = dc.Tensor(normal((2, 5, 3)), requires_grad=True)
    key_mask = np.array([[True, True, False, True, False], [True] * 5])
    w_att = normal((2, 3, 3))
    q2 = dc.Tensor(normal((3, 4)), requires_grad=True)
    k2 = dc.Tensor(normal((5, 4)), requires_grad=True)
    v2 = dc.Tensor(normal((5, 2)), requires_grad=True)
    w_att2 = normal((3, 2))
    w_scatter = normal((3, 4))
    w_lin = dc.Tensor(normal((3, 2)), requires_grad=True)
    bias_lin = dc.Tensor(normal(2), requires_grad=True)
    w_col = dc.Tensor(normal((3, 1)), requires_grad=True)
    bias_col = dc.Tensor(normal(1), requires_grad=True)
    return [
        (lambda: _sum(dc.add(a, b)), [a, b]),
        (lambda: dc.wsum(dc.linear(a, w_lin, bias_lin), w_fixed[:, :2]), [a, w_lin, bias_lin]),
        (lambda: _sum(dc.mul(a, b)), [a, b]),
        (lambda: _sum(dc.scale(a, -2.5)), [a]),
        (lambda: _sum(dc.affine(a, 1.7, 0.3)), [a]),
        (lambda: _sum(dc.sigmoid(a)), [a]),
        (lambda: _sum(dc.gelu(a)), [a]),
        # weighted, not plain, sum: sum of a softmax row is constant so its
        # true gradient is zero and FD would only measure rounding noise
        (lambda: dc.wsum(dc.softmax_rows(a), w_fixed), [a]),
        (lambda: _sum(dc.transpose(a)), [a]),
        (lambda: _sum(dc.concat_cols([a, b])), [a, b]),
        (lambda: _sum(dc.stack_rows([a, b])), [a, b]),
        (lambda: _sum(dc.take_rows(a, [0, 2, 2, 3])), [a]),
        (lambda: _sum(dc.scatter_1d(vec, [4, 1, 0, 6, 3], 8)), [vec]),
        (lambda: _sum(dc.reshape(a, (2, 6))), [a]),
        (lambda: dc.wsum(a, w_fixed), [a]),
        (lambda: _sum(dc.log_clamped(dc.sigmoid(a))), [a]),
        (lambda: dc.wsum(dc.bmm(x3, y3), w_bmm), [x3, y3]),
        (lambda: dc.wsum(dc.transpose(x3), w_t3), [x3]),
        (lambda: dc.wsum(dc.softmax_rows(x3), w_x3), [x3]),
        (lambda: dc.wsum(dc.masked_softmax(a, row_mask), w_fixed), [a]),
        (lambda: dc.wsum(dc.attend(q3, k3, v3, key_mask=key_mask), w_att), [q3, k3, v3]),
        (lambda: dc.wsum(dc.attend(q3, k3, v3), w_att), [q3, k3, v3]),
        (lambda: dc.wsum(dc.attend(q2, k2, v2), w_att2), [q2, k2, v2]),
        (lambda: dc.wsum(dc.attend(q2, k2, v2, key_mask=key_mask[0]), w_att2), [q2, k2, v2]),
        (lambda: _sum(dc.take_rows(x3, [1, 0, 1])), [x3]),
        (lambda: dc.wsum(dc.scatter_1d(vec, [7, 1, 0, 11, 3], (3, 4)), w_scatter), [vec]),
        (lambda: dc.wsum(dc.matmul(a, w_lin), w_fixed[:, :2]), [a, w_lin]),
        (lambda: dc.wsum(dc.linear(a, w_col, bias_col), w_fixed[:, :1]), [a, w_col, bias_col]),
        (lambda: _sum(dc.take_rows(vec, [0, 3, 3])), [vec]),
        (lambda: dc.wsum(dc.dropout(a, 0.5, np.random.default_rng(3)), w_fixed), [a]),
    ]


def test_every_op_passes_isolated_grad_check(rng):
    for build, params in _op_cases(rng, np.float64):
        err = dc.grad_check(lambda ps: build(), params)
        assert err < 1e-6, f"{build}: {err}"


def test_every_op_keeps_float32_values_and_gradients(handed_dtypes):
    """With float32 leaves every op's value is float32, and so is every
    gradient handed to ``accumulate``: none is computed in float64 and cast.
    Each agrees with the float64 op on the same draws to float32 precision."""
    cases32 = _op_cases(np.random.default_rng(7), np.float32)
    cases64 = _op_cases(np.random.default_rng(7), np.float64)
    for (build32, params32), (build64, params64) in zip(cases32, cases64):
        handed_dtypes.clear()
        root = build32()
        dc.backward(root)
        assert root.data.dtype == np.float32, build32
        assert handed_dtypes == {np.dtype(np.float32)}, build32
        root64 = build64()
        dc.backward(root64)
        np.testing.assert_allclose(root.data, root64.data, rtol=1e-4, atol=1e-5)
        for p32, p64 in zip(params32, params64):
            assert p32.grad.dtype == np.float32
            np.testing.assert_allclose(p32.grad, p64.grad, rtol=1e-4, atol=1e-5)


def test_shift_invariance_of_masked_softmax(rng):
    s = rng.standard_normal(8)
    mask = rng.random(8) > 0.3
    if not mask.any():
        mask[0] = True
    base = dc.masked_softmax(dc.constant(s), mask).data
    for c in (-100.0, -1.0, 0.5, 100.0):
        shifted = dc.masked_softmax(dc.constant(s + c), mask).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_dropout_identity_at_p_zero(rng):
    a = dc.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    assert dc.dropout(a, 0.0, rng) is a


def test_dropout_inverted_scaling_preserves_mean(rng):
    a = dc.constant(np.ones((200, 200)))
    out = dc.dropout(a, 0.3, rng)
    assert abs(out.data.mean() - 1.0) < 0.01


def test_log_clamped_zero_grad_below_eps():
    x = dc.Tensor(np.array([0.0, 0.5]), requires_grad=True)
    dc.backward(_sum(dc.log_clamped(x)))
    assert x.grad[0] == 0.0 and abs(x.grad[1] - 2.0) < 1e-12
