import math

import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.errors import (
    EmptyReferenceSetError,
    NoValidCandidateError,
    ShapeMismatchError,
)


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
    _fd_check(lambda: dc.sum_all(dc.matmul(a, b)), [a, b])


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


# --------------------------------------------------------------- backward

def test_backward_sum_gives_ones(rng):
    x = dc.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    dc.backward(dc.sum_all(x))
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


# ------------------------------------------------------------- grad_check

def test_grad_check_square():
    x = dc.Tensor(np.array(3.0), requires_grad=True)
    err = dc.grad_check(lambda ps: dc.reshape(dc.mul(x, x), ()), [x])
    assert err < 1e-8


def test_grad_check_rejects_nonpositive_h():
    x = dc.Tensor(np.array(1.0), requires_grad=True)
    with pytest.raises(ValueError):
        dc.grad_check(lambda ps: dc.reshape(dc.mul(x, x), ()), [x], h=0.0)


# ------------------------------------------------- per-op finite differences

def test_every_op_passes_isolated_grad_check(rng):
    a = dc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = dc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    bias = dc.Tensor(rng.standard_normal(3), requires_grad=True)
    vec = dc.Tensor(rng.standard_normal(5), requires_grad=True)
    w_fixed = rng.standard_normal((4, 3))
    x3 = dc.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    y3 = dc.Tensor(rng.standard_normal((2, 4, 5)), requires_grad=True)
    w_bmm = rng.standard_normal((2, 3, 5))
    w_t3 = rng.standard_normal((2, 4, 3))
    w_x3 = rng.standard_normal((2, 3, 4))
    row_mask = np.array([[True, False, True], [False, True, False],
                         [True, True, True], [False, False, True]])
    q3 = dc.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    k3 = dc.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
    v3 = dc.Tensor(rng.standard_normal((2, 5, 3)), requires_grad=True)
    key_mask = np.array([[True, True, False, True, False], [True] * 5])
    w_att = rng.standard_normal((2, 3, 3))
    w_scatter = rng.standard_normal((3, 4))
    cases = [
        (lambda: dc.sum_all(dc.add(a, b)), [a, b]),
        (lambda: dc.sum_all(dc.add(a, bias)), [a, bias]),
        (lambda: dc.sum_all(dc.sub(a, b)), [a, b]),
        (lambda: dc.sum_all(dc.mul(a, b)), [a, b]),
        (lambda: dc.sum_all(dc.scale(a, -2.5)), [a]),
        (lambda: dc.sum_all(dc.affine(a, 1.7, 0.3)), [a]),
        (lambda: dc.mean_all(dc.exp(dc.scale(a, 0.3))), [a]),
        (lambda: dc.sum_all(dc.sigmoid(a)), [a]),
        (lambda: dc.sum_all(dc.gelu(a)), [a]),
        # weighted, not plain, sum: sum of a softmax row is constant so its
        # true gradient is zero and FD would only measure rounding noise
        (lambda: dc.wsum(dc.softmax_rows(a), w_fixed), [a]),
        (lambda: dc.sum_all(dc.transpose(a)), [a]),
        (lambda: dc.sum_all(dc.concat_cols([a, b])), [a, b]),
        (lambda: dc.sum_all(dc.stack_rows([a, b])), [a, b]),
        (lambda: dc.sum_all(dc.take_rows(a, [0, 2, 2, 3])), [a]),
        (lambda: dc.sum_all(dc.scatter_1d(vec, [4, 1, 0, 6, 3], 8)), [vec]),
        (lambda: dc.sum_all(dc.reshape(a, (2, 6))), [a]),
        (lambda: dc.wsum(a, w_fixed), [a]),
        (lambda: dc.sum_all(dc.log_clamped(dc.exp(a))), [a]),
        (lambda: dc.wsum(dc.bmm(x3, y3), w_bmm), [x3, y3]),
        (lambda: dc.wsum(dc.transpose(x3), w_t3), [x3]),
        (lambda: dc.wsum(dc.softmax_rows(x3), w_x3), [x3]),
        (lambda: dc.wsum(dc.masked_softmax(a, row_mask), w_fixed), [a]),
        (lambda: dc.wsum(dc.attend(q3, k3, v3, key_mask=key_mask), w_att), [q3, k3, v3]),
        (lambda: dc.sum_all(dc.take_rows(x3, [1, 0, 1])), [x3]),
        (lambda: dc.wsum(dc.scatter_1d(vec, [7, 1, 0, 11, 3], (3, 4)), w_scatter), [vec]),
    ]
    for build, params in cases:
        err = dc.grad_check(lambda ps: build(), params)
        assert err < 1e-6, f"{build}: {err}"


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
    dc.backward(dc.sum_all(dc.log_clamped(x)))
    assert x.grad[0] == 0.0 and abs(x.grad[1] - 2.0) < 1e-12
