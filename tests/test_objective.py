import math

import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.anp_selector import BatchForward
from toolselect.errors import ConfigError
from toolselect.objective import ObjectiveConfig, PanelCosts, batch_objective, compsum_weights

from per_query import compsum_loss, coverage_loss, coverage_loss_value, entropy_reg, selection_loss


def _dist(scores, mask):
    scores_t = dc.Tensor(np.asarray(scores, dtype=np.float64), requires_grad=True)
    probs_t = dc.masked_softmax(scores_t, mask)

    class D:
        pass
    d = D()
    d.scores_t = scores_t
    d.probs_t = probs_t
    d.probs = probs_t.data
    d.mask = np.asarray(mask, dtype=bool)
    d.selected = int(np.argmax(probs_t.data))
    return d


# ---------------------------------------------------------- selection_loss

def test_selection_loss_direct():
    pc = PanelCosts(costs=[0.2, 0.7], valid=[True, True])
    d = _dist([1.0, 0.0], [True, True])
    assert d.selected == 0
    assert selection_loss(pc, d) == 0.2


def test_selection_loss_zero_cost():
    pc = PanelCosts(costs=[0.0, 0.9], valid=[True, True])
    assert selection_loss(pc, _dist([5.0, 0.0], [True, True])) == 0.0


def test_selection_loss_indicator_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(2, 7))
        costs = rng.random(m)
        valid = rng.random(m) > 0.3
        if not valid.any():
            valid[0] = True
        scores = rng.standard_normal(m)
        d = _dist(scores, valid)
        pc = PanelCosts(costs=costs, valid=valid)
        brute = sum(c * (1 if d.selected == j else 0) for j, c in enumerate(costs))
        assert selection_loss(pc, d) == pytest.approx(brute, abs=1e-12)


def test_selection_loss_invalid_selection_rejected():
    pc = PanelCosts(costs=[0.2, 0.7], valid=[False, True])
    d = _dist([0.0, 1.0], [True, True])
    d.selected = 0
    with pytest.raises(ValueError):
        selection_loss(pc, d)


# --------------------------------------------------------- compsum_weights

def test_weights_m2():
    pc = PanelCosts(costs=[0.3, 0.8], valid=[True, True])
    np.testing.assert_allclose(compsum_weights(pc), [0.8, 0.3], atol=1e-12)


def test_weights_m3():
    pc = PanelCosts(costs=[0.2, 0.5, 1.0], valid=[True, True, True])
    np.testing.assert_allclose(compsum_weights(pc), [0.5, 0.2, -0.3], atol=1e-12)


def test_weights_all_cost_one():
    for m in (2, 3, 5, 8):
        pc = PanelCosts(costs=np.ones(m), valid=np.ones(m, dtype=bool))
        np.testing.assert_allclose(compsum_weights(pc), np.ones(m), atol=1e-12)


def test_weights_ignore_invalid_slots():
    pc = PanelCosts(costs=[0.3, 99.0, 0.8], valid=[True, False, True])
    w = compsum_weights(pc)
    np.testing.assert_allclose(w, [0.8, 0.0, 0.3], atol=1e-12)


def test_weight_range_invariant(rng):
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        valid = rng.random(m) > 0.3
        if valid.sum() < 1:
            valid[0] = True
        pc = PanelCosts(costs=rng.random(m), valid=valid)
        w = compsum_weights(pc)[valid]
        m_valid = int(valid.sum())
        assert (w >= 2 - m_valid - 1e-12).all() and (w <= 1 + 1e-12).all()


# ------------------------------------------------------------ compsum_loss

def test_compsum_uniform_two_slots():
    d = _dist([0.0, 0.0], [True, True])
    loss = compsum_loss(d, [0.8, 0.3])
    assert loss.item() == pytest.approx(1.1 * math.log(2), abs=1e-12)


def test_compsum_single_valid_slot_is_zero():
    d = _dist([3.0, 1.0], [True, False])
    loss = compsum_loss(d, compsum_weights(
        PanelCosts(costs=[0.4, 0.0], valid=[True, False])))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_m2_reduction_identity(rng):
    """General surrogate at m=2 equals the binary cost-sensitive form."""
    def softplus(z):
        return math.log1p(math.exp(-abs(z))) + max(z, 0.0)

    for _ in range(1000):
        c1, c2 = rng.random(2)
        r1, r2 = rng.standard_normal(2) * 3
        d = _dist([r1, r2], [True, True])
        pc = PanelCosts(costs=[c1, c2], valid=[True, True])
        general = compsum_loss(d, compsum_weights(pc)).item()
        binary = c2 * softplus(r2 - r1) + c1 * softplus(r1 - r2)
        assert general == pytest.approx(binary, abs=1e-9)


def test_compsum_nonnegative_for_nonnegative_weights(rng):
    for _ in range(200):
        d = _dist(rng.standard_normal(2), [True, True])
        pc = PanelCosts(costs=rng.random(2), valid=[True, True])
        assert compsum_loss(d, compsum_weights(pc)).item() >= -1e-12


# -------------------------------------------------------------- entropy_reg

def test_entropy_uniform_four():
    d = _dist([1.0, 1.0, 1.0, 1.0], [True] * 4)
    assert entropy_reg(d).item() == pytest.approx(math.log(4), abs=1e-12)


def test_entropy_one_hot_is_zero():
    d = _dist([50.0, 0.0], [True, True])
    assert entropy_reg(d).item() == pytest.approx(0.0, abs=1e-9)


def test_entropy_bounds(rng):
    for _ in range(200):
        m = int(rng.integers(2, 7))
        valid = rng.random(m) > 0.3
        if not valid.any():
            valid[0] = True
        d = _dist(rng.standard_normal(m) * 2, valid)
        h = entropy_reg(d).item()
        assert -1e-12 <= h <= math.log(int(valid.sum())) + 1e-12


# ------------------------------------------------------------ coverage_loss

def test_coverage_c0_s_near_one():
    assert coverage_loss_value(1.0 - 1e-9, 0.0) < 1e-8


def test_coverage_c1_s_half():
    assert coverage_loss_value(0.5, 1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_coverage_minimizer_is_one_minus_c():
    c = 0.3
    grid = np.linspace(0.01, 0.99, 99)
    vals = [coverage_loss_value(s, c) for s in grid]
    assert abs(grid[int(np.argmin(vals))] - (1 - c)) < 0.011


def test_coverage_loss_tensor_matches_scalar(rng):
    s = rng.random(6) * 0.98 + 0.01
    c = rng.random(6)
    t = coverage_loss(dc.constant(s), c).item()
    expect = np.mean([coverage_loss_value(si, ci) for si, ci in zip(s, c)])
    assert t == pytest.approx(expect, abs=1e-12)


# --------------------------------------------------------- batch_objective

def _row(rng, task=0, with_cov=False):
    """One random example: scores, valid slots, costs, task and coverage logits."""
    m = int(rng.integers(2, 6))
    valid = rng.random(m) > 0.3
    if not valid.any():
        valid[0] = True
    scores, costs = rng.standard_normal(m), rng.random(m)
    cov = rng.standard_normal(int(valid.sum())) if with_cov else None
    return scores, valid, costs, task, cov


def _leaves(rows):
    """The differentiable inputs of a batch of rows: the (B, M) scores,
    zero-padded, and the coverage logits of every valid slot, or None."""
    scores = np.zeros((len(rows), max(len(r[0]) for r in rows)))
    for i, r in enumerate(rows):
        scores[i, :len(r[0])] = r[0]
    leaves = [dc.Tensor(scores, requires_grad=True)]
    if rows[0][4] is not None:
        leaves.append(dc.Tensor(np.concatenate([r[4] for r in rows]), requires_grad=True))
    return leaves


def _forward(rows, leaves=None):
    """The rows as one hand-built batched forward, whose coverage has one
    pair per valid slot, and their ``(B, M)`` panel costs."""
    leaves = _leaves(rows) if leaves is None else leaves
    mask = np.zeros(leaves[0].shape, dtype=bool)
    costs = np.zeros(leaves[0].shape)
    for i, r in enumerate(rows):
        mask[i, :len(r[1])] = r[1]
        costs[i, :len(r[2])] = r[2]
    fwd = BatchForward(probs_t=dc.masked_softmax(leaves[0], mask), scores_t=leaves[0],
                       mask=mask, slot_pair=np.arange(int(mask.sum())),
                       tasks=np.array([r[3] for r in rows]), widths=[len(r[0]) for r in rows],
                       coverage_fn=lambda: dc.sigmoid(leaves[1]))
    return fwd, PanelCosts(costs=costs, valid=mask)


def test_batch_objective_degenerates_to_compsum(rng):
    scores, valid, costs, _, _ = row = _row(rng)
    cfg = ObjectiveConfig(lambda_h=0.0, lambda_r=0.0, lambda_cov=0.0)
    total = batch_objective(cfg, *_forward([row]), n_tasks=4).item()
    expect = compsum_loss(_dist(scores, valid), compsum_weights(PanelCosts(costs, valid))).item()
    assert total == pytest.approx(expect, abs=1e-12)


def test_batch_objective_duplicate_invariance(rng):
    row = _row(rng, with_cov=True)
    cfg = ObjectiveConfig()
    one = batch_objective(cfg, *_forward([row]), n_tasks=4).item()
    two = batch_objective(cfg, *_forward([row, row]), n_tasks=4).item()
    assert one == pytest.approx(two, abs=1e-12)


def test_batch_objective_matches_flat_resummation(rng):
    rows = [_row(rng, task=i % 4, with_cov=True) for i in range(6)]
    cfg = ObjectiveConfig(lambda_h=0.05, lambda_r=1e-4, lambda_cov=1.0)
    got = batch_objective(cfg, *_forward(rows), n_tasks=4).item()
    total = 0.0
    for scores, valid, costs, _, cov in rows:
        d = _dist(scores, valid)
        term = compsum_loss(d, compsum_weights(PanelCosts(costs, valid))).item()
        term -= cfg.lambda_h * entropy_reg(d).item()
        term += cfg.lambda_r * (scores[valid] ** 2).mean()
        term += cfg.lambda_cov * np.mean(
            [coverage_loss_value(1.0 / (1.0 + math.exp(-z)), c)
             for z, c in zip(cov, costs[valid])])
        total += term * (1.0 / 4) * 4
    assert got == pytest.approx(total / len(rows), abs=1e-10)


def test_batch_objective_empty_batch_rejected():
    zeros, empty = np.zeros((0, 2)), np.zeros((0, 2), dtype=bool)
    fwd = BatchForward(probs_t=dc.constant(zeros), scores_t=dc.constant(zeros), mask=empty,
                       slot_pair=np.zeros(0, dtype=np.intp), tasks=np.zeros(0, dtype=int),
                       widths=[], coverage_fn=None)
    with pytest.raises(ValueError, match="empty batch"):
        batch_objective(ObjectiveConfig(), fwd, PanelCosts(zeros, empty), n_tasks=4)


def test_batch_objective_gradient(rng):
    rows = [_row(rng, with_cov=True) for _ in range(3)]
    cfg = ObjectiveConfig()
    params = _leaves(rows)

    def f(ps):
        return batch_objective(cfg, *_forward(rows, ps), n_tasks=4)

    assert dc.grad_check(f, params) < 1e-6


def test_panel_costs_requires_valid_slot():
    with pytest.raises(ValueError):
        PanelCosts(costs=[0.1, 0.2], valid=[False, False])


@pytest.mark.parametrize("field, value", [
    ("lambda_h", math.nan), ("lambda_r", math.inf), ("lambda_cov", -1.0), ("lambda_h", -1e-9),
    ("eps", 0.0), ("eps", -1e-12), ("eps", math.inf), ("eps", math.nan)])
def test_objective_config_rejects_unusable_values(field, value):
    with pytest.raises(ConfigError, match=f"objective config: {field} must be finite"):
        ObjectiveConfig(**{field: value})


def test_objective_config_accepts_zero_lambdas():
    cfg = ObjectiveConfig(lambda_h=0.0, lambda_r=0.0, lambda_cov=0.0, eps=1e-300)
    assert cfg.lambda_cov == 0.0
