import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.simworld import WorldConfig, generate_world
from toolselect.trainer import (
    AdamW,
    TrainConfig,
    early_stop,
    fit,
    sample_task,
)


# ------------------------------------------------------------- sample_task

def test_sample_task_degenerate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert sample_task([1.0, 0.0, 0.0, 0.0], rng) == 0


def test_sample_task_frequencies_within_3_sigma():
    rng = np.random.default_rng(1)
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample_task([0.25] * 4, rng)] += 1
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert (np.abs(counts - n * 0.25) < 3 * sigma).all()


def test_sample_task_deterministic():
    a = [sample_task([0.4, 0.6], np.random.default_rng(7)) for _ in range(10)]
    b = [sample_task([0.4, 0.6], np.random.default_rng(7)) for _ in range(10)]
    assert a == b


def test_sample_task_rejects_off_simplex():
    with pytest.raises(ValueError):
        sample_task([0.5, 0.6], np.random.default_rng(0))


# ------------------------------------------------------------------- AdamW

def test_adamw_zero_grad_zero_decay_unchanged():
    p = dc.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adamw_first_step_closed_form():
    lr, wd, eps = 3e-5, 1e-4, 1e-8
    p = dc.Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(1.0)
    opt = AdamW({"p": p}, lr=lr, weight_decay=wd, eps=eps)
    opt.step()
    # m_hat = v_hat = 1 after bias correction at step 1
    after_adam = 1.0 - lr * (1.0 / (1.0 + eps))
    expected = after_adam - lr * wd * after_adam
    assert float(p.data) == pytest.approx(expected, abs=1e-15)


def test_adamw_monotone_on_quadratic():
    p = dc.Tensor(np.array(3.0), requires_grad=True)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    vals = []
    for _ in range(10):
        p.grad = 2.0 * p.data
        vals.append(float(p.data) ** 2)
        opt.step()
    vals.append(float(p.data) ** 2)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_adamw_in_place_update_matches_textbook_expressions(rng):
    lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
    p = dc.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    opt = AdamW({"p": p}, lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
    w, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    for t in range(1, 6):
        g = rng.standard_normal((4, 3))
        p.grad = g
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        w -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        w -= lr * wd * w
        np.testing.assert_array_equal(p.data, w)


def test_adamw_aborts_on_nonfinite_gradient():
    p = dc.Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(np.nan)
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    with pytest.raises(ValueError, match="p"):
        opt.step()


# -------------------------------------------------------------- early_stop

def test_early_stop_improving_history():
    assert not early_stop([0.5, 0.4, 0.3, 0.2], patience=2, min_delta=1e-4)


def test_early_stop_flat_history():
    assert early_stop([0.5] * 4, patience=3, min_delta=1e-4)


def test_early_stop_exact_min_delta_counts_as_no_improvement():
    # improvements of exactly min_delta never reset the counter;
    # values chosen to be exactly representable in binary
    hist = [0.5, 0.375, 0.25]
    assert early_stop(hist, patience=2, min_delta=0.125)


def test_early_stop_requires_patience():
    with pytest.raises(ValueError):
        early_stop([0.5], patience=0, min_delta=1e-4)


# --------------------------------------------------------------------- fit

FAST = dict(n_train=120, n_val=30, n_test=30, n_ref_pool=120,
            tools_per_task=4, ref_size=4)


def test_fit_deterministic_history():
    w1 = generate_world(WorldConfig(**FAST), 3)
    w2 = generate_world(WorldConfig(**FAST), 3)
    cfg = TrainConfig(max_epochs=3, batch_size=8, panel_size=4, seed=5)
    a = fit(cfg, w1)
    b = fit(cfg, w2)
    assert a.log_lines() == b.log_lines()
    for k in a.params:
        np.testing.assert_array_equal(a.params[k].data, b.params[k].data)


def test_fit_log_line_format():
    w = generate_world(WorldConfig(**FAST), 3)
    cfg = TrainConfig(max_epochs=2, batch_size=8, panel_size=4, seed=5)
    res = fit(cfg, w)
    for i, line in enumerate(res.log_lines(), start=1):
        parts = line.split()
        assert parts[0] == f"epoch={i}"
        assert parts[1].startswith("train_loss=")
        assert parts[2].startswith("val_cost=")
        assert parts[3] in ("best=0", "best=1")
        float(parts[1].split("=")[1])
        float(parts[2].split("=")[1])


def test_fit_near_perfect_world_matches_single_tool_cost():
    """One tool per task: routed cost equals that tool's own mean cost."""
    cfg = WorldConfig(**{**FAST, "tools_per_task": 1, "support_prob": 1.0,
                         "p_max": 0.999, "sharpness": 1e-4})
    w = generate_world(cfg, 1)
    res = fit(TrainConfig(max_epochs=2, batch_size=8, panel_size=2, seed=0), w)
    floor = np.mean([w.tool_cost(w.populations[lq.query.task][0], lq)
                     for lq in w.splits["val"]])
    assert res.history[-1].val_cost == pytest.approx(floor, abs=1e-12)
    # per-tool competence ceiling is jittered, so the floor is small not zero
    assert floor < 0.25


def test_fit_returns_best_snapshot():
    w = generate_world(WorldConfig(**FAST), 3)
    cfg = TrainConfig(max_epochs=4, batch_size=8, panel_size=4, seed=5)
    res = fit(cfg, w)
    best_epochs = [r.epoch for r in res.history if r.best]
    assert best_epochs, "no epoch ever improved validation"
    # the reported best validation cost is the minimum of the trace
    best_val = min(r.val_cost for r in res.history)
    assert res.history[best_epochs[-1] - 1].val_cost == best_val


def test_fit_does_not_mutate_tools():
    w = generate_world(WorldConfig(**FAST), 3)
    before = [t.mu.copy() for t in w.all_tools]
    fit(TrainConfig(max_epochs=1, batch_size=8, panel_size=4, seed=0), w)
    for t, mu in zip(w.all_tools, before):
        np.testing.assert_array_equal(t.mu, mu)
