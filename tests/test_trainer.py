import dataclasses

import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.anp_selector import SelectorModel, init_params
from toolselect.baselines import ToolSelectRouter
from toolselect.errors import ConfigError
from toolselect.objective import ObjectiveConfig, batch_objective
from toolselect.simworld import WorldConfig, generate_world, sample_panel
from toolselect.trainer import (
    AdamW,
    TrainConfig,
    build_model,
    default_selector_config,
    early_stop,
    fit,
    panel_costs,
    sample_task,
    step_panels,
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
    params = dc.Params({"p": np.array([1.0, -2.0])})
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(params["p"].data, [1.0, -2.0])


def test_adamw_first_step_closed_form():
    lr, wd, eps = 3e-5, 1e-4, 1e-8
    params = dc.Params({"p": np.array(1.0)})
    p = params["p"]
    p.grad[...] = 1.0
    opt = AdamW(params, lr=lr, weight_decay=wd, eps=eps)
    opt.step()
    # m_hat = v_hat = 1 after bias correction at step 1
    after_adam = 1.0 - lr * (1.0 / (1.0 + eps))
    expected = after_adam - lr * wd * after_adam
    assert float(p.data) == pytest.approx(expected, abs=1e-15)


def test_adamw_monotone_on_quadratic():
    params = dc.Params({"p": np.array(3.0)})
    p = params["p"]
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    vals = []
    for _ in range(10):
        p.grad[...] = 2.0 * p.data
        vals.append(float(p.data) ** 2)
        opt.step()
    vals.append(float(p.data) ** 2)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_adamw_in_place_update_matches_textbook_expressions(rng):
    lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
    params = dc.Params({"p": rng.standard_normal((4, 3))})
    p = params["p"]
    opt = AdamW(params, lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
    w, m, v = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3))
    for t in range(1, 6):
        g = rng.standard_normal((4, 3))
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        w -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        w -= lr * wd * w
        np.testing.assert_array_equal(p.data, w)


def test_adamw_aborts_on_nonfinite_gradient():
    params = dc.Params({"p": np.array(1.0)})
    params["p"].grad[...] = np.nan
    opt = AdamW(params, lr=0.1, weight_decay=0.0)
    with pytest.raises(ValueError, match="p"):
        opt.step()


def _adamw_matches_textbook_expressions_per_parameter(rng, dtype):
    """Parameters of several shapes, one of them at times without a
    gradient (its reset zero), each update bit for bit the textbook
    expressions of that parameter alone, evaluated in ``dtype``; every
    ``p.data`` stays one view of the flat buffer."""
    lr, wd, b1, b2, eps = 3e-3, 1e-2, 0.9, 0.999, 1e-8
    shapes = {"w": (4, 3), "b": (3,), "s": (), "z": (2, 1, 2)}
    # weights as small as the updates, so a last-bit change of an update shows
    params = dc.Params({k: (rng.standard_normal(shape)
                            * 10.0 ** rng.uniform(-5, 0, shape)).astype(dtype)
                        for k, shape in shapes.items()})
    want = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(shape, dtype=dtype) for k, shape in shapes.items()}
    v = {k: np.zeros(shape, dtype=dtype) for k, shape in shapes.items()}
    opt = AdamW(params, lr=lr, weight_decay=wd, beta1=b1, beta2=b2, eps=eps)
    assert params.flat.dtype == opt.m.dtype == opt.v.dtype == dtype
    views = {k: p.data for k, p in params.items()}
    for k, p in params.items():
        assert np.shares_memory(p.data, params.flat)
        assert p.data.tobytes() == want[k].tobytes()
    for t in range(1, 6):
        params.grad[...] = 0.0
        for k, p in params.items():
            if not (k == "z" and t % 2):
                p.grad[...] = (rng.standard_normal(shapes[k])
                               * 10.0 ** rng.uniform(-3, 3, shapes[k])).astype(dtype)
        opt.step()
        for k, p in params.items():
            g = p.grad
            assert g.any() or (k == "z" and t % 2), (k, t)
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * g * g
            want[k] -= lr * (m[k] / (1.0 - b1 ** t)) / (np.sqrt(v[k] / (1.0 - b2 ** t)) + eps)
            want[k] -= lr * wd * want[k]
            assert p.data is views[k] and p.data.dtype == dtype
            assert p.data.tobytes() == np.asarray(want[k], dtype=dtype).tobytes(), (k, t)


def test_adamw_flat_buffer_matches_textbook_expressions_per_parameter(rng):
    _adamw_matches_textbook_expressions_per_parameter(rng, np.float64)


def test_adamw_runs_float32_parameters_in_float32(rng):
    _adamw_matches_textbook_expressions_per_parameter(rng, np.float32)


def test_adamw_nonfinite_gradient_names_the_first_parameter_and_changes_nothing():
    params = dc.Params({name: np.ones(2) for name in ("c", "a", "b")})
    params["a"].grad[...] = np.ones(2)
    params["b"].grad[...] = [1.0, np.inf]
    params["c"].grad[...] = [np.nan, 1.0]
    opt = AdamW(params, lr=0.1, weight_decay=0.1)
    with pytest.raises(ValueError, match="'b'"):
        opt.step()
    assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()
    for p in params.values():
        np.testing.assert_array_equal(p.data, [1.0, 1.0])


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


def test_fit_trains_without_the_queries_of_a_task_of_weight_0():
    """n_train=2 leaves tasks 2 and 3 without training queries: fit names
    the first of them, unless the task weights leave both out."""
    w = generate_world(WorldConfig(**{**FAST, "n_train": 2}), 3)
    cfg = TrainConfig(max_epochs=1, batch_size=4, panel_size=4, seed=5)
    with pytest.raises(ConfigError, match=r"task 2 has weight 0\.25 but no training queries "
                                          r"\(n_train=2 over 4 tasks\)"):
        fit(cfg, w)
    res = fit(cfg, w, objective_cfg=ObjectiveConfig(task_weights=(0.5, 0.5, 0.0, 0.0)))
    assert len(res.history) == 1


def test_fit_returns_best_snapshot():
    w = generate_world(WorldConfig(**FAST), 3)
    cfg = TrainConfig(max_epochs=4, batch_size=8, panel_size=4, seed=5)
    res = fit(cfg, w)
    best_epochs = [r.epoch for r in res.history if r.best]
    assert best_epochs, "no epoch ever improved validation"
    # the reported best validation cost is the minimum of the trace
    best_val = min(r.val_cost for r in res.history)
    assert res.history[best_epochs[-1] - 1].val_cost == best_val


def test_fit_returns_the_masters_of_the_best_epoch_with_zero_gradients(monkeypatch):
    """The returned parameters are the float64 masters as the last step of
    the best epoch (the first of three here) left them, with zero
    gradients."""
    updates = []
    step = AdamW.step

    def step_spy(self):
        step(self)
        updates.append(self.params.flat.copy())
    monkeypatch.setattr(AdamW, "step", step_spy)
    w = generate_world(WorldConfig(**FAST), 3)
    res = fit(TrainConfig(max_epochs=3, batch_size=8, panel_size=4, seed=5), w)
    assert [r.best for r in res.history] == [True, False, False] and len(updates) == 45
    assert res.params.flat.tobytes() == updates[14].tobytes()
    assert not res.params.grad.any()
    assert all(np.shares_memory(p.grad, res.params.grad) for p in res.params.values())


def test_fit_does_not_mutate_tools():
    w = generate_world(WorldConfig(**FAST), 3)
    before = [t.mu.copy() for t in w.all_tools]
    fit(TrainConfig(max_epochs=1, batch_size=8, panel_size=4, seed=0), w)
    for t, mu in zip(w.all_tools, before):
        np.testing.assert_array_equal(t.mu, mu)


# ------------------------------------------------------- mixed precision

def test_fit_steps_in_float32_on_float64_masters(monkeypatch, handed_dtypes):
    """Every gradient a fit step hands to ``accumulate`` is float32, added
    into a gradient buffer zeroed before the step's backward; ``AdamW``
    updates float64 masters in float64 buffers from the float32 gradients
    of the step, cast exactly; and each training forward runs on the
    masters as the last update left them, rounded to float32."""
    forwards, updates, seen, trained, zeroed = [], [], [], [], []
    batch_forward, step, backward = SelectorModel.batch_forward, AdamW.step, dc.backward

    def forward_spy(self, items, training=False, **kwargs):
        if training:
            trained.append(self.params)
            forwards.append(np.concatenate([self.params[k].data.reshape(-1)
                                            for k in sorted(self.params)]))
        return batch_forward(self, items, training=training, **kwargs)

    def step_spy(self):
        grad32 = trained[-1].grad
        seen.append(({p.data.dtype for p in self.params.values()}, {grad32.dtype},
                     {self.params.flat.dtype, self.m.dtype, self.v.dtype,
                      self.params.grad.dtype},
                     self.params.grad.tobytes() == grad32.astype(np.float64).tobytes()
                     and grad32.any()))
        step(self)
        updates.append(self.params.flat.copy())

    def backward_spy(root):
        zeroed.append(not trained[-1].grad.any())
        backward(root)
    monkeypatch.setattr(SelectorModel, "batch_forward", forward_spy)
    monkeypatch.setattr(AdamW, "step", step_spy)
    monkeypatch.setattr(dc, "backward", backward_spy)
    w = generate_world(WorldConfig(**FAST), 3)
    cfg = TrainConfig(max_epochs=1, batch_size=8, panel_size=4, seed=5)
    fit(cfg, w)
    assert handed_dtypes == {np.dtype(np.float32)}
    assert len(seen) == len(forwards) == 15 and zeroed == [True] * 15
    f32, f64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
    assert all(masters == f64 and grads == f32 and buffers == f64 and cast
               for masters, grads, buffers, cast in seen), seen
    init = init_params(default_selector_config(w), cfg.seed)
    masters = [np.concatenate([init[k].data.reshape(-1) for k in sorted(init)])] + updates
    for i, used in enumerate(forwards):
        assert used.dtype == np.float32
        assert used.tobytes() == masters[i].astype(np.float32).tobytes(), i


def test_fit_returns_float64_masters_and_a_router_on_them_runs_float64():
    w = generate_world(WorldConfig(**FAST), 3)
    res = fit(TrainConfig(max_epochs=1, batch_size=8, panel_size=4, seed=5), w)
    assert {p.data.dtype for p in res.params.values()} == {np.dtype(np.float64)}
    router = ToolSelectRouter(build_model(w, res.params, default_selector_config(w)))
    lq = w.splits["test"][0]
    panel = sample_panel(w.populations[lq.query.task], lq.query, 4, np.random.default_rng(0))
    fwd = router.model.batch_forward([(lq, panel)])
    assert fwd.scores_t.data.dtype == fwd.probs_t.data.dtype == np.float64


def test_a_float32_frozen_view_forwards_the_float32_model_bit_for_bit(small_world):
    """Validation's forward: a float32 ``detached`` view, which stores its
    reference encodings in float32, gives the float32 trainable model's
    forward bit for bit, over chunks that share reference sets."""
    w = small_world
    sel = default_selector_config(w)
    params = dc.Params({k: p.data for k, p in init_params(sel, 0).items()}, np.float32)
    model = build_model(w, params, sel)
    view = model.detached()
    val = w.splits["val"]
    items = list(zip(val, [sample_panel(w.populations[lq.query.task], lq.query, 6,
                                        np.random.default_rng(i)) for i, lq in enumerate(val)]))
    for lo in range(0, len(items), 16):
        chunk = items[lo:lo + 16]
        got, want = view.batch_forward(chunk), model.batch_forward(chunk)
        for name in ("scores_t", "probs_t", "coverage_t"):
            a, b = getattr(got, name).data, getattr(want, name).data
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes(), name
    assert view.store["filled"].any()
    assert view.store["k"].dtype == view.store["v"].dtype == np.float32


def test_a_float32_params_is_refreshed_from_the_masters_flat_in_one_pass(rng):
    """A float32 ``Params`` of float64 masters has their layout, so one
    assignment casts its gradients into the masters' and one refreshes each
    of its tensors to its master rounded to float32."""
    shapes = {"w": (4, 3), "b": (3,), "s": (), "a": (2, 1, 2)}
    masters = dc.Params({k: rng.standard_normal(shape) for k, shape in shapes.items()})
    opt = AdamW(masters, lr=0.1, weight_decay=0.01)
    params = dc.Params({k: p.data for k, p in masters.items()}, np.float32)
    assert list(params) == list(masters) and params.flat.dtype == np.float32
    np.testing.assert_array_equal(params.flat, masters.flat.astype(np.float32))
    for k, p in params.items():
        p.grad[...] = rng.standard_normal(shapes[k])
        assert p.data.dtype == p.grad.dtype == np.float32 and p.requires_grad
        assert np.shares_memory(p.data, params.flat)
    masters.grad[...] = params.grad
    for k, p in params.items():
        assert masters[k].grad.tobytes() == p.grad.astype(np.float64).tobytes(), k
    opt.step()
    params.flat[...] = masters.flat
    for k, p in params.items():
        assert p.data.shape == shapes[k]
        assert p.data.tobytes() == masters[k].data.astype(np.float32).tobytes(), k


def test_a_zero_gradient_update_decays_a_float64_master_but_no_float32_weight(rng):
    """At the default ``lr * weight_decay`` (3e-9), the decoupled decay of a
    fit step changes every float64 master, bit for bit ``p - lr*wd*p``; the
    same update of float32 weights changes none of them, which is why fit
    keeps float64 masters."""
    cfg = TrainConfig()
    p0 = rng.uniform(0.01, 1.0, size=(64, 8)) * rng.choice([-1.0, 1.0], size=(64, 8))
    masters = dc.Params({"w": p0})
    opt = AdamW(masters, cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps_opt)
    params = dc.Params({"w": p0}, np.float32)
    masters.grad[...] = params.grad
    opt.step()
    params.flat[...] = masters.flat
    want = p0 - np.multiply(p0, cfg.lr * cfg.weight_decay)
    assert masters["w"].data.tobytes() == want.tobytes()
    assert (masters["w"].data != p0).all()
    params32 = dc.Params({"w": p0.astype(np.float32)})
    AdamW(params32, cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps_opt).step()
    w32 = params32["w"]
    assert w32.data.dtype == np.float32
    assert w32.data.tobytes() == p0.astype(np.float32).tobytes()


def test_a_float32_training_forward_agrees_with_the_float64_forward(small_world):
    """The float32 training forward and objective of parameters rounded to
    float32 agree with the float64 ones of the same rounded parameters, to
    float32 tolerance, with the same dropout draws."""
    w = small_world
    sel = default_selector_config(w)
    rounded = {k: p.data.astype(np.float32) for k, p in init_params(sel, 0).items()}
    task = 1
    pool = w.split_by_task("train")[task]
    lqs = pool[:12]
    items = list(zip(lqs, step_panels(w.populations[task], lqs, 6, np.random.default_rng(2))))
    pc = panel_costs(w, items)
    out = {}
    for dtype in (np.float32, np.float64):
        params = {k: dc.Tensor(v.astype(dtype), requires_grad=True) for k, v in rounded.items()}
        fwd = build_model(w, params, sel).batch_forward(items, training=True,
                                                        rng=np.random.default_rng(3))
        loss = batch_objective(ObjectiveConfig(), fwd, pc, w.cfg.n_tasks())
        out[dtype] = (fwd.scores_t.data, fwd.probs_t.data, fwd.coverage_t.data, loss.data)
    for a32, a64 in zip(out[np.float32], out[np.float64]):
        assert a32.dtype == np.float32 and a64.dtype == np.float64
        np.testing.assert_allclose(a32, a64, rtol=1e-4, atol=1e-5)


# ------------------------------------------------------- objective inputs

def _objective_before(cfg, world, items, fwd, n_tasks):
    """The batch objective as it was computed from per-item inputs: one
    ``PanelCosts``, compsum weight row, task weight and coverage cost slice
    per example, then the same weighted sums."""
    costs = world.cost_array([tool for _, panel in items for tool in panel.tools],
                             [lq for lq, panel in items for _ in panel.tools])
    batch = fwd
    w_comp = np.zeros(batch.mask.shape)
    scale, cov_costs, owner = [], [], []
    lo = 0
    for i, ((lq, panel), dist) in enumerate(zip(items, fwd.dists)):
        row = costs[lo:lo + len(panel.tools)]
        lo += len(panel.tools)
        valid = ~np.isnan(row)
        c = np.where(valid, row, 0.0)
        total, m_valid = float(c[valid].sum()), int(valid.sum())
        w_comp[i, :len(c)][valid] = total - c[valid] - m_valid + 2.0
        weight = 1.0 / n_tasks if cfg.task_weights is None else \
            float(cfg.task_weights[lq.query.task])
        scale.append(weight * n_tasks)
        cov_costs.append(c[dist.mask])
        owner.append(np.full(int(dist.mask.sum()), i))
    scale = np.array(scale) / len(items)
    probs, scores, mask = batch.probs_t, batch.scores_t, batch.mask
    logp = dc.log_clamped(probs, cfg.eps)
    loss = dc.wsum(logp, np.where(mask, -w_comp, 0.0) * scale[:, None])
    loss = dc.add(loss, dc.wsum(dc.mul(probs, logp), mask * (cfg.lambda_h * scale)[:, None]))
    per_slot = cfg.lambda_r * scale / mask.sum(axis=1)
    loss = dc.add(loss, dc.wsum(dc.mul(scores, scores), mask * per_slot[:, None]))
    cov, costs, owner = batch.coverage_t, np.concatenate(cov_costs), np.concatenate(owner)
    weights = cfg.lambda_cov * scale[owner] / np.bincount(owner)[owner]
    n = cov.shape[0]
    w_s = np.bincount(batch.slot_pair, weights=-(1.0 - costs) * weights, minlength=n)
    w_1ms = np.bincount(batch.slot_pair, weights=-costs * weights, minlength=n)
    return dc.add(loss, dc.add(
        dc.wsum(dc.log_clamped(cov, cfg.eps), w_s),
        dc.wsum(dc.log_clamped(dc.affine(cov, -1.0, 1.0), cfg.eps), w_1ms)))


@pytest.mark.parametrize("task_weights", [None, [0.1, 0.2, 0.3, 0.4]])
def test_objective_inputs_equal_the_per_item_ones_bit_for_bit(small_world, task_weights):
    """On ragged panels of 2 to 12 slots over every task, the (B, M) panel
    costs, compsum weights, loss and every parameter gradient are the bits
    the per-item inputs gave, panels of 8 valid slots or more included."""
    from toolselect.anp_selector import SelectorModel, init_params
    from toolselect.objective import ObjectiveConfig, PanelCosts, batch_objective, compsum_weights
    from toolselect.simworld import sample_panel
    from toolselect.trainer import build_model, default_selector_config, panel_costs

    world = small_world
    scfg = dataclasses.replace(default_selector_config(world), hidden=16, dropout=0.0)
    params = init_params(scfg, 0)
    model = build_model(world, params, scfg)
    ocfg = ObjectiveConfig(task_weights=task_weights)
    rng = np.random.default_rng(5)
    wide = 0
    for lo in range(0, 96, 24):
        lqs = world.splits["train"][lo * 2:lo * 2 + 24]
        items = [(lq, sample_panel(world.populations[lq.query.task], lq.query,
                                   int(rng.integers(2, 13)), rng)) for lq in lqs]
        fwd = model.batch_forward(items, training=False)
        pc = panel_costs(world, items)
        weights = compsum_weights(pc)
        for i, (lq, panel) in enumerate(items):
            m = len(panel.tools)
            row = world.cost_array(list(panel.tools), [lq] * m)
            valid = ~np.isnan(row)
            c = np.where(valid, row, 0.0)
            assert pc.costs[i, :m].tobytes() == c.tobytes()
            assert (pc.valid[i, :m] == valid).all() and not pc.valid[i, m:].any()
            want = np.zeros(m)
            want[valid] = float(c[valid].sum()) - c[valid] - int(valid.sum()) + 2.0
            assert weights[i, :m].tobytes() == want.tobytes()
            assert compsum_weights(PanelCosts(c, valid)).tobytes() == want.tobytes()
            assert (fwd.mask[i, :m] == valid).all() and not fwd.mask[i, m:].any()
            assert fwd.tasks[i] == lq.query.task
            wide += int(valid.sum()) >= 8
        grads = []
        for loss_of in (lambda f: batch_objective(ocfg, f, panel_costs(world, items), 4),
                        lambda f: _objective_before(ocfg, world, items, f, 4)):
            dc.zero_grads(params.values())
            loss = loss_of(model.batch_forward(items, training=False))
            dc.backward(loss)
            grads.append((loss.data.tobytes(),
                          [params[k].grad.tobytes() for k in sorted(params)]))
        assert grads[0] == grads[1]
    assert wide, "no panel of 8 valid slots or more was drawn"


def test_a_steps_objective_inputs_hold_no_reference_cycle(small_world):
    """A step's forward, distributions read or not, is freed with its whole
    tape as soon as the step drops it, without the cycle collector."""
    import gc
    import weakref

    from toolselect.anp_selector import SelectorModel, init_params
    from toolselect.objective import ObjectiveConfig, batch_objective
    from toolselect.trainer import build_model, default_selector_config, panel_costs

    world = small_world
    scfg = dataclasses.replace(default_selector_config(world), hidden=16)
    model = build_model(world, init_params(scfg, 0), scfg)
    rng = np.random.default_rng(0)
    items = [(lq, sample_panel(world.populations[lq.query.task], lq.query, 6, rng))
             for lq in world.splits["train"][:8]]
    gc.disable()
    try:
        fwd = model.batch_forward(items, training=True, rng=rng)
        dc.backward(batch_objective(ObjectiveConfig(), fwd, panel_costs(world, items), 4))
        assert fwd.tasks[0] == items[0][0].query.task
        assert len(fwd.dists) == len(items)
        forward, probs = weakref.ref(fwd), weakref.ref(fwd.probs_t.data)
        del fwd
        assert forward() is None and probs() is None
    finally:
        gc.enable()
