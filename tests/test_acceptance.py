"""End-to-end acceptance suite. Each test pins one system-level guarantee:
gradient exactness, masked-softmax algebra, the surrogate identity, baseline
sanity, learned routing quality, unseen-tool generalization, determinism and
persistence, coverage-head utility, and early stopping."""

import dataclasses
import math
import time

import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.anp_selector import init_params
from toolselect.baselines import (
    GlobalBestRouter,
    KNNRouter,
    MLPIndexRouter,
    OracleRouter,
    RandomRouter,
    ToolSelectRouter,
)
from toolselect.checkpoint import load_checkpoint, save_checkpoint
from toolselect.datasets import export_dataset
from toolselect.domain import validity
from toolselect.errors import NoValidCandidateError
from toolselect.evalharness import compare, eval_panels, evaluate
from toolselect.objective import ObjectiveConfig, PanelCosts, batch_objective, compsum_weights
from toolselect.simworld import (
    WorldConfig,
    generate_world,
    regenerate_test_tools,
    sample_panel,
)
from toolselect.trainer import (
    TrainConfig,
    _validation_cost,
    build_model,
    default_selector_config,
    fit,
    panel_costs,
)

from per_query import compsum_loss, coverage_loss_value, params_to_float32

SMALL = dict(n_train=120, n_val=30, n_test=30, n_ref_pool=120,
             tools_per_task=4, ref_size=4)


@pytest.fixture(scope="module")
def default_world():
    return generate_world(WorldConfig(), 0)


@pytest.fixture(scope="module")
def trained(default_world):
    t0 = time.monotonic()
    result = fit(TrainConfig(), default_world)
    return result, time.monotonic() - t0


# 1. gradient correctness of the full batch objective ----------------------

def test_criterion1_full_objective_gradient():
    t0 = time.monotonic()
    wcfg = WorldConfig(n_train=40, n_val=10, n_test=10, n_ref_pool=60,
                       tools_per_task=4, ref_size=4, d_x=6, d_q=6,
                       n_tasks_total=3)
    world = generate_world(wcfg, 0)
    scfg = dataclasses.replace(
        default_selector_config(world),
        d_xp=4, d_qp=4, d_u=6, d=4, d_k=4, d_v=4, hidden=8,
        label_embed_dim=4, rho_dim=4, dropout=0.0)
    params = init_params(scfg, 0)
    model = build_model(world, params, scfg)
    rng = np.random.default_rng(7)
    items = []
    for lq in world.splits["train"][:4]:
        items.append((lq, sample_panel(world.populations[lq.query.task],
                                       lq.query, 4, rng)))
    plist = [params[k] for k in sorted(params)]

    def f(ps):
        fwd = model.batch_forward(items, training=False)
        return batch_objective(ObjectiveConfig(), fwd, panel_costs(world, items), n_tasks=3)

    err = dc.grad_check(f, plist, h=1e-5)
    elapsed = time.monotonic() - t0
    assert err < 1e-4, f"max relative gradient error {err}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# 2. masked-softmax algebra -------------------------------------------------

def test_criterion2_masked_softmax_suite():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        scores = rng.standard_normal(m) * rng.uniform(0.1, 50)
        mask = rng.random(m) > 0.4
        if not mask.any():
            mask[int(rng.integers(m))] = True
        probs = dc.masked_softmax(dc.constant(scores), mask).data
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert (probs[~mask] == 0.0).all()
        z = scores[mask] - scores[mask].max()
        e = np.exp(z)
        np.testing.assert_allclose(probs[mask], e / e.sum(), atol=1e-12)
        shift = float(rng.uniform(-100, 100))
        shifted = dc.masked_softmax(dc.constant(scores + shift), mask).data
        np.testing.assert_allclose(shifted, probs, atol=1e-12)
    with pytest.raises(NoValidCandidateError):
        dc.masked_softmax(dc.constant(np.zeros(4)), np.zeros(4, dtype=bool))


# 3. comp-sum surrogate identity and weight range ---------------------------

def test_criterion3_compsum_identity_and_weight_range():
    rng = np.random.default_rng(99)

    def softplus(z):
        return math.log1p(math.exp(-abs(z))) + max(z, 0.0)

    for _ in range(1000):
        c1, c2 = rng.random(2)
        r1, r2 = rng.standard_normal(2) * 3
        scores = dc.Tensor(np.array([r1, r2]), requires_grad=True)
        mask = np.array([True, True])

        class D:
            pass
        d = D()
        d.scores_t = scores
        d.probs_t = dc.masked_softmax(scores, mask)
        d.mask = mask
        pc = PanelCosts(costs=[c1, c2], valid=mask)
        general = compsum_loss(d, compsum_weights(pc)).item()
        binary = c2 * softplus(r2 - r1) + c1 * softplus(r1 - r2)
        assert abs(general - binary) <= 1e-9

    for _ in range(1000):
        m = int(rng.integers(2, 9))
        valid = rng.random(m) > 0.3
        if not valid.any():
            valid[0] = True
        pc = PanelCosts(costs=rng.random(m), valid=valid)
        w = compsum_weights(pc)[valid]
        m_valid = int(valid.sum())
        assert (w >= 2 - m_valid - 1e-12).all() and (w <= 1 + 1e-12).all()


# 4. baseline sanity on the default world -----------------------------------

def test_criterion4_baseline_sanity(default_world):
    t0 = time.monotonic()
    world = default_world
    panels = eval_panels(world, "test", 6, seed=0)
    routers = [RandomRouter(), GlobalBestRouter.fit(world),
               KNNRouter.fit(world), MLPIndexRouter.fit(world)]
    oracle = evaluate(OracleRouter(world), world, "test", 6, seed=0,
                      panels=panels)
    # oracle lower-bounds every individual tool's mean cost
    for task, pop in world.populations.items():
        recs = [lq for lq in world.splits["test"] if lq.query.task == task]
        for tool in pop:
            cs = [world.tool_cost(tool, lq) for lq in recs]
            cs = [c for c in cs if c is not None]
            if cs:
                assert oracle.mean_cost <= np.mean(cs) + 1e-12
    # ... and every router's
    for router in routers:
        rep = evaluate(router, world, "test", 6, seed=0, panels=panels)
        assert oracle.mean_cost <= rep.mean_cost + 1e-12

    # Random within 2 standard errors of the analytic valid-tool average
    expect, var = [], []
    for lq, panel in zip(world.splits["test"], panels):
        cs = np.array([world.tool_cost(t, lq) for t in panel.tools
                       if validity(t, lq.query)])
        expect.append(cs.mean())
        var.append((cs ** 2).mean() - cs.mean() ** 2)
    n = len(expect)
    se = math.sqrt(sum(var)) / n
    realized = evaluate(RandomRouter(), world, "test", 6, seed=0,
                        panels=panels).mean_cost
    assert abs(realized - np.mean(expect)) <= 2 * se + 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"baseline sanity took {elapsed:.1f}s"


# 5. end-to-end learning closes the Random-Oracle gap -----------------------

def test_criterion5_gap_closure(default_world, trained):
    result, train_seconds = trained
    t0 = time.monotonic()
    world = default_world
    model = build_model(world, result.params,
                        default_selector_config(world))
    reports = compare(
        [RandomRouter(), OracleRouter(world), GlobalBestRouter.fit(world),
         KNNRouter.fit(world), MLPIndexRouter.fit(world),
         ToolSelectRouter(model)],
        world, "test", 6, seed=0)
    ts = reports["ToolSelect"]
    assert ts.gap_closure is not None and ts.gap_closure >= 0.5, \
        f"gap closure {ts.gap_closure}"
    assert ts.mean_cost < reports["GlobalBest"].mean_cost
    assert ts.mean_cost < reports["MLPIndex"].mean_cost
    total = train_seconds + (time.monotonic() - t0)
    assert total < 600.0, f"train+eval took {total:.0f}s"


# 6. generalization to unseen tools -----------------------------------------

def test_criterion6_unseen_tools(default_world, trained):
    result, _ = trained
    fresh_world = regenerate_test_tools(default_world, 0.25, seed=1)
    model = build_model(fresh_world, result.params,
                        default_selector_config(fresh_world))
    # the index router is deliberately stale: fit on the original tools
    reports = compare(
        [RandomRouter(), OracleRouter(fresh_world),
         MLPIndexRouter.fit(default_world), ToolSelectRouter(model)],
        fresh_world, "test", 6, seed=0)
    ts = reports["ToolSelect"].gap_closure
    mlp = reports["MLPIndex"].gap_closure
    assert ts is not None and ts >= 0.3, f"gap closure {ts}"
    assert mlp is None or ts > mlp, f"ToolSelect {ts} vs MLPIndex {mlp}"


# 7. determinism and persistence ---------------------------------------------

def test_criterion7_determinism_and_persistence(tmp_path):
    cfg = TrainConfig(max_epochs=3, batch_size=8, panel_size=4, seed=5)
    w1 = generate_world(WorldConfig(**SMALL), 3)
    w2 = generate_world(WorldConfig(**SMALL), 3)
    a = fit(cfg, w1)
    b = fit(cfg, w2)
    assert a.log_lines() == b.log_lines()

    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a.params, p1)
    save_checkpoint(a.params, p2)
    assert p1.read_bytes() == p2.read_bytes()

    loaded = {k: dc.Tensor(v, requires_grad=False)
              for k, v in load_checkpoint(p1).items()}
    scfg = default_selector_config(w1)
    m32 = build_model(w1, params_to_float32(a.params), scfg)
    mrt = build_model(w1, loaded, scfg)
    panels = eval_panels(w1, "test", 4, seed=0)
    for lq, panel in list(zip(w1.splits["test"], panels))[:20]:
        np.testing.assert_array_equal(mrt.select(lq.query, panel).probs,
                                      m32.select(lq.query, panel).probs)

    d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
    export_dataset(w1, "test", str(d1))
    export_dataset(w1, "test", str(d2))
    assert d1.read_bytes() == d2.read_bytes()


# 8. coverage head beats the best constant predictor ------------------------

def _coverage_bce(world, params, seed):
    model = build_model(world, params, default_selector_config(world)).detached()
    panels = eval_panels(world, "test", 6, seed=seed)
    items = list(zip(world.splits["test"], panels))
    svals, costs = [], []
    for lo in range(0, len(items), 64):
        part = items[lo:lo + 64]
        fwd = model.batch_forward(part)
        pc = panel_costs(world, part)
        svals.extend(fwd.coverage_t.data[fwd.slot_pair].tolist())
        costs.extend(pc.costs[fwd.mask].tolist())
    svals = np.asarray(svals)
    costs = np.asarray(costs)
    bce = float(np.mean([coverage_loss_value(s, c) for s, c in zip(svals, costs)]))
    p = float(np.mean(1.0 - costs))
    constant = -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))
    return bce, constant


def test_criterion8_coverage_head_beats_constant():
    wcfg = WorldConfig(n_train=1500, n_val=200, n_test=500, n_ref_pool=800)
    tcfg = TrainConfig(lr=1e-3, max_epochs=40, patience=40)
    for seed in (0, 1, 2):
        world = generate_world(wcfg, seed)
        result = fit(dataclasses.replace(tcfg, seed=seed), world)
        bce, constant = _coverage_bce(world, result.params, seed)
        assert bce < constant, \
            f"seed {seed}: coverage BCE {bce:.4f} >= constant {constant:.4f}"


# 9. early stopping ----------------------------------------------------------

def test_criterion9_early_stopping_fires():
    world = generate_world(WorldConfig(**SMALL), 3)
    cfg = TrainConfig(max_epochs=30, patience=3, min_delta=0.02,
                      batch_size=8, panel_size=4, seed=5)
    result = fit(cfg, world)
    assert len(result.history) < cfg.max_epochs, "early stopping never fired"
    best_epoch = max(r.epoch for r in result.history if r.best)
    assert len(result.history) <= best_epoch + cfg.patience + 1

    # returned params reproduce the best validation cost exactly
    scfg = default_selector_config(world)
    model = build_model(world, result.params, scfg).detached()
    val_items = []
    for lq in world.splits["val"]:
        vr = np.random.default_rng([cfg.seed, 7919, lq.query.uid])
        val_items.append((lq, sample_panel(
            world.populations[lq.query.task], lq.query, cfg.panel_size, vr)))
    best_val = min(r.val_cost for r in result.history)
    assert _validation_cost(world, model, val_items) == best_val
