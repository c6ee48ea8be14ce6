import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import toolselect
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
from toolselect.errors import NoValidCandidateError
from toolselect.evalharness import eval_panels
from toolselect.trainer import AdamW, build_model, default_selector_config


# lightweight stand-ins for panel routing without a full simulated world

class _Tool:
    def __init__(self, index, supported=(0,)):
        self.index = index
        self.tool_id = f"tool-{index}"
        self.supported_tasks = frozenset(supported)


class _Query:
    def __init__(self, task=0, uid=0):
        self.task = task
        self.uid = uid


class _LQ:
    def __init__(self, task=0, uid=0):
        self.query = _Query(task, uid)


class _Panel:
    def __init__(self, tools):
        self.tools = tuple(tools)


class _CostWorld:
    def __init__(self, costs):
        self.costs = costs  # tool index -> cost

    def tool_cost(self, tool, lq):
        return self.costs[tool.index]

    def cost_array(self, tools, lqs, example=None):
        owners = lqs if example is None else [lqs[b] for b in example]
        return np.array([self.tool_cost(tool, lq) for tool, lq in zip(tools, owners)], dtype=float)


# ------------------------------------------------------------------ Random

def test_random_single_valid_slot():
    panel = _Panel([_Tool(0, supported=(1,)), _Tool(1), _Tool(2, supported=(1,))])
    r = RandomRouter()
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert r.route(_LQ(), panel, rng) == 1


def test_random_uniform_over_valid_slots():
    panel = _Panel([_Tool(0), _Tool(1, supported=(1,)), _Tool(2), _Tool(3)])
    r = RandomRouter()
    rng = np.random.default_rng(1)
    n = 30000
    counts = np.zeros(4)
    for _ in range(n):
        counts[r.route(_LQ(), panel, rng)] += 1
    assert counts[1] == 0
    p = 1.0 / 3
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts[[0, 2, 3]] - n * p) < 3 * sigma).all()


def test_random_no_valid_slot_raises():
    panel = _Panel([_Tool(0, supported=(1,))])
    with pytest.raises(NoValidCandidateError):
        RandomRouter().route(_LQ(), panel, np.random.default_rng(0))


# ------------------------------------------------------------------ Oracle

def test_oracle_picks_cost_minimizer():
    world = _CostWorld({0: 0.4, 1: 0.1, 2: 0.9})
    panel = _Panel([_Tool(0), _Tool(1), _Tool(2)])
    assert OracleRouter(world).route(_LQ(), panel, None) == 1


def test_oracle_tie_breaks_to_lowest_slot():
    world = _CostWorld({0: 0.3, 1: 0.3, 2: 0.5})
    panel = _Panel([_Tool(0), _Tool(1), _Tool(2)])
    assert OracleRouter(world).route(_LQ(), panel, None) == 0


def test_oracle_ignores_invalid_slots():
    world = _CostWorld({0: 0.0, 1: 0.6})
    panel = _Panel([_Tool(0, supported=(1,)), _Tool(1)])
    assert OracleRouter(world).route(_LQ(), panel, None) == 1


# -------------------------------------------------------------- GlobalBest

def test_global_best_ranks_by_fitted_mean():
    router = GlobalBestRouter({0: 0.2, 1: 0.5, 2: 0.1})
    panel = _Panel([_Tool(0), _Tool(1), _Tool(2)])
    assert router.route(_LQ(), panel, None) == 2


def test_global_best_unseen_tool_ranks_last():
    router = GlobalBestRouter({0: 0.9})
    panel = _Panel([_Tool(0), _Tool(5)])
    assert router.route(_LQ(), panel, None) == 0


def test_global_best_fit_matches_hand_average(small_world):
    router = GlobalBestRouter.fit(small_world)
    tool = small_world.all_tools[0]
    tasks = {t for t, pop in small_world.populations.items() if tool in pop}
    costs = [small_world.tool_cost(tool, lq)
             for lq in small_world.splits["train"] if lq.query.task in tasks]
    costs = [c for c in costs if c is not None]
    assert router.mean_cost[tool.index] == pytest.approx(np.mean(costs), abs=1e-12)


def test_global_best_empty_split_rejected(small_world):
    stripped = dataclasses.replace(small_world, splits={**small_world.splits, "train": []})
    with pytest.raises(ValueError):
        GlobalBestRouter.fit(stripped)


# --------------------------------------------------------------------- KNN

def test_knn_k1_recalls_training_queries(small_world):
    """With k=1 a training query retrieves itself: choice = true cost argmin."""
    router = KNNRouter.fit(small_world, k=1)
    rng = np.random.default_rng(3)
    oracle = OracleRouter(small_world)
    panels = eval_panels(small_world, "train", 4, seed=11)
    for lq, panel in list(zip(small_world.splits["train"], panels))[:60]:
        got = router.route(lq, panel, rng)
        best = oracle.route(lq, panel, rng)
        got_cost = small_world.tool_cost(panel.tools[got], lq)
        best_cost = small_world.tool_cost(panel.tools[best], lq)
        assert got_cost == pytest.approx(best_cost, abs=1e-12)


def test_knn_routes_only_valid(small_world):
    from toolselect.domain import validity
    router = KNNRouter.fit(small_world, k=5)
    rng = np.random.default_rng(4)
    panels = eval_panels(small_world, "test", 4, seed=12)
    for lq, panel in zip(small_world.splits["test"], panels):
        slot = router.route(lq, panel, rng)
        assert validity(panel.tools[slot], lq.query)


# ---------------------------------------------------------------- MLPIndex

def test_mlp_head_fits_separable_data():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((200, 6))
    labels = (feats[:, 0] > 0).astype(int)
    head = MLPIndexRouter._train_head(feats, labels, 2, hidden=32,
                                      lr=3e-3, iters=300, seed=0)
    router = MLPIndexRouter({0: head + ([10, 11],)})
    hits = 0
    for f, y in zip(feats, labels):
        logits, _ = router._logits(0, f)
        hits += int(np.argmax(logits) == y)
    assert hits / len(labels) >= 0.95


def test_mlp_head_draws_the_float64_xavier_weights_and_trains_in_float32(handed_dtypes):
    """The head's first weights are the float64 draws of the same generator
    calls, cast to float32; every gradient of its training and every trained
    array is float32, and so are the logits, from float64 features."""
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((50, 6))
    labels = rng.integers(0, 3, 50)
    draws = np.random.default_rng([7, 811])
    lim1, lim2 = np.sqrt(6.0 / (6 + 8)), np.sqrt(6.0 / (8 + 3))
    want_w1 = draws.uniform(-lim1, lim1, size=(6, 8)).astype(np.float32)
    want_w2 = draws.uniform(-lim2, lim2, size=(8, 3)).astype(np.float32)
    w1, b1, w2, b2 = MLPIndexRouter._train_head(feats, labels, 3, hidden=8,
                                                lr=3e-3, iters=0, seed=7)
    assert w1.tobytes() == want_w1.tobytes() and w2.tobytes() == want_w2.tobytes()
    assert not b1.any() and not b2.any()
    handed_dtypes.clear()
    head = MLPIndexRouter._train_head(feats, labels, 3, hidden=8, lr=3e-3, iters=5, seed=7)
    assert handed_dtypes == {np.dtype(np.float32)}
    assert [a.dtype for a in head] == [np.float32] * 4
    logits, _ = MLPIndexRouter({0: head + ([10, 11, 12],)})._logits(0, feats)
    assert logits.dtype == np.float32


def test_mlp_head_zeroes_its_gradients_before_each_backward(monkeypatch):
    """Each iteration's gradient is its own: the head's gradient buffer is
    zero when each backward starts."""
    trained, zeroed = [], []
    init, backward = AdamW.__init__, dc.backward

    def init_spy(self, params, *args, **kwargs):
        trained.append(params)
        init(self, params, *args, **kwargs)

    def backward_spy(root):
        zeroed.append(not trained[-1].grad.any())
        backward(root)
    monkeypatch.setattr(AdamW, "__init__", init_spy)
    monkeypatch.setattr(dc, "backward", backward_spy)
    rng = np.random.default_rng(0)
    MLPIndexRouter._train_head(rng.standard_normal((50, 6)), rng.integers(0, 3, 50), 3,
                               hidden=8, lr=3e-3, iters=4, seed=7)
    assert zeroed == [True] * 4


def test_mlp_fit_routes_only_valid(small_world):
    from toolselect.domain import validity
    router = MLPIndexRouter.fit(small_world, iters=50)
    for head in router.heads.values():
        assert [a.dtype for a in head[:4]] == [np.float32] * 4
    rng = np.random.default_rng(5)
    panels = eval_panels(small_world, "test", 4, seed=13)
    for lq, panel in zip(small_world.splits["test"], panels):
        slot = router.route(lq, panel, rng)
        assert validity(panel.tools[slot], lq.query)


# -------------------------------------------------------------- ToolSelect

def test_toolselect_router_valid_and_deterministic(small_world):
    from toolselect.domain import validity
    cfg = default_selector_config(small_world)
    model = build_model(small_world, init_params(cfg, 0), cfg)
    router = ToolSelectRouter(model)
    panels = eval_panels(small_world, "test", 4, seed=14)
    picks = []
    for lq, panel in list(zip(small_world.splits["test"], panels))[:20]:
        slot = router.route(lq, panel, None)
        assert validity(panel.tools[slot], lq.query)
        picks.append(slot)
    again = ToolSelectRouter(model)
    repeat = [again.route(lq, panel, None)
              for lq, panel in list(zip(small_world.splits["test"], panels))[:20]]
    assert picks == repeat


# ---------------------------------------------------------- cross-cutting

def test_oracle_lower_bounds_every_router(small_world):
    """Per query, the oracle's realized cost never exceeds any router's."""
    routers = [RandomRouter(), GlobalBestRouter.fit(small_world),
               KNNRouter.fit(small_world), MLPIndexRouter.fit(small_world, iters=50)]
    oracle = OracleRouter(small_world)
    panels = eval_panels(small_world, "test", 4, seed=15)
    rng = np.random.default_rng(6)
    for lq, panel in zip(small_world.splits["test"], panels):
        floor = small_world.tool_cost(panel.tools[oracle.route(lq, panel, rng)], lq)
        for r in routers:
            c = small_world.tool_cost(panel.tools[r.route(lq, panel, rng)], lq)
            assert c >= floor - 1e-12


def test_random_mean_within_2se_of_analytic(small_world):
    """Random routing matches the analytic mean over valid panel slots."""
    from toolselect.domain import validity
    panels = eval_panels(small_world, "test", 6, seed=16)
    expect = []
    var = []
    for lq, panel in zip(small_world.splits["test"], panels):
        cs = np.array([small_world.tool_cost(t, lq) for t in panel.tools
                       if validity(t, lq.query)])
        expect.append(cs.mean())
        var.append((cs ** 2).mean() - cs.mean() ** 2)
    n = len(expect)
    se = np.sqrt(np.sum(var)) / n
    rng = np.random.default_rng(7)
    r = RandomRouter()
    realized = np.mean([small_world.tool_cost(panel.tools[r.route(lq, panel, rng)], lq)
                        for lq, panel in zip(small_world.splits["test"], panels)])
    assert abs(realized - np.mean(expect)) <= 2 * se + 1e-12


# ------------------------------------------------------------ route_batch

def test_route_batch_equals_routing_one_at_a_time(small_world):
    """Every router's route_batch gives the slots that route gives item by
    item; Random draws the same numbers from two RNGs with the same seed."""
    cfg = default_selector_config(small_world)
    model = build_model(small_world, init_params(cfg, 0), cfg)
    panels = eval_panels(small_world, "test", 6, seed=17)
    items = list(zip(small_world.splits["test"], panels))
    makers = [RandomRouter, lambda: OracleRouter(small_world),
              lambda: GlobalBestRouter.fit(small_world), lambda: KNNRouter.fit(small_world),
              lambda: MLPIndexRouter.fit(small_world, iters=50),
              lambda: ToolSelectRouter(model)]
    for make in makers:
        one, batched = make(), make()
        rng_one, rng_batched = np.random.default_rng(8), np.random.default_rng(8)
        singles = [one.route(lq, panel, rng_one) for lq, panel in items]
        chunks = []
        for lo in range(0, len(items), 50):
            chunks += batched.route_batch(items[lo:lo + 50], rng_batched)
        assert chunks == singles, one.name
        assert all(isinstance(slot, int) for slot in chunks)


def test_oracle_route_equals_route_batch_with_ties_and_repeated_tools(small_world):
    """Over every query of a split, with panels that repeat tools (equal
    costs, so ties) and hold invalid tools, Oracle's one-item ``route`` (the
    one-row read) and its ``route_batch`` over chunks of every task (the
    array read) both pick the slot ``argmin`` picks over the costs
    ``tool_cost`` gives, ties to the lowest slot, each on a fresh world."""
    from toolselect.domain import Panel
    w = small_world
    rng = np.random.default_rng(4)
    items = []
    for lq in w.splits["val"] + w.splits["test"]:
        pop = w.populations[lq.query.task]
        picks = rng.integers(0, len(pop), size=3)
        invalid = next(t for t in w.all_tools if lq.query.task not in t.supported_tasks)
        tools = [pop[i] for i in picks] + [invalid, pop[picks[0]], pop[picks[1]]]
        if not any(lq.query.task in t.supported_tasks for t in tools):
            tools.append(next(t for t in pop if lq.query.task in t.supported_tasks))
        items.append((lq, Panel(task=lq.query.task, tools=tuple(tools))))
    order = rng.permutation(len(items))
    items = [items[i] for i in order]   # chunks mix tasks
    reference = dataclasses.replace(w)
    want = []
    for lq, panel in items:
        costs = [reference.tool_cost(tool, lq) for tool in panel.tools]
        want.append(int(np.argmin([np.inf if c is None else c for c in costs])))
    one = OracleRouter(dataclasses.replace(w))
    batched = OracleRouter(dataclasses.replace(w))
    assert [one.route(lq, panel, None) for lq, panel in items] == want
    chunks = []
    for lo in range(0, len(items), 23):
        chunks += batched.route_batch(items[lo:lo + 23], None)
    assert chunks == want
    # a repeated tool ties with itself, and the earliest of its slots wins
    repeated = 0
    for (_, panel), slot in zip(items, want):
        same = [j for j, tool in enumerate(panel.tools) if tool is panel.tools[slot]]
        assert same[0] == slot
        repeated += len(same) > 1
    assert repeated > 50


def test_oracle_route_batch_raises_on_a_panel_without_valid_slot():
    panel = _Panel([_Tool(0, supported=(1,)), _Tool(1, supported=(1,))])
    with pytest.raises(NoValidCandidateError):
        OracleRouter(_CostWorld({0: 0.0, 1: 0.0})).route_batch([(_LQ(), panel)], None)


# ------------------------------------------- baseline chunk paths

def _one_by_one_reference(router, lq, panel):
    """The per-query ranking the chunk paths replaced: ``route`` before it
    became the one-item ``route_batch``."""
    import math

    from toolselect.domain import validity
    slots = [j for j, tool in enumerate(panel.tools) if validity(tool, lq.query)]
    feat = np.concatenate([lq.query.x, lq.query.q])
    if isinstance(router, GlobalBestRouter):
        ranks = [router.mean_cost.get(panel.tools[j].index, math.inf) for j in slots]
        return int(slots[int(np.argmin(ranks))])
    if isinstance(router, KNNRouter):
        bank = router.banks.get(lq.query.task)
        if bank is None:
            return slots[0]
        tree, rows, costs = bank
        _, nbrs = tree.query(feat, k=min(router.k, costs.shape[1]))
        nbrs = np.atleast_1d(nbrs)
        ranks = []
        for j in slots:
            index = panel.tools[j].index
            row = rows[index] if index < rows.size - 1 else -1
            ranks.append(math.inf if row < 0 else float(np.nanmean(costs[row][nbrs])))
        return int(slots[int(np.argmin(ranks))])
    if lq.query.task not in router.heads:
        return slots[0]
    logits, tool_ids = router._logits(lq.query.task, feat)
    pos = {tid: i for i, tid in enumerate(tool_ids)}
    ranks = [-math.inf if pos.get(panel.tools[j].index) is None
             else float(logits[pos[panel.tools[j].index]]) for j in slots]
    return int(slots[int(np.argmax(ranks))])


@pytest.fixture(scope="module")
def fitted_baselines(small_world):
    return [GlobalBestRouter.fit(small_world), KNNRouter.fit(small_world),
            MLPIndexRouter.fit(small_world, iters=50)]


def test_route_batch_equals_route_with_unseen_tools(small_world, fitted_baselines):
    """On a world with fresh tools past the fitted index range, chunks of 1
    and 64 route as ``route`` does and as the one-by-one ranking did."""
    from toolselect.domain import validity
    from toolselect.simworld import regenerate_test_tools
    world = regenerate_test_tools(small_world, 0.5, seed=3)
    fitted_max = max(tool.index for tool in small_world.all_tools)
    panels = eval_panels(world, "test", 6, seed=18)
    items = list(zip(world.splits["test"], panels))
    assert any(tool.index > fitted_max and validity(tool, lq.query)
               for lq, panel in items for tool in panel.tools)
    for router in fitted_baselines:
        reference = [_one_by_one_reference(router, lq, panel) for lq, panel in items]
        assert [router.route(lq, panel, None) for lq, panel in items] == reference, router.name
        for size in (1, 64):
            chunks = []
            for lo in range(0, len(items), size):
                chunks += router.route_batch(items[lo:lo + size], None)
            assert chunks == reference, (router.name, size)


def test_chunk_of_only_unseen_valid_slots_routes_to_the_first_valid(small_world,
                                                                     fitted_baselines):
    from toolselect.domain import Panel
    from toolselect.simworld import regenerate_test_tools
    world = regenerate_test_tools(small_world, 1.0, seed=4)
    fitted_max = max(tool.index for tool in small_world.all_tools)
    items, first_valid = [], []
    for lq in world.splits["test"][::10]:
        task = lq.query.task
        unseen = [t for t in world.populations[task] if task in t.supported_tasks]
        invalid = [t for t in small_world.all_tools if task not in t.supported_tasks]
        assert unseen and invalid and all(t.index > fitted_max for t in unseen)
        tools = (invalid[0], unseen[-1], invalid[-1], unseen[0])
        items.append((lq, Panel(task=task, tools=tools)))
        first_valid.append(1)
    for router in fitted_baselines:
        assert router.route_batch(items, None) == first_valid, router.name


def test_baseline_route_batch_raises_on_a_panel_without_valid_slot(fitted_baselines):
    panel = _Panel([_Tool(0, supported=(1,)), _Tool(1, supported=(1,))])
    for router in fitted_baselines:
        with pytest.raises(NoValidCandidateError):
            router.route_batch([(_LQ(), panel)], None)


def test_hand_built_global_best_routes_ragged_chunks():
    router = GlobalBestRouter({0: 0.2, 1: 0.5, 2: 0.1})
    items = [(_LQ(), _Panel([_Tool(0), _Tool(1), _Tool(2)])),
             (_LQ(), _Panel([_Tool(1), _Tool(7)])),
             (_LQ(), _Panel([_Tool(2, supported=(1,)), _Tool(9), _Tool(1), _Tool(0)])),
             (_LQ(), _Panel([_Tool(8), _Tool(9)]))]
    assert router.route_batch(items, None) == [2, 0, 3, 0]
    assert [router.route(lq, panel, None) for lq, panel in items] == [2, 0, 3, 0]


def test_hand_built_mlp_index_router_routes():
    from toolselect.domain import LabeledQuery, Query
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((200, 6))
    labels = (feats[:, 0] > 0).astype(int)
    head = MLPIndexRouter._train_head(feats, labels, 2, hidden=32,
                                      lr=3e-3, iters=100, seed=0)
    router = MLPIndexRouter({0: head + ([10, 11],)})
    panel = _Panel([_Tool(12), _Tool(11), _Tool(10)])
    items = [(LabeledQuery(Query(uid=i, task=0, x=f[:4], q=f[4:]), None), panel)
             for i, f in enumerate(feats[:40])]
    want = [2 if np.argmax(router._logits(0, f)[0]) == 0 else 1 for f in feats[:40]]
    assert router.route_batch(items, None) == want
    assert [router.route(lq, p, None) for lq, p in items] == want
    other_task = LabeledQuery(Query(uid=99, task=1, x=feats[0, :4], q=feats[0, 4:]), None)
    assert router.route(other_task, _Panel([_Tool(10, supported=(0,)), _Tool(11, supported=(1,))]),
                        None) == 1


def test_importing_the_package_does_not_load_scipy_spatial():
    """``cKDTree`` is imported by ``KNNRouter.fit``, so the other commands
    do not pay for loading ``scipy.spatial``."""
    src = os.path.dirname(os.path.dirname(toolselect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, toolselect; print('scipy.spatial' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False", out.stderr
