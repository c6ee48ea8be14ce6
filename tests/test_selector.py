import dataclasses

import numpy as np
import pytest

from toolselect import diffcore as dc
from toolselect.anp_selector import (
    SelectorConfig,
    cross_attend,
    encode_query,
    encode_reference_set,
    init_params,
    param_shapes,
    project_sets,
    reference_arrays,
    score_rows,
    coverage_rows,
    self_attend_refs,
)
from toolselect.baselines import ToolSelectRouter
from toolselect.domain import Panel, validity
from toolselect.errors import (
    ConfigError,
    EmptyReferenceSetError,
    NoValidCandidateError,
    NoValidPanelError,
    NonFiniteScoreError,
    ShapeMismatchError,
)
from toolselect.kernels import gelu_fwd, softmax_rows
from toolselect.simworld import sample_panel
from toolselect.trainer import (
    build_model,
    default_selector_config,
    make_predict_fn,
)


@pytest.fixture(scope="module")
def setup(small_world):
    cfg = default_selector_config(small_world)
    params = init_params(cfg, 0)
    model = build_model(small_world, params, cfg)
    return small_world, cfg, params, model


# ------------------------------------------------------------- init_params

def test_init_deterministic():
    cfg = SelectorConfig()
    a = init_params(cfg, 3)
    b = init_params(cfg, 3)
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k].data, b[k].data)


def test_init_biases_zero():
    params = init_params(SelectorConfig(), 0)
    for name, p in params.items():
        if name.endswith("_b"):
            assert (p.data == 0).all()


def test_init_forward_finite(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][0]
    rng = np.random.default_rng(0)
    panel = sample_panel(world.populations[lq.query.task], lq.query, 4, rng)
    dist = model.select(lq.query, panel)
    assert np.isfinite(dist.scores[dist.mask]).all()


def test_the_selector_stays_float64(setup):
    """Routing stays float64: ``init_params`` gives float64 parameters and
    a forward on them is float64, although the tape keeps float32 inputs as
    float32. Training is covered in ``test_trainer.py``: ``fit`` computes
    on a float32 copy of float64 masters and returns the masters."""
    world, cfg, params, model = setup
    assert {p.data.dtype for p in params.values()} == {np.dtype(np.float64)}
    lq = world.splits["test"][0]
    panel = sample_panel(world.populations[lq.query.task], lq.query, 4,
                         np.random.default_rng(0))
    fwd = model.batch_forward([(lq, panel)])
    assert {fwd.scores_t.data.dtype, fwd.probs_t.data.dtype, fwd.coverage_t.data.dtype} \
        == {np.dtype(np.float64)}


def test_config_validation():
    with pytest.raises(ConfigError, match="selector config: dropout"):
        SelectorConfig(dropout=1.0)
    with pytest.raises(ConfigError, match="selector config: hidden"):
        SelectorConfig(hidden=0)


@pytest.mark.parametrize("name", ["d_x", "d_q", "d_xp", "d_qp", "d_u", "d", "d_k", "d_v",
                                  "hidden", "label_embed_dim", "rho_dim", "slot_width",
                                  "eta_dim"])
def test_every_selector_width_is_bounded(name):
    """Each width may reach ``MAX_WIDTH``; past it the config names the key
    (the configs are built, not trained)."""
    from toolselect.anp_selector import MAX_WIDTH
    assert getattr(SelectorConfig(**{name: MAX_WIDTH}), name) == MAX_WIDTH
    for value in (MAX_WIDTH + 1, 100_000_000_000):
        with pytest.raises(ConfigError, match=f"selector config: {name} must be at most "
                                              f"{MAX_WIDTH}, got {value}"):
            SelectorConfig(**{name: value})


# ------------------------------------------------------------ encode_query

def test_encode_query_zero_input_zero_output():
    cfg = SelectorConfig()
    params = init_params(cfg, 0)
    u = encode_query(params, cfg, np.zeros((1, cfg.d_x)), np.zeros((1, cfg.d_q)))
    np.testing.assert_allclose(u.data, 0.0, atol=1e-15)


def test_encode_query_linearity(rng):
    cfg = SelectorConfig()
    params = init_params(cfg, 0)
    x = rng.standard_normal((1, cfg.d_x))
    u1 = encode_query(params, cfg, x, np.zeros((1, cfg.d_q))).data
    u2 = encode_query(params, cfg, 2.0 * x, np.zeros((1, cfg.d_q))).data
    np.testing.assert_allclose(u2, 2.0 * u1, atol=1e-12)


def test_encode_query_matches_matrix_oracle(rng):
    cfg = SelectorConfig()
    p = init_params(cfg, 1)
    x = rng.standard_normal((3, cfg.d_x))
    q = rng.standard_normal((3, cfg.d_q))
    u = encode_query(p, cfg, x, q).data
    px = x @ p["phi_x_W"].data + p["phi_x_b"].data
    pq = q @ p["phi_q_W"].data + p["phi_q_b"].data
    expect = np.concatenate([px, pq], axis=1) @ p["fuse_W"].data + p["fuse_b"].data
    np.testing.assert_allclose(u, expect, atol=1e-12)


def test_encode_query_shape_error():
    cfg = SelectorConfig()
    p = init_params(cfg, 0)
    with pytest.raises(ShapeMismatchError):
        encode_query(p, cfg, np.zeros((1, cfg.d_x + 1)), np.zeros((1, cfg.d_q)))


# --------------------------------------------------- encode_reference_set

def test_reference_encoding_single_element(setup):
    world, cfg, params, model = setup
    tool = next(t for t in world.all_tools if 0 in t.supported_tasks)
    refs = tool.reference_sets[0][:1]
    t, keys = encode_reference_set(
        params, cfg, reference_arrays(cfg, world.task_spec(0).space, refs))
    assert t.data.shape == (1, cfg.d)
    assert keys.data.shape == (1, cfg.d_xp)


def test_reference_encoding_permutation_equivariant(setup):
    world, cfg, params, model = setup
    tool = next(t for t in world.all_tools if 0 in t.supported_tasks)
    refs = tool.reference_sets[0]
    perm = [3, 0, 2, 1, 7, 5, 4, 6]
    space = world.task_spec(0).space
    t_a, _ = encode_reference_set(params, cfg, reference_arrays(cfg, space, refs))
    t_b, _ = encode_reference_set(params, cfg,
                                  reference_arrays(cfg, space, [refs[i] for i in perm]))
    np.testing.assert_allclose(t_b.data, t_a.data[perm], atol=1e-12)


def test_reference_set_exchangeability_of_psi(setup):
    """Permuting reference elements leaves psi unchanged (within 1e-10)."""
    world, cfg, params, model = setup
    tool = next(t for t in world.all_tools if 0 in t.supported_tasks)
    space = world.task_spec(0).space
    lq = world.splits["test"][0]
    u = encode_query(params, cfg, lq.query.x[None, :], lq.query.q[None, :])
    refs = tool.reference_sets[0]
    perm = list(reversed(range(len(refs))))

    def psi_of(rs):
        t, keys = encode_reference_set(params, cfg, reference_arrays(cfg, space, rs))
        t_tilde = self_attend_refs(params, cfg, t, t.shape[0])
        return _cross_attend_one_set(params, cfg, u, keys, t_tilde).data

    np.testing.assert_allclose(psi_of([refs[i] for i in perm]), psi_of(refs),
                               atol=1e-10)


# -------------------------------------------------------- self/cross attend

def _cross_attend_one_set(params, cfg, u, keys, t_tilde):
    """``cross_attend`` of every query row over one set of all the keys."""
    k_sets, v_sets = project_sets(params, cfg, keys, t_tilde, keys.shape[0])
    return cross_attend(params, cfg, u, k_sets, v_sets, np.zeros(u.shape[0], dtype=np.intp))


def test_self_attend_single_row_is_value_projection(setup):
    world, cfg, params, model = setup
    t = dc.constant(np.random.default_rng(0).standard_normal((1, cfg.d)))
    out = self_attend_refs(params, cfg, t, t.shape[0])
    np.testing.assert_allclose(out.data, t.data @ params["self_v_W"].data,
                               atol=1e-12)


def test_self_attend_identical_rows_stay_identical(setup):
    world, cfg, params, model = setup
    row = np.random.default_rng(1).standard_normal(cfg.d)
    t = dc.constant(np.stack([row] * 4))
    out = self_attend_refs(params, cfg, t, t.shape[0]).data
    for i in range(1, 4):
        np.testing.assert_allclose(out[i], out[0], atol=1e-12)


def test_self_attend_matches_brute_force(setup):
    world, cfg, params, model = setup
    t = np.random.default_rng(2).standard_normal((2, cfg.d))
    out = self_attend_refs(params, cfg, dc.constant(t), t.shape[0]).data
    q = t @ params["self_q_W"].data
    k = t @ params["self_k_W"].data
    v = t @ params["self_v_W"].data
    w = softmax_rows(q @ k.T / np.sqrt(cfg.d))
    np.testing.assert_allclose(out, w @ v, atol=1e-10)


def test_cross_attend_single_key_ignores_query(setup):
    world, cfg, params, model = setup
    g = np.random.default_rng(3)
    keys = dc.constant(g.standard_normal((1, cfg.d_xp)))
    t_tilde = dc.constant(g.standard_normal((1, cfg.d)))
    u1 = dc.constant(g.standard_normal((1, cfg.d_u)))
    u2 = dc.constant(g.standard_normal((1, cfg.d_u)))
    a = _cross_attend_one_set(params, cfg, u1, keys, t_tilde).data
    b = _cross_attend_one_set(params, cfg, u2, keys, t_tilde).data
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(a, t_tilde.data @ params["cross_v_W"].data, atol=1e-12)


def test_cross_attend_duplicated_reference_invariance(setup):
    world, cfg, params, model = setup
    g = np.random.default_rng(4)
    keys = g.standard_normal((3, cfg.d_xp))
    tt = g.standard_normal((3, cfg.d))
    u = dc.constant(g.standard_normal((1, cfg.d_u)))
    a = _cross_attend_one_set(params, cfg, u, dc.constant(keys), dc.constant(tt)).data
    b = _cross_attend_one_set(params, cfg, u, dc.constant(np.tile(keys, (2, 1))),
                              dc.constant(np.tile(tt, (2, 1)))).data
    np.testing.assert_allclose(a, b, atol=1e-10)


# -------------------------------------------------------------- score head

def test_score_zero_output_layer_returns_bias(setup):
    world, cfg, params, model = setup
    p2 = {k: dc.Tensor(v.data.copy()) for k, v in params.items()}
    p2["head2_W"].data[:] = 0.0
    p2["head2_b"].data[:] = 1.25
    feats = dc.constant(np.random.default_rng(5).standard_normal(
        (3, cfg.d_u + cfg.d_v + cfg.slot_width + cfg.eta_dim)))
    out = score_rows(p2, cfg, feats)
    np.testing.assert_allclose(out.data, 1.25, atol=1e-12)


def test_score_matches_mlp_oracle(setup):
    world, cfg, params, model = setup
    feats = np.random.default_rng(6).standard_normal(
        (2, cfg.d_u + cfg.d_v + cfg.slot_width + cfg.eta_dim))
    out = score_rows(params, cfg, dc.constant(feats)).data
    h = gelu_fwd(feats @ params["head1_W"].data + params["head1_b"].data)
    expect = h @ params["head2_W"].data + params["head2_b"].data
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_coverage_zero_head_is_half(setup):
    world, cfg, params, model = setup
    p2 = {k: dc.Tensor(v.data.copy()) for k, v in params.items()}
    p2["cov2_W"].data[:] = 0.0
    feats = dc.constant(np.zeros((2, cfg.d_u + cfg.d_v)))
    np.testing.assert_allclose(coverage_rows(p2, cfg, feats).data, 0.5, atol=1e-12)


def test_coverage_in_open_interval(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][0]
    tool = next(t for t in world.populations[lq.query.task] if validity(t, lq.query))
    fwd = model.batch_forward([(lq, Panel(task=lq.query.task, tools=(tool, tool)))])
    s = float(fwd.coverage_t.data.reshape(()))
    assert 0.0 < s < 1.0


# ------------------------------------------------------------------ select

def _panel_for(world, lq, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return sample_panel(world.populations[lq.query.task], lq.query, m, rng)


def test_select_single_valid_tool(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][0]
    task = lq.query.task
    valid = next(t for t in world.populations[task])
    invalid = next(t for t in world.all_tools if task not in t.supported_tasks)
    panel = Panel(task=task, tools=(invalid, valid, invalid))
    dist = model.select(lq.query, panel)
    np.testing.assert_array_equal(dist.probs, [0.0, 1.0, 0.0])
    assert dist.selected == 1


def test_select_no_valid_tool_raises(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][0]
    invalid = [t for t in world.all_tools
               if lq.query.task not in t.supported_tasks]
    with pytest.raises(NoValidCandidateError):
        model.select(lq.query, Panel(task=lq.query.task, tools=tuple(invalid[:2])))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_raises_on_a_non_finite_score(setup, bad):
    world, cfg, params, model = setup
    lq = world.splits["test"][0]
    x = lq.query.x.copy()
    x[0] = bad
    # a uid of its own, so no cache holds outputs for it
    query = dataclasses.replace(lq.query, uid=10**9, x=x)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteScoreError, match=str(10**9)):
        model.select(query, _panel_for(world, lq))


def test_select_permutation_equivariance(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][1]
    panel = _panel_for(world, lq)
    dist = model.select(lq.query, panel)
    perm = [2, 0, 3, 1]
    panel_p = Panel(task=panel.task, tools=tuple(panel.tools[i] for i in perm))
    dist_p = model.select(lq.query, panel_p)
    np.testing.assert_allclose(dist_p.probs, dist.probs[perm], atol=1e-12)
    np.testing.assert_array_equal(dist_p.mask, dist.mask[perm])
    assert panel_p.tools[dist_p.selected] is panel.tools[dist.selected]


def test_select_deterministic(setup):
    world, cfg, params, model = setup
    lq = world.splits["test"][2]
    panel = _panel_for(world, lq)
    a = model.select(lq.query, panel)
    b = model.select(lq.query, panel)
    np.testing.assert_array_equal(a.probs, b.probs)
    assert a.selected == b.selected


def test_batch_forward_matches_single_select(setup):
    world, cfg, params, model = setup
    items = []
    for i, lq in enumerate(world.splits["test"][:8]):
        items.append((lq, _panel_for(world, lq, m=2 + i % 5, seed=i)))
    fwd = model.batch_forward(items, training=False)
    for (lq, panel), dist_b in zip(items, fwd.dists):
        dist_s = model.select(lq.query, panel)
        np.testing.assert_allclose(dist_b.probs, dist_s.probs, atol=1e-10)
        np.testing.assert_allclose(dist_b.scores, dist_s.scores, atol=1e-10)
        assert dist_b.selected == dist_s.selected == int(np.argmax(dist_b.probs))


def _tiny_config(world):
    return dataclasses.replace(default_selector_config(world),
                               d_xp=4, d_qp=4, d_u=6, d=4, d_k=4, d_v=4,
                               hidden=6, label_embed_dim=4, rho_dim=4, dropout=0.0)


def test_full_pipeline_grad_check(small_world):
    """End-to-end gradient of a small selection loss, dropout off."""
    world = small_world
    cfg = _tiny_config(world)
    params = init_params(cfg, 0)
    model = build_model(world, params, cfg)
    lq = world.splits["test"][0]
    panel = _panel_for(world, lq)
    plist = [params[k] for k in sorted(params)]

    def f(ps):
        fwd = model.batch_forward([(lq, panel)])
        w = np.where(fwd.mask, 0.7, 0.0)
        loss = dc.wsum(dc.log_clamped(fwd.probs_t), w)
        # score L2 breaks softmax shift invariance so every head parameter
        # carries a non-degenerate gradient for the finite-difference check
        sq = dc.mul(fwd.scores_t, fwd.scores_t)
        return dc.add(loss, dc.scale(dc.wsum(sq, fwd.mask.astype(float)), 0.01))

    assert dc.grad_check(f, plist) < 1e-4


def test_batch_objective_grad_check_over_batch_forward(small_world):
    """Gradient of the batched objective through one batched forward that
    spans several tasks, with dropout off."""
    from toolselect.objective import ObjectiveConfig, batch_objective
    from toolselect.trainer import panel_costs
    world = small_world
    cfg = _tiny_config(world)
    params = init_params(cfg, 0)
    model = build_model(world, params, cfg)
    by_task = world.split_by_task("train")
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(by_task[0][:2] + by_task[1][:1] + by_task[2][:1]
                                    + by_task[3][:1])]
    plist = [params[k] for k in sorted(params)]

    def f(ps):
        fwd = model.batch_forward(items, training=False)
        return batch_objective(ObjectiveConfig(), fwd, panel_costs(world, items), n_tasks=4)

    assert dc.grad_check(f, plist) < 1e-4


def test_batch_objective_rejects_panel_costs_of_other_items(setup):
    """Panel costs of other items than the forward's, or of another shape,
    raise ``ValueError``."""
    from toolselect.objective import ObjectiveConfig, PanelCosts, batch_objective
    from toolselect.trainer import panel_costs
    world, cfg, params, model = setup
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(world.splits["train"][::50])]
    fwd = model.batch_forward(items, training=False)
    pc = panel_costs(world, items)
    assert np.isfinite(batch_objective(ObjectiveConfig(), fwd, pc, n_tasks=4).item())
    rotated = panel_costs(world, items[1:] + items[:1])
    assert rotated.valid.shape == fwd.mask.shape and not (rotated.valid == fwd.mask).all()
    padded = PanelCosts(np.pad(pc.costs, ((0, 0), (0, 1))), np.pad(pc.valid, ((0, 0), (0, 1))))
    for wrong in (rotated, panel_costs(world, items[:-1]), panel_costs(world, items + items[:1]),
                  padded):
        with pytest.raises(ValueError, match="panel costs' slots are not the forward's"):
            batch_objective(ObjectiveConfig(), fwd, wrong, n_tasks=4)


def test_duplicate_tool_copies_tie_exactly_and_lowest_slot_wins(setup):
    world, cfg, params, model = setup
    for lq in world.splits["test"][:8]:
        valid = [t for t in world.populations[lq.query.task] if validity(t, lq.query)]
        if len(valid) < 2:
            continue
        dist = model.select(lq.query, Panel(task=lq.query.task, tools=tuple(valid)))
        best = valid[dist.selected]
        other = next(t for t in valid if t is not best)
        # scored as separate rows of one stack, copies in later slots could
        # differ from the first copy in the last bit
        panel = Panel(task=lq.query.task, tools=(other, best, other, best, best, other))
        dup = model.select(lq.query, panel)
        assert dup.probs[1] == dup.probs[3] == dup.probs[4]
        assert dup.probs[0] == dup.probs[2] == dup.probs[5]
        assert dup.selected == 1


def _population_sets(world):
    """The (tool, task) reference sets of a world's panels, in bank order."""
    return [(tool, task) for task, population in world.populations.items()
            for tool in population if task in tool.supported_tasks]


def test_reference_bank_builds_each_set_once_and_is_shared(setup, monkeypatch):
    """``build_model`` builds the constant arrays of every population set
    once; forwards, training or not, and ``detached`` views build none and
    share the bank."""
    from toolselect import anp_selector
    world, cfg, _, _ = setup
    calls = []
    original = anp_selector.encode_slot
    monkeypatch.setattr(anp_selector, "encode_slot",
                        lambda *a: calls.append(1) or original(*a))
    model = build_model(world, init_params(cfg, 1), cfg)
    built = len(calls)
    sets = _population_sets(world)
    assert built == sum(len(tool.reference_sets[task]) for tool, task in sets)
    assert list(model.bank.row_of) == [(tool.index, task) for tool, task in sets]
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(world.splits["test"][::10])]
    model.batch_forward(items, training=True, rng=np.random.default_rng(0))
    model.batch_forward(items, training=True, rng=np.random.default_rng(1))
    model.detached().batch_forward(items)
    assert len(calls) == built
    assert model.detached().bank is model.bank


def _tool_tasks(items):
    seen = {}
    for lq, panel in items:
        for tool in panel.tools:
            if validity(tool, lq.query):
                seen[(tool.index, lq.query.task)] = (tool, lq.query.task)
    return seen.values()


def test_a_panel_tool_without_a_bank_row_raises_naming_it(setup):
    """A valid panel tool whose (index, task) the bank lacks raises
    ``EmptyReferenceSetError`` naming it, from a trainable model and from
    a frozen one."""
    world, cfg, params, model = setup
    lq = world.splits["test"][5]
    task = lq.query.task
    valid = [t for t in world.populations[task] if validity(t, lq.query)]
    stranger = dataclasses.replace(valid[0], index=999, reference_sets={})
    assert validity(stranger, lq.query)
    for m in (model, model.detached()):
        with pytest.raises(EmptyReferenceSetError,
                           match=rf"tool {stranger.tool_id} \(index 999\).* task {task}\b"):
            m.select(lq.query, Panel(task=task, tools=(valid[1], stranger)))


@pytest.mark.parametrize("flaw", ["missing", "empty", "short", "long"])
def test_build_model_names_the_tool_and_task_of_an_unusable_population_set(setup, flaw):
    world, cfg, params, _ = setup
    task = 2
    population = list(world.populations[task])
    tool = population[-1]
    refs = tool.reference_sets[task]
    sets = {"missing": {}, "empty": {task: []}, "short": {task: refs[:3]},
            "long": {task: refs + refs[:1]}}[flaw]
    population[-1] = dataclasses.replace(tool, reference_sets=sets)
    broken = dataclasses.replace(world, populations={**world.populations, task: population})
    error = EmptyReferenceSetError if flaw in ("missing", "empty") else ShapeMismatchError
    with pytest.raises(error, match=rf"tool {tool.tool_id} \(index {tool.index}\).* task {task}\b"):
        build_model(broken, params, cfg)


def test_a_world_without_supporting_tools_builds_a_model_with_an_empty_bank(setup):
    """No population tool supports its task: the bank is empty, a frozen
    view stores no encodings, and panels fail as without a model."""
    world, cfg, params, _ = setup
    populations = {task: [dataclasses.replace(tool, supported_tasks=frozenset())
                          for tool in population]
                   for task, population in world.populations.items()}
    empty = dataclasses.replace(world, populations=populations)
    model = build_model(empty, params, cfg)
    view = model.detached()
    assert model.bank.row_of == {} and model.bank.sets.x.shape == (0, 0, cfg.d_x)
    assert view.store is None
    lq = empty.splits["test"][0]
    with pytest.raises(NoValidPanelError):
        sample_panel(empty.populations[lq.query.task], lq.query, 4, np.random.default_rng(0))
    tool = world.populations[lq.query.task][0]
    with pytest.raises(EmptyReferenceSetError, match=rf"tool {tool.tool_id} "):
        view.select(lq.query, Panel(task=lq.query.task, tools=(tool, tool)))


def test_unseen_tools_join_the_bank(setup):
    """The bank of a world with fresh tools holds their sets when the model
    is built, and routes them."""
    from toolselect.simworld import regenerate_test_tools
    world, cfg, params, _ = setup
    fresh = regenerate_test_tools(world, 0.5, seed=3)
    model = build_model(fresh, params, cfg)
    lq = fresh.splits["test"][0]
    new = [t for t in fresh.populations[lq.query.task]
           if t.index >= len(world.all_tools) and validity(t, lq.query)]
    old = [t for t in fresh.populations[lq.query.task]
           if t.index < len(world.all_tools) and validity(t, lq.query)]
    assert (new[0].index, lq.query.task) in model.bank.row_of
    dist = model.select(lq.query, Panel(task=lq.query.task, tools=(new[0], old[0])))
    assert np.isfinite(dist.scores).all() and dist.mask.all()


def test_cached_select_matches_uncached(setup):
    """A frozen view's ``select`` reads the reference encodings it stores and
    gives the trainable model's probabilities, which encodes them on the
    tape, bit for bit."""
    world, cfg, params, model = setup
    view = model.detached()
    assert model.store is None and view.store is not None
    for i, lq in enumerate(world.splits["test"][:12]):
        panel = _panel_for(world, lq, seed=i)
        cached, fresh = view.select(lq.query, panel), model.select(lq.query, panel)
        np.testing.assert_array_equal(cached.probs, fresh.probs)
        assert cached.selected == fresh.selected
    k, v = view.store
    assert k.dtype == v.dtype == np.float64


def test_a_model_built_from_frozen_tensors_keeps_its_encodings(setup):
    world, cfg, params, _ = setup
    frozen = {k: dc.Tensor(p.data, requires_grad=False) for k, p in params.items()}
    model = build_model(world, frozen, cfg)
    n, width = len(model.bank.row_of), model.bank.sets.width
    k, v = model.store
    assert k.shape == (n, width, cfg.d_k) and v.shape == (n, width, cfg.d_v)
    lq = world.splits["test"][0]
    model.select(lq.query, _panel_for(world, lq))
    assert model.store[0] is k and model.store[1] is v


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_frozen_models_store_equals_the_tape_encodings_bit_for_bit(setup, monkeypatch, dtype):
    """The keys and values a frozen model encodes for the whole bank at once
    are, row for row, the bits the trainable model encodes on the tape for
    the G sets of each batch, in first-appearance order."""
    from toolselect import anp_selector
    world, cfg, params, _ = setup
    params = dc.Params({k: p.data for k, p in params.items()}, dtype)
    model = build_model(world, params, cfg)
    view = model.detached()
    seen = []
    original = anp_selector.cross_attend
    monkeypatch.setattr(anp_selector, "cross_attend", lambda p, c, u, k, v, rows: seen.append(
        (k.data, v.data, np.asarray(rows))) or original(p, c, u, k, v, rows))
    for lo in range(0, 96, 24):
        items = [(lq, _panel_for(world, lq, seed=lo + i))
                 for i, lq in enumerate(world.splits["train"][lo:lo + 24])]
        model.batch_forward(items)
        view.batch_forward(items)
        (k_tape, v_tape, rows_tape), (k_store, v_store, rows_store) = seen[-2:]
        assert k_store is view.store[0] and v_store is view.store[1]
        assert len(k_tape) == len(np.unique(rows_tape)) < len(k_store)
        for got, want in ((k_store[rows_store], k_tape[rows_tape]),
                          (v_store[rows_store], v_tape[rows_tape])):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_a_frozen_view_is_a_snapshot_of_its_parents_parameters(small_world):
    """A ``detached`` view copies its parent's parameters: after the view
    has routed, scaling the parent's parameters in place, as ``AdamW`` does,
    leaves the view's probabilities unchanged bit for bit, while a new view
    sees the change."""
    cfg = default_selector_config(small_world)
    model = build_model(small_world, init_params(cfg, 1), cfg)
    view = model.detached()
    items = [(lq, _panel_for(small_world, lq, seed=i))
             for i, lq in enumerate(small_world.splits["test"][:64])]
    before = view.batch_forward(items).probs_t.data.tobytes()
    for p in model.params.values():
        p.data *= 1.5
    assert view.batch_forward(items).probs_t.data.tobytes() == before
    assert model.detached().batch_forward(items).probs_t.data.tobytes() != before


def _routes_like_fresh_routers(model, items):
    """Route each item through one long-lived ``ToolSelectRouter`` and then
    through a router of its own: the same slot and the same probability bits."""
    long_lived = ToolSelectRouter(model)
    for item in items:
        kept = long_lived.model.batch_forward([item])
        fresh = ToolSelectRouter(model).model.batch_forward([item])
        assert kept.selected == fresh.selected
        assert kept.probs_t.data.tobytes() == fresh.probs_t.data.tobytes()
    return long_lived


def test_serve_cache_matches_fresh_routers_on_unseen_tools(setup):
    from toolselect.simworld import regenerate_test_tools
    world, cfg, params, _ = setup
    fresh = regenerate_test_tools(world, 0.5, seed=3)
    model = build_model(fresh, params, cfg)
    items = [(lq, _panel_for(fresh, lq, m=6, seed=i))
             for i, lq in enumerate(fresh.splits["test"][::4])]
    _routes_like_fresh_routers(model, items)
    assert any(tool.index >= len(world.all_tools) for tool, _ in _tool_tasks(items))


def test_serve_cache_encodes_each_set_once(setup, monkeypatch):
    """A router's frozen view encodes every bank set in one
    ``encode_reference_set`` call when it is built, and none after."""
    from toolselect import anp_selector
    world, cfg, params, _ = setup
    model = build_model(world, params, cfg)
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(world.splits["test"][::6])]
    encoded = []
    original = anp_selector.encode_reference_set
    monkeypatch.setattr(anp_selector, "encode_reference_set",
                        lambda p, c, sets: encoded.append(len(sets.x)) or original(p, c, sets))
    router = ToolSelectRouter(model)
    assert encoded == [len(model.bank.row_of)]
    for item in items:
        router.model.batch_forward([item])
    router.route_batch(items, None)
    assert encoded == [len(model.bank.row_of)]


def test_a_frozen_view_encodes_each_set_once_across_select_route_and_evaluate(
        setup, monkeypatch):
    """``select``, ``route_batch`` and a chunked ``evaluate`` through one
    frozen view read the encodings it made of the whole bank in one
    ``encode_reference_set`` call."""
    from toolselect import anp_selector
    from toolselect.evalharness import CHUNK, eval_panels, evaluate
    world, cfg, params, _ = setup
    model = build_model(world, params, cfg)
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(world.splits["val"][::4])]
    test_items = list(zip(world.splits["test"], eval_panels(world, "test", 5, 2)))
    assert len(test_items) > CHUNK
    encoded = []
    original = anp_selector.encode_reference_set
    monkeypatch.setattr(anp_selector, "encode_reference_set",
                        lambda p, c, sets: encoded.append(len(sets.x)) or original(p, c, sets))
    router = ToolSelectRouter(model)
    for lq, panel in items[:5]:
        router.model.select(lq.query, panel)
    router.route_batch(items, None)
    evaluate(router, world, "test", 5, 2)
    assert encoded == [len(model.bank.row_of)]
    assert len(_tool_tasks(items + test_items)) <= len(model.bank.row_of)


def test_a_routing_forward_never_runs_the_coverage_head(setup, monkeypatch):
    """Routing reads no coverage, so the head never runs; a training step's
    objective reads it, and the head runs once."""
    from toolselect import anp_selector
    from toolselect.objective import ObjectiveConfig, batch_objective
    from toolselect.trainer import panel_costs
    world, cfg, params, model = setup
    calls = []
    original = anp_selector.coverage_rows
    monkeypatch.setattr(anp_selector, "coverage_rows",
                        lambda *a: calls.append(1) or original(*a))
    items = [(lq, _panel_for(world, lq, seed=i))
             for i, lq in enumerate(world.splits["train"][:6])]
    router = ToolSelectRouter(model)
    router.route_batch(items, None)
    router.model.select(items[0][0].query, items[0][1])
    assert len(model.batch_forward(items).dists) == len(items)
    assert calls == []
    fwd = model.batch_forward(items, training=True, rng=np.random.default_rng(0))
    dc.backward(batch_objective(ObjectiveConfig(), fwd, panel_costs(world, items), 4))
    assert fwd.coverage_t is fwd.coverage_t
    assert calls == [1]


def test_param_shapes_are_the_shapes_init_params_draws():
    for cfg in (SelectorConfig(), SelectorConfig(hidden=64, task_label_counts=(5, 0, 0, 4))):
        params = init_params(cfg, 3)
        assert list(params) == list(param_shapes(cfg))
        assert all(params[name].data.shape == shape for name, shape in param_shapes(cfg).items())
