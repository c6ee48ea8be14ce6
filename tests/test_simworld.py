import dataclasses
import hashlib
import re

import numpy as np
import pytest

from toolselect.domain import CATEGORICAL_FAMILIES, TaskFamily, cost, null_prediction, validity
from toolselect.errors import ConfigError, NoValidPanelError
from toolselect.simworld import (
    BATCH_SEEDING_MIN,
    MAX_SIZES,
    PREDICTION_KEY,
    WorldConfig,
    competence,
    generate_world,
    keyed_rng,
    regenerate_test_tools,
    sample_panel,
    sample_query,
    tool_predict,
    world_digest,
)

from per_query import box_from_x


def _pair_rng(world, tool, query):
    """The prediction RNG of a (tool, query) pair."""
    return keyed_rng(world.seed, PREDICTION_KEY, tool.index, query.uid)

SMALL = dict(n_train=200, n_val=40, n_test=120, n_ref_pool=200,
             tools_per_task=6, ref_size=8)


# --------------------------------------------------------- generate_world

def test_world_digest_deterministic():
    cfg = WorldConfig(**SMALL)
    assert world_digest(generate_world(cfg, 5)) == world_digest(generate_world(cfg, 5))


def test_world_digest_changes_with_seed():
    cfg = WorldConfig(**SMALL)
    assert world_digest(generate_world(cfg, 5)) != world_digest(generate_world(cfg, 6))


def test_tool_count():
    w = generate_world(WorldConfig(**SMALL), 0)
    assert len(w.all_tools) == 6 * 4


def test_full_support_probability():
    cfg = WorldConfig(**{**SMALL, "support_prob": 1.0})
    w = generate_world(cfg, 0)
    for tool in w.all_tools:
        assert tool.supported_tasks == frozenset(range(4))


def test_every_tool_supports_at_least_one_task(small_world):
    for tool in small_world.all_tools:
        assert len(tool.supported_tasks) >= 1


def test_split_sizes(small_world):
    assert len(small_world.splits["train"]) == 200
    assert len(small_world.splits["val"]) == 40
    assert len(small_world.splits["test"]) == 120


@pytest.mark.parametrize("bad, message", [
    ({"d_x": 0}, "d_x must be at least 1"),
    ({"mcq_options": 0}, "mcq_options must be at least 1"),
    ({"labels_per_task": -1}, "labels_per_task must be at least 1"),
    ({"tools_per_task": 0}, "tools_per_task must be at least 1"),
    ({"n_val": 0}, "n_val must be at least 1"),
    ({"ref_size": 0}, "ref_size must be at least 1"),
    ({"n_tasks_total": -1}, "n_tasks_total"),
    ({"d_q": 5}, "d_q (5) must exceed the task count (4)"),
    ({"n_findings": 1}, "n_findings * n_locations must be at least 5"),
    ({"n_locations": 0}, "n_locations must be at least 1"),
    ({"n_findings": 2, "n_locations": 2}, "n_findings * n_locations must be at least 5"),
    ({"feature_noise": float("nan")}, "feature_noise must be finite"),
    ({"hint_noise": float("inf")}, "hint_noise must be finite"),
    ({"feature_noise": -0.1}, "feature_noise must be non-negative"),
    ({"sharpness": float("nan")}, "sharpness must be finite"),
    ({"support_prob": 0.0}, "support_prob must lie in (0, 1]"),
    ({"support_prob": 1.5}, "support_prob must lie in (0, 1]"),
    ({"n_ref_pool": 3}, "n_ref_pool (3) must be at least the task count (4)"),
    ({"n_findings": 10 ** 9}, "n_findings * n_locations must be at most 1024, got 4000000000"),
    ({"n_findings": 257}, "n_findings * n_locations must be at most 1024, got 1028"),
    ({"n_train": 10 ** 20}, f"n_train must be at most 200000, got {10 ** 20}"),
    ({"n_val": 200_001}, "n_val must be at most 200000, got 200001"),
    ({"n_test": 10 ** 9}, "n_test must be at most 200000, got 1000000000"),
    ({"n_ref_pool": 200_001}, "n_ref_pool must be at most 200000, got 200001"),
    ({"tools_per_task": 100_000_000}, "tools_per_task must be at most 1024, got 100000000"),
    ({"labels_per_task": 10 ** 20}, f"labels_per_task must be at most 256, got {10 ** 20}"),
    ({"mcq_options": 257}, "mcq_options must be at most 256, got 257"),
])
def test_world_config_rejects_unusable_values(bad, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        WorldConfig(**{**SMALL, **bad})


def test_world_config_accepts_the_size_bounds():
    """Each size may reach its bound (the config is built, not generated)."""
    cfg = WorldConfig(**{**SMALL, **MAX_SIZES})
    assert all(getattr(cfg, name) == bound for name, bound in MAX_SIZES.items())


def test_world_config_accepts_the_smallest_usable_values():
    cfg = WorldConfig(d_x=1, d_q=6, tools_per_task=1, labels_per_task=1, mcq_options=1,
                      n_findings=5, n_locations=1, feature_noise=0.0, hint_noise=0.0,
                      support_prob=1.0, n_train=1, n_val=1, n_test=1, n_ref_pool=4, ref_size=1)
    w = generate_world(cfg, 0)
    assert len(w.splits["train"]) == 1 and len(w.all_tools) == 4


# ------------------------------------------------------------ sample_query

def test_query_dimensions(small_world, rng):
    for t in range(4):
        lq = sample_query(small_world, t, rng, uid=10 ** 6)
        assert lq.query.x.shape == (small_world.cfg.d_x,)
        assert lq.query.q.shape == (small_world.cfg.d_q,)
        assert lq.gt.family is small_world.task_spec(t).family


def test_query_rng_determinism(small_world):
    a = sample_query(small_world, 0, np.random.default_rng(9), uid=1)
    b = sample_query(small_world, 0, np.random.default_rng(9), uid=1)
    np.testing.assert_array_equal(a.query.x, b.query.x)
    assert a.gt == b.gt


def test_classification_label_frequencies_within_3_sigma(small_world, rng):
    n = 10000
    k = len(small_world.task_spec(0).space.labels)
    counts = np.zeros(k)
    for i in range(n):
        counts[sample_query(small_world, 0, rng, uid=0).gt.label] += 1
    p = 1.0 / k
    sigma = np.sqrt(n * p * (1 - p))
    assert (np.abs(counts - n * p) < 3 * sigma).all()


# ------------------------------------------------------------ tool_predict

def test_competence_at_centroid_is_pmax(small_world):
    tool = small_world.all_tools[0]
    task = sorted(tool.supported_tasks)[0]
    kappa = competence(small_world, tool, task, tool.mu)
    assert abs(kappa - tool.pmax) < 1e-12


def test_unsupported_task_gives_null(small_world, rng):
    tool = next(t for t in small_world.all_tools
                if len(t.supported_tasks) < 4)
    task = next(t for t in range(4) if t not in tool.supported_tasks)
    lq = sample_query(small_world, task, rng, uid=0)
    pred = tool_predict(small_world, tool, lq.query, rng)
    assert pred.is_null


def test_categorical_accuracy_tracks_competence(small_world, rng):
    """Monte-Carlo: empirical accuracy at a fixed x within 3 sigma of kappa."""
    w = small_world
    spec = w.task_spec(0)
    tool = next(t for t in w.populations[0] if 0 in t.supported_tasks
                and t.tool_label_count[0] == len(spec.space.labels))
    lq = sample_query(w, 0, rng, uid=0)
    kappa = competence(w, tool, 0, lq.query.x)
    n = 4000
    hits = 0
    for _ in range(n):
        pred = tool_predict(w, tool, lq.query, rng)
        hits += int(np.argmax(pred.probs) == lq.gt.label)
    sigma = np.sqrt(n * kappa * (1 - kappa))
    assert abs(hits - n * kappa) < 3 * sigma


def test_grounding_iou_tracks_competence(small_world, rng):
    w = small_world
    tool = next(t for t in w.populations[1] if 1 in t.supported_tasks)
    ious = []
    kappas = []
    for i in range(400):
        lq = sample_query(w, 1, rng, uid=0)
        kappas.append(competence(w, tool, 1, lq.query.x))
        pred = tool_predict(w, tool, lq.query, rng)
        from toolselect.domain import iou
        ious.append(iou(pred.box, lq.gt.box))
    assert abs(np.mean(ious) - np.mean(kappas)) < 0.05


def test_prediction_cache_is_deterministic(small_world):
    lq = small_world.splits["test"][0]
    tool = next(t for t in small_world.populations[lq.query.task])
    a = small_world.tool_prediction(tool, lq.query)
    b = dataclasses.replace(small_world).tool_prediction(tool, lq.query)  # empty tables
    if a.probs is not None:
        np.testing.assert_array_equal(a.probs, b.probs)
    assert a.box == b.box and a.pairs == b.pairs


# ---------------------------------------------------------- reference sets

def test_reference_pool_disjoint_from_splits(small_world):
    split_uids = {lq.query.uid for s in ("train", "val", "test")
                  for lq in small_world.splits[s]}
    pool_uids = {lq.query.uid for pool in small_world.ref_pools.values()
                 for lq in pool}
    assert not (split_uids & pool_uids)


def test_reference_set_sizes(small_world):
    for tool in small_world.all_tools:
        for task in tool.supported_tasks:
            assert len(tool.reference_sets[task]) == small_world.cfg.ref_size


def test_reference_accuracy_correlates_with_competence(small_world):
    """Per-tool reference accuracy vs mean competence: Pearson r > 0.5."""
    w = small_world
    accs, kaps = [], []
    for task in (0, 3):  # categorical tasks
        spec = w.task_spec(task)
        for tool in w.populations[task]:
            if task not in tool.supported_tasks:
                continue
            refs = tool.reference_sets[task]
            hit = 0
            kap = 0.0
            for x, gt, pred in refs:
                truth = gt.label if spec.family is TaskFamily.CLASSIFICATION else gt.option
                hit += int(np.argmax(pred.probs) == truth)
                kap += competence(w, tool, task, x)
            accs.append(hit / len(refs))
            kaps.append(kap / len(refs))
    r = np.corrcoef(accs, kaps)[0, 1]
    assert r > 0.5, f"Pearson r={r}"


# ------------------------------------------------------------ sample_panel

def test_panel_single_tool_population(small_world, rng):
    tool = small_world.populations[0][0]
    task = sorted(tool.supported_tasks)[0]
    lq = sample_query(small_world, task, rng, uid=0)
    panel = sample_panel([tool], lq.query, 2, rng)
    assert panel.tools == (tool, tool)


def test_panel_requires_valid_member(small_world, rng):
    lq = sample_query(small_world, 0, rng, uid=0)
    invalid = [t for t in small_world.all_tools if 0 not in t.supported_tasks]
    with pytest.raises(NoValidPanelError):
        sample_panel(invalid[:3], lq.query, 4, rng)


def test_panel_always_contains_valid_tool(small_world, rng):
    for lq in small_world.splits["test"][:50]:
        panel = sample_panel(small_world.populations[lq.query.task],
                             lq.query, 4, rng)
        assert any(validity(t, lq.query) for t in panel.tools)


# -------------------------------------------------- complementarity & regen

def test_no_single_tool_dominates(small_world):
    """The per-query best tool varies: no tool is optimal on > 60% of queries."""
    w = small_world
    wins = {}
    total = 0
    for lq in w.splits["test"]:
        best, best_c = None, None
        for tool in w.populations[lq.query.task]:
            c = w.tool_cost(tool, lq)
            if c is not None and (best_c is None or c < best_c):
                best, best_c = tool.index, c
        wins[best] = wins.get(best, 0) + 1
        total += 1
    assert max(wins.values()) / total < 0.60


def test_regenerate_replaces_requested_fraction(small_world):
    w2 = regenerate_test_tools(small_world, 0.5, seed=7)
    orig = {t.index for t in small_world.all_tools}
    fresh = [t for t in w2.all_tools if t.index not in orig]
    assert len(fresh) == 12  # 50% of 24
    for tool in fresh:
        for task in tool.supported_tasks:
            assert len(tool.reference_sets[task]) == small_world.cfg.ref_size


def test_regenerate_preserves_surviving_tool_predictions(small_world):
    w2 = regenerate_test_tools(small_world, 0.5, seed=7)
    orig = {t.index for t in small_world.all_tools}
    survivor = next(t for t in w2.all_tools if t.index in orig)
    task = sorted(survivor.supported_tasks)[0]
    lq = next(l for l in small_world.splits["test"] if l.query.task == task)
    a = small_world.tool_prediction(survivor, lq.query)
    b = w2.tool_prediction(survivor, lq.query)
    if a.probs is not None:
        np.testing.assert_array_equal(a.probs, b.probs)
    assert a.box == b.box and a.pairs == b.pairs


def test_three_task_world():
    cfg = WorldConfig(**{**SMALL, "n_tasks_total": 3})
    w = generate_world(cfg, 2)
    assert len(w.tasks) == 3
    assert len(w.all_tools) == 6 * 3


# ------------------------------------------------------- batched lookups

def _costs(world, tools, lqs):
    """``cost_array`` as a list, None where the tool is invalid."""
    return [None if c != c else c for c in world.cost_array(tools, lqs).tolist()]


def _predictions(world, tools, queries):
    """Aligned predictions of ``tools[i]`` on ``queries[i]``, built from the
    outputs ``tool_outcomes`` reads."""
    from toolselect.simworld import _prediction
    out = [None] * len(tools)
    for group in world.tool_outcomes(tools, queries):
        spec = world.task_spec(group.task)
        for n, ok, row in zip(group.positions.tolist(), group.valid.tolist(), group.outputs):
            out[n] = _prediction(spec, row) if ok else null_prediction(spec.space)
    return out


def _prediction_bytes(pred):
    """Every field of an aligned prediction, bit for bit."""
    probs = b"" if pred.probs is None else pred.probs.tobytes()
    return repr((pred.family, pred.is_null, pred.box, sorted(pred.pairs))).encode() + probs


def test_batched_lookups_match_per_pair_tool_predict(small_world):
    """tool_outcomes and cost_array over mixed-task batches with duplicate
    pairs equal tool_predict called per pair with a fresh keyed RNG, on every
    (tool, query) pair of the splits and the reference pools."""
    w = small_world
    lqs = [lq for split in ("train", "val", "test") for lq in w.splits[split]]
    lqs += [lq for task in sorted(w.ref_pools) for lq in w.ref_pools[task]]
    pairs = [(tool, lq) for lq in lqs for tool in w.all_tools]
    order = np.random.default_rng(0).permutation(len(pairs))
    order = np.concatenate([order, order[:500]])  # duplicates, also across calls
    tools = [pairs[i][0] for i in order]
    batch_lqs = [pairs[i][1] for i in order]

    fresh = dataclasses.replace(w)
    preds, costs = [], []
    for lo in range(0, len(order), 3000):
        preds += _predictions(fresh, tools[lo:lo + 3000],
                              [lq.query for lq in batch_lqs[lo:lo + 3000]])
    costless = dataclasses.replace(w)
    for lo in range(0, len(order), 5000):
        costs += _costs(costless, tools[lo:lo + 5000], batch_lqs[lo:lo + 5000])

    got, want = hashlib.sha256(), hashlib.sha256()
    n_valid = 0
    for tool, lq, pred, c in zip(tools, batch_lqs, preds, costs):
        rng = np.random.default_rng([w.seed, 104729, tool.index, lq.query.uid])
        ref = tool_predict(w, tool, lq.query, rng)
        got.update(_prediction_bytes(pred))
        want.update(_prediction_bytes(ref))
        if validity(tool, lq.query):
            n_valid += 1
            family = w.task_spec(lq.query.task).family
            assert c == cost(family, ref, lq.gt), (tool.index, lq.query.uid)
        else:
            assert c is None and ref.is_null
    assert got.hexdigest() == want.hexdigest()
    assert n_valid > 5000


def test_one_pair_lookups_equal_batched_lookups(small_world):
    w = dataclasses.replace(small_world)
    lqs = small_world.splits["val"][:10]
    tools = [small_world.populations[lq.query.task][0] for lq in lqs]
    single = [w.tool_cost(tool, lq) for tool, lq in zip(tools, lqs)]
    assert single == _costs(dataclasses.replace(w), tools, lqs)


@pytest.mark.parametrize("key", [(0, 104729, 0, 0), (7, 104729, 47, 12345),
                                 (2**32, 104729, 2**32 - 1, 2**33 + 7),
                                 (12345678901234567890, 104729, 99, 2**64)])
def test_uint32_words_seed_the_same_stream_as_the_ints(key):
    from toolselect.simworld import _uint32_words
    fast = np.random.Generator(np.random.PCG64(np.random.SeedSequence(_uint32_words(key))))
    assert np.array_equal(fast.random(16), np.random.default_rng(list(key)).random(16))


UID_BASES = (12345, 2**32 + 5, 2**63 + 5)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**70])
@pytest.mark.parametrize("uid_base", [*UID_BASES, "mixed"])
@pytest.mark.parametrize("n", [1, 5, BATCH_SEEDING_MIN, 64])
def test_pair_rngs_equal_keyed_rng(seed, uid_base, n):
    """The fill's batch seeding gives each pair the state of
    ``keyed_rng(seed, PREDICTION_KEY, tool, uid)``, for uids as Python ints
    and, below 2**63, as the int64 array a table passes."""
    from toolselect.simworld import PREDICTION_KEY, _pair_rngs, keyed_rng
    if uid_base == "mixed":
        uids = [UID_BASES[i % 3] + i for i in range(n)]
    else:
        uids = [uid_base + 3 * i for i in range(n)]
    tool_index = np.arange(n, dtype=np.int64) * 7 % 50
    batches = [uids] + ([np.array(uids, dtype=np.int64)] if max(uids) < 2**63 else [])
    for batch in batches:
        rngs = _pair_rngs(seed, tool_index, batch)
        assert len(rngs) == n
        for i, (tool, uid) in enumerate(zip(tool_index.tolist(), uids)):
            want = keyed_rng(seed, PREDICTION_KEY, tool, uid)
            assert rngs[i].bit_generator.state == want.bit_generator.state, (i, tool, uid)


@pytest.mark.parametrize("key", [(0, 104729, 0, 0), (7, 50331653, 12345),
                                 (2**32, 104729, 2**32 - 1, 2**33 + 7),
                                 (12345678901234567890, 7919, 2**64)])
def test_keyed_rng_is_the_keyed_default_rng(key):
    from toolselect.simworld import keyed_rng
    assert np.array_equal(keyed_rng(*key).random(16), np.random.default_rng(list(key)).random(16))


@pytest.mark.parametrize("clipped_xent", [False, True])
def test_tool_costs_equal_per_pair_cost_bit_for_bit(small_world, clipped_xent):
    """The per-task array costs of shuffled mixed-task batches equal
    ``domain.cost`` of each pair, on every family."""
    w = dataclasses.replace(small_world,
                            cfg=dataclasses.replace(small_world.cfg, clipped_xent=clipped_xent))
    lqs = w.splits["val"] + w.splits["test"]
    pairs = [(tool, lq) for lq in lqs for tool in w.populations[lq.query.task]]
    order = np.random.default_rng(1).permutation(len(pairs))
    tools = [pairs[i][0] for i in order]
    batch_lqs = [pairs[i][1] for i in order]
    costs = []
    for lo in range(0, len(order), 97):
        costs += _costs(w, tools[lo:lo + 97], batch_lqs[lo:lo + 97])
    families = set()
    for tool, lq, c in zip(tools, batch_lqs, costs):
        if not validity(tool, lq.query):
            assert c is None
            continue
        family = w.task_spec(lq.query.task).family
        families.add(family)
        want = cost(family, w.tool_prediction(tool, lq.query), lq.gt, clipped_xent=clipped_xent)
        assert np.float64(c).tobytes() == np.float64(want).tobytes(), (tool.index, lq.query.uid)
    assert families == set(TaskFamily)
    if clipped_xent:
        assert any(0.0 < c < 1.0 for c, lq in zip(costs, batch_lqs)
                   if c is not None and w.task_spec(lq.query.task).family
                   is TaskFamily.CLASSIFICATION)


def test_perturb_boxes_equals_the_per_column_expressions(rng):
    """The two-column box perturbation equals the per-column expressions it
    replaced, bit for bit, with one scale and with one scale per box."""
    from toolselect.simworld import _perturb_boxes
    corners = np.sort(rng.random((300, 2, 2)), axis=1).reshape(300, 4)
    normals = rng.standard_normal((300, 4))
    for scale in (0.7, rng.random(300) * 2.0):
        cx = (corners[:, 0] + corners[:, 2]) / 2.0 + scale * 0.25 * normals[:, 0]
        cy = (corners[:, 1] + corners[:, 3]) / 2.0 + scale * 0.25 * normals[:, 1]
        w = (corners[:, 2] - corners[:, 0]) * np.exp(scale * normals[:, 2])
        h = (corners[:, 3] - corners[:, 1]) * np.exp(scale * normals[:, 3])
        want = np.clip(np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=1),
                       0.0, 1.0)
        assert _perturb_boxes(corners, scale, normals).tobytes() == want.tobytes()


# ---------------------------------------------------------- outcome tables

def _stored(world):
    """Every filled entry of a world's outcome tables, as bytes."""
    return {task: (t.filled.tobytes(), t.costs.tobytes(), t.outputs.tobytes())
            for task, t in world._tables.items() if t.filled is not None}


@pytest.mark.parametrize("clipped_xent", [False, True])
def test_outcome_table_digest_equals_per_pair_tool_predict(small_world, clipped_xent):
    """The tables, filled in shuffled mixed-task chunks with duplicate pairs
    (predictions of half the chunks first, so costs are also scored for
    pairs drawn earlier), equal per-pair ``tool_predict`` with fresh keyed
    generators and ``domain.cost`` bit for bit, on every (tool, query) pair
    of the splits."""
    w = dataclasses.replace(small_world,
                            cfg=dataclasses.replace(small_world.cfg, clipped_xent=clipped_xent))
    lqs = [lq for split in ("train", "val", "test") for lq in w.splits[split]]
    pairs = [(tool, lq) for lq in lqs for tool in w.all_tools]
    order = np.random.default_rng(7).permutation(len(pairs))
    order = np.concatenate([order, order[:700]])
    tools = [pairs[i][0] for i in order]
    batch_lqs = [pairs[i][1] for i in order]
    preds, costs = [], []
    for n, lo in enumerate(range(0, len(order), 389)):
        part_tools, part_lqs = tools[lo:lo + 389], batch_lqs[lo:lo + 389]
        if n % 2:
            preds += _predictions(w, part_tools, [lq.query for lq in part_lqs])
            costs += _costs(w, part_tools, part_lqs)
        else:
            costs += _costs(w, part_tools, part_lqs)
            preds += _predictions(w, part_tools, [lq.query for lq in part_lqs])
    got, want = hashlib.sha256(), hashlib.sha256()
    tabled = 0
    for tool, lq, pred, c in zip(tools, batch_lqs, preds, costs):
        rng = np.random.default_rng([w.seed, 104729, tool.index, lq.query.uid])
        ref = tool_predict(w, tool, lq.query, rng)
        got.update(_prediction_bytes(pred))
        want.update(_prediction_bytes(ref))
        if validity(tool, lq.query):
            family = w.task_spec(lq.query.task).family
            expect = cost(family, ref, lq.gt, clipped_xent=clipped_xent)
            got.update(np.float64(c).tobytes())
            want.update(np.float64(expect).tobytes())
            tabled += tool.home_task == lq.query.task
        else:
            assert c is None and ref.is_null
    assert got.hexdigest() == want.hexdigest()
    assert tabled > 1500
    # every population pair of the splits is now stored, scored, exactly once
    for task, table in w._tables.items():
        valid = np.array([task in tool.supported_tasks for tool in table.tools.tools])
        assert (table.filled[:, valid] == 2).all() and (table.filled[:, ~valid] == 0).all()


def test_table_rows_are_the_split_queries_in_split_order(small_world):
    w = dataclasses.replace(small_world)
    for task in range(len(w.tasks)):
        table = w._table(task)
        assert table.lqs == [lq for split in w.splits.values() for lq in split
                             if lq.query.task == task]
        assert [tool.index for tool in table.tools.tools] == \
            [tool.index for tool in w.populations[task]]
        rows = table.rows([lq.query for lq in table.lqs], table.lqs)
        assert rows.tolist() == list(range(len(table.lqs)))


def test_queries_in_no_split_are_computed_and_not_stored(small_world):
    """Reference-pool queries, copies of split queries and new queries are
    routed, evaluated and scored without changing what the tables store."""
    from toolselect.anp_selector import init_params
    from toolselect.baselines import OracleRouter, ToolSelectRouter
    from toolselect.trainer import build_model, default_selector_config

    w = dataclasses.replace(small_world)
    split = w.splits["test"][:30]
    w.cost_array([w.populations[lq.query.task][0] for lq in split], split)
    before = _stored(w)
    rng = np.random.default_rng(3)
    outside = [lq for task in sorted(w.ref_pools) for lq in w.ref_pools[task][:5]]
    outside += [dataclasses.replace(lq, query=dataclasses.replace(lq.query)) for lq in split[:10]]
    outside += [sample_query(w, task, rng, uid=10**6 + task) for task in range(len(w.tasks))]
    cfg = default_selector_config(w)
    routers = [OracleRouter(w), ToolSelectRouter(build_model(w, init_params(cfg, 0), cfg))]
    for lq in outside:
        panel = sample_panel(w.populations[lq.query.task], lq.query, 5, rng)
        for router in routers:
            slot = router.route(lq, panel, rng)
            assert validity(panel.tools[slot], lq.query)
        want = [None if not validity(t, lq.query) else
                cost(w.task_spec(lq.query.task).family,
                     tool_predict(w, t, lq.query, _pair_rng(w, t, lq.query)), lq.gt)
                for t in panel.tools]
        assert _costs(w, list(panel.tools), [lq] * len(panel.tools)) == want
    # one batch of every population tool on every such query: the array lookups
    pairs = [(tool, lq) for lq in outside for tool in w.populations[lq.query.task]]
    want = [None if not validity(t, lq.query) else
            cost(w.task_spec(lq.query.task).family,
                 tool_predict(w, t, lq.query, _pair_rng(w, t, lq.query)), lq.gt)
            for t, lq in pairs]
    assert _costs(w, [t for t, _ in pairs], [lq for _, lq in pairs]) == want
    # a split's own queries with other labeled-query objects are scored, not stored
    relabeled = [dataclasses.replace(lq) for lq in split]
    tools = [w.populations[lq.query.task][1] for lq in relabeled]
    want = [None if not validity(t, lq.query) else
            cost(w.task_spec(lq.query.task).family,
                 tool_predict(w, t, lq.query, _pair_rng(w, t, lq.query)), lq.gt)
            for t, lq in zip(tools, relabeled)]
    assert _costs(w, tools, relabeled) == want
    assert _stored(w) == before


@pytest.mark.parametrize("slot_width", [5, 7, 9])
def test_encode_slots_equals_encode_slot_on_every_family(small_world, slot_width):
    from toolselect.anp_selector import encode_slot, encode_slots
    w = dataclasses.replace(small_world)
    for task, spec in enumerate(w.tasks):
        lqs = [lq for lq in w.splits["val"] + w.splits["test"] if lq.query.task == task]
        tools = [tool for tool in w.populations[task] if task in tool.supported_tasks]
        pair_tools = [tool for _ in lqs for tool in tools]
        queries = [lq.query for lq in lqs for _ in tools]
        (group,) = w.tool_outcomes(pair_tools, queries)
        rows = encode_slots(spec.space, group.outputs, slot_width)
        want = np.array([encode_slot(spec.space, pred, slot_width)
                         for pred in _predictions(w, pair_tools, queries)])
        assert rows.tobytes() == want.tobytes(), spec.family
        if spec.family is TaskFamily.REPORT_GENERATION:
            assert (want.sum(axis=1) > 1).any()   # pairs fold onto shared slots


def test_global_best_means_equal_running_sums_of_tool_cost(small_world):
    from toolselect.baselines import GlobalBestRouter
    sums, counts = {}, {}
    for lq in small_world.splits["train"]:
        for tool in small_world.populations[lq.query.task]:
            c = small_world.tool_cost(tool, lq)
            if c is not None:
                sums[tool.index] = sums.get(tool.index, 0.0) + c
                counts[tool.index] = counts.get(tool.index, 0) + 1
    fitted = GlobalBestRouter.fit(dataclasses.replace(small_world)).mean_cost
    assert list(fitted) == list(sums)
    assert all(np.float64(fitted[k]).tobytes() == np.float64(sums[k] / counts[k]).tobytes()
               for k in sums)


def test_cost_matrix_equals_one_cost_array_per_pair(small_world, monkeypatch):
    """Split queries of every task, reference-pool queries, copies of split
    queries and tools outside a task's population, duplicates included: the
    matrix equals one ``cost_array`` per pair, bit for bit, over several
    ``DENSE_ROWS`` blocks."""
    import toolselect.simworld as simworld
    monkeypatch.setattr(simworld, "DENSE_ROWS", 7)
    w = dataclasses.replace(small_world)
    lqs = (w.splits["train"][:25] + w.splits["test"][-8:]
           + [lq for task in sorted(w.ref_pools) for lq in w.ref_pools[task][:3]]
           + [dataclasses.replace(lq) for lq in w.splits["val"][:3]] + w.splits["train"][:2])
    tools = w.all_tools[::2] + w.all_tools[:1]
    got = w.cost_matrix(lqs, tools)
    fresh = dataclasses.replace(small_world)
    want = np.array([[fresh.cost_array([tool], [lq])[0] for tool in tools] for lq in lqs])
    assert got.shape == (len(lqs), len(tools))
    assert got.tobytes() == want.tobytes()


def _outcome_bytes(groups, n):
    """Validity, output and (where valid) cost of each pair of a
    ``tool_outcomes`` read, as bytes, in batch order."""
    out = [None] * n
    for g in groups:
        for k, pos in enumerate(g.positions.tolist()):
            valid = bool(g.valid[k])
            out[pos] = (bytes([valid]) + g.outputs[k].tobytes()
                        + (g.costs[k].tobytes() if valid else b""))
    return out


def _reference_outcome(world, tool, lq):
    """``_outcome_bytes`` of one pair from ``tool_predict`` with a fresh keyed
    generator and ``domain.cost``."""
    from toolselect.simworld import _null_output, _output_layout
    spec = world.task_spec(lq.query.task)
    if not validity(tool, lq.query):
        return bytes([False]) + _null_output(spec).tobytes()
    pred = tool_predict(world, tool, lq.query, _pair_rng(world, tool, lq.query))
    if spec.family in CATEGORICAL_FAMILIES:
        output = pred.probs
    elif spec.family is TaskFamily.GROUNDING:
        output = np.array(pred.box)
    else:
        output = np.array([pair in pred.pairs for pair in spec.space.pair_vocab])
    c = cost(spec.family, pred, lq.gt, clipped_xent=world.cfg.clipped_xent)
    return (bytes([True]) + output.astype(_output_layout(spec)[1]).tobytes()
            + np.float64(c).tobytes())


@pytest.mark.parametrize("scored_first", [False, True])
def test_one_query_reads_equal_mixed_chunk_reads_and_tool_predict(small_world, scored_first,
                                                                  monkeypatch):
    """Reads of one query object's pairs equal the same pairs read in one
    shuffled mixed-task chunk, and per-pair ``tool_predict`` with a fresh
    keyed generator and ``domain.cost``, bit for bit. Each query is read
    with a repeated tool, and again with an invalid tool and a copy of a
    population tool (a tool outside the population); predictions of part of
    its pairs come before or after the costs, so its row holds mixed fill
    levels. Split queries of every task, a split query under another
    labeled-query object, a reference-pool query and a new query are read.
    Both worlds end up storing the same tables."""
    from toolselect.simworld import _OutcomeTable
    row_reads, drawn = [], []
    fill_row, draw_into = _OutcomeTable.fill_row, _OutcomeTable._draw_into

    def counted_read(self, world, row, cols, level):
        row_reads.append(row)
        return fill_row(self, world, row, cols, level)

    def counted_draw(self, world, rows, cols):
        if world is one:
            drawn.extend((self.spec.task, r, c) for r, c in zip(rows.tolist(), cols.tolist()))
        return draw_into(self, world, rows, cols)

    monkeypatch.setattr(_OutcomeTable, "fill_row", counted_read)
    monkeypatch.setattr(_OutcomeTable, "_draw_into", counted_draw)
    w = small_world
    one, chunk = dataclasses.replace(w), dataclasses.replace(w)
    split_lqs = [split[k] for split in w.splits.values() for k in (0, 5, -1)]
    lqs = split_lqs + [dataclasses.replace(w.splits["val"][2]), w.ref_pools[2][0],
                       sample_query(w, 3, np.random.default_rng(5), uid=10**7)]
    reads = []   # (tools, labeled query) of each one-query read
    for lq in lqs:
        task = lq.query.task
        valid = [tool for tool in w.populations[task] if task in tool.supported_tasks]
        invalid = next(t for t in w.all_tools if task not in t.supported_tasks)
        reads.append(([valid[1], valid[0], valid[1]] + valid[2:], lq))
        reads.append(([valid[-1], invalid, valid[0], dataclasses.replace(valid[0]), valid[-1]],
                      lq))
    got = []
    for tools, lq in reads:
        part = tools[::2]
        if not scored_first:
            one.tool_outcomes(part, [lq.query] * len(part))
        got += _outcome_bytes(one.tool_outcomes(tools, [lq.query] * len(tools),
                                                [lq] * len(tools)), len(tools))
        if scored_first:
            one.tool_outcomes(part, [lq.query] * len(part))
    # the same reads in two chunks of every query: the predictions in
    # reverse order, the costs shuffled
    part_tools = [tool for tools, _ in reads[::-1] for tool in tools[::2]]
    part_queries = [lq.query for tools, lq in reads[::-1] for _ in tools[::2]]
    pairs = [(tool, lq) for tools, lq in reads for tool in tools]
    order = np.random.default_rng(11).permutation(len(pairs))
    if not scored_first:
        chunk.tool_outcomes(part_tools, part_queries)
    mixed = _outcome_bytes(chunk.tool_outcomes([pairs[i][0] for i in order],
                                               [pairs[i][1].query for i in order],
                                               [pairs[i][1] for i in order]), len(pairs))
    if scored_first:
        chunk.tool_outcomes(part_tools, part_queries)
    in_order = [None] * len(pairs)
    for k, i in enumerate(order.tolist()):
        in_order[i] = mixed[k]
    want = [_reference_outcome(w, tool, lq) for tool, lq in pairs]
    assert got == want
    assert in_order == want
    assert _stored(one) == _stored(chunk)
    # reads of only valid population tools read one row: per split query
    # both reads of predictions and one of costs; per foreign labeled query
    # (its query is a split query) only the two reads of predictions
    assert len(row_reads) == 3 * len(split_lqs) + 2
    # every tabled pair was drawn once, however many reads asked for it
    assert len(drawn) == len(set(drawn)) == sum(
        int((t.filled > 0).sum()) for t in one._tables.values() if t.filled is not None)


def test_query_of_uid_is_the_first_split_then_pool_query(small_world):
    w = dataclasses.replace(small_world)
    split_query = w.splits["val"][3].query
    pool_query = w.ref_pools[1][0].query
    assert w.query_of_uid(split_query.uid) is split_query
    assert w.query_of_uid(pool_query.uid) is pool_query
    assert w.query_of_uid(10**12) is None
    # a pool query reusing a split uid: the split's query is the first match;
    # dataclasses.replace starts the copy without the parent's index
    clash = dataclasses.replace(w.ref_pools[1][0],
                                query=dataclasses.replace(pool_query, uid=split_query.uid))
    w2 = dataclasses.replace(w, ref_pools={**w.ref_pools, 1: [clash] + w.ref_pools[1][1:]})
    assert w2.query_of_uid(split_query.uid) is split_query
    assert w2.query_of_uid(pool_query.uid) is None


# ------------------------------------------------------- reference sets

def _reference_sets(world, tools, ref_size, rng):
    """The per-element builder ``build_reference_sets`` replaced: per tool
    and supported task, one ``rng.choice`` of pool queries, then one
    ``world.tool_prediction`` per element. Returns tool index -> task ->
    elements; the tools are left as they are."""
    out = {}
    for tool in tools:
        out[tool.index] = {}
        for task in sorted(tool.supported_tasks):
            pool = world.ref_pools[task]
            idx = rng.choice(len(pool), size=min(ref_size, len(pool)), replace=False)
            out[tool.index][task] = [(pool[i].query.x, pool[i].gt,
                                      world.tool_prediction(tool, pool[i].query)) for i in idx]
    return out


def _same_elements(got, want):
    return len(got) == len(want) and all(
        gx is wx and ggt is wgt and _prediction_bytes(gp) == _prediction_bytes(wp)
        for (gx, ggt, gp), (wx, wgt, wp) in zip(got, want))


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_build_reference_sets_equals_one_tool_prediction_per_element(seed):
    """Batched seeding draws the same pool queries from ``rng`` and gives each
    element the prediction ``world.tool_prediction`` gives, bit for bit; a
    seed past int64 takes the keys' wide path."""
    from toolselect.simworld import build_reference_sets
    w = generate_world(WorldConfig(**SMALL), seed)
    rngs = [np.random.default_rng(3) for _ in range(2)]
    want = _reference_sets(dataclasses.replace(w), w.all_tools, 5, rngs[1])
    build_reference_sets(w, w.all_tools, 5, rngs[0])
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    for tool in w.all_tools:
        assert sorted(tool.reference_sets) == sorted(want[tool.index])
        for task, elements in tool.reference_sets.items():
            assert _same_elements(elements, want[tool.index][task]), (tool.index, task)


def test_generated_reference_sets_equal_tool_prediction(small_world):
    """Every element of a generated world's reference sets, and of the fresh
    tools of ``regenerate_test_tools``, is a pool query with its own ground
    truth and the prediction ``world.tool_prediction`` gives, bit for bit."""
    regenerated = regenerate_test_tools(small_world, 0.5, 11)
    fresh = [t for t in regenerated.all_tools if "fresh" in t.tool_id]
    assert fresh
    for world, tools in ((small_world, small_world.all_tools), (regenerated, fresh)):
        lookup = dataclasses.replace(world)
        for tool in tools:
            for task, elements in tool.reference_sets.items():
                by_x = {id(lq.query.x): lq for lq in world.ref_pools[task]}
                assert len(elements) == world.cfg.ref_size
                for x, gt, pred in elements:
                    lq = by_x[id(x)]
                    assert gt is lq.gt
                    want = lookup.tool_prediction(tool, lq.query)
                    assert _prediction_bytes(pred) == _prediction_bytes(want)


# ------------------------------------------------------- box calibration

def _per_kappa_calibration(spec, cfg, rng, n_probe=256, n_draws=4):
    """The calibration ``_calibrate_box_noise`` replaced: one bisection per
    kappa, each step a mean IoU over one perturbed copy of the probes."""
    from toolselect.domain import iou
    from toolselect.simworld import _draw_queries, _perturb_boxes
    ks, noise = _draw_queries(rng, len(spec.centroids), n_probe, cfg.d_x)
    xs = spec.centroids[ks] + cfg.feature_noise * noise
    tiled = np.repeat(np.array([box_from_x(spec, x) for x in xs]), n_draws, axis=0)
    normals = rng.standard_normal((tiled.shape[0], 4))
    kappas = np.linspace(spec.p_floor, cfg.p_max, 9)
    scales = np.empty_like(kappas)
    for gi, kappa in enumerate(kappas):
        lo, hi = 0.0, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if iou(tiled, _perturb_boxes(tiled, mid, normals)).mean() > kappa:
                lo = mid
            else:
                hi = mid
        scales[gi] = 0.5 * (lo + hi)
    return kappas, scales


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("extra", [{}, {"d_x": 5, "feature_noise": 0.05, "p_floor": 0.3},
                                   {"d_x": 40, "feature_noise": 1.5, "p_max": 0.6}],
                         ids=["default", "narrow", "wide"])
def test_one_pass_calibration_equals_per_kappa_bisection(seed, extra):
    from toolselect.simworld import _calibrate_box_noise
    cfg = WorldConfig(**{**SMALL, **extra})
    spec = generate_world(cfg, seed).task_spec(1)
    assert spec.family is TaskFamily.GROUNDING
    rngs = [np.random.default_rng([seed, 99]) for _ in range(2)]
    kappas, scales = _calibrate_box_noise(spec, cfg, rngs[0])
    want_kappas, want_scales = _per_kappa_calibration(spec, cfg, rngs[1])
    assert kappas.tobytes() == want_kappas.tobytes()
    assert scales.tobytes() == want_scales.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
