"""Property tests: record parsing, batched seeding, block query sampling,
the row-wise masked softmax, comp-sum weights and checkpoint files.

The examples are drawn by hypothesis under the derandomized profile that
``conftest.py`` loads, so every run tests the same examples.
"""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toolselect import diffcore as dc
from toolselect.checkpoint import load_checkpoint, save_checkpoint
from toolselect.datasets import parse_record
from toolselect.domain import GroundTruth, LabeledQuery, Query, TaskFamily
from toolselect.errors import CheckpointError, ConfigError, NoValidCandidateError
from toolselect.objective import PanelCosts, compsum_weights
from toolselect.simworld import (
    BATCH_SEEDING_MIN,
    TaskSpec,
    WorldConfig,
    _boxes,
    _mix_pools,
    _pair_sets,
    _report_pair_indices,
    generate_world,
    keyed_rng,
    keyed_rngs,
    sample_queries,
)

from per_query import box_from_x, params_to_float32, sample_query

# ------------------------------------------------------------- parse_record

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=12)

# records with the expected keys, each holding a plausible or an arbitrary value
RECORDS = st.fixed_dictionaries({
    "uid": st.integers() | st.floats() | JSON_VALUES,
    "task": st.integers(-2, 6) | JSON_VALUES,
    "family": st.sampled_from([f.value for f in TaskFamily]) | JSON_VALUES,
    "x": st.lists(st.floats(), max_size=20) | JSON_VALUES,
    "q": st.lists(st.floats(), max_size=12) | JSON_VALUES,
    "gt": st.fixed_dictionaries({
        "label": st.integers() | JSON_VALUES,
        "option": st.integers() | JSON_VALUES,
        "box": st.lists(st.floats(), max_size=5) | JSON_VALUES,
        "pairs": st.lists(st.lists(st.integers(0, 6), max_size=3), max_size=3) | JSON_VALUES,
    }) | JSON_VALUES,
})


def _parses_or_config_error(line, world=None):
    try:
        out = parse_record(line, "<input>:1", world)
    except ConfigError as exc:
        assert str(exc).startswith("<input>:1: ")
        return None
    assert isinstance(out, LabeledQuery)
    return out


@given(st.text())
def test_parse_record_on_arbitrary_text_raises_only_config_error(line):
    _parses_or_config_error(line)


@given(JSON_VALUES)
def test_parse_record_on_arbitrary_json_raises_only_config_error(value):
    _parses_or_config_error(json.dumps(value))


@given(RECORDS)
def test_parse_record_on_arbitrary_records_raises_only_config_error(small_world, record):
    line = json.dumps(record)
    _parses_or_config_error(line)
    out = _parses_or_config_error(line, small_world)
    if out is not None:
        assert out.query.uid >= 0 and 0 <= out.query.task < len(small_world.tasks)
        assert type(record["uid"]) is int and type(record["task"]) is int


SCALARS = (st.none() | st.booleans() | st.integers(-3, 30) | st.integers(10**6, 2**70)
           | st.floats() | st.floats(0.0, 1.0) | st.text(max_size=3))


@given(st.integers(0, 3), st.sampled_from(["uid", "task", "x", "q", "gt"]), SCALARS)
def test_parse_record_reads_only_integers_numbers_and_labels_of_the_task(small_world, task,
                                                                         field, value):
    """A new query's export record with one entry replaced: ``uid``,
    ``task``, ``x[0]``, ``q[0]`` or the ground truth's label, option, first
    box coordinate or first pair's finding. It parses only when the entry is
    a JSON integer (a number for features and boxes, never a boolean) inside
    the world's ranges, and then holds exactly that value."""
    from toolselect.datasets import _gt_payload
    spec = small_world.task_spec(task)
    lq = sample_query(small_world, task, np.random.default_rng(task), uid=10**6 + task)
    record = {"uid": lq.query.uid, "task": task, "family": spec.family.value,
              "x": lq.query.x.tolist(), "q": lq.query.q.tolist(), "gt": _gt_payload(lq.gt)}
    (key,) = record["gt"]
    if field in ("x", "q"):
        record[field][0] = value
    elif field == "gt" and key == "box":
        record["gt"]["box"][0] = value
    elif field == "gt" and key == "pairs":
        record["gt"]["pairs"][0][0] = value
    elif field == "gt":
        record["gt"][key] = value
    else:
        record[field] = value
    out = _parses_or_config_error(json.dumps(record), small_world)
    if out is None:
        return
    assert not isinstance(value, bool) and isinstance(value, (int, float))
    if field in ("uid", "task") or (field == "gt" and key != "box"):
        assert type(value) is int
    if field == "uid":
        assert out.query.uid == value >= 0 and small_world.query_of_uid(value) is None
    elif field == "task":
        assert value == task
    elif field in ("x", "q"):
        assert np.isfinite(value) and getattr(out.query, field)[0] == value
    elif key == "box":
        assert 0.0 <= value <= 1.0 and out.gt.box[0] == value
    elif key == "pairs":
        assert all(pair in spec.space.pair_vocab for pair in out.gt.pairs)
    else:
        assert value in spec.space.labels and getattr(out.gt, key) == value


# ----------------------------------------------------------- batched seeding

KEYS = (st.lists(st.lists(st.integers(0, 2**64), min_size=1, max_size=5).map(tuple),
                 max_size=12)
        | st.integers(1, 5).flatmap(lambda width: st.lists(
            st.tuples(*[st.integers(0, 2**32 - 1)] * width), max_size=40)))


@given(KEYS)
def test_keyed_rngs_equal_keyed_rng(keys):
    """Same state and stream as one ``keyed_rng`` per key, for one-word and
    multi-word entries, keys of one or of mixed lengths, and any batch size."""
    rngs = keyed_rngs(keys)
    assert len(rngs) == len(keys)
    for key, rng in zip(keys, rngs):
        want = keyed_rng(*key)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.random(3).tobytes() == want.random(3).tobytes()
    for i in range(len(keys)):     # read by index, as the table fill reads them
        assert rngs[i].bit_generator.state == keyed_rng(*keys[i]).bit_generator.state


POOL_KEYS = (st.lists(st.lists(st.integers(0, 2**64), min_size=1, max_size=6).map(tuple),
                     min_size=BATCH_SEEDING_MIN, max_size=40)
             | st.integers(1, 6).flatmap(lambda width: st.lists(
                 st.tuples(*[st.integers(0, 2**64)] * width),
                 min_size=BATCH_SEEDING_MIN, max_size=40)))
ONE_WORD_KEYS = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(*[st.integers(0, 2**32 - 1)] * width), min_size=1, max_size=40))


@given(POOL_KEYS, ONE_WORD_KEYS)
def test_mixed_pools_equal_seed_sequence_pools(keys, short_keys):
    """The column pass of ``_mix_pools`` gives numpy's own entropy pools for
    keys of up to four one-word entries, and ``keyed_rngs`` of at least
    ``BATCH_SEEDING_MIN`` keys, one-word or multi-word, of one or of mixed
    lengths, the generators of ``keyed_rng``."""
    words = np.array(short_keys, dtype=np.uint32)
    want = np.array([np.random.SeedSequence(row).pool for row in words], dtype=np.uint32)
    assert _mix_pools(words).tobytes() == want.tobytes()
    for batch in (keys, short_keys * BATCH_SEEDING_MIN):
        rngs = keyed_rngs(batch)
        for i, key in enumerate(batch):
            assert rngs[i].bit_generator.state == keyed_rng(*key).bit_generator.state


def test_keyed_rngs_reject_negative_entries_as_keyed_rng_does():
    for keys in ([(1, 2, 3), (4, -3, 5), (6, 7, 8)], [(-1,)], [(2**40, 1), (1, -1, 2), (3,)]):
        try:
            keyed_rngs(keys)
        except ValueError as exc:
            assert "non-negative" in str(exc)
        else:
            raise AssertionError(f"{keys} accepted")


# ---------------------------------------------------- block query sampling

def _reference_sample_query(world, task, rng, uid):
    """The per-query sampler that ``sample_queries`` replaced: three draws per
    query (centroid, feature noise, hint noise) and per-query arithmetic."""
    cfg = world.cfg
    spec = world.task_spec(task)
    hint_dim = cfg.d_q - cfg.n_tasks()
    task_onehot = np.zeros(cfg.n_tasks())
    task_onehot[task] = 1.0
    k = rng.integers(len(spec.centroids))
    x = spec.centroids[k] + cfg.feature_noise * rng.standard_normal(cfg.d_x)
    if spec.family in (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE):
        y = int(k)
        hint = spec.hint_codes[y] + cfg.hint_noise * rng.standard_normal(hint_dim)
        if spec.family is TaskFamily.CLASSIFICATION:
            gt = GroundTruth(spec.family, label=y)
        else:
            gt = GroundTruth(spec.family, option=y)
    elif spec.family is TaskFamily.GROUNDING:
        box = box_from_x(spec, x)
        hint = np.zeros(hint_dim)
        hint[: min(4, hint_dim)] = np.asarray(box)[: min(4, hint_dim)]
        hint = hint + cfg.hint_noise * rng.standard_normal(hint_dim)
        gt = GroundTruth(spec.family, box=box)
    else:
        pairs = _pair_sets(spec, *_report_pair_indices(spec, x[None, :]))[0]
        codes = [spec.hint_codes[spec.space.pair_vocab.index(p)] for p in sorted(pairs)]
        hint = np.mean(codes, axis=0) + cfg.hint_noise * rng.standard_normal(hint_dim)
        gt = GroundTruth(spec.family, pairs=pairs)
    q = np.concatenate([task_onehot, hint])
    return LabeledQuery(Query(uid=uid, task=task, x=x, q=q), gt)


def _same_query(a, b):
    return (a.query.uid == b.query.uid and a.query.task == b.query.task
            and a.query.x.tobytes() == b.query.x.tobytes()
            and a.query.q.tobytes() == b.query.q.tobytes() and a.gt == b.gt)


WORLD_CONFIGS = st.builds(
    lambda per_family, d_x, hint_dim, labels, options, findings, locations, feature_noise,
    hint_noise: WorldConfig(
        n_tasks_per_family=per_family, d_x=d_x, d_q=4 * per_family + hint_dim,
        labels_per_task=labels, mcq_options=options, n_findings=findings,
        n_locations=locations, feature_noise=feature_noise, hint_noise=hint_noise,
        tools_per_task=1, n_train=1, n_val=1, n_test=1, n_ref_pool=4 * per_family,
        ref_size=1),
    st.integers(1, 2), st.integers(1, 9), st.integers(2, 6), st.integers(1, 7),
    st.integers(1, 6), st.integers(1, 4), st.integers(5, 7),
    st.floats(0.0, 2.0), st.floats(0.0, 2.0))


@settings(max_examples=25)
@given(WORLD_CONFIGS, st.integers(0, 2**32 - 1), st.integers(0, 17))
def test_block_sampling_equals_per_query_sampling(cfg, seed, n):
    """A block of every task's queries equals the former per-query sampler
    and the one-query ``sample_query``, and leaves its RNG in the same state."""
    world = generate_world(cfg, seed)
    for task in range(cfg.n_tasks()):
        uids = list(range(100, 100 + n))
        rngs = [np.random.default_rng([seed, task]) for _ in range(3)]
        block = sample_queries(world, task, rngs[0], uids)
        reference = [_reference_sample_query(world, task, rngs[1], uid) for uid in uids]
        one_by_one = [sample_query(world, task, rngs[2], uid) for uid in uids]
        assert len(block) == n
        assert all(_same_query(a, b) and _same_query(a, c)
                   for a, b, c in zip(block, reference, one_by_one))
        assert (rngs[0].bit_generator.state == rngs[1].bit_generator.state
                == rngs[2].bit_generator.state)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_one_query_blocks_of_every_family(small_world, n):
    """A block of no query draws nothing; a block of one equals the former
    per-query sampler; on every family."""
    families = set()
    for task, spec in enumerate(small_world.tasks):
        families.add(spec.family)
        rngs = [np.random.default_rng([5, task]) for _ in range(2)]
        block = sample_queries(small_world, task, rngs[0], range(7, 7 + n))
        reference = [_reference_sample_query(small_world, task, rngs[1], 7 + i) for i in range(n)]
        assert len(block) == n and all(map(_same_query, block, reference))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert families == set(TaskFamily)


MAT_VEC_SHAPES = st.tuples(st.integers(0, 40), st.integers(1, 40), st.integers(1, 3))


@settings(max_examples=60)
@given(MAT_VEC_SHAPES, st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
def test_stacked_mat_vec_equals_per_row_mat_vec(shape, seed, spread):
    """``map @ xs[:, :, None]`` gives each row the bits of ``map @ x`` (what
    ``_boxes`` relies on for ground-truth boxes), and ``_boxes`` gives each
    row the box of the per-query ``box_from_x``."""
    n, d, rows = shape
    rng = np.random.default_rng(seed)
    xs = spread * rng.standard_normal((n, d))
    mat = rng.standard_normal((rows, d)) / np.sqrt(d)
    stacked = (mat @ xs[:, :, None])[:, :, 0]
    assert stacked.shape == (n, rows)
    assert all(row.tobytes() == (mat @ x).tobytes() for row, x in zip(stacked, xs))
    spec = TaskSpec(task=0, family=TaskFamily.GROUNDING, space=None, centroids=None,
                    box_center_map=rng.standard_normal((2, d)) / np.sqrt(d),
                    box_size_map=rng.standard_normal((2, d)) / np.sqrt(d))
    boxes = _boxes(spec, xs)
    assert boxes.shape == (n, 4)
    assert boxes.tobytes() == np.array([box_from_x(spec, x) for x in xs]).reshape(n, 4).tobytes()


# ----------------------------------------------------- row-wise masked softmax

@st.composite
def _score_rows(draw):
    """A (B, M) score matrix and a row mask with a valid slot in every row."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    scores = np.array(draw(st.lists(st.floats(-50, 50), min_size=rows * width,
                                    max_size=rows * width))).reshape(rows, width)
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * width,
                                  max_size=rows * width))).reshape(rows, width)
    mask[np.arange(rows), draw(st.lists(st.integers(0, width - 1), min_size=rows,
                                        max_size=rows))] = True
    return scores, mask


@given(_score_rows(), st.floats(-100, 100))
def test_masked_softmax_rows_are_distributions_over_their_valid_slots(case, shift):
    scores, mask = case
    probs = dc.masked_softmax(dc.constant(scores), mask).data
    assert (probs[~mask] == 0.0).all()
    assert (probs[mask] >= 0.0).all()
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    shifted = dc.masked_softmax(dc.constant(scores + shift), mask).data
    np.testing.assert_allclose(shifted, probs, rtol=0, atol=1e-12)


@given(_score_rows(), st.data())
def test_masked_softmax_rejects_a_row_without_valid_slots(case, data):
    scores, mask = case
    mask[data.draw(st.integers(0, len(mask) - 1))] = False
    with pytest.raises(NoValidCandidateError):
        dc.masked_softmax(dc.constant(scores), mask)


# ------------------------------------------------------------ comp-sum weights

@given(st.lists(st.tuples(st.floats(0, 1), st.booleans()), min_size=1, max_size=9))
def test_compsum_weights_range_and_identity(slots):
    costs = np.array([c for c, _ in slots])
    valid = np.array([v for _, v in slots])
    valid[0] = valid[0] or not valid.any()
    w = compsum_weights(PanelCosts(costs=costs, valid=valid))
    m_valid = int(valid.sum())
    assert (w[~valid] == 0.0).all()
    assert (w[valid] >= 2 - m_valid - 1e-12).all() and (w[valid] <= 1 + 1e-12).all()
    for j in np.flatnonzero(valid):
        others = sum(costs[k] for k in np.flatnonzero(valid) if k != j)
        assert w[j] == pytest.approx(others - m_valid + 2, abs=1e-12)


# ---------------------------------------------------------------- checkpoints

TENSORS = st.dictionaries(
    st.text(max_size=12),
    st.lists(st.integers(0, 4), max_size=3).flatmap(lambda shape: st.lists(
        st.floats(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda values: np.array(values, dtype=np.float64).reshape(shape))),
    max_size=4)


@given(TENSORS)
def test_checkpoint_round_trip_equals_float32_rounding_bit_for_bit(arrays):
    """Tensors finite in float32 come back as their float32 rounding; a
    tensor holding NaN, inf or a value past the float32 range is refused by
    name (the first in sorted order), and no file is written."""
    params = {name: dc.Tensor(a) for name, a in arrays.items()}
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        expected = params_to_float32(params)
        refused = sorted(n for n, t in expected.items() if not np.isfinite(t.data).all())
        path = os.path.join(tmp, "ckpt.bin")
        if refused:
            with pytest.raises(CheckpointError,
                               match=re.escape(f"tensor {refused[0]!r} is not finite")):
                save_checkpoint(params, path)
            assert os.listdir(tmp) == []
            return
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
    assert loaded.keys() == expected.keys()
    for name, arr in loaded.items():
        assert arr.dtype == np.float64 and arr.shape == expected[name].data.shape
        assert arr.tobytes() == expected[name].data.tobytes()


@settings(max_examples=30)
@given(TENSORS)
def test_every_strict_prefix_of_a_checkpoint_is_rejected(arrays):
    # save_checkpoint refuses values not finite in float32 (checked above);
    # here they become 0 so that every drawn layout is written and cut
    with np.errstate(over="ignore"):
        params = {name: dc.Tensor(np.where(np.isfinite(a.astype(np.float32)), a, 0.0))
                  for name, a in arrays.items()}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.bin")
        save_checkpoint(params, path)
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = os.path.join(tmp, "cut.bin")
        for n in range(len(blob)):
            with open(cut, "wb") as fh:
                fh.write(blob[:n])
            with pytest.raises(CheckpointError):
                load_checkpoint(cut)
