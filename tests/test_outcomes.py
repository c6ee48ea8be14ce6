"""The outcome reader, ``SimWorld.outcomes``: a batch of B queries and P
pairs (a tool and its query's index), each query's row and each pair's
column looked up once. Every read is compared pair by pair with
``tool_predict`` (fresh keyed generator) and ``domain.cost``."""

import dataclasses

import numpy as np
import pytest

from toolselect.anp_selector import init_params
from toolselect.datasets import export_dataset, import_dataset
from toolselect.evalharness import eval_panels
from toolselect.simworld import _null_output
from toolselect.trainer import build_model, default_selector_config

from per_query import reference_outcome


def _pair_bytes(groups, n, costs=True):
    """Validity, output and (where valid, if read) cost of each pair of an
    ``outcomes`` read, as bytes, in batch order."""
    out = [None] * n
    for g in groups:
        for k, pos in enumerate(g.positions.tolist()):
            valid = bool(g.valid[k])
            out[pos] = (bytes([valid]) + g.outputs[k].tobytes()
                        + (g.costs[k].tobytes() if valid and costs else b""))
    return out


def _without_cost(ref):
    """``reference_outcome`` bytes without the trailing cost of a valid pair."""
    return ref[:-8] if ref[0] else ref


def _batch(world, tmp_path):
    """(labeled queries, tools, example) of a mixed-task batch: a split query
    of every task and split, a copy and a parsed record of a split query, a
    reference-pool query; per query its valid tools with one repeated, a
    tool of no support for its task, and a copy of a population tool (a
    tool outside the population). The pairs are shuffled across queries."""
    export_dataset(world, "test", tmp_path / "test.jsonl")
    parsed = import_dataset(tmp_path / "test.jsonl")[4]
    split_lq = world.splits["test"][4]
    assert parsed.query.uid == split_lq.query.uid and parsed is not split_lq
    copied = dataclasses.replace(split_lq, query=dataclasses.replace(split_lq.query))
    lqs = [next(lq for lq in split if lq.query.task == task)
           for split in world.splits.values() for task in range(len(world.tasks))]
    lqs += [parsed, copied, world.ref_pools[2][1]]
    pairs = []
    for b, lq in enumerate(lqs):
        task = lq.query.task
        valid = [t for t in world.populations[task] if task in t.supported_tasks]
        invalid = next(t for t in world.all_tools if task not in t.supported_tasks)
        for tool in [valid[1], valid[0], valid[1], invalid, dataclasses.replace(valid[0])]:
            pairs.append((b, tool))
    order = np.random.default_rng(3).permutation(len(pairs)).tolist()
    return lqs, [pairs[i][1] for i in order], [pairs[i][0] for i in order]


def test_outcomes_equal_tool_predict_and_cost_pair_by_pair(small_world, tmp_path, block_fills):
    """Tabled, loose, invalid, repeated and outside-the-population pairs of a
    mixed-task batch: outputs and costs equal the per-pair references bit
    for bit, whether both, only the outputs or only the costs are read. The
    one-pair and pair-list readers agree with it."""
    w = dataclasses.replace(small_world)
    lqs, tools, example = _batch(w, tmp_path)
    queries = [lq.query for lq in lqs]
    want = [reference_outcome(w, tool, lqs[b]) for tool, b in zip(tools, example)]
    both = w.outcomes(queries, tools, example, lqs)
    assert len({g.task for g in both}) == len(both) == len(w.tasks)
    assert _pair_bytes(both, len(tools)) == want
    outputs = w.outcomes(queries, tools, example)
    assert all(g.costs is None for g in outputs)
    assert _pair_bytes(outputs, len(tools), costs=False) == [_without_cost(r) for r in want]
    costs = w.outcomes(queries, tools, example, lqs, outputs=False)
    assert all(g.outputs is None for g in costs)
    got = np.full(len(tools), np.nan)
    for g in costs:
        got[g.positions] = g.costs
    assert got.tobytes() == w.cost_array(tools, lqs, example).tobytes()
    for c, ref, g_valid in zip(got.tolist(), want, [r[0] for r in want]):
        if g_valid:
            assert np.float64(c).tobytes() == ref[-8:]
        else:
            assert c != c
    per_pair = [lqs[b] for b in example]
    assert _pair_bytes(w.tool_outcomes(tools, [lq.query for lq in per_pair], per_pair),
                       len(tools)) == want
    assert [w.tool_cost(tool, lq) for tool, lq in zip(tools, per_pair)] == [
        None if c != c else c for c in got.tolist()]
    # the split queries' blocks are filled once each; the loose queries fill none
    filled = [(task, block) for world, task, block in block_fills if world is w]
    assert len(filled) == len(set(filled))
    assert set(filled) == {(lq.query.task, block) for block, split in enumerate(w.splits.values())
                           for lq in lqs if any(lq is other for other in split)}


def test_invalid_pairs_read_the_null_output_and_nan(small_world):
    """A batch of split queries whose only pairs are tools without support
    reads the null output and NaN costs, and fills nothing."""
    w = dataclasses.replace(small_world)
    lqs = w.splits["val"][:3]
    tools = [next(t for t in w.populations[lq.query.task]
                  if lq.query.task not in t.supported_tasks) for lq in lqs]
    (group,) = w.outcomes([lq.query for lq in lqs], tools, [0, 1, 2], lqs)
    spec = w.task_spec(lqs[0].query.task)
    assert not group.valid.any() and np.isnan(group.costs).all()
    assert all(row.tobytes() == _null_output(spec).tobytes() for row in group.outputs)
    assert not any(any(t.filled) for t in w._tables.values())


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_a_first_read_fills_exactly_its_own_block(small_world, split, block_fills):
    """The first read of two queries of one (task, split) block fills that
    block, whole, and no other block or table."""
    w = dataclasses.replace(small_world)
    block = list(w.splits).index(split)
    lq, other = [lq for lq in w.splits[split] if lq.query.task == 2][:2]
    tools = [t for t in w.populations[2] if 2 in t.supported_tasks]
    w.outcomes([lq.query, other.query], tools + tools[:2], [0] * len(tools) + [1, 1])
    assert [(task, b) for world, task, b in block_fills if world is w] == [(2, block)]
    table = w._tables[2]
    assert table.filled == [b == block for b in range(3)]
    assert [task for task, t in w._tables.items() if any(t.filled)] == [2]
    rows = table.block_rows(block)
    for r, owner in enumerate(table.lqs[rows]):
        for c in np.flatnonzero(table.tools.supported).tolist():
            got = (bytes([True]) + table.outputs[rows.start + r, c].tobytes()
                   + table.costs[rows.start + r, c].tobytes())
            assert got == reference_outcome(w, table.tools.tools[c], owner), (r, c)


def test_a_one_item_forward_reads_what_a_64_item_batch_reads(small_world):
    """Each item's slot rows, read by a one-item forward, equal that item's
    rows in a 64-item mixed-task forward bit for bit; the selections are the
    same, and the probabilities agree to the last bits that BLAS rounds
    differently for one row and for 64."""
    w = dataclasses.replace(small_world)
    cfg = default_selector_config(w)
    model = build_model(w, init_params(cfg, 0), cfg).detached()
    items = list(zip(w.splits["test"], eval_panels(w, "test", 6, 5)))[20:84]
    assert len({lq.query.task for lq, _ in items}) > 1
    reads = []
    predict = model.predict_fn

    def recording(queries, example, tools):
        rows = predict(queries, example, tools)
        reads.append((list(example), [t.index for t in tools], rows))
        return rows
    model.predict_fn = recording
    batch = model.batch_forward(items)
    (example, tool_index, rows), = reads
    for i, item in enumerate(items):
        one = model.batch_forward([item])
        _, one_tools, one_rows = reads[-1]
        mine = [p for p, b in enumerate(example) if b == i]
        assert [tool_index[p] for p in mine] == one_tools
        assert rows[mine].tobytes() == one_rows.tobytes(), i
        m = len(item[1].tools)
        assert one.selected == [batch.selected[i]]
        np.testing.assert_allclose(one.probs_t.data[0, :m], batch.probs_t.data[i, :m],
                                   rtol=0, atol=1e-12)
