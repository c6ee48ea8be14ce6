"""The benchmark's correctness checks pass on the program and fail on purpose.

    python3 -m pytest perfbench/test_checks.py -q
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import toolselect as ts  # noqa: E402
from toolselect import diffcore, evalharness  # noqa: E402

M = 6


@pytest.fixture(scope="module")
def world():
    cfg = ts.WorldConfig(n_train=200, n_val=40, n_test=120, n_ref_pool=200,
                         tools_per_task=6, ref_size=8)
    return ts.generate_world(cfg, 3)


@pytest.fixture(scope="module")
def panels(world):
    return evalharness.eval_panels(world, "test", M, 5)


@pytest.fixture(scope="module")
def table(world, panels):
    return checks.panel_cost_table(world, world.splits["test"], panels)


class FixedSlotRouter:
    """Routes by the fresh cost table: the worst valid slot, or an invalid one."""

    def __init__(self, name, world, table, pick):
        self.name = name
        self.rows = {lq.query.uid: row for lq, row in zip(world.splits["test"], table)}
        self.pick = pick

    def route(self, lq, panel, rng):
        row = self.rows[lq.query.uid]
        if self.pick == "worst":
            return int(np.nanargmax(row))
        return int(np.flatnonzero(np.isnan(row))[0])


def test_fresh_costs_match_the_simulator(world, panels, table):
    for lq, panel, row in zip(world.splits["test"], panels, table):
        for tool, c in zip(panel.tools, row):
            expect = world.tool_cost(tool, lq)
            assert (expect is None and np.isnan(c)) or expect == c


def test_random_expectation_is_the_mean_of_valid_slots():
    table = [np.array([0.0, 1.0, np.nan]), np.array([0.5, np.nan, np.nan])]
    mean, se = checks.random_expectation(table)
    assert mean == pytest.approx((0.5 + 0.5) / 2)
    assert se == pytest.approx(np.sqrt(0.25 + 0.0) / 2)


def test_compare_check_passes_and_catches_a_worst_slot_router(world, table):
    routers = [ts.RandomRouter(), ts.OracleRouter(world), ts.GlobalBestRouter.fit(world)]
    reports = ts.compare(routers, world, "test", M, 5)
    assert checks.check_compare(reports, table, fitted=("GlobalBest",)) == []

    worst = evalharness.evaluate(FixedSlotRouter("GlobalBest", world, table, "worst"),
                                 world, "test", M, 5)
    problems = checks.check_compare(dict(reports, GlobalBest=worst), table,
                                    fitted=("GlobalBest",))
    assert any("above Random" in p for p in problems)

    as_random = dataclasses.replace(worst, router="Random")
    problems = checks.check_compare(dict(reports, Random=as_random), table, fitted=())
    assert any("from its expectation" in p for p in problems)


def test_compare_check_catches_a_wrong_oracle(world, table):
    reports = ts.compare([ts.RandomRouter(), ts.OracleRouter(world)], world, "test", M, 5)
    oracle = reports["Oracle"]
    shifted = dataclasses.replace(oracle, mean_cost=oracle.mean_cost + 1e-6)
    problems = checks.check_compare(dict(reports, Oracle=shifted), table, fitted=())
    assert any("mean panel minimum" in p for p in problems)

    task = sorted(oracle.per_task)[0]
    per_task = dict(reports["Random"].per_task)
    per_task[task] = dataclasses.replace(oracle.per_task[task],
                                         mean_cost=oracle.per_task[task].mean_cost - 0.01)
    beaten = dataclasses.replace(reports["Random"], per_task=per_task)
    problems = checks.check_compare(dict(reports, Random=beaten), table, fitted=())
    assert any(p.startswith(f"Oracle task {task}") for p in problems)


def test_slot_check_catches_an_invalid_slot(world, panels, table):
    records = world.splits["test"]
    router = FixedSlotRouter("Invalid", world, table, "invalid")
    rows = [i for i, row in enumerate(table) if np.isnan(row).any()]
    slots = [router.route(records[i], panels[i], None) for i in rows]
    chosen = ([records[i] for i in rows], [panels[i] for i in rows])
    assert len(checks.check_slots_valid(*chosen, slots)) == len(rows) > 0
    good = [int(np.nanargmin(table[i])) for i in rows]
    assert checks.check_slots_valid(*chosen, good) == []


def _model(world, tensors):
    params = {k: diffcore.Tensor(v) for k, v in tensors.items()}
    return ts.build_model(world, params, ts.default_selector_config(world)).detached()


def test_reference_forward_matches_and_catches_wrong_tensors(world, panels, tmp_path):
    path = str(tmp_path / "ckpt.bin")
    ts.save_checkpoint(ts.init_params(ts.default_selector_config(world), 11), path)
    tensors = ts.load_checkpoint(path)
    model = _model(world, tensors)
    lq, panel = next((lq, p) for lq, p in zip(world.splits["test"], panels)
                     if not all(lq.query.task in t.supported_tasks for t in p.tools))
    dist = model.select(lq.query, panel)
    ref, mask = checks.reference_probs(tensors, world, lq.query, panel)
    assert checks.check_probs(dist.probs, dist.selected, ref, mask, 0) == []

    wrong = dict(tensors, head1_W=tensors["head1_W"] * 1.001)
    ref_wrong, _ = checks.reference_probs(wrong, world, lq.query, panel)
    assert any("differ from reference" in p
               for p in checks.check_probs(dist.probs, dist.selected, ref_wrong, mask, 0))

    worst = int(np.argmin(np.where(mask, ref, np.inf)))
    assert any("selected slot" in p for p in checks.check_probs(dist.probs, worst, ref, mask, 0))

    leaky = dist.probs.copy()
    leaky[np.flatnonzero(~mask)[0]] = 1e-300
    assert any("invalid slot" in p for p in checks.check_probs(leaky, dist.selected, ref, mask, 0))


def test_val_history_check(world):
    bounds = checks.population_bounds(world, "val")
    lo, hi, uniform = bounds
    assert lo < uniform < hi
    assert checks.check_val_history([uniform - 0.01], bounds) == []
    assert any("outside" in p for p in checks.check_val_history([hi + 1e-9, lo], bounds))
    assert any("not below uniform" in p for p in checks.check_val_history([uniform], bounds))


def test_record_round_trip_check(world, tmp_path):
    from toolselect import datasets
    path = str(tmp_path / "test.jsonl")
    datasets.export_dataset(world, "test", path)
    loaded = datasets.import_dataset(path)
    assert checks.check_records_equal(world.splits["test"], loaded) == []
    lq = loaded[3]
    loaded[3] = dataclasses.replace(lq, query=dataclasses.replace(lq.query, x=lq.query.x + 1e-12))
    assert len(checks.check_records_equal(world.splits["test"], loaded)) == 1
