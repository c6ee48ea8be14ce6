import dataclasses

import numpy as np
import pytest

from toolselect.anp_selector import init_params
from toolselect.baselines import (
    GlobalBestRouter,
    KNNRouter,
    MLPIndexRouter,
    OracleRouter,
    RandomRouter,
    ToolSelectRouter,
)
from toolselect.domain import TaskFamily
from toolselect.evalharness import (
    MetricsReport,
    TaskMetrics,
    _macro_classification,
    compare,
    eval_panels,
    evaluate,
    gap_closure,
    machine_records,
    render_report,
)
from toolselect.trainer import build_model, default_selector_config

from per_query import panel_digest, parse_machine_record


# ------------------------------------------------------------- gap_closure

def test_gap_closure_example():
    assert gap_closure(0.2, 0.5, 0.1) == pytest.approx(0.75, abs=1e-12)


def test_gap_closure_oracle_is_one():
    assert gap_closure(0.1, 0.5, 0.1) == pytest.approx(1.0, abs=1e-12)


def test_gap_closure_random_is_zero():
    assert gap_closure(0.5, 0.5, 0.1) == pytest.approx(0.0, abs=1e-12)


def test_gap_closure_empty_gap_is_none():
    assert gap_closure(0.2, 0.3, 0.3) is None
    assert gap_closure(0.2, 0.3, 0.4) is None


def test_gap_closure_worse_than_random_is_negative():
    assert gap_closure(0.6, 0.5, 0.1) < 0


# ------------------------------------------------------------- eval_panels

def test_eval_panels_paired_across_calls(small_world):
    a = eval_panels(small_world, "test", 6, seed=3)
    b = eval_panels(small_world, "test", 6, seed=3)
    assert panel_digest(a) == panel_digest(b)


def test_eval_panels_seed_sensitivity(small_world):
    a = eval_panels(small_world, "test", 6, seed=3)
    b = eval_panels(small_world, "test", 6, seed=4)
    assert panel_digest(a) != panel_digest(b)


def test_eval_panels_sizes(small_world):
    panels = eval_panels(small_world, "test", 5, seed=0)
    assert len(panels) == len(small_world.splits["test"])
    assert all(len(p.tools) == 5 for p in panels)


# ---------------------------------------------------------------- evaluate

def test_oracle_mean_equals_per_panel_min(small_world):
    panels = eval_panels(small_world, "test", 4, seed=9)
    rep = evaluate(OracleRouter(small_world), small_world, "test", 4,
                   seed=9, panels=panels)
    mins = []
    for lq, panel in zip(small_world.splits["test"], panels):
        cs = [small_world.tool_cost(t, lq) for t in panel.tools]
        mins.append(min(c for c in cs if c is not None))
    assert rep.mean_cost == pytest.approx(np.mean(mins), abs=1e-12)


def test_histogram_sums_to_query_count(small_world):
    rep = evaluate(RandomRouter(), small_world, "test", 4, seed=9)
    assert sum(rep.histogram.values()) == rep.query_count
    assert rep.query_count == len(small_world.splits["test"])


def test_per_task_counts_partition_split(small_world):
    rep = evaluate(RandomRouter(), small_world, "test", 4, seed=9)
    assert sum(tm.count for tm in rep.per_task.values()) == rep.query_count


def test_mean_cost_is_weighted_task_mean(small_world):
    rep = evaluate(RandomRouter(), small_world, "test", 4, seed=9)
    weighted = sum(tm.mean_cost * tm.count for tm in rep.per_task.values())
    assert rep.mean_cost == pytest.approx(weighted / rep.query_count, abs=1e-12)


def test_evaluate_deterministic_for_seed(small_world):
    a = evaluate(RandomRouter(), small_world, "test", 4, seed=2)
    b = evaluate(RandomRouter(), small_world, "test", 4, seed=2)
    assert a.mean_cost == b.mean_cost and a.histogram == b.histogram


def test_evaluate_empty_split_rejected(small_world):
    stripped = dataclasses.replace(small_world, splits={**small_world.splits, "test": []})
    with pytest.raises(ValueError):
        evaluate(RandomRouter(), stripped, "test", 4, seed=0)


def test_grounding_metric_complements_cost(small_world):
    rep = evaluate(OracleRouter(small_world), small_world, "test", 4, seed=9)
    tm = rep.per_task[1]  # grounding task
    assert tm.metrics["mean_iou"] == pytest.approx(1.0 - tm.mean_cost, abs=1e-12)


# ----------------------------------------------------------------- compare

def test_compare_attaches_gap_closures(small_world):
    reports = compare([RandomRouter(), OracleRouter(small_world),
                       GlobalBestRouter.fit(small_world)],
                      small_world, "test", 4, seed=1)
    assert reports["Random"].gap_closure == pytest.approx(0.0, abs=1e-12)
    assert reports["Oracle"].gap_closure == pytest.approx(1.0, abs=1e-12)
    gb = reports["GlobalBest"].gap_closure
    assert gb is not None and gb <= 1.0 + 1e-12


def test_compare_uses_shared_panels(small_world):
    reports = compare([RandomRouter(), OracleRouter(small_world)],
                      small_world, "test", 4, seed=1)
    direct = evaluate(OracleRouter(small_world), small_world, "test", 4, seed=1)
    assert reports["Oracle"].mean_cost == direct.mean_cost


# --------------------------------------------------------- machine records

def test_machine_records_round_trip(small_world):
    reports = compare([RandomRouter(), OracleRouter(small_world)],
                      small_world, "test", 4, seed=1)
    for line in machine_records(reports):
        rec = parse_machine_record(line)
        rep = reports[rec["router"]]
        tm = rep.per_task[rec["task"]]
        assert rec["count"] == tm.count
        assert rec["mean_cost"] == tm.mean_cost  # repr round-trip is exact
        for key, val in tm.metrics.items():
            assert rec[f"metric_{key}"] == val
        gc = rep.gap_closure_per_task.get(rec["task"])
        if gc is not None:
            assert rec["gap_closure"] == gc


def test_render_report_deterministic(small_world):
    reports = compare([RandomRouter(), OracleRouter(small_world)],
                      small_world, "test", 4, seed=1)
    text = render_report(reports)
    assert text == render_report(reports)
    lines = text.splitlines()
    assert len(lines) == 1 + len(reports)
    assert lines[0].startswith("router")
    assert any(l.startswith("Oracle") for l in lines[1:])


# ------------------------------------------- chunked evaluation reference

def _reference_evaluate(router, world, split, panels, seed):
    """evaluate as one loop over the queries: route, then read the cost and
    the prediction of the chosen tool."""
    rng = np.random.default_rng([seed, 86028121])
    costs, extra, histogram = {}, {}, {}
    for lq, panel in zip(world.splits[split], panels):
        tool = panel.tools[router.route(lq, panel, rng)]
        histogram[tool.tool_id] = histogram.get(tool.tool_id, 0) + 1
        costs.setdefault(lq.query.task, []).append(world.tool_cost(tool, lq))
        extra.setdefault(lq.query.task, []).append(
            (world.tool_prediction(tool, lq.query), lq.gt))
    per_task = {}
    for task in sorted(costs):
        spec = world.task_spec(task)
        family = spec.family
        if family is TaskFamily.CLASSIFICATION or family is TaskFamily.MULTIPLE_CHOICE:
            k = len(spec.space.labels)
            conf = np.zeros((k, k), dtype=np.int64)
            for pred, gt in extra[task]:
                truth = gt.label if family is TaskFamily.CLASSIFICATION else gt.option
                conf[truth, int(np.argmax(pred.probs))] += 1
            metrics = (_macro_classification(conf) if family is TaskFamily.CLASSIFICATION
                       else {"accuracy": float(np.trace(conf) / conf.sum())})
        else:
            key = "mean_iou" if family is TaskFamily.GROUNDING else "findings_f1"
            metrics = {key: float(np.mean([1.0 - c for c in costs[task]]))}
        per_task[task] = TaskMetrics(mean_cost=float(np.mean(costs[task])), metrics=metrics,
                                     count=len(costs[task]))
    all_costs = [c for task in sorted(costs) for c in costs[task]]
    return MetricsReport(router=router.name, seed=seed, query_count=len(world.splits[split]),
                         mean_cost=float(np.mean(all_costs)), per_task=per_task,
                         histogram=histogram)


def _all_routers(world):
    cfg = default_selector_config(world)
    model = build_model(world, init_params(cfg, 0), cfg)
    return [RandomRouter(), OracleRouter(world), GlobalBestRouter.fit(world),
            KNNRouter.fit(world), MLPIndexRouter.fit(world, iters=50), ToolSelectRouter(model)]


def test_chunked_evaluate_and_compare_equal_a_per_query_loop(small_world):
    """Reports of the chunked evaluate, and of compare, equal those of a
    per-query loop exactly: costs, metrics, histogram and gap closures."""
    fresh = dataclasses.replace(small_world)
    reports = compare(_all_routers(fresh), fresh, "test", 5, seed=21)
    panels = eval_panels(small_world, "test", 5, seed=21)
    expected = {r.name: _reference_evaluate(r, small_world, "test", panels, 21)
                for r in _all_routers(small_world)}
    rnd, orc = expected["Random"], expected["Oracle"]
    for rep in expected.values():
        rep.gap_closure = gap_closure(rep.mean_cost, rnd.mean_cost, orc.mean_cost)
        rep.gap_closure_per_task = {
            task: gap_closure(tm.mean_cost, rnd.per_task[task].mean_cost,
                              orc.per_task[task].mean_cost)
            for task, tm in rep.per_task.items()}
    assert list(reports) == list(expected)
    for name, rep in reports.items():
        assert rep == expected[name], name
        assert list(rep.histogram) == list(expected[name].histogram)
        direct = evaluate(_all_routers(small_world)[list(reports).index(name)], small_world,
                          "test", 5, seed=21)
        assert dataclasses.replace(direct, gap_closure=rep.gap_closure,
                                   gap_closure_per_task=rep.gap_closure_per_task) == rep


def test_evaluate_accepts_a_router_with_route_only(small_world):
    class FirstValid:
        name = "FirstValid"

        def route(self, lq, panel, rng):
            return next(j for j, t in enumerate(panel.tools)
                        if lq.query.task in t.supported_tasks)

    panels = eval_panels(small_world, "test", 4, seed=3)
    rep = evaluate(FirstValid(), small_world, "test", 4, seed=3)
    assert rep == _reference_evaluate(FirstValid(), small_world, "test", panels, 3)


def test_evaluate_rejects_panels_that_do_not_fit_the_split(small_world):
    """Panels of another split, too few or too many, or one of another task
    than its query, raise ``ValueError`` before any routing."""
    test, val = small_world.splits["test"], small_world.splits["val"]
    assert len(test) != len(val)
    with pytest.raises(ValueError, match=f"{len(val)} panels for the {len(test)} queries"):
        evaluate(OracleRouter(small_world), small_world, "test", 4, 0,
                 panels=eval_panels(small_world, "val", 4, 0))
    panels = eval_panels(small_world, "test", 4, 0)
    i = next(i for i, lq in enumerate(test) if lq.query.task != test[0].query.task)
    wrong = panels[:i] + [panels[0]] + panels[i + 1:]
    with pytest.raises(ValueError, match=f"panel {i} is of task {test[0].query.task}, "
                                         f"query {test[i].query.uid} "):
        evaluate(OracleRouter(small_world), small_world, "test", 4, 0, panels=wrong)
