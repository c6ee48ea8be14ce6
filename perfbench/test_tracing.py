"""The tracer's hooks, self times and tolerance of missing targets.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import toolselect as ts  # noqa: E402
import tracing  # noqa: E402
from toolselect import cli, evalharness, simworld, trainer  # noqa: E402


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer", key=7):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    assert 0.015 < tracer.self_s["outer"] < 0.03
    assert tracer.self_s["inner"] >= 0.03
    inner, outer = tracer.spans
    assert inner[4] == outer[0] and inner[5] == outer[5] == 7


def test_install_wraps_every_import_site_and_uninstall_restores():
    original = simworld.sample_panel
    tracer = tracing.Tracer().install()
    try:
        assert simworld.sample_panel is not original
        assert trainer.sample_panel is simworld.sample_panel
        assert evalharness.sample_panel is simworld.sample_panel
        assert cli.sample_panel is simworld.sample_panel
        assert ts.generate_world is simworld.generate_world is cli.generate_world
        world = ts.generate_world(ts.WorldConfig(n_train=40, n_val=8, n_test=8, n_ref_pool=80,
                                                 tools_per_task=3, ref_size=4), 0)
        evalharness.eval_panels(world, "test", 6, 0)
    finally:
        tracer.uninstall()
    assert simworld.sample_panel is original and trainer.sample_panel is original
    metrics, absent = tracer.metrics()
    assert absent == []
    assert tracer.calls["simworld.sample_panel"] == 8
    assert metrics["simworld.generate_world_ms"] > 0
    assert metrics["simworld.predictions_per_pair"] == 1.0


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(trainer, "_validation_cost")
    monkeypatch.delattr(simworld, "tool_predict")
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    metrics, absent = tracer.metrics()
    assert set(absent) == {"trainer.validation_ms", "simworld.tool_predict_ms",
                           "simworld.tool_predict_calls", "simworld.predictions_per_pair"}
    assert "simworld.tool_cost_ms" in metrics
