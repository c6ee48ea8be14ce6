"""In-process tracing: spans recorded around the package's functions.

Every hook wraps a function at the module (or class) attribute its callers
look up, so nothing inside the package changes. A hook whose target is
missing is skipped and the metrics built from it are reported as absent,
which keeps the traced run working after a function is renamed or deleted.

A span is ``(id, name, start, end, parent id, key)``. The key is the routed
query's uid or the training step number; child spans inherit it. Self time
is a span's duration minus the durations of its direct children.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "toolselect"

# (module, attribute path, span name). Methods are named "Class.method".
SPAN_HOOKS = [
    ("simworld", "generate_world", "simworld.generate_world"),
    ("simworld", "SimWorld.tool_prediction", "simworld.tool_prediction"),
    ("simworld", "tool_predict", "simworld.tool_predict"),
    ("simworld", "SimWorld.tool_cost", "simworld.tool_cost"),
    ("simworld", "sample_panel", "simworld.sample_panel"),
    ("domain", "cost", "domain.cost"),
    ("domain", "align", "domain.align"),
    ("diffcore", "backward", "diffcore.backward"),
    ("kernels", "gelu_fwd", "kernels.gelu"),
    ("kernels", "gelu_bwd", "kernels.gelu"),
    ("kernels", "softmax_rows", "kernels.softmax_rows"),
    ("kernels", "masked_softmax", "kernels.masked_softmax"),
    ("anp_selector", "SelectorModel.batch_forward", "anp_selector.batch_forward"),
    ("anp_selector", "SelectorModel.select", "anp_selector.select"),
    ("anp_selector", "encode_query", "anp_selector.encode_query"),
    ("anp_selector", "encode_reference_set", "anp_selector.encode_reference_set"),
    ("anp_selector", "self_attend_refs", "anp_selector.self_attend"),
    ("anp_selector", "cross_attend", "anp_selector.cross_attend"),
    ("anp_selector", "score_rows", "anp_selector.score_head"),
    ("anp_selector", "coverage_rows", "anp_selector.coverage_head"),
    ("objective", "batch_objective", "objective.batch_objective"),
    ("trainer", "fit", "trainer.fit"),
    ("trainer", "AdamW.step", "trainer.adamw"),
    ("trainer", "panel_costs", "trainer.panel_costs"),
    ("trainer", "_validation_cost", "trainer.validation"),
    ("baselines", "GlobalBestRouter.fit", "baselines.globalbest_fit"),
    ("baselines", "KNNRouter.fit", "baselines.knn_fit"),
    ("baselines", "MLPIndexRouter.fit", "baselines.mlpindex_fit"),
    ("baselines", "RandomRouter.route", "baselines.route"),
    ("baselines", "OracleRouter.route", "baselines.route"),
    ("baselines", "GlobalBestRouter.route", "baselines.route"),
    ("baselines", "KNNRouter.route", "baselines.route"),
    ("baselines", "MLPIndexRouter.route", "baselines.route"),
    ("baselines", "ToolSelectRouter.route", "baselines.route"),
    ("evalharness", "eval_panels", "evalharness.eval_panels"),
    ("evalharness", "evaluate", "evalharness.evaluate"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("datasets", "export_dataset", "datasets.export_dataset"),
    ("cli", "run", "cli.route"),
]

# Call counters without spans, for functions called hundreds of times a step.
# A step-scoped counter counts only calls made inside a training step.
COUNT_HOOKS = [
    ("diffcore", "_make", "diffcore.nodes", True),
    ("diffcore", "matmul", "diffcore.matmul", True),
    ("anp_selector", "encode_slot", "anp_selector.encode_slot", False),
]

# A training step is the interval from a training-mode batch_forward to the
# end of the optimizer update that follows it.
STEP_OPEN = ("anp_selector", "SelectorModel.batch_forward")
STEP_CLOSE = ("trainer", "AdamW.step")

# metric -> span whose summed self time (ms) or call count it reports.
SELF_MS = {
    "simworld.generate_world_ms": "simworld.generate_world",
    "simworld.tool_predict_ms": "simworld.tool_predict",
    "simworld.tool_cost_ms": "simworld.tool_cost",
    "simworld.sample_panel_ms": "simworld.sample_panel",
    "domain.cost_ms": "domain.cost",
    "domain.align_ms": "domain.align",
    "diffcore.backward_ms": "diffcore.backward",
    "kernels.gelu_ms": "kernels.gelu",
    "kernels.softmax_rows_ms": "kernels.softmax_rows",
    "kernels.masked_softmax_ms": "kernels.masked_softmax",
    "anp_selector.batch_forward_ms": "anp_selector.batch_forward",
    "anp_selector.encode_query_ms": "anp_selector.encode_query",
    "anp_selector.encode_reference_set_ms": "anp_selector.encode_reference_set",
    "anp_selector.self_attend_ms": "anp_selector.self_attend",
    "anp_selector.cross_attend_ms": "anp_selector.cross_attend",
    "anp_selector.score_head_ms": "anp_selector.score_head",
    "anp_selector.coverage_head_ms": "anp_selector.coverage_head",
    "anp_selector.select_ms": "anp_selector.select",
    "objective.batch_objective_ms": "objective.batch_objective",
    "trainer.step_ms": "trainer.step",
    "trainer.adamw_ms": "trainer.adamw",
    "trainer.panel_costs_ms": "trainer.panel_costs",
    "trainer.validation_ms": "trainer.validation",
    "trainer.uncovered_ms": "trainer.fit",
    "baselines.globalbest_fit_ms": "baselines.globalbest_fit",
    "baselines.knn_fit_ms": "baselines.knn_fit",
    "baselines.mlpindex_fit_ms": "baselines.mlpindex_fit",
    "baselines.route_ms": "baselines.route",
    "evalharness.eval_panels_ms": "evalharness.eval_panels",
    "evalharness.evaluate_ms": "evalharness.evaluate",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "datasets.export_dataset_ms": "datasets.export_dataset",
    "cli.route_ms": "cli.route",
}
CALLS = {
    "simworld.tool_prediction_calls": "simworld.tool_prediction",
    "simworld.tool_predict_calls": "simworld.tool_predict",
    "simworld.tool_cost_calls": "simworld.tool_cost",
    "domain.cost_calls": "domain.cost",
    "anp_selector.encode_reference_set_calls": "anp_selector.encode_reference_set",
    "trainer.steps": "trainer.step",
}
KERNEL_SPANS = ("kernels.gelu", "kernels.softmax_rows", "kernels.masked_softmax")


def metric_units():
    """Unit of every per-layer metric the traced run reports."""
    units = {name: "ms" for name in SELF_MS}
    units.update({name: "count" for name in CALLS})
    units.update({
        "simworld.predictions_per_pair": "ratio",
        "diffcore.nodes_per_step": "count",
        "diffcore.matmul_calls_per_step": "count",
        "anp_selector.encode_slot_calls": "count",
        "kernels.calls": "count",
        "cli.world_ms": "ms",
        "trace.overhead_s": "s",
    })
    return units


def _resolve(module, path):
    """(owner, attribute name, raw attribute) or None when the target is gone."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = inspect.getattr_static(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, parts[-1], raw


class Tracer:
    """Span recorder; ``install`` wraps the hooks, ``uninstall`` restores them."""

    def __init__(self):
        self.spans = []
        self.stack = []       # open frames: [name, start, child seconds, key, id, parent id]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.pairs = set()
        self.step = 0
        self.step_open = False
        self.hooked = set()   # span or counter names with at least one live hook
        self._undo = []
        self._next_id = 0

    # -- spans -----------------------------------------------------------
    def enter(self, name, key=None):
        parent = self.stack[-1] if self.stack else None
        if key is None and parent is not None:
            key = parent[3]
        self._next_id += 1
        self.stack.append([name, time.perf_counter(), 0.0, key, self._next_id,
                           parent[4] if parent is not None else 0])

    def exit(self):
        end = time.perf_counter()
        name, start, child, key, sid, parent_id = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        self.spans.append((sid, name, start, end, parent_id, key))

    @contextlib.contextmanager
    def span(self, name, key=None):
        self.enter(name, key)
        try:
            yield
        finally:
            self.exit()

    # -- wrappers --------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    def _count_wrapper(self, fn, name, step_scoped):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.step_open or not step_scoped:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _predict_wrapper(self, fn):
        """tool_predict(world, tool, query, rng): also records the pair."""
        inner = self._span_wrapper(fn, "simworld.tool_predict")
        pairs = self.pairs

        @functools.wraps(fn)
        def wrapper(world, tool, query, *args, **kwargs):
            pairs.add((tool.index, query.uid))
            return inner(world, tool, query, *args, **kwargs)
        return wrapper

    def _step_open_wrapper(self, fn):
        inner = self._span_wrapper(fn, "anp_selector.batch_forward")
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments.get("training") and not tracer.step_open:
                tracer.step += 1
                tracer.step_open = True
                tracer.enter("trainer.step", key=tracer.step)
            return inner(*args, **kwargs)
        return wrapper

    def _step_close_wrapper(self, fn):
        inner = self._span_wrapper(fn, "trainer.adamw")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                if tracer.step_open and tracer.stack[-1][0] == "trainer.step":
                    tracer.step_open = False
                    tracer.exit()
        return wrapper

    def _patch(self, module, path, make_wrapper, label):
        """Wrap one target everywhere callers look it up; skip it when missing."""
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(make_wrapper(raw.__func__))
        else:
            wrapped = make_wrapper(raw)
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            # from-imports bind the same object under other modules' names
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        targets.append((mod, name))
        for obj, name in targets:
            self._undo.append((obj, name, inspect.getattr_static(obj, name)))
            setattr(obj, name, wrapped)
        self.hooked.add(label)

    def install(self):
        step_targets = {STEP_OPEN: self._step_open_wrapper, STEP_CLOSE: self._step_close_wrapper}
        for module, path, name in SPAN_HOOKS:
            special = step_targets.get((module, path))
            if special is not None:
                self._patch(module, path, special, name)
            elif (module, path) == ("simworld", "tool_predict"):
                self._patch(module, path, self._predict_wrapper, name)
            else:
                self._patch(module, path, lambda fn, n=name: self._span_wrapper(fn, n), name)
        if {"anp_selector.batch_forward", "trainer.adamw"} <= self.hooked:
            self.hooked.add("trainer.step")
        for module, path, name, step_scoped in COUNT_HOOKS:
            self._patch(module, path,
                        lambda fn, n=name, s=step_scoped: self._count_wrapper(fn, n, s), name)
        return self

    def uninstall(self):
        for obj, name, raw in reversed(self._undo):
            setattr(obj, name, raw)
        self._undo = []

    # -- results ---------------------------------------------------------
    def metrics(self):
        """Per-layer metric values; a metric missing a hook it needs is left
        out and named in the second return value."""
        out = {}
        absent = []

        def put(metric, needs, value):
            if all(n in self.hooked for n in needs):
                out[metric] = value
            else:
                absent.append(metric)

        for metric, span in SELF_MS.items():
            put(metric, [span], 1e3 * self.self_s.get(span, 0.0))
        for metric, span in CALLS.items():
            put(metric, [span], self.calls.get(span, 0))
        steps = self.calls.get("trainer.step", 0)
        predicted = self.calls.get("simworld.tool_predict", 0)
        put("simworld.predictions_per_pair", ["simworld.tool_predict"],
            predicted / len(self.pairs) if self.pairs else 0.0)
        put("diffcore.nodes_per_step", ["diffcore.nodes", "trainer.step"],
            self.counts.get("diffcore.nodes", 0) / steps if steps else 0.0)
        put("diffcore.matmul_calls_per_step", ["diffcore.matmul", "trainer.step"],
            self.counts.get("diffcore.matmul", 0) / steps if steps else 0.0)
        put("anp_selector.encode_slot_calls", ["anp_selector.encode_slot"],
            self.counts.get("anp_selector.encode_slot", 0))
        kernel_hooks = [k for k in KERNEL_SPANS if k in self.hooked]
        if kernel_hooks:
            out["kernels.calls"] = sum(self.calls.get(k, 0) for k in kernel_hooks)
        else:
            absent.append("kernels.calls")
        put("cli.world_ms", ["cli.route", "simworld.generate_world"], self._cli_world_ms())
        return out, absent

    def _cli_world_ms(self):
        """Mean time of the world generation inside one CLI call."""
        by_id = {s[0]: s for s in self.spans}
        cli_calls = self.calls.get("cli.route", 0)
        if not cli_calls:
            return 0.0
        total = 0.0
        for sid, name, start, end, parent, key in self.spans:
            if name != "simworld.generate_world":
                continue
            while parent:
                if by_id[parent][1] == "cli.route":
                    total += end - start
                    break
                parent = by_id[parent][4]
        return 1e3 * total / cli_calls

    def write(self, path):
        """One JSON array per span: id, name, start, end, parent id, key."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
