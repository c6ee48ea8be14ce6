"""Evaluation harness: paired-panel routing over a split, per-task metrics,
and Random->Oracle gap-closure analysis.

``evaluate`` routes a split in chunks of ``CHUNK`` queries with each router's
``route_batch`` and reads the chosen tools' costs and outputs with one
``SimWorld.tool_outcomes`` gather per chunk into split-long arrays. The
per-task aggregation then runs over those arrays in split order, so a report
does not depend on the chunk size.

``keyed_panels`` draws the panel of every query of a list from its own
keyed stream, ``keyed_rng(seed, key, uid)``: for evaluation (``eval_panels``,
key ``PANEL_KEY``) and for the trainer's validation panels. A chunk's first
attempts come from the streams' words as arrays; only a query whose first
attempt has no valid tool builds its generator and calls ``sample_panel``.
The panels are those of one ``sample_panel`` call per query.
"""

from dataclasses import dataclass, field

import numpy as np

from .domain import CATEGORICAL_FAMILIES, TaskFamily
from .simworld import BATCH_SEEDING_MIN, keyed_rngs, panels_of, sample_panel

CHUNK = 64   # queries per batched routing call, in evaluation and validation
PANEL_KEY = 50331653   # second entry of every evaluation panel RNG key


class Router:
    """A router maps (labeled query, panel) items to slots of their panels.

    Subclasses define ``name`` and ``route_batch(items, rng)``, which routes
    a list of items in order with the shared ``rng``; ``route`` is its
    one-item call.
    """
    name = "Router"

    def route(self, lq, panel, rng):
        return self.route_batch([(lq, panel)], rng)[0]

    def route_batch(self, items, rng):
        raise NotImplementedError


def route_batch(router, items, rng):
    """The slots ``router`` routes ``items`` to. Any object with ``name`` and
    ``route`` can be evaluated; one without ``route_batch`` routes the items
    one by one."""
    batch = getattr(router, "route_batch", None)
    if batch is not None:
        return batch(items, rng)
    return [router.route(lq, panel, rng) for lq, panel in items]


@dataclass
class TaskMetrics:
    mean_cost: float
    metrics: dict
    count: int


@dataclass
class MetricsReport:
    router: str
    seed: int
    query_count: int
    mean_cost: float
    per_task: dict = field(default_factory=dict)   # task -> TaskMetrics
    histogram: dict = field(default_factory=dict)  # tool id -> selections
    gap_closure: float = None
    gap_closure_per_task: dict = field(default_factory=dict)


def eval_panels(world, split, m, seed):
    """Per-query panels keyed by the query uid; identical for every router
    evaluated with the same (world, split, m, seed): ``keyed_panels`` of the
    split with key ``PANEL_KEY``."""
    return keyed_panels(world, world.splits[split], m, seed, PANEL_KEY)


def keyed_panels(world, lqs, m, seed, key):
    """The panel ``sample_panel`` draws for each labeled query of ``lqs``
    from its population with ``keyed_rng(seed, key, uid)``.

    The RNGs are seeded ``CHUNK`` queries at a time, which keeps the
    seeding temporaries of a large split small. A chunk of at least
    ``BATCH_SEEDING_MIN`` queries draws every query's first attempt, m
    ``integers`` draws, from the low then high halves of its generator's
    first ``ceil(m / 2)`` words (``_KeyedRngs.words``), as numpy's buffered
    32-bit draws take them. A query whose first attempt holds no valid tool,
    or one of whose draws numpy might redraw, goes through ``sample_panel``
    with its generator, which replays the same stream from its start, so
    every panel is the one ``sample_panel`` gives."""
    panels = []
    for lo in range(0, len(lqs), CHUNK):
        part = lqs[lo:lo + CHUNK]
        rngs = keyed_rngs([(seed, key, lq.query.uid) for lq in part])
        drawn = (_first_attempts(world, part, m, rngs)
                 if len(part) >= BATCH_SEEDING_MIN and m >= 2 else [None] * len(part))
        panels += [panel if panel is not None else
                   sample_panel(world.populations[lq.query.task], lq.query, m, rngs[i])
                   for i, (lq, panel) in enumerate(zip(part, drawn))]
    return panels


def _first_attempts(world, lqs, m, rngs):
    """Per query, the panel of its first attempt drawn from words, or None
    where ``sample_panel`` must draw it."""
    out = [None] * len(lqs)
    tasks = np.array([lq.query.task for lq in lqs])
    picks, redraw = rngs.first_integers([len(world.populations[t]) for t in tasks.tolist()], m)
    for task in np.unique(tasks).tolist():
        population = world.populations[task]
        if not population:
            continue
        supported = np.array([task in tool.supported_tasks for tool in population])
        rows = np.flatnonzero((tasks == task) & ~redraw)
        rows = rows[supported[picks[rows]].any(axis=1)]
        for row, panel in zip(rows.tolist(), panels_of(population, task, picks[rows])):
            out[row] = panel
    return out


def _macro_classification(confusion):
    """Macro accuracy/precision/recall/F1 from one confusion matrix."""
    k = confusion.shape[0]
    total = confusion.sum()
    accs, precs, recs, f1s = [], [], [], []
    for c in range(k):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        tn = total - tp - fp - fn
        accs.append((tp + tn) / total if total else 0.0)
        p = tp / (tp + fp) if (tp + fp) else 0.0
        r = tp / (tp + fn) if (tp + fn) else 0.0
        precs.append(p)
        recs.append(r)
        f1s.append(2 * p * r / (p + r) if (p + r) else 0.0)
    return {"accuracy": float(np.mean(accs)), "precision": float(np.mean(precs)),
            "recall": float(np.mean(recs)), "f1": float(np.mean(f1s))}


def evaluate(router, world, split, m, seed, panels=None):
    """Route every query of a split once and aggregate costs and metrics.
    ``panels``, one per query of the split and of its task, default to
    ``eval_panels``; others raise ``ValueError``."""
    records = world.splits[split]
    if not records:
        raise ValueError(f"empty split {split!r}")
    if panels is None:
        panels = eval_panels(world, split, m, seed)
    if len(panels) != len(records):
        raise ValueError(f"evaluate: {len(panels)} panels for the {len(records)} queries "
                         f"of split {split!r}")
    for i, (lq, panel) in enumerate(zip(records, panels)):
        if panel.task != lq.query.task:
            raise ValueError(f"evaluate: panel {i} is of task {panel.task}, query "
                             f"{lq.query.uid} of split {split!r} of task {lq.query.task}")
    rng = np.random.default_rng([seed, 86028121])
    items = list(zip(records, panels))
    costs = np.empty(len(records))
    labels = np.zeros(len(records), dtype=np.int64)   # predicted canonical label
    tools = []
    for lo in range(0, len(items), CHUNK):
        chunk = items[lo:lo + CHUNK]
        chosen = [panel.tools[slot]
                  for (_, panel), slot in zip(chunk, route_batch(router, chunk, rng))]
        tools += chosen
        lqs = [lq for lq, _ in chunk]
        for group in world.outcomes([lq.query for lq in lqs], chosen, lqs=lqs):
            costs[lo + group.positions] = group.costs
            if world.task_spec(group.task).family in CATEGORICAL_FAMILIES:
                labels[lo + group.positions] = group.outputs.argmax(axis=1)
    histogram = {}
    for tool in tools:
        histogram[tool.tool_id] = histogram.get(tool.tool_id, 0) + 1
    tasks = np.array([lq.query.task for lq in records])

    per_task = {}
    all_costs = []
    for task in sorted(set(tasks.tolist())):
        spec = world.task_spec(task)
        rows = np.flatnonzero(tasks == task)
        task_costs = costs[rows]
        all_costs.append(task_costs)
        if spec.family in CATEGORICAL_FAMILIES:
            k = len(spec.space.labels)
            truths = [records[i].gt.label if spec.family is TaskFamily.CLASSIFICATION
                      else records[i].gt.option for i in rows.tolist()]
            conf = np.zeros((k, k), dtype=np.int64)
            np.add.at(conf, (truths, labels[rows]), 1)
            metrics = _macro_classification(conf)
            if spec.family is TaskFamily.MULTIPLE_CHOICE:
                metrics = {"accuracy": float(np.trace(conf) / conf.sum())}
        elif spec.family is TaskFamily.GROUNDING:
            metrics = {"mean_iou": float(np.mean(1.0 - task_costs))}
        else:
            metrics = {"findings_f1": float(np.mean(1.0 - task_costs))}
        per_task[task] = TaskMetrics(mean_cost=float(np.mean(task_costs)),
                                     metrics=metrics, count=len(task_costs))
    return MetricsReport(router=router.name, seed=seed, query_count=len(records),
                         mean_cost=float(np.mean(np.concatenate(all_costs))), per_task=per_task,
                         histogram=histogram)


def gap_closure(c_method, c_random, c_oracle):
    """(random - method) / (random - oracle); None when the gap is empty."""
    if c_random <= c_oracle:
        return None
    return (c_random - c_method) / (c_random - c_oracle)


def compare(routers, world, split, m, seed):
    """Evaluate routers on shared panels; attach gap closures when both
    Random and Oracle are present."""
    panels = eval_panels(world, split, m, seed)
    reports = {}
    for router in routers:
        reports[router.name] = evaluate(router, world, split, m, seed, panels=panels)
    rnd = reports.get("Random")
    orc = reports.get("Oracle")
    if rnd is not None and orc is not None:
        for rep in reports.values():
            rep.gap_closure = gap_closure(rep.mean_cost, rnd.mean_cost, orc.mean_cost)
            for task, tm in rep.per_task.items():
                rep.gap_closure_per_task[task] = gap_closure(
                    tm.mean_cost, rnd.per_task[task].mean_cost,
                    orc.per_task[task].mean_cost)
    return reports


def machine_records(reports):
    """One machine-readable line per (router, task); round-trips exactly."""
    lines = []
    for name in sorted(reports):
        rep = reports[name]
        for task in sorted(rep.per_task):
            tm = rep.per_task[task]
            parts = [f"router={name}", f"task={task}",
                     f"count={tm.count}", f"mean_cost={tm.mean_cost!r}"]
            for key in sorted(tm.metrics):
                parts.append(f"metric_{key}={tm.metrics[key]!r}")
            gc = rep.gap_closure_per_task.get(task)
            if gc is not None:
                parts.append(f"gap_closure={gc!r}")
            lines.append(" ".join(parts))
    return lines


def render_report(reports):
    """Fixed-width table: one row per router, columns per task."""
    names = list(reports)
    tasks = sorted(next(iter(reports.values())).per_task)
    header = ["router".ljust(12), "cost".rjust(8), "gapcl".rjust(8)]
    for t in tasks:
        header.append(f"t{t}:cost".rjust(10))
        header.append(f"t{t}:metric".rjust(11))
    lines = ["  ".join(header)]
    for name in names:
        rep = reports[name]
        gc = "-" if rep.gap_closure is None else f"{rep.gap_closure:.3f}"
        row = [name.ljust(12), f"{rep.mean_cost:.4f}".rjust(8), gc.rjust(8)]
        for t in tasks:
            tm = rep.per_task[t]
            primary = sorted(tm.metrics)[0]
            row.append(f"{tm.mean_cost:.4f}".rjust(10))
            row.append(f"{tm.metrics[primary]:.4f}".rjust(11))
        lines.append("  ".join(row))
    return "\n".join(lines) + "\n"
