"""Synthetic agentic tool-zoo environment.

Generates task families with canonical label spaces, tool populations with
region-dependent competence and partial task support, labeled query splits,
frozen per-tool reference sets, and deterministic tool predictions.

Tool competence is a radial function of the distance between the query's
image features and the tool's expertise centroid, which makes the identity
of the per-query best tool vary across the feature space.

Tool outputs. A tool's output on a query is drawn from the pair's own RNG,
``keyed_rng(world seed, PREDICTION_KEY, tool index, query uid)``, so it is
the same whatever batch computes it. ``_draw`` is the one definition: for a
batch of pairs of one task it computes competences as arrays, makes each
pair's draws from its generator in a fixed order (categorical: ``random()``
then maybe ``integers``; report: ``random(n_true + 1)`` then maybe
``integers``; grounding: ``standard_normal(4)``), and builds the canonical
outputs from the draws as arrays: aligned probabilities (read from a
per-(tool, task) table of aligned rows), boxes, or pair-vocabulary
indicators. ``_score`` turns a batch of outputs into costs with the
arithmetic of ``domain.cost``. ``tool_predict`` is the one-pair call and
returns an ``AlignedPrediction``.

Outcome tables. ``SimWorld`` keeps one ``_OutcomeTable`` per task: rows are
the task's queries in the splits, split by split in split order; columns are
``populations[task]``. Per pair it stores a ``filled`` level (nothing, the
output, the output and its cost), the cost and the canonical output.
Nothing is filled up front: a reader's missing pairs are filled with one
``_draw`` pass over them, and scored only for readers that ask for costs.
Readers locate a query's row through the runs of consecutive uids that
``generate_world`` assigns (and check that the row holds that very query
object), and a tool's column through its index (and identity). A pair
without a row or column -- a query in no split, a tool outside the task's
population -- is computed by the same ``_draw`` and not stored, so the
tables never outgrow the splits. ``SimWorld.tool_outcomes`` is the batched
reader; ``cost_array`` (``tool_cost`` is its one-pair call) reads costs
through it, ``cost_matrix`` fills and gathers a dense block of table pairs
directly (finding each tool's column and each query's row once), and
``tool_prediction`` reads one pair's output through it. A read
whose pairs share one query object (a one-query route: Oracle's ``route``,
the selector's ``predict_fn`` in a one-item forward, ``tool_prediction``,
``tool_cost``) finds that query's row once and reads it with
``_OutcomeTable.fill_row``. The tables are fields the dataclass does not
take as arguments, so ``dataclasses.replace`` of a world gives a copy with
empty tables.

``keyed_rngs`` seeds a batch of keyed RNGs at once. For at least
``BATCH_SEEDING_MIN`` keys of at most four entries, each below 2**32 (every
prediction key of a seed and uids below 2**32), the keys' ``SeedSequence``
entropy pools are mixed as a column pass over the batch (``_mix_pools``,
numpy's ``mix_entropy`` steps); other batches use numpy's ``SeedSequence``
per key. ``generate_state``'s hash of the pools runs as one array pass, and
each generator is then seeded with its row through numpy's
``ISeedSequence`` hook, which gives the same state, so the same stream, as
``keyed_rng``.

Keyed streams as arrays. A batch of at least ``BATCH_SEEDING_MIN`` streams
need not build its generators: ``_pcg64_words`` computes the first words of
every stream from the states with uint64 array arithmetic (numpy's PCG64
seeding, 128-bit LCG step and XSL-RR output), ``_uniforms`` turns a word
into ``random()`` and ``_bounded`` a 32-bit half into ``integers(k)``
(Lemire's method, as numpy's buffered 32-bit draws compute it). A draw that
numpy's rejection loop might redraw is flagged, and its stream is drawn by
its generator. ``_draw`` makes the categorical and report draws of such a
batch this way, and ``evalharness.keyed_panels`` the first attempt of each
query's panel (``_KeyedRngs.first_integers``).

World generation in array passes. ``sample_queries`` draws a block of one
task's queries: per query one ``integers`` and one ``standard_normal`` draw
of the feature and hint noise together (the same values as the two draws
it replaces, since the normal sampler consumes the stream value by value),
then the features, hints and ground truths of the block as array passes,
each element computed by the same operations as for one query: grounding
boxes by one stacked mat-vec per map (``_boxes``), report pair sets and
hint means from one ``_report_pair_indices`` call. ``sample_query`` is its
one-query call. ``build_reference_sets`` seeds every element's prediction
RNG in one batch and reads the pool queries' arrays from one ``_Rows`` per
pool, then makes one ``tool_predict`` call per element.
``_calibrate_box_noise`` bisects all kappas side by side, one array pass a
step. Every generated value is the one the per-query code gives.
"""

import bisect
import functools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .domain import (
    CATEGORICAL_FAMILIES,
    AlignedPrediction,
    CanonicalLabelSpace,
    GroundTruth,
    LabeledQuery,
    Panel,
    Query,
    TaskFamily,
    Tool,
    align,
    iou,
    null_prediction,
    validity,
)
from .errors import ConfigError, NoValidPanelError

PREDICTION_KEY = 104729   # second entry of every per-(tool, query) prediction RNG key
# Below this many keys numpy's own SeedSequence per key mixes the entropy
# pools faster than the fixed cost of the column pass of _mix_pools, and
# building one generator per stream draws faster than the fixed cost of
# the word arrays (crossovers measured at about 16 fills and 8 panels).
BATCH_SEEDING_MIN = 20
# Levels of an outcome table's ``filled`` array: nothing yet, the output,
# the output and its cost.
EMPTY, DRAWN, SCORED = 0, 1, 2
# Queries per sampled block in generate_world. Whole (split, task) blocks of
# 1250 queries make temporaries above glibc's 128 KB mmap threshold; they
# raised peak RSS on the train benchmark by about 1 MB.
QUERY_BLOCK = 256
# Queries per cost_matrix pass: bounds the temporaries of a dense fill.
DENSE_ROWS = 512
# Whole-panel draws sample_panel makes before it gives up.
PANEL_ATTEMPTS = 100
# Largest (finding, location) pair vocabulary a config may ask for: a report
# task's vocabulary, its outputs and its per-pair arrays are built whole, so
# a huge one fails on memory instead of generating a world.
MAX_PAIR_VOCAB = 1024
# Largest value a config may give each of these sizes: splits, tools and
# label spaces are generated whole, so a huge size would run until killed or
# overflow. The benchmark's largest split is 12,000 queries.
MAX_SIZES = {"n_train": 200_000, "n_val": 200_000, "n_test": 200_000, "n_ref_pool": 200_000,
             "tools_per_task": 1024, "labels_per_task": 256, "mcq_options": 256}

FAMILY_CYCLE = (
    TaskFamily.CLASSIFICATION,
    TaskFamily.GROUNDING,
    TaskFamily.REPORT_GENERATION,
    TaskFamily.MULTIPLE_CHOICE,
)


@dataclass
class WorldConfig:
    n_tasks_per_family: int = 1
    d_x: int = 16
    d_q: int = 8
    tools_per_task: int = 12
    labels_per_task: int = 5
    mcq_options: int = 4
    n_findings: int = 6
    n_locations: int = 4
    p_max: float = 0.95
    p_floor: float = -1.0  # <0 means per-task default (1/|Y_t|, or 0.05)
    sharpness: float = 4.0
    support_prob: float = 0.8
    n_train: int = 5000
    n_val: int = 500
    n_test: int = 1000
    n_ref_pool: int = 2000
    feature_noise: float = 0.3
    hint_noise: float = 0.3
    ref_size: int = 16
    clipped_xent: bool = False
    n_tasks_total: int = 0  # 0 -> one task per family cycle entry

    def __post_init__(self):
        """Reject, with ``ConfigError``, values the generator cannot use."""
        for name in ("n_tasks_per_family", "d_x", "d_q", "tools_per_task", "labels_per_task",
                     "mcq_options", "n_findings", "n_locations", "n_train", "n_val", "n_test",
                     "n_ref_pool", "ref_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"world config: {name} must be at least 1, "
                                  f"got {getattr(self, name)}")
        for name, bound in MAX_SIZES.items():
            if getattr(self, name) > bound:
                raise ConfigError(f"world config: {name} must be at most {bound}, "
                                  f"got {getattr(self, name)}")
        if self.n_tasks_total < 0:
            raise ConfigError(f"world config: n_tasks_total must be 0 (one task per family) "
                              f"or more, got {self.n_tasks_total}")
        if self.d_q - self.n_tasks() < 2:
            raise ConfigError(f"world config: d_q ({self.d_q}) must exceed the task count "
                              f"({self.n_tasks()}) by at least 2")
        if self.n_ref_pool < self.n_tasks():
            raise ConfigError(f"world config: n_ref_pool ({self.n_ref_pool}) must be at least the "
                              f"task count ({self.n_tasks()}), or a task's reference pool is empty")
        if self.n_findings * self.n_locations < 5:
            raise ConfigError("world config: n_findings * n_locations must be at least 5, "
                              "the number of report centroids")
        if self.n_findings * self.n_locations > MAX_PAIR_VOCAB:
            raise ConfigError(f"world config: n_findings * n_locations must be at most "
                              f"{MAX_PAIR_VOCAB}, got {self.n_findings * self.n_locations}")
        for name in ("p_max", "p_floor", "sharpness", "support_prob", "feature_noise",
                     "hint_noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"world config: {name} must be finite, got {getattr(self, name)}")
        for name in ("feature_noise", "hint_noise"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"world config: {name} must be non-negative, "
                                  f"got {getattr(self, name)}")
        if not 0.0 < self.support_prob <= 1.0:
            raise ConfigError(f"world config: support_prob must lie in (0, 1], "
                              f"got {self.support_prob}")

    def n_tasks(self):
        if self.n_tasks_total > 0:
            return self.n_tasks_total
        return 4 * self.n_tasks_per_family


@dataclass
class TaskSpec:
    task: int
    family: TaskFamily
    space: CanonicalLabelSpace
    centroids: np.ndarray          # (K, d_x) query-class centroids
    hint_codes: np.ndarray = None  # codes mixed into the instruction features
    box_center_map: np.ndarray = None
    box_size_map: np.ndarray = None
    centroid_pairs: tuple = ()     # report: canonical pair per centroid
    centroid_vocab: np.ndarray = None   # report: pair-vocabulary index per centroid
    p_floor: float = 0.05
    # grounding noise calibration: kappa grid -> perturbation scale
    calib_kappa: np.ndarray = None
    calib_scale: np.ndarray = None


@dataclass
class SimTool(Tool):
    mu: np.ndarray = None
    beta: float = 4.0
    pmax: float = 0.95
    home_task: int = 0


@dataclass
class TaskOutcomes:
    """Outcomes of the pairs of one task in a ``tool_outcomes`` batch.

    ``positions`` are the pairs' places in the batch. ``outputs`` holds one
    canonical output per pair: aligned probabilities ``(n, K)`` for
    categorical tasks, boxes ``(n, 4)`` for grounding, pair-vocabulary
    indicators ``(n, V)`` for reports; the null output where the tool does
    not support the task (``valid`` False). ``costs`` is NaN there, and
    everywhere when no ground truth was given.
    """
    task: int
    positions: np.ndarray
    valid: np.ndarray
    outputs: np.ndarray
    costs: np.ndarray


@dataclass
class SimWorld:
    cfg: WorldConfig
    seed: int
    tasks: list
    populations: dict              # task -> list[SimTool]
    all_tools: list
    splits: dict                   # name -> list[LabeledQuery]
    ref_pools: dict                # task -> list[LabeledQuery]
    # task -> _OutcomeTable and task -> _TaskTools of all_tools, built on first
    # use; not init fields, so dataclasses.replace starts a copy with none
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tool_arrays: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # uid -> query of the splits and reference pools, built on first use
    _queries_by_uid: dict = field(default=None, init=False, repr=False, compare=False)

    def task_spec(self, task):
        return self.tasks[task]

    def split_by_task(self, split):
        out = {spec.task: [] for spec in self.tasks}
        for lq in self.splits[split]:
            out[lq.query.task].append(lq)
        return out

    def query_of_uid(self, uid):
        """The world's query with this uid, None if none: the first over the
        splits, then the reference pools, each in order."""
        if self._queries_by_uid is None:
            index = {}
            for records in (*self.splits.values(), *self.ref_pools.values()):
                for lq in records:
                    index.setdefault(lq.query.uid, lq.query)
            self._queries_by_uid = index
        return self._queries_by_uid.get(uid)

    def _table(self, task):
        """The outcome table of a task, built on first use."""
        table = self._tables.get(task)
        if table is None:
            table = self._tables[task] = _OutcomeTable(
                self.task_spec(task), self.populations.get(task, []),
                [lq for records in self.splits.values() for lq in records
                 if lq.query.task == task])
        return table

    def _tool_rows(self, spec, tools):
        """(tool arrays, rows) of ``tools`` on a task: rows of the world's
        tools in arrays built once per task, or arrays of ``tools`` alone
        when one of them is not among the world's tools."""
        arrays = self._tool_arrays.get(spec.task)
        if arrays is None:
            arrays = self._tool_arrays[spec.task] = _TaskTools(spec, self.all_tools)
        if len(tools) == 1:
            row = arrays.row_of(tools[0])
            return (arrays, np.array([row])) if row >= 0 else (_TaskTools(spec, list(tools)),
                                                                _FIRST_ROW)
        rows = arrays.rows(tools)
        if (rows < 0).any():
            return _TaskTools(spec, list(tools)), np.arange(len(tools))
        return arrays, rows

    def tool_outcomes(self, tools, queries, gts=None):
        """Outcomes of ``tools[i]`` on ``queries[i]``, one ``TaskOutcomes``
        per task in order of first appearance. With ``gts`` (labeled
        queries) the costs are filled in too.

        Tabled pairs are read from the task's table after one ``_draw`` pass
        over the missing ones; a pair with ``gts`` is tabled only when
        ``gts[i]`` is the split's own labeled query, whose ground truth the
        table scores against. Other pairs are computed, not stored.
        """
        tasks = [query.task for query in queries]
        if tasks and tasks.count(tasks[0]) == len(tasks):
            groups = {tasks[0]: None}
        else:
            groups = {}
            for n, task in enumerate(tasks):
                groups.setdefault(task, []).append(n)
        out = []
        for task, idx in groups.items():
            if idx is None:
                out.append(self._task_outcomes(task, np.arange(len(tools)), tools, queries, gts))
            else:
                out.append(self._task_outcomes(
                    task, np.array(idx), [tools[n] for n in idx], [queries[n] for n in idx],
                    None if gts is None else [gts[n] for n in idx]))
        return out

    def _task_outcomes(self, task, positions, tools, queries, lqs):
        """``TaskOutcomes`` of the pairs of one task. Pairs of one query
        object whose tools are all valid and in the population are read
        from the query's table row (``_OutcomeTable.fill_row``); any other
        read finds each pair's row and column, fills the tabled pairs with
        ``_OutcomeTable.fill`` and computes the rest without storing them."""
        spec = self.task_spec(task)
        n = len(tools)
        table = self._table(task)
        level = DRAWN if lqs is None else SCORED
        query, lq = queries[0], None if lqs is None else lqs[0]
        if all(q is query for q in queries) and (lqs is None or all(o is lq for o in lqs)):
            row = table.row_of(query, lq)
            cols = [table.tools.row_of(tool) if row >= 0 and task in tool.supported_tasks
                    else -1 for tool in tools]
            if min(cols) >= 0:
                table.fill_row(self, row, cols, level)
                return TaskOutcomes(task, positions, np.ones(n, dtype=bool),
                                    table.outputs[row, cols], table.costs[row, cols])
            rows, cols = np.full(n, row), np.array(cols)
        else:
            rows, cols = table.rows(queries, lqs), table.tools.rows(tools)
        valid = np.fromiter((task in tool.supported_tasks for tool in tools), bool, n)
        outputs = np.empty((n,) + table.outputs_shape, table.outputs_dtype)
        costs = np.full(n, np.nan)
        tabled = valid & (rows >= 0) & (cols >= 0)
        if tabled.any():
            rows, cols = rows[tabled], cols[tabled]
            table.fill(self, rows, cols, level)
            outputs[tabled] = table.outputs[rows, cols]
            costs[tabled] = table.costs[rows, cols]
        loose = np.flatnonzero(valid & ~tabled)
        if len(loose):
            arrays, tool_rows = self._tool_rows(spec, [tools[i] for i in loose])
            data = _Rows(spec, [queries[i] for i in loose],
                         None if lqs is None else [lqs[i].gt for i in loose])
            rngs = _pair_rngs(self.seed, arrays.index[tool_rows],
                              [queries[i].uid for i in loose])
            outputs[loose] = _draw(self, spec, arrays, tool_rows, data, np.arange(len(loose)), rngs)
            if lqs is not None:
                costs[loose] = _score(self, spec, outputs[loose], data, np.arange(len(loose)))
        if not valid.all():
            outputs[~valid] = _null_output(spec)
        return TaskOutcomes(task, positions, valid, outputs, costs)

    def cost_array(self, tools, lqs):
        """Realized cost of ``tools[i]`` on labeled query ``lqs[i]`` as one
        array, NaN where the tool does not support the query's task."""
        groups = self.tool_outcomes(tools, [lq.query for lq in lqs], lqs)
        if len(groups) == 1:         # one task: its costs are the batch's, in order
            return groups[0].costs
        out = np.full(len(tools), np.nan)
        for group in groups:
            out[group.positions] = group.costs
        return out

    def cost_matrix(self, lqs, tools):
        """``(len(lqs), len(tools))`` costs of every tool on every labeled
        query, NaN where a tool does not support the query's task.

        Per task, the tools' validity and table columns are found once and
        the queries' table rows once; the tabled pairs are filled
        ``DENSE_ROWS`` queries at a time and gathered, and the rest (queries
        or tools the table does not hold) are read by ``cost_array``.
        """
        tools = list(tools)
        out = np.full((len(lqs), len(tools)), np.nan)
        by_task = {}
        for n, lq in enumerate(lqs):
            by_task.setdefault(lq.query.task, []).append(n)
        for task, idx in by_task.items():
            task_lqs = [lqs[n] for n in idx]
            idx = np.array(idx)
            table = self._table(task)
            valid = np.array([task in tool.supported_tasks for tool in tools], dtype=bool)
            cols = table.tools.rows(tools)
            rows = table.rows([lq.query for lq in task_lqs], task_lqs)
            for lo in range(0, len(idx), DENSE_ROWS):
                part = rows[lo:lo + DENSE_ROWS]
                tabled = (part >= 0)[:, None] & (valid & (cols >= 0))
                r, c = np.nonzero(tabled)
                if len(r):
                    table.fill(self, part[r], cols[c], SCORED)
                    out[idx[lo + r], c] = table.costs[part[r], cols[c]]
                r, c = np.nonzero(valid & ~tabled)
                if len(r):
                    out[idx[lo + r], c] = self.cost_array([tools[j] for j in c.tolist()],
                                                          [task_lqs[lo + i] for i in r.tolist()])
        return out

    def tool_prediction(self, tool, query):
        """The aligned prediction of a tool on a query: the one-pair
        ``tool_outcomes`` read, tabled when the pair has a place in the
        outcome table, else drawn with the pair's keyed RNG."""
        spec = self.task_spec(query.task)
        if query.task not in tool.supported_tasks:
            return null_prediction(spec.space)
        return _prediction(spec, self.tool_outcomes([tool], [query])[0].outputs[0])

    def tool_cost(self, tool, lq):
        """The one-pair ``cost_array``: None when the tool is invalid."""
        c = self.cost_array([tool], [lq])[0]
        return None if c != c else float(c)


class _OutcomeTable:
    """Outcomes of a task's population (columns) on the task's split queries
    (rows, split by split in split order): ``filled`` flags, ``costs`` and
    canonical ``outputs``, allocated on the first fill and filled lazily."""

    def __init__(self, spec, population, lqs):
        self.spec = spec
        self.lqs = lqs
        self.population = population
        self.outputs_shape, self.outputs_dtype = _output_layout(spec)
        n = len(lqs)
        self.uid = np.array([lq.query.uid for lq in lqs], dtype=np.int64)
        # runs of consecutive uids, sorted by first uid
        firsts = np.flatnonzero(np.diff(self.uid, prepend=-2) != 1) if n else np.zeros(0, int)
        lengths = np.diff(np.append(firsts, n))
        order = np.argsort(self.uid[firsts], kind="stable")
        self._run_uid = self.uid[firsts][order]
        self._run_row = firsts[order]
        self._run_len = lengths[order]
        self._runs = (self._run_uid.tolist(), self._run_row.tolist(), self._run_len.tolist())
        self._query_ids = np.fromiter(map(id, (lq.query for lq in lqs)), np.int64, n)
        self._lq_ids = np.fromiter(map(id, lqs), np.int64, n)
        self.filled = None
        self.data = None

    @cached_property
    def tools(self):
        """The columns' ``_TaskTools``."""
        return _TaskTools(self.spec, list(self.population))

    def rows(self, queries, lqs):
        """Row of each query, -1 where it has none: the query (and, when
        ``lqs`` is given, the labeled query) must be the row's own object."""
        n = len(queries)
        if not len(self._run_uid):
            return np.full(n, -1)
        try:
            uids = np.array([query.uid for query in queries], dtype=np.int64)
        except OverflowError:
            return np.full(n, -1)
        run = np.searchsorted(self._run_uid, uids, side="right") - 1
        offset = uids - self._run_uid[run]
        rows = np.where((run >= 0) & (offset < self._run_len[run]), self._run_row[run] + offset, -1)
        if lqs is None:
            same = self._query_ids[rows] == np.fromiter(map(id, queries), np.int64, n)
        else:
            same = self._lq_ids[rows] == np.fromiter(map(id, lqs), np.int64, n)
        return np.where(same & (rows >= 0), rows, -1)

    def row_of(self, query, lq=None):
        """``rows`` of one query, as a Python int."""
        uids, firsts, lengths = self._runs
        run = bisect.bisect_right(uids, query.uid) - 1
        if run < 0 or query.uid - uids[run] >= lengths[run]:
            return -1
        row = firsts[run] + query.uid - uids[run]
        own = self.lqs[row]
        return row if (own is lq if lq is not None else own.query is query) else -1

    def fill(self, world, rows, cols, level=SCORED):
        """Bring the pairs (rows, cols) to ``filled`` level ``level``: the
        distinct pairs below it, found with array operations, are filled in
        one ``_fill_missing`` pass. Prediction-only readers (``DRAWN``) leave
        costs unscored."""
        filled = self._levels()
        missing = filled[rows, cols] < level
        if not missing.any():
            return
        width = filled.shape[1]
        rows, cols = np.divmod(np.unique(rows[missing] * width + cols[missing]), width)
        empty = filled[rows, cols] == EMPTY
        self._fill_missing(world, rows, cols, level, None if empty.all() else empty)

    def fill_row(self, world, row, cols, level):
        """``fill`` of the pairs (row, c) of one row, ``cols`` a list of
        columns: the row's levels are read once, as Python ints, and its
        distinct columns below ``level`` filled in one ``_fill_missing``
        pass, without ``fill``'s array bookkeeping."""
        levels = self._levels()[row].tolist()
        missing = sorted({col for col in cols if levels[col] < level})
        if missing:
            empty = [levels[col] == EMPTY for col in missing]
            self._fill_missing(world, np.full(len(missing), row), np.array(missing), level,
                               None if all(empty) else np.array(empty))

    def _levels(self):
        """The ``filled`` levels, allocated with the costs and outputs on
        first use."""
        if self.filled is None:
            shape = (len(self.lqs), len(self.tools.tools))
            self.filled = np.zeros(shape, dtype=np.int8)
            self.costs = np.zeros(shape)
            self.outputs = np.zeros(shape + self.outputs_shape, self.outputs_dtype)
        return self.filled

    def _fill_missing(self, world, rows, cols, level, empty):
        """Bring distinct pairs below ``level`` to it: outputs by ``_draw``
        for the pairs at ``EMPTY`` (the mask ``empty``, None when all are),
        then, for ``SCORED``, costs by ``_score``. The query arrays are
        built on the first call."""
        if self.data is None:
            self.data = _Rows(self.spec, [lq.query for lq in self.lqs],
                              [lq.gt for lq in self.lqs], boxes_from_gt=True)
        if empty is None:
            outputs = self._draw_into(world, rows, cols)
        else:
            if empty.any():
                self._draw_into(world, rows[empty], cols[empty])
            outputs = self.outputs[rows, cols]
        if level == SCORED:
            self.costs[rows, cols] = _score(world, self.spec, outputs, self.data, rows)
        self.filled[rows, cols] = level

    def _draw_into(self, world, rows, cols):
        rngs = _pair_rngs(world.seed, self.tools.index[cols], self.uid[rows])
        outputs = _draw(world, self.spec, self.tools, cols, self.data, rows, rngs)
        self.outputs[rows, cols] = outputs
        return outputs


class _TaskTools:
    """Arrays of the parameters of a list of tools on one task, one row per
    tool: what ``_draw`` reads. For a categorical task also each tool's
    canonical-to-tool label map and its aligned output for every tool label
    (``align`` of each row of ``_raw_label_rows``), built once here."""

    def __init__(self, spec, tools):
        task = spec.task
        n = len(tools)
        self.tools = tools
        self.index = np.array([tool.index for tool in tools], dtype=np.int64)
        self._ids = np.fromiter(map(id, tools), np.int64, n)
        self._row_of = np.full(int(self.index.max(initial=-1)) + 2, -1)
        self._row_of[self.index] = np.arange(n)
        self._row_dict = {tool.index: i for i, tool in enumerate(tools)}
        self.supported = np.array([task in tool.supported_tasks for tool in tools], dtype=bool)
        self.mu = np.array([tool.mu for tool in tools], dtype=np.float64)
        # (pmax, beta) of each tool in Python floats, which _kappas reads per pair
        self.pmax_beta = [(float(tool.pmax), float(tool.beta)) for tool in tools]
        if spec.family in CATEGORICAL_FAMILIES:
            k = len(spec.space.labels)
            counts = [tool.tool_label_count[task] if ok else 1
                      for tool, ok in zip(tools, self.supported.tolist())]
            self.label_count = np.array(counts, dtype=np.int64)
            self.correct = np.zeros((n, k), dtype=np.int64)
            self.aligned = np.zeros((n, max(counts, default=1), k))
            for i, tool in enumerate(tools):
                if self.supported[i]:
                    self.correct[i] = [_canon_to_tool_label(tool, task, y) for y in range(k)]
                    self.aligned[i, :counts[i]] = [align(tool, spec.space, row).probs
                                                   for row in _raw_label_rows(counts[i])]

    def row_of(self, tool):
        """``rows`` of one tool, as a Python int."""
        row = self._row_dict.get(tool.index, -1)
        return row if row >= 0 and self.tools[row] is tool else -1

    def rows(self, tools):
        """Row of each tool, -1 for a tool not in the list (by index and identity)."""
        n = len(tools)
        index = np.fromiter((tool.index for tool in tools), np.int64, n)
        rows = self._row_of[np.minimum(index, len(self._row_of) - 1)]
        same = self._ids[rows] == np.fromiter(map(id, tools), np.int64, n)
        return np.where(same & (rows >= 0), rows, -1)


class _Rows:
    """Per-query arrays that ``_draw`` and ``_score`` read, one row per query.

    ``truth`` is what a tool's output is built around: the nearest
    centroid of categorical queries, the ground-truth box (the query's own,
    or recomputed from ``x``), the sorted vocabulary indices of the report
    pairs derivable from ``x`` (``n_true`` of them, padded with V). ``gt``,
    present when ground truths are given, is what ``_score`` scores
    against."""

    def __init__(self, spec, queries, gts=None, boxes_from_gt=False):
        n = len(queries)
        self.x = np.array([query.x for query in queries]).reshape(n, -1)
        family = spec.family
        if family in CATEGORICAL_FAMILIES:
            self.truth = _centroid_distances(spec, self.x).argmin(axis=1)
            if gts is not None:
                self.gt = np.array([gt.label if family is TaskFamily.CLASSIFICATION
                                    else gt.option for gt in gts], dtype=np.int64)
        elif family is TaskFamily.GROUNDING:
            if gts is not None:
                self.gt = np.array([gt.box for gt in gts], dtype=np.float64).reshape(n, 4)
            self.truth = self.gt if boxes_from_gt else _boxes(spec, self.x)
        else:
            self.truth, self.n_true = _report_pair_indices(spec, self.x)
            if gts is not None:
                index = {pair: i for i, pair in enumerate(spec.space.pair_vocab)}
                self.gt = np.zeros((n, len(index)), dtype=bool)
                for row, gt in enumerate(gts):
                    self.gt[row, [index[pair] for pair in gt.pairs]] = True


def _output_layout(spec):
    """Per-pair shape and dtype of a task's canonical outputs."""
    if spec.family in CATEGORICAL_FAMILIES:
        return (len(spec.space.labels),), np.float64
    if spec.family is TaskFamily.GROUNDING:
        return (4,), np.float64
    return (len(spec.space.pair_vocab),), bool


def _null_output(spec):
    """The canonical output of ``null_prediction``."""
    if spec.family in CATEGORICAL_FAMILIES:
        return np.full(len(spec.space.labels), 1.0 / len(spec.space.labels))
    if spec.family is TaskFamily.GROUNDING:
        return np.array([0.0, 0.0, 1.0, 1.0])
    return np.zeros(len(spec.space.pair_vocab), dtype=bool)


def _prediction(spec, output):
    """The ``AlignedPrediction`` of one canonical output of a supporting tool
    (``align`` passes boxes and pair sets through unchanged)."""
    if spec.family in CATEGORICAL_FAMILIES:
        return AlignedPrediction(spec.family, probs=np.array(output, dtype=np.float64))
    if spec.family is TaskFamily.GROUNDING:
        return AlignedPrediction(spec.family, box=tuple(output.tolist()))
    vocab = spec.space.pair_vocab
    return AlignedPrediction(spec.family,
                             pairs=frozenset([vocab[i] for i in output.nonzero()[0].tolist()]))


def keyed_rng(*key):
    """The generator of ``np.random.default_rng(list(key))`` for a key of
    non-negative ints, built from the key's 32-bit words: the same stream,
    without ``default_rng``'s slower coercion of Python ints."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_uint32_words(key))))


def keyed_rngs(keys):
    """``keyed_rng(*key)`` of every key, as a sequence whose items are built
    when read: ``rngs[i]`` is a new generator at the start of key i's
    stream, so a batch never holds its generators all at once."""
    return _KeyedRngs(_pcg64_states(keys))


def _pair_rngs(seed, tool_index, uids):
    """The prediction RNGs of pairs (``tool_index[i]``, ``uids[i]``), from
    their ``(n, 4)`` keys: int64, or Python ints when the seed or a uid is
    past int64."""
    wide = seed >= 2**63
    try:
        uids = np.asarray(uids, dtype=np.int64)
    except OverflowError:        # a uid past int64
        wide = True
    keys = np.empty((len(uids), 4), dtype=object if wide else np.int64)
    keys[:, 0] = seed
    keys[:, 1] = PREDICTION_KEY
    keys[:, 2] = tool_index
    keys[:, 3] = uids
    return keyed_rngs(keys)


class _KeyedRngs:
    """Generators seeded with the rows of an ``(n, 4)`` array of PCG64 states."""

    def __init__(self, states):
        self.states = states

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return np.random.Generator(np.random.PCG64(_PCG64State(self.states[i])))

    def words(self, n_words):
        """The first ``n_words`` 64-bit outputs of every generator, as an
        ``(n, n_words)`` array (``_pcg64_words``), without building one."""
        return _pcg64_words(self.states, n_words)

    def first_integers(self, k, m):
        """The first m ``integers(k)`` draws of every generator, from the low
        then high halves of its first ``ceil(m / 2)`` words, as numpy's
        buffered 32-bit draws take them: an ``(n, m)`` int64 array, and a
        mask of the generators where numpy might redraw one of them
        (``_bounded``), whose rows are not numpy's. ``k`` is one bound or one
        per generator."""
        words = self.words((m + 1) // 2)
        halves = np.stack([words & _LO32, words >> _U32], axis=2).reshape(len(words), -1)
        values, redraw = _bounded(halves[:, :m], np.reshape(k, (-1, 1)))
        return values, redraw.any(axis=1)


class _PCG64State(ISeedSequence):
    """A precomputed PCG64 state behind numpy's seed-sequence interface:
    ``PCG64`` asks its seed for ``generate_state(4, np.uint64)`` and gets it."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


# SeedSequence.mix_entropy hashes words with a running constant: call i xors
# in HASH[i] = INIT_A * MULT_A**i and multiplies by HASH[i + 1] (mod 2**32),
# then xors in the top 16 bits; mix(x, y) is MIX_L * x - MIX_R * y, top bits
# xored in likewise. A pool of up to four words takes 16 calls.
_HASH = np.array([0x43B0D7E5 * 0x931E8875 ** i % 2**32 for i in range(17)], dtype=np.uint32)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _mix(x, y):
    out = _MIX_L * x
    out -= _MIX_R * y
    out ^= out >> _SHIFT
    return out


def _mix_pools(words):
    """The 4-word entropy pools ``np.random.SeedSequence(row).pool`` of the
    rows of an ``(n, L)`` uint32 array, L at most 4, as column operations:
    the pool words (zero-padded) first, then each pool word's hash mixed
    into the three others (one source word at a time, its three calls as
    one ``(n, 3)`` step)."""
    pool = np.zeros((len(words), 4), dtype=np.uint32)
    pool[:, :words.shape[1]] = words
    pool = _hashmix(pool, 0, 4)
    call = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, [src]], call, 3))
        call += 3
    return pool


def _hashmix(values, first, k):
    """numpy's ``hashmix`` of ``values`` (n, 1 or k) as calls first ... first
    + k - 1, one per column."""
    out = values ^ _HASH[first:first + k]
    out *= _HASH[first + 1:first + k + 1]    # wraps mod 2**32, as numpy's uint32 does
    out ^= out >> _SHIFT
    return out


# SeedSequence.generate_state: output word i hashes pool word i % 4 (numpy's
# pool size) with the xor and multiply constants INIT_B * MULT_B**i and
# INIT_B * MULT_B**(i + 1) (mod 2**32), then xors in its own top 16 bits.
_STATE_WORDS = np.arange(8) % 4
_STATE_XOR = np.array([0x8B51F9DD * 0x58F38DED ** i % 2**32 for i in range(8)], dtype=np.uint32)
_STATE_MUL = np.array([0x8B51F9DD * 0x58F38DED ** (i + 1) % 2**32 for i in range(8)],
                      dtype=np.uint32)


def _pcg64_states(keys):
    """The ``(n, 4)`` uint64 PCG64 states ``keyed_rng`` seeds for ``keys``:
    the keys' entropy pools, mixed by ``_mix_pools`` for at least
    ``BATCH_SEEDING_MIN`` keys of at most four entries, each below 2**32,
    else by numpy's ``SeedSequence`` per key, then numpy's
    ``generate_state(4, np.uint64)`` of all of them as one array pass."""
    words = _key_words(keys) if len(keys) >= BATCH_SEEDING_MIN else None
    if words is not None:
        return _states_of_pools(_mix_pools(words))
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()       # Python ints split into words faster than numpy's
    pools = np.array([np.random.SeedSequence(_uint32_words(key)).pool for key in keys],
                     dtype=np.uint32).reshape(len(keys), 4)
    return _states_of_pools(pools)


def _states_of_pools(pools):
    """numpy's ``generate_state(4, np.uint64)`` of ``(n, 4)`` entropy pools."""
    words = pools[:, _STATE_WORDS] ^ _STATE_XOR
    words *= _STATE_MUL          # wraps mod 2**32, as numpy's uint32 arithmetic does
    words ^= words >> _SHIFT
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


# numpy's PCG64 (pcg64.h): a 128-bit LCG, state = state * MUL + inc mod 2**128;
# each output steps, then takes the XSL-RR of the new state. Seeding
# (pcg64_set_seed) sets inc = (initseq << 1) | 1, state 0, steps, adds
# initstate and steps, so output j (from 0) is the XSL-RR of
# MUL**(j + 2) * initstate + (1 + MUL + ... + MUL**(j + 2)) * inc.
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_LO32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def _pcg64_words(states, n_words):
    """The first ``n_words`` 64-bit outputs of the PCG64 generators seeded
    with the rows of ``(n, 4)`` uint64 ``states`` (initstate high and low,
    initseq high and low), as an ``(n, n_words)`` array: the words numpy's
    ``PCG64(...).random_raw(n_words)`` returns. 128-bit values are (high,
    low) uint64 limbs, whose array arithmetic wraps mod 2**64 as C's does,
    so every word is exact."""
    # (n_words, n) arrays, so numpy's inner loops run along the n streams
    seed_hi, seed_lo, seq_hi, seq_lo = np.asarray(states, dtype=np.uint64).T
    inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _U1) | _U1
    seed_mul, inc_mul = _jump_limbs(n_words)
    hi, lo = _add128(*_mul128(seed_hi, seed_lo, seed_mul), *_mul128(inc_hi, inc_lo, inc_mul))
    x = hi ^ lo
    rot = hi >> _U58
    return ((x >> rot) | (x << ((_U64 - rot) & _U63))).T


@functools.lru_cache(maxsize=None)
def _jump_limbs(n_words):
    """Limbs of the multipliers of initstate and of inc in outputs 0 ...
    n_words - 1 (MUL**(j + 2) and 1 + MUL + ... + MUL**(j + 2)), each as
    ``_limbs`` gives them."""
    seed_mul, inc_mul = [], []
    power, total = _MUL, 1 + _MUL
    for _ in range(n_words):
        power = power * _MUL % 2**128
        total = (total + power) % 2**128
        seed_mul.append(power)
        inc_mul.append(total)
    return _limbs(seed_mul), _limbs(inc_mul)


def _limbs(values):
    """128-bit ints as ``(len(values), 1)`` read-only uint64 arrays: the high
    limb, the low limb, and the low limb's high and low 32 bits."""
    out = []
    for shift, mask in ((64, 2**64 - 1), (0, 2**64 - 1), (32, 2**32 - 1), (0, 2**32 - 1)):
        limb = np.array([[(v >> shift) & mask] for v in values], dtype=np.uint64)
        limb.flags.writeable = False
        out.append(limb)
    return tuple(out)


def _mul128(a_hi, a_lo, b):
    """(a_hi, a_lo) * b mod 2**128, b given by its four ``_limbs``;
    the high limb of ``a_lo * b_lo`` comes from its four 32 x 32-bit parts."""
    b_hi, b_lo, b1, b0 = b
    a0, a1 = a_lo & _LO32, a_lo >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32) + a_hi * b_lo + a_lo * b_hi
    return hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _uniforms(words):
    """``Generator.random()`` of each word: its top 53 bits times 2**-53."""
    return (words >> _U11).astype(np.float64) * (1.0 / 9007199254740992.0)


def _bounded(halves, k):
    """``Generator.integers(k)`` from 32-bit ``halves`` (uint64 arrays below
    2**32) by Lemire's method, as numpy's ``buffered_bounded_lemire_uint32``
    computes it: ``(half * k) >> 32``. Returns the values and a mask of the
    entries whose low 32 bits of ``half * k`` fall below ``k``, where numpy
    may reject the half and draw again; their values are not numpy's. For
    ``k == 1`` numpy draws nothing and returns 0, which the value is too."""
    k = np.asarray(k, dtype=np.uint64)
    product = halves * k
    return (product >> _U32).astype(np.int64), ((product & _LO32) < k) & (k > _U1)


def _key_words(keys):
    """The ``_uint32_words`` of every key as one ``(n, L)`` array when the
    keys have the same L <= 4 entries, each an int below 2**32; else None."""
    try:
        arr = np.asarray(keys)
    except (ValueError, OverflowError):
        return None
    if (arr.dtype.kind == "i" and arr.ndim == 2 and 0 < arr.shape[1] <= 4
            and arr.min() >= 0 and arr.max() <= 0xFFFFFFFF):
        return arr.astype(np.uint32)
    return None


def _uint32_words(values):
    """The 32-bit words, least significant first, that numpy's SeedSequence
    splits non-negative ints into. Seeding with them gives the same stream as
    seeding with the ints, without the slower coercion of Python ints."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError(f"RNG key entries must be non-negative, got {v}")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return np.array(words, dtype=np.uint32)


def _boxes(spec, xs):
    """The ``(n, 4)`` ground-truth boxes of features ``xs`` (n, d_x). The
    maps apply as one stacked mat-vec, ``map @ xs[:, :, None]``, which gives
    each row the bits of ``map @ x``; a plain ``xs @ map.T`` does not."""
    stacked = xs[:, :, None]
    centers = 0.5 + 0.45 * np.tanh((spec.box_center_map @ stacked)[:, :, 0])
    half = (0.2 + 0.1 * np.tanh((spec.box_size_map @ stacked)[:, :, 0])) / 2.0
    return np.concatenate([np.maximum(0.0, centers - half), np.minimum(1.0, centers + half)],
                          axis=1)


def _perturb_boxes(boxes, scale, normals):
    """Vectorized box perturbation used both for calibration and prediction;
    ``scale`` is one scale or one per box, ``normals`` (n, 4) the draws:
    centres shift by ``0.25 * scale`` normals, sides scale log-normally."""
    # coordinates and draws as rows, so each operation runs over boxes
    b = np.ascontiguousarray(boxes.T)
    z = np.ascontiguousarray(normals.T)
    centers = (b[:2] + b[2:]) / 2.0 + scale * 0.25 * z[:2]
    half = (b[2:] - b[:2]) * np.exp(scale * z[2:]) / 2
    return np.clip(np.concatenate([centers - half, centers + half]).T, 0.0, 1.0)


def _calibrate_box_noise(spec, cfg, rng, n_probe=256, n_draws=4):
    """Bisect a perturbation scale per kappa so mean IoU tracks kappa. The
    kappas are bisected side by side: each step perturbs one copy of the
    probe boxes per kappa, as one array pass, and takes each copy's mean
    IoU as a row mean, which sums as the mean of one copy alone does."""
    ks, noise = _draw_queries(rng, len(spec.centroids), n_probe, cfg.d_x)
    xs = spec.centroids[ks] + cfg.feature_noise * noise
    tiled = np.repeat(_boxes(spec, xs), n_draws, axis=0)
    normals = rng.standard_normal((tiled.shape[0], 4))
    kappas = np.linspace(spec.p_floor, cfg.p_max, 9)
    copies = (len(kappas), 1)
    boxes, normals = np.tile(tiled, copies), np.tile(normals, copies)
    lo, hi = np.zeros_like(kappas), np.full_like(kappas, 4.0)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        perturbed = _perturb_boxes(boxes, np.repeat(mid, len(tiled)), normals)
        above = iou(boxes, perturbed).reshape(len(kappas), -1).mean(axis=1) > kappas
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return kappas, 0.5 * (lo + hi)


def _make_task(cfg, task, family, rng):
    hint_dim = cfg.d_q - cfg.n_tasks()
    if family is TaskFamily.CLASSIFICATION:
        k = cfg.labels_per_task
        space = CanonicalLabelSpace(task, family, labels=tuple(range(k)))
    elif family is TaskFamily.MULTIPLE_CHOICE:
        k = cfg.mcq_options
        space = CanonicalLabelSpace(task, family, labels=tuple(range(k)))
    elif family is TaskFamily.GROUNDING:
        k = 5
        space = CanonicalLabelSpace(task, family, descriptor="box")
    else:
        vocab = tuple((f, l) for f in range(cfg.n_findings) for l in range(cfg.n_locations))
        k = 5
        space = CanonicalLabelSpace(task, family, pair_vocab=vocab)
    spec = TaskSpec(
        task=task,
        family=family,
        space=space,
        centroids=rng.uniform(-1.0, 1.0, size=(k, cfg.d_x)),
    )
    if family in (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE):
        codes = rng.standard_normal((k, hint_dim))
        spec.hint_codes = codes / np.linalg.norm(codes, axis=1, keepdims=True)
        spec.p_floor = 1.0 / k if cfg.p_floor < 0 else cfg.p_floor
    elif family is TaskFamily.GROUNDING:
        spec.box_center_map = rng.standard_normal((2, cfg.d_x)) / math.sqrt(cfg.d_x)
        spec.box_size_map = rng.standard_normal((2, cfg.d_x)) / math.sqrt(cfg.d_x)
        spec.p_floor = 0.05 if cfg.p_floor < 0 else cfg.p_floor
    else:
        pair_idx = rng.choice(len(space.pair_vocab), size=k, replace=False)
        spec.centroid_pairs = tuple(space.pair_vocab[i] for i in pair_idx)
        spec.centroid_vocab = np.asarray(pair_idx, dtype=np.int64)
        codes = rng.standard_normal((len(space.pair_vocab), hint_dim))
        spec.hint_codes = codes / np.linalg.norm(codes, axis=1, keepdims=True)
        spec.p_floor = 0.05 if cfg.p_floor < 0 else cfg.p_floor
    return spec


def _make_tool(cfg, tasks, home_task, index, rng):
    n_tasks = len(tasks)
    supported = [t for t in range(n_tasks) if rng.random() < cfg.support_prob]
    if not supported:
        supported = [home_task]
    alignment = {}
    tool_label_count = {}
    for t in supported:
        spec = tasks[t]
        if spec.family in (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE):
            k = len(spec.space.labels)
            if rng.random() < 0.5 or k < 3:
                alignment[t] = {i: (i,) for i in range(k)}
                tool_label_count[t] = k
            else:
                # coarsened variant: two canonical labels share one tool label
                a, b = sorted(rng.choice(k, size=2, replace=False).tolist())
                rho = {}
                canon = [lab for lab in range(k) if lab not in (a, b)]
                for i, lab in enumerate(canon):
                    rho[i] = (lab,)
                rho[k - 2] = (a, b)
                alignment[t] = rho
                tool_label_count[t] = k - 1
        else:
            alignment[t] = {}
            tool_label_count[t] = 0
    eta = np.array([len(supported) / n_tasks, rng.uniform()])
    return SimTool(
        tool_id=f"t{home_task}_tool{index % cfg.tools_per_task:02d}",
        index=index,
        supported_tasks=frozenset(supported),
        alignment=alignment,
        tool_label_count=tool_label_count,
        eta=eta,
        mu=rng.uniform(-1.0, 1.0, size=cfg.d_x),
        beta=cfg.sharpness * rng.uniform(0.5, 1.5),
        pmax=cfg.p_max * rng.uniform(0.8, 1.0),
        home_task=home_task,
    )


def _centroid_distances(spec, xs):
    """(n, K) Euclidean distances from features ``xs`` (n, d_x) to the task's
    centroids, summed as ``np.linalg.norm`` sums them."""
    diff = spec.centroids[None, :, :] - xs[:, None, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=2))


def _canon_to_tool_label(tool, task, y):
    for tool_label, canon in tool.alignment[task].items():
        if y in canon:
            return tool_label
    raise KeyError(f"label {y} has no pre-image for tool {tool.tool_id} task {task}")


def _draw_queries(rng, n_centroids, n, width):
    """Per query, in order: a centroid index, then ``width`` standard
    normals. Returns the ``(n,)`` indices and the ``(n, width)`` normals."""
    ks = np.empty(n, dtype=np.int64)
    noise = np.empty((n, width))
    for i in range(n):
        ks[i] = rng.integers(n_centroids)
        rng.standard_normal(out=noise[i])
    return ks, noise


def sample_queries(world, task, rng, uids):
    """One labeled query of a task per uid, drawn in order from ``rng``.

    Each query draws its centroid, then its feature noise and hint noise in
    one ``standard_normal`` call, which gives the values of two consecutive
    calls. Features, hints and ground truths are computed for the block as
    array passes, element by element the arithmetic of one query: grounding
    boxes by ``_boxes``' stacked mat-vecs, report pair sets and hint means
    from one ``_report_pair_indices`` call, each mean the sum of the padded
    pair codes over the count, as ``np.mean`` of the sorted pairs' codes.
    """
    cfg = world.cfg
    spec = world.task_spec(task)
    n_tasks = cfg.n_tasks()
    hint_dim = cfg.d_q - n_tasks
    ks, noise = _draw_queries(rng, len(spec.centroids), len(uids), cfg.d_x + hint_dim)
    xs = spec.centroids[ks] + cfg.feature_noise * noise[:, :cfg.d_x]
    hint_noise = cfg.hint_noise * noise[:, cfg.d_x:]
    if spec.family in CATEGORICAL_FAMILIES:
        hints = spec.hint_codes[ks] + hint_noise
        if spec.family is TaskFamily.CLASSIFICATION:
            gts = [GroundTruth(spec.family, label=y) for y in ks.tolist()]
        else:
            gts = [GroundTruth(spec.family, option=y) for y in ks.tolist()]
    elif spec.family is TaskFamily.GROUNDING:
        boxes = _boxes(spec, xs)
        shown = min(4, hint_dim)
        hints = np.zeros((len(uids), hint_dim))
        hints[:, :shown] = boxes[:, :shown]
        hints = hints + hint_noise
        gts = [GroundTruth(spec.family, box=tuple(box)) for box in boxes.tolist()]
    else:
        indices, counts = _report_pair_indices(spec, xs)
        # np.mean of a query's codes in sorted pair order, with -0.0 (which
        # adds nothing, whatever the sign of the sum) padding short pair sets
        codes = np.vstack([spec.hint_codes, np.full(hint_dim, -0.0)])[indices]
        hints = (codes[:, 0] + codes[:, 1] + codes[:, 2]) / counts[:, None] + hint_noise
        gts = [GroundTruth(spec.family, pairs=pairs)
               for pairs in _pair_sets(spec, indices, counts)]
    qs = np.zeros((len(uids), cfg.d_q))
    qs[:, task] = 1.0
    qs[:, n_tasks:] = hints
    # positional fields build the frozen Query faster than keywords
    return [LabeledQuery(Query(uid, task, x, q), gt) for uid, x, q, gt in zip(uids, xs, qs, gts)]


def sample_query(world, task, rng, uid):
    """Draw one labeled query for a task: the one-query ``sample_queries``."""
    return sample_queries(world, task, rng, [uid])[0]


def _sample_uids(world, task, rng, first_uid, count):
    """Queries of a task with uids ``first_uid`` onwards, sampled in blocks of
    at most ``QUERY_BLOCK``, which gives the same queries as one block."""
    out = []
    for lo in range(first_uid, first_uid + count, QUERY_BLOCK):
        out += sample_queries(world, task, rng, range(lo, min(first_uid + count, lo + QUERY_BLOCK)))
    return out


_THREE = np.arange(3)


def _report_pair_indices(spec, xs):
    """Ground-truth finding pairs of report queries with features ``xs`` (n,
    d_x), derivable from x alone: the pairs of the 1 to 3 nearest centroids,
    as ``(n, 3)`` sorted pair-vocabulary indices padded with V, and their
    counts."""
    nearest = np.argsort(_centroid_distances(spec, xs), axis=1)[:, :3]
    counts = 1 + np.floor(np.minimum(np.maximum(1.5 * (np.tanh(xs[:, 0]) + 1.0), 0.0),
                                     2.999)).astype(np.int64)
    picked = np.where(_THREE < counts[:, None], spec.centroid_vocab[nearest],
                      len(spec.space.pair_vocab))
    return np.sort(picked, axis=1), counts


def _pair_sets(spec, indices, counts):
    """Pair sets of ``_report_pair_indices`` rows."""
    vocab = spec.space.pair_vocab
    return [frozenset(vocab[i] for i in row[:count])
            for row, count in zip(indices.tolist(), counts.tolist())]


def _kappas(world, spec, tools, rows, xs):
    """Competence of tool row ``rows[i]`` of ``tools`` on features
    ``xs[i]``: a radial function of the squared distance to the tool's
    centroid, from the task's floor up to the tool's ``pmax``."""
    diff = xs - tools.mu[rows]
    diff *= diff
    d_x = world.cfg.d_x
    floor = spec.p_floor
    return [floor + (pmax - floor) * math.exp(-beta * (d / d_x))
            for (pmax, beta), d in zip(map(tools.pmax_beta.__getitem__, rows.tolist()),
                                       np.add.reduce(diff, axis=1).tolist())]


_FIRST_ROW = np.zeros(1, dtype=np.int64)


def competence(world, tool, task, x):
    spec = world.task_spec(task)
    tools, rows = world._tool_rows(spec, [tool])
    return _kappas(world, spec, tools, rows, np.asarray(x)[None, :])[0]


def tool_predict(world, tool, query, rng, block=None):
    """Raw tool output aligned into the canonical space; null if unsupported.
    The one-pair call of ``_draw``. ``block``, when given, is ``(data, row)``:
    a ``_Rows`` block that holds the query at ``row`` (a one-element index
    array), which spares computing the query's arrays for this one call."""
    spec = world.task_spec(query.task)
    if query.task not in tool.supported_tasks:
        return null_prediction(spec.space)
    tools, tool_rows = world._tool_rows(spec, [tool])
    data, row = (_Rows(spec, [query]), _FIRST_ROW) if block is None else block
    output = _draw(world, spec, tools, tool_rows, data, row, (rng,))[0]
    return _prediction(spec, output)


def _draw(world, spec, tools, tool_rows, data, rows, rngs):
    """Canonical outputs of the tools at ``tool_rows`` of ``tools`` (all
    supporting the task) on the queries at ``rows`` of ``data``, pair i
    drawing from ``rngs[i]``, which is read once, when its draws start.

    The draws follow ``tool_predict``'s order; the competences before them
    and the outputs after them are array operations over the batch:

    - categorical: ``random()``; below the competence the tool outputs its
      label for the true one, else ``integers(k_tool - 1)`` picks one of its
      other labels. The output is that label's aligned row.
    - grounding: ``standard_normal(4)`` perturbs the true box at the
      competence's calibrated scale.
    - report: ``random(n_true + 1)`` keeps each true pair below the
      competence and adds ``integers(V)``'s pair when the last draw is
      below one minus it.

    A batch of at least ``BATCH_SEEDING_MIN`` categorical or report pairs
    (``rngs`` then a ``keyed_rngs`` sequence) makes its draws from the
    generators' first words, computed as arrays (``_KeyedRngs.words``):
    ``random()`` of a word is ``_uniforms``, ``integers`` takes the low half
    of the next word (``_bounded``). Only a pair whose ``integers`` numpy
    might redraw builds its generator and draws again. Grounding draws stay
    per pair: numpy's ``standard_normal`` is a ziggurat over tables it does
    not expose.
    """
    n = len(rows)
    kappas = _kappas(world, spec, tools, tool_rows, data.x[rows])
    from_words = n >= BATCH_SEEDING_MIN
    if spec.family in CATEGORICAL_FAMILIES:
        correct = tools.correct[tool_rows, data.truth[rows]]
        counts = tools.label_count[tool_rows]
        if from_words:
            words = rngs.words(2)
            wrong = (_uniforms(words[:, 0]) >= np.array(kappas)) & (counts > 1)
            picks, redraw = _bounded(words[:, 1] & _LO32, counts - 1)
            labels = np.where(wrong, picks + (picks >= correct), correct)
            by_rng = np.flatnonzero(wrong & redraw).tolist()
        else:
            labels, by_rng = correct, range(n)
        counts, correct = counts.tolist(), correct.tolist()
        for i in by_rng:
            rng = rngs[i]
            if rng.random() >= kappas[i] and counts[i] > 1:
                pick = int(rng.integers(counts[i] - 1))
                labels[i] = pick + (pick >= correct[i])
        return tools.aligned[tool_rows, labels]
    if spec.family is TaskFamily.GROUNDING:
        normals = np.empty((n, 4))
        for i in range(n):
            rngs[i].standard_normal(out=normals[i])
        scales = np.interp(kappas, spec.calib_kappa, spec.calib_scale)
        return _perturb_boxes(data.truth[rows], scales, normals)
    truth, counts = data.truth[rows], data.n_true[rows]
    n_vocab = len(spec.space.pair_vocab)
    kappa, every = np.array(kappas), np.arange(n)
    draws = np.ones((n, truth.shape[1] + 1))
    extra = np.full(n, n_vocab)
    if from_words:
        words = rngs.words(int(counts.max()) + 2)
        width = words.shape[1] - 1
        uniforms = _uniforms(words[:, :width])
        draws[:, :width] = np.where(np.arange(width) <= counts[:, None], uniforms, 1.0)
        adds = uniforms[every, counts] < 1.0 - kappa
        picks, redraw = _bounded(words[every, counts + 1] & _LO32, n_vocab)
        extra[adds] = picks[adds]
        by_rng = np.flatnonzero(adds & redraw).tolist()
    else:
        by_rng = range(n)
    counts = counts.tolist()
    for i in by_rng:
        rng = rngs[i]
        count = counts[i]
        rng.random(out=draws[i, :count + 1])
        if draws[i, count] < 1.0 - kappas[i]:
            extra[i] = rng.integers(n_vocab)
    out = np.zeros((n, n_vocab + 1), dtype=bool)
    out[every[:, None], np.where(draws[:, :-1] < kappa[:, None], truth, n_vocab)] = True
    out[every, extra] = True
    return out[:, :n_vocab]


def _score(world, spec, outputs, data, rows):
    """Costs of canonical outputs against the ground truths at ``rows`` of
    ``data``, each the value ``domain.cost`` gives its pair: argmax against
    the truth (or the clipped cross-entropy of the truth under
    ``clipped_xent``), one minus the row-wise IoU, one minus the pair-F1
    from indicator counts with ``pair_f1``'s operations."""
    family = spec.family
    if family in CATEGORICAL_FAMILIES:
        truths = data.gt[rows]
        if family is TaskFamily.CLASSIFICATION and world.cfg.clipped_xent:
            p = np.clip(outputs[np.arange(len(rows)), truths], 1e-12, 1.0)
            return np.minimum(1.0, -np.log(p))
        return np.where(outputs.argmax(axis=1) == truths, 0.0, 1.0)
    if family is TaskFamily.GROUNDING:
        return 1.0 - iou(outputs, data.gt[rows])
    gt = data.gt[rows]
    n_pred, n_gt = outputs.sum(axis=1), gt.sum(axis=1)
    hits = (outputs & gt).sum(axis=1)
    f1 = np.where((n_pred == 0) & (n_gt == 0), 1.0, 0.0)
    scored = hits > 0            # then both sets are non-empty and precision + recall > 0
    precision = hits[scored] / n_pred[scored]
    recall = hits[scored] / n_gt[scored]
    f1[scored] = 2.0 * precision * recall / (precision + recall)
    return 1.0 - f1


def _raw_label_rows(k_tool):
    """A tool's raw categorical output for each of its labels, one row each:
    0.9 on the label and 0.1 spread evenly over the others (1.0 for a
    one-label tool)."""
    raw = np.full((k_tool, k_tool), 0.1 / max(1, k_tool - 1))
    np.fill_diagonal(raw, 0.9)
    if k_tool == 1:
        raw[:] = 1.0
    return raw


def sample_panel(population, query, m, rng):
    """Sample m i.i.d. tools; redraw whole panel until one is valid, at most
    ``PANEL_ATTEMPTS`` times."""
    if not population:
        raise NoValidPanelError("empty tool population")
    if m < 2:
        raise ValueError("panel size m must be >= 2")
    for _ in range(PANEL_ATTEMPTS):
        idx = rng.integers(0, len(population), size=m)
        tools = tuple(population[i] for i in idx)
        if any(validity(t, query) for t in tools):
            return Panel(task=query.task, tools=tools)
    raise NoValidPanelError(
        f"no valid panel for query {query.uid} after {PANEL_ATTEMPTS} attempts")


def panels_of(population, task, picks):
    """The panels of ``task`` holding ``population[i]`` for the tool indices
    ``i`` of each row of ``picks``, gathered as one object array."""
    tools = np.empty(len(population), dtype=object)
    tools[:] = population
    return [Panel(task=task, tools=tuple(row)) for row in tools[picks].tolist()]


def build_reference_sets(world, tools, ref_size, rng):
    """Populate each tool's per-task reference sets from the reference pools.

    Every (tool, task) draws its pool queries from ``rng`` first, in order;
    the pairs' prediction RNGs are then seeded as one ``_pair_rngs`` batch,
    and each element is one ``tool_predict`` call with its pair's RNG and
    its pool's ``_Rows``: the prediction ``world.tool_prediction`` gives.
    """
    if ref_size < 1:
        raise ValueError("ref_size must be >= 1")
    picks = []                   # (tool, task, pool rows), in draw order
    for tool in tools:
        for task in sorted(tool.supported_tasks):
            size = len(world.ref_pools[task])
            picks.append((tool, task, rng.choice(size, size=min(ref_size, size), replace=False)))
    # each pool's query arrays, computed once for all of its elements
    data = {task: _Rows(world.task_spec(task), [lq.query for lq in world.ref_pools[task]])
            for task in {task for _, task, idx in picks if len(idx)}}
    rngs = _pair_rngs(world.seed, [tool.index for tool, _, idx in picks for _ in idx],
                      [world.ref_pools[task][i].query.uid
                       for _, task, idx in picks for i in idx.tolist()])
    for tool in tools:
        tool.reference_sets = {}
    k = 0
    for tool, task, idx in picks:
        pool, elements = world.ref_pools[task], []
        for n, i in enumerate(idx.tolist()):
            query = pool[i].query
            pred = tool_predict(world, tool, query, rngs[k], (data[task], idx[n:n + 1]))
            elements.append((query.x, pool[i].gt, pred))
            k += 1
        tool.reference_sets[task] = elements


def generate_world(cfg, seed):
    rng = np.random.default_rng([seed, 15485863])
    n_tasks = cfg.n_tasks()
    tasks = []
    for t in range(n_tasks):
        tasks.append(_make_task(cfg, t, FAMILY_CYCLE[t % 4], rng))
    populations = {}
    all_tools = []
    index = 0
    for t in range(n_tasks):
        pop = []
        for _ in range(cfg.tools_per_task):
            tool = _make_tool(cfg, tasks, t, index, rng)
            pop.append(tool)
            all_tools.append(tool)
            index += 1
        populations[t] = pop
    for spec in tasks:
        if spec.family is TaskFamily.GROUNDING:
            spec.calib_kappa, spec.calib_scale = _calibrate_box_noise(spec, cfg, rng)
    world = SimWorld(cfg=cfg, seed=seed, tasks=tasks, populations=populations,
                     all_tools=all_tools, splits={}, ref_pools={})
    uid = 0
    for name, total in (("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test)):
        records = []
        for t in range(n_tasks):
            count = total // n_tasks + (1 if t < total % n_tasks else 0)
            records += _sample_uids(world, t, rng, uid, count)
            uid += count
        world.splits[name] = records
    for t in range(n_tasks):
        count = cfg.n_ref_pool // n_tasks
        world.ref_pools[t] = _sample_uids(world, t, rng, uid, count)
        uid += count
    build_reference_sets(world, world.all_tools, cfg.ref_size, rng)
    return world


def regenerate_test_tools(world, fraction, seed):
    """Return a copy of the world whose populations contain a share of fresh
    tools (new centroids, fresh reference sets); queries/splits are shared."""
    cfg = world.cfg
    rng = np.random.default_rng([seed, 32452843])
    # keep the original seed so surviving tools predict identically
    new_world = SimWorld(cfg=cfg, seed=world.seed, tasks=world.tasks,
                         populations={}, all_tools=[], splits=world.splits,
                         ref_pools=world.ref_pools)
    # surviving tools keep their indices so fitted routers still recognize
    # them; fresh tools get indices past the original range
    next_index = max(t.index for t in world.all_tools) + 1
    fresh = []
    for t in range(cfg.n_tasks()):
        pop = list(world.populations[t])
        for i in range(int(round(fraction * len(pop)))):
            made = _make_tool(cfg, world.tasks, t, next_index, rng)
            pop[i] = replace(made, tool_id=f"t{t}_fresh{i:02d}")
            fresh.append(pop[i])
            next_index += 1
        new_world.populations[t] = pop
        new_world.all_tools.extend(pop)
    build_reference_sets(new_world, fresh, cfg.ref_size, rng)
    return new_world


def world_digest(world):
    """Stable hash of every generated array, for determinism checks."""
    import hashlib
    h = hashlib.sha256()
    for spec in world.tasks:
        h.update(spec.centroids.tobytes())
        if spec.hint_codes is not None:
            h.update(spec.hint_codes.tobytes())
    for tool in world.all_tools:
        h.update(tool.mu.tobytes())
        h.update(np.float64(tool.beta).tobytes())
        h.update(repr(sorted(tool.supported_tasks)).encode())
    for name in ("train", "val", "test"):
        for lq in world.splits[name]:
            h.update(lq.query.x.tobytes())
            h.update(lq.query.q.tobytes())
    return h.hexdigest()
