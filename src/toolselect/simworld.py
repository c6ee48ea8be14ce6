"""Synthetic agentic tool-zoo environment.

Generates task families with canonical label spaces, tool populations with
region-dependent competence and partial task support, labeled query splits,
frozen per-tool reference sets, and deterministic tool predictions.

Tool competence is a radial function of the distance between the query's
image features and the tool's expertise centroid, which makes the identity
of the per-query best tool vary across the feature space.

``predict_batch`` is the one definition of a tool's output. It computes a
batch of (tool, query) pairs in one pass per task: competences, nearest
centroids, ground-truth boxes and report pair sets as array operations,
then each pair's draws from its own RNG. Categorical outputs are then built
and aligned per (task, tool label count) as arrays (``domain.align_rows``);
groups of fewer than ``ALIGN_ROWS_MIN`` pairs go through ``domain.align``.
``tool_predict`` is the one-pair call. ``SimWorld.tool_predictions`` and ``SimWorld.tool_costs``
look up a batch of pairs, computing the ones missing from the world's cache
with one ``predict_batch`` call; ``tool_prediction`` and ``tool_cost`` are
their one-pair forms. ``tool_costs`` scores a batch per task with array
operations, the same arithmetic as ``domain.cost`` applies to one pair. A
pair's RNG is ``keyed_rng(world seed, PREDICTION_KEY, tool index, query
uid)``, so every output is the same whatever batch computes it.

``keyed_rngs`` seeds a batch of such RNGs at once. numpy's ``SeedSequence``
mixes each key into its entropy pool natively; the hash that
``SeedSequence.generate_state`` applies to a pool to give the four 64-bit
words of a PCG64 state is a fixed sequence of xor-multiply-shift steps on
the pool's 32-bit words, so it runs as one array pass over the batch, and
each generator is seeded with its row through numpy's ``ISeedSequence``
hook: the same state, so the same stream, as ``keyed_rng``.

``sample_queries`` draws a block of one task's queries: per query one
``integers`` and one ``standard_normal`` draw of the feature and hint noise
together (the same values as the two draws it replaces, since the normal
sampler consumes the stream value by value), then the features, hints and
ground truths of the block as array operations, each element computed by
the same operations as for one query. ``sample_query`` is its one-query
call.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .domain import (
    CATEGORICAL_FAMILIES,
    CanonicalLabelSpace,
    GroundTruth,
    LabeledQuery,
    Panel,
    Query,
    TaskFamily,
    Tool,
    align,
    align_rows,
    cost,
    iou,
    null_prediction,
    pair_f1,
    validity,
)
from .errors import ConfigError, NoValidPanelError

PREDICTION_KEY = 104729   # second entry of every per-(tool, query) prediction RNG key
# Below these batch sizes numpy's per-call overhead outweighs the array pass:
BATCH_SEEDING_MIN = 3     # keys, in keyed_rngs
ALIGN_ROWS_MIN = 4        # categorical pairs of one task and tool label count
# Queries per sampled block in generate_world. Whole (split, task) blocks of
# 1250 queries make temporaries above glibc's 128 KB mmap threshold; they
# raised peak RSS on the train benchmark by about 1 MB.
QUERY_BLOCK = 256

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
        if self.n_tasks_total < 0:
            raise ConfigError(f"world config: n_tasks_total must be 0 (one task per family) "
                              f"or more, got {self.n_tasks_total}")
        if self.d_q - self.n_tasks() < 2:
            raise ConfigError(f"world config: d_q ({self.d_q}) must exceed the task count "
                              f"({self.n_tasks()}) by at least 2")
        if self.n_findings * self.n_locations < 5:
            raise ConfigError("world config: n_findings * n_locations must be at least 5, "
                              "the number of report centroids")
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
class SimWorld:
    cfg: WorldConfig
    seed: int
    tasks: list
    populations: dict              # task -> list[SimTool]
    all_tools: list
    splits: dict                   # name -> list[LabeledQuery]
    ref_pools: dict                # task -> list[LabeledQuery]
    _pred_cache: dict = field(default_factory=dict)

    def task_spec(self, task):
        return self.tasks[task]

    def split_by_task(self, split):
        out = {spec.task: [] for spec in self.tasks}
        for lq in self.splits[split]:
            out[lq.query.task].append(lq)
        return out

    def _pair_rng(self, tool, query):
        """The prediction RNG of a (tool, query) pair."""
        return keyed_rng(self.seed, PREDICTION_KEY, tool.index, query.uid)

    def tool_predictions(self, tools, queries):
        """Aligned predictions of ``tools[i]`` on ``queries[i]``, cached per
        (tool, query) pair. The pairs missing from the cache are computed by
        ``predict_batch``, one vectorized pass per task, each drawing from
        its own RNG keyed ``[seed, PREDICTION_KEY, tool index, query uid]``,
        so a prediction never depends on the batch it was computed in."""
        cache = self._pred_cache
        keys = [(tool.index, query.uid) for tool, query in zip(tools, queries)]
        missing = {key: (tool, query)
                   for key, tool, query in zip(keys, tools, queries) if key not in cache}
        if missing:
            pairs = list(missing.values())
            rngs = keyed_rngs([(self.seed, PREDICTION_KEY) + key for key in missing])
            preds = predict_batch(self, [tool for tool, _ in pairs], [query for _, query in pairs],
                                  rngs)
            cache.update(zip(missing, preds))
        return [cache[key] for key in keys]

    def tool_prediction(self, tool, query):
        """Deterministic aligned prediction of a tool on a query (cached): the
        one-pair form of ``tool_predictions``, computed by ``tool_predict``."""
        key = (tool.index, query.uid)
        hit = self._pred_cache.get(key)
        if hit is None:
            hit = self._pred_cache[key] = tool_predict(self, tool, query,
                                                       self._pair_rng(tool, query))
        return hit

    def _cost(self, lq, pred):
        return cost(self.task_spec(lq.query.task).family, pred, lq.gt,
                    clipped_xent=self.cfg.clipped_xent)

    def tool_costs(self, tools, lqs):
        """Realized cost of ``tools[i]`` on labeled query ``lqs[i]``; None where
        the tool does not support the query's task. The valid pairs'
        predictions come from one ``tool_predictions`` call and are scored
        per task as arrays: argmax against the truth (or the clipped
        cross-entropy of the truth under ``clipped_xent``) for categorical
        tasks, one row-wise IoU for grounding, pair-F1 per pair for reports.
        Each cost equals ``domain.cost`` of its pair bit for bit."""
        valid = [n for n, (tool, lq) in enumerate(zip(tools, lqs)) if validity(tool, lq.query)]
        preds = self.tool_predictions([tools[n] for n in valid], [lqs[n].query for n in valid])
        groups = {}                  # task -> (batch rows, predictions)
        for n, pred in zip(valid, preds):
            if pred.is_null:
                raise ValueError("cost requested for a null prediction")
            rows, task_preds = groups.setdefault(lqs[n].query.task, ([], []))
            rows.append(n)
            task_preds.append(pred)
        out = [None] * len(tools)
        for task, (rows, task_preds) in groups.items():
            family = self.task_spec(task).family
            gts = [lqs[n].gt for n in rows]
            if family is TaskFamily.REPORT_GENERATION:
                costs = [1.0 - pair_f1(pred.pairs, gt.pairs) for pred, gt in zip(task_preds, gts)]
            elif family is TaskFamily.GROUNDING:
                costs = (1.0 - iou([pred.box for pred in task_preds],
                                   [gt.box for gt in gts])).tolist()
            else:
                probs = np.array([pred.probs for pred in task_preds])
                if family is TaskFamily.CLASSIFICATION:
                    truths = np.array([gt.label for gt in gts])
                else:
                    truths = np.array([gt.option for gt in gts])
                if family is TaskFamily.CLASSIFICATION and self.cfg.clipped_xent:
                    p = np.clip(probs[np.arange(len(rows)), truths], 1e-12, 1.0)
                    costs = np.minimum(1.0, -np.log(p)).tolist()
                else:
                    costs = np.where(probs.argmax(axis=1) == truths, 0.0, 1.0).tolist()
            for n, c in zip(rows, costs):
                out[n] = c
        return out

    def tool_cost(self, tool, lq):
        """The one-pair ``tool_costs``: None when the tool is invalid."""
        if not validity(tool, lq.query):
            return None
        return self._cost(lq, self.tool_prediction(tool, lq.query))


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


class _KeyedRngs:
    """Generators seeded with the rows of an ``(n, 4)`` array of PCG64 states."""

    def __init__(self, states):
        self.states = states

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return np.random.Generator(np.random.PCG64(_PCG64State(self.states[i])))


class _PCG64State(ISeedSequence):
    """A precomputed PCG64 state behind numpy's seed-sequence interface:
    ``PCG64`` asks its seed for ``generate_state(4, np.uint64)`` and gets it."""

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


# SeedSequence.generate_state: output word i hashes pool word i % 4 (numpy's
# pool size) with the xor and multiply constants INIT_B * MULT_B**i and
# INIT_B * MULT_B**(i + 1) (mod 2**32), then xors in its own top 16 bits.
_STATE_WORDS = np.arange(8) % 4
_STATE_XOR = np.array([0x8B51F9DD * 0x58F38DED ** i % 2**32 for i in range(8)], dtype=np.uint32)
_STATE_MUL = np.array([0x8B51F9DD * 0x58F38DED ** (i + 1) % 2**32 for i in range(8)],
                      dtype=np.uint32)


def _pcg64_states(keys):
    """The ``(n, 4)`` uint64 PCG64 states ``keyed_rng`` seeds for ``keys``:
    each key's pool mixed by numpy, then numpy's ``generate_state(4,
    np.uint64)`` of all the pools as one array pass, or of each pool by
    numpy itself below ``BATCH_SEEDING_MIN`` keys."""
    if len(keys) < BATCH_SEEDING_MIN:
        return np.array([np.random.SeedSequence(_uint32_words(key)).generate_state(4, np.uint64)
                         for key in keys], dtype=np.uint64).reshape(len(keys), 4)
    pools = np.array([np.random.SeedSequence(words).pool for words in _key_words(keys)],
                     dtype=np.uint32).reshape(len(keys), 4)
    words = pools[:, _STATE_WORDS] ^ _STATE_XOR
    words *= _STATE_MUL          # wraps mod 2**32, as numpy's uint32 arithmetic does
    words ^= words >> np.uint32(16)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _key_words(keys):
    """The ``_uint32_words`` of every key: one ``(n, len(key))`` array when
    every entry is an int below 2**32, else a list of per-key word arrays."""
    try:
        arr = np.array(keys)
    except (ValueError, OverflowError):
        arr = None
    if (arr is not None and arr.dtype.kind == "i" and arr.ndim == 2
            and arr.min() >= 0 and arr.max() <= 0xFFFFFFFF):
        return arr.astype(np.uint32)
    return [_uint32_words(key) for key in keys]


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


def _box_from_x(spec, x):
    cx, cy = (0.5 + 0.45 * np.tanh(spec.box_center_map @ x)).tolist()
    w, h = (0.2 + 0.1 * np.tanh(spec.box_size_map @ x)).tolist()
    return (max(0.0, cx - w / 2.0), max(0.0, cy - h / 2.0),
            min(1.0, cx + w / 2.0), min(1.0, cy + h / 2.0))


def _perturb_boxes(boxes, scale, normals):
    """Vectorized box perturbation used both for calibration and prediction;
    ``scale`` is one scale or one per box, ``normals`` (n, 4) the draws:
    centres shift by ``0.25 * scale`` normals, sides scale log-normally."""
    # coordinates and draws as rows, so each operation runs over boxes
    b = np.ascontiguousarray(boxes.T)
    z = np.ascontiguousarray(normals.T)
    centers = (b[:2] + b[2:]) / 2.0 + scale * 0.25 * z[:2]
    sizes = (b[2:] - b[:2]) * np.exp(scale * z[2:])
    return np.clip(np.concatenate([centers - sizes / 2, centers + sizes / 2]).T, 0.0, 1.0)


def _calibrate_box_noise(spec, cfg, rng, n_probe=256, n_draws=4):
    """Bisect a perturbation scale per kappa so mean IoU tracks kappa."""
    ks, noise = _draw_queries(rng, len(spec.centroids), n_probe, cfg.d_x)
    xs = spec.centroids[ks] + cfg.feature_noise * noise
    probes = np.array([_box_from_x(spec, x) for x in xs])
    tiled = np.repeat(probes, n_draws, axis=0)
    normals = rng.standard_normal((tiled.shape[0], 4))
    kappas = np.linspace(spec.p_floor, cfg.p_max, 9)
    scales = np.empty_like(kappas)
    for gi, kappa in enumerate(kappas):
        lo, hi = 0.0, 4.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            mean_iou = iou(tiled, _perturb_boxes(tiled, mid, normals)).mean()
            if mean_iou > kappa:
                lo = mid
            else:
                hi = mid
        scales[gi] = 0.5 * (lo + hi)
    return kappas, scales


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


def _report_pair_sets(spec, xs):
    """Ground-truth finding pairs of report queries with features ``xs`` (n, d_x),
    derivable from x alone: the pairs of the 1 to 3 nearest centroids."""
    nearest = np.argsort(_centroid_distances(spec, xs), axis=1)
    n_pairs = [1 + math.floor(min(max(1.5 * (t + 1.0), 0.0), 2.999))
               for t in np.tanh(xs[:, 0]).tolist()]
    return [frozenset(spec.centroid_pairs[j] for j in row[:n]) for row, n in zip(nearest, n_pairs)]


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
    array operations, element by element the arithmetic of one query;
    grounding boxes and report hint means are computed per query.
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
        boxes = [_box_from_x(spec, x) for x in xs]
        shown = min(4, hint_dim)
        hints = np.zeros((len(uids), hint_dim))
        if boxes:
            hints[:, :shown] = np.array(boxes)[:, :shown]
        hints = hints + hint_noise
        gts = [GroundTruth(spec.family, box=box) for box in boxes]
    else:
        pair_sets = _report_pair_sets(spec, xs)
        vocab = spec.space.pair_vocab
        means = [np.mean([spec.hint_codes[vocab.index(p)] for p in sorted(pairs)], axis=0)
                 for pairs in pair_sets]
        hints = np.array(means).reshape(len(uids), hint_dim) + hint_noise
        gts = [GroundTruth(spec.family, pairs=pairs) for pairs in pair_sets]
    qs = np.zeros((len(uids), cfg.d_q))
    qs[:, task] = 1.0
    qs[:, n_tasks:] = hints
    return [LabeledQuery(Query(uid=uid, task=task, x=x, q=q), gt)
            for uid, x, q, gt in zip(uids, xs, qs, gts)]


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


def _competences(world, spec, tools, xs):
    """Competence of ``tools[i]`` on features ``xs[i]``: a radial function of
    the squared distance to the tool's centroid, from the task's floor up to
    the tool's ``pmax``."""
    diff = xs - np.array([tool.mu for tool in tools])
    dist2 = np.add.reduce(diff * diff, axis=1) / world.cfg.d_x
    return [spec.p_floor + (tool.pmax - spec.p_floor) * math.exp(-tool.beta * d)
            for tool, d in zip(tools, dist2.tolist())]


def competence(world, tool, task, x):
    return _competences(world, world.task_spec(task), [tool], np.asarray(x)[None, :])[0]


def tool_predict(world, tool, query, rng):
    """Raw tool output aligned into the canonical space; null if unsupported.
    The one-pair call of ``predict_batch``."""
    return predict_batch(world, [tool], [query], [rng])[0]


def predict_batch(world, tools, queries, rngs):
    """Aligned prediction of ``tools[i]`` on ``queries[i]``, drawing from
    ``rngs[i]``; null where the tool does not support the query's task.
    ``rngs`` is a sequence read once per supported pair, when that pair's
    draws start (``keyed_rngs`` builds each generator then).

    One pass per task computes the competences, nearest centroids,
    ground-truth boxes and report pair sets of all its pairs as array
    operations; each pair then makes its own draws, in a fixed order, so its
    prediction does not depend on the rest of the batch. A task's
    categorical outputs, from ``ALIGN_ROWS_MIN`` pairs on, are built and
    aligned as arrays (``_predict_labels``).
    """
    out = [None] * len(tools)
    rows_of = {}                 # task -> batch rows of its supported pairs
    for n, (tool, query) in enumerate(zip(tools, queries)):
        if query.task in tool.supported_tasks:
            rows_of.setdefault(query.task, []).append(n)
        else:
            out[n] = null_prediction(world.task_spec(query.task).space)
    for task, rows in rows_of.items():
        spec = world.task_spec(task)
        pair_tools = [tools[n] for n in rows]
        xs = np.array([queries[n].x for n in rows])
        kappas = _competences(world, spec, pair_tools, xs)
        if spec.family in CATEGORICAL_FAMILIES:
            # ground truth is recoverable from the query's nearest centroid
            truths = _centroid_distances(spec, xs).argmin(axis=1).tolist()
            if len(rows) < ALIGN_ROWS_MIN:
                for n, tool, kappa, y in zip(rows, pair_tools, kappas, truths):
                    out[n] = _predict_label(tool, spec, y, kappa, rngs[n])
            else:
                preds = _predict_labels(spec, pair_tools, truths, kappas, rngs, rows)
                for n, pred in zip(rows, preds):
                    out[n] = pred
        elif spec.family is TaskFamily.GROUNDING:
            gt_boxes = np.array([_box_from_x(spec, x) for x in xs])
            scales = np.interp(kappas, spec.calib_kappa, spec.calib_scale)
            normals = np.array([rngs[n].standard_normal(4) for n in rows])
            for n, tool, box in zip(rows, pair_tools,
                                    _perturb_boxes(gt_boxes, scales, normals)):
                out[n] = align(tool, spec.space, tuple(box.tolist()))
        else:
            for n, tool, kappa, pairs in zip(rows, pair_tools, kappas,
                                            _report_pair_sets(spec, xs)):
                out[n] = _predict_pairs(tool, spec, pairs, kappa, rngs[n])
    return out


def _predict_labels(spec, tools, ys, kappas, rngs, rows):
    """``_predict_label`` of a task's pairs, pair i drawing from
    ``rngs[rows[i]]``, read when its draws start. Pairs whose tools share a
    tool label count draw one by one as ``_predict_label`` does, then their
    raw rows are built as one array and aligned by ``domain.align_rows``; a
    group of fewer than ``ALIGN_ROWS_MIN`` pairs goes through
    ``_predict_label``."""
    task = spec.task
    groups = {}                  # tool label count -> positions of its pairs
    for i, tool in enumerate(tools):
        groups.setdefault(tool.tool_label_count[task], []).append(i)
    out = [None] * len(tools)
    for k_tool, positions in groups.items():
        if len(positions) < ALIGN_ROWS_MIN:
            for i in positions:
                out[i] = _predict_label(tools[i], spec, ys[i], kappas[i], rngs[rows[i]])
            continue
        labels = [_draw_label(tools[i], task, ys[i], kappas[i], rngs[rows[i]])
                  for i in positions]
        preds = align_rows([tools[i] for i in positions], spec.space,
                           _raw_label_rows(k_tool, labels))
        for i, pred in zip(positions, preds):
            out[i] = pred
    return out


def _draw_label(tool, task, y, kappa, rng):
    """The tool label a tool outputs for true label ``y``: its own label for
    ``y`` with probability kappa, else a uniformly drawn wrong one."""
    k_tool = tool.tool_label_count[task]
    correct = _canon_to_tool_label(tool, task, y)
    if rng.random() < kappa:
        return correct
    wrong = [i for i in range(k_tool) if i != correct]
    return int(wrong[rng.integers(len(wrong))]) if wrong else correct


def _raw_label_rows(k_tool, labels):
    """Raw categorical outputs, one row per chosen tool label: 0.9 on the
    label and 0.1 spread evenly over the others (1.0 for a one-label tool)."""
    raw = np.full((len(labels), k_tool), 0.1 / max(1, k_tool - 1))
    for row, label in enumerate(labels):
        raw[row, label] = 0.9
    if k_tool == 1:
        raw[:] = 1.0
    return raw


def _predict_label(tool, spec, y, kappa, rng):
    """Categorical output of one pair: the raw row of ``_draw_label``'s tool
    label, as ``_raw_label_rows`` builds it, aligned to the canonical space.
    Built as one row here, which keeps the one-pair path as cheap as it was."""
    k_tool = tool.tool_label_count[spec.task]
    raw = np.full(k_tool, 0.1 / max(1, k_tool - 1))
    raw[_draw_label(tool, spec.task, y, kappa, rng)] = 0.9
    if k_tool == 1:
        raw[:] = 1.0
    return align(tool, spec.space, raw)


def _predict_pairs(tool, spec, pairs, kappa, rng):
    """Report output: each true pair kept with probability kappa, plus one
    random pair with probability 1 - kappa."""
    kept = [p for p in sorted(pairs) if rng.random() < kappa]
    pred_pairs = set(kept)
    if rng.random() < (1.0 - kappa):
        extra = spec.space.pair_vocab[rng.integers(len(spec.space.pair_vocab))]
        pred_pairs.add(extra)
    return align(tool, spec.space, frozenset(pred_pairs))


def sample_panel(population, query, m, rng, max_attempts=100):
    """Sample m i.i.d. tools; redraw whole panel until one is valid."""
    if not population:
        raise NoValidPanelError("empty tool population")
    if m < 2:
        raise ValueError("panel size m must be >= 2")
    for _ in range(max_attempts):
        idx = rng.integers(0, len(population), size=m)
        tools = tuple(population[i] for i in idx)
        if any(validity(t, query) for t in tools):
            return Panel(task=query.task, tools=tools)
    raise NoValidPanelError(
        f"no valid panel for query {query.uid} after {max_attempts} attempts")


def build_reference_sets(world, ref_size, rng):
    """Populate every tool's per-task reference set from the reference pools."""
    if ref_size < 1:
        raise ValueError("ref_size must be >= 1")
    for tool in world.all_tools:
        tool.reference_sets = {}
        for task in sorted(tool.supported_tasks):
            pool = world.ref_pools[task]
            idx = rng.choice(len(pool), size=min(ref_size, len(pool)), replace=False)
            elements = []
            for i in idx:
                lq = pool[i]
                pred = world.tool_prediction(tool, lq.query)
                elements.append((lq.query.x, lq.gt, pred))
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
    build_reference_sets(world, cfg.ref_size, rng)
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
    for t in range(cfg.n_tasks()):
        pop = []
        n_replace = int(round(fraction * len(world.populations[t])))
        for i, tool in enumerate(world.populations[t]):
            if i < n_replace:
                made = _make_tool(cfg, world.tasks, t, next_index, rng)
                fresh = SimTool(
                    tool_id=f"t{t}_fresh{i:02d}", index=next_index,
                    supported_tasks=made.supported_tasks, alignment=made.alignment,
                    tool_label_count=made.tool_label_count, eta=made.eta,
                    mu=made.mu, beta=made.beta, pmax=made.pmax, home_task=t)
                next_index += 1
                pop.append(fresh)
            else:
                pop.append(tool)
        new_world.populations[t] = pop
        new_world.all_tools.extend(pop)
    fresh_tools = [tool for tool in new_world.all_tools if not tool.reference_sets]
    for tool in fresh_tools:
        for task in sorted(tool.supported_tasks):
            pool = new_world.ref_pools[task]
            idx = rng.choice(len(pool), size=min(cfg.ref_size, len(pool)), replace=False)
            tool.reference_sets[task] = [
                (pool[i].query.x, pool[i].gt, new_world.tool_prediction(tool, pool[i].query))
                for i in idx]
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
