"""Attentive-Neural-Process selector.

One batched forward scores B (query, panel) items at once:

- ``encode_query`` embeds the B fused queries.
- The model's ``ReferenceBank`` holds the constant arrays (inputs, label ids
  or encodings, slot matrix) of every (tool, task) reference set a world's
  panels can hold, stacked as (N, R, .) arrays: every set of a world has
  the same R elements. Sets are encoded as one (G, R, .) stack,
  self-attended with one batched attention and projected to
  cross-attention keys and values. Those do not depend on the query, so a
  frozen model (one whose parameters take no gradient) encodes all N sets
  once, when it is built, and gathers them; a trainable model encodes its
  batch's G sets on the tape.
- Each distinct (example, tool) pair cross-attends from its query over its
  tool's set once, and the score head runs once over all pairs. The pairs
  are built slot by slot, in order of first appearance, and the model's
  ``predict_fn`` reads their slot rows from the batch's queries and each
  pair's example index. The coverage
  head, which predicts each tool's per-query success probability, runs over
  the same pair rows when the forward's ``coverage_t`` is first read.
- The pair scores are gathered into a (B, M) slot matrix, M the largest
  panel, and one row-masked softmax gives every selection distribution. A
  tool drawn twice into one panel reads one pair score, so its copies tie
  exactly and the lowest slot wins.

``SelectorModel.select`` is the forward of a one-item batch.
"""

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import diffcore as dc
from .domain import CATEGORICAL_FAMILIES, LabeledQuery, TaskFamily, validity
from .errors import (
    ConfigError,
    EmptyReferenceSetError,
    NoValidCandidateError,
    NonFiniteScoreError,
    ShapeMismatchError,
)


# Largest value a config may give each selector width: parameters and per-pair
# activations are allocated whole, so a huge width fails on memory (terabytes
# at 10**11) instead of training.
MAX_WIDTH = 2048


@dataclass
class SelectorConfig:
    d_x: int = 16
    d_q: int = 8
    d_xp: int = 16
    d_qp: int = 8
    d_u: int = 24
    d: int = 16
    d_k: int = 16
    d_v: int = 16
    hidden: int = 512
    dropout: float = 0.1
    label_embed_dim: int = 8
    rho_dim: int = 8
    slot_width: int = 5
    eta_dim: int = 2
    # |Y_t| per task; 0 for non-categorical tasks (no learned label table)
    task_label_counts: tuple = (5, 0, 0, 4)

    def __post_init__(self):
        """Reject, with ``ConfigError``, values the selector cannot use."""
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"selector config: dropout must lie in [0, 1), got {self.dropout}")
        for name in ("d_x", "d_q", "d_xp", "d_qp", "d_u", "d", "d_k", "d_v",
                     "hidden", "label_embed_dim", "rho_dim", "slot_width", "eta_dim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"selector config: {name} must be positive, "
                                  f"got {getattr(self, name)}")
            if getattr(self, name) > MAX_WIDTH:
                raise ConfigError(f"selector config: {name} must be at most {MAX_WIDTH}, "
                                  f"got {getattr(self, name)}")


def xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def param_shapes(cfg):
    """Name -> shape of every selector parameter, in ``init_params``' order."""
    shapes = {}

    def linear(name, fan_in, fan_out, bias=True):
        shapes[f"{name}_W"] = (fan_in, fan_out)
        if bias:
            shapes[f"{name}_b"] = (fan_out,)

    linear("phi_x", cfg.d_x, cfg.d_xp)
    linear("phi_q", cfg.d_q, cfg.d_qp)
    linear("fuse", cfg.d_xp + cfg.d_qp, cfg.d_u)
    for t, count in enumerate(cfg.task_label_counts):
        if count > 0:
            shapes[f"label_embed_t{t}"] = (count, cfg.label_embed_dim)
    linear("rho_m", cfg.slot_width, cfg.rho_dim)
    linear("ref", cfg.d_xp + cfg.label_embed_dim + cfg.rho_dim, cfg.d)
    linear("self_q", cfg.d, cfg.d, bias=False)
    linear("self_k", cfg.d, cfg.d, bias=False)
    linear("self_v", cfg.d, cfg.d, bias=False)
    linear("cross_q", cfg.d_u, cfg.d_k, bias=False)
    linear("cross_k", cfg.d_xp, cfg.d_k, bias=False)
    linear("cross_v", cfg.d, cfg.d_v, bias=False)
    score_in = cfg.d_u + cfg.d_v + cfg.slot_width + cfg.eta_dim
    linear("head1", score_in, cfg.hidden)
    linear("head2", cfg.hidden, 1)
    linear("cov1", cfg.d_u + cfg.d_v, cfg.hidden)
    linear("cov2", cfg.hidden, 1)
    return shapes


def init_params(cfg, seed):
    """Xavier-uniform weights drawn in ``param_shapes`` order and zero biases,
    as one float64 ``dc.Params``; deterministic in the seed."""
    rng = np.random.default_rng([seed, 2147483629])
    return dc.Params({name: np.zeros(shape) if name.endswith("_b") else xavier(rng, *shape)
                      for name, shape in param_shapes(cfg).items()})


def encode_slot(space, aligned, slot_width):
    """Fixed-width numeric encoding of an aligned prediction."""
    out = np.zeros(slot_width)
    if space.family in CATEGORICAL_FAMILIES:
        probs = aligned.probs
        if len(probs) > slot_width:
            raise ShapeMismatchError(
                f"canonical space of size {len(probs)} exceeds slot width {slot_width}")
        out[: len(probs)] = probs
    elif space.family is TaskFamily.GROUNDING:
        out[: min(4, slot_width)] = np.asarray(aligned.box)[: min(4, slot_width)]
    else:
        for pair in aligned.pairs:
            out[space.pair_vocab.index(pair) % slot_width] += 1.0
        out = np.clip(out, 0.0, 1.0)
    return out


def encode_slots(space, outputs, slot_width):
    """``encode_slot`` of a batch of canonical outputs, one row each, as
    ``SimWorld.tool_outcomes`` gives them: probabilities, boxes or
    pair-vocabulary indicators. Bit for bit the rows ``encode_slot`` gives:
    a report row counts its pairs per slot (``index % slot_width``) with a
    0/1 matrix product, whose small integer sums are exact, then clips."""
    out = np.zeros((len(outputs), slot_width))
    if space.family in CATEGORICAL_FAMILIES:
        if outputs.shape[1] > slot_width:
            raise ShapeMismatchError(
                f"canonical space of size {outputs.shape[1]} exceeds slot width {slot_width}")
        out[:, :outputs.shape[1]] = outputs
    elif space.family is TaskFamily.GROUNDING:
        out[:, :min(4, slot_width)] = outputs[:, :min(4, slot_width)]
    else:
        fold = np.arange(outputs.shape[1])[:, None] % slot_width == np.arange(slot_width)
        out = np.clip(outputs.astype(np.float64) @ fold.astype(np.float64), 0.0, 1.0)
    return out


def encode_label(space, gt, label_embed_dim):
    """Fixed numeric ground-truth encoding for non-categorical tasks."""
    out = np.zeros(label_embed_dim)
    if space.family is TaskFamily.GROUNDING:
        out[: min(4, label_embed_dim)] = np.asarray(gt.box)[: min(4, label_embed_dim)]
    else:
        for pair in gt.pairs:
            out[space.pair_vocab.index(pair) % label_embed_dim] += 1.0
        out = np.clip(out, 0.0, 1.0)
    return out


def encode_query(params, cfg, x_rows, q_rows):
    """u = U [phi_x(x) || phi_q(q)] for a stack of queries (n rows): float32
    rows stay float32, any other rows are made float64."""
    x_rows = np.atleast_2d(np.asarray(x_rows))
    q_rows = np.atleast_2d(np.asarray(q_rows))
    if x_rows.shape[1] != cfg.d_x or q_rows.shape[1] != cfg.d_q:
        raise ShapeMismatchError(
            f"encode_query: feature dims {x_rows.shape[1]}/{q_rows.shape[1]} "
            f"do not match config {cfg.d_x}/{cfg.d_q}")
    px = dc.linear(dc.constant(x_rows), params["phi_x_W"], params["phi_x_b"])
    pq = dc.linear(dc.constant(q_rows), params["phi_q_W"], params["phi_q_b"])
    return dc.linear(dc.concat_cols([px, pq]), params["fuse_W"], params["fuse_b"])


def _label_offsets(cfg):
    """First ``_label_table`` row of each task's labels; the last entry is the
    table's zero row."""
    return np.concatenate([[0], np.cumsum(cfg.task_label_counts)]).astype(np.intp)


def _label_table(params, cfg, dtype):
    """The categorical tasks' learned label tables stacked in task order,
    plus one zero row of ``dtype`` that rows without a learned label read."""
    tables = [params[f"label_embed_t{t}"]
              for t, count in enumerate(cfg.task_label_counts) if count > 0]
    return dc.stack_rows(tables + [dc.constant(np.zeros((1, cfg.label_embed_dim), dtype))])


@dataclass
class ReferenceStack:
    """Constant inputs of G reference sets of R rows each."""
    x: np.ndarray           # (G, R, d_x)
    label_ids: np.ndarray   # (G, R) rows of _label_table
    label_enc: np.ndarray   # (G, R, label_embed_dim) fixed non-categorical label encodings
    slots: np.ndarray       # (G, R, slot_width) encoded reference predictions

    @classmethod
    def zeros(cls, cfg, n_sets, width):
        return cls(x=np.zeros((n_sets, width, cfg.d_x)),
                   label_ids=np.full((n_sets, width), _label_offsets(cfg)[-1], dtype=np.intp),
                   label_enc=np.zeros((n_sets, width, cfg.label_embed_dim)),
                   slots=np.zeros((n_sets, width, cfg.slot_width)))

    @property
    def width(self):
        return self.x.shape[1]

    def take(self, rows, dtype):
        """The sets ``rows``, with the float arrays (x, label encodings,
        slots) in ``dtype``."""
        return ReferenceStack(x=self.x[rows].astype(dtype, copy=False),
                              label_ids=self.label_ids[rows],
                              label_enc=self.label_enc[rows].astype(dtype, copy=False),
                              slots=self.slots[rows].astype(dtype, copy=False))


def reference_arrays(cfg, space, refs):
    """The one-set ``ReferenceStack`` of a list of (x, ground truth, aligned
    prediction) reference elements."""
    out = ReferenceStack.zeros(cfg, 1, len(refs))
    categorical = space.family in CATEGORICAL_FAMILIES
    if categorical and len(space.labels) > cfg.task_label_counts[space.task]:
        raise ShapeMismatchError(
            f"task {space.task} has {len(space.labels)} labels, the selector config "
            f"{cfg.task_label_counts[space.task]}")
    offset = _label_offsets(cfg)[space.task]
    for r, (x, gt, aligned) in enumerate(refs):
        out.x[0, r] = x
        if categorical:
            y = gt.label if space.family is TaskFamily.CLASSIFICATION else gt.option
            if not (0 <= y < len(space.labels)):
                raise ValueError(f"label {y} outside canonical space of task {space.task}")
            out.label_ids[0, r] = offset + y
        else:
            out.label_enc[0, r] = encode_label(space, gt, cfg.label_embed_dim)
        out.slots[0, r] = encode_slot(space, aligned, cfg.slot_width)
    return out


class ReferenceBank:
    """The constant arrays of (tool, task) reference sets of one length,
    stacked in the order given as one ``ReferenceStack``, built at once.

    A model and its ``detached`` views share one bank. Tools are identified
    by their index, as in the model's ``predict_fn``.
    """

    def __init__(self, cfg, spaces, tool_tasks):
        self.row_of, parts = {}, []
        for tool, task in tool_tasks:
            refs = tool.reference_sets.get(task)
            if not refs:
                raise EmptyReferenceSetError(f"tool {tool.tool_id} (index {tool.index}) has "
                                             f"no reference set for task {task}")
            if parts and len(refs) != parts[0].width:
                raise ShapeMismatchError(
                    f"tool {tool.tool_id} (index {tool.index}) has {len(refs)} reference "
                    f"elements for task {task}, the other sets {parts[0].width}")
            self.row_of[(tool.index, task)] = len(parts)
            parts.append(reference_arrays(cfg, spaces[task], refs))
        self.sets = (ReferenceStack(*(np.concatenate([getattr(p, f.name) for p in parts])
                                      for f in fields(ReferenceStack)))
                     if parts else ReferenceStack.zeros(cfg, 0, 0))


def encode_reference_set(params, cfg, sets):
    """Embed a ``ReferenceStack`` of G sets of R rows: the rows t (G*R, d) and
    the keys phi_x(x) (G*R, d_xp). The label table's zero row takes the
    dtype of the stack's ``x``."""
    n = sets.label_ids.size
    px = dc.linear(dc.constant(sets.x.reshape(n, cfg.d_x)), params["phi_x_W"],
                   params["phi_x_b"])
    labels = dc.add(dc.take_rows(_label_table(params, cfg, sets.x.dtype),
                                 sets.label_ids.reshape(n)),
                    dc.constant(sets.label_enc.reshape(n, cfg.label_embed_dim)))
    m_emb = dc.linear(dc.constant(sets.slots.reshape(n, cfg.slot_width)),
                      params["rho_m_W"], params["rho_m_b"])
    t = dc.linear(dc.concat_cols([px, labels, m_emb]), params["ref_W"], params["ref_b"])
    return t, px


def self_attend_refs(params, cfg, t, width, training=False, rng=None):
    """Single-head self-attention within each reference set; dropout on output rows.

    ``t`` holds sets of ``width`` rows each as (G*R, d), R = ``width``.
    """
    sets = t.shape[0] // width

    def project(name):
        return dc.reshape(dc.matmul(t, params[name]), (sets, width, cfg.d))

    out = dc.attend(project("self_q_W"), project("self_k_W"), project("self_v_W"))
    out = dc.reshape(out, (sets * width, cfg.d))
    if training and cfg.dropout > 0.0:
        out = dc.dropout(out, cfg.dropout, rng)
    return out


def project_sets(params, cfg, keys, t_tilde, width):
    """Cross-attention keys K (G, R, d_k) and values V (G, R, d_v) of G
    reference sets of R = ``width`` rows, from their keys (G*R, d_xp) and
    self-attended rows (G*R, d). Neither depends on the query."""
    sets = keys.shape[0] // width
    k = dc.reshape(dc.matmul(keys, params["cross_k_W"]), (sets, width, cfg.d_k))
    v = dc.reshape(dc.matmul(t_tilde, params["cross_v_W"]), (sets, width, cfg.d_v))
    return k, v


def cross_attend(params, cfg, u_rows, k_sets, v_sets, sets_of_rows):
    """Query-conditioned tool descriptor psi for each query row.

    ``k_sets`` (N, R, d_k) and ``v_sets`` (N, R, d_v) are ``project_sets``
    of N reference sets; query row i attends over set ``sets_of_rows[i]``.
    """
    n = u_rows.shape[0]
    q = dc.reshape(dc.matmul(u_rows, params["cross_q_W"]), (n, 1, cfg.d_k))
    psi = dc.attend(q, dc.take_rows(k_sets, sets_of_rows), dc.take_rows(v_sets, sets_of_rows))
    return dc.reshape(psi, (n, cfg.d_v))


def score_rows(params, cfg, features, training=False, rng=None):
    """Selector head: two-layer GELU MLP mapping feature rows to scores."""
    h = dc.gelu(dc.linear(features, params["head1_W"], params["head1_b"]))
    if training and cfg.dropout > 0.0:
        h = dc.dropout(h, cfg.dropout, rng)
    return dc.linear(h, params["head2_W"], params["head2_b"])


def coverage_rows(params, cfg, features):
    """Coverage head: sigmoid MLP estimating per-tool success probability."""
    h = dc.gelu(dc.linear(features, params["cov1_W"], params["cov1_b"]))
    return dc.sigmoid(dc.linear(h, params["cov2_W"], params["cov2_b"]))


@dataclass
class SelectionDistribution:
    """One item's selection distribution over its panel's slots."""
    scores: np.ndarray
    mask: np.ndarray
    probs: np.ndarray
    selected: int


@dataclass
class BatchForward:
    """Outputs of one batched forward over B items, M the widest panel: the
    stacked tensors the objective reads, and the pairs' coverage and per-item
    distributions, both built only when read."""
    probs_t: object         # Tensor (B, M): selection distribution per row
    scores_t: object        # Tensor (B, M): raw scores, zero on invalid and padding slots
    mask: np.ndarray        # (B, M) valid slots
    slot_pair: np.ndarray   # (V,) pair of each valid slot, in row-major slot order
    tasks: np.ndarray       # (B,) task of each item
    widths: list            # panel size of each item
    coverage_fn: object     # () -> the coverage tensor, run by the first read of coverage_t

    @cached_property
    def coverage_t(self):
        """Tensor (P,): coverage per distinct (example, tool) pair."""
        return self.coverage_fn()

    @property
    def selected(self):
        """Each item's selected slot, the first of its most probable ones:
        the padding slots of narrower panels hold probability 0."""
        return self.probs_t.data.argmax(axis=1).tolist()

    @cached_property
    def dists(self):
        """Each item's ``SelectionDistribution`` over its own panel's slots."""
        probs, scores = self.probs_t.data, self.scores_t.data
        return [SelectionDistribution(scores=scores[i, :m].copy(), mask=self.mask[i, :m].copy(),
                                      probs=probs[i, :m].copy(), selected=selected)
                for i, (m, selected) in enumerate(zip(self.widths, self.selected))]


class SelectorModel:
    """Bundles params + config with the ``ReferenceBank`` of every set its
    panels can hold.

    ``predict_fn(queries, example, tools) -> (P, slot_width)`` supplies the
    encoded predictions of ``tools[p]`` on ``queries[example[p]]`` for a
    batch's B queries and P distinct pairs, in one call per forward; the
    model itself never runs tools.
    """

    def __init__(self, cfg, params, bank, predict_fn):
        self.cfg = cfg
        self.params = params
        self.bank = bank
        self.predict_fn = predict_fn
        # a frozen model's cross-attention keys (N, R, d_k) and values
        # (N, R, d_v) of every bank set, encoded now; None for a trainable
        # model, and for an empty bank, which no forward can read
        self.store = None
        if bank.row_of and not any(p.requires_grad for p in params.values()):
            k, v = self._encode_sets(np.arange(len(bank.sets.x)), False, None,
                                     params["fuse_W"].data.dtype)
            self.store = (k.data, v.data)

    def detached(self):
        """Forward-only snapshot: a copy of every parameter, gradients
        disabled, reference bank shared. An in-place change of this model's
        parameters does not reach it, so its stored encodings never go stale."""
        params = {name: dc.Tensor(p.data.copy(), requires_grad=False)
                  for name, p in self.params.items()}
        return SelectorModel(self.cfg, params, self.bank, self.predict_fn)

    def _encode_sets(self, rows, training, rng, dtype):
        """``project_sets`` of the bank's sets ``rows``."""
        sets = self.bank.sets.take(rows, dtype)
        t, keys = encode_reference_set(self.params, self.cfg, sets)
        t_tilde = self_attend_refs(self.params, self.cfg, t, sets.width, training, rng)
        return project_sets(self.params, self.cfg, keys, t_tilde, sets.width)

    def _reference_encodings(self, rows, training, rng, dtype):
        """Cross-attention keys (N, R, d_k) and values (N, R, d_v) of N
        reference sets, and the positions among them of the bank's G sets
        ``rows``. A trainable model, or a training forward, encodes the G sets
        on the tape as the N sets; a frozen model's N sets are the bank's,
        from its store.
        """
        if self.store is None or training:
            return (*self._encode_sets(rows, training, rng, dtype), np.arange(len(rows)))
        return (*map(dc.constant, self.store), rows)

    def select(self, query, panel):
        """Score a panel and produce the masked selection distribution: the
        forward of a one-item batch. Ties go to the lowest slot."""
        return self.batch_forward([(LabeledQuery(query, None), panel)]).dists[0]

    def batch_forward(self, items, training=False, rng=None):
        """One forward over (labeled query, panel) items; only the queries are read.

        Every (tool, task) reference set the batch needs is encoded once, as
        one stack, or read from a frozen model's store; every distinct
        (example, tool) pair is scored once and its score gathered into each
        panel slot holding that tool, so copies of a tool tie exactly. One
        row-masked softmax over the (B, M) score matrix gives all the
        selection distributions. The coverage head runs when ``coverage_t``
        is first read.
        """
        if not items:
            raise ValueError("batch_forward: empty batch")
        widths = [len(panel.tools) for _, panel in items]
        width = max(widths)
        bank_rows, set_of = [], {}           # distinct (tool, task) reference sets
        pair_of = {}                         # (example, tool index) -> pair
        pair_example, pair_set, pair_tools = [], [], []
        slot_pair, slot_pos = [], []         # pair and flat (B, M) position of each valid slot
        row_of = self.bank.row_of
        for i, (lq, panel) in enumerate(items):
            query = lq.query
            first = len(slot_pos)
            for j, tool in enumerate(panel.tools):
                if not validity(tool, query):
                    continue
                key = (i, tool.index)
                pair = pair_of.get(key)
                if pair is None:
                    ref_key = (tool.index, query.task)
                    ref = set_of.get(ref_key)
                    if ref is None:
                        if ref_key not in row_of:
                            raise EmptyReferenceSetError(
                                f"tool {tool.tool_id} (index {tool.index}) has no set for "
                                f"task {query.task} in the model's reference bank")
                        ref = set_of[ref_key] = len(bank_rows)
                        bank_rows.append(row_of[ref_key])
                    pair = pair_of[key] = len(pair_example)
                    pair_example.append(i)
                    pair_set.append(ref)
                    pair_tools.append(tool)
                slot_pair.append(pair)
                slot_pos.append(i * width + j)
            if len(slot_pos) == first:
                raise NoValidCandidateError(f"no valid tool in panel for query {query.uid}")
        slot_pair = np.array(slot_pair, dtype=np.intp)
        slot_pos = np.array(slot_pos, dtype=np.intp)
        mask = np.zeros(len(items) * width, dtype=bool)
        mask[slot_pos] = True
        mask = mask.reshape(len(items), width)

        # constant inputs take the parameters' dtype: float64 for a trained
        # model, float32 for the copy that fit trains
        dtype = self.params["fuse_W"].data.dtype
        queries = [lq.query for lq, _ in items]
        pair_example = np.array(pair_example, dtype=np.intp)
        u = encode_query(self.params, self.cfg, np.array([q.x for q in queries], dtype),
                         np.array([q.q for q in queries], dtype))
        k_sets, v_sets, set_rows = self._reference_encodings(
            np.array(bank_rows, dtype=np.intp), training, rng, dtype)
        u_pairs = dc.take_rows(u, pair_example)
        psi = cross_attend(self.params, self.cfg, u_pairs, k_sets, v_sets, set_rows[pair_set])
        features = dc.concat_cols([u_pairs, psi,
                                   dc.constant(np.asarray(
                                       self.predict_fn(queries, pair_example, pair_tools),
                                       dtype)),
                                   dc.constant(np.array([tool.eta for tool in pair_tools],
                                                        dtype))])
        n_pairs = len(pair_example)
        pair_scores = dc.reshape(
            score_rows(self.params, self.cfg, features, training=training, rng=rng), (n_pairs,))
        finite = np.isfinite(pair_scores.data)
        if not finite.all():
            uids = sorted({queries[pair_example[p]].uid for p in np.flatnonzero(~finite)})
            raise NonFiniteScoreError(f"non-finite selector score for queries {uids}")
        scores_t = dc.scatter_1d(dc.take_rows(pair_scores, slot_pair), slot_pos, mask.shape)

        def coverage():
            pairs = dc.concat_cols([u_pairs, psi])
            return dc.reshape(coverage_rows(self.params, self.cfg, pairs), (n_pairs,))

        return BatchForward(probs_t=dc.masked_softmax(scores_t, mask), scores_t=scores_t,
                            mask=mask, slot_pair=slot_pair,
                            tasks=np.array([q.task for q in queries]), widths=widths,
                            coverage_fn=coverage)
