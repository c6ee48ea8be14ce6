"""Attentive-Neural-Process selector.

One batched forward scores B (query, panel) items at once:

- ``encode_query`` embeds the B fused queries.
- Each (tool, task) reference set the batch needs is read from the model's
  ``ReferenceBank``, which builds a set's constant arrays (inputs, label ids
  or encodings, slot matrix, row mask) once, on first use. The G sets are
  encoded as one (G, R, .) stack and self-attended with one batched,
  row-masked attention.
- Each distinct (example, tool) pair cross-attends from its query over its
  tool's set once; the score head, and the coverage head that predicts each
  tool's per-query success probability, run once over all pairs.
- The pair scores are gathered into a (B, M) slot matrix, M the largest
  panel, and one row-masked softmax gives every selection distribution. A
  tool drawn twice into one panel reads one pair score, so its copies tie
  exactly and the lowest slot wins.

``SelectorModel.select`` is the forward of a one-item batch.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import diffcore as dc
from .domain import CATEGORICAL_FAMILIES, LabeledQuery, TaskFamily, validity
from .errors import EmptyReferenceSetError, NoValidCandidateError, ShapeMismatchError


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
    ref_size: int = 16
    label_embed_dim: int = 8
    rho_dim: int = 8
    slot_width: int = 5
    eta_dim: int = 2
    n_tasks: int = 4
    # |Y_t| per task; 0 for non-categorical tasks (no learned label table)
    task_label_counts: tuple = (5, 0, 0, 4)

    def __post_init__(self):
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if not (1 <= self.ref_size):
            raise ValueError("ref_size must be positive")
        for name in ("d_x", "d_q", "d_xp", "d_qp", "d_u", "d", "d_k", "d_v",
                     "hidden", "label_embed_dim", "rho_dim", "slot_width", "eta_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _xavier(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(cfg, seed):
    """Xavier-uniform weights, zero biases; deterministic in the seed."""
    rng = np.random.default_rng([seed, 2147483629])
    p = {}

    def linear(name, fan_in, fan_out, bias=True):
        p[f"{name}_W"] = dc.Tensor(_xavier(rng, fan_in, fan_out), requires_grad=True)
        if bias:
            p[f"{name}_b"] = dc.Tensor(np.zeros(fan_out), requires_grad=True)

    linear("phi_x", cfg.d_x, cfg.d_xp)
    linear("phi_q", cfg.d_q, cfg.d_qp)
    linear("fuse", cfg.d_xp + cfg.d_qp, cfg.d_u)
    for t, count in enumerate(cfg.task_label_counts):
        if count > 0:
            p[f"label_embed_t{t}"] = dc.Tensor(
                _xavier(rng, count, cfg.label_embed_dim), requires_grad=True)
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
    return p


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
    """u = U [phi_x(x) || phi_q(q)] for a stack of queries (n rows)."""
    x_rows = np.atleast_2d(np.asarray(x_rows, dtype=np.float64))
    q_rows = np.atleast_2d(np.asarray(q_rows, dtype=np.float64))
    if x_rows.shape[1] != cfg.d_x or q_rows.shape[1] != cfg.d_q:
        raise ShapeMismatchError(
            f"encode_query: feature dims {x_rows.shape[1]}/{q_rows.shape[1]} "
            f"do not match config {cfg.d_x}/{cfg.d_q}")
    px = dc.add(dc.matmul(dc.constant(x_rows), params["phi_x_W"]), params["phi_x_b"])
    pq = dc.add(dc.matmul(dc.constant(q_rows), params["phi_q_W"]), params["phi_q_b"])
    return dc.add(dc.matmul(dc.concat_cols([px, pq]), params["fuse_W"]), params["fuse_b"])


def _label_offsets(cfg):
    """First ``_label_table`` row of each task's labels; the last entry is the
    table's zero row."""
    return np.concatenate([[0], np.cumsum(cfg.task_label_counts)]).astype(np.intp)


def _label_table(params, cfg):
    """The categorical tasks' learned label tables stacked in task order,
    plus one zero row that rows without a learned label read."""
    tables = [params[f"label_embed_t{t}"]
              for t, count in enumerate(cfg.task_label_counts) if count > 0]
    return dc.stack_rows(tables + [dc.constant(np.zeros((1, cfg.label_embed_dim)))])


@dataclass
class ReferenceStack:
    """Constant inputs of G reference sets padded to R rows."""
    x: np.ndarray           # (G, R, d_x)
    label_ids: np.ndarray   # (G, R) rows of _label_table
    label_enc: np.ndarray   # (G, R, label_embed_dim) fixed non-categorical label encodings
    slots: np.ndarray       # (G, R, slot_width) encoded reference predictions
    mask: np.ndarray        # (G, R) real rows

    @classmethod
    def zeros(cls, cfg, n_sets, width):
        return cls(x=np.zeros((n_sets, width, cfg.d_x)),
                   label_ids=np.full((n_sets, width), _label_offsets(cfg)[-1], dtype=np.intp),
                   label_enc=np.zeros((n_sets, width, cfg.label_embed_dim)),
                   slots=np.zeros((n_sets, width, cfg.slot_width)),
                   mask=np.zeros((n_sets, width), dtype=bool))

    def arrays(self):
        return (self.x, self.label_ids, self.label_enc, self.slots, self.mask)

    def take(self, rows):
        return ReferenceStack(*(a[rows] for a in self.arrays()))


def reference_arrays(cfg, space, refs):
    """The one-set ``ReferenceStack`` of a list of (x, ground truth, aligned
    prediction) reference elements."""
    if not refs:
        raise EmptyReferenceSetError("reference_arrays: empty reference set")
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
    out.mask[:] = True
    return out


class ReferenceBank:
    """Stacked constant arrays of every (tool, task) reference set used so far.

    A set's arrays are built once, on first use, and never change, so a model
    and its ``detached`` views share one bank. Rows are padded to the longest
    set seen. Tools are identified by their index, as in the model's
    ``predict_fn``.
    """

    def __init__(self, cfg, spaces):
        self.cfg = cfg
        self.spaces = spaces
        self.row_of = {}
        self.sets = ReferenceStack.zeros(cfg, 0, 0)

    def rows(self, tool_tasks):
        """Bank rows of (tool, task) pairs, building the missing ones."""
        return np.array([self._row(tool, task) for tool, task in tool_tasks], dtype=np.intp)

    def _row(self, tool, task):
        row = self.row_of.get((tool.index, task))
        if row is not None:
            return row
        new = reference_arrays(self.cfg, self.spaces[task], tool.reference_sets[task])
        row = len(self.row_of)
        capacity, width = self.sets.mask.shape
        if row == capacity or new.mask.shape[1] > width:
            grown = ReferenceStack.zeros(self.cfg, max(16, 2 * capacity if row == capacity
                                                       else capacity),
                                         max(width, new.mask.shape[1]))
            for dst, src in zip(grown.arrays(), self.sets.arrays()):
                dst[:capacity, :width] = src
            self.sets = grown
        for dst, src in zip(self.sets.arrays(), new.arrays()):
            dst[row, :src.shape[1]] = src[0]
        self.row_of[(tool.index, task)] = row
        return row


def encode_reference_set(params, cfg, sets):
    """Embed a ``ReferenceStack`` of G sets of R rows: the rows t (G*R, d) and
    the keys phi_x(x) (G*R, d_xp)."""
    n = sets.mask.size
    px = dc.add(dc.matmul(dc.constant(sets.x.reshape(n, cfg.d_x)), params["phi_x_W"]),
                params["phi_x_b"])
    labels = dc.add(dc.take_rows(_label_table(params, cfg), sets.label_ids.reshape(n)),
                    dc.constant(sets.label_enc.reshape(n, cfg.label_embed_dim)))
    m_emb = dc.add(dc.matmul(dc.constant(sets.slots.reshape(n, cfg.slot_width)),
                             params["rho_m_W"]), params["rho_m_b"])
    t = dc.add(dc.matmul(dc.concat_cols([px, labels, m_emb]), params["ref_W"]),
               params["ref_b"])
    return t, px


def self_attend_refs(params, cfg, t, mask=None, training=False, rng=None):
    """Single-head self-attention within each reference set; dropout on output rows.

    ``t`` holds G sets of R rows as (G*R, d), with ``mask`` (G, R) marking
    real rows; without a mask, ``t`` is one set.
    """
    sets, width = (1, t.shape[0]) if mask is None else mask.shape

    def project(name):
        return dc.reshape(dc.matmul(t, params[name]), (sets, width, cfg.d))

    out = dc.attend(project("self_q_W"), project("self_k_W"), project("self_v_W"),
                    key_mask=mask)
    out = dc.reshape(out, (sets * width, cfg.d))
    if training and cfg.dropout > 0.0:
        out = dc.dropout(out, cfg.dropout, rng)
    return out


def cross_attend(params, cfg, u_rows, keys, t_tilde, mask=None, sets_of_rows=None):
    """Query-conditioned tool descriptor psi for each query row.

    ``keys`` (G*R, d_xp) and ``t_tilde`` (G*R, d) hold G reference sets with
    ``mask`` (G, R); query row i attends over set ``sets_of_rows[i]``.
    Without a mask the keys are one set that every row attends over.
    """
    n = u_rows.shape[0]
    if mask is None:
        sets, width = 1, keys.shape[0]
        sets_of_rows = np.zeros(n, dtype=np.intp)
    else:
        sets, width = mask.shape
        mask = mask[sets_of_rows]
    k = dc.reshape(dc.matmul(keys, params["cross_k_W"]), (sets, width, cfg.d_k))
    v = dc.reshape(dc.matmul(t_tilde, params["cross_v_W"]), (sets, width, cfg.d_v))
    q = dc.reshape(dc.matmul(u_rows, params["cross_q_W"]), (n, 1, cfg.d_k))
    psi = dc.attend(q, dc.take_rows(k, sets_of_rows), dc.take_rows(v, sets_of_rows),
                    key_mask=mask)
    return dc.reshape(psi, (n, cfg.d_v))


def score_rows(params, cfg, features, training=False, rng=None):
    """Selector head: two-layer GELU MLP mapping feature rows to scores."""
    h = dc.gelu(dc.add(dc.matmul(features, params["head1_W"]), params["head1_b"]))
    if training and cfg.dropout > 0.0:
        h = dc.dropout(h, cfg.dropout, rng)
    return dc.add(dc.matmul(h, params["head2_W"]), params["head2_b"])


def coverage_rows(params, cfg, features):
    """Coverage head: sigmoid MLP estimating per-tool success probability."""
    h = dc.gelu(dc.add(dc.matmul(features, params["cov1_W"]), params["cov1_b"]))
    return dc.sigmoid(dc.add(dc.matmul(h, params["cov2_W"]), params["cov2_b"]))


@dataclass
class BatchTensors:
    """Stacked differentiable outputs of one batched forward over B items."""
    probs_t: object         # Tensor (B, M): selection distribution per row, M the largest panel
    scores_t: object        # Tensor (B, M): raw scores, zero on invalid and padding slots
    mask: np.ndarray        # (B, M) valid slots
    coverage_t: object      # Tensor (P,): coverage per distinct (example, tool) pair, or None
    slot_pair: np.ndarray   # (V,) pair of each valid slot, in row-major slot order


@dataclass
class SelectionDistribution:
    """One item's selection distribution: a row of a ``BatchTensors``."""
    scores: np.ndarray
    mask: np.ndarray
    probs: np.ndarray
    selected: int
    batch: BatchTensors = field(default=None, repr=False, compare=False)
    row: int = 0

    def _row_of(self, t):
        width = self.batch.mask.shape[1]
        flat = dc.reshape(t, (t.data.size,))
        return dc.take_rows(flat, self.row * width + np.arange(len(self.mask)))

    @cached_property
    def probs_t(self):
        return self._row_of(self.batch.probs_t)

    @cached_property
    def scores_t(self):
        return self._row_of(self.batch.scores_t)

    @cached_property
    def coverage_t(self):
        """Coverage over this item's valid slots, or None without a coverage head."""
        if self.batch.coverage_t is None:
            return None
        start = int(self.batch.mask[:self.row].sum())
        pairs = self.batch.slot_pair[start:start + int(self.mask.sum())]
        return dc.take_rows(self.batch.coverage_t, pairs)


@dataclass
class BatchForward:
    """Outputs of one batched forward: per-item distributions and the
    stacked tensors they are rows of."""
    dists: list
    tensors: BatchTensors


class SelectorModel:
    """Bundles params + config with the reference-set machinery.

    ``predict_fn(tool, query) -> (slot_vec, aligned)`` supplies the aligned
    prediction of a tool on the routed query; the model itself never runs
    tools.
    """

    def __init__(self, cfg, params, spaces, predict_fn, bank=None):
        self.cfg = cfg
        self.params = params
        self.spaces = spaces
        self.predict_fn = predict_fn
        self.bank = ReferenceBank(cfg, spaces) if bank is None else bank

    def detached(self):
        """Forward-only view: params and reference bank shared, gradients disabled."""
        detached = {}
        for name, p in self.params.items():
            detached[name] = dc.Tensor(p.data, requires_grad=False)
        return SelectorModel(self.cfg, detached, self.spaces, self.predict_fn, self.bank)

    def trainables(self):
        return [self.params[k] for k in sorted(self.params)]

    def _encode_sets(self, rows, training, rng):
        sets = self.bank.sets.take(rows)
        t, keys = encode_reference_set(self.params, self.cfg, sets)
        t_tilde = self_attend_refs(self.params, self.cfg, t, sets.mask, training, rng)
        return keys, t_tilde, sets.mask

    def _reference_encodings(self, tool_tasks, training, rng, cache):
        """Keys (G*R, d_xp), self-attended rows (G*R, d) and row mask (G, R)
        of G (tool, task) reference sets.

        ``cache``, kept by a forward-only caller, maps (tool index, task) to
        a set's encoded rows, so each set is encoded once per cache.
        """
        rows = self.bank.rows(tool_tasks)
        if cache is None:
            return self._encode_sets(rows, training, rng)
        keys_of = [(tool.index, task) for tool, task in tool_tasks]
        missing = [g for g, key in enumerate(keys_of) if key not in cache]
        if missing:
            keys, t_tilde, mask = self._encode_sets(rows[missing], training, rng)
            width = mask.shape[1]
            keys = keys.data.reshape(len(missing), width, -1)
            t_tilde = t_tilde.data.reshape(len(missing), width, -1)
            for n, g in enumerate(missing):
                real = int(mask[n].sum())
                cache[keys_of[g]] = (keys[n, :real].copy(), t_tilde[n, :real].copy())
        mask = self.bank.sets.mask[rows]
        sets, width = mask.shape
        keys = np.zeros((sets, width, self.cfg.d_xp))
        t_tilde = np.zeros((sets, width, self.cfg.d))
        for g, key in enumerate(keys_of):
            k, t = cache[key]
            keys[g, :len(k)] = k
            t_tilde[g, :len(t)] = t
        return (dc.constant(keys.reshape(sets * width, -1)),
                dc.constant(t_tilde.reshape(sets * width, -1)), mask)

    def select(self, query, panel, cache=None):
        """Score a panel and produce the masked selection distribution: the
        forward of a one-item batch. Ties go to the lowest slot."""
        item = (LabeledQuery(query, None), panel)
        return self.batch_forward([item], with_coverage=False, cache=cache).dists[0]

    def batch_forward(self, items, training=False, rng=None, with_coverage=True, cache=None):
        """One forward over (labeled query, panel) items; only the queries are read.

        Every (tool, task) reference set the batch needs is encoded once, as
        one stack; every distinct (example, tool) pair is scored once and its
        score gathered into each panel slot holding that tool, so copies of a
        tool tie exactly. One row-masked softmax over the (B, M) score matrix
        gives all the selection distributions.
        """
        if not items:
            raise ValueError("batch_forward: empty batch")
        width = max(len(panel.tools) for _, panel in items)
        mask = np.zeros((len(items), width), dtype=bool)
        tool_tasks, set_of = [], {}          # distinct (tool, task) reference sets
        pair_of = {}                         # (example, tool index) -> pair
        pair_example, pair_set, pair_slots, pair_etas = [], [], [], []
        slot_pair, slot_pos = [], []
        for i, (lq, panel) in enumerate(items):
            query = lq.query
            for j, tool in enumerate(panel.tools):
                if not validity(tool, query):
                    continue
                mask[i, j] = True
                pair = pair_of.get((i, tool.index))
                if pair is None:
                    ref_key = (tool.index, query.task)
                    if ref_key not in set_of:
                        set_of[ref_key] = len(tool_tasks)
                        tool_tasks.append((tool, query.task))
                    pair = pair_of[(i, tool.index)] = len(pair_example)
                    pair_example.append(i)
                    pair_set.append(set_of[ref_key])
                    pair_slots.append(self.predict_fn(tool, query)[0])
                    pair_etas.append(tool.eta)
                slot_pair.append(pair)
                slot_pos.append(i * width + j)
            if not mask[i].any():
                raise NoValidCandidateError(f"no valid tool in panel for query {query.uid}")

        queries = [lq.query for lq, _ in items]
        u = encode_query(self.params, self.cfg, np.array([q.x for q in queries]),
                         np.array([q.q for q in queries]))
        keys, t_tilde, ref_mask = self._reference_encodings(tool_tasks, training, rng, cache)
        u_pairs = dc.take_rows(u, pair_example)
        psi = cross_attend(self.params, self.cfg, u_pairs, keys, t_tilde, ref_mask,
                           np.asarray(pair_set, dtype=np.intp))
        features = dc.concat_cols([u_pairs, psi, dc.constant(np.array(pair_slots)),
                                   dc.constant(np.array(pair_etas))])
        n_pairs = len(pair_example)
        pair_scores = dc.reshape(
            score_rows(self.params, self.cfg, features, training=training, rng=rng), (n_pairs,))
        scores_t = dc.scatter_1d(dc.take_rows(pair_scores, slot_pair), slot_pos, mask.shape)
        probs_t = dc.masked_softmax(scores_t, mask)
        coverage_t = None
        if with_coverage:
            coverage_t = dc.reshape(coverage_rows(
                self.params, self.cfg, dc.concat_cols([u_pairs, psi])), (n_pairs,))
        tensors = BatchTensors(probs_t=probs_t, scores_t=scores_t, mask=mask,
                               coverage_t=coverage_t,
                               slot_pair=np.asarray(slot_pair, dtype=np.intp))
        dists = []
        for i, (_, panel) in enumerate(items):
            m = len(panel.tools)
            probs = probs_t.data[i, :m].copy()
            dists.append(SelectionDistribution(
                scores=scores_t.data[i, :m].copy(), mask=mask[i, :m].copy(), probs=probs,
                selected=int(np.argmax(probs)), batch=tensors, row=i))
        return BatchForward(dists=dists, tensors=tensors)
