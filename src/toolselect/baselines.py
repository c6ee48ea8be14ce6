"""Reference routers: Random, Oracle, GlobalBest, KNN, and an index-output
MLP router, plus the wrapper that routes with a trained selector.

Every router defines only ``route_batch``; ``route`` is the base class's
one-item call. The three learned baselines route a chunk of (labeled query,
panel) items with array operations over its ``(B, M)`` tool-index and
validity arrays: GlobalBest with one lookup into its fitted mean costs, KNN
with one ``cKDTree.query`` per task group over a ``(bank tools, training
queries)`` cost matrix, MLPIndex with one two-layer forward per task group.
Ties go to the lowest slot, tools unseen at fit rank last, and a panel whose
valid slots all hold unseen tools routes to its first valid slot.
"""

import numpy as np

from . import diffcore as dc
from .anp_selector import xavier
from .domain import validity
from .errors import NoValidCandidateError
from .evalharness import Router
from .trainer import AdamW


def _panel_arrays(items):
    """The ``(B, M)`` tool indices and validity of a chunk's panels, ragged
    panels padded with invalid slots. Raises ``NoValidCandidateError`` for
    the first item without a valid slot."""
    index = [[tool.index for tool in panel.tools] for _, panel in items]
    valid = [[validity(tool, lq.query) for tool in panel.tools] for lq, panel in items]
    for (lq, _), row in zip(items, valid):
        if not any(row):
            raise NoValidCandidateError(f"no valid slot for query {lq.query.uid}")
    width = max(len(row) for row in index)
    return (np.array([row + [0] * (width - len(row)) for row in index]),
            np.array([row + [False] * (width - len(row)) for row in valid]))


def _valid_slots(lq, panel):
    slots = [j for j, tool in enumerate(panel.tools) if validity(tool, lq.query)]
    if not slots:
        raise NoValidCandidateError(f"no valid slot for query {lq.query.uid}")
    return slots


class RandomRouter(Router):
    name = "Random"

    def route_batch(self, items, rng):
        """A uniform valid slot per item: one ``rng.integers`` draw each, in order."""
        out = []
        for lq, panel in items:
            slots = _valid_slots(lq, panel)
            out.append(slots[rng.integers(len(slots))])
        return out


class OracleRouter(Router):
    """Evaluation-only: picks the true-cost-minimizing valid slot.

    Consumes ground truth; must never appear on a training path.
    """
    name = "Oracle"

    def __init__(self, world):
        self.world = world

    def route_batch(self, items, rng):
        """The valid slot of least true cost per item, ties to the lowest
        slot, with the costs of every valid slot read by one ``cost_array``
        call. A valid slot's cost is never NaN, so the first least value of
        each item's costs is the slot ``argmin`` picks."""
        slots = [_valid_slots(lq, panel) for lq, panel in items]
        costs = self.world.cost_array(
            [panel.tools[j] for (_, panel), valid in zip(items, slots) for j in valid],
            [lq for (lq, _), valid in zip(items, slots) for _ in valid]).tolist()
        out, end = [], 0
        for valid in slots:
            start, end = end, end + len(valid)
            item_costs = costs[start:end]
            out.append(valid[item_costs.index(min(item_costs))])
        return out


def _index_table(tool_ids, values, missing):
    """A lookup table over tool indices: ``values[i]`` at ``tool_ids[i]``,
    ``missing`` elsewhere, with one trailing ``missing`` entry that
    ``_lookup`` sends every index past the fitted range to."""
    table = np.full(max(tool_ids, default=-1) + 2, missing, dtype=np.asarray(values).dtype)
    table[list(tool_ids)] = values
    return table


def _lookup(table, index):
    return table[np.minimum(index, table.size - 1)]


def _lowest_rank(ranks, valid):
    """Per row, the valid slot of lowest rank, ties to the lowest slot. Unseen
    tools rank +inf, last; a row whose valid slots are all unseen gets its
    first valid slot."""
    ranks = np.where(valid, ranks, np.inf)
    best = ranks.argmin(axis=1)
    unseen = np.isposinf(ranks[np.arange(len(ranks)), best])
    return np.where(unseen, valid.argmax(axis=1), best).tolist()


def _features(lqs):
    return np.array([np.concatenate([lq.query.x, lq.query.q]) for lq in lqs])


def _task_groups(items):
    """Chunk rows grouped by their query's task, in order of first appearance."""
    groups = {}
    for b, (lq, _) in enumerate(items):
        groups.setdefault(lq.query.task, []).append(b)
    return groups


class GlobalBestRouter(Router):
    name = "GlobalBest"

    def __init__(self, mean_cost):
        self.mean_cost = mean_cost  # tool index -> fitted mean cost
        self._ranks = _index_table(list(mean_cost), list(mean_cost.values()), np.inf)

    @classmethod
    def fit(cls, world, split="train"):
        """Each tool's mean cost over the split's queries of its population's
        task, read from one dense ``cost_matrix`` per task. Each sum runs in
        split order from 0.0 (``cumsum`` under a zero row), as a running
        Python sum does."""
        records = world.splits[split]
        if not records:
            raise ValueError("GlobalBest: empty training split")
        by_task = {}
        for lq in records:
            by_task.setdefault(lq.query.task, []).append(lq)
        mean_cost = {}
        for task, task_records in by_task.items():
            pop = world.populations[task]
            costs = world.cost_matrix(task_records, pop)
            sums = np.cumsum(np.vstack([np.zeros(len(pop)), costs]), axis=0)[-1].tolist()
            for tool, total in zip(pop, sums):
                if task in tool.supported_tasks:
                    mean_cost[tool.index] = total / len(task_records)
        return cls(mean_cost)

    def route_batch(self, items, rng):
        """Every slot ranked by its tool's fitted mean cost, with one lookup."""
        index, valid = _panel_arrays(items)
        return _lowest_rank(_lookup(self._ranks, index), valid)


class KNNRouter(Router):
    """Nearest-neighbour retrieval over memorized training queries."""
    name = "KNN"

    def __init__(self, banks, k=5):
        # task -> (kdtree over training features, tool index -> bank row or -1,
        #          (bank tools, training queries) cost matrix)
        self.banks = banks
        self.k = k

    @classmethod
    def fit(cls, world, split="train", k=5):
        # imported here, so that importing the package does not load scipy.spatial
        from scipy.spatial import cKDTree

        records = world.splits[split]
        if not records:
            raise ValueError("KNN: empty training split")
        banks = {}
        for task, pop in world.populations.items():
            task_records = [lq for lq in records if lq.query.task == task]
            if not task_records:
                continue
            supported = [j for j, tool in enumerate(pop) if task in tool.supported_tasks]
            tool_ids = [pop[j].index for j in supported]
            costs = np.ascontiguousarray(world.cost_matrix(task_records, pop)[:, supported].T)
            rows = _index_table(tool_ids, np.arange(len(tool_ids)), -1)
            banks[task] = (cKDTree(_features(task_records)), rows, costs)
        return cls(banks, k=k)

    def route_batch(self, items, rng):
        """One ``cKDTree.query`` per task group; a slot ranks by its tool's
        mean cost over the query's neighbours, read from the bank's matrix."""
        index, valid = _panel_arrays(items)
        ranks = np.full(index.shape, np.inf)
        for task, group in _task_groups(items).items():
            bank = self.banks.get(task)
            if bank is None:
                continue  # every slot unseen: the first valid slot
            tree, rows, costs = bank
            k = min(self.k, costs.shape[1])
            _, nbrs = tree.query(_features([items[b][0] for b in group]), k=k)
            nbrs = nbrs.reshape(len(group), k)
            bank_rows = _lookup(rows, index[group])
            seen = bank_rows >= 0
            means = np.nanmean(costs[np.where(seen, bank_rows, 0)[:, :, None],
                                     nbrs[:, None, :]], axis=2)
            ranks[group] = np.where(seen, means, np.inf)
        return _lowest_rank(ranks, valid)


class MLPIndexRouter(Router):
    """Per-task two-layer classifier over tool indices (hidden width 64),
    trained and evaluated in float32."""
    name = "MLPIndex"

    def __init__(self, heads):
        self.heads = heads  # task -> (W1, b1, W2, b2, [tool index per logit])
        self._columns = {task: _index_table(head[4], np.arange(len(head[4])), -1)
                         for task, head in heads.items()}

    @classmethod
    def fit(cls, world, split="train", seed=0, hidden=64, lr=3e-3, iters=300):
        records = world.splits[split]
        if not records:
            raise ValueError("MLPIndex: empty training split")
        heads = {}
        for task, pop in world.populations.items():
            task_records = [lq for lq in records if lq.query.task == task]
            if not task_records:
                continue
            supported = [tool for tool in pop if task in tool.supported_tasks]
            if not supported:
                continue
            tool_ids = [tool.index for tool in supported]
            feats = _features(task_records)
            labels = world.cost_matrix(task_records, supported).argmin(axis=1)
            heads[task] = cls._train_head(feats, labels, len(tool_ids),
                                          hidden, lr, iters, seed + task) + (tool_ids,)
        return cls(heads)

    @staticmethod
    def _train_head(feats, labels, n_out, hidden, lr, iters, seed):
        """Full-batch AdamW on the mean cross-entropy, in float32: the Xavier
        weights are drawn in float64 and cast, as are the features and the
        one-hot targets."""
        rng = np.random.default_rng([seed, 811])
        params = dc.Params({"W1": xavier(rng, feats.shape[1], hidden), "b1": np.zeros(hidden),
                            "W2": xavier(rng, hidden, n_out), "b2": np.zeros(n_out)}, np.float32)
        opt = AdamW(params, lr=lr, weight_decay=0.0)
        x = dc.constant(feats.astype(np.float32))
        onehot = np.zeros((feats.shape[0], n_out), dtype=np.float32)
        onehot[np.arange(feats.shape[0]), labels] = 1.0
        for _ in range(iters):
            h = dc.gelu(dc.linear(x, params["W1"], params["b1"]))
            logits = dc.linear(h, params["W2"], params["b2"])
            probs = dc.softmax_rows(logits)
            loss = dc.scale(dc.wsum(dc.log_clamped(probs), -onehot), 1.0 / feats.shape[0])
            params.grad[...] = 0.0
            dc.backward(loss)
            opt.step()
        return tuple(params[name].data for name in ("W1", "b1", "W2", "b2"))

    def _logits(self, task, feat):
        w1, b1, w2, b2, tool_ids = self.heads[task]
        from .kernels import gelu_fwd
        h = gelu_fwd(feat.astype(np.float32) @ w1 + b1)
        return h @ w2 + b2, tool_ids

    def route_batch(self, items, rng):
        """One two-layer forward per task group; a slot ranks by its tool's
        logit, and tools without a trained index rank last."""
        index, valid = _panel_arrays(items)
        ranks = np.full(index.shape, np.inf)
        for task, group in _task_groups(items).items():
            if task not in self.heads:
                continue  # every slot unseen: the first valid slot
            logits, _ = self._logits(task, _features([items[b][0] for b in group]))
            cols = _lookup(self._columns[task], index[group])
            seen = cols >= 0
            picked = logits[np.arange(len(group))[:, None], np.where(seen, cols, 0)]
            ranks[group] = np.where(seen, -picked, np.inf)
        return _lowest_rank(ranks, valid)


class ToolSelectRouter(Router):
    name = "ToolSelect"

    def __init__(self, model):
        self.model = model.detached()

    def route_batch(self, items, rng):
        return self.model.batch_forward(items).selected
