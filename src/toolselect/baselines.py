"""Reference routers: Random, Oracle, GlobalBest, KNN, and an index-output
MLP router, plus the wrapper that routes with a trained selector."""

import math

import numpy as np
from scipy.spatial import cKDTree

from . import diffcore as dc
from .domain import validity
from .errors import NoValidCandidateError
from .evalharness import Router
from .trainer import AdamW


def _valid_slots(lq, panel):
    slots = [j for j, tool in enumerate(panel.tools) if validity(tool, lq.query)]
    if not slots:
        raise NoValidCandidateError(f"no valid slot for query {lq.query.uid}")
    return slots


class RandomRouter(Router):
    name = "Random"

    def route(self, lq, panel, rng):
        slots = _valid_slots(lq, panel)
        return int(slots[rng.integers(len(slots))])


class OracleRouter(Router):
    """Evaluation-only: picks the true-cost-minimizing valid slot.

    Consumes ground truth; must never appear on a training path.
    """
    name = "Oracle"

    def __init__(self, world):
        self.world = world

    def route(self, lq, panel, rng):
        slots = _valid_slots(lq, panel)
        costs = [self.world.tool_cost(panel.tools[j], lq) for j in slots]
        return int(slots[int(np.argmin(costs))])  # ties -> lowest index

    def route_batch(self, items, rng):
        """``route`` of each item, with the costs of every valid slot read
        by one ``tool_costs`` call."""
        valid = [_valid_slots(lq, panel) for lq, panel in items]
        costs = iter(self.world.tool_costs(
            [panel.tools[j] for (_, panel), slots in zip(items, valid) for j in slots],
            [lq for (lq, _), slots in zip(items, valid) for _ in slots]))
        out = []
        for slots in valid:
            item_costs = [next(costs) for _ in slots]
            out.append(int(slots[int(np.argmin(item_costs))]))  # ties -> lowest index
        return out


class GlobalBestRouter(Router):
    name = "GlobalBest"

    def __init__(self, mean_cost):
        self.mean_cost = mean_cost  # tool index -> fitted mean cost

    @classmethod
    def fit(cls, world, split="train"):
        records = world.splits[split]
        if not records:
            raise ValueError("GlobalBest: empty training split")
        sums = {}
        counts = {}
        for lq in records:
            pop = world.populations[lq.query.task]
            for tool, c in zip(pop, world.tool_costs(pop, [lq] * len(pop))):
                if c is None:
                    continue
                sums[tool.index] = sums.get(tool.index, 0.0) + c
                counts[tool.index] = counts.get(tool.index, 0) + 1
        return cls({k: sums[k] / counts[k] for k in sums})

    def route(self, lq, panel, rng):
        slots = _valid_slots(lq, panel)
        ranks = [self.mean_cost.get(panel.tools[j].index, math.inf) for j in slots]
        return int(slots[int(np.argmin(ranks))])


class KNNRouter(Router):
    """Nearest-neighbour retrieval over memorized training queries."""
    name = "KNN"

    def __init__(self, banks, k=5):
        self.banks = banks  # task -> (kdtree, features, {tool index -> cost array})
        self.k = k

    @classmethod
    def fit(cls, world, split="train", k=5):
        records = world.splits[split]
        if not records:
            raise ValueError("KNN: empty training split")
        banks = {}
        for task, pop in world.populations.items():
            task_records = [lq for lq in records if lq.query.task == task]
            if not task_records:
                continue
            feats = np.stack([np.concatenate([lq.query.x, lq.query.q])
                              for lq in task_records])
            cost_rows = {}
            for tool in pop:
                costs = world.tool_costs([tool] * len(task_records), task_records)
                if costs[0] is None and all(c is None for c in costs):
                    continue
                cost_rows[tool.index] = np.array(
                    [np.nan if c is None else c for c in costs])
            banks[task] = (cKDTree(feats), feats, cost_rows)
        return cls(banks, k=k)

    def route(self, lq, panel, rng):
        slots = _valid_slots(lq, panel)
        bank = self.banks.get(lq.query.task)
        if bank is None:
            return slots[0]
        tree, feats, cost_rows = bank
        feat = np.concatenate([lq.query.x, lq.query.q])
        k = min(self.k, feats.shape[0])
        _, nbrs = tree.query(feat, k=k)
        nbrs = np.atleast_1d(nbrs)
        ranks = []
        for j in slots:
            row = cost_rows.get(panel.tools[j].index)
            if row is None:
                ranks.append(math.inf)  # tools unseen in the bank rank last
            else:
                ranks.append(float(np.nanmean(row[nbrs])))
        return int(slots[int(np.argmin(ranks))])


class MLPIndexRouter(Router):
    """Per-task two-layer classifier over tool indices (hidden width 64)."""
    name = "MLPIndex"

    def __init__(self, heads):
        self.heads = heads  # task -> (W1, b1, W2, b2, [tool index per logit])

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
            feats = np.stack([np.concatenate([lq.query.x, lq.query.q])
                              for lq in task_records])
            labels = np.array([np.argmin(world.tool_costs(supported, [lq] * len(supported)))
                               for lq in task_records])
            heads[task] = cls._train_head(feats, labels, len(tool_ids),
                                          hidden, lr, iters, seed + task) + (tool_ids,)
        return cls(heads)

    @staticmethod
    def _train_head(feats, labels, n_out, hidden, lr, iters, seed):
        rng = np.random.default_rng([seed, 811])
        d_in = feats.shape[1]

        def xavier(fi, fo):
            lim = np.sqrt(6.0 / (fi + fo))
            return rng.uniform(-lim, lim, size=(fi, fo))

        params = {
            "W1": dc.Tensor(xavier(d_in, hidden), requires_grad=True),
            "b1": dc.Tensor(np.zeros(hidden), requires_grad=True),
            "W2": dc.Tensor(xavier(hidden, n_out), requires_grad=True),
            "b2": dc.Tensor(np.zeros(n_out), requires_grad=True),
        }
        opt = AdamW(params, lr=lr, weight_decay=0.0)
        x = dc.constant(feats)
        onehot = np.zeros((feats.shape[0], n_out))
        onehot[np.arange(feats.shape[0]), labels] = 1.0
        for _ in range(iters):
            h = dc.gelu(dc.add(dc.matmul(x, params["W1"]), params["b1"]))
            logits = dc.add(dc.matmul(h, params["W2"]), params["b2"])
            probs = dc.softmax_rows(logits)
            loss = dc.scale(dc.wsum(dc.log_clamped(probs), -onehot), 1.0 / feats.shape[0])
            dc.zero_grads(params.values())
            dc.backward(loss)
            opt.step()
        return (params["W1"].data, params["b1"].data,
                params["W2"].data, params["b2"].data)

    def _logits(self, task, feat):
        w1, b1, w2, b2, tool_ids = self.heads[task]
        from .kernels import gelu_fwd
        h = gelu_fwd(feat @ w1 + b1)
        return h @ w2 + b2, tool_ids

    def route(self, lq, panel, rng):
        slots = _valid_slots(lq, panel)
        if lq.query.task not in self.heads:
            return slots[0]
        feat = np.concatenate([lq.query.x, lq.query.q])
        logits, tool_ids = self._logits(lq.query.task, feat)
        pos = {tid: i for i, tid in enumerate(tool_ids)}
        ranks = []
        for j in slots:
            i = pos.get(panel.tools[j].index)
            # tools without a trained index rank last
            ranks.append(-math.inf if i is None else float(logits[i]))
        return int(slots[int(np.argmax(ranks))])


class ToolSelectRouter(Router):
    name = "ToolSelect"

    def __init__(self, model):
        self.model = model.detached()
        self._cache = {}

    def route(self, lq, panel, rng):
        dist = self.model.select(lq.query, panel, cache=self._cache)
        return dist.selected

    def route_batch(self, items, rng):
        """One batched forward over the items."""
        fwd = self.model.batch_forward(items, with_coverage=False, cache=self._cache)
        return [dist.selected for dist in fwd.dists]
