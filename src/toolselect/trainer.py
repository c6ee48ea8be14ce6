"""Stochastic training loop: task/panel sampling, AdamW updates with
decoupled weight decay, validation-cost tracking, and early stopping."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .anp_selector import SelectorConfig, SelectorModel, encode_slot, init_params
from .domain import CATEGORICAL_FAMILIES, validity
from .objective import BatchExample, ObjectiveConfig, PanelCosts, batch_objective
from .simworld import sample_panel


@dataclass
class TrainConfig:
    lr: float = 3e-5
    weight_decay: float = 1e-4
    max_epochs: int = 50
    patience: int = 10
    min_delta: float = 1e-4
    batch_size: int = 16
    panel_size: int = 6
    lambda_h: float = 0.05
    ref_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_cost: float
    best: bool

    def log_line(self):
        return (f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
                f"val_cost={self.val_cost:.6f} best={1 if self.best else 0}")


class AdamW:
    """Decoupled-weight-decay adaptive update with bias correction."""

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params  # dict name -> Tensor
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self):
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for name in sorted(self.params):
            p = self.params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise ValueError(f"non-finite gradient in parameter {name!r}; step aborted")
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data -= self.lr * self.weight_decay * p.data


def sample_task(task_weights, rng):
    """Categorical task draw; weights must lie on the simplex."""
    w = np.asarray(task_weights, dtype=np.float64)
    if abs(w.sum() - 1.0) > 1e-9 or (w < 0).any():
        raise ValueError("task weights must be a probability vector")
    return int(rng.choice(len(w), p=w))


def early_stop(val_history, patience, min_delta):
    """True iff the best value has not improved by > min_delta for
    ``patience`` consecutive epochs."""
    if patience < 1:
        raise ValueError("patience must be >= 1")
    best = math.inf
    since = 0
    for v in val_history:
        if best - v > min_delta:
            since = 0
        else:
            since += 1
        # best tracks the running min even when the improvement is too small
        # to reset the counter, so slow drift below min_delta still stops
        if v < best:
            best = v
    return since >= patience


def default_selector_config(world, ref_size=16):
    """SelectorConfig derived from a world's task structure."""
    counts = []
    slot_width = 4
    for spec in world.tasks:
        if spec.family in CATEGORICAL_FAMILIES:
            counts.append(len(spec.space.labels))
            slot_width = max(slot_width, len(spec.space.labels))
        else:
            counts.append(0)
    return SelectorConfig(
        d_x=world.cfg.d_x, d_q=world.cfg.d_q, ref_size=ref_size,
        slot_width=slot_width, n_tasks=world.cfg.n_tasks(),
        task_label_counts=tuple(counts))


def make_predict_fn(world, selector_cfg):
    """Aligned-prediction supplier for the selector; slot vectors cached."""
    cache = {}

    def predict(tool, query):
        key = (tool.index, query.uid)
        hit = cache.get(key)
        if hit is None:
            aligned = world.tool_prediction(tool, query)
            spec = world.task_spec(query.task)
            slot = encode_slot(spec.space, aligned, selector_cfg.slot_width)
            hit = (slot, aligned)
            cache[key] = hit
        return hit

    return predict


def build_model(world, params, selector_cfg):
    spaces = {spec.task: spec.space for spec in world.tasks}
    return SelectorModel(selector_cfg, params, spaces,
                         make_predict_fn(world, selector_cfg))


def panel_costs(world, lq, panel):
    costs = np.zeros(len(panel.tools))
    valid = np.zeros(len(panel.tools), dtype=bool)
    for j, tool in enumerate(panel.tools):
        c = world.tool_cost(tool, lq)
        if c is not None:
            costs[j] = c
            valid[j] = True
    return PanelCosts(costs=costs, valid=valid)


def _batch_examples(world, items, fwd):
    """Per-example objective inputs of a batched forward's rows."""
    pcs = [panel_costs(world, lq, panel) for lq, panel in items]
    with_coverage = fwd.tensors.coverage_t is not None
    examples = [BatchExample(dist=dist, pc=pc, task=lq.query.task,
                             coverage_costs=pc.costs[dist.mask] if with_coverage else None)
                for (lq, _), dist, pc in zip(items, fwd.dists, pcs)]
    return examples, pcs


def _validation_cost(world, model, val_items):
    """Mean realized routed cost of argmax selection on fixed panels."""
    total = 0.0
    chunk = 64
    for lo in range(0, len(val_items), chunk):
        part = val_items[lo:lo + chunk]
        fwd = model.batch_forward(part, training=False, with_coverage=False)
        for (lq, panel), dist in zip(part, fwd.dists):
            c = world.tool_cost(panel.tools[dist.selected], lq)
            total += c
    return total / len(val_items)


@dataclass
class FitResult:
    params: dict
    history: list = field(default_factory=list)

    def log_lines(self):
        return [rec.log_line() for rec in self.history]


def fit(cfg, world, objective_cfg=None, selector_cfg=None, log_fn=None):
    """Train the selector on a world; returns the best-validation snapshot.

    Tools are frozen throughout: only selector parameters are updated.
    Bit-deterministic for a fixed (cfg, world, seed) in single-threaded use.
    """
    if selector_cfg is None:
        selector_cfg = default_selector_config(world, ref_size=cfg.ref_size)
    if objective_cfg is None:
        objective_cfg = ObjectiveConfig(lambda_h=cfg.lambda_h)
    n_tasks = world.cfg.n_tasks()
    task_weights = (objective_cfg.task_weights if objective_cfg.task_weights is not None
                    else np.full(n_tasks, 1.0 / n_tasks))

    params = init_params(selector_cfg, cfg.seed)
    model = build_model(world, params, selector_cfg)
    opt = AdamW(params, cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps_opt)

    task_rng = np.random.default_rng([cfg.seed, 11])
    batch_rng = np.random.default_rng([cfg.seed, 13])
    panel_rng = np.random.default_rng([cfg.seed, 17])
    dropout_rng = np.random.default_rng([cfg.seed, 19])

    train_by_task = world.split_by_task("train")
    total_train = len(world.splits["train"])
    steps_per_epoch = max(1, math.ceil(total_train / cfg.batch_size))

    # validation panels are fixed across epochs so the metric is comparable
    val_items = []
    for lq in world.splits["val"]:
        vr = np.random.default_rng([cfg.seed, 7919, lq.query.uid])
        val_items.append((lq, sample_panel(
            world.populations[lq.query.task], lq.query, cfg.panel_size, vr)))

    history = []
    best_val = math.inf
    best_params = {k: p.data.copy() for k, p in params.items()}
    val_trace = []
    for epoch in range(1, cfg.max_epochs + 1):
        losses = []
        for _ in range(steps_per_epoch):
            t = sample_task(task_weights, task_rng)
            pool = train_by_task[t]
            idx = batch_rng.integers(0, len(pool), size=cfg.batch_size)
            items = []
            for i in idx:
                lq = pool[i]
                panel = sample_panel(world.populations[t], lq.query,
                                     cfg.panel_size, panel_rng)
                items.append((lq, panel))
            fwd = model.batch_forward(items, training=True, rng=dropout_rng)
            examples, _ = _batch_examples(world, items, fwd)
            loss = batch_objective(objective_cfg, examples, n_tasks)
            if not np.isfinite(loss.data):
                raise ValueError(f"non-finite loss at epoch {epoch}")
            dc.zero_grads(params.values())
            dc.backward(loss)
            opt.step()
            losses.append(loss.item())
        val_cost = _validation_cost(world, model.detached(), val_items)
        improved = val_cost < best_val
        if improved:
            best_val = val_cost
            best_params = {k: p.data.copy() for k, p in params.items()}
        rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                          val_cost=val_cost, best=improved)
        history.append(rec)
        if log_fn is not None:
            log_fn(rec.log_line())
        val_trace.append(val_cost)
        if early_stop(val_trace, cfg.patience, cfg.min_delta):
            break
    final = {k: dc.Tensor(v, requires_grad=True) for k, v in best_params.items()}
    return FitResult(params=final, history=history)
