"""Stochastic training loop: task/panel sampling, AdamW updates with
decoupled weight decay, validation-cost tracking, and early stopping.

``fit`` fills the outcome tables of its training split once, before the
first step, so every simulator read of a step is a gather. A step's
objective reads the batched forward's stacked tensors and the batch's
``(B, M)`` ``panel_costs``, and ``AdamW`` updates all parameters as one flat
buffer, the ``flat`` of a ``dc.Params``.

Training is mixed precision: ``init_params``' float64 ``Params`` are the
master weights that ``AdamW`` updates, and the tape trains a float32
``Params`` of the same layout, so each step's forward, objective, backward
and validation run in float32. Each hand-over between the two is one pass
over a flat array. The trained parameters are the float64 masters, and
every forward on them stays float64.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .anp_selector import SelectorConfig, SelectorModel, encode_slots, init_params
from .domain import CATEGORICAL_FAMILIES
from .errors import ConfigError
from .evalharness import CHUNK, keyed_panels
from .objective import ObjectiveConfig, PanelCosts, batch_objective
from .simworld import panels_of, sample_panel

VAL_PANEL_KEY = 7919   # second entry of every validation panel RNG key
# Largest panel a config or ``--panel-size`` may ask for: panels are drawn
# and scored as (queries, panel size) arrays, so a huge size fails on memory
# instead of routing.
MAX_PANEL_SIZE = 1024


@dataclass
class TrainConfig:
    lr: float = 3e-5
    weight_decay: float = 1e-4
    max_epochs: int = 50
    patience: int = 10
    min_delta: float = 1e-4
    batch_size: int = 16
    panel_size: int = 6
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8

    def __post_init__(self):
        """Reject, with ``ConfigError``, values training cannot use."""
        for name in ("max_epochs", "patience", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"train config: {name} must be at least 1, "
                                  f"got {getattr(self, name)}")
        if self.panel_size < 2:
            raise ConfigError(f"train config: panel_size must be at least 2 (a panel "
                              f"holds two tools or more), got {self.panel_size}")
        if self.panel_size > MAX_PANEL_SIZE:
            raise ConfigError(f"train config: panel_size must be at most {MAX_PANEL_SIZE}, "
                              f"got {self.panel_size}")
        for name in ("lr", "weight_decay", "min_delta", "eps_opt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"train config: {name} must be finite and non-negative, "
                                  f"got {value}")
        for name in ("lr", "eps_opt"):
            if getattr(self, name) == 0.0:
                raise ConfigError(f"train config: {name} must be positive, got 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"train config: {name} must lie in [0, 1), "
                                  f"got {getattr(self, name)}")


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
    """Decoupled-weight-decay adaptive update with bias correction, over the
    flat arrays of a ``dc.Params``.

    A step reads the gradients in ``params.grad`` and writes the update into
    ``params.flat``, of which every tensor's ``data`` is a view. The moments
    and two scratch arrays are one flat array each.
    """

    def __init__(self, params, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params  # dc.Params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._tmp = (np.empty_like(params.flat), np.empty_like(params.flat))

    def step(self):
        """One update of every parameter, in place: each operation below is
        one pass over the flat buffers, in this order, so results are
        bit-identical to evaluating the expressions per parameter with
        temporaries:

            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            p -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
            p -= lr * weight_decay * p

        A parameter the backward gave no gradient keeps the zero its
        gradient was reset to. A non-finite gradient aborts the step before
        anything changes, naming the first such parameter in name order.
        """
        g, p = self.params.grad, self.params.flat
        if not np.isfinite(g).all():
            name = next(name for name in sorted(self.params)
                        if not np.isfinite(self.params[name].grad).all())
            raise ValueError(f"non-finite gradient in parameter {name!r}; step aborted")
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        m, v = self.m, self.v
        a, b = self._tmp
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, b1c, out=a)
        a *= self.lr
        np.divide(v, b2c, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        p -= np.divide(a, b, out=a)
        p -= np.multiply(p, self.lr * self.weight_decay, out=a)


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


def default_selector_config(world):
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
        d_x=world.cfg.d_x, d_q=world.cfg.d_q, slot_width=slot_width,
        eta_dim=len(world.all_tools[0].eta), task_label_counts=tuple(counts))


def make_predict_fn(world, selector_cfg):
    """Encoded-prediction supplier for the selector: the slot rows of a
    batch's (tool, query) pairs, encoded by ``encode_slots`` from the
    outputs one ``tool_outcomes`` call reads out of the world's tables."""
    width = selector_cfg.slot_width

    def predict(tools, queries):
        rows = np.zeros((len(tools), width))
        for group in world.tool_outcomes(tools, queries):
            rows[group.positions] = encode_slots(world.task_spec(group.task).space,
                                                 group.outputs, width)
        return rows

    return predict


def build_model(world, params, selector_cfg):
    spaces = {spec.task: spec.space for spec in world.tasks}
    return SelectorModel(selector_cfg, params, spaces,
                         make_predict_fn(world, selector_cfg))


def panel_costs(world, items):
    """The ``(B, M)`` ``PanelCosts`` of B (labeled query, panel) items, M the
    widest panel: every slot's cost read by one ``cost_array`` gather, 0 on
    the invalid slots (NaN in the gather) and on the padding of narrower
    panels."""
    widths = np.array([len(panel.tools) for _, panel in items])
    costs = world.cost_array([tool for _, panel in items for tool in panel.tools],
                             [lq for lq, panel in items for _ in panel.tools])
    width = int(widths.max())
    if len(costs) != len(items) * width:
        padded = np.full((len(items), width), np.nan)
        padded[np.arange(width) < widths[:, None]] = costs
        costs = padded
    costs = costs.reshape(len(items), width)
    valid = ~np.isnan(costs)
    return PanelCosts(costs=np.where(valid, costs, 0.0), valid=valid)


def step_panels(population, lqs, m, rng):
    """The panels B sequential ``sample_panel`` calls draw from ``rng`` for
    the labeled queries ``lqs`` (B of them, all of one task): one
    ``integers(0, n, size=(B, m))`` draw, which takes the same values and
    leaves ``rng`` in the same state as B draws of size m. When a panel of
    it holds no valid tool, ``rng`` goes back to its state before the draw
    and the calls run one by one, redrawing that panel as ``sample_panel``
    does."""
    state = rng.bit_generator.state
    if population and m >= 2:
        picks = rng.integers(0, len(population), size=(len(lqs), m))
        task = lqs[0].query.task
        supported = np.array([task in tool.supported_tasks for tool in population])
        if supported[picks].any(axis=1).all():
            return panels_of(population, task, picks)
        rng.bit_generator.state = state
    return [sample_panel(population, lq.query, m, rng) for lq in lqs]


def _validation_cost(world, model, val_items):
    """Mean realized routed cost of argmax selection on fixed panels."""
    total = 0.0
    for lo in range(0, len(val_items), CHUNK):
        part = val_items[lo:lo + CHUNK]
        fwd = model.batch_forward(part)
        for c in world.cost_array([panel.tools[j] for (_, panel), j
                                   in zip(part, fwd.selected)], [lq for lq, _ in part]).tolist():
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
    Mixed precision: each step's forward, objective and backward, and each
    validation pass, run on a float32 copy of float64 master weights, both
    ``dc.Params`` of one layout. The copy's gradients are cast into the
    masters' ``grad``, ``AdamW`` updates the masters, and the copy is
    refreshed from their ``flat`` after every update. A float32 ``AdamW``
    would drop the decoupled weight decay: its ``lr * weight_decay * p``
    (3e-9 of ``p`` by default) is below half a float32 ulp of ``p``. The
    returned parameters are the float64 masters of the best epoch.
    Bit-deterministic for a fixed (cfg, world, seed) in single-threaded use.
    """
    if selector_cfg is None:
        selector_cfg = default_selector_config(world)
    if objective_cfg is None:
        objective_cfg = ObjectiveConfig()
    n_tasks = world.cfg.n_tasks()
    task_weights = np.asarray(objective_cfg.task_weights if objective_cfg.task_weights is not None
                              else np.full(n_tasks, 1.0 / n_tasks), dtype=np.float64)
    if (task_weights.shape != (n_tasks,) or (task_weights < 0).any()
            or not abs(task_weights.sum() - 1.0) <= 1e-9):
        raise ConfigError(f"task_weights must be a probability vector over the world's "
                          f"{n_tasks} tasks, got {task_weights.tolist()}")
    train_by_task = world.split_by_task("train")
    for task, weight in enumerate(task_weights.tolist()):
        if weight > 0 and not train_by_task[task]:
            raise ConfigError(f"task {task} has weight {weight:g} but no training queries "
                              f"(n_train={world.cfg.n_train} over {n_tasks} tasks)")

    masters = init_params(selector_cfg, cfg.seed)
    opt = AdamW(masters, cfg.lr, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps_opt)
    params = dc.Params({name: p.data for name, p in masters.items()}, np.float32)
    model = build_model(world, params, selector_cfg)

    task_rng = np.random.default_rng([cfg.seed, 11])
    batch_rng = np.random.default_rng([cfg.seed, 13])
    panel_rng = np.random.default_rng([cfg.seed, 17])
    dropout_rng = np.random.default_rng([cfg.seed, 19])

    total_train = len(world.splits["train"])
    # every outcome a step reads is then a gather from the filled tables
    for task, records in train_by_task.items():
        world.cost_matrix(records, world.populations.get(task, []))
    steps_per_epoch = max(1, math.ceil(total_train / cfg.batch_size))

    # validation panels are fixed across epochs so the metric is comparable
    val_split = world.splits["val"]
    val_items = list(zip(val_split, keyed_panels(world, val_split, cfg.panel_size,
                                                 cfg.seed, VAL_PANEL_KEY)))

    history = []
    best_val = math.inf
    best_flat = masters.flat.copy()
    val_trace = []
    for epoch in range(1, cfg.max_epochs + 1):
        losses = []
        for _ in range(steps_per_epoch):
            t = sample_task(task_weights, task_rng)
            pool = train_by_task[t]
            idx = batch_rng.integers(0, len(pool), size=cfg.batch_size)
            lqs = [pool[i] for i in idx]
            items = list(zip(lqs, step_panels(world.populations[t], lqs, cfg.panel_size,
                                              panel_rng)))
            fwd = model.batch_forward(items, training=True, rng=dropout_rng)
            loss = batch_objective(objective_cfg, fwd, panel_costs(world, items), n_tasks)
            if not np.isfinite(loss.data):
                raise ValueError(f"non-finite loss at epoch {epoch}")
            params.grad[...] = 0.0
            dc.backward(loss)
            masters.grad[...] = params.grad
            opt.step()
            params.flat[...] = masters.flat
            losses.append(loss.item())
        val_cost = _validation_cost(world, model.detached(), val_items)
        improved = val_cost < best_val
        if improved:
            best_val = val_cost
            best_flat = masters.flat.copy()
        rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                          val_cost=val_cost, best=improved)
        history.append(rec)
        if log_fn is not None:
            log_fn(rec.log_line())
        val_trace.append(val_cost)
        if early_stop(val_trace, cfg.patience, cfg.min_delta):
            break
    masters.flat[...] = best_flat
    masters.grad[...] = 0.0
    return FitResult(params=masters, history=history)
