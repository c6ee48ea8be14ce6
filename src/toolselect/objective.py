"""Training losses: hard selection loss, comp-sum surrogate, entropy and
score regularizers, coverage BCE, and the combined task-marginalized batch
objective."""

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError


@dataclass
class PanelCosts:
    costs: np.ndarray   # per slot; meaningful only where valid
    valid: np.ndarray   # boolean per slot

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if not self.valid.any():
            raise ValueError("PanelCosts requires at least one valid slot")


@dataclass
class ObjectiveConfig:
    task_weights: np.ndarray = None  # simplex over tasks; None -> uniform
    lambda_h: float = 0.05
    lambda_r: float = 1e-4
    lambda_cov: float = 1.0
    eps: float = 1e-12

    def __post_init__(self):
        """Reject, with ``ConfigError``, values that would train a non-finite
        or sign-flipped objective."""
        for name in ("lambda_h", "lambda_r", "lambda_cov"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"objective config: {name} must be finite and non-negative, "
                                  f"got {value}")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"objective config: eps must be finite and positive, got {self.eps}")

    def weight_for(self, task, n_tasks):
        if self.task_weights is None:
            return 1.0 / n_tasks
        return float(self.task_weights[task])


def selection_loss(pc, dist):
    """Realized cost of the selected tool (the hard routing loss)."""
    j = dist.selected
    if not pc.valid[j]:
        raise ValueError(f"selected slot {j} is invalid")
    return float(pc.costs[j])


def compsum_weights(pc):
    """w_j = (sum of the other valid slots' costs) - m_valid + 2.

    Invalid slots contribute neither cost nor count. Weights can go
    negative once more than two slots are valid.
    """
    m_valid = int(pc.valid.sum())
    total = float(pc.costs[pc.valid].sum())
    w = np.zeros_like(pc.costs)
    w[pc.valid] = total - pc.costs[pc.valid] - m_valid + 2.0
    return w


def compsum_loss(dist, weights, eps=1e-12):
    """Logistic comp-sum surrogate: sum over valid slots of w_j * -log(pi_j)."""
    logp = dc.log_clamped(dist.probs_t, eps)
    w = np.where(dist.mask, -np.asarray(weights, dtype=np.float64), 0.0)
    return dc.wsum(logp, w)


def entropy_reg(dist, eps=1e-12):
    """Shannon entropy of the selection distribution over valid slots."""
    logp = dc.log_clamped(dist.probs_t, eps)
    plogp = dc.mul(dist.probs_t, logp)
    return dc.wsum(plogp, np.where(dist.mask, -1.0, 0.0))


def coverage_loss_value(s, c):
    """Scalar BCE of a coverage score against the success target 1 - c."""
    s = min(max(float(s), 1e-12), 1.0 - 1e-12)
    return -(1.0 - c) * np.log(s) - c * np.log(1.0 - s)


def coverage_loss(s_t, costs, eps=1e-12):
    """Mean BCE of coverage scores (Tensor, 1-D) against targets 1 - cost."""
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.size
    log_s = dc.log_clamped(s_t, eps)
    log_1ms = dc.log_clamped(dc.affine(s_t, -1.0, 1.0), eps)
    return dc.add(dc.wsum(log_s, -(1.0 - costs) / n), dc.wsum(log_1ms, -costs / n))


class BatchExample:
    """Objective inputs of one row of a batched forward: its selection
    distribution, panel costs and task, and the costs of its valid slots
    that the coverage head is scored against (None without)."""

    def __init__(self, dist, pc, task, coverage_costs=None):
        self.dist = dist            # SelectionDistribution, row ``dist.row`` of ``dist.batch``
        self.pc = pc
        self.task = task
        self.coverage_costs = coverage_costs

    @property
    def coverage_t(self):
        """Coverage scores over the row's valid slots, in slot order, or None."""
        return self.dist.coverage_t


def _stacked(examples):
    """The (B, M) probabilities, scores and slot mask of the batched forward
    whose rows the examples are, and its coverage as (vector, entry of each
    covered slot, its cost, its example) or None."""
    batch = examples[0].dist.batch
    if batch is None or len(examples) != batch.mask.shape[0] or any(
            ex.dist.batch is not batch or ex.dist.row != i for i, ex in enumerate(examples)):
        raise ValueError("batch_objective: the examples must be the rows of one batched "
                         "forward, in order")
    probs, scores, mask = batch.probs_t, batch.scores_t, batch.mask
    covered = [] if batch.coverage_t is None else [
        (i, ex.coverage_costs) for i, ex in enumerate(examples) if ex.coverage_costs is not None]
    if not covered:
        return probs, scores, mask, None
    costs = np.concatenate([c for _, c in covered])
    owner = np.concatenate([np.full(len(c), i) for i, c in covered])
    if costs.shape != batch.slot_pair.shape:
        raise ValueError("batch_objective: coverage costs do not match the coverage slots")
    return probs, scores, mask, (batch.coverage_t, batch.slot_pair, costs, owner)


def batch_objective(cfg, examples, n_tasks):
    """Mean task-weighted training loss over a batch; differentiable scalar.

    ``examples`` are the rows of one ``batch_forward``, all of them and in
    order; any other list raises ``ValueError``. Per example: compsum -
    lambda_h * entropy + lambda_r * mean(r^2 over valid slots) + lambda_cov *
    mean coverage BCE, scaled by task_weight * n_tasks so uniform weights are
    neutral. Each term is one weighted sum over the forward's stacked
    tensors; ``compsum_loss``, ``entropy_reg`` and ``coverage_loss`` are the
    per-example definitions these sums reproduce.
    """
    if not examples:
        raise ValueError("batch_objective: empty batch")
    probs, scores, mask, coverage = _stacked(examples)
    scale = np.array([cfg.weight_for(ex.task, n_tasks) * n_tasks
                      for ex in examples]) / len(examples)
    w_comp = np.zeros(mask.shape)
    for i, ex in enumerate(examples):
        w_comp[i, :len(ex.dist.mask)] = compsum_weights(ex.pc)
    logp = dc.log_clamped(probs, cfg.eps)
    loss = dc.wsum(logp, np.where(mask, -w_comp, 0.0) * scale[:, None])
    if cfg.lambda_h != 0.0:
        loss = dc.add(loss, dc.wsum(dc.mul(probs, logp), mask * (cfg.lambda_h * scale)[:, None]))
    if cfg.lambda_r != 0.0:
        per_slot = cfg.lambda_r * scale / mask.sum(axis=1)
        loss = dc.add(loss, dc.wsum(dc.mul(scores, scores), mask * per_slot[:, None]))
    if cfg.lambda_cov != 0.0 and coverage is not None:
        cov, cov_index, costs, owner = coverage
        # mean BCE per example: each covered slot weighs 1 / (its example's count)
        weights = cfg.lambda_cov * scale[owner] / np.bincount(owner)[owner]
        n = cov.shape[0]
        w_s = np.bincount(cov_index, weights=-(1.0 - costs) * weights, minlength=n)
        w_1ms = np.bincount(cov_index, weights=-costs * weights, minlength=n)
        loss = dc.add(loss, dc.add(
            dc.wsum(dc.log_clamped(cov, cfg.eps), w_s),
            dc.wsum(dc.log_clamped(dc.affine(cov, -1.0, 1.0), cfg.eps), w_1ms)))
    return loss
