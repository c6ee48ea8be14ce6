"""The training objective: the task-marginalized batch loss of comp-sum
surrogate, entropy and score regularizers and coverage BCE, which reads a
batched forward's stacked tensors and its items' ``(B, M)`` panel costs."""

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError


@dataclass
class PanelCosts:
    """Slot costs and validity of one panel, ``(M,)``, or of a batch of
    panels, ``(B, M)``, narrower panels padded with invalid slots."""
    costs: np.ndarray   # per slot; meaningful only where valid
    valid: np.ndarray   # boolean per slot

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        if not self.valid.any(axis=-1).all():
            raise ValueError("PanelCosts requires at least one valid slot in every panel")


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


def compsum_weights(pc):
    """w_j = (sum of the other valid slots' costs) - m_valid + 2 per panel,
    0 on invalid slots; for a batch of panels, per row.

    Invalid slots contribute neither cost nor count. Weights can go
    negative once more than two slots are valid.
    """
    m_valid = pc.valid.sum(axis=-1, keepdims=True)
    total = _valid_sums(pc.costs, pc.valid)[..., None]
    return np.where(pc.valid, total - pc.costs - m_valid + 2.0, 0.0)


def _valid_sums(costs, valid):
    """Per panel (last axis), the sum of the valid costs, bit for bit
    ``costs[valid].sum()`` of that panel alone.

    numpy sums fewer than 8 entries in order, so zeros in place of invalid
    costs change nothing there. Longer rows it sums pairwise, in a grouping
    fixed by the row's length, so panels of 8 slots or more are summed in
    groups of equal valid count, each compacted to that many columns.
    """
    if costs.shape[-1] < 8:
        return np.where(valid, costs, 0.0).sum(axis=-1)
    rows_costs = costs.reshape(-1, costs.shape[-1])
    rows_valid = valid.reshape(rows_costs.shape)
    counts = rows_valid.sum(axis=1)
    out = np.empty(len(counts))
    for k in np.unique(counts).tolist():
        rows = counts == k
        out[rows] = rows_costs[rows][rows_valid[rows]].reshape(-1, k).sum(axis=1)
    return out.reshape(costs.shape[:-1])


def batch_objective(cfg, fwd, pc, n_tasks):
    """Mean task-weighted training loss over a batch; differentiable scalar.

    ``fwd`` is the ``BatchForward`` of B items and ``pc`` their ``(B, M)``
    ``PanelCosts``, whose valid slots must be ``fwd.mask``; an empty batch
    or panel costs of another shape or other valid slots raise
    ``ValueError``. Per item: compsum - lambda_h * entropy + lambda_r *
    mean(r^2 over valid slots) + lambda_cov * mean coverage BCE, scaled by
    task_weight * n_tasks so uniform weights are neutral. Each term is one
    weighted sum over the forward's stacked tensors, equal to the per-item
    definitions (comp-sum, entropy, coverage BCE) summed item by item.
    """
    probs, scores, mask, tasks = fwd.probs_t, fwd.scores_t, fwd.mask, fwd.tasks
    if not len(mask):
        raise ValueError("batch_objective: empty batch")
    if pc.costs.shape != mask.shape or not np.array_equal(pc.valid, mask):
        raise ValueError("batch_objective: the panel costs' slots are not the forward's")
    weights = (np.full(len(tasks), 1.0 / n_tasks) if cfg.task_weights is None
               else np.asarray(cfg.task_weights, dtype=np.float64)[tasks])
    scale = weights * n_tasks / len(tasks)
    w_comp = compsum_weights(pc)
    logp = dc.log_clamped(probs, cfg.eps)
    loss = dc.wsum(logp, np.where(mask, -w_comp, 0.0) * scale[:, None])
    if cfg.lambda_h != 0.0:
        loss = dc.add(loss, dc.wsum(dc.mul(probs, logp), mask * (cfg.lambda_h * scale)[:, None]))
    if cfg.lambda_r != 0.0:
        per_slot = cfg.lambda_r * scale / mask.sum(axis=1)
        loss = dc.add(loss, dc.wsum(dc.mul(scores, scores), mask * per_slot[:, None]))
    if cfg.lambda_cov != 0.0:
        cov, cov_index = fwd.coverage_t, fwd.slot_pair
        # the valid slots' costs and rows, in the row-major order of slot_pair
        costs, owner = pc.costs[mask], np.nonzero(mask)[0]
        # mean BCE per item: each covered slot weighs 1 / (its item's count)
        weights = cfg.lambda_cov * scale[owner] / np.bincount(owner)[owner]
        n = cov.shape[0]
        w_s = np.bincount(cov_index, weights=-(1.0 - costs) * weights, minlength=n)
        w_1ms = np.bincount(cov_index, weights=-costs * weights, minlength=n)
        loss = dc.add(loss, dc.add(
            dc.wsum(dc.log_clamped(cov, cfg.eps), w_s),
            dc.wsum(dc.log_clamped(dc.affine(cov, -1.0, 1.0), cfg.eps), w_1ms)))
    return loss
