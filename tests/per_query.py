"""Per-query and unfused references that tests compare the array passes
and fused tape nodes with, and the per-item definitions the package's
batched code reproduces."""

import numpy as np

from toolselect import diffcore as dc
from toolselect import simworld
from toolselect.domain import CATEGORICAL_FAMILIES, TaskFamily, cost, validity


def box_from_x(spec, x):
    """The ground-truth box of features ``x``, a tuple, computed for this
    one query: each map applied as ``map @ x``, the rest in Python floats."""
    cx, cy = (0.5 + 0.45 * np.tanh(spec.box_center_map @ x)).tolist()
    w, h = (0.2 + 0.1 * np.tanh(spec.box_size_map @ x)).tolist()
    return (max(0.0, cx - w / 2.0), max(0.0, cy - h / 2.0),
            min(1.0, cx + w / 2.0), min(1.0, cy + h / 2.0))


def attend_chain(query_rows, keys, values):
    """``dc.attend`` as the chain of tape nodes it fuses: transpose, product,
    scale, softmax, product."""
    product = dc.matmul if keys.data.ndim == 2 else dc.bmm
    logits = dc.scale(product(query_rows, dc.transpose(keys)), 1.0 / np.sqrt(keys.data.shape[-1]))
    return product(dc.softmax_rows(logits), values)


def sample_query(world, task, rng, uid):
    """Draw one labeled query for a task: the one-query ``sample_queries``."""
    return simworld.sample_queries(world, task, rng, [uid])[0]


def competence(world, tool, task, x):
    """A tool's competence on features ``x``: the ``_kappas`` of one pair."""
    spec = world.task_spec(task)
    tools, rows = world._tool_rows(spec, [tool])
    return simworld._kappas(world, spec, tools, rows, np.asarray(x)[None, :])[0]


def selection_loss(pc, dist):
    """Realized cost of the selected tool (the hard routing loss)."""
    j = dist.selected
    if not pc.valid[j]:
        raise ValueError(f"selected slot {j} is invalid")
    return float(pc.costs[j])


def compsum_loss(dist, weights, eps=1e-12):
    """Logistic comp-sum surrogate: sum over valid slots of w_j * -log(pi_j).

    ``dist`` is any object with a ``probs_t`` tensor and a ``mask``."""
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


def panel_digest(panels):
    """A hash of the tool indices of every panel, in order."""
    import hashlib
    h = hashlib.sha256()
    for p in panels:
        h.update(repr([t.index for t in p.tools]).encode())
    return h.hexdigest()


def parse_machine_record(line):
    """The fields of one ``evalharness.machine_records`` line."""
    out = {}
    for token in line.split():
        key, value = token.split("=", 1)
        if key in ("router",):
            out[key] = value
        elif key in ("task", "count"):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def params_to_float32(params):
    """Round params to float32 precision (the checkpoint's forward mode)."""
    return {name: dc.Tensor(np.asarray(p.data, dtype=np.float32).astype(np.float64),
                            requires_grad=p.requires_grad)
            for name, p in params.items()}


def reference_outcome(world, tool, lq):
    """Validity, output and (where valid) cost of one pair, as bytes, from
    ``tool_predict`` with a fresh keyed generator and ``domain.cost``."""
    spec = world.task_spec(lq.query.task)
    if not validity(tool, lq.query):
        return bytes([False]) + simworld._null_output(spec).tobytes()
    rng = simworld.keyed_rng(world.seed, simworld.PREDICTION_KEY, tool.index, lq.query.uid)
    pred = simworld.tool_predict(world, tool, lq.query, rng)
    if spec.family in CATEGORICAL_FAMILIES:
        output = pred.probs
    elif spec.family is TaskFamily.GROUNDING:
        output = np.array(pred.box)
    else:
        output = np.array([pair in pred.pairs for pair in spec.space.pair_vocab])
    c = cost(spec.family, pred, lq.gt, clipped_xent=world.cfg.clipped_xent)
    return (bytes([True]) + output.astype(simworld._output_layout(spec)[1]).tobytes()
            + np.float64(c).tobytes())
