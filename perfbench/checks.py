"""Correctness checks computed apart from the code they check.

Tool costs are recomputed by calling each tool with a fresh RNG keyed as the
simulator keys it, so no simulator or trainer cache is read. The selector is
re-evaluated by a plain-numpy forward from the checkpoint's tensors. Each
check returns a list of problems; an empty list means it passed.
"""

import math

import numpy as np
from scipy import special

PREDICTION_KEY = 104729   # per-(tool, query) RNG keying of the simulator
PROB_TOL = 1e-9
TIE_TOL = 1e-12


def is_valid(tool, query):
    return query.task in tool.supported_tasks


def fresh_prediction(world, tool, query):
    """A tool's output on a query, computed anew without any cache."""
    from toolselect import simworld
    rng = np.random.default_rng([world.seed, PREDICTION_KEY, tool.index, query.uid])
    return simworld.tool_predict(world, tool, query, rng)


def fresh_cost(world, tool, lq):
    """Cost of a valid tool on a labeled query, bypassing every cache."""
    from toolselect import domain
    family = world.task_spec(lq.query.task).family
    return domain.cost(family, fresh_prediction(world, tool, lq.query), lq.gt,
                       clipped_xent=world.cfg.clipped_xent)


def population_bounds(world, split):
    """Means over a split of the per-query minimum, maximum and uniform-choice
    cost over every valid tool of the query's task population."""
    lows, highs, means = [], [], []
    for lq in world.splits[split]:
        costs = [fresh_cost(world, tool, lq)
                 for tool in world.populations[lq.query.task] if is_valid(tool, lq.query)]
        lows.append(min(costs))
        highs.append(max(costs))
        means.append(float(np.mean(costs)))
    return float(np.mean(lows)), float(np.mean(highs)), float(np.mean(means))


def check_val_history(val_costs, bounds):
    """Every epoch's validation cost lies within the population bounds, and
    the best one beats a uniform choice among valid tools."""
    lo, hi, uniform = bounds
    problems = [f"epoch {i + 1} val_cost {v!r} outside [{lo!r}, {hi!r}]"
                for i, v in enumerate(val_costs) if not lo <= v <= hi]
    if not val_costs:
        problems.append("no epoch recorded")
    elif min(val_costs) >= uniform:
        problems.append(f"best val_cost {min(val_costs)!r} not below uniform choice {uniform!r}")
    return problems


def panel_cost_table(world, records, panels):
    """Fresh costs per query and slot; NaN marks an invalid slot."""
    table = []
    for lq, panel in zip(records, panels):
        table.append(np.array([fresh_cost(world, tool, lq) if is_valid(tool, lq.query)
                               else np.nan for tool in panel.tools]))
    return table


def random_expectation(table):
    """Mean cost of a uniform choice among valid slots, with its standard error."""
    means = np.array([np.nanmean(row) for row in table])
    variances = np.array([np.nanvar(row) for row in table])
    n = len(table)
    return float(means.mean()), float(math.sqrt(variances.sum()) / n)


def check_compare(reports, table, fitted=("GlobalBest", "KNN", "MLPIndex")):
    """Oracle lower-bounds every router per task and equals the mean panel
    minimum; Random matches its expectation; fitted baselines beat Random."""
    problems = []
    oracle = reports["Oracle"]
    for name, rep in reports.items():
        for task, tm in rep.per_task.items():
            if oracle.per_task[task].mean_cost > tm.mean_cost + 1e-12:
                problems.append(f"Oracle task {task} cost {oracle.per_task[task].mean_cost!r} "
                                f"above {name}'s {tm.mean_cost!r}")
    panel_min = float(np.mean([np.nanmin(row) for row in table]))
    if not math.isclose(oracle.mean_cost, panel_min, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"Oracle mean {oracle.mean_cost!r} != mean panel minimum {panel_min!r}")
    expected, stderr = random_expectation(table)
    random_mean = reports["Random"].mean_cost
    if abs(random_mean - expected) > max(4.0 * stderr, 1e-12):
        problems.append(f"Random mean {random_mean!r} more than 4 SE ({stderr!r}) "
                        f"from its expectation {expected!r}")
    for name in fitted:
        if reports[name].mean_cost > random_mean:
            problems.append(f"{name} mean {reports[name].mean_cost!r} above Random's {random_mean!r}")
    return problems


def check_slots_valid(records, panels, slots):
    problems = []
    for lq, panel, slot in zip(records, panels, slots):
        if not (0 <= slot < len(panel.tools)) or not is_valid(panel.tools[slot], lq.query):
            problems.append(f"query {lq.query.uid}: routed slot {slot} is not valid")
    return problems


# -- plain-numpy selector forward -------------------------------------------

def _gelu(x):
    return 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0)))


def _attend(q, k, v):
    logits = q @ k.T / math.sqrt(k.shape[1])
    logits = logits - logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return (w / w.sum(axis=1, keepdims=True)) @ v


def _slot_vector(space, pred, width):
    out = np.zeros(width)
    family = space.family.value
    if family in ("classification", "multiple_choice"):
        out[: len(pred.probs)] = pred.probs
    elif family == "grounding":
        out[: min(4, width)] = np.asarray(pred.box)[: min(4, width)]
    else:
        for pair in pred.pairs:
            out[space.pair_vocab.index(pair) % width] += 1.0
        out = np.minimum(out, 1.0)
    return out


def _label_rows(P, space, refs, width):
    family = space.family.value
    if family == "classification":
        return P[f"label_embed_t{space.task}"][[r[1].label for r in refs]]
    if family == "multiple_choice":
        return P[f"label_embed_t{space.task}"][[r[1].option for r in refs]]
    rows = np.zeros((len(refs), width))
    for i, (_, gt, _) in enumerate(refs):
        if family == "grounding":
            rows[i, : min(4, width)] = np.asarray(gt.box)[: min(4, width)]
        else:
            for pair in gt.pairs:
                rows[i, space.pair_vocab.index(pair) % width] += 1.0
    return np.minimum(rows, 1.0) if family != "grounding" else rows


def reference_probs(P, world, query, panel):
    """Selection probabilities over a panel from checkpoint tensors ``P``."""
    slot_width = P["rho_m_W"].shape[0]
    label_width = P["ref_W"].shape[0] - P["phi_x_W"].shape[1] - P["rho_m_W"].shape[1]
    space = world.task_spec(query.task).space
    px_q = query.x @ P["phi_x_W"] + P["phi_x_b"]
    pq_q = query.q @ P["phi_q_W"] + P["phi_q_b"]
    u = np.concatenate([px_q, pq_q]) @ P["fuse_W"] + P["fuse_b"]
    mask = np.array([is_valid(tool, query) for tool in panel.tools])
    scores = np.full(len(panel.tools), -np.inf)
    for j, tool in enumerate(panel.tools):
        if not mask[j]:
            continue
        refs = tool.reference_sets[query.task]
        px = np.stack([r[0] for r in refs]) @ P["phi_x_W"] + P["phi_x_b"]
        labels = _label_rows(P, space, refs, label_width)
        slots = np.stack([_slot_vector(space, r[2], slot_width) for r in refs])
        t = np.concatenate([px, labels, slots @ P["rho_m_W"] + P["rho_m_b"]], axis=1)
        t = t @ P["ref_W"] + P["ref_b"]
        t_tilde = _attend(t @ P["self_q_W"], t @ P["self_k_W"], t @ P["self_v_W"])
        psi = _attend((u @ P["cross_q_W"])[None, :], px @ P["cross_k_W"],
                      t_tilde @ P["cross_v_W"])[0]
        own = _slot_vector(space, fresh_prediction(world, tool, query), slot_width)
        feat = np.concatenate([u, psi, own, tool.eta])
        hidden = _gelu(feat @ P["head1_W"] + P["head1_b"])
        scores[j] = (hidden @ P["head2_W"] + P["head2_b"])[0]
    e = np.exp(scores[mask] - scores[mask].max())
    probs = np.zeros(len(panel.tools))
    probs[mask] = e / e.sum()
    return probs, mask


def check_probs(probs, selected, ref_probs, mask, uid):
    """Program's distribution against the reference forward."""
    problems = []
    if probs.shape != ref_probs.shape or np.max(np.abs(probs - ref_probs)) > PROB_TOL:
        problems.append(f"query {uid}: probs {probs.tolist()} differ from reference "
                        f"{ref_probs.tolist()}")
    # a tool drawn twice into one panel ties with itself up to rounding
    if not ref_probs[selected] >= ref_probs.max() - TIE_TOL:
        problems.append(f"query {uid}: selected slot {selected}, reference picks "
                        f"{int(np.argmax(ref_probs))}")
    if np.any(probs[~mask] != 0.0):
        problems.append(f"query {uid}: non-zero probability on an invalid slot")
    if abs(probs[mask].sum() - 1.0) > 1e-12:
        problems.append(f"query {uid}: probabilities sum to {probs[mask].sum()!r}")
    return problems


def check_records_equal(originals, loaded):
    """Exported records read back field for field."""
    if len(originals) != len(loaded):
        return [f"{len(loaded)} records read back, {len(originals)} exported"]
    problems = []
    for a, b in zip(originals, loaded):
        qa, qb = a.query, b.query
        if (qa.uid, qa.task) != (qb.uid, qb.task) or not (
                np.array_equal(qa.x, qb.x) and np.array_equal(qa.q, qb.q)) or a.gt != b.gt:
            problems.append(f"record {qa.uid} changed in the export round trip")
    return problems
