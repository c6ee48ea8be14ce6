"""Newline-delimited text persistence for query splits and tool metadata.

One JSON object per line, keys sorted, so files diff cleanly and two exports
of the same world are byte-identical. Floats round-trip exactly through
Python's repr-based JSON encoding.
"""

import json
import os
import tempfile

import numpy as np

from .domain import (
    AlignedPrediction,
    GroundTruth,
    LabeledQuery,
    Query,
    TaskFamily,
    Tool,
)
from .errors import ConfigError


def _gt_payload(gt):
    if gt.family is TaskFamily.CLASSIFICATION:
        return {"label": gt.label}
    if gt.family is TaskFamily.MULTIPLE_CHOICE:
        return {"option": gt.option}
    if gt.family is TaskFamily.GROUNDING:
        return {"box": list(gt.box)}
    return {"pairs": sorted(list(p) for p in gt.pairs)}


def _gt_from_payload(family, payload):
    if family is TaskFamily.CLASSIFICATION:
        return GroundTruth(family, label=int(payload["label"]))
    if family is TaskFamily.MULTIPLE_CHOICE:
        return GroundTruth(family, option=int(payload["option"]))
    if family is TaskFamily.GROUNDING:
        return GroundTruth(family, box=tuple(payload["box"]))
    return GroundTruth(family, pairs=frozenset(tuple(p) for p in payload["pairs"]))


def _pred_payload(pred):
    out = {"family": pred.family.value, "is_null": pred.is_null}
    if pred.probs is not None:
        out["probs"] = pred.probs.tolist()
    if pred.box:
        out["box"] = list(pred.box)
    if pred.pairs:
        out["pairs"] = sorted(list(p) for p in pred.pairs)
    return out


def _pred_from_payload(payload):
    family = TaskFamily(payload["family"])
    probs = payload.get("probs")
    return AlignedPrediction(
        family,
        probs=None if probs is None else np.asarray(probs, dtype=np.float64),
        box=tuple(payload.get("box", ())),
        pairs=frozenset(tuple(p) for p in payload.get("pairs", ())),
        is_null=bool(payload["is_null"]))


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def export_dataset(world, split, path):
    """Write one split as sorted-key JSON lines."""
    lines = []
    for lq in world.splits[split]:
        spec = world.task_spec(lq.query.task)
        rec = {
            "uid": lq.query.uid,
            "task": lq.query.task,
            "family": spec.family.value,
            "x": lq.query.x.tolist(),
            "q": lq.query.q.tolist(),
            "gt": _gt_payload(lq.gt),
        }
        lines.append(json.dumps(rec, sort_keys=True))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def import_dataset(path):
    """Read a split back; malformed lines raise with their line number."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                records.append(parse_record(line, f"{path}:{lineno}"))
    return records


def parse_record(line, where, world=None):
    """One dataset line -> LabeledQuery; ``where`` ("path:line") names the
    line in errors.

    The uid must be non-negative (it keys the query's RNGs) and the
    features finite vectors. With a ``world`` the record must
    also fit it: a task of the world, that task's family and the world's
    feature dimensions. A uid of one of the world's queries (splits or
    reference pools) names that query, whose tool outputs the simulator
    keys by uid, so the record's task, ``x`` and ``q`` must equal it.
    Every failure raises ``ConfigError``.
    """
    try:
        rec = json.loads(line)
        family = TaskFamily(rec["family"])
        query = Query(uid=int(rec["uid"]), task=int(rec["task"]),
                      x=np.asarray(rec["x"], dtype=np.float64),
                      q=np.asarray(rec["q"], dtype=np.float64))
        gt = _gt_from_payload(family, rec["gt"])
    except KeyError as exc:
        raise ConfigError(f"{where}: malformed record: missing key {exc}") from exc
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"{where}: malformed record: {exc}") from exc
    if query.uid < 0:
        raise ConfigError(f"{where}: 'uid' must be non-negative, got {query.uid}")
    for name in ("x", "q"):
        v = getattr(query, name)
        if v.ndim != 1 or not np.isfinite(v).all():
            raise ConfigError(f"{where}: {name!r} must be a vector of finite numbers")
    if world is not None:
        if not 0 <= query.task < len(world.tasks):
            raise ConfigError(f"{where}: task {query.task} is not a task of the world "
                              f"(0..{len(world.tasks) - 1})")
        expected = world.task_spec(query.task).family
        if family is not expected:
            raise ConfigError(f"{where}: task {query.task} has family {expected.value!r}, "
                              f"the record {family.value!r}")
        for name, dim in (("x", world.cfg.d_x), ("q", world.cfg.d_q)):
            if len(getattr(query, name)) != dim:
                raise ConfigError(f"{where}: {name!r} has {len(getattr(query, name))} "
                                  f"features, the world {dim}")
        known = world.query_of_uid(query.uid)
        if known is not None and (known.task != query.task or not np.array_equal(known.x, query.x)
                                  or not np.array_equal(known.q, query.q)):
            raise ConfigError(f"{where}: uid {query.uid} is a query of the world with another "
                              f"task or features; a new query needs a uid of its own")
    return LabeledQuery(query, gt)


def export_tools(world, path):
    """Write tool metadata and frozen reference sets as JSON lines."""
    lines = []
    for tool in world.all_tools:
        refs = {}
        for task, elements in sorted(tool.reference_sets.items()):
            spec = world.task_spec(task)
            refs[str(task)] = [
                {"x": x.tolist(), "gt": _gt_payload(gt),
                 "family": spec.family.value, "pred": _pred_payload(pred)}
                for x, gt, pred in elements]
        rec = {
            "id": tool.tool_id,
            "index": tool.index,
            "supported_tasks": sorted(tool.supported_tasks),
            "alignment": {str(t): {str(k): list(v) for k, v in rho.items()}
                          for t, rho in sorted(tool.alignment.items())},
            "tool_label_count": {str(t): c for t, c in sorted(tool.tool_label_count.items())},
            "eta": tool.eta.tolist(),
            "reference_sets": refs,
        }
        lines.append(json.dumps(rec, sort_keys=True))
    _atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def import_tools(path):
    """Read tool metadata back as plain Tool objects."""
    tools = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                refs = {}
                for t, elements in rec["reference_sets"].items():
                    refs[int(t)] = [
                        (np.asarray(e["x"], dtype=np.float64),
                         _gt_from_payload(TaskFamily(e["family"]), e["gt"]),
                         _pred_from_payload(e["pred"]))
                        for e in elements]
                tool = Tool(
                    tool_id=rec["id"],
                    index=int(rec["index"]),
                    supported_tasks=frozenset(int(t) for t in rec["supported_tasks"]),
                    alignment={int(t): {int(k): tuple(v) for k, v in rho.items()}
                               for t, rho in rec["alignment"].items()},
                    tool_label_count={int(t): int(c)
                                      for t, c in rec["tool_label_count"].items()},
                    eta=np.asarray(rec["eta"], dtype=np.float64),
                    reference_sets=refs)
            except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
                    RecursionError) as exc:
                # AttributeError: a JSON list where an object is expected has no .items()
                raise ConfigError(f"{path}:{lineno}: malformed record: {exc}") from exc
            tools.append(tool)
    return tools
