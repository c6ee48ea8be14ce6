"""Newline-delimited text persistence for query splits and tool metadata.

One JSON object per line, keys sorted, so files diff cleanly and two exports
of the same world are byte-identical. Floats round-trip exactly through
Python's repr-based JSON encoding.
"""

import json
import os
import tempfile

import numpy as np

from .domain import GroundTruth, LabeledQuery, Query, TaskFamily
from .errors import ConfigError


def _gt_payload(gt):
    if gt.family is TaskFamily.CLASSIFICATION:
        return {"label": gt.label}
    if gt.family is TaskFamily.MULTIPLE_CHOICE:
        return {"option": gt.option}
    if gt.family is TaskFamily.GROUNDING:
        return {"box": list(gt.box)}
    return {"pairs": sorted(list(p) for p in gt.pairs)}


def _gt_from_payload(family, payload, where, space=None):
    """The ``GroundTruth`` of a ``_gt_payload`` object. Labels and options
    must be JSON integers, a box four finite numbers and pairs two-integer
    lists; with the task's ``space`` every label, option and pair must be
    one of its own and every box coordinate lie in [0, 1]. Raises
    ``ConfigError`` naming ``where`` and the field."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where}: 'gt' must be an object, got {_shown(payload)}")
    if family in (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE):
        key = "label" if family is TaskFamily.CLASSIFICATION else "option"
        value = _integer(_key(payload, key, where), where, f"gt.{key}")
        if space is not None and value not in space.labels:
            raise ConfigError(f"{where}: 'gt.{key}' {value} is not a label of task "
                              f"{space.task} (0..{len(space.labels) - 1})")
        return GroundTruth(family, **{key: value})
    if family is TaskFamily.GROUNDING:
        box = _numbers(_key(payload, "box", where), where, "gt.box")
        if len(box) != 4 or (space is not None and not ((box >= 0.0) & (box <= 1.0)).all()):
            raise ConfigError(f"{where}: 'gt.box' must be 4 coordinates"
                              + ("" if space is None else " in [0, 1]"))
        return GroundTruth(family, box=tuple(box.tolist()))
    pairs = _key(payload, "pairs", where)
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ConfigError(f"{where}: 'gt.pairs' must be a list of [finding, location] pairs, "
                          f"got {_shown(pairs)}")
    pairs = frozenset(tuple(_integer(v, where, "gt.pairs") for v in p) for p in pairs)
    if space is not None and not pairs <= frozenset(space.pair_vocab):
        raise ConfigError(f"{where}: 'gt.pairs' {sorted(pairs - frozenset(space.pair_vocab))} "
                          f"are not pairs of task {space.task}")
    return GroundTruth(family, pairs=pairs)


def _shown(value, limit=40):
    """A JSON value as its JSON text, cut to ``limit`` characters."""
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _key(obj, key, where):
    """``obj[key]``; a missing key fails naming ``where`` and the key."""
    try:
        return obj[key]
    except KeyError:
        raise ConfigError(f"{where}: malformed record: missing key {key!r}") from None


def _integer(value, where, name):
    """A JSON integer: a float, even an integral one, or a boolean fails."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {name!r} must be an integer, got {_shown(value)}")
    return value


def _numbers(value, where, name):
    """A JSON list of finite numbers, booleans refused, as a float64 vector."""
    if not isinstance(value, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        raise ConfigError(f"{where}: {name!r} must be a list of numbers, got {_shown(value)}")
    try:
        out = np.array(value, dtype=np.float64)
    except OverflowError:        # an integer past the float range
        out = None
    if out is None or not np.isfinite(out).all():
        raise ConfigError(f"{where}: {name!r} must be a vector of finite numbers")
    return out


def _pred_payload(pred):
    out = {"family": pred.family.value, "is_null": pred.is_null}
    if pred.probs is not None:
        out["probs"] = pred.probs.tolist()
    if pred.box:
        out["box"] = list(pred.box)
    if pred.pairs:
        out["pairs"] = sorted(list(p) for p in pred.pairs)
    return out


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

    ``uid`` and ``task`` must be JSON integers (a float or a boolean would be
    read as another query) and the uid non-negative: it keys the query's
    RNGs. ``x`` and ``q`` must be lists of finite numbers, and the ground
    truth the record's family's (``_gt_from_payload``). With a ``world`` the
    record must also fit it: a task of the world and that task's family,
    both checked before the ground truth is read, the world's feature
    dimensions, and labels, options, pairs and boxes in the task's canonical
    space. A uid of one of the world's queries (splits or reference pools)
    names that query, whose tool outputs the simulator keys by uid, so the
    record's task, ``x`` and ``q`` must equal it. Every failure raises
    ``ConfigError`` naming ``where`` and the field.
    """
    try:
        rec = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{where}: malformed record: {exc}") from exc
    if not isinstance(rec, dict):
        raise ConfigError(f"{where}: malformed record: expected an object, got {_shown(rec)}")
    uid = _integer(_key(rec, "uid", where), where, "uid")
    task = _integer(_key(rec, "task", where), where, "task")
    family = _key(rec, "family", where)
    if not isinstance(family, str) or family not in {f.value for f in TaskFamily}:
        raise ConfigError(f"{where}: 'family' must be one of "
                          f"{', '.join(f.value for f in TaskFamily)}, got {_shown(family)}")
    family = TaskFamily(family)
    query = Query(uid=uid, task=task, x=_numbers(_key(rec, "x", where), where, "x"),
                  q=_numbers(_key(rec, "q", where), where, "q"))
    payload = _key(rec, "gt", where)
    if uid < 0:
        raise ConfigError(f"{where}: 'uid' must be non-negative, got {uid}")
    if world is None:
        return LabeledQuery(query, _gt_from_payload(family, payload, where))
    if not 0 <= task < len(world.tasks):
        raise ConfigError(f"{where}: task {task} is not a task of the world "
                          f"(0..{len(world.tasks) - 1})")
    spec = world.task_spec(task)
    if family is not spec.family:
        raise ConfigError(f"{where}: task {task} has family {spec.family.value!r}, "
                          f"the record {family.value!r}")
    for name, dim in (("x", world.cfg.d_x), ("q", world.cfg.d_q)):
        if len(getattr(query, name)) != dim:
            raise ConfigError(f"{where}: {name!r} has {len(getattr(query, name))} "
                              f"features, the world {dim}")
    gt = _gt_from_payload(family, payload, where, spec.space)
    known = world.query_of_uid(uid)
    if known is not None and (known.task != task or not np.array_equal(known.x, query.x)
                              or not np.array_equal(known.q, query.q)):
        raise ConfigError(f"{where}: uid {uid} is a query of the world with another "
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
