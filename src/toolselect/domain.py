"""Core vocabulary of the routing problem.

Queries, tools, panels, task families, ground truths, label alignment,
partial support, and the per-family cost functions. Everything here is
immutable after construction and freely shareable.

``align`` is the definition of label alignment for one prediction. The
simulator aligns each tool's outputs once per (tool, task), one row per tool
label, and gathers the aligned rows afterwards.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPredictionError


class TaskFamily(enum.Enum):
    CLASSIFICATION = "classification"
    GROUNDING = "grounding"
    REPORT_GENERATION = "report_generation"
    MULTIPLE_CHOICE = "multiple_choice"


CATEGORICAL_FAMILIES = (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE)


@dataclass(frozen=True)
class CanonicalLabelSpace:
    """Shared output vocabulary of one task.

    ``labels`` is the ordered canonical label list for categorical tasks.
    For grounding it is empty and ``descriptor`` is "box"; for report
    generation ``pair_vocab`` enumerates the (finding, location) vocabulary.
    """
    task: int
    family: TaskFamily
    labels: tuple = ()
    descriptor: str = ""
    pair_vocab: tuple = ()

    def size(self):
        if self.family in CATEGORICAL_FAMILIES:
            return len(self.labels)
        if self.family is TaskFamily.GROUNDING:
            return 4  # box corners
        return len(self.pair_vocab)


@dataclass(frozen=True)
class Query:
    uid: int
    task: int
    x: np.ndarray  # image features, length d_x
    q: np.ndarray  # instruction features, length d_q


@dataclass(frozen=True)
class GroundTruth:
    family: TaskFamily
    # exactly one payload is populated, matching the family
    label: int = -1
    box: tuple = ()
    pairs: frozenset = frozenset()
    option: int = -1


@dataclass(frozen=True)
class LabeledQuery:
    query: Query
    gt: GroundTruth


@dataclass
class Tool:
    """A frozen specialist with partial task support and a label alignment map.

    ``alignment[task]`` maps each tool-label index to the tuple of canonical
    label indices it covers (non-empty). ``reference_sets[task]`` is filled in
    by the simulator once and never mutated afterwards.
    """
    tool_id: str
    index: int
    supported_tasks: frozenset
    alignment: dict
    tool_label_count: dict
    eta: np.ndarray
    reference_sets: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Panel:
    task: int
    tools: tuple  # ordered, m >= 2, duplicates allowed

    def __post_init__(self):
        if len(self.tools) < 2:
            raise ValueError(f"Panel requires m >= 2 tools, got {len(self.tools)}")


@dataclass(frozen=True)
class AlignedPrediction:
    """Tool output mapped into the canonical task space."""
    family: TaskFamily
    probs: np.ndarray = None   # canonical simplex (categorical families)
    box: tuple = ()
    pairs: frozenset = frozenset()
    is_null: bool = False


def validity(tool, query):
    """True iff the tool supports the query's task."""
    return query.task in tool.supported_tasks


def null_prediction(space):
    """Uniform, uninformative output signalling abstention."""
    if space.family in CATEGORICAL_FAMILIES:
        n = space.size()
        return AlignedPrediction(space.family, probs=np.full(n, 1.0 / n), is_null=True)
    if space.family is TaskFamily.GROUNDING:
        return AlignedPrediction(space.family, box=(0.0, 0.0, 1.0, 1.0), is_null=True)
    return AlignedPrediction(space.family, pairs=frozenset(), is_null=True)


def align(tool, space, raw):
    """Map a raw tool prediction into the canonical task space.

    Categorical: canonical score of label y is the summed probability of
    tool labels whose pre-image contains y, renormalized onto the simplex.
    The sum is ``raw @ A`` with the tool's 0/1 alignment matrix A; a
    canonical label with one pre-image gets that label's probability exactly.
    Grounding/report payloads pass through unchanged.
    """
    task = space.task
    if task not in tool.supported_tasks:
        return null_prediction(space)
    if space.family not in CATEGORICAL_FAMILIES:
        if space.family is TaskFamily.GROUNDING:
            return AlignedPrediction(space.family, box=tuple(raw))
        return AlignedPrediction(space.family, pairs=frozenset(raw))
    probs = np.asarray(raw, dtype=np.float64)
    if abs(probs.sum() - 1.0) > 1e-6 or (probs < -1e-12).any():
        raise InvalidPredictionError(
            f"tool {tool.tool_id}: raw probabilities off the simplex (sum={probs.sum():.8f})")
    mat = np.zeros((probs.shape[0], space.size()))
    for tool_label, canon_labels in tool.alignment[task].items():
        mat[tool_label, list(canon_labels)] = 1.0
    summed = probs @ mat
    total = summed.sum()
    if total <= 0.0:
        return null_prediction(space)
    return AlignedPrediction(space.family, probs=summed / total)


def iou(boxes_a, boxes_b):
    """Row-wise intersection-over-union of (x1, y1, x2, y2) boxes in [0, 1]^2.

    ``boxes_a`` and ``boxes_b`` are ``(n, 4)`` arrays and give ``n`` values;
    two single boxes give one. Disjoint, touching and degenerate (zero-area)
    boxes score 0.
    """
    # coordinates as rows x1, y1, x2, y2, so each operation runs over boxes
    a = np.ascontiguousarray(np.asarray(boxes_a, dtype=np.float64).T)
    b = np.ascontiguousarray(np.asarray(boxes_b, dtype=np.float64).T)
    size_a = np.maximum(a[2:] - a[:2], 0.0)
    size_b = np.maximum(b[2:] - b[:2], 0.0)
    size_i = np.maximum(np.minimum(a[2:], b[2:]) - np.maximum(a[:2], b[:2]), 0.0)
    inter = size_i[0] * size_i[1]
    # the union is 0 only when both boxes are degenerate, and then so is inter
    union = size_a[0] * size_a[1] + size_b[0] * size_b[1] - inter
    return np.divide(inter, union, out=np.zeros(inter.shape), where=union > 0.0)[()]


def pair_f1(pred_pairs, gt_pairs):
    """Exact-match F1 over (finding, location) pairs; two empty sets score 1."""
    if not pred_pairs and not gt_pairs:
        return 1.0
    if not pred_pairs or not gt_pairs:
        return 0.0
    hits = len(set(pred_pairs) & set(gt_pairs))
    precision = hits / len(pred_pairs)
    recall = hits / len(gt_pairs)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def cost(family, pred, gt, clipped_xent=False):
    """Bounded per-query cost of an aligned, non-null prediction."""
    if pred.is_null:
        raise ValueError("cost requested for a null prediction")
    if pred.family is not family or gt.family is not family:
        raise ValueError(f"cost: family mismatch ({pred.family} / {gt.family} vs {family})")
    if family is TaskFamily.CLASSIFICATION:
        if clipped_xent:
            p = float(np.clip(pred.probs[gt.label], 1e-12, 1.0))
            return min(1.0, -np.log(p))
        chosen = int(np.argmax(pred.probs))  # argmax ties -> lowest index
        return 0.0 if chosen == gt.label else 1.0
    if family is TaskFamily.MULTIPLE_CHOICE:
        chosen = int(np.argmax(pred.probs))
        return 0.0 if chosen == gt.option else 1.0
    if family is TaskFamily.GROUNDING:
        return 1.0 - iou(pred.box, gt.box)
    if family is TaskFamily.REPORT_GENERATION:
        return 1.0 - pair_f1(pred.pairs, gt.pairs)
    raise ValueError(f"unknown family {family}")
