import numpy as np
import pytest

from toolselect.domain import (
    AlignedPrediction,
    CanonicalLabelSpace,
    GroundTruth,
    Panel,
    Query,
    TaskFamily,
    Tool,
    align,
    cost,
    iou,
    null_prediction,
    pair_f1,
    validity,
)
from toolselect.errors import InvalidPredictionError


def _tool(supported, alignment=None, counts=None):
    return Tool(tool_id="t", index=0, supported_tasks=frozenset(supported),
                alignment=alignment or {}, tool_label_count=counts or {},
                eta=np.zeros(2))


def _query(task):
    return Query(uid=0, task=task, x=np.zeros(4), q=np.zeros(4))


# ---------------------------------------------------------------- validity

def test_validity_supported():
    assert validity(_tool({0, 1}), _query(1))


def test_validity_unsupported():
    assert not validity(_tool({0}), _query(2))


# ------------------------------------------------------------------- align

def test_align_overlapping_preimage_hand_oracle():
    # tool labels A -> {a1, a2}, B -> {b}; probs (0.6, 0.4)
    # summed (0.6, 0.6, 0.4), renormalized (0.375, 0.375, 0.25)
    space = CanonicalLabelSpace(0, TaskFamily.CLASSIFICATION, labels=(0, 1, 2))
    tool = _tool({0}, alignment={0: {0: (0, 1), 1: (2,)}}, counts={0: 2})
    out = align(tool, space, [0.6, 0.4])
    np.testing.assert_allclose(out.probs, [0.375, 0.375, 0.25], atol=1e-12)
    assert not out.is_null


def test_align_bijective_is_identity(rng):
    space = CanonicalLabelSpace(0, TaskFamily.CLASSIFICATION, labels=(0, 1, 2, 3))
    tool = _tool({0}, alignment={0: {i: (i,) for i in range(4)}}, counts={0: 4})
    p = rng.random(4)
    p /= p.sum()
    np.testing.assert_allclose(align(tool, space, p).probs, p, atol=1e-12)


def test_align_unsupported_task_gives_uniform_null():
    space = CanonicalLabelSpace(1, TaskFamily.MULTIPLE_CHOICE, labels=(0, 1, 2, 3))
    out = align(_tool({0}), space, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(out.probs, [0.25] * 4)
    assert out.is_null


def test_align_off_simplex_rejected():
    space = CanonicalLabelSpace(0, TaskFamily.CLASSIFICATION, labels=(0, 1))
    tool = _tool({0}, alignment={0: {0: (0,), 1: (1,)}}, counts={0: 2})
    with pytest.raises(InvalidPredictionError):
        align(tool, space, [0.7, 0.5])


def test_align_preserves_argmax_when_bijective(rng):
    space = CanonicalLabelSpace(0, TaskFamily.CLASSIFICATION, labels=(0, 1, 2, 3, 4))
    perm = rng.permutation(5)
    tool = _tool({0}, alignment={0: {i: (int(perm[i]),) for i in range(5)}},
                 counts={0: 5})
    for _ in range(50):
        p = rng.random(5)
        p /= p.sum()
        out = align(tool, space, p)
        assert int(np.argmax(out.probs)) == int(perm[np.argmax(p)])


# -------------------------------------------------------------------- cost

def test_cost_identical_boxes_zero():
    g = GroundTruth(TaskFamily.GROUNDING, box=(0.1, 0.1, 0.5, 0.5))
    p = AlignedPrediction(TaskFamily.GROUNDING, box=(0.1, 0.1, 0.5, 0.5))
    assert cost(TaskFamily.GROUNDING, p, g) == 0.0


def test_cost_iou_one_seventh():
    # boxes (0,0,2,2)/(1,1,3,3) scaled into the unit square: IoU 1/7
    a = (0.0, 0.0, 2 / 3, 2 / 3)
    b = (1 / 3, 1 / 3, 1.0, 1.0)
    assert abs(iou(a, b) - 1 / 7) < 1e-12
    g = GroundTruth(TaskFamily.GROUNDING, box=a)
    p = AlignedPrediction(TaskFamily.GROUNDING, box=b)
    assert abs(cost(TaskFamily.GROUNDING, p, g) - 6 / 7) < 1e-12


def test_cost_pair_f1_two_thirds():
    gt = GroundTruth(TaskFamily.REPORT_GENERATION,
                     pairs=frozenset({("opacity", "left"), ("nodule", "right")}))
    pred = AlignedPrediction(TaskFamily.REPORT_GENERATION,
                             pairs=frozenset({("opacity", "left")}))
    assert abs(pair_f1(pred.pairs, gt.pairs) - 2 / 3) < 1e-12
    assert abs(cost(TaskFamily.REPORT_GENERATION, pred, gt) - 1 / 3) < 1e-12


def test_cost_mcq_exact():
    g = GroundTruth(TaskFamily.MULTIPLE_CHOICE, option=2)
    p = AlignedPrediction(TaskFamily.MULTIPLE_CHOICE,
                          probs=np.array([0.1, 0.1, 0.7, 0.1]))
    assert cost(TaskFamily.MULTIPLE_CHOICE, p, g) == 0.0


def test_cost_classification_tie_breaks_to_lowest_index():
    g = GroundTruth(TaskFamily.CLASSIFICATION, label=0)
    p = AlignedPrediction(TaskFamily.CLASSIFICATION, probs=np.array([0.5, 0.5]))
    assert cost(TaskFamily.CLASSIFICATION, p, g) == 0.0


def test_cost_null_prediction_rejected():
    space = CanonicalLabelSpace(0, TaskFamily.CLASSIFICATION, labels=(0, 1))
    with pytest.raises(ValueError):
        cost(TaskFamily.CLASSIFICATION, null_prediction(space),
             GroundTruth(TaskFamily.CLASSIFICATION, label=0))


def test_empty_pair_sets_cost_zero():
    g = GroundTruth(TaskFamily.REPORT_GENERATION, pairs=frozenset())
    p = AlignedPrediction(TaskFamily.REPORT_GENERATION, pairs=frozenset())
    assert cost(TaskFamily.REPORT_GENERATION, p, g) == 0.0


def test_degenerate_box_cost_one():
    g = GroundTruth(TaskFamily.GROUNDING, box=(0.1, 0.1, 0.5, 0.5))
    p = AlignedPrediction(TaskFamily.GROUNDING, box=(0.3, 0.3, 0.3, 0.6))
    assert cost(TaskFamily.GROUNDING, p, g) == 1.0


def test_all_costs_bounded_on_random_world(small_world, rng):
    world = small_world
    for lq in world.splits["test"]:
        for tool in world.populations[lq.query.task]:
            c = world.tool_cost(tool, lq)
            if c is not None:
                assert 0.0 <= c <= 1.0


def test_panel_requires_two_tools():
    with pytest.raises(ValueError):
        Panel(task=0, tools=(_tool({0}),))


# ------------------------------------------------ align and iou as arrays

def _align_by_loop(tool, space, raw):
    """The summing loop that ``align`` replaced by a matrix product."""
    summed = np.zeros(space.size())
    for tool_label, canon_labels in tool.alignment[space.task].items():
        for y in canon_labels:
            summed[y] += raw[tool_label]
    return summed / summed.sum()


def test_align_matrix_equals_the_summing_loop(small_world, rng):
    """Every (tool, categorical task) of the world, on the simulator's own
    raw outputs and on random simplex points, bit for bit."""
    checked = 0
    for tool in small_world.all_tools:
        for task in sorted(tool.supported_tasks):
            space = small_world.task_spec(task).space
            if space.family not in (TaskFamily.CLASSIFICATION, TaskFamily.MULTIPLE_CHOICE):
                continue
            k = tool.tool_label_count[task]
            raws = []
            for chosen in range(k):
                raw = np.full(k, 0.1 / max(1, k - 1))
                raw[chosen] = 0.9
                raws.append(raw)
            for _ in range(5):
                raw = rng.random(k)
                raws.append(raw / raw.sum())
            for raw in raws:
                got = align(tool, space, raw).probs
                assert np.array_equal(got, _align_by_loop(tool, space, raw)), (tool.tool_id, task)
                checked += 1
    assert checked > 100


def _iou_scalar(box_a, box_b):
    """The one-pair IoU that the row-wise ``iou`` replaced."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def test_iou_rows_equal_the_one_pair_reference_bit_for_bit(rng):
    base = (0.2, 0.2, 0.6, 0.5)
    cases = [
        (base, base),                           # identical
        (base, (0.7, 0.6, 0.9, 0.9)),           # disjoint
        (base, (0.6, 0.2, 0.8, 0.5)),           # touching along an edge
        (base, (0.6, 0.5, 0.8, 0.7)),           # touching at a corner
        (base, (0.3, 0.3, 0.4, 0.4)),           # nested
        (base, (0.3, 0.3, 0.3, 0.4)),           # zero width
        (base, (0.3, 0.3, 0.5, 0.3)),           # zero height
        ((0.4, 0.4, 0.4, 0.4), (0.4, 0.4, 0.4, 0.4)),  # two points
        (base, (0.5, 0.4, 0.3, 0.2)),           # inverted corners
        ((0.0, 0.0, 1.0, 1.0), base),           # the whole square
    ]
    # random boxes: sorting each box's two corner points per axis
    boxes = np.sort(rng.random((500, 2, 2)), axis=1).reshape(500, 4).tolist()
    cases += [(tuple(a), tuple(b)) for a, b in zip(boxes[:250], boxes[250:])]
    boxes_a = np.array([a for a, _ in cases])
    boxes_b = np.array([b for _, b in cases])
    want = np.array([_iou_scalar(a, b) for a, b in cases])
    got = iou(boxes_a, boxes_b)
    assert got.shape == (len(cases),)
    assert got.tobytes() == want.tobytes()
    for (a, b), w in zip(cases[:10], want[:10]):
        assert np.float64(iou(a, b)).tobytes() == np.float64(w).tobytes()
    assert (want[1:4] == 0.0).all() and (want[5:9] == 0.0).all() and want[0] == 1.0
