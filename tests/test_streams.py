"""Keyed streams drawn as arrays: the PCG64 words of ``_pcg64_words``, the
``random()`` and ``integers(k)`` draws made from them, and the panels and
tool outputs built from those draws, each against numpy's own generators.

``numpy`` is pinned only from below, and these tests are the ones that
would catch a numpy whose PCG64 seeding, output or bounded-integer method
differs from the one the arrays reproduce.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toolselect import evalharness, simworld
from toolselect.errors import NoValidPanelError
from toolselect.evalharness import PANEL_KEY, _first_attempts, eval_panels, keyed_panels
from toolselect.simworld import (
    BATCH_SEEDING_MIN,
    WorldConfig,
    _bounded,
    _KeyedRngs,
    _LO32,
    _uniforms,
    generate_world,
    keyed_rng,
    keyed_rngs,
    sample_panel,
    tool_predict,
)
from toolselect.trainer import step_panels

MUL = 0x2360ED051FC65DA44385DF649FCCF645     # numpy's PCG64 multiplier
MASK64 = 2**64 - 1

# keys of one to five entries, some past 2**32 and past 2**63
KEYS = st.lists(st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**70), min_size=1,
                         max_size=5).map(tuple), min_size=1, max_size=30)


# keys whose entries pass 2**32, 2**63 and 2**64, in batches below and above
# BATCH_SEEDING_MIN, the size at which the entropy pools are mixed as columns
WIDE_KEYS = [(2**63 + 5, 104729, 3, 2**64 + 1), (2**32, 7), (0, 2**63 - 1, 2**63)]


@given(KEYS, st.integers(1, 7))
@example(WIDE_KEYS, 5)
@example(WIDE_KEYS * 9, 2)
def test_words_and_uniforms_equal_numpy_generators(keys, n_words):
    rngs = keyed_rngs(keys)
    words = rngs.words(n_words)
    assert words.shape == (len(keys), n_words) and words.dtype == np.uint64
    for i, key in enumerate(keys):
        assert words[i].tolist() == keyed_rng(*key).bit_generator.random_raw(n_words).tolist()
        assert _uniforms(words[i]).tobytes() == keyed_rng(*key).random(n_words).tobytes()


@given(KEYS, st.integers(1, 2**32 - 1) | st.integers(1, 60), st.integers(1, 9))
@example(WIDE_KEYS * 9, 12, 7)
@example(WIDE_KEYS, 1, 4)
def test_bounded_draws_equal_numpy_integers_unless_flagged(keys, k, m):
    """``integers(k)`` from a word's low half, and m draws from the halves of
    ``ceil(m / 2)`` words, equal numpy's wherever no redraw is flagged."""
    rngs = keyed_rngs(keys)
    one, one_redraw = _bounded(rngs.words(1)[:, 0] & _LO32, k)
    many, many_redraw = rngs.first_integers(k, m)
    assert many.shape == (len(keys), m)
    for i, key in enumerate(keys):
        if not one_redraw[i]:
            assert one[i] == keyed_rng(*key).integers(k)
        if not many_redraw[i]:
            assert many[i].tolist() == keyed_rng(*key).integers(0, k, size=m).tolist()


def _rotl64(x, r):
    return ((x << r) | (x >> (64 - r))) & MASK64 if r else x


def _seeding_whose_first_word_is(word, initseq=12345, hi=0x0123456789ABCDEF):
    """The ``(1, 4)`` PCG64 state (initstate and initseq limbs) whose first
    output is ``word``: the post-step state from the XSL-RR inverse for a
    chosen high limb, then the seeding's two steps undone with the
    multiplier's inverse mod 2**128."""
    lo = _rotl64(word, hi >> 58) ^ hi
    inc = (initseq << 1 | 1) % 2**128
    inverse = pow(MUL, -1, 2**128)
    before = (((hi << 64) | lo) - inc) * inverse % 2**128
    initstate = ((before - inc) * inverse - inc) % 2**128
    return np.array([[initstate >> 64, initstate & MASK64, initseq >> 64, initseq & MASK64]],
                    dtype=np.uint64)


def test_a_draw_numpy_rejects_is_flagged_and_replayed_by_its_generator(small_world,
                                                                        monkeypatch):
    """Word 0xF0000000_40000000: numpy's ``integers(12)`` rejects the low half
    (0x40000000 * 12 leaves 0 in the low 32 bits) and returns 11 from the
    high half. The arrays flag the draw, and the panel drawer sends that
    query to ``sample_panel``, so every panel is still the generator's."""
    word = 0xF0000000_40000000
    crafted = _seeding_whose_first_word_is(word)
    assert _KeyedRngs(crafted)[0].bit_generator.random_raw() == word
    assert _KeyedRngs(crafted)[0].integers(12) == 11
    values, redraw = _bounded(np.array([word], dtype=np.uint64) & _LO32, 12)
    assert redraw.tolist() == [True] and values.tolist() == [3]
    assert _KeyedRngs(crafted).first_integers(12, 2)[1].tolist() == [True]

    w = dataclasses.replace(small_world, populations={
        task: (pop * 2)[:12] for task, pop in small_world.populations.items()})
    lqs = w.splits["test"][:BATCH_SEEDING_MIN]
    states = keyed_rngs([(3, PANEL_KEY, lq.query.uid) for lq in lqs]).states.copy()
    states[5] = crafted[0]
    rngs = _KeyedRngs(states)
    assert _first_attempts(w, lqs, 6, rngs)[5] is None
    monkeypatch.setattr(evalharness, "keyed_rngs", lambda keys: rngs)
    want = [sample_panel(w.populations[lq.query.task], lq.query, 6, rngs[i])
            for i, lq in enumerate(lqs)]
    assert want[5].tools[0] is w.populations[lqs[5].query.task][11]
    assert keyed_panels(w, lqs, 6, 3, PANEL_KEY) == want


def _reference_panels(world, split, m, seed):
    """One ``sample_panel`` call per query with its own keyed RNG."""
    out = []
    for lq in world.splits[split]:
        try:
            out.append(sample_panel(world.populations[lq.query.task], lq.query, m,
                                    keyed_rng(seed, PANEL_KEY, lq.query.uid)))
        except NoValidPanelError as exc:      # the error eval_panels must raise too
            return out, (type(exc), str(exc))
    return out, None


@pytest.mark.parametrize("n", [1, BATCH_SEEDING_MIN - 1, BATCH_SEEDING_MIN, 64, 65])
@pytest.mark.parametrize("m", [2, 5, 6])
def test_eval_panels_equal_per_query_sample_panel(small_world, n, m):
    w = dataclasses.replace(small_world, splits={"test": small_world.splits["test"][:n]})
    for seed in (0, 2**40 + 3):
        want, error = _reference_panels(w, "test", m, seed)
        assert error is None
        assert eval_panels(w, "test", m, seed) == want


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_eval_panels_where_first_attempts_fail(seed, m):
    """A world of three tools per task at ``support_prob`` 0.3, where a tool
    often supports other tasks and not its own: many first attempts hold no
    valid tool and are redrawn by ``sample_panel``. At seed 1 no tool of
    task 0's population supports it, and ``eval_panels`` raises the error
    ``sample_panel`` raises."""
    cfg = WorldConfig(support_prob=0.3, tools_per_task=3, n_train=8, n_val=8, n_test=130,
                      n_ref_pool=16, ref_size=2)
    world = generate_world(cfg, seed)
    lqs = world.splits["test"]
    rngs = keyed_rngs([(seed, PANEL_KEY, lq.query.uid) for lq in lqs[:64]])
    assert sum(panel is None for panel in _first_attempts(world, lqs[:64], m, rngs)) >= 5
    want, error = _reference_panels(world, "test", m, seed)
    assert (error is not None) == (seed == 1)
    if error is None:
        assert eval_panels(world, "test", m, seed) == want
    else:
        with pytest.raises(error[0]) as exc:
            eval_panels(world, "test", m, seed)
        assert str(exc.value) == error[1]


def test_keyed_panels_of_a_panel_size_below_2_raise_as_sample_panel_does(small_world):
    lqs = small_world.splits["test"][:BATCH_SEEDING_MIN]
    with pytest.raises(ValueError, match="panel size m must be >= 2"):
        keyed_panels(small_world, lqs, 1, 0, PANEL_KEY)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(2, 9), st.integers(1, 50))
def test_one_block_draw_equals_one_draw_per_panel(seed, batch, m, n):
    """``integers(0, n, size=(B, m))`` takes the values of B draws of size m
    and leaves the generator in the same state, for odd m too, which leaves
    a buffered 32-bit half between two draws."""
    block, rows = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = block.integers(0, n, size=(batch, m))
    assert drawn.tolist() == [rows.integers(0, n, size=m).tolist() for _ in range(batch)]
    assert block.bit_generator.state == rows.bit_generator.state


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(2, 9), st.booleans())
def test_step_panels_equal_sequential_sample_panel(small_world, seed, batch, m, mixed):
    """A training step's panels equal B ``sample_panel`` calls, also when the
    population holds tools of other tasks, so that some panels hold no valid
    tool and the calls replay from the saved state."""
    task = seed % len(small_world.tasks)
    population = list(small_world.all_tools if mixed else small_world.populations[task])
    lqs = [lq for lq in small_world.splits["train"] if lq.query.task == task][:batch]
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = step_panels(population, lqs, m, got_rng)
    want = [sample_panel(population, lq.query, m, want_rng) for lq in lqs]
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _output_bytes(pred):
    probs = b"" if pred.probs is None else pred.probs.tobytes()
    return repr((pred.box, sorted(pred.pairs))).encode() + probs


def test_redrawn_fills_equal_per_pair_tool_predict(small_world, monkeypatch):
    """With every bounded draw flagged, each categorical and report pair of a
    fill that drew a wrong label or an extra pair draws again from its
    generator; the outputs still equal per-pair ``tool_predict``."""
    monkeypatch.setattr(simworld, "_bounded", lambda halves, k: (
        np.zeros(np.shape(halves), dtype=np.int64), np.ones(np.shape(halves), dtype=bool)))
    w = dataclasses.replace(small_world)
    lqs = w.splits["val"] + w.splits["test"]
    for task, spec in enumerate(w.tasks):
        pairs = [(tool, lq) for lq in lqs if lq.query.task == task
                 for tool in w.populations[task] if task in tool.supported_tasks]
        assert len(pairs) >= BATCH_SEEDING_MIN
        group, = w.tool_outcomes([t for t, _ in pairs], [lq.query for _, lq in pairs])
        for (tool, lq), output in zip(pairs, group.outputs):
            rng = np.random.default_rng([w.seed, simworld.PREDICTION_KEY, tool.index,
                                         lq.query.uid])
            assert _output_bytes(simworld._prediction(spec, output)) == \
                _output_bytes(tool_predict(w, tool, lq.query, rng))
