"""Differential tests: the ranked Markov predictor against its sort oracle.

``markov_reference.ReferenceMarkovPredictor`` rebuilds and sorts the
backed-off context's distribution on every prediction; the production
predictor keeps each context ranked as it records.  Both are fed the same
operation script, and after every operation ``predict()``,
``predict(limit)``, ``ranked().above(cutoff)`` and ``probability(item)``
must be *exactly* equal (``==``, item types included).  Scripts mix ``str``
collisions (``1`` and ``"1"``), items equal under ``==`` but labelled
differently (``1``, ``1.0``, ``True``), and equal-valued but distinct int
objects above the small-int cache, so no step may locate an entry by
identity.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import MarkovPredictor
from markov_reference import ReferenceMarkovPredictor

#: int objects above 256 are rebuilt per draw: equal values, distinct objects
ITEMS = [0, 1, 2, 9, 10, 11, "1", "10", "a", 2.5, 1.0, True, 700, 1000, 1001]


def fresh(item):
    """``item``, as a new object when it is an int the runtime doesn't cache."""
    if type(item) is int and item > 256:
        return int(np.int64(item))
    return item


def typed(candidates):
    return [(type(item), item, p) for item, p in candidates]


def cutoffs(candidates):
    probs = [p for _, p in candidates]
    mids = [(a + b) / 2 for a, b in zip(probs, probs[1:])]
    return [math.nan, -1.0, 0.0, 1.0, *probs, *mids]


def assert_same(prod: MarkovPredictor, ref: ReferenceMarkovPredictor) -> None:
    expected = ref.predict()
    assert typed(prod.predict()) == typed(expected)
    for limit in (0, 1, 3):
        assert typed(prod.predict(limit)) == typed(ref.predict(limit))
    view = prod.ranked()
    assert typed(view) == typed(expected)
    for cutoff in cutoffs(expected):
        prefix = [(item, p) for item, p in expected if p > cutoff]
        assert typed(view.above(cutoff)) == typed(prefix)
    for item in ITEMS + ["unseen", 12345]:
        assert prod.probability(fresh(item)) == ref.probability(item)


def drive(order, smoothing, script):
    prod = MarkovPredictor(order=order, smoothing=smoothing)
    ref = ReferenceMarkovPredictor(order=order, smoothing=smoothing)
    assert_same(prod, ref)
    for op in script:
        if op == "reset":
            prod.reset()
            ref.reset()
        else:
            prod.record(fresh(op))
            ref.record(fresh(op))
        assert_same(prod, ref)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2),
    st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    st.lists(st.sampled_from([*ITEMS, "reset"]), max_size=80),
)
def test_matches_reference_after_every_operation(order, smoothing, script):
    drive(order, smoothing, script)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2),
    st.lists(st.sampled_from([1, "1", 10, "10", 700, "700"]), max_size=60),
)
def test_equal_labels_rank_by_first_seen_like_the_reference(order, script):
    drive(order, 0.0, script)


def test_later_seen_equal_label_stays_behind_at_equal_count():
    # 1 is seen before "1": "1" reaching count 2 first leads, then 1
    # catching up goes back in front of it
    drive(0, 0.0, [1, "1", "1", 1])
    prod = MarkovPredictor(order=0)
    prod.warm_up([1, "1", 1, "1"])
    assert typed(prod.predict()) == [(int, 1, 0.5), (str, "1", 0.5)]
    # the first-seen walk stops at the end of the equal labels, even when
    # a larger label after them was seen earlier
    drive(0, 0.0, [1, 2, "1", 1, 2, "1"])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("smoothing", [0.0, 0.5])
def test_matches_reference_on_a_long_zipf_stream(order, smoothing):
    """Tables of hundreds of successors with long equal-count runs: the
    numpy-drawn int items of a simulation, converted the way sources do."""
    rng = np.random.default_rng(7)
    ranks = np.arange(1, 301)
    weights = 1.0 / ranks / np.sum(1.0 / ranks)
    stream = [int(x) for x in rng.choice(300, size=3000, p=weights)]
    prod = MarkovPredictor(order=order, smoothing=smoothing)
    ref = ReferenceMarkovPredictor(order=order, smoothing=smoothing)
    for step, item in enumerate(stream):
        prod.record(item)
        ref.record(int(np.int64(item)))
        if step % 50 == 0 or step > 2900:
            assert_same(prod, ref)


def test_backs_off_to_shorter_contexts_like_the_reference():
    # ('x', 'y') and ('y',) are unseen after the last record: order 0 answers
    script = ["x", "x", "x", "y"]
    drive(2, 0.0, script)
    prod = MarkovPredictor(order=2)
    prod.warm_up(script)
    assert prod.predict() == [("x", 0.75), ("y", 0.25)]
