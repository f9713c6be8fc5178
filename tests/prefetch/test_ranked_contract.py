"""The planning contract between predictors and the cutoff policies.

The controller plans from ``predictor.ranked()``.  Every predictor the
simulation can build (and both oracles) must return ``predict()``
candidates with non-increasing probability, and reading a ranked view
through ``PolicyContext.eligible_above`` must select exactly what the
filter-then-sort path selects on the same candidates as a plain list — at
every cutoff, including a NaN cutoff and a cutoff equal to a candidate's
probability (``p > cutoff`` is strict).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.predictors import DistributionOracle, MarkovPredictor, OraclePredictor
from repro.prefetch import PolicyContext
from repro.sim.config import PREDICTOR_NAMES, SimulationConfig
from repro.sim.simulation import _build_predictor
from repro.workload.markov_source import MarkovChainSource
from repro.workload.zipf import shared_catalog


def stream_source(seed: int = 1) -> MarkovChainSource:
    return MarkovChainSource(
        shared_catalog(60, 0.9),
        follow_probability=0.7,
        rng=np.random.default_rng(seed),
    )


def built(name: str):
    return _build_predictor(SimulationConfig(predictor=name), stream_source(2))


PREDICTORS = {
    **{name: (lambda name=name: built(name)) for name in PREDICTOR_NAMES},
    "markov(order=2, smoothing=0.5)": lambda: MarkovPredictor(order=2, smoothing=0.5),
    "distribution-oracle": lambda: DistributionOracle(
        {0: 0.3, 1: 0.1, 2: 0.3, "2": 0.1, 5: 0.05}
    ),
    "oracle": lambda: OraclePredictor(stream_source(1).generate(400), lookahead=3),
}


def check(predictor, context: PolicyContext) -> None:
    probs = [p for _, p in predictor.predict()]
    assert all(a >= b for a, b in zip(probs, probs[1:])), probs
    view = predictor.ranked()
    as_list = list(view)
    assert as_list == predictor.predict()
    for cutoff in [math.nan, -1.0, 0.0, 1.0, *probs]:
        assert context.eligible_above(view, cutoff) == context.eligible_above(
            as_list, cutoff
        )


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_ranked_candidates_are_descending_and_cut_like_a_list(name):
    predictor = PREDICTORS[name]()
    context = PolicyContext(
        now=0.0, bandwidth=1.0, in_cache={0, 3, 7}, in_flight={1, 11}
    )
    check(predictor, context)
    for step, item in enumerate(stream_source(1).generate(400)):
        predictor.record(item)
        if step % 10 == 0:
            check(predictor, context)
