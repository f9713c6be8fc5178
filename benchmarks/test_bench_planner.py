"""Layer ladder: prefetch planning cost per request vs successor-table size.

One controller — a first-order ``MarkovPredictor`` planned by the paper's
``threshold-dynamic`` policy — is warmed up so that the current context has
``n`` successors, and ``plan()`` is timed in a loop.  Two shapes per size:
``none`` (every successor seen once, all below ``p_th``) and ``one`` (one
successor takes about half the context's mass, the others are below
``p_th``).  The estimator is fed a fixed request stream (λ = 10, s = 1,
b = 40, all misses), so ``p_th = ρ′ = 0.25`` in every round.  The reported
cost is the best round's wall time per ``plan()`` call.

Gate (a same-run ratio, never absolute seconds): for both shapes, cost at
1000 successors ≤ 3× cost at 10.  The paper's rule prefetches only items
with ``p > p_th``, so planning should cost what the qualifying prefix
costs, not what the whole table costs.

On a 2-vCPU x86_64 host (Python 3.11.7), three runs of this bench per
side.  The predictor that rebuilt and sorted the whole successor table on
every plan cost 8.9–9.1 → 26.2–26.3 → 176–187 µs per plan at 10/100/1000
successors (``one``; ``none`` 8.3–8.6 → 24.1–25.8 → 176–205): ratios of
19.5–20.9 (``one``) and 20.5–24.1 (``none``), which fail the gate.  With
each context kept ranked as it is recorded and the policy reading only the
prefix above ``p_th``, the same host measured 4.7–8.2 → 4.7–8.1 → 4.7–7.6
µs (``none`` 4.3–6.5 → 4.1–7.3 → 4.2–6.1): ratios of 0.92–1.02.

Run:  pytest benchmarks/test_bench_planner.py --benchmark-only -s
"""

from __future__ import annotations

import time

from repro.cache.lru import LRUCache
from repro.estimation.utilization import ThresholdEstimator
from repro.predictors.markov import MarkovPredictor
from repro.prefetch import DynamicThresholdPolicy, PrefetchController

#: Successor-table sizes of the ladder.
LADDER = (10, 100, 1000)
#: Plans per timed round, and rounds per size (best one kept).
CALLS = 2000
ROUNDS = 3
BANDWIDTH = 40.0


def _controller(n: int, shape: str) -> PrefetchController:
    estimator = ThresholdEstimator(BANDWIDTH)
    for k in range(50):
        estimator.observe_request(k / 10.0, "miss")
        estimator.observe_item_size(1.0)
    assert abs(estimator.threshold() - 0.25) < 1e-9
    predictor = MarkovPredictor(order=1)
    history: list = []
    for k in range(n - 1 if shape == "one" else n):
        history += ["ctx", k]
    if shape == "one":
        history += ["ctx", "hot"] * n  # p = n / (2n - 1) > 0.25
    predictor.warm_up(history + ["ctx"])
    above = [item for item, p in predictor.predict() if p > 0.25]
    assert above == (["hot"] if shape == "one" else [])
    return PrefetchController(
        predictor=predictor,
        policy=DynamicThresholdPolicy(estimator),
        cache=LRUCache(10),
        bandwidth=BANDWIDTH,
        estimator=estimator,
    )


def _us_per_plan(n: int, shape: str, calls: int = CALLS, rounds: int = ROUNDS) -> float:
    controller = _controller(n, shape)
    plan = controller.plan
    release = controller.on_fetch_failed
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            for item, _p in plan(now=10.0):
                release(item)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def test_bench_planner_ladder(benchmark):
    ladder = {
        shape: {n: _us_per_plan(n, shape) for n in LADDER} for shape in ("none", "one")
    }
    benchmark.pedantic(
        lambda: _us_per_plan(1000, "one", rounds=1), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    benchmark.extra_info["us_per_plan"] = {
        shape: {n: round(us, 2) for n, us in costs.items()}
        for shape, costs in ladder.items()
    }
    print()
    print("successors  us/plan (none above p_th)  us/plan (one above)")
    for n in LADDER:
        print(f"{n:>10}  {ladder['none'][n]:25.2f}  {ladder['one'][n]:19.2f}")
    for shape, costs in ladder.items():
        ratio = costs[1000] / costs[10]
        print(f"{shape}: cost at 1000 / cost at 10 = {ratio:.2f} (gate: <= 3)")
        assert ratio <= 3.0
