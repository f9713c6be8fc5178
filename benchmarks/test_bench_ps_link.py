"""Layer ladder: processor-sharing link cost per event vs active jobs.

The PS link (``des/processor_sharing.py``) charges every active job on
every arrival and departure, so its cost per event grows with the number of
jobs sharing it — into the thousands when indiscriminate prefetching drives
the link to ρ → 1.  This bench holds ``n`` long background jobs in service
and times a driver that submits one short job and waits for it, repeatedly:
each short job is two link events (its arrival and its departure) at
``n + 1`` and ``n`` active jobs, plus the constant event-kernel work around
them.  The reported cost is the best round's wall time per event.

Gate (a same-run ratio, never absolute seconds): cost at 1000 active jobs
≤ 6× cost at 10.  The pure-Python loop server this replaced measured 17.4×
(12.95 vs 225.9 µs/event) on a 2-vCPU x86_64 host (Python 3.11, NumPy
2.4): every event ran three Python passes over all jobs.

Crossover.  The ladder also times both storage paths forced on at counts
around the switch.  On that host a NumPy call costs about a microsecond
whatever its array's length.  Over three runs the list path cost 11.4–11.6
µs/event at 8 jobs against 20.0–23.7 for the vector path; at 64 jobs the
two were level (18.1–19.9 against 17.0–22.8); at 128 the vector path was
cheaper in every run (14.7–23.0 against 21.1–28.0), and at 256 it cost
16–23 against 31–44.  The server therefore enters vector storage at 128
active jobs and leaves it at 64, where the paths are level
(``_VECTOR_ENTER``/``_VECTOR_LEAVE``); the gap stops a count hovering at
the boundary from converting on every event.  The links of the perfbench
workloads `paper-proxy`, `coop-fleet` and `parallel-tier` peak at 20, 9
and 53 jobs and stay on the list path; `prefetch-overload` peaks near
4,500 and runs on the vector.

Run:  pytest benchmarks/test_bench_ps_link.py --benchmark-only -s
"""

from __future__ import annotations

import time

import repro.des.processor_sharing as ps
from repro.des.environment import Environment

#: Active-job counts of the ladder.
LADDER = (1, 10, 100, 1000, 4000)
#: Counts at which both storage paths are timed, forced on.
CROSSOVER = (8, 32, 64, 96, 128, 256)
#: Short jobs per timed round, and rounds per count (best one kept).
CYCLES = 600
ROUNDS = 3


def _us_per_event(n: int, cycles: int = CYCLES, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        env = Environment()
        server = ps.ProcessorSharingServer(env, capacity=1.0)
        for k in range(n):
            server.submit(1e9 + k)  # distinct sizes: never a tie, never done

        def driver(env):
            for _ in range(cycles):
                yield server.submit(1e-3)

        proc = env.process(driver(env))
        start = time.perf_counter()
        env.run(until=proc)
        best = min(best, (time.perf_counter() - start) / (2 * cycles))
        assert server.completed_jobs == cycles and server.num_active == n
    return best * 1e6


def _forced(monkeypatch, vector: bool) -> dict[int, float]:
    monkeypatch.setattr(ps, "_VECTOR_ENTER", 1 if vector else 10**9)
    monkeypatch.setattr(ps, "_VECTOR_LEAVE", -1)
    return {n: round(_us_per_event(n), 2) for n in CROSSOVER}


def test_bench_ps_link_ladder(benchmark, monkeypatch):
    ladder = {n: _us_per_event(n) for n in LADDER}
    benchmark.pedantic(
        lambda: _us_per_event(1000, rounds=1), rounds=3, iterations=1, warmup_rounds=0
    )
    with monkeypatch.context() as patch:
        list_path = _forced(patch, vector=False)
    with monkeypatch.context() as patch:
        vector_path = _forced(patch, vector=True)

    benchmark.extra_info["us_per_event"] = {n: round(us, 2) for n, us in ladder.items()}
    benchmark.extra_info["crossover_list_us"] = list_path
    benchmark.extra_info["crossover_vector_us"] = vector_path
    benchmark.extra_info["vector_enter"] = ps._VECTOR_ENTER
    benchmark.extra_info["vector_leave"] = ps._VECTOR_LEAVE
    print()
    print("active jobs  us/event")
    for n, us in ladder.items():
        print(f"{n:>11}  {us:8.2f}")
    print("forced paths  list us/event  vector us/event")
    for n in CROSSOVER:
        print(f"{n:>12}  {list_path[n]:13.2f}  {vector_path[n]:15.2f}")
    ratio = ladder[1000] / ladder[10]
    print(f"cost at 1000 / cost at 10 = {ratio:.2f} (gate: <= 6)")
    assert ratio <= 6.0

