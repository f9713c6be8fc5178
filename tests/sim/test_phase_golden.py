"""Golden-value pins for *multi*-phase runs.

The equivalence pins in ``test_phases.py`` only cover single-phase
schedules, where ``locate`` reports ``end = inf`` and no arrival block is
ever cut at a phase boundary.  These pins cover the boundary arithmetic
itself: runs whose arrivals cross phase boundaries (rate changes, a Zipf
override, a popularity shift), recorded once and compared with ``==``.

Covered shapes:

* per-client, one proxy;
* per-client on a cooperative item-hash tier (4 proxies, owner-probe);
* aggregated backend with multi-member classes plus an overridden
  singleton class, 2 proxies;
* per-client with a ``client_overrides`` entry.

Every metric, the KPI p95 and every controller's stats are pinned; the
values are never recomputed — a change that moves one is a behaviour
change, not a refactor.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.network.topology import CooperationConfig, TopologyConfig
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation
from repro.workload.phases import PhaseSpec
from repro.workload.sessions import WorkloadSpec

#: 18 s cycle over a 40 s run: every boundary kind is crossed twice
PHASES = (
    PhaseSpec(duration=7.0, rate_multiplier=0.5),
    PhaseSpec(duration=6.0, rate_multiplier=2.0, zipf_exponent=1.4),
    PhaseSpec(duration=5.0, popularity_shift=30),
)


def per_client_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=4, request_rate=24.0, catalog_size=60,
            zipf_exponent=1.0, follow_probability=0.5, phases=PHASES,
        ),
        bandwidth=40.0, cache_capacity=12, duration=40.0, warmup=8.0, seed=5,
    )


def coop_item_hash_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=8, request_rate=48.0, catalog_size=80,
            zipf_exponent=0.9, follow_probability=0.6, phases=PHASES,
        ),
        bandwidth=30.0, cache_capacity=10, duration=40.0, warmup=8.0, seed=11,
        topology=TopologyConfig(
            num_proxies=4,
            routing="item-hash",
            cooperation=CooperationConfig(mode="owner-probe"),
        ),
    )


def aggregated_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=40, request_rate=80.0, catalog_size=100,
            zipf_exponent=0.9, follow_probability=0.4, phases=PHASES,
            client_overrides={5: {"request_rate": 6.0}},
        ),
        bandwidth=60.0, cache_capacity=15, duration=40.0, warmup=8.0, seed=13,
        topology=TopologyConfig(num_proxies=2),
        client_backend="aggregated",
    )


def override_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=5, request_rate=25.0, catalog_size=60,
            zipf_exponent=1.0, follow_probability=0.5, phases=PHASES,
            client_overrides={2: {"request_rate": 9.0, "zipf_exponent": 0.6}},
        ),
        bandwidth=40.0, cache_capacity=12, duration=40.0, warmup=8.0, seed=17,
    )


#: name -> (config builder, metrics, KPI p95, controller stats rows)
GOLDEN = {
    "per-client": (
        per_client_config,
        {
            "duration": 32.0, "requests": 907, "hits": 508,
            "mean_access_time": 0.040530096514004355,
            "mean_demand_retrieval_time": 0.09554508884931473,
            "mean_prefetch_retrieval_time": 0.11703020616781806,
            "utilization": 0.6697738230747279,
            "retrieval_time_per_request": 0.1021981333091574,
            "prefetches_issued": 521,
            "prefetches_per_request": 0.5744211686879823,
            "tagged_hits": 346, "remote_probes": 0, "remote_hits": 0,
            "mean_remote_retrieval_time": 0.0,
        },
        0.18434229924091106,
        [(260, 101, 101, 41), (268, 168, 168, 44), (266, 135, 135, 41),
         (262, 136, 136, 43)],
    ),
    "coop-item-hash": (
        coop_item_hash_config,
        {
            "duration": 32.0, "requests": 1771, "hits": 1036,
            "mean_access_time": 0.019887424798062624,
            "mean_demand_retrieval_time": 0.06159664219004573,
            "mean_prefetch_retrieval_time": 0.06470489216696979,
            "utilization": 0.37098035467948326,
            "retrieval_time_per_request": 0.051678119523610726,
            "prefetches_issued": 962,
            "prefetches_per_request": 0.5431959345002824,
            "tagged_hits": 633, "remote_probes": 454, "remote_hits": 163,
            "mean_remote_retrieval_time": 0.005038668526781996,
        },
        0.09646616199111992,
        [(260, 121, 121, 54), (256, 114, 114, 38), (244, 134, 134, 60),
         (249, 93, 93, 51), (240, 127, 127, 45), (243, 102, 102, 45),
         (260, 135, 134, 54), (278, 169, 169, 71)],
    ),
    "aggregated": (
        aggregated_config,
        {
            "duration": 32.0, "requests": 3061, "hits": 1709,
            "mean_access_time": 0.013896523694079885,
            "mean_demand_retrieval_time": 0.03169908019494348,
            "mean_prefetch_retrieval_time": 0.045582963860411635,
            "utilization": 0.41432291666666454,
            "retrieval_time_per_request": 0.017718856816234346,
            "prefetches_issued": 274,
            "prefetches_per_request": 0.08951323097027115,
            "tagged_hits": 1649, "remote_probes": 0, "remote_hits": 0,
            "mean_remote_retrieval_time": 0.0,
        },
        0.05424690937011326,
        [(1696, 106, 106, 20), (1573, 115, 115, 27), (237, 122, 122, 30)],
    ),
    "client-override": (
        override_config,
        {
            "duration": 32.0, "requests": 1113, "hits": 636,
            "mean_access_time": 0.06560791090290531,
            "mean_demand_retrieval_time": 0.15772696659738436,
            "mean_prefetch_retrieval_time": 0.16194432264485892,
            "utilization": 0.7607118783209965,
            "retrieval_time_per_request": 0.14009618784809766,
            "prefetches_issued": 583,
            "prefetches_per_request": 0.5238095238095238,
            "tagged_hits": 465, "remote_probes": 0, "remote_hits": 0,
            "mean_remote_retrieval_time": 0.0,
        },
        0.40679443210830474,
        [(222, 109, 109, 32), (216, 78, 78, 26), (411, 193, 193, 52),
         (203, 104, 104, 31), (230, 124, 124, 35)],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_multi_phase_golden(name):
    build, metrics, p95, controller_rows = GOLDEN[name]
    out = run_simulation(build())
    assert dataclasses.asdict(out.metrics) == metrics
    assert out.kpis.access_p95 == p95
    assert [dataclasses.astuple(s) for s in out.controller_stats] == controller_rows


def test_aggregated_golden_has_multi_member_and_singleton_classes():
    """The aggregated pin exercises both class kinds: two multi-member
    classes (one per node) and the overridden client as a singleton."""
    out = run_simulation(aggregated_config())
    assert [row.num_members for row in out.client_classes] == [20, 19, 1]
