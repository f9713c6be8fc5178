"""The benchmark's four workloads, each a ``SimulationConfig`` built from a seed.

Every workload goes through the public API only
(``SimulationConfig`` -> ``Simulation(config)`` -> ``.run()``).  The seed is
the only input that changes between runs of one workload; sizes are fixed
so that one run costs roughly 2-4 s of host time on a 2-core x86 host.
Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.network.topology import CooperationConfig, TopologyConfig  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.workload.phases import PhaseSpec  # noqa: E402
from repro.workload.sessions import WorkloadSpec  # noqa: E402

NAMES = ("paper-proxy", "prefetch-overload", "coop-fleet", "parallel-tier")


def paper_proxy(seed: int) -> SimulationConfig:
    """The paper's single-proxy system, lightly loaded (rho ~ 0.46)."""
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=4,
            request_rate=30.0,
            catalog_size=500,
            zipf_exponent=1.0,
            follow_probability=0.7,
        ),
        bandwidth=50.0,
        cache_capacity=50,
        predictor="markov",
        policy="threshold-dynamic",
        duration=600.0,
        warmup=40.0,
        seed=seed,
    )


def prefetch_overload(seed: int) -> SimulationConfig:
    """Prefetch-everything at rho = 1: the paper's harmful regime."""
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=1000,
            request_rate=1000.0,
            catalog_size=5000,
            zipf_exponent=0.8,
            follow_probability=0.7,
        ),
        bandwidth=2000.0,
        cache_capacity=20,
        predictor="true-distribution",
        policy="all",
        duration=1.5,
        warmup=0.5,
        seed=seed,
    )


def coop_fleet(seed: int) -> SimulationConfig:
    """1M users as classes on 4 cooperating item-hash proxies, one load cycle."""
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=1_000_000,
            request_rate=2000.0,
            catalog_size=2000,
            zipf_exponent=0.9,
            follow_probability=0.7,
            phases=(
                PhaseSpec(duration=2.0, rate_multiplier=0.6),
                PhaseSpec(duration=2.0, rate_multiplier=1.4),
            ),
        ),
        bandwidth=1500.0,
        cache_capacity=100,
        predictor="markov",
        policy="threshold-dynamic",
        duration=4.0,
        warmup=0.5,
        seed=seed,
        topology=TopologyConfig(
            num_proxies=4,
            routing="item-hash",
            cooperation=CooperationConfig(mode="owner-probe"),
        ),
        client_backend="aggregated",
    )


def parallel_tier(seed: int, *, node_backend: str = "parallel") -> SimulationConfig:
    """The ``scenarios/saturated_tier.yaml`` shape on 2 worker processes.

    ``node_backend="serial"`` gives its bit-identical serial twin.
    """
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=64,
            request_rate=320.0,
            catalog_size=600,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        bandwidth=50.0,
        cache_capacity=40,
        predictor="markov",
        policy="threshold-dynamic",
        duration=100.0,
        warmup=25.0,
        seed=seed,
        topology=TopologyConfig(num_proxies=8),
        node_backend=node_backend,
        node_workers=2,
    )


def build_config(name: str, seed: int, *, serial_twin: bool = False) -> SimulationConfig:
    """The config of workload ``name`` at ``seed``.

    ``serial_twin`` runs ``parallel-tier`` on the serial node backend; the
    other workloads are serial already and ignore it.
    """
    if name == "parallel-tier":
        return parallel_tier(seed, node_backend="serial" if serial_twin else "parallel")
    builders = {
        "paper-proxy": paper_proxy,
        "prefetch-overload": prefetch_overload,
        "coop-fleet": coop_fleet,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; known: {NAMES}")
    return builders[name](seed)
