"""The benchmark's own checks: output digest, conservation checks, tracing.

Run with ``python3 -m pytest perfbench -q``; each test simulates a few
seconds of a shortened workload.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path

import pytest
import workloads
from outputs import digest, violations
from tracing import BUILD_PATCHES, Tracer, class_state, run_patches

import run
from repro.sim.simulation import Simulation


def shortened(name: str):
    config = workloads.build_config(name, seed=3, serial_twin=True)
    if name == "coop-fleet":
        return dataclasses.replace(config, duration=1.0, warmup=0.25)
    return dataclasses.replace(config, duration=60.0, warmup=10.0)


def test_sound_run_passes_checks_and_repeats_its_digest():
    config = shortened("paper-proxy")
    first = Simulation(config).run()
    second = Simulation(config).run()
    assert violations(first, item_size=1.0) == []
    assert digest(first) == digest(second)


def test_perturbed_output_is_detected():
    out = Simulation(shortened("paper-proxy")).run()
    stats = list(out.controller_stats)
    stats[0] = dataclasses.replace(stats[0], requests=stats[0].requests + 1)
    miscounted = dataclasses.replace(out, controller_stats=stats)
    assert digest(miscounted) != digest(out)
    assert any("requests" in v for v in violations(miscounted, item_size=1.0))
    # A one-ulp change of a simulated float is a different output.
    metrics = out.metrics
    nudged = dataclasses.replace(
        out,
        metrics=dataclasses.replace(
            metrics, mean_access_time=metrics.mean_access_time * (1 + 2**-52)
        ),
    )
    assert digest(nudged) != digest(out)


@pytest.mark.parametrize("name", ["paper-proxy", "coop-fleet"])
def test_tracer_restores_every_wrapper_and_changes_no_result(name):
    config = shortened(name)
    untraced = digest(Simulation(config).run())
    build_state = class_state(BUILD_PATCHES)
    tracer = Tracer()
    tracer.install_build()
    try:
        sim = Simulation(config)
        tracer.reset_counts()  # the partition reflects the run, not the build
        run_state = class_state(run_patches(sim))
        tracer.install_run(sim)
        traced = tracer.wrap("run", sim.run)()
    finally:
        tracer.restore()
    assert class_state(BUILD_PATCHES) == build_state
    assert class_state(run_patches(sim)) == run_state
    for controller in sim.clients:
        assert inspect.ismethod(controller.plan)
        assert inspect.ismethod(controller.on_user_access)
    assert tracer.balanced
    assert tracer.calls("access") == sum(s.requests for s in traced.controller_stats)
    assert digest(traced) == untraced
    run_s = tracer.total_s("run")
    assert tracer.self_total_s() == pytest.approx(run_s, rel=1e-9)


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
