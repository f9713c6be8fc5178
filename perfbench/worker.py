"""One benchmark run of one workload.

``run.py`` calls :func:`run_one` in a freshly forked process per run,
because ``ru_maxrss`` covers a whole process lifetime.  The returned record
holds host times, the simulated-output digest and any broken conservation
law.  Modes:

``measure``  untraced: ``setups`` builds (median build time), one run.
``trace``    spans around every layer's public entry points (the serial
             twin on ``parallel-tier``), then every patch is restored.
``shards``   the parallel backend with only its shard dispatch timed.
``split``    the run advanced in simulated-time quarters, for the
             per-quarter cost curve.
"""

from __future__ import annotations

import gc
import inspect
import os
import resource
import statistics
import time
import traceback

import workloads
from hostinfo import NOMINAL_REFERENCE_S, SpeedReference
from outputs import digest, requests_issued, violations
from tracing import BUILD_PATCHES, Tracer, class_state, run_patches

from repro.sim import simulation as simulation_module
from repro.sim.simulation import Simulation

#: simulated-time slices of a measured run (see :func:`run_sliced`), and of
#: one shard group of a parallel-backend run (see :func:`timed_parallel_run`)
SLICES = 100
SHARD_SLICES = 5


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def build(config, setups: int, reference: SpeedReference):
    """Build ``setups`` times, each after one reference step.

    Returns the last simulation, the median build time and the median
    speed-corrected build time.
    """
    times = []
    corrected = []
    sim = None
    for _ in range(setups):
        sim = None
        gc.collect()
        step = reference.seconds()
        start = time.perf_counter()
        sim = Simulation(config)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        corrected.append(elapsed * NOMINAL_REFERENCE_S / step)
    gc.collect()
    return sim, statistics.median(times), statistics.median(corrected)


def run_sliced(sim, finish, reference: SpeedReference, slices: int = SLICES):
    """Advance ``sim`` in ``slices`` simulated-time slices, the last one by
    ``finish()``; its result, the wall seconds and the speed-corrected seconds.

    Each slice runs after one reference step, and its time is scaled by the
    nominal over the measured step time, which removes most of the host's
    speed drift.  Slicing ``env.run`` is bit-identical to one straight run;
    the digest check shows it on every invocation.
    """
    duration = sim.config.duration
    run_s = corrected = 0.0
    for k in range(1, slices + 1):
        step = reference.seconds()
        start = time.perf_counter()
        if k < slices:
            sim.env.run(until=duration * k / slices)
        else:
            result = finish()
        elapsed = time.perf_counter() - start
        run_s += elapsed
        corrected += elapsed * NOMINAL_REFERENCE_S / step
    return result, run_s, corrected


def timed_parallel_run(sim, reference: SpeedReference):
    """A parallel-backend run; its output, wall and speed-corrected seconds.

    The run is one dispatch to worker processes on both cores, which a
    reference in this process cannot track.  The pool workers fork from
    this process, so a wrapper around ``Simulation.run_shard`` installed
    here runs each shard group (about 1 s of work on ``parallel-tier``) in
    ``SHARD_SLICES`` slices in its worker and sends back its wall and
    corrected seconds; the run's wall time is scaled by the workers'
    corrected-over-wall ratio.
    """
    read_fd, write_fd = os.pipe()
    original = Simulation.run_shard

    def run_shard(shard, *, window=None):
        payloads, run_s, corrected = run_sliced(
            shard, lambda: original(shard, window=window), reference, SHARD_SLICES
        )
        os.write(write_fd, f"{run_s} {corrected}\n".encode())
        return payloads

    Simulation.run_shard = run_shard
    try:
        start = time.perf_counter()
        out = sim.run()
        run_s = time.perf_counter() - start
    finally:
        Simulation.run_shard = original
        os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        shards = [[float(x) for x in line.split()] for line in pipe]
    if not shards:
        raise RuntimeError("the parallel node backend ran no shard in a worker")
    scale = sum(c for _, c in shards) / sum(w for w, _ in shards)
    return out, run_s, run_s * scale


def finish(record: dict, out, config) -> dict:
    """Add the output checks, digest and request count to a run record."""
    record["requests"] = requests_issued(out)
    record["digest"] = digest(out)
    record["violations"] = violations(out, item_size=config.workload.mean_item_size)
    record["peak_rss_mb"] = peak_rss_mb()
    return record


def measure(config, setups: int) -> dict:
    reference = SpeedReference()
    sim, setup_s, setup_ref_s = build(config, setups, reference)
    if config.node_backend == "parallel":
        out, run_s, run_ref_s = timed_parallel_run(sim, reference)
    else:
        out, run_s, run_ref_s = run_sliced(sim, sim.run, reference)
    record = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "run_s": run_s, "run_ref_s": run_ref_s}
    return finish(record, out, config)


def split(config) -> dict:
    """Run to T/4, T/2, 3T/4 with ``env.run`` and finish with ``run()``."""
    sim = Simulation(config)
    quarters = []
    done = 0
    for k in (1, 2, 3, 4):
        start = time.perf_counter()
        if k < 4:
            sim.env.run(until=config.duration * k / 4)
        else:
            out = sim.run()
        elapsed = time.perf_counter() - start
        issued = sum(c.stats.requests for c in sim.clients)
        quarters.append({"s": elapsed, "requests": issued - done})
        done = issued
    run_s = sum(q["s"] for q in quarters)
    return finish({"run_s": run_s, "quarters": quarters}, out, config)


def shards(config) -> dict:
    """Parallel backend with the worker dispatch as the only span."""
    tracer = Tracer()
    sim = Simulation(config)
    tracer.patch(simulation_module, "run_node_shards", "parallel.shards")
    try:
        start = time.perf_counter()
        out = sim.run()
        run_s = time.perf_counter() - start
    finally:
        tracer.restore()
    shards_s = tracer.total_s("parallel.shards")
    record = {
        "run_s": run_s,
        "layers": {"parallel.shards_s": shards_s, "parallel.merge_s": run_s - shards_s},
    }
    return finish(record, out, config)


def trace(config) -> dict:
    """Traced run: per-layer spans, then restore and verify every patch."""
    tracer = Tracer()
    build_state = class_state(BUILD_PATCHES)
    tracer.install_build()
    try:
        sim = Simulation(config)
        setup_workload_s = tracer.total_s("setup.workload")
        tracer.reset_counts()
        run_state = class_state(run_patches(sim))
        tracer.install_run(sim)
        traced_run = tracer.wrap("run", sim.run)
        start = time.perf_counter()
        out = traced_run()
        run_s = time.perf_counter() - start
        balanced = tracer.balanced
    finally:
        tracer.restore()
    problems = []
    if class_state(BUILD_PATCHES) != build_state or class_state(run_patches(sim)) != run_state:
        problems.append("traced class attributes not restored")
    for controller in sim.clients:
        for seam in (controller.plan, controller.on_user_access):
            if not inspect.ismethod(seam) or hasattr(seam, "__wrapped__"):
                problems.append("controller seam not restored")
                break
    if not balanced:
        problems.append("span stack not balanced after the run")
    self_times = [entry[2] for entry in tracer.spans.values()]
    accounted = tracer.self_total_s() / run_s
    if min(self_times) < -1e-9 or not 0.99 <= accounted <= 1.0 + 1e-9:
        problems.append(f"self times do not partition the run: {accounted:.4f}")
    record = finish({"run_s": run_s, "trace_problems": problems}, out, config)
    record["layers"] = layer_metrics(tracer, sim, out, run_s, setup_workload_s)
    record["layers"]["trace.accounted"] = accounted
    return record


def layer_metrics(tracer, sim, out, run_s: float, setup_workload_s: float) -> dict:
    """The per-layer metrics of one traced run (0 where a layer is unused)."""
    m = out.metrics
    completed = sum(s.prefetches_completed for s in out.controller_stats)
    prefetch_hits = sum(s.prefetch_hits for s in out.controller_stats)
    hits = sum(s.hits for s in out.cache_stats)
    misses = sum(s.misses for s in out.cache_stats)
    joins = sum(
        table.stats.joins for node in sim.nodes for table in node.fetch_tables.values()
    )
    t = tracer
    return {
        "des.self_s": t.self_s("des"),
        "des.queue_len_mean": t.sample_mean("des.queue_len"),
        "link.fetch_calls": t.calls("link.fetch"),
        "link.fetch_us": t.mean_us("link.fetch"),
        "link.active_jobs_mean": t.sample_mean("link.active_jobs"),
        "link.active_jobs_max": t.sample_max("link.active_jobs"),
        "link.utilization": m.utilization,
        "predict.calls": t.calls("predict"),
        "predict.us": t.mean_us("predict"),
        "predict.candidates_mean": t.sample_mean("predict.candidates"),
        "plan.calls": t.calls("plan"),
        "plan.us": t.mean_us("plan"),
        "select.us": t.mean_us("select"),
        "plan.selected_mean": t.sample_mean("plan.selected"),
        "prefetch.accuracy": prefetch_hits / completed if completed else 0.0,
        "access.us": t.mean_us("access"),
        "estimator.us": t.mean_us("estimator"),
        "cache.lookup_us": t.mean_us("cache.lookup"),
        "cache.insert_us": t.mean_us("cache.insert"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "metrics.record_us": t.mean_us("metrics.record"),
        "fetchtable.join_ratio": joins / misses if misses else 0.0,
        "ring.lookup_us": t.mean_us("ring.lookup"),
        "coop.probe_hit_ratio": m.remote_hits / m.remote_probes if m.remote_probes else 0.0,
        "workload.draw_us": t.mean_us("workload.draw"),
        "setup.partition_s": setup_workload_s,
        "share.des": t.self_s("des") / run_s,
        "share.link": t.total_s("link.fetch") / run_s,
        "share.plan": t.total_s("plan") / run_s,
        "share.access": t.total_s("access") / run_s,
        "share.node": t.total_s("node.request") / run_s,
        "share.metrics": t.total_s("metrics.record") / run_s,
        "share.workload": t.total_s("workload.draw") / run_s,
        "share.ring": t.total_s("ring.lookup") / run_s,
    }


def run_one(workload: str, seed: int, mode: str, *, setups: int = 5,
            serial_twin: bool = False) -> dict:
    """One run of ``workload`` in ``mode``; a record that never raises."""
    # Traced and split runs of parallel-tier use its serial twin: the spans
    # and the env.run split both need the whole tier in this process.
    serial_twin = serial_twin or mode in ("trace", "split")
    record = {"mode": mode, "workload": workload, "seed": seed}
    try:
        config = workloads.build_config(workload, seed, serial_twin=serial_twin)
        if mode == "measure":
            record.update(measure(config, setups))
        elif mode == "trace":
            record.update(trace(config))
        elif mode == "shards":
            record.update(shards(config))
        else:
            record.update(split(config))
    except Exception:  # a run that raises is a failed run, reported as such
        record["error"] = traceback.format_exc(limit=8)
    return record
