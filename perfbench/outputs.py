"""Correctness of one run's simulated outputs: conservation checks and a digest.

The benchmark gates host cost, never simulated quantities.  Simulated
outputs are instead *checked*: :func:`violations` lists broken conservation
laws, and :func:`digest` fingerprints every simulated output so that runs
of the same code and seed can be compared bit for bit (across repeated
runs, traced against untraced, a run split into quarters against one
straight run, and the parallel node backend against its serial twin).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

#: relative slack for float sums compared across different summation orders
_REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=1e-9)


def digest(out) -> str:
    """Hex fingerprint of a ``SimulationOutput``'s simulated results.

    Covers the post-warmup metrics, every per-proxy shard, the per-entity
    controller and cache counters, per-class rows and the KPI scorecard.
    ``QuantileSketch`` has no value equality, so the KPIs enter through their
    p50/p95/p99 and ratios.  Floats enter through ``repr``, which round-trips
    exactly, so equal digests mean bit-identical outputs.
    """
    kpis = out.kpis
    parts = [
        dataclasses.astuple(out.metrics),
        tuple(dataclasses.astuple(s) for s in out.per_proxy),
        tuple(dataclasses.astuple(s) for s in out.controller_stats),
        tuple(dataclasses.astuple(s) for s in out.cache_stats),
        tuple(dataclasses.astuple(row) for row in out.client_classes),
        (
            out.link_demand_fetches,
            out.link_prefetch_fetches,
            out.link_demand_bytes,
            out.link_prefetch_bytes,
            out.peer_fetches,
            out.peer_bytes,
        ),
        (
            kpis.access_p50,
            kpis.access_p95,
            kpis.access_p99,
            kpis.requests,
            kpis.hits,
            kpis.request_bytes,
            kpis.hit_bytes,
            kpis.shard_busy,
            kpis.shard_elapsed,
        ),
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def requests_issued(out) -> int:
    """Simulated requests the run handled (lifetime, all entities)."""
    return sum(s.requests for s in out.controller_stats)


def violations(out, *, item_size: float) -> list[str]:
    """Broken conservation laws of one run; empty when the run is sound.

    ``item_size`` is the workload's fixed item size, so link bytes must
    equal fetch counts times it for every fetch kind.
    """
    bad: list[str] = []
    m = out.metrics
    if m.requests <= 0:
        bad.append("no post-warmup requests")
    if not 0 <= m.hits <= m.requests:
        bad.append(f"hits {m.hits} outside [0, requests {m.requests}]")
    if not math.isfinite(m.mean_access_time) or m.mean_access_time < 0:
        bad.append(f"mean access time {m.mean_access_time!r} not finite")
    # Requests: every access is exactly one cache hit or miss, per entity
    # (client or class) and per class row.
    for i, (cache, ctl) in enumerate(zip(out.cache_stats, out.controller_stats)):
        if cache.hits + cache.misses != ctl.requests:
            bad.append(
                f"entity {i}: hits {cache.hits} + misses {cache.misses} "
                f"!= requests {ctl.requests}"
            )
    for row in out.client_classes:
        if row.cache_hits + row.cache_misses != row.requests:
            bad.append(f"class {row.class_id}: hits + misses != requests")
    # Shards partition the tier: per-shard requests/hits sum to the totals.
    if out.per_proxy:
        if sum(s.metrics.requests for s in out.per_proxy) != m.requests:
            bad.append("shard requests do not sum to the tier total")
        if sum(s.metrics.hits for s in out.per_proxy) != m.hits:
            bad.append("shard hits do not sum to the tier total")
        for s in out.per_proxy:
            if not 0 <= s.metrics.hits <= s.metrics.requests:
                bad.append(f"shard {s.node_id}: hits outside [0, requests]")
    # Link bytes: demand + prefetch + peer, per shard and in total, and
    # each kind is its fetch count times the (fixed) item size.
    totals = (
        ("demand", out.link_demand_fetches, out.link_demand_bytes, "link_demand"),
        ("prefetch", out.link_prefetch_fetches, out.link_prefetch_bytes, "link_prefetch"),
        ("peer", out.peer_fetches, out.peer_bytes, "peer"),
    )
    for kind, fetches, nbytes, field in totals:
        if not _close(nbytes, fetches * item_size):
            bad.append(f"{kind} bytes {nbytes!r} != {fetches} fetches x {item_size}")
        if out.per_proxy:
            shard_bytes = sum(getattr(s, f"{field}_bytes") for s in out.per_proxy)
            if not _close(shard_bytes, nbytes):
                bad.append(f"{kind} bytes: shards sum {shard_bytes!r} != total {nbytes!r}")
    kpis = out.kpis
    link_bytes = out.link_demand_bytes + out.link_prefetch_bytes + out.peer_bytes
    if not _close(kpis.demand_bytes + kpis.prefetch_bytes + kpis.peer_bytes, link_bytes):
        bad.append("KPI link bytes != demand + prefetch + peer")
    # Prefetch accounting: completed <= fetched <= issued.
    issued = sum(s.prefetches_issued for s in out.controller_stats)
    completed = sum(s.prefetches_completed for s in out.controller_stats)
    if not completed <= out.link_prefetch_fetches <= issued:
        bad.append(
            f"prefetches completed {completed} <= fetched "
            f"{out.link_prefetch_fetches} <= issued {issued} fails"
        )
    # Utilisation: a processor-sharing link is never more than busy.
    rhos = [m.utilization, *kpis.per_shard_utilization]
    if not all(math.isfinite(r) and 0.0 <= r <= 1.0 + 1e-9 for r in rhos):
        bad.append(f"utilisation outside [0, 1]: {rhos}")
    quantiles = (kpis.access_p50, kpis.access_p95, kpis.access_p99)
    if not all(math.isfinite(q) for q in quantiles) or list(quantiles) != sorted(quantiles):
        bad.append(f"access-time quantiles not finite and ordered: {quantiles}")
    return bad
