"""KPI scorecard layer: one comparable scorecard per simulation run.

The paper's tables report *means* (access time, retrieval time, ρ);
operational cache comparisons also need tails and byte-weighted figures —
a policy can win the mean while losing p99, and a byte-hit ratio diverges
from the request-hit ratio as soon as sizes vary.  This module computes,
per run:

* **p50/p95/p99 access time** via a streaming, deterministically-mergeable
  log-binned quantile sketch fed from each
  :class:`~repro.sim.metrics.MetricsCollector` shard,
* **byte-hit ratio** (bytes served from cache / bytes requested),
* **per-shard utilization** (each proxy uplink's busy fraction),
* **peer-traffic share** (cooperative transfers' byte share).

Exactness discipline: a :class:`RunKPIs` stores *raw sums* (counts,
bytes, per-shard busy/elapsed), never pre-divided ratios, so aggregation
across shards and replications is ratio-of-sums exact —
``aggregate_kpis(parts)`` equals the scorecard a single merged collector
would have produced (pinned by tests).  The sketch merge is a binwise
count addition, likewise exact: quantiles of merged sketches are the
quantiles of the concatenated observations at the sketch's resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, floor, inf, log10
from typing import Sequence

from repro.sim.faults import FaultSegment, FaultTimelineRow, segments_from_rows

__all__ = [
    "QuantileSketch",
    "KPIShard",
    "RunKPIs",
    "FaultSegment",
    "FaultTimelineRow",
    "aggregate_kpis",
]

#: log-bin resolution: bins per decade.  32/decade bounds the relative
#: quantile error at ``10**(1/32) − 1`` ≈ 7.5% — far below the sampling
#: noise of any simulated tail — while a full run's sketch stays a few
#: hundred sparse bins.
BINS_PER_DECADE = 32

#: bin-index clamp: values outside [1e-12, 1e12] land in the edge bins
#: (simulated access times are seconds-scale; the clamp only guards
#: degenerate inputs, it never fires in practice).
_MIN_BIN = -12 * BINS_PER_DECADE
_MAX_BIN = 12 * BINS_PER_DECADE


class QuantileSketch:
    """Streaming log-binned quantile estimator with exact merges.

    Non-positive observations (cache hits: access time 0.0) get an exact
    dedicated bucket — the p50 of a majority-hits run is exactly 0.0, not
    a tiny binned value.  Positive observations land in logarithmic bins
    (``BINS_PER_DECADE`` per decade); a quantile query walks the bins
    nearest-rank style and answers with the bin's geometric midpoint,
    clamped to the observed min/max so no answer lies outside the data.

    Determinism: the state is pure counts, so feeding the same
    observations in any order — or merging partial sketches in any
    grouping — yields identical state bit-for-bit.
    """

    __slots__ = ("zeros", "bins", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.zeros = 0
        self.bins: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = inf
        self.max = -inf

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zeros += 1
            return
        idx = floor(log10(value) * BINS_PER_DECADE)
        if idx < _MIN_BIN:
            idx = _MIN_BIN
        elif idx > _MAX_BIN:
            idx = _MAX_BIN
        self.bins[idx] = self.bins.get(idx, 0) + 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Exact combined sketch (binwise count addition; inputs untouched)."""
        merged = QuantileSketch()
        merged.zeros = self.zeros + other.zeros
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        merged.bins = dict(self.bins)
        for idx, n in other.bins.items():
            merged.bins[idx] = merged.bins.get(idx, 0) + n
        return merged

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (``0 < q <= 1``); NaN when empty."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile order must be in (0, 1], got {q!r}")
        if self.count == 0:
            return float("nan")
        rank = max(1, ceil(q * self.count))
        if rank <= self.zeros:
            return 0.0
        seen = self.zeros
        for idx in sorted(self.bins):
            seen += self.bins[idx]
            if seen >= rank:
                # Geometric bin midpoint, clamped into the observed range.
                mid = 10.0 ** ((idx + 0.5) / BINS_PER_DECADE)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - float-guard fallthrough

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QuantileSketch n={self.count} zeros={self.zeros} "
            f"bins={len(self.bins)}>"
        )


@dataclass(frozen=True)
class KPIShard:
    """One proxy's raw KPI feed: sketch + counts + its uplink's busy time."""

    node_id: int
    sketch: QuantileSketch
    requests: int
    hits: int
    request_bytes: float
    hit_bytes: float
    busy: float
    elapsed: float

    @property
    def utilization(self) -> float:
        return self.busy / self.elapsed if self.elapsed > 0 else float("nan")


@dataclass(frozen=True)
class RunKPIs:
    """The scorecard of one run (or an exact aggregate of several).

    All stored fields are raw sums; every headline figure is a derived
    property, so aggregation can never double-divide.  ``shard_busy`` /
    ``shard_elapsed`` keep per-shard resolution (index = node id);
    replication aggregation sums them elementwise, making the per-shard
    utilizations time-averages over the pooled replications.
    """

    sketch: QuantileSketch
    requests: int
    hits: int
    request_bytes: float
    hit_bytes: float
    demand_bytes: float
    prefetch_bytes: float
    peer_bytes: float
    shard_busy: tuple[float, ...]
    shard_elapsed: tuple[float, ...]
    #: how many runs were pooled into this scorecard (1 = a single run)
    runs: int = 1
    #: fault-injection timeline (cumulative counter rows, one per fault
    #: event plus the end-of-run row); empty for fault-free runs
    fault_timeline: tuple[FaultTimelineRow, ...] = ()

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[KPIShard],
        *,
        demand_bytes: float,
        prefetch_bytes: float,
        peer_bytes: float,
        fault_timeline: tuple[FaultTimelineRow, ...] = (),
    ) -> "RunKPIs":
        """Assemble one run's scorecard from its per-proxy shards."""
        if not shards:
            raise ValueError("RunKPIs.from_shards() needs at least one shard")
        sketch = shards[0].sketch
        for shard in shards[1:]:
            sketch = sketch.merge(shard.sketch)
        return cls(
            sketch=sketch,
            requests=sum(s.requests for s in shards),
            hits=sum(s.hits for s in shards),
            request_bytes=sum(s.request_bytes for s in shards),
            hit_bytes=sum(s.hit_bytes for s in shards),
            demand_bytes=float(demand_bytes),
            prefetch_bytes=float(prefetch_bytes),
            peer_bytes=float(peer_bytes),
            shard_busy=tuple(s.busy for s in shards),
            shard_elapsed=tuple(s.elapsed for s in shards),
            fault_timeline=tuple(fault_timeline),
        )

    # -- headline figures ----------------------------------------------
    @property
    def access_p50(self) -> float:
        return self.sketch.quantile(0.50)

    @property
    def access_p95(self) -> float:
        return self.sketch.quantile(0.95)

    @property
    def access_p99(self) -> float:
        return self.sketch.quantile(0.99)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")

    @property
    def byte_hit_ratio(self) -> float:
        """Bytes served straight from cache over bytes requested."""
        if self.request_bytes <= 0:
            return float("nan")
        return self.hit_bytes / self.request_bytes

    @property
    def per_shard_utilization(self) -> tuple[float, ...]:
        """Busy fraction per proxy uplink, node-id order."""
        return tuple(
            busy / elapsed if elapsed > 0 else float("nan")
            for busy, elapsed in zip(self.shard_busy, self.shard_elapsed)
        )

    @property
    def peer_traffic_share(self) -> float:
        """Cooperative peer transfers' share of all transferred bytes."""
        total = self.demand_bytes + self.prefetch_bytes + self.peer_bytes
        return self.peer_bytes / total if total > 0 else 0.0

    def fault_segments(self) -> tuple[FaultSegment, ...]:
        """Per-segment KPI deltas between consecutive fault instants.

        The first segment runs from t=0 to the first fault; each further
        segment is opened by the event that starts it ("end" closes the
        run).  Deltas of cumulative counters are exact, so segment hit
        ratios and mean access times are ratio-of-sums over exactly the
        requests *measured* (post-warmup) inside the segment.  Empty for
        fault-free runs.
        """
        return segments_from_rows(self.fault_timeline)

    def scorecard_rows(self) -> list[tuple[str, str]]:
        """Rendered (label, value) rows for reports and the CLI."""
        utils = ", ".join(f"{u:.3f}" for u in self.per_shard_utilization)
        return [
            ("requests", f"{self.requests}"),
            ("hit ratio", f"{self.hit_ratio:.4f}"),
            ("byte-hit ratio", f"{self.byte_hit_ratio:.4f}"),
            ("access time p50", f"{self.access_p50:.5f}"),
            ("access time p95", f"{self.access_p95:.5f}"),
            ("access time p99", f"{self.access_p99:.5f}"),
            ("per-shard utilization", utils),
            ("peer traffic share", f"{self.peer_traffic_share:.4f}"),
            ("pooled runs", f"{self.runs}"),
        ]


def aggregate_kpis(parts: Sequence[RunKPIs]) -> RunKPIs:
    """Exact pooled scorecard over replications (ratio-of-sums).

    Every part must have the same shard count (same topology); busy and
    elapsed pool elementwise, so per-shard utilization becomes the
    time-averaged busy fraction across replications.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("aggregate_kpis() needs at least one RunKPIs")
    shard_count = len(parts[0].shard_busy)
    if any(len(p.shard_busy) != shard_count for p in parts):
        raise ValueError("aggregate_kpis() parts disagree on shard count")
    sketch = parts[0].sketch
    for p in parts[1:]:
        sketch = sketch.merge(p.sketch)
    # Fault timelines pool by counter addition at matching rows: every
    # part of a replication set ran the same schedule, so the (time,
    # kind, node) skeletons must agree — anything else is a caller bug.
    skeleton = tuple(
        (row.time, row.kind, row.node) for row in parts[0].fault_timeline
    )
    for p in parts[1:]:
        if tuple(
            (row.time, row.kind, row.node) for row in p.fault_timeline
        ) != skeleton:
            raise ValueError(
                "aggregate_kpis() parts disagree on the fault timeline "
                "(pooling requires identical fault schedules)"
            )
    fault_timeline = tuple(
        replace(
            parts[0].fault_timeline[i],
            requests=sum(p.fault_timeline[i].requests for p in parts),
            hits=sum(p.fault_timeline[i].hits for p in parts),
            access_total=sum(p.fault_timeline[i].access_total for p in parts),
            migrated_items=sum(
                p.fault_timeline[i].migrated_items for p in parts
            ),
            migrated_bytes=sum(
                p.fault_timeline[i].migrated_bytes for p in parts
            ),
            origin_bytes=sum(
                p.fault_timeline[i].origin_bytes for p in parts
            ),
        )
        for i in range(len(skeleton))
    )
    return RunKPIs(
        sketch=sketch,
        requests=sum(p.requests for p in parts),
        hits=sum(p.hits for p in parts),
        request_bytes=sum(p.request_bytes for p in parts),
        hit_bytes=sum(p.hit_bytes for p in parts),
        demand_bytes=sum(p.demand_bytes for p in parts),
        prefetch_bytes=sum(p.prefetch_bytes for p in parts),
        peer_bytes=sum(p.peer_bytes for p in parts),
        shard_busy=tuple(
            sum(p.shard_busy[i] for p in parts) for i in range(shard_count)
        ),
        shard_elapsed=tuple(
            sum(p.shard_elapsed[i] for p in parts) for i in range(shard_count)
        ),
        runs=sum(p.runs for p in parts),
        fault_timeline=fault_timeline,
    )
