"""Per-layer spans recorded from outside the program.

A :class:`Tracer` wraps public entry points of each layer.  Every wrapped
call is a span: it counts the call, its duration and its *self time*
(duration minus the time covered by spans it caused).  Spans nest through a
stack, so self times partition the traced run's wall time: the self time of
the ``des`` span (``Environment.run``) is everything no wrapped call covers
-- the event kernel, the request-path generators and the PS link's private
completion timer.

Class attributes are patched in place and restored by :meth:`Tracer.restore`;
``PrefetchController.plan`` and ``on_user_access`` are the controller's
documented per-instance seams and are reset the same way.
"""

from __future__ import annotations

import time

import workloads  # noqa: F401  (puts the repository's src/ on sys.path)
from repro.des.environment import Environment
from repro.estimation.utilization import ThresholdEstimator
from repro.network.link import SharedLink
from repro.network.server import OriginServer
from repro.network.topology import HashRing
from repro.prefetch.controller import PrefetchController
from repro.sim import simulation as simulation_module
from repro.sim.metrics import MetricsCollector
from repro.sim.node import FetchTable
from repro.workload.aggregate import AggregateClassSource
from repro.workload.arrivals import PoissonArrivals
from repro.workload.markov_source import MarkovChainSource
from repro.workload.sessions import WorkloadSpec

_ABSENT = object()

#: (owner, attribute, span) patched before ``Simulation(config)``: the build
#: captures some of them (the ring lookup is bound once per simulation).
BUILD_PATCHES = (
    (Environment, "run", "des"),
    (SharedLink, "fetch", "link.fetch"),
    (HashRing, "node_of", "ring.lookup"),
    (OriginServer, "size_of", "node.request"),
    (FetchTable, "register", "node.request"),
    (FetchTable, "join", "node.request"),
    (FetchTable, "complete", "node.request"),
    (PrefetchController, "on_fetch_complete", "node.request"),
    (MetricsCollector, "record_request", "metrics.record"),
    (MetricsCollector, "record_retrieval", "metrics.record"),
    (MetricsCollector, "record_prefetch_issued", "metrics.record"),
    (MetricsCollector, "record_remote_probe", "metrics.record"),
    (PoissonArrivals, "next_gap", "workload.draw"),
    (PoissonArrivals, "gaps", "workload.draw"),
    (MarkovChainSource, "generate", "workload.draw"),
    (AggregateClassSource, "generate", "workload.draw"),
    (ThresholdEstimator, "observe_request", "estimator"),
    (ThresholdEstimator, "observe_item_size", "estimator"),
    (ThresholdEstimator, "threshold", "estimator"),
    (simulation_module, "partition_client_classes", "setup.workload"),
    (WorkloadSpec, "make_source", "setup.workload"),
    (WorkloadSpec, "make_phase_sources", "setup.workload"),
    (WorkloadSpec, "make_arrivals", "setup.workload"),
    (WorkloadSpec, "make_phase_arrivals", "setup.workload"),
)


def run_patches(sim) -> list[tuple]:
    """(owner, attribute, span) patched on a built ``sim``: the classes of
    its controllers' predictor, policy and cache."""
    patches = []
    for controller in sim.clients:
        patches += [
            (type(controller.predictor), "predict", "predict"),
            (type(controller.policy), "select", "select"),
            (type(controller.cache), "lookup", "cache.lookup"),
            (type(controller.cache), "insert", "cache.insert"),
        ]
    return patches


def class_state(patches) -> list:
    """The patched attributes as the owners define them (restoration check)."""
    return [vars(owner).get(attr, _ABSENT) for owner, attr, _ in patches]


class Tracer:
    """Records spans around wrapped callables; restores everything it patched."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: sample name -> [count, sum, max]
        self.samples: dict[str, list] = {}
        self._stack: list[float] = []
        self._patches: list[tuple] = []
        self._seams: list = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``; ``observe(args, result)`` runs
        after the span closes (for counts such as candidates per call)."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def sample(self, name: str, value: float) -> None:
        entry = self.samples.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += value
        if value > entry[2]:
            entry[2] = value

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (once per owner/attr)."""
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(name, original, observe))

    # ------------------------------------------------------------------
    def install_build(self) -> None:
        """Patch the layer entry points a ``Simulation`` binds while building."""
        for owner, attr, name in BUILD_PATCHES:
            observe = self._observe_fetch if attr == "fetch" else None
            self.patch(owner, attr, name, observe)

    def install_run(self, sim) -> None:
        """Patch the live controllers of a built ``Simulation``: their
        predictor, policy and cache classes and the two controller seams."""
        env = sim.env
        sample = self.sample

        def observe_plan(args, chosen):
            sample("plan.selected", len(chosen))
            sample("des.queue_len", len(env))

        def observe_predict(args, candidates):
            sample("predict.candidates", len(candidates))

        observers = {"predict": observe_predict}
        for owner, attr, name in run_patches(sim):
            self.patch(owner, attr, name, observers.get(name))
        for controller in sim.clients:
            controller.plan = self.wrap("plan", controller.plan, observe_plan)
            controller.on_user_access = self.wrap("access", controller.on_user_access)
            self._seams.append(controller)

    def _observe_fetch(self, args, _event) -> None:
        self.sample("link.active_jobs", args[0].server.num_active)

    def restore(self) -> None:
        """Undo every patch and reset the controller seams to their defaults."""
        for owner, attr, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        for controller in self._seams:
            controller.plan = None
            controller.on_user_access = None
        self._seams.clear()

    def reset_counts(self) -> None:
        """Zero every span and sample (the wrappers stay installed)."""
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        self.samples.clear()

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def mean_us(self, name: str) -> float:
        calls, total, _ = self.spans.get(name, [0, 0.0, 0.0])
        return total / calls * 1e6 if calls else 0.0

    def sample_mean(self, name: str) -> float:
        count, total, _ = self.samples.get(name, [0, 0.0, 0.0])
        return total / count if count else 0.0

    def sample_max(self, name: str) -> float:
        return self.samples.get(name, [0, 0.0, 0.0])[2]

    @property
    def balanced(self) -> bool:
        """True when every opened span was closed."""
        return not self._stack

    def self_total_s(self) -> float:
        """Sum of every span's self time (partitions the outermost spans)."""
        return sum(entry[2] for entry in self.spans.values())
