"""Prefetch policy interface.

A policy answers one question after every user request: *given candidate
items with predicted probabilities, which should be prefetched now?*  The
paper's answer is the threshold rule; the ablation experiment compares it
with the heuristics the introduction criticises ("prefetch an item if the
probability of its access is larger than a fixed threshold") and with
upper/lower bounds.

Policies see a :class:`PolicyContext` — the measurable system state — and
must not reach into the simulation directly: this keeps them usable both
inside the DES and in offline trace analysis.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Hashable, Iterable

__all__ = ["PrefetchPolicy", "PolicyContext"]

Candidate = tuple[Hashable, float]


@dataclass
class PolicyContext:
    """Snapshot of system state available to a prefetch decision.

    Attributes
    ----------
    now:
        Current time.
    bandwidth:
        Configured link capacity ``b``.
    estimated_utilization:
        Live ``ρ̂`` including prefetch traffic (NaN if unknown, and NaN
        unless the policy sets :attr:`PrefetchPolicy.reads_utilization`).
    in_cache:
        Membership test for the client's cache (don't prefetch a hit).
    in_flight:
        Membership test for outstanding fetches (don't fetch twice).
    """

    now: float
    bandwidth: float
    estimated_utilization: float = float("nan")
    in_cache: "CallableMembership" = field(default_factory=lambda: _Never())
    in_flight: "CallableMembership" = field(default_factory=lambda: _Never())

    def eligible(self, candidates: Iterable[Candidate]) -> list[Candidate]:
        """Filter out cached and in-flight items (applies to every policy)."""
        return [
            (item, p)
            for item, p in candidates
            if item not in self.in_cache and item not in self.in_flight
        ]

    def eligible_above(
        self, candidates: Iterable[Candidate], cutoff: float
    ) -> list[Candidate]:
        """Eligible candidates with ``p > cutoff``, most probable first
        (ties keep candidate order).

        The cutoff is tested before membership, so the cache and the
        pending-fetch view are probed only for items that clear it.  A
        ranked view (see :meth:`repro.predictors.base.Predictor.ranked`)
        is read through its ``above(cutoff)``, which stops at the first
        candidate at or below the cutoff; any other iterable is filtered
        whole and sorted.
        """
        in_cache = self.in_cache
        in_flight = self.in_flight
        above = getattr(candidates, "above", None)
        if above is not None:
            return [
                (item, p)
                for item, p in above(cutoff)
                if item not in in_cache and item not in in_flight
            ]
        chosen = [
            (item, p)
            for item, p in candidates
            if p > cutoff and item not in in_cache and item not in in_flight
        ]
        chosen.sort(key=itemgetter(1), reverse=True)
        return chosen


class _Never:
    """Default membership: nothing is cached/in-flight."""

    def __contains__(self, item: object) -> bool:
        return False


class CallableMembership:  # pragma: no cover - typing helper
    def __contains__(self, item: object) -> bool: ...


class PrefetchPolicy(ABC):
    """Strategy deciding the per-request prefetch set."""

    #: machine name used in experiment tables
    name = "abstract"
    #: whether :meth:`select` reads ``context.estimated_utilization``; the
    #: load estimate is computed for a plan only when this is set
    reads_utilization = False

    @abstractmethod
    def select(
        self,
        candidates: Iterable[Candidate],
        context: PolicyContext,
    ) -> list[Candidate]:
        """Choose the items to prefetch *now*.

        ``candidates`` is the predictor's ranked ``(item, probability)``
        candidates, descending (a list, or a ranked view; iterate it, do
        not index it).  Implementations should start from
        ``context.eligible(candidates)``, or from
        ``context.eligible_above(candidates, cutoff)`` for a cutoff rule.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
