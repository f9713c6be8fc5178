"""k-order Markov next-access predictor.

Vitter & Krishnan [13] showed prefetchers built on Markov models are
asymptotically optimal when the request stream *is* Markov.  This predictor
estimates the transition distribution empirically:

    ``P(next = y | last k items = ctx) ≈ count(ctx → y) / count(ctx)``

with graceful *back-off*: when the current k-context has never been seen it
falls back to the (k−1)-context, ..., down to the order-0 popularity
distribution.  Optional Laplace smoothing avoids zero-probability lockout
for rarely-seen successors.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, deque
from itertools import islice
from operator import itemgetter
from typing import Hashable

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor

__all__ = ["MarkovPredictor"]


class MarkovPredictor(Predictor):
    """Empirical k-order Markov chain with back-off.

    Parameters
    ----------
    order:
        Context length k ≥ 0 (0 = popularity only).
    smoothing:
        Laplace α added to every observed successor count (0 = MLE).

    Examples
    --------
    >>> p = MarkovPredictor(order=1)
    >>> p.warm_up(["a", "b", "a", "b", "a", "c"])
    >>> top = p.predict(limit=1)
    >>> top[0][0]   # after 'c' nothing is known; backs off to popularity
    'a'
    """

    name = "markov"

    def __init__(self, order: int = 1, smoothing: float = 0.0) -> None:
        if order < 0:
            raise ParameterError(f"order must be >= 0, got {order!r}")
        if smoothing < 0:
            raise ParameterError(f"smoothing must be >= 0, got {smoothing!r}")
        self.order = int(order)
        self.smoothing = float(smoothing)
        # transition counts per context length: _counts[k][ctx][successor]
        self._counts: list[dict[tuple, Counter]] = [dict() for _ in range(order + 1)]
        self._recent: deque[Item] = deque(maxlen=order)
        self._popularity: Counter = Counter()
        self._total = 0
        # successors of each predicted context sorted by str(item), ties in
        # first-seen order: predict's tie-break order, kept up to date
        # lazily (tables only ever gain keys, and gain them at the end)
        self._by_label: dict[tuple, list[Item]] = {}

    # ------------------------------------------------------------------
    def record(self, item: Item) -> None:
        history = tuple(self._recent)
        for k in range(0, self.order + 1):
            if len(history) < k:
                break
            ctx = history[len(history) - k :]
            table = self._counts[k].setdefault(ctx, Counter())
            table[item] += 1
        self._popularity[item] += 1
        self._total += 1
        self._recent.append(item)

    def _distribution(self) -> list[tuple[Item, float]]:
        """The backed-off successor distribution, most probable first,
        ties by ``str(item)`` and then first-seen order."""
        history = tuple(self._recent)
        for k in range(min(self.order, len(history)), -1, -1):
            ctx = history[len(history) - k :] if k else ()
            table = self._counts[k].get(ctx)
            if table:
                alpha = self.smoothing
                total = sum(table.values()) + alpha * len(table)
                dist = [
                    (item, (table[item] + alpha) / total)
                    for item in self._labelled(k, ctx, table)
                ]
                # stable, so equal probabilities keep the label order
                dist.sort(key=itemgetter(1), reverse=True)
                return dist
        return []

    def _labelled(self, k: int, ctx: tuple, table: Counter) -> list[Item]:
        """``table``'s keys sorted by ``str``, ties in insertion order."""
        ranked = self._by_label.setdefault((k, ctx), [])
        if len(ranked) < len(table):
            for item in islice(table, len(ranked), None):
                insort(ranked, item, key=str)
        return ranked

    def predict(self, limit: int | None = None) -> list[tuple[Item, float]]:
        dist = self._distribution()
        return dist[:limit] if limit is not None else dist

    def reset(self) -> None:
        self.__init__(order=self.order, smoothing=self.smoothing)  # type: ignore[misc]

    # ------------------------------------------------------------------
    @property
    def contexts_seen(self) -> int:
        """Number of distinct max-order contexts observed (diagnostics)."""
        return len(self._counts[self.order]) if self.order else 1
