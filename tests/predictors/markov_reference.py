"""Reference Markov predictor: the sort-per-prediction implementation.

This is ``MarkovPredictor`` as it was before each context kept its
successors ranked as they are recorded, kept verbatim in its arithmetic as
the oracle for ``tests/predictors/test_markov_differential.py``.  Every
prediction rebuilds the backed-off context's distribution: the successors in
``str`` order (ties first-seen), then a stable sort on probability.  The
production predictor must reproduce its candidates, their order and every
probability exactly (``==``, not approximately).
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, deque
from itertools import islice
from operator import itemgetter

from repro.predictors.base import Item, Predictor


class ReferenceMarkovPredictor(Predictor):
    """Same public surface as ``MarkovPredictor`` for the oracle's use."""

    name = "markov-reference"

    def __init__(self, order: int = 1, smoothing: float = 0.0) -> None:
        self.order = int(order)
        self.smoothing = float(smoothing)
        self._counts: list[dict[tuple, Counter]] = [dict() for _ in range(order + 1)]
        self._recent: deque[Item] = deque(maxlen=order)
        self._by_label: dict[tuple, list[Item]] = {}

    def record(self, item: Item) -> None:
        history = tuple(self._recent)
        for k in range(0, self.order + 1):
            if len(history) < k:
                break
            ctx = history[len(history) - k :]
            table = self._counts[k].setdefault(ctx, Counter())
            table[item] += 1
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
