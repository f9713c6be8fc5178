"""k-order Markov next-access predictor.

Vitter & Krishnan [13] showed prefetchers built on Markov models are
asymptotically optimal when the request stream *is* Markov.  This predictor
estimates the transition distribution empirically:

    ``P(next = y | last k items = ctx) ≈ count(ctx → y) / count(ctx)``

with graceful *back-off*: when the current k-context has never been seen it
falls back to the (k−1)-context, ..., down to the order-0 popularity
distribution.  Optional Laplace smoothing avoids zero-probability lockout
for rarely-seen successors.

Each context's successors are kept in predict order as they are recorded
(count descending, then ``str(item)``, then first-seen).  Within one context
``p = (count + α) / total`` is monotone in the count, so a prediction needs
no sort and no sum, and :meth:`MarkovPredictor.ranked` can stop reading at a
probability cutoff.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterator

from repro.errors import ParameterError
from repro.predictors.base import Item, Predictor

__all__ = ["MarkovPredictor"]


class _Successors(dict):
    """One context's successor table: ``item -> -count``.

    Counts are stored negated so that ``order`` — the items in predict
    order — is ascending in the stored value, and ``bisect`` can search it
    with the C-level ``__getitem__`` (and ``str``) as key.
    """

    __slots__ = ("order", "total")

    def __init__(self) -> None:
        super().__init__()
        self.order: list[Item] = []
        self.total = 0  # sum of the counts

    def add(self, item: Item) -> None:
        """Count one more ``item``, moving it to its new rank."""
        order = self.order
        negated = self.__getitem__
        self.total += 1
        neg = self.get(item)
        if neg is None:
            # count 1: after every equal label, since it is seen last
            self[item] = -1
            lo = bisect_left(order, -1, key=negated)
            order.insert(bisect_right(order, str(item), lo, key=str), item)
            return
        # the item's count block starts at lo; the count+1 block ends there.
        # Items are matched with ``==``, never ``is``: an equal item may be
        # a different object than the stored key.
        lo = bisect_left(order, neg, key=negated)
        if order[lo] == item:
            if lo == 0 or negated(order[lo - 1]) < neg - 1:
                self[item] = neg - 1  # no item holds count+1: stays in place
                return
            i = lo
        else:  # find it in its (count, label) run
            hi = bisect_right(order, neg, lo, key=negated)
            i = bisect_left(order, str(item), lo, hi, key=str)
            while i < hi and order[i] != item:
                i += 1
            if i == hi:  # equal to its key, labelled differently (1 vs 1.0)
                i = lo + order[lo:hi].index(item)
        key = order.pop(i)  # the stored key object, whose label ranks it
        self[key] = neg - 1
        top = bisect_left(order, neg - 1, 0, lo, key=negated)
        label = str(key)
        j = bisect_left(order, label, top, lo, key=str)
        if j < lo and str(order[j]) == label:
            # equal labels in one count block rank by first-seen
            seen = {y: n for n, y in enumerate(self)}
            while j < lo and str(order[j]) == label and seen[order[j]] < seen[key]:
                j += 1
        order.insert(j, key)


class _Ranked:
    """A live view of one context's successors, most probable first.

    Iterating yields ``(item, p)`` pairs; :meth:`above` returns the prefix
    with ``p > cutoff`` and computes ``p`` for that prefix only.  The view
    follows the predictor: read it before the next ``record``.  ``p`` is
    ``(count + α) / (total + α·n)``; ``α - (-count)`` rounds exactly as
    ``count + α`` does.
    """

    __slots__ = ("table", "alpha")

    def __init__(self, table: _Successors, alpha: float) -> None:
        self.table = table
        self.alpha = alpha

    def __iter__(self) -> Iterator[tuple[Item, float]]:
        table = self.table
        alpha = self.alpha
        total = table.total + alpha * len(table)
        for item in table.order:
            yield item, (alpha - table[item]) / total

    def above(self, cutoff: float) -> list[tuple[Item, float]]:
        """The candidates with ``p > cutoff``, most probable first."""
        # __iter__'s loop, inlined: this runs on every plan
        table = self.table
        alpha = self.alpha
        total = table.total + alpha * len(table)
        chosen = []
        for item in table.order:
            p = (alpha - table[item]) / total
            if not p > cutoff:
                break
            chosen.append((item, p))
        return chosen


_EMPTY = _Successors()


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
        # successor tables per context length: _counts[k][ctx]
        self._counts: list[dict[tuple, _Successors]] = [
            dict() for _ in range(order + 1)
        ]
        self._recent: deque[Item] = deque(maxlen=order)

    # ------------------------------------------------------------------
    def record(self, item: Item) -> None:
        history = tuple(self._recent)
        for k in range(0, self.order + 1):
            if len(history) < k:
                break
            ctx = history[len(history) - k :]
            table = self._counts[k].get(ctx)
            if table is None:
                table = self._counts[k][ctx] = _Successors()
            table.add(item)
        self._recent.append(item)

    def _context(self) -> _Successors:
        """The longest seen context's successor table (back-off)."""
        history = tuple(self._recent)
        for k in range(min(self.order, len(history)), -1, -1):
            ctx = history[len(history) - k :] if k else ()
            table = self._counts[k].get(ctx)
            if table:
                return table
        return _EMPTY

    def ranked(self) -> _Ranked:
        """The backed-off successors, most probable first, ties by
        ``str(item)`` and then first-seen order."""
        return _Ranked(self._context(), self.smoothing)

    def predict(self, limit: int | None = None) -> list[tuple[Item, float]]:
        return list(self.ranked())[:limit]

    def probability(self, item: Item) -> float:
        table = self._context()
        neg = table.get(item)
        if neg is None:
            return 0.0
        alpha = self.smoothing
        return (alpha - neg) / (table.total + alpha * len(table))

    def reset(self) -> None:
        self.__init__(order=self.order, smoothing=self.smoothing)  # type: ignore[misc]
