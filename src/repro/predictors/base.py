"""Access-model interface (paper §1.1's "access models").

The paper assumes an access model exists that assigns each candidate item a
probability of being requested next; its contribution is what to *do* with
those probabilities (the threshold rule).  This package supplies the models
the related-work section surveys so the full simulation is self-contained:

* :class:`repro.predictors.markov.MarkovPredictor` — k-order Markov
  (Vitter & Krishnan's optimality setting),
* :class:`repro.predictors.ppm.PPMPredictor` — prediction by partial
  matching (data-compression style, Vitter & Krishnan [13]),
* :class:`repro.predictors.dependency_graph.DependencyGraphPredictor` —
  Padmanabhan & Mogul's server-side dependency graph [7],
* :class:`repro.predictors.frequency.FrequencyPredictor` — popularity
  baseline,
* :class:`repro.predictors.oracle.OraclePredictor` — informed prefetching
  upper bound (TIP/ACFS stand-in [8, 2]).

All predictors are *online*: ``record(item)`` observes one access,
``predict()`` returns ``(item, probability)`` candidates for the next one,
and ``ranked()`` returns the same candidates for planning (see
:meth:`Predictor.ranked`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Sequence

__all__ = ["Predictor"]

Item = Hashable


class Predictor(ABC):
    """Online next-access model."""

    #: machine name for configuration files and experiment tables
    name = "abstract"

    @abstractmethod
    def record(self, item: Item) -> None:
        """Observe one access (updates the model's internal state)."""

    @abstractmethod
    def predict(self, limit: int | None = None) -> list[tuple[Item, float]]:
        """Candidates for the *next* access, as ``(item, probability)``.

        Probabilities are with respect to the next request (they sum to at
        most 1 over all candidates); sorted descending.  ``limit`` truncates
        after sorting.
        """

    def ranked(self) -> Iterable[tuple[Item, float]]:
        """The :meth:`predict` candidates, most probable first, for planning.

        A predictor that keeps its candidates ranked may return a view
        instead of a list: iterating it yields ``(item, p)`` in
        :meth:`predict` order, and its ``above(cutoff)`` returns the prefix
        with ``p > cutoff`` without reading the rest.  The default is
        ``predict()``'s list.
        """
        return self.predict()

    def probability(self, item: Item) -> float:
        """Point query for one item's next-access probability."""
        for candidate, prob in self.predict():
            if candidate == item:
                return prob
        return 0.0

    def warm_up(self, history: Sequence[Item]) -> None:
        """Feed a historical access sequence through :meth:`record`."""
        for item in history:
            self.record(item)

    def reset(self) -> None:
        """Forget everything (default: rebuild via __init__ state is up to
        subclasses; base implementation raises to avoid silent no-ops)."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")
