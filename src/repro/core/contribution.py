"""Contribution of a set-of-rows to column interestingness (paper §3.3).

The contribution is the *intervention* quantity of Definition 3.3::

    C(R, A, Q) = I_A(D_in, q, d_out) - I_A(D_in - R, q, d'_out)

i.e. remove the set-of-rows ``R`` from the input, re-run the same operation,
re-score the interestingness of column ``A``, and take the drop.  A large
positive contribution means the rows in ``R`` are responsible for much of the
column's interestingness.  Contributions can be negative (removing the rows
makes the column *more* interesting); Algorithm 1 drops those candidates.

*How* the reduced scores are obtained is delegated to a pluggable
:class:`~repro.core.backends.base.ContributionBackend`: the default
``"incremental"`` backend derives all interventions of a step from shared
precomputed structure, while the ``"exact"`` backend re-runs the operation
per set-of-rows (the reference semantics).  See :mod:`repro.core.backends`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..operators.step import ExploratoryStep
from ..stats.dispersion import standardize
from .backends.base import DEFAULT_BACKEND, ContributionBackend, make_backend
from .interestingness import InterestingnessMeasure
from .partition import RowPartition, RowSet


class ContributionCalculator:
    """Computes (and caches) contribution scores for one exploratory step.

    The calculator owns the *what* of the contribution phase and caches:

    * the baseline interestingness ``I_A(Q)`` per attribute (computed once),
    * the raw contribution list per (partition, attribute) pair, so that the
      standardized contributions are derived from the cached raw list instead
      of recomputing every intervention.

    The *how* — rerun-per-row-set versus incremental derivation — lives in
    the ``backend`` (a name like ``"exact"``/``"incremental"``, a backend
    class, or an instance).
    """

    def __init__(self, step: ExploratoryStep, measure: InterestingnessMeasure,
                 baseline_scores: Dict[str, float] | None = None,
                 backend: Union[str, ContributionBackend, type] = DEFAULT_BACKEND,
                 backend_options: Optional[Dict[str, object]] = None) -> None:
        self.step = step
        self.measure = measure
        self.backend = make_backend(backend, step, measure, options=backend_options)
        self._baseline: Dict[str, float] = dict(baseline_scores or {})
        # Keyed by (id(partition), attribute); the partition object is kept in
        # the value to pin its id for the cache's lifetime.
        self._raw_cache: Dict[Tuple[int, str], Tuple[RowPartition, List[float]]] = {}

    # --------------------------------------------------------------- baselines
    def baseline(self, attribute: str) -> float:
        """``I_A(Q)`` on the full inputs (cached)."""
        if attribute not in self._baseline:
            self._baseline[attribute] = self.measure.score_step(self.step, attribute)
        return self._baseline[attribute]

    # ------------------------------------------------------------ contribution
    def prefetch(self, grid: Sequence[Tuple[RowPartition, str]]) -> None:
        """Announce the full contribution grid so the backend can parallelise.

        Baselines of every attribute in the grid are computed (and cached)
        up front — serially, before any worker starts — then the backend's
        :meth:`~repro.core.backends.base.ContributionBackend.prefetch` hook
        receives the grid.  A no-op for the serial backends.
        """
        for _, attribute in grid:
            self.baseline(attribute)
        self.backend.prefetch(grid, self._baseline)

    def contribution(self, row_set: RowSet, attribute: str) -> float:
        """``C(R, A, Q)`` for one set-of-rows and one output attribute."""
        return self.backend.contribution(row_set, attribute, self.baseline(attribute))

    def partition_contributions(self, partition: RowPartition, attribute: str) -> List[float]:
        """Raw contributions of every candidate set-of-rows in a partition (cached)."""
        key = (id(partition), attribute)
        cached = self._raw_cache.get(key)
        if cached is None:
            raw = self.backend.partition_contributions(
                partition, attribute, self.baseline(attribute)
            )
            self._raw_cache[key] = (partition, raw)
        else:
            raw = cached[1]
        return list(raw)

    def standardized_contributions(self, partition: RowPartition, attribute: str) -> List[float]:
        """Standardized contributions ``C̄(R, A)`` within the partition (§3.6).

        Each set's raw contribution is z-scored against the contributions of
        the *other* sets of the same partition (mean/std over all candidate
        sets), quantifying how exceptional the set's contribution is among
        its peers.  The raw contributions come from the per-partition cache,
        so asking for both raw and standardized lists costs one intervention
        pass, not two.
        """
        raw = self.partition_contributions(partition, attribute)
        return list(standardize(raw))


def contribution_of(step: ExploratoryStep, row_set: RowSet, attribute: str,
                    measure: InterestingnessMeasure,
                    backend: Union[str, ContributionBackend, type] = DEFAULT_BACKEND) -> float:
    """One-off contribution computation (convenience wrapper without caching)."""
    return ContributionCalculator(step, measure, backend=backend).contribution(row_set, attribute)
