"""The intervention-execution backend protocol.

FEDEX's contribution phase (Definition 3.3) asks one question over and over:
*what would the interestingness of column ``A`` be if the set-of-rows ``R``
were removed from the input?*  A :class:`ContributionBackend` answers that
question — it separates **what** the contribution phase computes (the reduced
interestingness score ``I_A(D_in − R, q, d'_out)``) from **how** it is
computed:

* :class:`~repro.core.backends.exact.ExactRerunBackend` removes the rows,
  re-runs the operation, and re-scores — the literal reading of the paper,
  kept as the reference oracle;
* :class:`~repro.core.backends.incremental.IncrementalBackend` exploits the
  operation's structure (per-group partial aggregates, row-provenance
  slicing, shared argsorts, batched KS) to derive every intervention of a
  partition without re-running anything;
* :class:`~repro.core.backends.process.ProcessBackend` shards the
  partition × attribute grid across a *process* pool, delegating each shard
  to an embedded incremental backend and shipping inputs as mmap frame
  descriptors instead of pickled data.

Backends are stateful per step: they are constructed once per
``(step, measure)`` pair and may precompute and cache whatever sharable
structure they like across row sets, attributes, and partitions.
"""

from __future__ import annotations

import inspect
import math
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from ...errors import ExplanationError
from ...operators.step import ExploratoryStep
from ..interestingness import InterestingnessMeasure
from ..partition import RowPartition, RowSet


#: Backend used when the caller does not pick one explicitly.
DEFAULT_BACKEND = "incremental"

#: Batches per worker targeted by automatic shard batching: enough slack for
#: the pool to load-balance uneven shards, few enough that submit/result
#: round-trips stop dominating wide grids of small partitions.
DEFAULT_OVERSUBSCRIPTION = 4


def resolve_shard_batch(shard_batch: Optional[int], grid_size: int,
                        workers: int,
                        oversubscription: int = DEFAULT_OVERSUBSCRIPTION) -> int:
    """The effective shard-batch size for one contribution grid.

    An explicit ``shard_batch`` (``FedexConfig.shard_batch``) wins; ``None``
    falls back to the automatic policy
    ``ceil(grid_size / (workers × oversubscription))`` — every worker gets
    roughly ``oversubscription`` batches, so one pickle/submit/result round
    carries many (partition, attribute) pairs without starving the pool of
    load-balancing slack.  Always at least 1.
    """
    if shard_batch is not None:
        return max(1, int(shard_batch))
    if grid_size <= 0:
        return 1
    return max(1, math.ceil(grid_size / max(workers * oversubscription, 1)))


def iter_shard_batches(grid: Sequence[Tuple[RowPartition, str]],
                       batch_size: int) -> Iterator[Sequence[Tuple[RowPartition, str]]]:
    """Consecutive ``batch_size``-sized slices of the grid, in grid order.

    Order is load-bearing for determinism bookkeeping: the process backend
    keys results by (partition identity, attribute), and slicing — rather
    than striding — keeps each batch's pairs adjacent, so a failed batch
    retried serially walks the pairs in exactly the order the engine will
    request them.
    """
    for start in range(0, len(grid), batch_size):
        yield grid[start:start + batch_size]


class ContributionBackend(ABC):
    """Computes reduced interestingness scores for row-set interventions.

    Subclasses implement :meth:`reduced_score`; the contribution itself is
    always ``baseline − reduced_score`` (Definition 3.3), with the baseline
    owned and cached by the calling
    :class:`~repro.core.contribution.ContributionCalculator`.
    """

    #: Registry name of the backend (the value of ``FedexConfig.backend``).
    name: str = "backend"

    def __init__(self, step: ExploratoryStep, measure: InterestingnessMeasure) -> None:
        self.step = step
        self.measure = measure

    @abstractmethod
    def reduced_score(self, row_set: RowSet, attribute: str) -> float:
        """``I_A(D_in − R, q, d'_out)`` — interestingness after removing ``row_set``."""

    def contribution(self, row_set: RowSet, attribute: str, baseline: float) -> float:
        """``C(R, A, Q) = I_A(Q) − I_A(D_in − R, q, d'_out)`` for one set-of-rows."""
        return baseline - self.reduced_score(row_set, attribute)

    def partition_contributions(self, partition: RowPartition, attribute: str,
                                baseline: float) -> List[float]:
        """Raw contributions of every candidate set-of-rows of a partition.

        The default walks the sets one by one; backends that can batch a whole
        partition (sharing precomputed structure between its sets) override
        this.
        """
        return [self.contribution(row_set, attribute, baseline) for row_set in partition.sets]

    def prefetch(self, grid: Sequence[Tuple[RowPartition, str]],
                 baselines: Dict[str, float]) -> None:
        """Announce the full partition × attribute grid of the contribution phase.

        The engine calls this once, before asking for any
        :meth:`partition_contributions`, with every ``(partition, attribute)``
        pair it is about to request and the per-attribute baselines.  The
        default is a no-op; the process backend overrides it to start
        computing the whole grid concurrently so the subsequent per-pair
        calls become waits on already-running work.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.step.operation.describe()})"


def available_backends() -> Dict[str, Type[ContributionBackend]]:
    """Mapping from backend name to backend class."""
    from .exact import ExactRerunBackend
    from .incremental import IncrementalBackend
    from .process import ProcessBackend

    return {
        ExactRerunBackend.name: ExactRerunBackend,
        IncrementalBackend.name: IncrementalBackend,
        ProcessBackend.name: ProcessBackend,
    }


def resolve_backend_class(name: str) -> Type[ContributionBackend]:
    """Look a backend class up by registered name, with a helpful error."""
    registry = available_backends()
    if name not in registry:
        raise ExplanationError(
            f"unknown contribution backend {name!r}; available: {sorted(registry)}"
        )
    return registry[name]


def make_backend(backend: Union[str, ContributionBackend, Type[ContributionBackend]],
                 step: ExploratoryStep,
                 measure: InterestingnessMeasure,
                 options: Optional[Dict[str, object]] = None) -> ContributionBackend:
    """Resolve a backend specification into a backend instance for one step.

    ``backend`` may be a registered name (``"exact"`` / ``"incremental"`` /
    ``"process"``), a :class:`ContributionBackend` subclass, or an
    already-constructed instance (returned as-is — useful for tests that want
    to inspect backend state).  ``options`` carries optional keyword
    arguments (``workers``, ``context``, ...); each is forwarded only to
    backends whose constructor accepts a parameter of that name, so callers
    can pass one option dict regardless of the backend chosen.
    """
    if isinstance(backend, ContributionBackend):
        return backend
    if isinstance(backend, type) and issubclass(backend, ContributionBackend):
        cls = backend
    else:
        cls = resolve_backend_class(backend)
    return cls(step, measure, **_supported_options(cls, options))


def _supported_options(cls: Type[ContributionBackend],
                       options: Optional[Dict[str, object]]) -> Dict[str, object]:
    """The subset of ``options`` the backend class constructor understands."""
    if not options:
        return {}
    parameters = inspect.signature(cls.__init__).parameters
    return {name: value for name, value in options.items()
            if name in parameters and value is not None}
