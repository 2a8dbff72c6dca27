"""Skewed-grid equivalence of the process backend's batch scheduling.

The contract under test extends the exact-rerun oracle to *scheduling*:
however the grid is cut into batches (the automatic count policy or one
explicit batch holding the whole grid), however the input reaches the
workers (a store descriptor or a spilled in-memory frame), and even when a
worker is SIGKILLed mid-batch, the results must be identical to the serial
incremental backend — scheduling may move execution, never change a float.

The grid is deliberately skewed: partitions of very different set counts,
so batches of equal pair counts carry very different work.
"""

from __future__ import annotations

import pytest

from repro.core import (
    ContributionCalculator,
    ExceptionalityMeasure,
    FrequencyPartitioner,
    NumericBinningPartitioner,
    ProcessBackend,
)
from repro.core.backends.base import resolve_shard_batch
from repro.core.backends.incremental import IncrementalBackend
from repro.dataframe import Comparison
from repro.operators import ExploratoryStep, Filter
from repro.storage import DatasetStore


# ------------------------------------------------------------------- helpers
def _skewed_grid(frame, widths=(2, 3, 4, 5, 6, 7)):
    """Partitions with very different set counts: a cost-skewed grid."""
    partitions = [FrequencyPartitioner().partition(frame, "decade", width)
                  for width in widths]
    partitions.append(NumericBinningPartitioner().partition(frame, "popularity", 8))
    return [(partition, partition.source_attribute) for partition in partitions]


def _reference(step, measure, grid):
    return _run_backend(IncrementalBackend(step, measure), step, measure, grid)


def _run_backend(backend, step, measure, grid):
    calculator = ContributionCalculator(step, measure, backend=backend)
    calculator.prefetch(grid)
    return {
        (id(partition), attribute): calculator.partition_contributions(
            partition, attribute)
        for partition, attribute in grid
    }


# ------------------------------------------------- skewed-grid equivalence
class TestSkewedGridEquivalence:
    """Scheduling may move execution between workers, never change a float."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("auto_batch,spilled,crash", [
        (True, False, False),
        (True, True, False),
        (True, True, True),
        (False, True, False),
    ])
    def test_process_backend_matches_serial(self, spotify_small, tmp_path,
                                            workers, auto_batch, spilled,
                                            crash):
        if spilled:
            frame = spotify_small
        else:
            store = DatasetStore(tmp_path / "store")
            store.put("spotify", spotify_small)
            frame = store.open("spotify")
        step = ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))
        measure = ExceptionalityMeasure()
        grid = _skewed_grid(step.primary_input)
        reference = _reference(step, measure, grid)
        shard_batch = None if auto_batch else len(grid)
        backend = ProcessBackend(step, measure, workers=workers, spill_bytes=0,
                                 shard_batch=shard_batch,
                                 crash_shards=1 if crash else 0)
        results = _run_backend(backend, step, measure, grid)
        assert results == reference  # bit-identical, not approximately
        if workers > 1:
            stats = backend.stats()
            assert stats["batch_size"] == resolve_shard_batch(
                shard_batch, len(grid), workers)
            if crash:
                assert stats["serial_retries"] >= 1
                assert stats["fallback_reason"] is not None
            else:
                assert stats["fallback_reason"] is None
                assert stats["serial_retries"] == 0
                assert stats["shards_completed"] == len(grid)
