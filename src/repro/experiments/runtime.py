"""Runtime scalability experiments (paper Figures 9 and 10).

Figure 9 measures explanation-generation time as a function of the number of
*columns* in the dataset (rows fixed) for fedex-Sampling, SeeDB, and Rath;
Figure 10 measures it as a function of the number of *rows* (all columns).
The absolute numbers depend on the hardware and on the substrate (the paper
ran on pandas/NumPy on a laptop; this repo runs its own dataframe engine), so
the quantity of interest is the *shape*: how each system scales and where the
crossovers are.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..baselines.common import BaselineSystem
from ..baselines.fedex_adapter import fedex_system
from ..baselines.rath import RathInsights
from ..baselines.seedb import SeeDB
from ..core.config import FedexConfig
from ..core.engine import FedexExplainer
from ..dataframe.frame import DataFrame
from ..datasets.registry import DatasetRegistry
from ..operators.operations import GroupBy
from ..operators.step import ExploratoryStep
from ..workloads.queries import WorkloadQuery, get_query


def time_system(system: BaselineSystem, step: ExploratoryStep, repetitions: int = 1,
                timeout_seconds: Optional[float] = None) -> Optional[float]:
    """Mean wall-clock seconds the system needs to explain the step.

    Returns ``None`` when the system does not support the step or when a
    single run exceeds ``timeout_seconds`` (mirroring the paper's treatment of
    Rath timing out / running out of memory on the largest datasets).
    """
    if not system.supports(step):
        return None
    # Apply a derived step's operation before the clock starts: every system
    # explains the same output, so none should pay for computing it.
    step.output
    durations: List[float] = []
    for _ in range(max(repetitions, 1)):
        started = time.perf_counter()
        system.explain(step)
        elapsed = time.perf_counter() - started
        if timeout_seconds is not None and elapsed > timeout_seconds:
            return None
        durations.append(elapsed)
    return float(np.mean(durations))


def default_runtime_systems(sample_size: int = 5_000) -> List[BaselineSystem]:
    """The systems compared in Figure 9 / Figure 10."""
    return [fedex_system(sample_size=sample_size, name="FEDEX-Sampling"), SeeDB(), RathInsights()]


def column_scaling_sweep(registry: DatasetRegistry, dataset: str,
                         query_numbers: Sequence[int],
                         column_counts: Sequence[int] | None = None,
                         systems: Sequence[BaselineSystem] | None = None,
                         repetitions: int = 1, seed: int = 0,
                         timeout_seconds: Optional[float] = None) -> List[Dict]:
    """Figure 9: runtime as a function of the number of columns.

    Following §4.3, the column subsets always contain the attribute the query
    needs and the most interesting attribute; the remaining columns are added
    in a fixed random permutation.
    """
    systems = list(systems) if systems is not None else default_runtime_systems()
    rows: List[Dict] = []
    for number in query_numbers:
        query = get_query(number)
        if query.dataset != dataset:
            continue
        full_step = query.build_step(registry)
        ordered_columns = _column_order(full_step, seed=seed)
        counts = column_counts or _default_column_counts(len(ordered_columns))
        for count in counts:
            kept = ordered_columns[: max(2, min(count, len(ordered_columns)))]
            step = _project_step(full_step, kept)
            for system in systems:
                seconds = time_system(system, step, repetitions=repetitions,
                                      timeout_seconds=timeout_seconds)
                rows.append({
                    "dataset": dataset,
                    "query": number,
                    "columns": len(kept),
                    "system": system.name,
                    "seconds": seconds,
                })
    return rows


def row_scaling_sweep(registry_factory: Callable[[int], DatasetRegistry],
                      row_counts: Sequence[int], query_numbers: Sequence[int],
                      systems: Sequence[BaselineSystem] | None = None,
                      include_exact_fedex: bool = True,
                      repetitions: int = 1,
                      timeout_seconds: Optional[float] = None) -> List[Dict]:
    """Figure 10: runtime as a function of the number of rows.

    ``registry_factory`` maps the requested row count to a registry whose
    tables have (roughly) that many rows.  When ``include_exact_fedex`` is
    set, exact fedex (no sampling) is timed alongside the configured systems,
    which is the comparison Figure 10 draws for the two fedex variants.
    """
    rows: List[Dict] = []
    for row_count in row_counts:
        registry = registry_factory(row_count)
        for number in query_numbers:
            query = get_query(number)
            step = query.build_step(registry)
            measured_systems = list(systems) if systems is not None else default_runtime_systems()
            if include_exact_fedex:
                measured_systems = [fedex_system(sample_size=None, name="FEDEX")] + measured_systems
            for system in measured_systems:
                seconds = time_system(system, step, repetitions=repetitions,
                                      timeout_seconds=timeout_seconds)
                rows.append({
                    "rows": row_count,
                    "query": number,
                    "kind": query.kind,
                    "dataset": query.dataset,
                    "system": system.name,
                    "seconds": seconds,
                })
    return rows


def average_by(rows: Sequence[Dict], group_columns: Sequence[str], value: str = "seconds") -> List[Dict]:
    """Average the value column over all rows sharing the group columns (None skipped)."""
    buckets: Dict[tuple, List[float]] = {}
    order: List[tuple] = []
    for row in rows:
        key = tuple(row[column] for column in group_columns)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        if row.get(value) is not None:
            buckets[key].append(float(row[value]))
    averaged = []
    for key in order:
        values = buckets[key]
        entry = {column: part for column, part in zip(group_columns, key)}
        entry[value] = float(np.mean(values)) if values else None
        entry["n"] = len(values)
        averaged.append(entry)
    return averaged


# ------------------------------------------------------------------------- helpers
def _column_order(step: ExploratoryStep, seed: int) -> List[str]:
    """Fixed column order: query attribute, most interesting attribute, then a permutation."""
    frame = step.primary_input
    config = FedexConfig(sample_size=5_000, seed=seed)
    scores = FedexExplainer(config).score_columns(step)
    required = _required_columns(step)
    most_interesting = max(scores, key=scores.get) if scores else None
    head = [name for name in dict.fromkeys(required + ([most_interesting] if most_interesting else []))
            if name is not None and name in frame]
    rest = [name for name in frame.column_names if name not in head]
    rng = np.random.default_rng(seed)
    rng.shuffle(rest)
    return head + rest


def _required_columns(step: ExploratoryStep) -> List[str]:
    operation = step.operation
    required: List[str] = []
    predicate = getattr(operation, "predicate", None)
    if predicate is not None:
        required.extend(_predicate_columns(predicate))
    if isinstance(operation, GroupBy):
        required.extend(operation.keys)
        required.extend(operation.aggregations.keys())
        if operation.pre_filter is not None:
            required.extend(_predicate_columns(operation.pre_filter))
    for attr in ("on",):
        keys = getattr(operation, attr, None)
        if keys:
            required.extend(keys)
    return required


def _predicate_columns(predicate) -> List[str]:
    columns = []
    if hasattr(predicate, "column"):
        columns.append(predicate.column)
    for nested in getattr(predicate, "predicates", []) or []:
        columns.extend(_predicate_columns(nested))
    nested = getattr(predicate, "predicate", None)
    if nested is not None:
        columns.extend(_predicate_columns(nested))
    return columns


def _project_step(step: ExploratoryStep, columns: Sequence[str]) -> ExploratoryStep:
    """The same step with every input projected onto the kept columns."""
    projected_inputs: List[DataFrame] = []
    for frame in step.inputs:
        present = [name for name in columns if name in frame]
        # Keep join/union steps well-formed: every input keeps at least the
        # columns the operation itself needs.
        needed = [name for name in _required_columns(step) if name in frame and name not in present]
        projected_inputs.append(frame.select(present + needed) if (present + needed) else frame)
    return ExploratoryStep(projected_inputs, step.operation, label=step.label)


def _default_column_counts(total_columns: int) -> List[int]:
    counts = [2, 4, 8, 12, 16, 20, 26, 33]
    return sorted({min(count, total_columns) for count in counts})
