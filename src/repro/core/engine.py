"""The FEDEX explanation engine — Algorithm 1 of the paper.

:class:`FedexExplainer` orchestrates the full pipeline for one exploratory
step:

1. score the interestingness of every (applicable) output column, optionally
   on a uniform row sample (fedex-Sampling);
2. keep the most interesting columns (two-step greedy);
3. partition the input dataframe(s) into semantically-related sets-of-rows;
4. compute the (standardized) contribution of every set-of-rows to every
   selected column;
5. keep candidates with positive contribution, take the skyline over
   (interestingness, standardized contribution), optionally rank by the
   weighted score and keep the top-k;
6. build a captioned visualization for every surviving explanation.

The engine returns an :class:`ExplanationReport` carrying the final
explanations plus all the intermediate artefacts the experiments need
(candidate pool, rankings, per-phase timings).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dataframe.frame import DataFrame
from ..errors import ExplanationError
from ..obs.trace import begin_request, end_request
from ..operators.operations import MEASURE_EXCEPTIONALITY, GroupBy
from ..operators.step import ExploratoryStep
from .backends.incremental import row_sources
from .candidates import ExplanationCandidate, build_candidates
from .config import FedexConfig
from .contribution import ContributionCalculator
from .explanation import Explanation, build_explanation
from .interestingness import (
    InterestingnessMeasure,
    MeasureRegistry,
    default_registry,
    measure_for_step,
)
from .partition import Partitioner, RowPartition, build_partitions, default_partitioners
from .skyline import rank_by_weighted_score, skyline


@dataclass
class ExplanationReport:
    """Everything produced while explaining one exploratory step."""

    explanations: List[Explanation]
    skyline_candidates: List[ExplanationCandidate]
    all_candidates: List[ExplanationCandidate]
    interestingness_scores: Dict[str, float]
    selected_columns: List[str]
    config: FedexConfig
    timings: Dict[str, float] = field(default_factory=dict)
    #: The request's span tree when tracing was enabled (``REPRO_TRACE`` or
    #: :func:`repro.obs.tracing`); ``None`` on untraced runs.  Never part of
    #: report equality or cache keys — telemetry, not a result.
    trace: Optional[object] = field(default=None, compare=False)

    @property
    def total_time(self) -> float:
        """Total wall-clock time of the explanation generation, in seconds."""
        return sum(self.timings.values())

    def ranked_candidates(self) -> List[ExplanationCandidate]:
        """All candidates ranked by the weighted score (used by accuracy metrics)."""
        return rank_by_weighted_score(
            self.all_candidates,
            self.config.interestingness_weight,
            self.config.contribution_weight,
        )

    def skyline_keys(self) -> List[Tuple]:
        """Hashable identities of the skyline candidates (accuracy experiments)."""
        return [candidate.key() for candidate in self.skyline_candidates]

    def explanation_for(self, attribute: str) -> Optional[Explanation]:
        """The explanation about a specific output column, if one was produced."""
        for explanation in self.explanations:
            if explanation.attribute == attribute:
                return explanation
        return None

    def trace_summary(self):
        """Critical-path / self-time analysis of :attr:`trace` (``None`` untraced).

        A :class:`~repro.obs.analyze.TraceSummary`: where this request's
        latency actually went — the heaviest root-to-leaf chain, per-span
        self-time rollups, and flamegraph-folded stacks.
        """
        if self.trace is None:
            return None
        from ..obs.analyze import summarize
        return summarize(self.trace)

    def render_text(self, width: int = 40) -> str:
        """All explanations rendered as text, separated by blank lines."""
        if not self.explanations:
            return "No explanation: no set-of-rows with positive contribution was found."
        return "\n\n".join(explanation.render_text(width=width) for explanation in self.explanations)


class FedexExplainer:
    """The FEDEX explanation generator (Algorithm 1).

    Parameters
    ----------
    config:
        Engine configuration; defaults to exact fedex with the paper's
        defaults.  Use ``FedexConfig(sample_size=5000)`` (or
        :func:`repro.core.config.sampling_config`) for fedex-Sampling.
    registry:
        Interestingness measure registry; defaults to the paper's two
        measures.  Register custom measures here (§3.8).
    extra_partitioners:
        Additional user-defined partitioners appended to the configured
        built-in families (§3.8).
    context:
        Optional session cache (:class:`repro.session.SessionCache`, or any
        object with the same ``frame_fingerprint`` / ``partitions`` /
        ``groupby_structure`` / ``row_sources`` / ``left_join_structure``
        hooks) that memoizes cross-step row partitions and intervention
        structure keyed by content fingerprints.  Phase-1 scores are
        always computed, with or without one.
        ``None`` — the default — keeps the engine fully stateless across
        :meth:`explain` calls, exactly as before the session layer existed.
    """

    def __init__(self, config: FedexConfig | None = None,
                 registry: MeasureRegistry | None = None,
                 extra_partitioners: Sequence[Partitioner] | None = None,
                 context=None) -> None:
        self.config = config or FedexConfig()
        self.registry = registry or default_registry()
        self.extra_partitioners = list(extra_partitioners or [])
        self.context = context

    # ------------------------------------------------------------------ public
    def explain(self, step: ExploratoryStep, measure: str | None = None,
                progress: Optional[Callable[[Dict], None]] = None) -> ExplanationReport:
        """Run Algorithm 1 on an exploratory step and return the full report.

        When tracing is enabled (``REPRO_TRACE`` / :func:`repro.obs.tracing`)
        the whole run executes under an ambient request tracer — every layer
        below (backends, caches, scans) records into it — and the finished
        span tree is attached as ``report.trace``.  Tracing never changes a
        result: the untraced path sees only no-op stubs.

        ``progress``, when given, is called synchronously with one event
        dictionary per (partition, attribute) grid pair as phase 3 finishes
        it — with the process backend this happens while later shards are
        still computing, which is what lets a serving front end stream
        partial results.  Progress never changes a result: the events carry
        copies of per-pair summaries, and a raising callback aborts the
        request rather than corrupting it.

        A derived step's output is applied before the run starts, so it
        counts in neither the report's phase timings nor its trace.
        """
        step.output
        tracer, token = begin_request()
        try:
            with tracer.span("explain", operation=step.operation.kind,
                             backend=self.config.backend):
                report = self._run_pipeline(step, measure, tracer, progress)
        finally:
            trace = end_request(tracer, token)
        if trace is not None:
            report.trace = trace
        return report

    def _run_pipeline(self, step: ExploratoryStep, measure: str | None,
                      tracer, progress: Optional[Callable[[Dict], None]] = None,
                      ) -> ExplanationReport:
        """The five phases of Algorithm 1 (under the request's trace root)."""
        timings: Dict[str, float] = {}
        chosen_measure = measure_for_step(step, self.registry, override=measure)

        # Phase 1: interestingness of every applicable output column
        start = time.perf_counter()
        with tracer.span("phase1.interestingness",
                         measure=chosen_measure.name) as span:
            scores, scored_in_full = self._score_columns(step, chosen_measure)
            selected = self._select_columns(scores)
            span.set("columns_scored", len(scores))
            span.set("columns_selected", len(selected))
        timings["interestingness"] = time.perf_counter() - start

        # Phase 2: row partitions of the input dataframe(s)
        start = time.perf_counter()
        with tracer.span("phase2.partitioning") as span:
            partitions = self._build_partitions(step, selected)
            span.set("partitions", len(partitions))
        timings["partitioning"] = time.perf_counter() - start

        # Phase 3: contributions and candidate construction
        start = time.perf_counter()
        with tracer.span("phase3.contribution",
                         backend=self.config.backend) as span:
            # Unsampled phase-1 scores are the baselines ``I_A(Q)``: the same
            # measure call on the same materialisation.
            calculator = ContributionCalculator(
                step, chosen_measure,
                baseline_scores=scores if scored_in_full else None,
                backend=self.config.backend,
                backend_options={"workers": self.config.workers, "context": self.context,
                                 "shard_batch": self.config.shard_batch,
                                 "spill_bytes": self.config.spill_bytes},
            )
            # The full partition × attribute grid is known before any
            # contribution is computed; announcing it lets the process backend
            # shard the grid across its worker pool up front.
            grid: List[Tuple[RowPartition, str]] = [
                (partition, attribute)
                for partition in partitions
                for attribute in self._attributes_for_partition(step, partition, selected)
            ]
            span.set("grid_pairs", len(grid))
            calculator.prefetch(grid)
            all_candidates: List[ExplanationCandidate] = []
            candidate_partitions: Dict[Tuple, RowPartition] = {}
            for pair_index, (partition, attribute) in enumerate(grid):
                # One intervention pass: the raw contributions are computed
                # once and cached, and the standardized list is derived from
                # the cached raw list.
                raw = calculator.partition_contributions(partition, attribute)
                standardized = calculator.standardized_contributions(partition, attribute)
                candidates = build_candidates(
                    partition, attribute, scores[attribute], raw, standardized,
                    chosen_measure.name,
                    positive_only=self.config.positive_contribution_only,
                )
                for candidate in candidates:
                    candidate_partitions[candidate.key()] = partition
                all_candidates.extend(candidates)
                if progress is not None:
                    # Early pairs are announced while the process backend is
                    # still computing later shards (prefetch is per-pair
                    # non-blocking), so a streaming consumer genuinely sees
                    # partial results before the request finishes.
                    best = max(candidates, default=None,
                               key=lambda c: c.standardized_contribution)
                    progress({
                        "phase": "contribution",
                        "pair": pair_index + 1,
                        "pairs": len(grid),
                        "attribute": attribute,
                        "source_attribute": partition.source_attribute,
                        "candidates": len(candidates),
                        "total_candidates": len(all_candidates),
                        "best_contribution": (
                            best.standardized_contribution if best is not None
                            else None),
                    })
            span.set("candidates", len(all_candidates))
        timings["contribution"] = time.perf_counter() - start

        # Phase 4: skyline + weighted ranking
        start = time.perf_counter()
        with tracer.span("phase4.skyline") as span:
            if self.config.use_skyline:
                dominating = skyline(all_candidates)
            else:
                dominating = list(all_candidates)
            final = rank_by_weighted_score(
                dominating,
                self.config.interestingness_weight,
                self.config.contribution_weight,
            )
            final = _deduplicate(final)
            if self.config.top_k_explanations is not None:
                final = final[: self.config.top_k_explanations]
            span.set("skyline_size", len(final))
        timings["skyline"] = time.perf_counter() - start

        # Phase 5: captioned visualizations
        start = time.perf_counter()
        with tracer.span("phase5.visualization"):
            # Exceptionality charts count restricted outputs from the row
            # provenance phase 3 read (memoized by the session context).
            sources = None
            if any(candidate.measure_name == MEASURE_EXCEPTIONALITY for candidate in final):
                sources = row_sources(step, self.context)
            explanations = [
                build_explanation(step, candidate, candidate_partitions[candidate.key()],
                                  sources=sources)
                for candidate in final
            ]
        timings["visualization"] = time.perf_counter() - start

        return ExplanationReport(
            explanations=explanations,
            skyline_candidates=final,
            all_candidates=all_candidates,
            interestingness_scores=scores,
            selected_columns=selected,
            config=self.config,
            timings=timings,
        )

    def score_columns(self, step: ExploratoryStep,
                      measure: InterestingnessMeasure | None = None) -> Dict[str, float]:
        """Interestingness score of every applicable output column (lines 1–2).

        When the configuration enables sampling, the scores are computed on a
        uniformly sampled materialisation of the step (the fedex-Sampling
        optimization); the contribution phase still uses all rows.
        """
        return self._score_columns(step, measure)[0]

    def _score_columns(self, step: ExploratoryStep,
                       measure: InterestingnessMeasure | None = None,
                       ) -> Tuple[Dict[str, float], bool]:
        """:meth:`score_columns`, plus whether the step's own materialisation
        was scored (no sample), which makes the scores its baselines."""
        chosen_measure = measure or measure_for_step(step, self.registry)
        columns = self._candidate_columns(step, chosen_measure)
        scoring_inputs, scoring_output = self._scoring_materialisation(step)
        scores = {
            attribute: chosen_measure.score(scoring_inputs, step, scoring_output, attribute)
            for attribute in columns
        }
        return scores, scoring_output is step.output

    # ---------------------------------------------------------------- internals
    def _candidate_columns(self, step: ExploratoryStep,
                           measure: InterestingnessMeasure) -> List[str]:
        columns = measure.applicable_columns(step)
        exclude = set(self.config.exclude_columns)
        columns = [name for name in columns if name not in exclude]
        if self.config.target_columns is not None:
            allowed = set(self.config.target_columns)
            columns = [name for name in columns if name in allowed]
        if not columns:
            raise ExplanationError(
                "no output column is applicable for explanation; "
                "check target_columns / exclude_columns"
            )
        return columns

    def _select_columns(self, scores: Dict[str, float]) -> List[str]:
        """The most interesting columns carried into the contribution phase."""
        positive = [(attribute, score) for attribute, score in scores.items() if score > 0]
        positive.sort(key=lambda item: (-item[1], item[0]))
        if self.config.top_k_columns is not None:
            positive = positive[: self.config.top_k_columns]
        return [attribute for attribute, _ in positive]

    def _scoring_materialisation(self, step: ExploratoryStep) -> Tuple[List[DataFrame], DataFrame]:
        """Inputs/output used for interestingness scoring (sampled when configured)."""
        sample_size = self.config.sample_size
        if sample_size is None:
            return list(step.inputs), step.output
        sampled_inputs = [
            frame.sample(sample_size, seed=self.config.seed) if frame.num_rows > sample_size
            else frame
            for frame in step.inputs
        ]
        if all(sampled is original for sampled, original in zip(sampled_inputs, step.inputs)):
            return list(step.inputs), step.output
        sampled_output = step.rerun(sampled_inputs)
        return sampled_inputs, sampled_output

    def _build_partitions(self, step: ExploratoryStep,
                          selected_columns: Sequence[str]) -> List[RowPartition]:
        """Lines 3–6: row partitions of each input dataframe."""
        partitions: List[RowPartition] = []
        for input_index, frame in enumerate(step.inputs):
            attributes = self._partition_attributes(step, frame, selected_columns)
            partitions.extend(self._partitions_for_frame(frame, attributes, input_index))
        if not partitions:
            # Fall back to partitioning on every input attribute before giving up.
            for input_index, frame in enumerate(step.inputs):
                partitions.extend(
                    self._partitions_for_frame(frame, frame.column_names, input_index)
                )
        return partitions

    def _partitions_for_frame(self, frame: DataFrame, attributes: Sequence[str],
                              input_index: int) -> List[RowPartition]:
        """Partitions of one input frame, memoized by the session context.

        Partitions depend only on the frame's *content* and the partitioning
        configuration, never on the step's operation, so a session can reuse
        them across steps (two different filters refined over the same input
        share every partition).  Caching is per attribute — the partitions
        of one attribute are independent of which other attributes were
        requested alongside it (the dedup signature embeds the attribute) —
        so steps selecting overlapping column sets still share the overlap.
        User-supplied partitioners are excluded from caching, since their
        identity is not captured by the key.
        """
        partitioners = default_partitioners(self.config.partition_methods) + self.extra_partitioners

        def build(subset: Sequence[str]) -> List[RowPartition]:
            return build_partitions(
                frame, subset, self.config.set_counts, partitioners,
                input_index=input_index,
                min_group_values=self.config.min_group_values,
            )

        if self.context is None or self.extra_partitioners:
            return build(attributes)
        fingerprint = self.context.frame_fingerprint(frame)
        partitions: List[RowPartition] = []
        for attribute in attributes:
            key = (
                fingerprint, attribute, tuple(self.config.set_counts),
                tuple(self.config.partition_methods), input_index,
                self.config.min_group_values,
            )
            partitions.extend(self.context.partitions(
                key, lambda attribute=attribute: build([attribute])
            ))
        return partitions

    def _attributes_for_partition(self, step: ExploratoryStep, partition: RowPartition,
                                  selected_columns: Sequence[str]) -> List[str]:
        """Which output attributes a partition's sets-of-rows are paired with.

        In the exhaustive ``partition_source="all"`` mode every partition is
        paired with every selected column (the full cross product of
        Algorithm 1, line 8).  In the default ``"target"`` mode the pairing
        follows the paper's examples: for group-by steps the partitions are
        built on the grouping keys and explain every aggregated column, while
        for filter/join/union steps a partition built on attribute ``A``
        explains ``A`` itself (Figure 2a explains the 'decade' deviation with
        the 'decade' sets-of-rows).
        """
        if self.config.partition_source == "all":
            return list(selected_columns)
        if isinstance(step.operation, GroupBy):
            return list(selected_columns)
        if partition.source_attribute in selected_columns:
            return [partition.source_attribute]
        return list(selected_columns)

    def _partition_attributes(self, step: ExploratoryStep, frame: DataFrame,
                              selected_columns: Sequence[str]) -> List[str]:
        """Which input attributes to partition on.

        ``partition_source="target"`` (default, and what the paper's examples
        show): for exceptionality steps the attribute being explained itself;
        for group-by steps the grouping key(s).  ``"all"`` partitions on every
        input attribute (exhaustive ablation mode).
        """
        if self.config.partition_source == "all":
            return frame.column_names
        operation = step.operation
        if isinstance(operation, GroupBy):
            return [key for key in operation.keys if key in frame]
        return [name for name in selected_columns if name in frame]


def _deduplicate(candidates: List[ExplanationCandidate]) -> List[ExplanationCandidate]:
    """Drop candidates describing the same (attribute, set-of-rows) as an earlier one.

    Different partition granularities (5 vs 10 sets-of-rows) and different
    partition methods frequently rediscover the same set-of-rows; presenting
    it twice adds nothing for the user.
    """
    seen: set = set()
    unique: List[ExplanationCandidate] = []
    for candidate in candidates:
        identity = (candidate.attribute, candidate.row_set.label_attribute,
                    candidate.row_set.label)
        if identity in seen:
            continue
        seen.add(identity)
        unique.append(candidate)
    return unique


class ExplainerPool:
    """One :class:`FedexExplainer` per distinct configuration, built lazily.

    The memo key is the configuration's content signature, so two equal
    configs (by value, not identity) share one engine.  Both the plain
    :class:`~repro.explain.explainable.ExplainableDataFrame` wrapper and the
    :class:`~repro.session.ExplanationSession` reuse engines through this
    pool, keeping the two paths from drifting in how engines are memoized.

    ``factory`` builds the engine for a config; the default builds a bare
    :class:`FedexExplainer` (sessions inject registry/partitioners/context).

    The pool is thread-safe: concurrent service workers asking for the same
    configuration receive the same engine, built exactly once (the factory
    runs under the pool lock).  Sharing one engine across workers is sound
    because :meth:`FedexExplainer.explain` keeps all per-request state in
    locals — the engine object itself only holds immutable configuration
    plus the (independently thread-safe) session context.
    """

    def __init__(self, factory: Optional[Callable[[FedexConfig], FedexExplainer]] = None) -> None:
        self._factory = factory or (lambda config: FedexExplainer(config=config))
        self._explainers: Dict[Tuple, FedexExplainer] = {}
        self._lock = threading.Lock()

    def for_config(self, config: FedexConfig) -> FedexExplainer:
        """The pooled engine for a configuration, constructed on first use."""
        from .signatures import config_signature

        key = config_signature(config)
        explainer = self._explainers.get(key)
        if explainer is None:
            with self._lock:
                explainer = self._explainers.get(key)
                if explainer is None:
                    explainer = self._factory(config)
                    self._explainers[key] = explainer
        return explainer

    def clear(self) -> None:
        """Drop every pooled engine."""
        with self._lock:
            self._explainers.clear()

    def __len__(self) -> int:
        return len(self._explainers)

    def values(self):
        """The pooled engines (inspection/tests)."""
        return self._explainers.values()


def explain_step(step: ExploratoryStep, config: FedexConfig | None = None,
                 measure: str | None = None) -> ExplanationReport:
    """One-shot convenience wrapper: explain a step with a fresh engine."""
    return FedexExplainer(config=config).explain(step, measure=measure)
