"""Explanations: the final artefact returned to the user.

An :class:`Explanation` couples a dominating explanation candidate with its
captioned visualization (paper §3.7): a natural-language caption and a chart
spec that can be rendered as ASCII text or exported as JSON.

:func:`build_explanation` turns a skyline candidate into an explanation from
the step restricted to each set-of-rows of the candidate's partition — the
"before vs after" frequencies of the exceptionality chart and the per-group
aggregated values of the diversity chart, exactly the quantities the paper's
Figure 2 plots.  Exceptionality charts count restricted outputs from the
step's row provenance; diversity charts, and inputs without provenance
(group-by, a left join's right side, OLAP), re-run the operation per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..operators.operations import MEASURE_DIVERSITY, MEASURE_EXCEPTIONALITY
from ..operators.step import ExploratoryStep
from ..stats.dispersion import mean_and_std
from ..viz.chartspec import BarChartWithReference, ChartSpec, SideBySideBarChart
from ..viz.render_text import render_chart
from .candidates import ExplanationCandidate
from .backends.incremental import row_sources
from .captions import diversity_caption, exceptionality_caption, generic_caption
from .partition import RowPartition, RowSet


@dataclass
class Explanation:
    """A captioned, visualised explanation of one exploratory step."""

    candidate: ExplanationCandidate
    caption: str
    chart: Optional[ChartSpec]
    step_description: str

    @property
    def attribute(self) -> str:
        """The explained output column ``A``."""
        return self.candidate.attribute

    @property
    def row_set_label(self) -> str:
        """Label of the contributing set-of-rows ``R``."""
        return self.candidate.row_set.label

    @property
    def interestingness(self) -> float:
        """Interestingness score of the explained column."""
        return self.candidate.interestingness

    @property
    def standardized_contribution(self) -> float:
        """Standardized contribution of the set-of-rows."""
        return self.candidate.standardized_contribution

    def render_text(self, width: int = 40) -> str:
        """Caption plus ASCII chart, ready to print in a terminal/notebook."""
        parts = [f"Step: {self.step_description}", "", f"Explanation: {self.caption}"]
        if self.chart is not None:
            parts.extend(["", render_chart(self.chart, width=width)])
        return "\n".join(parts)

    def to_dict(self) -> Dict:
        """JSON-serialisable representation of the explanation."""
        return {
            "attribute": self.attribute,
            "row_set": {
                "label": self.candidate.row_set.label,
                "label_attribute": self.candidate.row_set.label_attribute,
                "source_attribute": self.candidate.row_set.source_attribute,
                "method": self.candidate.row_set.method,
                "size": self.candidate.row_set.size,
            },
            "scores": {
                "interestingness": self.candidate.interestingness,
                "contribution": self.candidate.contribution,
                "standardized_contribution": self.candidate.standardized_contribution,
                "measure": self.candidate.measure_name,
            },
            "caption": self.caption,
            "chart": self.chart.to_dict() if self.chart is not None else None,
            "step": self.step_description,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Explanation({self.attribute!r}, {self.row_set_label!r})"


def build_explanation(step: ExploratoryStep, candidate: ExplanationCandidate,
                      partition: RowPartition,
                      sources: Optional[Sequence[Optional[np.ndarray]]] = None) -> Explanation:
    """Build the captioned visualization for a dominating candidate.

    ``sources`` is the step's row provenance as
    :func:`~repro.core.backends.incremental.row_sources` returns it;
    exceptionality charts compute it from the operation when not given.
    """
    if candidate.measure_name == MEASURE_DIVERSITY:
        chart, caption = _diversity_visual(step, candidate, partition)
    elif candidate.measure_name == MEASURE_EXCEPTIONALITY:
        if sources is None:
            sources = row_sources(step)
        chart, caption = _exceptionality_visual(step, candidate, partition, sources)
    else:
        chart, caption = None, generic_caption(
            candidate.attribute, candidate.row_set.label, candidate.measure_name,
            candidate.interestingness, candidate.standardized_contribution,
        )
    return Explanation(
        candidate=candidate,
        caption=caption,
        chart=chart,
        step_description=step.describe(),
    )


# --------------------------------------------------------------------------- internals
def _restricted_output(step: ExploratoryStep, row_set: RowSet):
    """Output of the step's operation applied with the input restricted to ``row_set``."""
    restricted_input = step.inputs[row_set.input_index].take(row_set.indices)
    inputs = step.with_inputs_replaced(row_set.input_index, restricted_input)
    return step.rerun(inputs)


def _restricted_row_counts(step: ExploratoryStep, partition: RowPartition,
                           sources: Optional[Sequence[Optional[np.ndarray]]]) -> List[int]:
    """Output rows of the step with its input restricted to each set of the partition.

    With provenance, that is the output rows not derived from the input plus
    those derived from each row of the set (repeats included).
    """
    derived = None if sources is None else sources[partition.input_index]
    if derived is None:
        return [_restricted_output(step, row_set).num_rows for row_set in partition.sets]
    base = int(np.count_nonzero(derived < 0))
    per_row = np.bincount(derived[derived >= 0],
                          minlength=step.inputs[partition.input_index].num_rows)
    return [base + int(per_row[np.asarray(row_set.indices, dtype=np.int64)].sum())
            for row_set in partition.sets]


def _exceptionality_visual(step: ExploratoryStep, candidate: ExplanationCandidate,
                           partition: RowPartition,
                           sources: Optional[Sequence[Optional[np.ndarray]]]):
    """Side-by-side before/after frequency chart + caption (Figure 2a style)."""
    input_frame = step.inputs[partition.input_index]
    total_input = max(input_frame.num_rows, 1)
    total_output = max(step.output.num_rows, 1)

    categories: List[str] = []
    before: List[float] = []
    after: List[float] = []
    highlight_index = None
    chosen_before = chosen_after = 0.0
    restricted_rows = _restricted_row_counts(step, partition, sources)
    for position, row_set in enumerate(partition.sets):
        before_fraction = row_set.size / total_input
        after_fraction = restricted_rows[position] / total_output
        categories.append(row_set.label)
        before.append(100.0 * before_fraction)
        after.append(100.0 * after_fraction)
        if row_set.label == candidate.row_set.label:
            highlight_index = position
            chosen_before, chosen_after = before_fraction, after_fraction

    chart = SideBySideBarChart(
        title=f"Distribution change of '{candidate.attribute}'",
        x_label=candidate.row_set.label_attribute,
        categories=categories,
        before=before,
        after=after,
        highlight_index=highlight_index,
    )
    caption = exceptionality_caption(
        candidate.attribute, candidate.row_set.label, chosen_before, chosen_after
    )
    return chart, caption


def _diversity_visual(step: ExploratoryStep, candidate: ExplanationCandidate,
                      partition: RowPartition):
    """Per-group aggregated-value chart with a mean line + caption (Figure 2b style)."""
    attribute = candidate.attribute
    output_column = step.output[attribute] if attribute in step.output else None
    overall_values = output_column.to_float() if output_column is not None else np.asarray([])
    overall_mean, overall_std = mean_and_std(overall_values)

    entries = []
    chosen_value = float("nan")
    for row_set in partition.sets:
        restricted = _restricted_output(step, row_set)
        if attribute in restricted and restricted.num_rows > 0:
            value = float(np.nanmean(restricted[attribute].to_float()))
        else:
            value = float("nan")
        is_chosen = row_set.label == candidate.row_set.label
        if is_chosen:
            chosen_value = value
        # Sets that contribute no groups at all (e.g. rows removed by the
        # operation's pre-filter) carry no signal; keep the chart readable by
        # omitting them unless they are the highlighted set itself.
        if value != value and not is_chosen:
            continue
        entries.append((row_set.label, value, is_chosen))
    entries.sort(key=lambda item: item[0])
    categories = [label for label, _, _ in entries]
    values = [value for _, value, _ in entries]
    highlight_index = next(
        (position for position, (_, _, is_chosen) in enumerate(entries) if is_chosen), None
    )

    z = 0.0 if overall_std == 0 or chosen_value != chosen_value else (
        (chosen_value - overall_mean) / overall_std
    )
    chart = BarChartWithReference(
        title=f"Mean '{attribute}' per {candidate.row_set.label_attribute}",
        x_label=candidate.row_set.label_attribute,
        y_label=f"Mean '{attribute}'",
        categories=categories,
        values=values,
        reference_value=overall_mean,
        highlight_index=highlight_index,
    )
    caption = diversity_caption(
        attribute, candidate.row_set.label_attribute, candidate.row_set.label,
        chosen_value, overall_mean, z,
    )
    return chart, caption
