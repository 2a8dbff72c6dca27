"""Unit tests for explanation construction (captioned visualizations, paper §3.7)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    FedexConfig,
    FedexExplainer,
    build_candidates,
    build_explanation,
    build_partitions,
    default_partitioners,
)
from repro.dataframe import Comparison, DataFrame
from repro.operators import ExploratoryStep, Filter, GroupBy, Join, Union
from repro.viz import BarChartWithReference, SideBySideBarChart


@pytest.fixture
def filter_report(spotify_small):
    step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
    return step, FedexExplainer(FedexConfig(seed=0)).explain(step)


@pytest.fixture
def groupby_report(spotify_small):
    operation = GroupBy("year", {"loudness": ["mean"], "danceability": ["mean"]},
                        pre_filter=Comparison("year", ">=", 1990))
    step = ExploratoryStep([spotify_small], operation)
    return step, FedexExplainer(FedexConfig(seed=0)).explain(step)


class TestExceptionalityExplanation:
    def test_chart_is_side_by_side(self, filter_report):
        _, report = filter_report
        assert report.explanations
        explanation = report.explanations[0]
        assert isinstance(explanation.chart, SideBySideBarChart)

    def test_highlighted_category_is_the_row_set(self, filter_report):
        _, report = filter_report
        explanation = report.explanations[0]
        assert explanation.chart.highlighted_category == explanation.row_set_label

    def test_before_frequencies_sum_to_at_most_100(self, filter_report):
        _, report = filter_report
        chart = report.explanations[0].chart
        assert sum(chart.before) <= 100.0 + 1e-6

    def test_caption_follows_template(self, filter_report):
        _, report = filter_report
        caption = report.explanations[0].caption
        assert caption.startswith("See that the column")
        assert "frequent" in caption

    def test_render_text_contains_caption_and_chart(self, filter_report):
        _, report = filter_report
        text = report.explanations[0].render_text()
        assert "Explanation:" in text
        assert "Before" in text

    def test_to_dict_is_json_serialisable(self, filter_report):
        _, report = filter_report
        payload = json.dumps(report.explanations[0].to_dict())
        assert "interestingness" in payload


class TestDiversityExplanation:
    def test_chart_is_bar_with_reference(self, groupby_report):
        _, report = groupby_report
        assert report.explanations
        explanation = report.explanations[0]
        assert isinstance(explanation.chart, BarChartWithReference)

    def test_reference_line_is_output_mean(self, groupby_report):
        step, report = groupby_report
        explanation = report.explanations[0]
        column = step.output[explanation.attribute].to_float()
        assert explanation.chart.reference_value == pytest.approx(column.mean(), rel=1e-6)

    def test_caption_mentions_standard_deviations(self, groupby_report):
        _, report = groupby_report
        assert "standard deviations" in report.explanations[0].caption

    def test_chart_has_no_empty_categories(self, groupby_report):
        _, report = groupby_report
        chart = report.explanations[0].chart
        non_highlight_values = [
            value for index, value in enumerate(chart.values) if index != chart.highlight_index
        ]
        assert all(value == value for value in non_highlight_values)

    def test_explanation_properties(self, groupby_report):
        _, report = groupby_report
        explanation = report.explanations[0]
        assert explanation.interestingness == explanation.candidate.interestingness
        assert explanation.standardized_contribution == \
            explanation.candidate.standardized_contribution


class TestChartReruns:
    """Which charts re-run the step's operation once per set-of-rows.

    An exceptionality chart needs each restricted output's row count, which
    the row provenance of the explained input gives (filter, inner join,
    union, a left join's left side).  A group-by diversity chart and a left
    join explained on its right input have no provenance and still re-run.
    """

    @pytest.fixture
    def sides(self):
        rng = np.random.default_rng(3)
        left = DataFrame({
            "k": np.asarray(["x", "y", "z", None, "w"] * 8, dtype=object),
            "v": rng.normal(0, 1, 40),
            "g": np.asarray(rng.choice(["a", "b", "c"], 40), dtype=object),
        })
        right = DataFrame({
            "k": np.asarray(["x", "y", "y", None, "q", "x"], dtype=object),
            "v": rng.normal(1, 1, 6),
            "w": np.asarray([1.0, 2.0, 2.0, 3.0, 4.0, 5.0]),
        })
        return left, right

    @staticmethod
    def apply_calls(monkeypatch, step, input_index, partition_on, attribute, measure):
        """``Operation.apply`` calls while building one candidate's chart."""
        step.output
        partition = build_partitions(step.inputs[input_index], [partition_on], (5,),
                                     default_partitioners(), input_index=input_index)[0]
        n_sets = len(partition.sets)
        candidate = build_candidates(partition, attribute, 0.5, [1.0] * n_sets,
                                     [0.0] * n_sets, measure, positive_only=False)[0]
        calls = []
        for operation in (Filter, GroupBy, Join, Union):
            original = operation.apply

            def counted(self, inputs, original=original):
                calls.append(type(self).__name__)
                return original(self, inputs)

            monkeypatch.setattr(operation, "apply", counted)
        build_explanation(step, candidate, partition)
        return len(calls), n_sets

    def test_filter_chart_reruns_nothing(self, monkeypatch, sides):
        step = ExploratoryStep([sides[0]], Filter(Comparison("v", ">", 0.2)))
        calls, _ = self.apply_calls(monkeypatch, step, 0, "g", "g", "exceptionality")
        assert calls == 0

    @pytest.mark.parametrize("input_index,partition_on,attribute",
                             [(0, "g", "g"), (1, "w", "w")])
    def test_inner_join_chart_reruns_nothing(self, monkeypatch, sides, input_index,
                                             partition_on, attribute):
        step = ExploratoryStep(list(sides), Join("k"))
        calls, _ = self.apply_calls(monkeypatch, step, input_index, partition_on,
                                    attribute, "exceptionality")
        assert calls == 0

    def test_union_chart_reruns_nothing(self, monkeypatch, sides):
        step = ExploratoryStep(list(sides), Union())
        calls, _ = self.apply_calls(monkeypatch, step, 1, "v", "v", "exceptionality")
        assert calls == 0

    def test_left_join_left_side_chart_reruns_nothing(self, monkeypatch, sides):
        step = ExploratoryStep(list(sides), Join("k", how="left"))
        calls, _ = self.apply_calls(monkeypatch, step, 0, "g", "g", "exceptionality")
        assert calls == 0

    def test_left_join_right_side_chart_reruns_per_set(self, monkeypatch, sides):
        step = ExploratoryStep(list(sides), Join("k", how="left"))
        calls, n_sets = self.apply_calls(monkeypatch, step, 1, "w", "w", "exceptionality")
        assert calls == n_sets > 0

    def test_groupby_diversity_chart_reruns_per_set(self, monkeypatch, sides):
        step = ExploratoryStep([sides[0]], GroupBy("g", {"v": ["mean"]}))
        calls, n_sets = self.apply_calls(monkeypatch, step, 0, "g", "mean_v", "diversity")
        assert calls == n_sets > 0
