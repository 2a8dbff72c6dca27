"""Unit and integration tests for the OLAP extensions: pivot, diff, roll-up."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FedexConfig, FedexExplainer
from repro.dataframe import DataFrame
from repro.errors import OperationError
from repro.operators import Diff, ExploratoryStep, Pivot, RollUp
from repro.session import ExplanationSession


@pytest.fixture
def sales_frame() -> DataFrame:
    rng = np.random.default_rng(0)
    n = 400
    regions = np.asarray(["north", "south", "east", "west"], dtype=object)[rng.integers(0, 4, n)]
    categories = np.asarray(["beer", "wine", "rum"], dtype=object)[rng.integers(0, 3, n)]
    amount = rng.lognormal(3.0, 0.4, n) * (1.0 + 0.8 * (regions == "north"))
    return DataFrame({"region": regions, "category": categories, "amount": amount})


class TestPivot:
    def test_output_shape(self, sales_frame):
        result = Pivot("region", "category", "amount", "mean").apply([sales_frame])
        assert result.num_rows == 4
        assert set(result.column_names) == {"region", "beer_mean_amount", "wine_mean_amount",
                                            "rum_mean_amount"}

    def test_count_pivot(self, sales_frame):
        result = Pivot("region", "category").apply([sales_frame])
        total = sum(
            sum(v for v in result[name].tolist() if v == v)
            for name in result.column_names if name != "region"
        )
        assert total == sales_frame.num_rows

    def test_max_columns_cap(self, sales_frame):
        result = Pivot("region", "category", "amount", "mean", max_columns=2).apply([sales_frame])
        assert result.num_columns == 3  # region + 2 category columns

    def test_measure_required_for_mean(self):
        with pytest.raises(OperationError):
            Pivot("region", "category", None, "mean")

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(OperationError):
            Pivot("region", "category", "amount", "p95")

    def test_missing_column_rejected(self, sales_frame):
        with pytest.raises(OperationError):
            Pivot("region", "missing", "amount", "mean").apply([sales_frame])

    def test_default_measure_is_diversity(self):
        assert Pivot("region", "category").default_measure == "diversity"

    def test_pivot_step_is_explainable(self, sales_frame):
        step = ExploratoryStep([sales_frame], Pivot("region", "category", "amount", "mean"))
        report = FedexExplainer(FedexConfig(seed=0)).explain(step)
        assert report.interestingness_scores
        assert all(c.contribution > 0 for c in report.all_candidates)


class TestDiff:
    def test_delta_columns(self, sales_frame):
        north_boosted = sales_frame.copy()
        step = Diff("region", "amount", "mean")
        result = step.apply([sales_frame, north_boosted])
        assert set(result.column_names) == {"region", "mean_amount_before", "mean_amount_after",
                                            "delta_mean_amount"}
        assert all(abs(v) < 1e-9 for v in result["delta_mean_amount"].tolist())

    def test_detects_a_planted_change(self, sales_frame):
        boosted_rows = sales_frame.to_rows()
        for row in boosted_rows:
            if row["region"] == "west":
                row["amount"] *= 3.0
        boosted = DataFrame.from_rows(boosted_rows, column_order=sales_frame.column_names)
        result = Diff("region", "amount", "mean").apply([sales_frame, boosted])
        deltas = dict(zip(result["region"].tolist(), result["delta_mean_amount"].tolist()))
        assert deltas["west"] > max(abs(deltas[r]) for r in ("north", "south", "east")) * 2

    def test_requires_two_inputs(self, sales_frame):
        with pytest.raises(OperationError):
            Diff("region", "amount").apply([sales_frame])

    def test_missing_column_rejected(self, sales_frame):
        with pytest.raises(OperationError):
            Diff("region", "missing").apply([sales_frame, sales_frame])

    def test_diff_step_is_explainable(self, sales_frame):
        boosted_rows = sales_frame.to_rows()
        for row in boosted_rows:
            if row["region"] == "west":
                row["amount"] *= 3.0
        boosted = DataFrame.from_rows(boosted_rows, column_order=sales_frame.column_names)
        step = ExploratoryStep([sales_frame, boosted], Diff("region", "amount", "mean"))
        report = FedexExplainer(FedexConfig(seed=0)).explain(step)
        assert report.interestingness_scores.get("delta_mean_amount", 0.0) > 0


class TestRollUp:
    def test_rolls_away_last_key(self, sales_frame):
        operation = RollUp(["region", "category"], {"amount": ["mean"]})
        result = operation.apply([sales_frame])
        assert result.column_names[0] == "region"
        assert "category" not in result
        assert result.num_rows == 4

    def test_requires_two_keys(self):
        with pytest.raises(OperationError):
            RollUp(["region"])

    def test_describe_mentions_both_levels(self):
        operation = RollUp(["region", "category"], {"amount": ["mean"]})
        assert "region" in operation.describe() and "category" in operation.describe()

    def test_rollup_step_is_explainable(self, sales_frame):
        step = ExploratoryStep([sales_frame], RollUp(["region", "category"], {"amount": ["mean"]}))
        report = FedexExplainer(FedexConfig(seed=0)).explain(step)
        assert report.interestingness_scores


class TestLineageKeys:
    """Derived OLAP steps are keyed by lineage: fields their descriptions
    leave out (roll-up aggregations, pivot column cap) must still tell two
    steps over the same frame apart."""

    def _explain_twice(self, sales_frame, first, second):
        session = ExplanationSession(config=FedexConfig(seed=0))
        reports = [session.explain(ExploratoryStep([sales_frame], operation))
                   for operation in (first, second)]
        assert session.stats.report_hits == 0
        assert session.stats.report_misses == 2
        return reports

    def test_rollups_differing_in_aggregations_both_miss(self, sales_frame):
        mean, total = self._explain_twice(
            sales_frame,
            RollUp(["region", "category"], {"amount": ["mean"]}),
            RollUp(["region", "category"], {"amount": ["sum"]}),
        )
        assert "mean_amount" in mean.interestingness_scores
        assert "sum_amount" in total.interestingness_scores

    def test_rollups_differing_in_count_column_both_miss(self, sales_frame):
        _, counted = self._explain_twice(
            sales_frame,
            RollUp(["region", "category"], {"amount": ["mean"]}),
            RollUp(["region", "category"], {"amount": ["mean"]}, include_count=True),
        )
        assert "count" in counted.interestingness_scores

    def test_pivots_differing_in_column_cap_both_miss(self, sales_frame):
        full, capped = self._explain_twice(
            sales_frame,
            Pivot("region", "category", "amount", "mean"),
            Pivot("region", "category", "amount", "mean", max_columns=2),
        )
        assert len(capped.interestingness_scores) < len(full.interestingness_scores)
