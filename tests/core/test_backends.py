"""Tests of the intervention-execution backend layer.

The central property: :class:`IncrementalBackend` and
:class:`ExactRerunBackend` are observationally equivalent — same candidate
pools, same skylines, contributions within ``1e-9`` — on every operation
family of the paper (group-by, filter, join, union) over the three
evaluation datasets, while the incremental backend never re-runs the
operation on the sliceable/decomposable paths.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContributionCalculator,
    DiversityMeasure,
    ExactRerunBackend,
    ExceptionalityMeasure,
    FedexConfig,
    FedexExplainer,
    FrequencyPartitioner,
    IncrementalBackend,
    NumericBinningPartitioner,
    ProcessBackend,
    available_backends,
    make_backend,
)
from repro.errors import ExplanationError
from repro.dataframe import Column, Comparison, DataFrame
from repro.operators import ExploratoryStep, Filter, GroupBy, Join, Project, Union


def _assert_reports_equivalent(step, measure=None, config_kwargs=None, tol=1e-9):
    """Explain ``step`` with both backends and compare everything observable."""
    kwargs = dict(config_kwargs or {})
    exact = FedexExplainer(FedexConfig(backend="exact", **kwargs)).explain(step, measure=measure)
    incremental = FedexExplainer(FedexConfig(backend="incremental", **kwargs)).explain(
        step, measure=measure
    )

    assert exact.skyline_keys() == incremental.skyline_keys()
    exact_scores = {
        c.key(): (c.contribution, c.standardized_contribution) for c in exact.all_candidates
    }
    incremental_scores = {
        c.key(): (c.contribution, c.standardized_contribution)
        for c in incremental.all_candidates
    }
    assert set(exact_scores) == set(incremental_scores)
    for key, (raw, std) in exact_scores.items():
        raw_i, std_i = incremental_scores[key]
        assert raw == pytest.approx(raw_i, abs=tol)
        assert std == pytest.approx(std_i, abs=tol)
    return exact, incremental


def _assert_partition_contributions_match(step, measure, partition, attributes, tol=1e-9):
    exact = ContributionCalculator(step, measure, backend="exact")
    incremental = ContributionCalculator(step, measure, backend="incremental")
    for attribute in attributes:
        raw_e = exact.partition_contributions(partition, attribute)
        raw_i = incremental.partition_contributions(partition, attribute)
        assert raw_e == pytest.approx(raw_i, abs=tol)


# ---------------------------------------------------------------- construction
class TestBackendSelection:
    def test_available_backends(self):
        registry = available_backends()
        assert registry["exact"] is ExactRerunBackend
        assert registry["incremental"] is IncrementalBackend
        assert registry["process"] is ProcessBackend
        assert set(registry) == {"exact", "incremental", "process"}

    def test_make_backend_forwards_supported_options_only(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        measure = ExceptionalityMeasure()
        options = {"workers": 2, "context": None}
        process = make_backend("process", step, measure, options=options)
        assert process.workers == 2
        # The exact backend accepts neither option; they must be dropped, not crash.
        exact = make_backend("exact", step, measure, options=options)
        assert isinstance(exact, ExactRerunBackend)

    def test_make_backend_by_name_class_and_instance(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        measure = ExceptionalityMeasure()
        by_name = make_backend("exact", step, measure)
        assert isinstance(by_name, ExactRerunBackend)
        by_class = make_backend(IncrementalBackend, step, measure)
        assert isinstance(by_class, IncrementalBackend)
        assert make_backend(by_name, step, measure) is by_name

    def test_unknown_backend_rejected(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        with pytest.raises(ExplanationError):
            make_backend("turbo", step, ExceptionalityMeasure())
        with pytest.raises(ExplanationError):
            FedexConfig(backend="turbo")

    def test_calculator_defaults_to_incremental(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        calculator = ContributionCalculator(step, ExceptionalityMeasure())
        assert isinstance(calculator.backend, IncrementalBackend)

    def test_engine_uses_configured_backend(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        report = FedexExplainer(FedexConfig(backend="exact")).explain(step)
        assert report.config.backend == "exact"


class TestRawContributionCache:
    def test_partition_pass_runs_once(self, tiny_frame):
        """standardized_contributions reuses the cached raw list (no second pass)."""
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        calculator = ContributionCalculator(step, ExceptionalityMeasure(), backend="exact")
        partition = FrequencyPartitioner().partition(tiny_frame, "decade", 3)

        calls = []
        original = calculator.backend.partition_contributions

        def counting(partition, attribute, baseline):
            calls.append(attribute)
            return original(partition, attribute, baseline)

        calculator.backend.partition_contributions = counting
        raw = calculator.partition_contributions(partition, "decade")
        standardized = calculator.standardized_contributions(partition, "decade")
        assert calls == ["decade"]
        assert len(standardized) == len(raw)

    def test_cached_list_is_copied(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        calculator = ContributionCalculator(step, ExceptionalityMeasure())
        partition = FrequencyPartitioner().partition(tiny_frame, "decade", 3)
        first = calculator.partition_contributions(partition, "decade")
        first[0] = 123.0
        assert calculator.partition_contributions(partition, "decade")[0] != 123.0


# ------------------------------------------------------------- structural hooks
class TestOperationHooks:
    def test_filter_row_mask_reconstructs_output(self, tiny_frame):
        operation = Filter(Comparison("popularity", ">", 65))
        sources = operation.row_mask([tiny_frame])
        output = operation.apply([tiny_frame])
        assert sources[0].shape[0] == output.num_rows
        assert tiny_frame.take(sources[0]) == output

    def test_union_row_mask_covers_all_inputs(self, tiny_frame):
        operation = Union()
        inputs = [tiny_frame, tiny_frame]
        sources = operation.row_mask(inputs)
        output = operation.apply(inputs)
        assert all(src.shape[0] == output.num_rows for src in sources)
        # Every output row derives from exactly one input.
        derived = sum((src >= 0).astype(int) for src in sources)
        assert np.all(derived == 1)

    def test_project_row_mask_is_identity(self, tiny_frame):
        operation = Project(["year", "decade"])
        sources = operation.row_mask([tiny_frame])
        assert np.array_equal(sources[0], np.arange(tiny_frame.num_rows))

    def test_inner_join_row_mask_reconstructs_output_keys(self):
        left = DataFrame({"k": np.asarray([1.0, 2.0, 3.0]), "a": np.asarray([10.0, 20.0, 30.0])})
        right = DataFrame({"k": np.asarray([2.0, 2.0, 3.0]), "b": np.asarray([1.0, 2.0, 3.0])})
        operation = Join("k")
        output = operation.apply([left, right])
        left_src, right_src = operation.row_mask([left, right])
        assert np.array_equal(left["k"].values[left_src], output["k"].values)
        assert np.array_equal(right["b"].values[right_src], output["b"].values)

    def test_left_join_right_removals_not_sliceable(self):
        left = DataFrame({"k": np.asarray([1.0, 2.0]), "a": np.asarray([1.0, 2.0])})
        right = DataFrame({"k": np.asarray([2.0]), "b": np.asarray([9.0])})
        sources = Join("k", how="left").row_mask([left, right])
        assert sources[1] is None
        assert sources[0].shape[0] == 2

    def test_groupby_decomposable_aggregates(self):
        specs = GroupBy("g", {"v": ["mean", "max"]}, include_count=True).decomposable_aggregates()
        assert specs == {"mean_v": ("mean", "v"), "max_v": ("max", "v"), "count": ("count", None)}

    def test_groupby_median_and_std_decomposable(self):
        specs = GroupBy("g", {"v": ["median", "std"]}).decomposable_aggregates()
        assert specs == {"median_v": ("median", "v"), "std_v": ("std", "v")}

    def test_base_operation_hooks_default_to_none(self, tiny_frame):
        operation = GroupBy("decade")
        assert operation.row_mask([tiny_frame]) is None


# ------------------------------------------------------ end-to-end equivalence
class TestBackendEquivalenceSpotify:
    def test_groupby_all_decomposable_aggregates(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy(
            "decade",
            {"loudness": ["mean", "min", "max", "sum"], "popularity": ["mean"]},
            include_count=True,
        ))
        _assert_reports_equivalent(step)

    def test_groupby_with_pre_filter(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy(
            "decade", {"loudness": ["mean"]}, pre_filter=Comparison("year", ">=", 1990)
        ))
        _assert_reports_equivalent(step)

    def test_groupby_median_and_std_aggregates(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy(
            "decade", {"loudness": ["median", "std"]}
        ))
        exact, incremental = _assert_reports_equivalent(step)
        assert exact.skyline_candidates  # the incremental paths find explanations too

    def test_filter_step(self, spotify_small):
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        _assert_reports_equivalent(step)

    def test_filter_on_categorical_column(self, spotify_small):
        step = ExploratoryStep([spotify_small], Filter(Comparison("decade", "==", "2010s")))
        _assert_reports_equivalent(step)

    def test_union_step(self, spotify_small):
        early = spotify_small.filter(Comparison("year", "<", 1990))
        late = spotify_small.filter(Comparison("year", ">=", 1990))
        step = ExploratoryStep([early, late], Union())
        _assert_reports_equivalent(step)

    def test_exceptionality_override_on_groupby_falls_back(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        _assert_reports_equivalent(step, measure="exceptionality")


class TestBackendEquivalenceCredit:
    def test_multi_key_groupby(self, credit_small):
        step = ExploratoryStep([credit_small], GroupBy(
            ["Education_Level", "Marital_Status"],
            {"Credit_Limit": ["mean", "min"]},
            include_count=True,
        ))
        _assert_reports_equivalent(step)

    def test_categorical_filter(self, credit_small):
        step = ExploratoryStep([credit_small], Filter(
            Comparison("Attrition_Flag", "==", "Attrited Customer")
        ))
        _assert_reports_equivalent(step)


class TestBackendEquivalenceProducts:
    def test_inner_join(self, products_and_sales_small):
        products, sales = products_and_sales_small
        step = ExploratoryStep([products, sales], Join("item"))
        _assert_reports_equivalent(step)

    def test_left_join_right_input_incremental(self, products_and_sales_small):
        products, sales = products_and_sales_small
        step = ExploratoryStep([products, sales], Join("item", how="left"))
        _assert_reports_equivalent(step)

    def test_join_partition_contributions_on_right_input(self, products_and_sales_small):
        """Row sets of the *right* join input go through the slicing path too."""
        products, sales = products_and_sales_small
        step = ExploratoryStep([products, sales], Join("item"))
        partition = FrequencyPartitioner().partition(sales, "county", 5, input_index=1)
        _assert_partition_contributions_match(
            step, ExceptionalityMeasure(), partition, ["county", "total"]
        )


class TestIncrementalInternals:
    def test_slicing_paths_never_rerun(self, spotify_small):
        """On a filter step the incremental backend must not fall back."""
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        backend = IncrementalBackend(step, ExceptionalityMeasure())
        calculator = ContributionCalculator(step, ExceptionalityMeasure(), backend=backend)
        partition = FrequencyPartitioner().partition(spotify_small, "decade", 5)
        calculator.partition_contributions(partition, "decade")
        assert not backend._fallback._reduced_cache

    def test_groupby_paths_never_rerun(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        backend = IncrementalBackend(step, DiversityMeasure())
        calculator = ContributionCalculator(step, DiversityMeasure(), backend=backend)
        partition = NumericBinningPartitioner().partition(spotify_small, "year", 5)
        calculator.partition_contributions(partition, "mean_loudness")
        assert not backend._fallback._reduced_cache

    def test_groupby_median_std_paths_never_rerun(self, spotify_small):
        step = ExploratoryStep([spotify_small], GroupBy(
            "decade", {"loudness": ["median", "std"]}
        ))
        backend = IncrementalBackend(step, DiversityMeasure())
        calculator = ContributionCalculator(step, DiversityMeasure(), backend=backend)
        partition = NumericBinningPartitioner().partition(spotify_small, "year", 5)
        calculator.partition_contributions(partition, "median_loudness")
        calculator.partition_contributions(partition, "std_loudness")
        assert not backend._fallback._reduced_cache

    def test_infinite_aggregate_values_survive_min_max(self):
        """Genuine +/-inf values must not be mistaken for the empty-group sentinel."""
        frame = DataFrame({
            "k": np.asarray(["a", "a", "b", "b", "c", "c"], dtype=object),
            "p": np.asarray(["x", "y", "x", "y", "x", "y"], dtype=object),
            "v": np.asarray([1.0, np.inf, 2.0, 3.0, 4.0, -np.inf]),
        })
        step = ExploratoryStep([frame], GroupBy("k", {"v": ["max", "min"]}))
        partition = FrequencyPartitioner().partition(frame, "p", 2)
        for attribute in ("max_v", "min_v"):
            exact = ContributionCalculator(step, DiversityMeasure(), backend="exact")
            incremental = ContributionCalculator(step, DiversityMeasure(), backend="incremental")
            raw_e = exact.partition_contributions(partition, attribute)
            raw_i = incremental.partition_contributions(partition, attribute)
            for value_e, value_i in zip(raw_e, raw_i):
                if np.isnan(value_e):
                    assert np.isnan(value_i)
                else:
                    assert value_e == pytest.approx(value_i, abs=1e-9)

    def test_no_op_intervention_contributes_exactly_zero(self, spotify_small):
        """Sets fully outside the pre-filter must yield a bit-exact 0.0."""
        step = ExploratoryStep([spotify_small], GroupBy(
            "decade", {"loudness": ["mean"]}, pre_filter=Comparison("year", ">=", 3000)
        ))
        calculator = ContributionCalculator(step, DiversityMeasure())
        partition = FrequencyPartitioner().partition(spotify_small, "decade", 3)
        raw = calculator.partition_contributions(partition, "mean_loudness")
        assert raw == [0.0] * len(partition.sets)


# -------------------------------------------------------- left join, right side
class TestLeftJoinRightSide:
    """Right-side removals of a left join: the incremental plan vs the oracle.

    Removing right rows is not a slice of the output — left rows whose
    matches all disappear resurface as unmatched — so this family has its
    own plan (:class:`_LeftJoinRightPlan`) built on the join's match
    structure.  Every test compares against :class:`ExactRerunBackend`
    bit-for-bit (the plan assembles the same value arrays in the same
    order) and asserts the plan actually engaged (no fallback rerun).
    """

    def _tiny_join(self):
        # k=2 has two matches, k=3 one, k=4 none; removing both k=2 right
        # rows resurrects the k=2 left rows as unmatched.
        left = DataFrame({
            "k": np.asarray([1.0, 2.0, 2.0, 3.0, 4.0]),
            "a": np.asarray([10.0, 20.0, 21.0, 30.0, 40.0]),
            "c": np.asarray(["p", "q", "q", "r", "s"], dtype=object),
        })
        right = DataFrame({
            "k": np.asarray([1.0, 2.0, 2.0, 3.0, 9.0]),
            "b": np.asarray([1.5, 2.5, 2.6, 3.5, 9.5]),
            "d": np.asarray(["x", "y", "y", "z", "w"], dtype=object),
        })
        return left, right, ExploratoryStep([left, right], Join("k", how="left"))

    def _right_sets(self, right, attribute):
        from repro.core.partition import RowSet

        combos = [np.asarray([1, 2]), np.asarray([0]), np.asarray([3, 4]),
                  np.asarray([0, 1, 2, 3, 4]), np.asarray([], dtype=np.int64)]
        return [
            RowSet(label=f"s{i}", indices=idx.astype(np.int64), source_attribute=attribute,
                   label_attribute=attribute, method="frequency", input_index=1)
            for i, idx in enumerate(combos)
        ]

    @pytest.mark.parametrize("attribute", ["a", "b", "c", "d", "k"])
    def test_exceptionality_matches_oracle_bitwise(self, attribute):
        left, right, step = self._tiny_join()
        measure = ExceptionalityMeasure()
        exact = ExactRerunBackend(step, measure)
        incremental = IncrementalBackend(step, measure)
        for row_set in self._right_sets(right, attribute):
            assert incremental.reduced_score(row_set, attribute) == \
                exact.reduced_score(row_set, attribute)
        assert not incremental._fallback._reduced_cache

    @pytest.mark.parametrize("attribute", ["a", "b", "k"])
    def test_diversity_matches_oracle_bitwise(self, attribute):
        left, right, step = self._tiny_join()
        measure = DiversityMeasure()
        exact = ExactRerunBackend(step, measure)
        incremental = IncrementalBackend(step, measure)
        for row_set in self._right_sets(right, attribute):
            assert incremental.reduced_score(row_set, attribute) == \
                exact.reduced_score(row_set, attribute)
        assert not incremental._fallback._reduced_cache

    def test_collision_suffixed_columns(self):
        """Shared non-key column names resolve through the suffix mapping."""
        left = DataFrame({"k": np.asarray([1.0, 2.0, 3.0]),
                          "v": np.asarray([5.0, 6.0, 7.0])})
        right = DataFrame({"k": np.asarray([2.0, 3.0, 3.0]),
                           "v": np.asarray([1.0, 2.0, 3.0])})
        step = ExploratoryStep([left, right], Join("k", how="left"))
        assert "v_left" in step.output and "v_right" in step.output
        measure = DiversityMeasure()
        exact = ExactRerunBackend(step, measure)
        incremental = IncrementalBackend(step, measure)
        for attribute in ("v_left", "v_right"):
            for row_set in self._right_sets(right, attribute)[:4]:
                row_set.indices = row_set.indices[row_set.indices < right.num_rows]
                assert incremental.reduced_score(row_set, attribute) == \
                    exact.reduced_score(row_set, attribute)
        assert not incremental._fallback._reduced_cache

    def test_right_side_partition_never_reruns(self, products_and_sales_small):
        products, sales = products_and_sales_small
        step = ExploratoryStep([products, sales], Join("item", how="left"))
        backend = IncrementalBackend(step, ExceptionalityMeasure())
        calculator = ContributionCalculator(step, ExceptionalityMeasure(), backend=backend)
        partition = FrequencyPartitioner().partition(sales, "county", 5, input_index=1)
        calculator.partition_contributions(partition, "county")
        assert not backend._fallback._reduced_cache

    def test_right_side_partition_matches_oracle(self, products_and_sales_small):
        products, sales = products_and_sales_small
        step = ExploratoryStep([products, sales], Join("item", how="left"))
        partition = FrequencyPartitioner().partition(sales, "county", 5, input_index=1)
        _assert_partition_contributions_match(
            step, ExceptionalityMeasure(), partition, ["county", "total"], tol=0.0
        )

    def test_sales_side_full_engine(self, products_and_sales_small):
        """Left join with the dimension table on the right (the lookup shape)."""
        products, sales = products_and_sales_small
        step = ExploratoryStep([sales, products], Join("item", how="left"))
        _assert_reports_equivalent(step, tol=0.0)


class TestExactBackendKeying:
    def test_label_collisions_never_share_materialisations(self, tiny_frame):
        """Two sets with equal display labels but different rows must not collide.

        Binning labels keep three significant digits, so different intervals
        of different granularities can render identically — the exact
        backend keys its memo on the removed-row content, never the label.
        """
        from repro.core.partition import RowSet

        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        backend = ExactRerunBackend(step, ExceptionalityMeasure())
        first = RowSet(label="[1.0, 2.0)", indices=np.asarray([0, 1], dtype=np.int64),
                       source_attribute="year", label_attribute="year", method="binning")
        second = RowSet(label="[1.0, 2.0)", indices=np.asarray([2, 3], dtype=np.int64),
                        source_attribute="year", label_attribute="year", method="binning")
        _, output_first = backend.reduced_step(first)
        _, output_second = backend.reduced_step(second)
        assert output_first is not output_second
        assert len(backend._reduced_cache) == 2


# -------------------------------------------------------------- property-style
_values = st.lists(
    st.one_of(st.floats(min_value=-100, max_value=100, allow_nan=False), st.just(float("nan"))),
    min_size=8, max_size=40,
)
_labels = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=8, max_size=40)


def _property_frame(values, labels):
    n = min(len(values), len(labels))
    return DataFrame({
        "value": np.asarray(values[:n], dtype=float),
        "label": np.asarray(labels[:n], dtype=object),
    })


@given(_values, _labels)
@settings(max_examples=25, deadline=None)
def test_property_groupby_backends_agree(values, labels):
    frame = _property_frame(values, labels)
    if frame["label"].n_unique() < 2:
        return
    step = ExploratoryStep([frame], GroupBy(
        "label", {"value": ["mean", "min", "max", "sum", "median", "std"]}, include_count=True
    ))
    partition = FrequencyPartitioner().partition(frame, "label", 3)
    if partition is None:
        return
    measure = DiversityMeasure()
    for attribute in ("mean_value", "min_value", "max_value", "sum_value",
                      "median_value", "std_value", "count"):
        exact = ContributionCalculator(step, measure, backend="exact")
        incremental = ContributionCalculator(step, measure, backend="incremental")
        raw_e = exact.partition_contributions(partition, attribute)
        raw_i = incremental.partition_contributions(partition, attribute)
        assert raw_e == pytest.approx(raw_i, abs=1e-9)


@given(_values, _labels, st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_property_filter_backends_agree(values, labels, threshold):
    frame = _property_frame(values, labels)
    step = ExploratoryStep([frame], Filter(Comparison("value", ">", threshold)))
    measure = ExceptionalityMeasure()
    for attribute_column in ("label", "value"):
        partition = FrequencyPartitioner().partition(frame, "label", 3)
        if partition is None:
            return
        exact = ContributionCalculator(step, measure, backend="exact")
        incremental = ContributionCalculator(step, measure, backend="incremental")
        raw_e = exact.partition_contributions(partition, attribute_column)
        raw_i = incremental.partition_contributions(partition, attribute_column)
        assert raw_e == pytest.approx(raw_i, abs=1e-9)
