"""Unit tests for ExploratoryStep."""

from __future__ import annotations

import pytest

from repro.dataframe import Comparison
from repro.errors import OperationError
from repro.operators import ExploratoryStep, Filter, GroupBy


class TestConstruction:
    def test_output_computed_when_missing(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        assert step.output.num_rows == 4

    def test_single_frame_input_is_wrapped(self, tiny_frame):
        step = ExploratoryStep(tiny_frame, Filter(Comparison("popularity", ">", 65)))
        assert step.primary_input is tiny_frame

    def test_explicit_output_is_kept(self, tiny_frame):
        output = tiny_frame.head(1)
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)), output=output)
        assert step.output is output

    def test_empty_inputs_rejected(self):
        with pytest.raises(OperationError):
            ExploratoryStep([], Filter(Comparison("x", ">", 1)))

    def test_arity_checked(self, tiny_frame):
        with pytest.raises(OperationError):
            ExploratoryStep([tiny_frame, tiny_frame], Filter(Comparison("popularity", ">", 65)))


class TestDerivedOutput:
    def test_derived_output_is_computed_on_first_access_only(self, tiny_frame,
                                                             monkeypatch):
        calls = []
        original = Filter.apply
        monkeypatch.setattr(Filter, "apply",
                            lambda self, inputs: calls.append(1) or original(self, inputs))
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        assert step._output is None and calls == []
        output = step.output
        assert step.output is output and len(calls) == 1

    def test_explicit_output_is_not_derived(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)),
                               output=tiny_frame.head(1))
        assert step._output is not None
        assert not step.lineage_matches(("any",))

    def test_lineage_recorded_while_pending(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        assert step.lineage_matches(("v1",))
        step.output  # materialised from the inputs the check saw
        assert step.lineage_matches(("v1",))
        assert not step.lineage_matches(("v2",))  # lineage changed since

    def test_output_materialised_before_any_check_has_no_lineage(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        step.output
        assert not step.lineage_matches(("v1",))


class TestBehaviour:
    def test_rerun_on_new_inputs(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        rerun = step.rerun([tiny_frame.head(4)])
        assert rerun.num_rows == 0

    def test_with_inputs_replaced(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        replaced = step.with_inputs_replaced(0, tiny_frame.head(2))
        assert replaced[0].num_rows == 2
        assert step.inputs[0].num_rows == tiny_frame.num_rows

    def test_with_inputs_replaced_bad_index(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], Filter(Comparison("popularity", ">", 65)))
        with pytest.raises(OperationError):
            step.with_inputs_replaced(3, tiny_frame)

    def test_is_multi_input(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], GroupBy("decade"))
        assert not step.is_multi_input

    def test_describe_includes_label_and_shapes(self, tiny_frame):
        step = ExploratoryStep([tiny_frame], GroupBy("decade"), label="Q24")
        text = step.describe()
        assert "Q24" in text and "8x4" in text
