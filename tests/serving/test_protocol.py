"""The serving wire format: request validation and response documents."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import FedexConfig
from repro.core import FedexExplainer
from repro.errors import ServingRequestError, UnknownDatasetError
from repro.operators import Filter
from repro.serving import parse_explain_request, report_document, dump_json
from repro.serving.protocol import MAX_REQUEST_BYTES


def _body(document) -> bytes:
    return json.dumps(document).encode("utf-8")


@pytest.fixture
def resolver(spotify_small):
    frames = {"spotify": spotify_small}
    return frames.__getitem__


BASE = FedexConfig(seed=0)


class TestValidRequests:
    def test_filter_query_parses_into_a_step(self, resolver, spotify_small):
        request = parse_explain_request(
            _body({"query": "SELECT * FROM spotify WHERE popularity > 65"}),
            resolver, BASE)
        assert isinstance(request.step.operation, Filter)
        assert request.step.inputs[0] is spotify_small
        assert request.measure is None
        assert request.config is None

    def test_measure_and_config_flow_through(self, resolver):
        request = parse_explain_request(
            _body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                   "measure": "exceptionality",
                   "config": {"top_k_explanations": 2, "seed": 3}}),
            resolver, BASE)
        assert request.measure == "exceptionality"
        assert request.config.top_k_explanations == 2
        assert request.config.seed == 3
        # Untouched fields inherit from the server's base config.
        assert request.config.top_k_columns == BASE.top_k_columns

    def test_list_overrides_become_tuples(self, resolver):
        request = parse_explain_request(
            _body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                   "config": {"target_columns": ["loudness", "energy"]}}),
            resolver, BASE)
        assert request.config.target_columns == ("loudness", "energy")

    def test_nested_subquery_materialises_inner_step(self, resolver,
                                                     spotify_small):
        request = parse_explain_request(
            _body({"query": "SELECT decade, AVG(loudness) FROM "
                            "[SELECT * FROM spotify WHERE popularity > 65] "
                            "GROUP BY decade"}),
            resolver, BASE)
        inner_output = request.step.inputs[0]
        assert inner_output is not spotify_small
        assert inner_output.num_rows < spotify_small.num_rows


class TestRejectedRequests:
    def _refused(self, body, resolver, exc=ServingRequestError):
        with pytest.raises(exc):
            parse_explain_request(body, resolver, BASE)

    def test_oversized_body(self, resolver):
        query = "SELECT * FROM spotify WHERE popularity > 65"
        padding = "x" * MAX_REQUEST_BYTES
        self._refused(_body({"query": query + " -- " + padding}), resolver)

    def test_invalid_json(self, resolver):
        self._refused(b"{not json", resolver)

    def test_non_object_body(self, resolver):
        self._refused(_body(["a", "list"]), resolver)

    def test_unknown_top_level_field(self, resolver):
        self._refused(_body({"query": "SELECT * FROM spotify WHERE x > 1",
                             "tenant": "mallory"}), resolver)

    @pytest.mark.parametrize("query", [None, "", "   ", 7])
    def test_missing_or_empty_query(self, resolver, query):
        self._refused(_body({"query": query}), resolver)

    def test_unparseable_query(self, resolver):
        self._refused(_body({"query": "DELETE FROM spotify"}), resolver)

    def test_non_string_measure(self, resolver):
        self._refused(_body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                             "measure": 3}), resolver)

    def test_config_must_be_object(self, resolver):
        self._refused(_body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                             "config": [1, 2]}), resolver)

    @pytest.mark.parametrize("key", ["workers", "backend", "nope"])
    def test_non_whitelisted_overrides_refused(self, resolver, key):
        self._refused(_body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                             "config": {key: 1}}), resolver)

    def test_invalid_override_value(self, resolver):
        self._refused(_body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                             "config": {"sample_size": -3}}), resolver)

    @pytest.mark.parametrize("overrides", [
        {"top_k_explanations": -1},
        {"top_k_explanations": 0},
        {"top_k_columns": 0},
        {"top_k_columns": -1},
        {"use_skyline": "no"},
        {"top_k_explanations": "x"},
        {"top_k_explanations": 1.5},
        {"top_k_columns": "2"},
        {"sample_size": True},
        {"exclude_columns": 5},
        {"seed": "abc", "sample_size": 500},
        {"interestingness_weight": float("nan")},
        {"contribution_weight": float("nan")},
        {"interestingness_weight": float("inf")},
        {"interestingness_weight": float("inf"), "contribution_weight": float("inf")},
    ], ids=repr)
    def test_malformed_override_values_refused(self, resolver, overrides):
        """Each of these used to answer 200 with a changed answer or 500."""
        self._refused(_body({"query": "SELECT * FROM spotify WHERE popularity > 65",
                             "config": overrides}), resolver)

    def test_unknown_table_is_404(self, resolver):
        self._refused(_body({"query": "SELECT * FROM missing WHERE x > 1"}),
                      resolver, exc=UnknownDatasetError)
        assert UnknownDatasetError.http_status == 404

    def test_resolver_failure_is_404(self):
        def broken(name):
            raise OSError("disk on fire")

        self._refused(_body({"query": "SELECT * FROM spotify WHERE x > 1"}),
                      broken, exc=UnknownDatasetError)


class TestResponseDocuments:
    def test_report_document_shape_and_json_clean(self, spotify_small):
        from repro import Comparison, ExploratoryStep

        step = ExploratoryStep([spotify_small],
                               Filter(Comparison("popularity", ">", 65)))
        report = FedexExplainer(BASE).explain(step)
        document = report_document(report)
        assert document["explanations"]
        assert document["candidates"] == len(report.all_candidates)
        assert document["skyline_keys"]
        # dump_json must serialise every NumPy artefact the report carries.
        payload = dump_json(document)
        assert json.loads(payload)["selected_columns"] == list(
            report.selected_columns)

    def test_dump_json_is_deterministic(self):
        a = dump_json({"b": np.int64(2), "a": np.float64(1.5),
                       "c": np.asarray([1, 2])})
        b = dump_json({"a": 1.5, "c": [1, 2], "b": 2})
        assert a == b  # key order and NumPy types never change the bytes
