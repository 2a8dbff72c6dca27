"""Tests of the exploration-session service layer.

Two families: behavioural equivalence (explaining through a session yields
the same report contents as the stateless engine, cold or warm) and state
reuse (overlapping steps share partitions/structure, wrappers share
engines).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import ExplainableDataFrame, ExplanationService, FedexExplainer
from repro.core import FedexConfig
from repro.core.backends.process import PROCESS_STATS
from repro.dataframe import Comparison
from repro.errors import ExplanationError
from repro.operators import ExploratoryStep, Filter, GroupBy
from repro.session import ExplanationSession, SessionCache


def _assert_same_report(first, second, tol=0.0):
    assert first.skyline_keys() == second.skyline_keys()
    first_scores = {
        c.key(): (c.contribution, c.standardized_contribution) for c in first.all_candidates
    }
    second_scores = {
        c.key(): (c.contribution, c.standardized_contribution) for c in second.all_candidates
    }
    assert set(first_scores) == set(second_scores)
    for key, (raw, std) in first_scores.items():
        raw_s, std_s = second_scores[key]
        assert raw == pytest.approx(raw_s, abs=tol)
        assert std == pytest.approx(std_s, abs=tol)


class TestSessionEquivalence:
    def test_session_matches_stateless_engine(self, spotify_small):
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        stateless = FedexExplainer(FedexConfig()).explain(step)
        session = ExplanationSession()
        _assert_same_report(stateless, session.explain(step))

    def test_overlapping_steps_match_stateless_engine(self, spotify_small):
        """Warm structure (partitions, argsorts) must not change any score."""
        session = ExplanationSession()
        thresholds = (60, 65, 70)
        for threshold in thresholds:
            step = ExploratoryStep(
                [spotify_small], Filter(Comparison("popularity", ">", threshold))
            )
            stateless = FedexExplainer(FedexConfig()).explain(step)
            _assert_same_report(stateless, session.explain(step))
        assert session.stats.partition_hits > 0

    def test_groupby_structure_reused_across_aggregations(self, spotify_small):
        """Re-aggregating the same grouping reuses the per-group row assignment."""
        session = ExplanationSession()
        first = ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        second = ExploratoryStep([spotify_small], GroupBy("decade", {"popularity": ["sum"]}))
        session.explain(first)
        baseline_hits = session.stats.structure_hits
        stateless = FedexExplainer(FedexConfig()).explain(second)
        _assert_same_report(stateless, session.explain(second))
        assert session.stats.structure_hits > baseline_hits

    def test_session_with_process_backend(self, spotify_small):
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        serial = FedexExplainer(FedexConfig()).explain(step)
        session = ExplanationSession(
            config=FedexConfig(backend="process", workers=2, spill_bytes=0))
        before = PROCESS_STATS.snapshot()
        _assert_same_report(serial, session.explain(step))
        # The in-memory input was spilled and the grid really crossed processes.
        delta = PROCESS_STATS.delta(before)
        assert delta["shards_completed"] > 0
        assert delta["serial_retries"] == 0


class _WeakStep(ExploratoryStep):
    """A plain subclass: the slotted ExploratoryStep takes no weakref."""


class TestMemoryBound:
    @pytest.mark.parametrize("route", ["session", "service"])
    def test_explained_step_is_not_pinned(self, spotify_small, route):
        """The store's byte budget is the only bound on what a session
        keeps: no reference to an explained step outlives the request."""
        step = _WeakStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        alive = weakref.ref(step)
        with ExplanationService() as service:
            if route == "session":
                session = ExplanationSession()
                session.explain(step)
            else:
                session = service.session("alice")
                service.explain("alice", step)
            del step
            gc.collect()
            assert alive() is None
            assert session.stats.report_misses == 1


class TestSessionExplainable:
    def test_open_routes_explains_through_session(self, spotify_small):
        session = ExplanationSession()
        songs = session.open(spotify_small)
        popular = songs.filter(Comparison("popularity", ">", 65))
        first = popular.explain()
        second = popular.explain()
        assert second is first
        assert session.stats.report_hits == 1

    def test_derived_wrappers_keep_the_session(self, spotify_small):
        session = ExplanationSession()
        songs = session.open(spotify_small)
        recent = songs.filter(Comparison("year", ">=", 1990))
        popular = recent.filter(Comparison("popularity", ">", 65))
        popular.explain()
        popular.explain()
        assert session.stats.report_hits == 1

    def test_open_without_steps_still_raises(self, spotify_small):
        session = ExplanationSession()
        songs = session.open(spotify_small)
        with pytest.raises(ExplanationError):
            songs.explain()

    def test_plain_wrapper_reuses_one_explainer(self, spotify_small):
        """Without a session, repeated explains share a FedexExplainer."""
        songs = ExplainableDataFrame(spotify_small)
        popular = songs.filter(Comparison("popularity", ">", 65))
        popular.explain()
        assert len(popular._explainers) == 1
        explainer = next(iter(popular._explainers.values()))
        popular.explain()
        assert next(iter(popular._explainers.values())) is explainer

    def test_derived_wrappers_share_the_explainer_pool(self, spotify_small):
        songs = ExplainableDataFrame(spotify_small)
        recent = songs.filter(Comparison("year", ">=", 1990))
        popular = recent.filter(Comparison("popularity", ">", 65))
        recent.explain()
        popular.explain()
        assert popular._explainers is songs._explainers
        assert len(popular._explainers) == 1

    def test_explain_with_target_columns_still_works(self, spotify_small):
        session = ExplanationSession()
        songs = session.open(spotify_small)
        popular = songs.filter(Comparison("popularity", ">", 65))
        report = popular.explain(target_columns=["popularity"])
        assert report.selected_columns == ["popularity"]


class TestLossyDescriptions:
    def test_row_index_predicates_never_collide(self, spotify_small):
        """RowIndexPredicate.describe() summarises; the cache must not key on it."""
        from repro.dataframe.predicates import RowIndexPredicate

        session = ExplanationSession()
        first = ExploratoryStep([spotify_small], Filter(RowIndexPredicate(range(0, 100))))
        second = ExploratoryStep([spotify_small], Filter(RowIndexPredicate(range(100, 200))))
        for step in (first, second):
            stateless = FedexExplainer(FedexConfig()).explain(step)
            _assert_same_report(stateless, session.explain(step))

    def test_row_index_pre_filters_never_collide(self, spotify_small):
        from repro.dataframe.predicates import RowIndexPredicate

        session = ExplanationSession()
        for rows in (range(0, 2000), range(2000, 4000)):
            step = ExploratoryStep([spotify_small], GroupBy(
                "decade", {"loudness": ["mean"]}, pre_filter=RowIndexPredicate(rows)
            ))
            stateless = FedexExplainer(FedexConfig()).explain(step)
            _assert_same_report(stateless, session.explain(step))


class TestScoreCache:
    """Phase-1 interestingness scores are memoized by content, not by config."""

    def test_scores_reused_across_different_configs(self, spotify_small):
        """A config change misses the report memo but hits the score cache."""
        session = ExplanationSession()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        session.explain(step)
        assert session.stats.score_misses > 0
        misses_after_cold = session.stats.score_misses
        report = session.explain(step, config=FedexConfig(top_k_explanations=1))
        assert session.stats.report_hits == 0  # different config signature
        assert session.stats.score_hits > 0
        assert session.stats.score_misses == misses_after_cold
        stateless = FedexExplainer(FedexConfig(top_k_explanations=1)).explain(step)
        assert report.interestingness_scores == stateless.interestingness_scores
        _assert_same_report(stateless, report)

    def test_scores_keyed_by_measure(self, spotify_small):
        session = ExplanationSession()
        step = ExploratoryStep([spotify_small], GroupBy("decade", {"loudness": ["mean"]}))
        session.explain(step)
        misses = session.stats.score_misses
        session.explain(step, measure="exceptionality")
        assert session.stats.score_misses > misses  # different measure, new keys

    def test_mutated_frame_misses_score_cache(self, spotify_small):
        session = ExplanationSession()
        mutable = spotify_small.copy()
        step = ExploratoryStep([mutable], Filter(Comparison("popularity", ">", 65)))
        session.explain(step)
        misses = session.stats.score_misses
        mutable["loudness"].values[0] += 1.0
        session.explain(ExploratoryStep([mutable], Filter(Comparison("popularity", ">", 65))),
                        config=FedexConfig(top_k_explanations=1))
        assert session.stats.score_hits == 0
        assert session.stats.score_misses > misses

    def test_sampling_config_participates_in_the_key(self, spotify_small):
        session = ExplanationSession()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        session.explain(step, config=FedexConfig(sample_size=1_000, seed=1))
        misses = session.stats.score_misses
        session.explain(step, config=FedexConfig(sample_size=1_000, seed=2))
        assert session.stats.score_hits == 0  # different seed -> different sample
        assert session.stats.score_misses > misses

    def test_custom_measures_never_score_cached(self, spotify_small):
        """A FunctionMeasure's identity is not content-addressable; skip caching."""
        from repro.core import FunctionMeasure, default_registry

        registry = default_registry()
        registry.register(FunctionMeasure("constant", lambda i, s, o, a: 1.0))
        session = ExplanationSession(registry=registry)
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        session.explain(step, measure="constant")
        assert session.stats.score_misses == 0
        assert session.stats.score_hits == 0

    def test_overlapping_target_columns_share_scores(self, spotify_small):
        """Per-attribute keys: a narrowed column set reuses the overlap."""
        session = ExplanationSession()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        session.explain(step, config=FedexConfig(target_columns=["popularity", "loudness"]))
        hits = session.stats.score_hits
        session.explain(step, config=FedexConfig(target_columns=["popularity"]))
        assert session.stats.score_hits > hits


class TestStructureToggle:
    def test_shared_cache_across_sessions(self, spotify_small):
        cache = SessionCache()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        first = ExplanationSession(cache=cache)
        second = ExplanationSession(cache=cache)
        report = first.explain(step)
        assert second.explain(step) is report

    def test_shared_cache_never_crosses_environments(self, spotify_small):
        """A custom-registry session's reports must not serve a default one."""
        from repro.core import default_registry

        cache = SessionCache()
        step = ExploratoryStep([spotify_small], Filter(Comparison("popularity", ">", 65)))
        custom = ExplanationSession(registry=default_registry(), cache=cache)
        default = ExplanationSession(cache=cache)
        report = custom.explain(step)
        assert default.explain(step) is not report
        # Two custom-environment sessions do not share either (their
        # registries cannot be compared by content).
        other_custom = ExplanationSession(registry=default_registry(), cache=cache)
        assert other_custom.explain(step) is not report
