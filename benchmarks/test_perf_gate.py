"""The perf gate judged against synthetic BENCH_*.json trajectories."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perf_gate import (
    DEFAULT_THRESHOLD,
    Verdict,
    decayed_median,
    gate_area,
    host_key,
    main,
    ratio_fields,
    update_waiver,
)

HOST = {
    "python": "3.11.7",
    "implementation": "CPython",
    "platform": "Linux-test",
    "machine": "x86_64",
    "cpu_count": 4,
    "gil_disabled": False,
}


def write_area(directory: Path, area: str, payloads) -> Path:
    """A BENCH_<area>.json of runs with the shared HOST stamped on."""
    runs = [{"recorded_at": f"2026-01-{i + 1:02d}T00:00:00+00:00",
             "host": dict(payload.pop("host", HOST)), **payload}
            for i, payload in enumerate(payloads)]
    path = directory / f"BENCH_{area}.json"
    path.write_text(json.dumps({"area": area, "schema": 1, "runs": runs}))
    return path


def statuses(verdicts):
    return {(v.field, v.status) for v in verdicts}


class TestRatioFields:
    def test_walks_nested_dicts_and_step_labelled_lists(self):
        payload = {
            "serial": [
                {"step": "filter", "speedup": 4.0, "exact_s": 1.0},
                {"step": "join", "speedup": 2.0},
            ],
            "pool": {"speedup": 1.5, "workers": 4},
            "throughput": 3.0,
            "warm": 0.5,  # absolute latency: not a ratio field
        }
        fields = dict(ratio_fields(payload))
        assert fields == {
            "serial.filter.speedup": 4.0,
            "serial.join.speedup": 2.0,
            "pool.speedup": 1.5,
            "throughput": 3.0,
        }

    def test_waivered_subtree_is_invisible(self):
        payload = {
            "pool": {"speedup": 0.1, "waiver": "single-core host"},
            "warm_speedup": 9.0,
        }
        assert dict(ratio_fields(payload)) == {"warm_speedup": 9.0}

    def test_booleans_and_strings_are_not_ratios(self):
        payload = {"speedup": True, "throughput": "fast", "warm_speedup": 2.0}
        assert dict(ratio_fields(payload)) == {"warm_speedup": 2.0}


class TestHostKey:
    def test_patch_releases_share_a_bucket(self):
        a = {"host": dict(HOST, python="3.11.2")}
        b = {"host": dict(HOST, python="3.11.9")}
        assert host_key(a) == host_key(b)

    def test_minor_version_and_gil_flavour_split_buckets(self):
        base = {"host": dict(HOST)}
        assert host_key({"host": dict(HOST, python="3.12.1")}) != host_key(base)
        assert host_key({"host": dict(HOST, gil_disabled=True)}) != host_key(base)


class TestGateArea:
    def test_regression_past_threshold_fails(self, tmp_path):
        runs = [{"warm_speedup": 10.0} for _ in range(4)]
        runs.append({"warm_speedup": 10.0 * DEFAULT_THRESHOLD * 0.9})
        write_area(tmp_path, "session", runs)
        verdicts = gate_area("session", directory=tmp_path)
        assert statuses(verdicts) == {("warm_speedup", "regressed")}

    def test_within_threshold_passes(self, tmp_path):
        runs = [{"warm_speedup": 10.0} for _ in range(4)]
        runs.append({"warm_speedup": 10.0 * DEFAULT_THRESHOLD * 1.05})
        write_area(tmp_path, "session", runs)
        verdicts = gate_area("session", directory=tmp_path)
        assert statuses(verdicts) == {("warm_speedup", "ok")}

    def test_baseline_is_the_median_not_the_mean(self, tmp_path):
        # One historic outlier at 100 must not drag the baseline up: the
        # median of [10, 10, 10, 100] is 10, so a latest of 9 passes.
        runs = [{"warm_speedup": s} for s in (10.0, 10.0, 10.0, 100.0, 9.0)]
        write_area(tmp_path, "session", runs)
        (verdict,) = gate_area("session", directory=tmp_path)
        assert verdict.status == "ok"
        assert verdict.baseline == pytest.approx(10.0)

    def test_thin_history_skips(self, tmp_path):
        write_area(tmp_path, "session", [{"warm_speedup": 10.0},
                                         {"warm_speedup": 1.0}])
        (verdict,) = gate_area("session", directory=tmp_path)
        assert verdict.status == "skipped"

    def test_foreign_host_runs_leave_the_baseline(self, tmp_path):
        # Plenty of history, but all of it from another python: the latest
        # run has no comparable past and must be skipped, not failed.
        other = dict(HOST, python="3.12.1")
        runs = [{"warm_speedup": 50.0, "host": dict(other)} for _ in range(5)]
        runs.append({"warm_speedup": 5.0})
        write_area(tmp_path, "session", runs)
        (verdict,) = gate_area("session", directory=tmp_path)
        assert verdict.status == "skipped"

    def test_waivered_latest_run_is_not_judged(self, tmp_path):
        runs = [{"pool": {"speedup": 4.0}} for _ in range(4)]
        runs.append({"pool": {"speedup": 0.1, "waiver": "single-core host"}})
        write_area(tmp_path, "backends", runs)
        (verdict,) = gate_area("backends", directory=tmp_path)
        assert verdict.status == "skipped"
        assert "no ratio fields" in verdict.detail

    def test_waivered_history_runs_leave_the_baseline(self, tmp_path):
        # Three waivered historic runs + two clean ones: only the clean
        # pair counts, which is below min_runs, so the field skips.
        runs = [{"pool": {"speedup": 0.1, "waiver": "impaired"}}
                for _ in range(3)]
        runs += [{"pool": {"speedup": 4.0}} for _ in range(3)]
        write_area(tmp_path, "backends", runs)
        (verdict,) = gate_area("backends", directory=tmp_path)
        assert verdict.status == "skipped"

    def test_failed_runs_leave_the_baseline(self, tmp_path):
        # Three clean runs at 10 and three failed runs at 1: only the clean
        # runs form the baseline, so a latest of 5 regresses.  Were the
        # failed runs counted, the median would be 1 and 5 would pass.
        runs = [{"warm_speedup": 10.0, "status": 0} for _ in range(3)]
        runs += [{"warm_speedup": 1.0, "status": 1} for _ in range(3)]
        runs.append({"warm_speedup": 5.0, "status": 0})
        write_area(tmp_path, "session", runs)
        (verdict,) = gate_area("session", directory=tmp_path)
        assert verdict.status == "regressed"
        assert verdict.baseline == pytest.approx(10.0)

    def test_failed_latest_run_gets_one_failing_verdict(self, tmp_path, capsys):
        # Its ratio fields look healthy, but the bench itself failed.
        runs = [{"warm_speedup": 10.0, "status": 0} for _ in range(4)]
        runs.append({"warm_speedup": 12.0, "status": 1})
        write_area(tmp_path, "session", runs)
        verdicts = gate_area("session", directory=tmp_path)
        assert statuses(verdicts) == {("status", "failed")}
        assert main(["--dir", str(tmp_path), "--areas", "session"]) == 1
        assert "FAIL  session:status" in capsys.readouterr().out

    def test_empty_trajectory_skips(self, tmp_path):
        verdicts = gate_area("backends", directory=tmp_path)
        assert statuses(verdicts) == {("*", "skipped")}

    def test_step_rename_is_fresh_history(self, tmp_path):
        # A renamed list step changes the dotted path; its history restarts
        # instead of being judged against the old step's numbers.
        runs = [{"serial": [{"step": "old", "speedup": 8.0}]} for _ in range(4)]
        runs.append({"serial": [{"step": "new", "speedup": 1.0}]})
        write_area(tmp_path, "backends", runs)
        (verdict,) = gate_area("backends", directory=tmp_path)
        assert verdict.field == "serial.new.speedup"
        assert verdict.status == "skipped"


class TestMain:
    def test_exit_one_on_regression(self, tmp_path, capsys):
        runs = [{"warm_speedup": 10.0} for _ in range(4)] + [{"warm_speedup": 1.0}]
        write_area(tmp_path, "session", runs)
        code = main(["--dir", str(tmp_path), "--areas", "session"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "warm_speedup" in out

    def test_exit_zero_on_clean_run(self, tmp_path, capsys):
        runs = [{"warm_speedup": 10.0} for _ in range(5)]
        write_area(tmp_path, "session", runs)
        code = main(["--dir", str(tmp_path), "--areas", "session"])
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_custom_threshold(self, tmp_path):
        runs = [{"warm_speedup": 10.0} for _ in range(4)] + [{"warm_speedup": 8.5}]
        write_area(tmp_path, "session", runs)
        assert main(["--dir", str(tmp_path), "--areas", "session"]) == 0
        assert main(["--dir", str(tmp_path), "--areas", "session",
                     "--threshold", "0.9"]) == 1

    def test_missing_area_file_passes(self, tmp_path, capsys):
        code = main(["--dir", str(tmp_path)])
        assert code == 0
        assert "no recorded runs" in capsys.readouterr().out


class TestDecayedMedian:
    def test_outlier_resistant_like_the_plain_median(self):
        assert decayed_median([10.0, 10.0, 10.0, 100.0]) == 10.0

    def test_recency_moves_the_baseline(self):
        # Five old slow runs, three recent fast ones: the plain median
        # would stay at 2.0 forever; the decayed median follows the code.
        samples = [2.0] * 5 + [8.0] * 3
        assert decayed_median(samples, decay=0.5) == 8.0
        # The mirror-image history keeps the old bar while it dominates.
        assert decayed_median(list(reversed(samples)), decay=0.5) == 2.0

    def test_always_an_observed_value(self):
        samples = [3.0, 7.0]
        assert decayed_median(samples, decay=0.9) in samples

    def test_empty_raises(self):
        import statistics

        with pytest.raises(statistics.StatisticsError):
            decayed_median([])

    def test_decay_flag_reaches_the_gate(self, tmp_path):
        # With heavy decay the baseline is ~the most recent history run
        # (12.0), which the latest 9.0 fails; the near-flat decay keeps the
        # older 10.0s in charge and passes.
        runs = [{"warm_speedup": s} for s in (10.0, 10.0, 10.0, 12.0, 9.0)]
        write_area(tmp_path, "session", runs)
        assert main(["--dir", str(tmp_path), "--areas", "session",
                     "--decay", "0.999"]) == 0
        assert main(["--dir", str(tmp_path), "--areas", "session",
                     "--decay", "0.01"]) == 1


class TestUpdateWaiver:
    def test_waives_a_subtree_of_the_latest_run(self, tmp_path):
        runs = [{"pool": {"speedup": 4.0}} for _ in range(4)]
        runs.append({"pool": {"speedup": 0.1}})
        path = write_area(tmp_path, "backends", runs)
        (before,) = gate_area("backends", directory=tmp_path)
        assert before.status == "regressed"
        update_waiver("backends", "pool", "single-core host", directory=tmp_path)
        (after,) = gate_area("backends", directory=tmp_path)
        assert after.status == "skipped"
        document = json.loads(path.read_text())
        assert document["runs"][-1]["pool"]["waiver"] == "single-core host"
        # Earlier runs are untouched: the waiver is for this host's latest
        # measurement, not a retroactive rewrite of history.
        assert "waiver" not in document["runs"][0]["pool"]

    def test_addresses_list_elements_by_step_label(self, tmp_path):
        runs = [{"serial": [{"step": "filter", "speedup": 4.0},
                            {"step": "join", "speedup": 2.0}]}]
        path = write_area(tmp_path, "backends", runs)
        update_waiver("backends", "serial.join", "flaky join timing",
                      directory=tmp_path)
        document = json.loads(path.read_text())
        assert document["runs"][-1]["serial"][1]["waiver"] == "flaky join timing"
        assert "waiver" not in document["runs"][-1]["serial"][0]

    def test_unknown_field_and_leaf_targets_are_rejected(self, tmp_path):
        write_area(tmp_path, "backends", [{"pool": {"speedup": 4.0}}])
        with pytest.raises(ValueError):
            update_waiver("backends", "nope", "x", directory=tmp_path)
        with pytest.raises(ValueError):
            update_waiver("backends", "pool.speedup", "x", directory=tmp_path)

    def test_main_entrypoint(self, tmp_path, capsys):
        runs = [{"pool": {"speedup": 4.0}} for _ in range(4)]
        runs.append({"pool": {"speedup": 0.1}})
        write_area(tmp_path, "backends", runs)
        assert main(["--dir", str(tmp_path), "--update-waiver", "backends",
                     "--field", "pool", "--reason", "single-core host"]) == 0
        assert "waived backends:pool" in capsys.readouterr().out
        assert main(["--dir", str(tmp_path), "--areas", "backends"]) == 0

    def test_main_rejects_bad_field(self, tmp_path, capsys):
        write_area(tmp_path, "backends", [{"pool": {"speedup": 4.0}}])
        assert main(["--dir", str(tmp_path), "--update-waiver", "backends",
                     "--field", "nope", "--reason", "x"]) == 1
        assert "waiver not applied" in capsys.readouterr().out


def test_verdict_render_shapes():
    ok = Verdict("a", "f", "ok", latest=2.0, baseline=2.0)
    fail = Verdict("a", "f", "regressed", latest=1.0, baseline=2.0)
    skip = Verdict("a", "f", "skipped", detail="thin history")
    failed = Verdict("a", "status", "failed", detail="status 1")
    assert "ratio=1.00" in ok.render()
    assert fail.render().startswith("FAIL")
    assert "thin history" in skip.render()
    assert failed.render() == "FAIL  a:status  status 1"
