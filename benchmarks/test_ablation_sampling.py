"""Ablation: the fedex-Sampling optimization — speed vs accuracy at the 5K point.

Complements Figures 7 and 10 with a direct before/after comparison of the one
optimization the paper ships: interestingness on a 5K uniform sample.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.core import FedexConfig, FedexExplainer
from repro.experiments import compare_reports, print_table
from repro.workloads import get_query

_QUERIES = (4, 6, 7, 13, 21)


def _run_ablation(registry):
    rows = []
    for number in _QUERIES:
        step = get_query(number).build_step(registry)
        step.output  # apply outside both timed explains
        started = time.perf_counter()
        exact = FedexExplainer(FedexConfig(sample_size=None, seed=0)).explain(step)
        exact_seconds = time.perf_counter() - started
        started = time.perf_counter()
        sampled = FedexExplainer(FedexConfig(sample_size=5_000, seed=0)).explain(step)
        sampled_seconds = time.perf_counter() - started
        metrics = compare_reports(exact, sampled)
        rows.append({
            "query": number,
            "exact_seconds": exact_seconds,
            "sampling_seconds": sampled_seconds,
            "speedup": exact_seconds / max(sampled_seconds, 1e-9),
            **metrics,
        })
    return rows


def test_ablation_sampling_optimization(benchmark, bench_registry):
    rows = run_once(benchmark, _run_ablation, bench_registry)
    print_table(rows, title="Ablation — exact FEDEX vs fedex-Sampling (5K sample)")

    assert all(row["precision_at_k"] >= 0.6 for row in rows)
    assert all(row["ndcg"] >= 0.85 for row in rows)
    # Sampling must never be catastrophically slower than exact.
    assert all(row["sampling_seconds"] <= row["exact_seconds"] * 2.0 + 0.5 for row in rows)
