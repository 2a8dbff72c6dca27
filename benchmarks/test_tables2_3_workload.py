"""Tables 2 & 3: run FEDEX over the full 30-query evaluation workload.

Prints, for every query of Appendix A, the most interesting column, its
interestingness score, the top explanation, and the generation time — the raw
material every other experiment builds on.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.core import FedexConfig, FedexExplainer
from repro.experiments import print_table
from repro.workloads import WORKLOAD


def _run_workload(registry):
    rows = []
    for query in WORKLOAD:
        step = query.build_step(registry)
        step.output  # apply outside the timed explain
        started = time.perf_counter()
        report = FedexExplainer(FedexConfig(sample_size=5_000, seed=0)).explain(step)
        elapsed = time.perf_counter() - started
        top_column = max(report.interestingness_scores, key=report.interestingness_scores.get) \
            if report.interestingness_scores else None
        top_explanation = report.explanations[0] if report.explanations else None
        rows.append({
            "query": query.number,
            "dataset": query.dataset,
            "kind": query.kind,
            "top_column": top_column,
            "interestingness": report.interestingness_scores.get(top_column, 0.0) if top_column else 0.0,
            "explained_by": top_explanation.row_set_label if top_explanation else "-",
            "explanations": len(report.explanations),
            "seconds": elapsed,
        })
    return rows


def test_tables_2_and_3_workload(benchmark, bench_registry):
    rows = run_once(benchmark, _run_workload, bench_registry)
    print_table(rows, title="Tables 2 & 3 — FEDEX over the 30-query workload (fedex-Sampling, 5K)")
    assert len(rows) == 30
    assert all(row["explanations"] >= 0 for row in rows)
    # Every filter/group-by query should produce at least one explanation.
    unexplained = [row["query"] for row in rows if row["kind"] != "join" and row["explanations"] == 0]
    assert not unexplained, f"queries without explanations: {unexplained}"
