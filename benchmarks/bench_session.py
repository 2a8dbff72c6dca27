"""Session-layer benchmark: cold vs warm over the workload.

Runs the 30-query evaluation workload twice and prints the timings::

    PYTHONPATH=src python benchmarks/bench_session.py [n_rounds]

* **cold** — a fresh :class:`ExplanationSession`, every query explained for
  the first time (full Algorithm 1, plus fingerprinting overhead);
* **warm** — the *same* session re-explains the identical 30 queries; every
  request must hit the full-report memo.

Also reports the overlapping-steps scenario the session layer exists for
(one filter refined five times over the same dataframe, cold engine vs warm
session) and the session cache's hit counters.

Acceptance bar: the warm re-explain of an already-seen workload must be at
least **5x** faster than the cold pass (in practice it is orders of
magnitude faster — a dictionary lookup per query).
"""

from __future__ import annotations

import sys
import time

import perf_record

from repro.core import FedexConfig, FedexExplainer
from repro.dataframe import Comparison
from repro.datasets import DatasetRegistry, load_spotify
from repro.operators import ExploratoryStep, Filter
from repro.session import ExplanationSession
from repro.workloads import WORKLOAD

#: Dataset sizes mirroring the benchmark harness's "small" scale.
_SIZES = dict(spotify_rows=8_000, bank_rows=5_000, sales_rows=20_000, products_rows=1_500)

WARM_SPEEDUP_BAR = 5.0


def _run_workload(session: ExplanationSession, steps) -> float:
    start = time.perf_counter()
    for step in steps:
        session.explain(step)
    return time.perf_counter() - start


def run() -> dict:
    registry = DatasetRegistry(seed=0, **_SIZES)
    steps = [query.build_step(registry) for query in WORKLOAD]
    for step in steps:
        step.output  # apply outside the timed passes

    session = ExplanationSession(config=FedexConfig(seed=0))
    cold = _run_workload(session, steps)
    warm = _run_workload(session, steps)

    print(f"30-query workload, {_SIZES['spotify_rows']:,}-row spotify scale "
          f"(seconds, python {sys.version.split()[0]})")
    print(f"{'mode':10s} {'seconds':>9s} {'vs cold':>9s}")
    for mode, seconds in (("cold", cold), ("warm", warm)):
        print(f"{mode:10s} {seconds:9.3f} {cold / max(seconds, 1e-9):8.1f}x")
    print(f"cache stats: {session.stats.as_dict()}")

    # The refined-filter scenario: same input frame, five related predicates.
    spotify = load_spotify(_SIZES["spotify_rows"], seed=3)
    thresholds = (55, 60, 65, 70, 75)
    refine_steps = [
        ExploratoryStep([spotify], Filter(Comparison("popularity", ">", threshold)))
        for threshold in thresholds
    ]
    for step in refine_steps:
        step.output  # apply outside the timed passes
    start = time.perf_counter()
    for step in refine_steps:
        FedexExplainer(FedexConfig(seed=0)).explain(step)
    stateless = time.perf_counter() - start
    refine_session = ExplanationSession(config=FedexConfig(seed=0))
    start = time.perf_counter()
    for step in refine_steps:
        refine_session.explain(step)
    stateful = time.perf_counter() - start
    print(f"\nrefined filter x{len(thresholds)} (distinct steps, shared input): "
          f"stateless {stateless:.3f}s, session {stateful:.3f}s "
          f"({stateless / max(stateful, 1e-9):.1f}x); "
          f"partition hits {refine_session.stats.partition_hits}")

    return {"cold": cold, "warm": warm,
            "warm_speedup": cold / max(warm, 1e-9)}


def main() -> int:
    results = run()
    status = 0
    if results["warm_speedup"] < WARM_SPEEDUP_BAR:
        print(f"WARNING: warm-cache speedup {results['warm_speedup']:.1f}x is below the "
              f"{WARM_SPEEDUP_BAR:.0f}x acceptance bar")
        status = 1
    perf_record.record("session", {**results, "status": status})
    return status


if __name__ == "__main__":
    raise SystemExit(main())
