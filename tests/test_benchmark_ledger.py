"""The HTTP benchmark's ledger still installs over the library.

``perfbench/pb_ledger.py`` times each layer by wrapping library methods by
name (``SessionCache.adopt_step``, ``CacheStore.put``, ...).  Deleting or
renaming one of them breaks the benchmark's traced runs; this test makes
that a tier-1 failure rather than one only ``python3 perfbench/run.py
--smoke`` finds.  Work moved out from under a wrapped name breaks them more
quietly (the layer reads 0 ms), so a cold explain must reach every phase-2
name the ledger reads.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import pb_ledger  # noqa: E402
from repro.dataframe import Comparison  # noqa: E402
from repro.datasets import load_spotify  # noqa: E402
from repro.operators import ExploratoryStep, Filter  # noqa: E402
from repro.session import ExplanationSession  # noqa: E402


def test_ledger_installs_over_the_library():
    ledger = pb_ledger.Ledger()
    try:
        ledger.install()
    finally:
        ledger.uninstall()


def test_cold_explain_reaches_every_phase2_layer():
    frame = load_spotify(n_rows=1_500, seed=3)
    step = ExploratoryStep([frame], Filter(Comparison("popularity", ">", 65)))
    ledger = pb_ledger.Ledger()
    ledger.install()
    try:
        ExplanationSession().explain(step)
    finally:
        ledger.uninstall()
    calls = ledger.snapshot()["calls"]
    for name in ("core.partition.build", "core.partition.frequency",
                 "core.partition.binning", "core.partition.many_to_one",
                 "core.partition.validate", "core.partition.find_companions"):
        assert calls.get(name, 0) > 0, name
