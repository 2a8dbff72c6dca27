"""The HTTP benchmark's ledger still installs over the library.

``perfbench/pb_ledger.py`` times each layer by wrapping library methods by
name (``SessionCache.adopt_step``, ``CacheStore.put``, ...).  Deleting or
renaming one of them breaks the benchmark's traced runs; this test makes
that a tier-1 failure rather than one only ``python3 perfbench/run.py
--smoke`` finds.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import pb_ledger  # noqa: E402


def test_ledger_installs_over_the_library():
    ledger = pb_ledger.Ledger()
    try:
        ledger.install()
    finally:
        ledger.uninstall()
