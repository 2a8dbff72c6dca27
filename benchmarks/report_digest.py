"""Per-query digests of the 30 workload reports, for identity across checkouts.

Explains every query of :data:`repro.workloads.WORKLOAD` (with its own
measure, default :class:`~repro.core.FedexConfig`) on a
``DatasetRegistry(seed=<seed>)`` at the HTTP benchmark's data sizes (8000
Spotify, 5000 bank, 20000 sales and 1500 products rows) and prints one line
per query::

    Q<number> <report digest> <candidates digest>

The report digest covers ``dump_json(report_document(report))`` with the
``timings`` dropped; the candidates digest covers every candidate's key with
the ``repr`` of its raw and standardized contribution, so a changed float
type shows as well as a changed value.  Run it from two checkouts and
``diff`` the outputs::

    PYTHONPATH=src python benchmarks/report_digest.py 0 > digest-0.txt
"""

from __future__ import annotations

import hashlib
import sys

from repro.core import FedexExplainer
from repro.datasets import DatasetRegistry
from repro.serving.protocol import dump_json, report_document
from repro.workloads import WORKLOAD

#: The data sizes of ``perfbench/spec.json``'s registry.
SIZES = dict(spotify_rows=8000, bank_rows=5000, sales_rows=20000, products_rows=1500)


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def query_digests(seed: int):
    """``(number, report digest, candidates digest)`` for every workload query."""
    registry = DatasetRegistry(seed=seed, **SIZES)
    explainer = FedexExplainer()
    for query in WORKLOAD:
        report = explainer.explain(query.build_step(registry), measure=query.measure)
        document = report_document(report)
        document.pop("timings")
        candidates = "\n".join(
            f"{candidate.key()!r} {candidate.contribution!r} "
            f"{candidate.standardized_contribution!r}"
            for candidate in report.all_candidates
        )
        yield query.number, _digest(dump_json(document)), _digest(candidates.encode())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seed = int(argv[0]) if argv else 0
    for number, report_digest, candidates_digest in query_digests(seed):
        print(f"Q{number} {report_digest} {candidates_digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
