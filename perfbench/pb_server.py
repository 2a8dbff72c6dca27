"""The benchmark's server process: one HTTP front end, driven over stdin.

Run by ``run.py``, never by hand::

    python3 perfbench/pb_server.py --store DIR [--budget-mib N] [--spans FILE]

It serves ``repro.serving.ExplanationServer`` over
``repro.service.ExplanationService`` (default ``FedexConfig``, default
service workers, every benchmark tenant's bearer token accepted) on an
ephemeral localhost port, prints ``{"port": ...}`` and then answers one JSON
command per stdin line with one JSON line on stdout:

* ``reset`` — close the server and service and build fresh ones over a
  fresh ``DatasetStore`` handle: no report, partition, structure or column
  cache survives.  Replies with the new port.
* ``trace`` — install the per-layer ledger (:mod:`pb_ledger`).
* ``stats`` — process CPU and peak RSS, the cache counters of every tenant
  session, store usage and evictions, fingerprint hashes, and the ledger.
* ``quit`` — drain and exit (also on end of input).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pb_ledger import Ledger  # noqa: E402
from pb_requests import tenant_tokens  # noqa: E402

from repro.core import FedexConfig  # noqa: E402
from repro.dataframe.column import FINGERPRINT_STATS  # noqa: E402
from repro.service import ExplanationService, ServiceConfig  # noqa: E402
from repro.serving import ExplanationServer, TokenAuthenticator  # noqa: E402
from repro.storage import DatasetStore  # noqa: E402


class Host:
    """Owns the live service and server; rebuilds both on ``reset``."""

    def __init__(self, store_dir: str, budget_mib: int) -> None:
        self.store_dir = store_dir
        self.service_config = (ServiceConfig(cache_budget_bytes=budget_mib * 2 ** 20)
                               if budget_mib else ServiceConfig())
        self.auth = TokenAuthenticator(tenant_tokens())
        self.ledger: Ledger | None = None
        self.service = None
        self.server = None
        self._build()

    def _build(self) -> None:
        self.service = ExplanationService(
            config=FedexConfig(), service_config=self.service_config,
            dataset_store=DatasetStore(self.store_dir))
        self.server = ExplanationServer(self.service, auth=self.auth).start()

    def close(self) -> None:
        self.server.close()
        self.service.close()
        self.service.dataset_store.close()

    def handle(self, command: str) -> dict:
        if command == "reset":
            self.close()
            # Free the old service's caches now, not at some later cyclic
            # collection inside a timed pass, so peak RSS does not depend
            # on when the collector happens to run.
            self.service = self.server = None
            gc.collect()
            self._build()
            return {"port": self.server.port}
        if command == "trace":
            if self.ledger is None:
                self.ledger = Ledger()
                self.ledger.install()
            return {}
        if command == "stats":
            return self.stats()
        raise ValueError(f"unknown command {command!r}")

    def stats(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        session: dict = {}
        for tenant in self.service.tenants():
            for name, value in self.service.session(tenant).stats.as_dict().items():
                session[name] = session.get(name, 0) + value
        store = self.service.store
        return {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mib": usage.ru_maxrss / 1024.0,
            "session": session,
            "store_bytes": store.usage_bytes,
            "evictions": store.metrics.evictions,
            "fingerprint_full_hashes": FINGERPRINT_STATS.full_hashes,
            "ledger": self.ledger.snapshot() if self.ledger is not None else None,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--budget-mib", type=int, default=0,
                        help="cache budget; 0 keeps the service default")
    parser.add_argument("--spans", default=None,
                        help="write the traced requests' spans here on exit")
    args = parser.parse_args(argv)
    host = Host(args.store, args.budget_mib)
    try:
        print(json.dumps({"port": host.server.port}), flush=True)
        for line in sys.stdin:
            command = line.strip()
            if not command or command == "quit":
                break
            print(json.dumps(host.handle(command)), flush=True)
    finally:
        host.close()
        if args.spans and host.ledger is not None:
            host.ledger.write_spans(args.spans)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
