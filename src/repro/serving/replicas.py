"""A fleet of HTTP serving replicas over one dataset store.

:class:`ReplicaFleet` starts N :class:`~repro.serving.http.ExplanationServer`
processes that share:

* **the data** — every replica opens the same on-disk
  :class:`~repro.storage.store.DatasetStore`, so the OS page cache holds
  one physical copy of each dataset's columns however many replicas map
  them; and
* **the computed reports** — every replica's
  :class:`~repro.session.store.CacheStore` writes its ``reports`` layer
  through to one :class:`~repro.serving.cache_tier.SharedCacheTier`
  segment, so a report computed by any replica is a file read for all of
  them; partitions and structures stay per replica.  Tier entries
  are keyed under manifest-version epochs: rewriting a dataset in the
  store invalidates the whole fleet's shared entries without any
  cross-process coordination channel.

Each replica is a real OS process with its own event loop, worker pool
and GIL — the unit of horizontal scaling the serving benchmark measures.
The parent talks to children over one pipe per replica: the child reports
its bound port when ready (or the startup error), then blocks until the
parent signals shutdown, drains its server gracefully and exits.

Typical use::

    fleet = ReplicaFleet(store_root, tier_root, replicas=2,
                         tokens={"token-a": "tenant-a"})
    fleet.start()
    ... load-balance requests across fleet.urls ...
    fleet.stop()
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional

from ..errors import ServingError

__all__ = ["ReplicaFleet"]

#: Seconds a replica gets to report readiness before the fleet gives up.
DEFAULT_START_TIMEOUT_S = 60.0


def _replica_main(conn, store_root: str, tier_root: str,
                  tokens: Optional[Dict[str, str]], host: str,
                  service_config: Optional[dict],
                  fedex_config: Optional[dict]) -> None:
    """Entry point of one replica process (module-level: spawn-safe)."""
    # Imports happen in the child so a spawn start method pays them once
    # per replica, not once per pickled closure.
    from ..core.config import FedexConfig, ServiceConfig
    from ..service.service import ExplanationService
    from ..session.store import CacheStore
    from ..storage.store import DatasetStore
    from .auth import TokenAuthenticator
    from .cache_tier import SharedCacheTier
    from .http import ExplanationServer

    server = None
    service = None
    dataset_store = None
    try:
        dataset_store = DatasetStore(store_root)
        tier = SharedCacheTier(tier_root, dataset_store=dataset_store)
        svc_config = ServiceConfig(**(service_config or {}))
        store = CacheStore(
            budget_bytes=svc_config.cache_budget_bytes,
            tenant_quota_bytes=svc_config.tenant_quota_bytes,
            tier=tier,
        )
        service = ExplanationService(
            config=FedexConfig(**(fedex_config or {})),
            service_config=svc_config,
            store=store,
            dataset_store=dataset_store,
        )
        auth = TokenAuthenticator(tokens) if tokens else None
        server = ExplanationServer(service, auth=auth, host=host).start()
        conn.send(("ready", server.port))
    except BaseException as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
        return
    try:
        conn.recv()  # blocks until the parent signals shutdown (or dies)
    except EOFError:
        pass
    finally:
        try:
            server.close()
            service.close()
            if dataset_store is not None:
                dataset_store.close()
        finally:
            try:
                conn.send(("stopped", None))
            except (BrokenPipeError, OSError):
                pass


class ReplicaFleet:
    """N serving processes over one dataset store and one shared report tier."""

    def __init__(self, store_root: str, tier_root: str, *,
                 replicas: int = 2,
                 tokens: Optional[Dict[str, str]] = None,
                 host: str = "127.0.0.1",
                 service_config: Optional[dict] = None,
                 fedex_config: Optional[dict] = None,
                 start_timeout_s: float = DEFAULT_START_TIMEOUT_S) -> None:
        if replicas < 1:
            raise ValueError(f"a fleet needs at least one replica, got {replicas}")
        self.store_root = str(store_root)
        self.tier_root = str(tier_root)
        self.replicas = int(replicas)
        self.tokens = dict(tokens) if tokens else None
        self.host = host
        self.service_config = dict(service_config) if service_config else None
        self.fedex_config = dict(fedex_config) if fedex_config else None
        self.start_timeout_s = float(start_timeout_s)
        self._processes: List[multiprocessing.Process] = []
        self._pipes: List = []
        self._ports: List[int] = []

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "ReplicaFleet":
        """Spawn every replica and wait until each has bound its port."""
        if self._processes:
            return self
        context = multiprocessing.get_context()
        try:
            for index in range(self.replicas):
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_replica_main,
                    args=(child_conn, self.store_root, self.tier_root,
                          self.tokens, self.host, self.service_config,
                          self.fedex_config),
                    name=f"repro-replica-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                self._pipes.append(parent_conn)
            for index, conn in enumerate(self._pipes):
                if not conn.poll(self.start_timeout_s):
                    raise ServingError(
                        f"replica {index} did not report readiness within "
                        f"{self.start_timeout_s}s")
                kind, payload = conn.recv()
                if kind != "ready":
                    raise ServingError(f"replica {index} failed to start: {payload}")
                self._ports.append(int(payload))
        except BaseException:
            self.stop()
            raise
        return self

    @property
    def ports(self) -> List[int]:
        return list(self._ports)

    @property
    def urls(self) -> List[str]:
        """One base URL per live replica, for the client to balance across."""
        return [f"http://{self.host}:{port}" for port in self._ports]

    def stop(self, timeout_s: float = 30.0) -> None:
        """Signal every replica to drain and exit; idempotent."""
        for conn in self._pipes:
            try:
                conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=timeout_s)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._pipes:
            try:
                conn.close()
            except OSError:
                pass
        self._processes = []
        self._pipes = []
        self._ports = []

    def __enter__(self) -> "ReplicaFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ReplicaFleet(replicas={self.replicas}, "
                f"live={sum(p.is_alive() for p in self._processes)}, "
                f"ports={self._ports})")
