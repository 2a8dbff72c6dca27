"""Networked serving: the HTTP front end and the replica fleet.

The stack, bottom-up:

* :mod:`repro.serving.protocol` — the wire format: request validation
  (SQL-ish query + whitelisted config overrides) and the canonical JSON
  serialisation of reports.
* :mod:`repro.serving.auth` — per-tenant bearer tokens, compared in
  constant time.
* :mod:`repro.serving.http` — the stdlib-only asyncio HTTP/1.1 server,
  the only HTTP server in the process: JSON explain, chunked-NDJSON
  streaming of partial results, health, metrics, recent traces, and
  graceful drain.
* :mod:`repro.serving.cache_tier` — the disk-backed shared cache segment
  replicas promote :class:`~repro.session.store.CacheStore` entries into,
  invalidated fleet-wide by manifest-version epoch keys.
* :mod:`repro.serving.replicas` — N server processes over one
  :class:`~repro.storage.store.DatasetStore` and one shared tier.
"""

from .auth import TokenAuthenticator
from .cache_tier import DEFAULT_TIER_LAYERS, SharedCacheTier
from .http import ExplanationServer
from .protocol import (
    ALLOWED_CONFIG_OVERRIDES,
    ExplainRequest,
    dump_json,
    parse_explain_request,
    report_document,
)
from .replicas import ReplicaFleet

__all__ = [
    "ALLOWED_CONFIG_OVERRIDES",
    "DEFAULT_TIER_LAYERS",
    "ExplainRequest",
    "ExplanationServer",
    "ReplicaFleet",
    "SharedCacheTier",
    "TokenAuthenticator",
    "dump_json",
    "parse_explain_request",
    "report_document",
]
