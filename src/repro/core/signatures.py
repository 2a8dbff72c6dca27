"""Content signatures of steps and configurations.

The session layer (:mod:`repro.session`) memoizes work across ``explain()``
calls, which needs value-based identities for the two things that determine
an explanation: the exploratory step and the engine configuration.  Object
identity is useless for this — a notebook user who re-runs a cell builds a
brand-new, content-identical step — so both signatures are derived purely
from content:

* a **step signature** combines the operation's declarative description with
  content fingerprints of every input dataframe, and — unless the step is
  keyed by *lineage* — of the output dataframe;
* a **config signature** is the tuple of every :class:`FedexConfig` field,
  with sequences normalised to tuples so the result is hashable.

A derived step (built without an explicit ``output=``) is keyed by lineage:
operations are pure, so its output is a function of the operation and the
inputs, and hashing the output adds nothing.  That is what lets a memoized
report be served without ever applying the operation.  It rests on the
operation's :meth:`~repro.operators.operations.Operation.signature` naming
every field that affects the output, which each built-in operation's does.
The price is that the output itself is trusted: mutating a derived step's
output in place is not detected (mutating its inputs still is).  A step
with an explicit output is keyed by the output's content too, and so is a
derived step whose output may not derive from its lineage as it is now (it
was materialised before the step was first keyed, or the inputs or the
operation changed since).  Lineage keys have three parts and content keys
four, so the two can never collide.

Two steps/configs with equal signatures produce equal explanation reports,
which is exactly the soundness condition of the session's full-report
memoization.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Tuple

from ..operators.step import ExploratoryStep
from .config import FedexConfig


def step_signature(step: ExploratoryStep, frame_fingerprint=None) -> Tuple:
    """Hashable content identity of an exploratory step.

    The operation contributes its kind and its faithful
    :meth:`~repro.operators.operations.Operation.signature` (which spells
    out predicates, keys, aggregations, join sides, ... without the lossy
    summarising `describe()` may do); the input dataframes contribute
    content fingerprints, recomputed from the raw values on every call so
    in-place mutations of an input change the signature.  The output's
    fingerprint is appended only when the step is not keyed by lineage
    (:meth:`ExploratoryStep.lineage_matches`), so signing a derived step
    never applies its operation.  ``frame_fingerprint`` optionally replaces
    the per-frame hashing (the session passes its request-scoped memoized
    variant).
    """
    hash_frame = frame_fingerprint or (lambda frame: frame.fingerprint())
    inputs = tuple(hash_frame(frame) for frame in step.inputs)
    lineage = (step.operation.kind, step.operation.signature(), inputs)
    if step.lineage_matches(lineage):
        return lineage
    return lineage + (hash_frame(step.output),)


def config_signature(config: FedexConfig) -> Tuple:
    """Hashable content identity of an engine configuration.

    Every field participates — including fields (like ``workers``) that
    cannot change the report's content — so the signature stays trivially
    correct when new fields are added: a too-fine key costs a recomputation,
    a too-coarse one would serve a wrong report.
    """
    parts = []
    for field in fields(config):
        value = getattr(config, field.name)
        if isinstance(value, (list, tuple)):
            value = tuple(value)
        parts.append((field.name, value))
    return tuple(parts)
