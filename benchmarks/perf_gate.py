"""Perf-regression gate over the persisted BENCH_*.json trajectories.

:mod:`perf_record` turns every bench run into an appended record; this
module turns the trajectory into a *gate*: the latest run of each area is
diffed against the trailing median of the prior runs recorded on a
comparable host, and any dimensionless ratio field (``speedup``,
``warm_speedup``, ``open_speedup``, ``throughput``...) that fell more than
20 % below its median fails the gate with a non-zero exit.

Design choices, all in service of a gate that cries wolf rarely enough to
stay enabled:

* **Only ratio fields are judged.**  Absolute latencies move with the
  machine, CI neighbours, and thermal luck; the speedup of the same two
  measurements on the same host is far steadier.  A field counts as a
  ratio when its key contains ``speedup`` or ``throughput``.
* **Only comparable runs form the baseline.**  Runs are bucketed by a host
  key — python ``major.minor``, interpreter implementation, machine
  architecture, GIL build flavour — and the latest run is judged against
  the *decay-weighted* median of *prior* runs in its own bucket.  Median,
  not mean: one historic outlier must not drag the baseline.  Weighted by
  recency (``decay ** age``, newest heaviest): the baseline tracks what the
  code does *now*, so a legitimate speedup eventually becomes the bar
  instead of being forgiven forever by ancient slow runs.
* **Known regressions are waived in place.**  ``--update-waiver`` annotates
  a subtree of the *latest* recorded run with a waiver reason (host-specific
  effects like a single-core process-pool comparison), using the exact file
  rewrite the benches use — the gate then skips it like any bench-declared
  waiver.
* **Waived subtrees are skipped.**  Benches annotate environment-impaired
  results with a ``waiver`` string (e.g. a process-pool comparison on a
  single-core host); a subtree whose ``waiver`` is non-None is invisible
  to the gate, in the latest run and in baselines alike.
* **Failed runs are never a baseline.**  A run whose recorded ``status``
  is non-zero failed its own bench's bars, so its numbers cannot be a bar
  for later runs; it is left out of every baseline.  A *latest* run with a
  non-zero ``status`` gets one failing ``status`` verdict instead of
  field-by-field judging.
* **Thin history passes.**  With fewer than ``min_runs`` prior comparable
  runs the field is reported as ``skipped`` rather than judged — a fresh
  host or a fresh ratio field must not fail CI for lacking a past.

Usage::

    python benchmarks/perf_gate.py                    # gate every area
    python benchmarks/perf_gate.py --areas backends   # one area
    python benchmarks/perf_gate.py --dir ci-artifacts --threshold 0.75

Exit status: 0 when nothing regressed (including "no history"), 1 when at
least one ratio field regressed past the threshold or the latest run of an
area recorded a non-zero ``status``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

if __package__:  # imported as benchmarks.perf_gate
    from .perf_record import bench_dir, load_area
else:  # executed as a script, or imported flat (pytest rootdir style)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from perf_record import bench_dir, load_area  # type: ignore

#: Areas gated by default — the BENCH_*.json files the benches write.
AREAS = ("backends", "session", "service", "serving", "storage")

#: Latest/median below this ratio counts as a regression (0.8 = -20 %).
DEFAULT_THRESHOLD = 0.8

#: Minimum prior comparable runs before a field is judged at all.
DEFAULT_MIN_RUNS = 3

#: Per-run age decay of baseline sample weights (newest sample weight 1,
#: a sample ``k`` runs older weight ``decay ** k``).
DEFAULT_DECAY = 0.9

#: Substrings marking a payload key as a dimensionless ratio field.
RATIO_MARKERS = ("speedup", "throughput")


@dataclass
class Verdict:
    """The gate's judgement of one ratio field of one area."""

    area: str
    field: str
    status: str  # "ok" | "regressed" | "skipped" | "failed"
    latest: Optional[float] = None
    baseline: Optional[float] = None
    detail: str = ""

    def render(self) -> str:
        if self.status == "skipped":
            return f"SKIP  {self.area}:{self.field}  {self.detail}"
        if self.status == "failed":
            return f"FAIL  {self.area}:{self.field}  {self.detail}"
        ratio = self.latest / self.baseline if self.baseline else float("inf")
        tag = "ok  " if self.status == "ok" else "FAIL"
        return (f"{tag}  {self.area}:{self.field}  latest={self.latest:.3f} "
                f"median={self.baseline:.3f} ratio={ratio:.2f}")


def host_key(run: Dict[str, object]) -> Tuple[str, str, str, bool]:
    """The comparability bucket of one run record.

    Python is keyed by ``major.minor``: patch releases share performance
    character, but 3.11 vs 3.12 (or a GIL-free build) do not.
    """
    host = run.get("host") or {}
    python = str(host.get("python", "?"))
    return (
        ".".join(python.split(".")[:2]),
        str(host.get("implementation", "?")),
        str(host.get("machine", "?")),
        bool(host.get("gil_disabled", False)),
    )


def run_failed(run: Dict[str, object]) -> bool:
    """Whether a run recorded a non-zero ``status`` (it failed its own bars)."""
    return bool(run.get("status", 0))


def ratio_fields(payload: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Every ``(dotted.path, value)`` ratio field of one run payload.

    Walks dictionaries and lists recursively; list elements are labelled by
    their ``step`` name when present (stable across runs, unlike indices).
    A dictionary carrying a non-None ``waiver`` is skipped whole — the
    bench itself declared the numbers unjudgeable on this host.
    """
    if isinstance(payload, dict):
        if payload.get("waiver") is not None:
            return
        for key, value in payload.items():
            if key in ("host", "recorded_at"):
                continue
            path = f"{prefix}{key}"
            if (isinstance(value, (int, float)) and not isinstance(value, bool)
                    and any(marker in key for marker in RATIO_MARKERS)):
                yield path, float(value)
            else:
                yield from ratio_fields(value, prefix=f"{path}.")
    elif isinstance(payload, list):
        for index, element in enumerate(payload):
            label = (element.get("step") if isinstance(element, dict)
                     and isinstance(element.get("step"), str) else str(index))
            yield from ratio_fields(element, prefix=f"{prefix}{label}.")


def decayed_median(samples: List[float], decay: float = DEFAULT_DECAY) -> float:
    """The recency-weighted median of samples ordered oldest → newest.

    Each sample weighs ``decay ** age`` (the newest weighs 1); the weighted
    median is the smallest value whose cumulative weight, walking samples
    sorted by value, reaches half the total.  ``decay=1`` degrades to the
    plain median's lower midpoint; small decays converge on "the most
    recent sample is the baseline".  Stays an observed value — never an
    interpolation — so one historic outlier still cannot invent a baseline
    nobody measured.
    """
    if not samples:
        raise statistics.StatisticsError("no samples")
    weighted = [(value, decay ** age)
                for age, value in enumerate(reversed(samples))]
    weighted.sort(key=lambda pair: pair[0])
    half = sum(weight for _, weight in weighted) / 2.0
    cumulative = 0.0
    for value, weight in weighted:
        cumulative += weight
        if cumulative >= half:
            return value
    return weighted[-1][0]


def update_waiver(area: str, field: str, reason: str,
                  directory: Optional[Path] = None) -> Path:
    """Annotate a subtree of the latest recorded run with a waiver reason.

    ``field`` is a dotted path into the run payload, with list elements
    addressed by their ``step`` label (exactly as :func:`ratio_fields`
    labels them) or by index; the subtree it names must be a dictionary,
    which gains ``"waiver": reason``.  The rewrite is atomic, via the same
    temp-file + rename the benches' recorder uses.
    """
    path = ((directory or bench_dir()) / f"BENCH_{area}.json")
    document = load_area(area, path)
    runs = document["runs"]
    if not runs:
        raise ValueError(f"{path} has no recorded runs to waive")
    node: object = runs[-1]
    for segment in field.split("."):
        if isinstance(node, dict):
            if segment not in node:
                raise ValueError(f"{field!r}: no key {segment!r} in the latest "
                                 f"{area} run")
            node = node[segment]
        elif isinstance(node, list):
            labelled = [element for element in node
                        if isinstance(element, dict)
                        and element.get("step") == segment]
            if labelled:
                node = labelled[0]
            else:
                try:
                    node = node[int(segment)]
                except (ValueError, IndexError):
                    raise ValueError(f"{field!r}: no list element {segment!r} "
                                     f"in the latest {area} run") from None
        else:
            raise ValueError(f"{field!r}: {segment!r} descends into a leaf")
    if not isinstance(node, dict):
        raise ValueError(f"{field!r} names a {type(node).__name__}, not a "
                         "dictionary subtree a waiver can annotate")
    node["waiver"] = reason
    handle = tempfile.NamedTemporaryFile(
        "w", dir=str(path.parent), prefix=path.name + ".", delete=False
    )
    try:
        with handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return path


def gate_area(area: str, directory: Optional[Path] = None,
              threshold: float = DEFAULT_THRESHOLD,
              min_runs: int = DEFAULT_MIN_RUNS,
              decay: float = DEFAULT_DECAY) -> List[Verdict]:
    """Judge the latest run of each area against its trailing decayed medians."""
    path = (directory / f"BENCH_{area}.json") if directory is not None else None
    runs = load_area(area, path)["runs"]
    if not runs:
        return [Verdict(area, "*", "skipped", detail="no recorded runs")]
    latest = runs[-1]
    if run_failed(latest):
        return [Verdict(area, "status", "failed",
                        detail=f"latest run recorded status {latest['status']!r}: "
                               "it failed its own bench's bars")]
    key = host_key(latest)
    history = [run for run in runs[:-1]
               if host_key(run) == key and not run_failed(run)]

    verdicts: List[Verdict] = []
    for field, value in ratio_fields(latest):
        samples = [
            sample
            for run in history
            for path_, sample in ratio_fields(run)
            if path_ == field
        ]
        if len(samples) < min_runs:
            verdicts.append(Verdict(
                area, field, "skipped", latest=value,
                detail=f"{len(samples)} comparable prior run(s), need {min_runs}",
            ))
            continue
        baseline = decayed_median(samples, decay)
        regressed = baseline > 0 and value < baseline * threshold
        verdicts.append(Verdict(
            area, field, "regressed" if regressed else "ok",
            latest=value, baseline=baseline,
        ))
    if not verdicts:
        verdicts.append(Verdict(area, "*", "skipped",
                                detail="latest run has no ratio fields"))
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=None,
                        help="directory holding BENCH_*.json (default: repo root)")
    parser.add_argument("--areas", default=",".join(AREAS),
                        help="comma-separated areas to gate")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="latest/median ratio below which a field fails")
    parser.add_argument("--min-runs", type=int, default=DEFAULT_MIN_RUNS,
                        help="prior comparable runs required to judge a field")
    parser.add_argument("--decay", type=float, default=DEFAULT_DECAY,
                        help="per-run age decay of baseline sample weights")
    parser.add_argument("--update-waiver", metavar="AREA", default=None,
                        help="instead of gating: annotate a subtree of AREA's "
                             "latest run with a waiver (requires --field and "
                             "--reason)")
    parser.add_argument("--field", default=None,
                        help="dotted path of the subtree to waive "
                             "(list elements by their 'step' label or index)")
    parser.add_argument("--reason", default=None,
                        help="why the numbers are unjudgeable on this host")
    options = parser.parse_args(argv)

    if options.update_waiver is not None:
        if not options.field or not options.reason:
            parser.error("--update-waiver requires --field and --reason")
        try:
            path = update_waiver(options.update_waiver, options.field,
                                 options.reason, directory=options.dir)
        except ValueError as error:
            print(f"waiver not applied: {error}")
            return 1
        print(f"waived {options.update_waiver}:{options.field} in {path}")
        return 0

    failures = 0
    for area in [name.strip() for name in options.areas.split(",") if name.strip()]:
        for verdict in gate_area(area, directory=options.dir,
                                 threshold=options.threshold,
                                 min_runs=options.min_runs,
                                 decay=options.decay):
            print(verdict.render())
            if verdict.status in ("regressed", "failed"):
                failures += 1
    if failures:
        print(f"\nperf gate FAILED: {failures} failed run(s) or ratio field(s) "
              f"regressed more than {100 * (1 - options.threshold):.0f}% below "
              "the trailing median")
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
