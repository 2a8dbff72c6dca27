"""Deterministic request streams of the three workloads.

Each stream is a pure function of the workload seed: the same seed gives the
same HTTP bodies, tokens and order on every run, whatever the timing.  A run
consumes a prefix of its stream (closed loop, so how long a prefix depends on
how fast the server answers); the prefix itself never depends on timing.

* ``paper30`` — the 30 Appendix-A queries, one seeded permutation per pair
  of passes (the second pass runs it backwards).
* ``explore`` — seeded refinements of the workload steps: filters get a new
  threshold on the same column, group-bys a new ``sample_size``, drawn
  stratified so every seed sees the same spread of sizes.  Warm-up and
  timed requests come from disjoint halves of a value grid, so no timed
  request repeats a report key, however long the warm-up ran.
* ``replay`` — the 30 queries again, one seeded permutation per pass and
  connection, each request sent as one of 64 bearer-token tenants.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

#: Seed used when none is given, and a second seed kept out of tuning.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

#: Tenants of the replay workload (every server accepts all of their tokens).
N_TENANTS = 64

#: Dataset sizes every server and reference is built from.
DATA_SIZES = dict(spotify_rows=8_000, bank_rows=5_000, sales_rows=20_000,
                  products_rows=1_500)
DATA_SEED = 0

PLAIN = "/explain"
STREAM = "/explain/stream"


@dataclass(frozen=True)
class Request:
    """One generated explain request."""

    body: bytes
    token: str
    kind: str
    dataset: str
    path: str = PLAIN
    template: Tuple = ()

    @property
    def key(self) -> bytes:
        """Identity of the report asked for (the tenant does not change it)."""
        return self.body


def tenant_tokens(count: int = N_TENANTS) -> Dict[str, str]:
    """Bearer token -> tenant of the benchmark's tenants."""
    return {f"bench-token-{index:02d}": f"tenant-{index:02d}" for index in range(count)}


TOKENS = sorted(tenant_tokens())


def _body(query: str, measure: str, config: Dict | None = None) -> bytes:
    document: Dict[str, object] = {"query": query, "measure": measure}
    if config:
        document["config"] = config
    return json.dumps(document, sort_keys=True).encode("utf-8")


def paper_queries() -> List[Tuple[int, str, str, str, str]]:
    """``(number, kind, dataset, sql, measure)`` of the 30 workload queries.

    Query 18's paper text names ``products_sales_pack``, which the join
    view does not have; its builder maps it to ``products_pack`` and so
    does this text.
    """
    from repro.workloads import WORKLOAD

    return [(query.number, query.kind, query.dataset,
             query.sql.replace("products_sales_pack", "products_pack"),
             query.measure) for query in WORKLOAD]


def paper_request(number: int) -> Request:
    """Workload query ``number`` on the plain endpoint, as tenant 0."""
    for query_number, kind, dataset, sql, measure in paper_queries():
        if query_number == number:
            return Request(_body(sql, measure), TOKENS[0], kind, dataset)
    raise KeyError(number)


def paper30_pass(seed: int, pass_index: int) -> List[Request]:
    """One pass over the 30 queries in a seeded order, as tenant 0.

    Passes come in pairs: an odd pass runs its even predecessor's order
    backwards.  Queries over one table share cached partitions within a
    pass, so which one runs first matters; a pair puts every query before
    every other exactly once, which keeps the seed's order out of the
    totals.
    """
    queries = paper_queries()
    random.Random(f"{seed}:paper30:{pass_index // 2}").shuffle(queries)
    if pass_index % 2:
        queries.reverse()
    return [Request(_body(sql, measure), TOKENS[0], kind, dataset)
            for _, kind, dataset, sql, measure in queries]


def replay_pass(seed: int, connection: int, pass_index: int) -> List[Request]:
    """One connection's pass over the 30 queries, each as a seeded tenant."""
    rng = random.Random(f"{seed}:replay:{connection}:{pass_index}")
    queries = paper_queries()
    rng.shuffle(queries)
    return [Request(_body(sql, measure), TOKENS[rng.randrange(len(TOKENS))],
                    kind, dataset)
            for _, kind, dataset, sql, measure in queries]


# ------------------------------------------------------------------- explore
def _even(low: float, high: float, strata: int = 4) -> Tuple[float, ...]:
    return tuple(low + (high - low) * k / strata for k in range(strata + 1))


#: Filter refinements: (dataset, SQL template, stratum edges of the
#: threshold).  Every edge range stays inside the column's values, so no
#: filter empties its output; on the discrete columns the edges are the
#: values themselves, so a threshold's output rows are fixed by its stratum.
#: Q12's nested inner filter is kept verbatim.
FILTER_TEMPLATES: Tuple[Tuple[str, str, Tuple[float, ...]], ...] = (
    ("spotify", "SELECT * FROM spotify WHERE popularity > {}", _even(35, 65)),
    ("spotify", "SELECT * FROM spotify WHERE year > {}", _even(1950, 2006)),
    ("spotify", "SELECT * FROM spotify WHERE loudness > {}", _even(-17, -8)),
    ("spotify", "SELECT * FROM spotify WHERE duration_minutes < {}", _even(2.5, 5)),
    ("spotify", "SELECT * FROM spotify WHERE tempo > {}", _even(85, 149)),
    ("bank", "SELECT * FROM Bank WHERE Customer_Age < {}", _even(32, 56)),
    ("bank", "SELECT * FROM Bank WHERE Months_Inactive_Count_Last_Year > {}",
     (0, 1, 2, 3, 4)),
    ("bank", "SELECT * FROM [SELECT * FROM Bank WHERE Attrition_Flag != "
             "'Existing Customer'] WHERE Total_Count_Change_Q4_vs_Q1 > {}", _even(0.45, 0.95)),
    ("products", "SELECT * FROM products_sales WHERE sales_liter_size <= {}",
     (375, 500, 750, 1000, 1750)),
    ("products", "SELECT * FROM products_sales WHERE sales_pack <= {}", (1, 6, 12, 24, 48)),
)

#: Warm-up filler: keeps 89-99% of products_sales's 20,000 rows and every
#: threshold keeps different rows, so each request adds megabytes of new
#: cache entries and a warm-up reaches the cache budget in a few dozen
#: requests instead of a hundred.  Never part of the timed mix.
FILL_TEMPLATE = ("products", "SELECT * FROM products_sales WHERE sales_total > {}", (2.0, 7.0))
FILL_SLOTS = 20_000

#: Stratum edges of the group-bys' ``sample_size`` (even numbers).
SAMPLE_SIZE_EDGES = (1_000, 1_750, 2_500, 3_250, 4_000)

#: Strata per template, and threshold slots per stratum (even slots warm
#: up, odd slots are timed).  Block ``b`` of a stream draws every template's
#: value from stratum ``b % STRATA``, so a run of whole cycles of
#: ``STRATA`` blocks sees the same spread of output sizes and sample sizes
#: whatever the seed.
STRATA = 4
SLOTS = 1_000


class ExploreStream:
    """Seeded exploration session: refinements that miss the report memo.

    Templates are the filter refinements above and the 15 workload
    group-bys.  ``phase`` is ``"warmup"`` or ``"timed"``; the two draw from
    disjoint grid slots, and within a phase no (template, stratum, slot)
    repeats, so every request asks for a report no earlier request asked for.
    """

    def __init__(self, seed: int, phase: str, path: str = STREAM) -> None:
        if phase not in ("warmup", "timed"):
            raise ValueError(phase)
        self._rng = random.Random(f"{seed}:explore:{phase}")
        self._parity = 0 if phase == "warmup" else 1
        self._path = path
        self._used: set = set()
        self._groupbys = [query for query in paper_queries() if query[1] == "groupby"]
        self._templates = ([("filter", index) for index in range(len(FILTER_TEMPLATES))]
                           + [("groupby", index) for index in range(len(self._groupbys))])
        self._block: List[Tuple[str, int]] = []
        self._blocks = 0

    @property
    def block_size(self) -> int:
        """Requests per block; a run stops on a block boundary."""
        return len(self._templates)

    def _value(self, template: Tuple, edges: Tuple[float, ...], slots: int) -> float:
        stratum = template[2]
        while True:
            slot = self._rng.randrange(slots // 2) * 2 + self._parity
            if (template, slot) not in self._used:
                self._used.add((template, slot))
                low, high = edges[stratum], edges[stratum + 1]
                return low + (high - low) * slot / slots

    def __iter__(self) -> Iterator[Request]:
        return self

    def __next__(self) -> Request:
        # Blocks of one seeded permutation of every template: any run's mix
        # is the same whatever the seed, and a warm-up's first block caches
        # every template's partitions.
        if not self._block:
            self._block = list(self._templates)
            self._rng.shuffle(self._block)
            self._blocks += 1
        family, index = self._block.pop()
        return self.refine(family, index, (self._blocks - 1) % STRATA)

    def fill(self) -> Iterator[Request]:
        """Distinct :data:`FILL_TEMPLATE` refinements (for warm-ups)."""
        dataset, sql, edges = FILL_TEMPLATE
        for _ in range(FILL_SLOTS // 2):
            threshold = round(self._value(("fill", 0, 0), edges, FILL_SLOTS), 5)
            yield Request(_body(sql.format(threshold), "exceptionality"), TOKENS[0],
                          "filter", dataset, self._path, ("fill", 0, 0))

    def refine(self, family: str, index: int, stratum: int) -> Request:
        """A new refinement of one template (``Request.template`` names it)."""
        template = (family, index, stratum)
        if family == "filter":
            dataset, sql, edges = FILTER_TEMPLATES[index]
            threshold = round(self._value(template, edges, SLOTS), 5)
            body = _body(sql.format(threshold), "exceptionality")
            return Request(body, TOKENS[0], "filter", dataset, self._path, template)
        _, kind, dataset, sql, measure = self._groupbys[index]
        # One slot per sample size, so warm-up (even) and timed (odd) sizes
        # never coincide.
        width = SAMPLE_SIZE_EDGES[stratum + 1] - SAMPLE_SIZE_EDGES[stratum]
        size = round(self._value(template, SAMPLE_SIZE_EDGES, width))
        body = _body(sql, measure, {"sample_size": size})
        return Request(body, TOKENS[0], kind, dataset, self._path, template)


def explore_prefix(seed: int, phase: str, count: int) -> List[Request]:
    stream = ExploreStream(seed, phase)
    return [next(stream) for _ in range(count)]


def checked_positions(seed: int, within: int, count: int) -> List[int]:
    """Seeded positions of the timed explore stream whose bytes are checked."""
    return sorted(random.Random(f"{seed}:checked").sample(range(within), count))


# ---------------------------------------------------------------------- mix
def request_mix(requests: Sequence[Request]) -> Dict[str, object]:
    """Counts per kind/dataset and the number of distinct report keys."""
    mix = Counter(f"{request.kind}/{request.dataset}" for request in requests)
    return {
        "by_kind_dataset": dict(sorted(mix.items())),
        "distinct_report_keys": len({request.key for request in requests}),
    }
