"""Seeded inputs of the three socket-level workloads.

Everything the server and the load generator consume is generated here
from ``--seed``: the corpus (as XML text, so the seed itself never
reaches the server), the request mix, the Poisson arrival schedule and
the write cycle.  The same seed gives byte-identical inputs.

The names below (``hot_hits``, ``cold_twigs``, ``mixed_rw``) are the
contract with ``BENCHMARK.json`` and with later issues, which quote
them verbatim.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.datasets import generate_xmark
from repro.workloads import ALL_QUERIES
from repro.xmltree import Document, serialize

#: The tier every workload runs against (ISSUE: 4 shards x 2 replicas,
#: 8 XMark-like documents placed round-robin).
SHARDS = 4
REPLICAS = 2
PLACEMENT = "round_robin"
INDEXES = ("rootpaths", "datapaths")
CORPUS_DOCS = 8
CORPUS_SCALE = 0.06

#: Scale of the two documents the write cycle adds and replaces with,
#: and how many seeded ones they are picked from.
WRITE_DOC_SCALE = 0.01
WRITE_DOC_CANDIDATES = 16

#: ``cold_twigs`` draws from more distinct xpaths than the per-replica
#: plan cache (256) and result cache (1024) can hold.
COLD_POOL_SIZE = 8192
#: How many pool entries the answer check compares against the oracle.
COLD_CHECK_SAMPLE = 128

#: The 16 XMark queries of the paper's catalog, in paper order; the
#: Zipf rank of a query is its position here, so the popular head does
#: not change with the seed.
CATALOG = tuple(q.xpath for q in ALL_QUERIES if q.dataset == "xmark")
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix: who reads what, how fast, and who writes."""

    name: str
    why: str
    #: ``"catalog"`` (Zipf over :data:`CATALOG`) or ``"pool"`` (a
    #: seeded permutation of the cold pool, so nothing repeats).
    reads: str
    #: Open-loop arrival rate of reads.
    read_qps: float
    #: A read slower than this (from its due time) misses the SLO.
    limit_ms: float
    #: Writes per second on a fixed schedule beside the reads; 0 is
    #: read-only, and then a back-to-back write probe runs between the
    #: read windows instead (``loadgen``).
    write_rate: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hot_hits",
            "Zipf over 16 catalog queries: every shard leg is a result-cache hit, so HTTP, "
            "admission, executor hop, scatter and gather do the work and the engine idles",
            reads="catalog", read_qps=300.0, limit_ms=10.0,
        ),
        Workload(
            "cold_twigs",
            "8192 distinct value-parameterised twigs, none repeated: every request parses, "
            "plans, chooses and executes on all shards, so query/planner/kernels/indexes lead",
            reads="pool", read_qps=80.0, limit_ms=25.0,
        ),
        Workload(
            "mixed_rw",
            "hot reads beside one add/replace/remove per second: each write drops one shard's "
            "results and holds its lock, so reads mix hits, re-executions and lock waits",
            reads="catalog", read_qps=200.0, limit_ms=25.0, write_rate=1.0,
        ),
    )
}


# ----------------------------------------------------------------------
# Corpus and write documents
# ----------------------------------------------------------------------
def _subseed(seed: int, label: str) -> int:
    return random.Random(f"{seed}/{label}").getrandbits(31)


def corpus_documents(seed: int) -> list[Document]:
    return [
        generate_xmark(
            scale=CORPUS_SCALE, seed=_subseed(seed, f"corpus/{i}"), name=f"doc{i}"
        )
        for i in range(CORPUS_DOCS)
    ]


def as_named_xml(documents: Sequence[Document]) -> list[tuple[str, str]]:
    """``(name, xml text)`` pairs: the only form the server ever sees."""
    return [(document.name, serialize(document)) for document in documents]


def write_ops(seed: int) -> Iterator[tuple[str, str, Optional[str]]]:
    """The endless add -> replace -> remove cycle as ``(op, name, xml)``.

    Every cycle uses a fresh document name, so the corpus returns to
    its base content after each ``remove`` while node ids keep growing
    (ids are never reused).  Every cycle adds the same document and
    replaces it with the same other one, so the writes of a kind cost
    the same and the fastest of them is the one the host left alone.
    The two are the median-sized of :data:`WRITE_DOC_CANDIDATES` seeded
    ones: a write costs what its document weighs, the generator's
    documents differ by a quarter, and the median differs little from
    seed to seed.
    """
    candidates = sorted(
        (
            serialize(
                generate_xmark(scale=WRITE_DOC_SCALE, seed=_subseed(seed, f"write/{i}"), name="w")
            )
            for i in range(WRITE_DOC_CANDIDATES)
        ),
        key=len,
    )
    added, replacement = candidates[WRITE_DOC_CANDIDATES // 2 - 1 : WRITE_DOC_CANDIDATES // 2 + 1]
    for cycle in itertools.count():
        name = f"churn{cycle}"
        yield ("add", name, added)
        yield ("replace", name, replacement)
        yield ("remove", name, None)


# ----------------------------------------------------------------------
# Read mixes
# ----------------------------------------------------------------------
def _values(documents: Sequence[Document], parent: str, label: str) -> list[str]:
    """Distinct values of ``parent/label`` nodes, harvested from the corpus."""
    found = set()
    for document in documents:
        for node in document.iter_structural():
            if node.label == label and node.parent is not None and node.parent.label == parent:
                found.update(child.label for child in node.children if child.is_value)
    return sorted(found)


def cold_pool(seed: int, documents: Sequence[Document]) -> list[str]:
    """``COLD_POOL_SIZE`` distinct xpaths in the paper's four shapes.

    Fig 11 single paths, Fig 12(a-c) high-branch twigs, Fig 12(d)
    low-branch twigs and Fig 13 recursive ``//item`` twigs, with the
    predicate values drawn from what the corpus actually holds.  The
    weights lean toward 3-branch and recursive twigs, the shapes on
    which the planner and the kernels do the most work.
    """
    rng = random.Random(f"{seed}/pool")
    income = _values(documents, "profile", "income")
    increase = _values(documents, "open_auction", "increase")
    bid_increase = _values(documents, "bidder", "increase")
    location = _values(documents, "item", "location")
    quantity = _values(documents, "item", "quantity")
    category = _values(documents, "incategory", "category")
    date = _values(documents, "mail", "date")
    author = _values(documents, "author", "person")
    current = _values(documents, "open_auction", "current")
    regions = ("namerica", "europe", "asia", "africa", "australia", "samerica")
    pick = rng.choice
    shapes = (
        (1, lambda: f"/site/regions/{pick(regions)}/item/mailbox/mail/date[. = '{pick(date)}']"),
        (1, lambda: f"/site/open_auctions/open_auction/current[. = '{pick(current)}']"),
        (2, lambda: f"/site[people/person/profile/@income = '{pick(income)}']"
                    f"/open_auctions/open_auction[@increase = '{pick(increase)}']"),
        (4, lambda: f"/site[people/person/profile/@income = '{pick(income)}']"
                    f"[regions/{pick(regions)}/item/location = '{pick(location)}']"
                    f"/open_auctions/open_auction[@increase = '{pick(increase)}']"),
        (2, lambda: f"/site/open_auctions/open_auction"
                    f"[annotation/author/@person = '{pick(author)}']"
                    f"[bidder/@increase = '{pick(bid_increase)}']/time"),
        (3, lambda: f"/site//item[incategory/category = '{pick(category)}']"
                    f"[mailbox/mail/date = '{pick(date)}']/mailbox/mail/to"),
        (3, lambda: f"/site//item[quantity = '{pick(quantity)}'][location = '{pick(location)}']"
                    f"[incategory/category = '{pick(category)}']/mailbox/mail/to"),
    )
    makers = [make for weight, make in shapes for _ in range(weight)]
    pool: dict[str, None] = {}
    while len(pool) < COLD_POOL_SIZE:
        pool[pick(makers)()] = None
    return list(pool)


class ReadMix:
    """An endless, seeded sequence of indexes into ``xpaths``."""

    def __init__(self, seed: int, workload: Workload, documents: Sequence[Document]) -> None:
        self._seed = seed
        self._rng = random.Random(f"{seed}/reads/{workload.name}")
        if workload.reads == "catalog":
            self.xpaths: Sequence[str] = CATALOG
            weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(CATALOG) + 1)]
            self._cumulative = list(itertools.accumulate(weights))
            self._order: Optional[list[int]] = None
        else:
            self.xpaths = cold_pool(seed, documents)
            self._order = list(range(len(self.xpaths)))
            self._rng.shuffle(self._order)
            self._cursor = 0

    def take(self, count: int) -> list[int]:
        if self._order is None:
            total = self._cumulative[-1]
            return [
                bisect.bisect_left(self._cumulative, self._rng.random() * total)
                for _ in range(count)
            ]
        picked = [
            self._order[(self._cursor + i) % len(self._order)] for i in range(count)
        ]
        self._cursor += count
        return picked

    def check_sample(self) -> list[int]:
        """Indexes the answer check re-reads and compares against the oracle.

        The whole catalog, or a sample of the pool entries already
        issued, so the timed reads of the same xpaths are checked too.
        """
        if self._order is None:
            return list(range(len(self.xpaths)))
        issued = self._order[: max(COLD_CHECK_SAMPLE, min(self._cursor, len(self._order)))]
        return random.Random(f"{self._seed}/check").sample(issued, COLD_CHECK_SAMPLE)


def poisson_offsets(seed: int, label: str, rate: float, seconds: float) -> list[float]:
    """Arrival offsets in ``[0, seconds)`` of a Poisson process at ``rate``/s."""
    rng = random.Random(f"{seed}/arrivals/{label}")
    offsets = []
    at = rng.expovariate(rate)
    while at < seconds:
        offsets.append(at)
        at += rng.expovariate(rate)
    return offsets
