"""Logical cost accounting for the storage and execution layers.

The paper reports wall-clock times on DB2 running on 2002-era hardware.
Absolute times are not reproducible, so every component of this library
additionally reports *logical* work through a shared
:class:`StatsCollector`:

* ``btree_node_reads`` — internal + leaf B+-tree nodes visited,
* ``btree_entries_scanned`` — leaf entries touched during range scans,
* ``heap_page_reads`` — heap pages fetched by table scans,
* ``index_lookups`` — number of distinct index probes issued,
* ``join_probes`` / ``join_comparisons`` — work done by join operators,
* ``tuples_produced`` — tuples emitted by plan roots.

Benchmarks use these counters (together with wall-clock time) to check
that the *shape* of the paper's results holds: which strategy wins, by
roughly what factor, and where crossovers occur.

The write-side counters (``btree_writes``, ``btree_deletes``,
``btree_page_writes``, ``heap_page_writes``) price index maintenance —
builds, incremental inserts on ``add_document`` and incremental deletes
on ``remove_document`` — in the same currency, via
:func:`maintenance_cost`.  See ``docs/ARCHITECTURE.md`` ("The cost
currency") for how the two formulas relate.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

#: Weight of one page-granularity read (B+-tree node or heap page) in the
#: aggregate cost proxy, relative to per-entry / per-comparison CPU work.
PAGE_READ_WEIGHT = 10

#: Weight of one page-granularity write in the maintenance cost proxy.
#: Writes are priced in the same currency as reads so the cost of
#: incremental index maintenance is directly comparable to (and
#: benchmarkable against) the cost of rebuilding an index from scratch.
PAGE_WRITE_WEIGHT = 10


#: The StatsCollector counters that record serving *activity* (writes,
#: cache invalidations, tier queries, retries, failovers, revives,
#: rebalances, moves) rather than logical cost.  Each is counted once,
#: where it happens, and every report reads it back from a summed
#: snapshot; the observability scrape exports these — alongside the
#: cost counters — as ``repro_stats`` gauges.  Keeping the list here
#: means the metric surface and the dataclass cannot drift apart.
ACTIVITY_COUNTERS = (
    "documents_added",
    "documents_removed",
    "documents_replaced",
    "invalidations",
    "queries_executed",
    "documents_moved",
    "reads_retried",
    "reads_rerouted",
    "replicas_failed",
    "replicas_revived",
    "auto_rebalances",
)


def weighted_cost(counters: Mapping[str, int]) -> int:
    """The aggregate cost proxy over a counter mapping.

    This is the single definition of the benchmark cost formula: both
    :meth:`StatsCollector.total_cost` and per-query cost dicts (see
    :class:`~repro.planner.evaluator.QueryResult`) are priced through it,
    so the weighting cannot drift between the two.  Write counters do
    not contribute — queries never write, and charging build work to
    the query that happened to trigger an on-demand build would skew
    every figure; maintenance work is priced separately by
    :func:`maintenance_cost` in the same currency.
    """
    return (
        PAGE_READ_WEIGHT
        * (counters.get("btree_node_reads", 0) + counters.get("heap_page_reads", 0))
        + counters.get("btree_entries_scanned", 0)
        + counters.get("join_comparisons", 0)
        + counters.get("join_probes", 0)
    )


def sum_snapshots(*snapshots: Mapping[str, int]) -> dict[str, int]:
    """Sum counter mappings key-wise into one counter dict.

    The single aggregation path for combining per-shard (or otherwise
    partitioned) cost measurements: :meth:`StatsCollector.merge`,
    :meth:`StatsCollector.__add__` and the scatter-gather result merge
    all reduce to it, so cross-shard totals cannot drift from
    single-collector arithmetic.  Unknown keys are carried through —
    callers may sum plain cost dicts that hold only a few counters.
    """
    total: dict[str, int] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            total[key] = total.get(key, 0) + value
    return total


def diff_snapshots(
    after: Mapping[str, int], before: Mapping[str, int]
) -> dict[str, int]:
    """Key-wise ``after - before`` over the keys of ``before``.

    The one delta of two counter readings, beside :func:`sum_snapshots`:
    :meth:`StatsCollector.diff`, a shard's merged-counter diff and a
    batch's cost window all reduce to it.  Summing commutes with it, so
    the difference of summed readings equals the sum of per-part
    differences.  A key missing from ``after`` reads as 0.
    """
    return {key: after.get(key, 0) - value for key, value in before.items()}


def maintenance_cost(counters: Mapping[str, int]) -> int:
    """The aggregate cost proxy for index maintenance work.

    Expressed in the same weighted currency as :func:`weighted_cost`
    (pages dominate per-entry CPU work), so "incrementally insert one
    document", "incrementally remove one document" and "rebuild the
    index from scratch" are comparable numbers: page-granular B+-tree
    and heap writes carry :data:`PAGE_WRITE_WEIGHT`, per-entry insert
    work (``btree_writes``) and per-entry delete work
    (``btree_deletes``) count like a scanned entry.
    """
    return (
        PAGE_WRITE_WEIGHT
        * (counters.get("btree_page_writes", 0) + counters.get("heap_page_writes", 0))
        + counters.get("btree_writes", 0)
        + counters.get("btree_deletes", 0)
    )


@dataclass
class StatsCollector:
    """Mutable set of logical-cost counters shared by storage components."""

    btree_node_reads: int = 0
    btree_entries_scanned: int = 0
    btree_writes: int = 0
    btree_deletes: int = 0
    btree_page_writes: int = 0
    heap_page_reads: int = 0
    heap_page_writes: int = 0
    index_lookups: int = 0
    join_probes: int = 0
    join_comparisons: int = 0
    tuples_produced: int = 0
    #: Service activity: document writes as a service saw them, cache
    #: invalidations (flushes of the result and choice caches), and
    #: queries the sharded tier answered.  Activity records, not cost
    #: terms — the work behind them is charged through the counters above.
    documents_added: int = 0
    documents_removed: int = 0
    documents_replaced: int = 0
    invalidations: int = 0
    queries_executed: int = 0
    #: Completed cross-shard document moves (online rebalancing).  Not a
    #: cost term of either formula — a move's real work is already
    #: charged as delete-side maintenance on the source shard and
    #: insert-side maintenance on the target shard — but carried here so
    #: movement activity aggregates through the same snapshot / merge /
    #: diff machinery as every other counter.
    documents_moved: int = 0
    #: Operations counters of the self-driving tier (replica failover
    #: and watermark-triggered auto-rebalance).  Like
    #: ``documents_moved`` they are activity records, not cost terms —
    #: the work a retry or a rebalance performs is already charged
    #: through the read/maintenance counters above — but carrying them
    #: here means failover and auto-rebalance activity flows through
    #: the same snapshot / merge / diff machinery as everything else.
    reads_retried: int = 0
    reads_rerouted: int = 0
    replicas_failed: int = 0
    replicas_revived: int = 0
    auto_rebalances: int = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of all counters.

        The instance dict *is* the counters, in field order (the class
        declares nothing else), and copying it is one C call where a
        per-field ``getattr`` loop was microseconds — on every executed
        query, and on every traced one twice.
        """
        return self.__dict__.copy()

    def total_logical_io(self) -> int:
        """Reads that would hit the buffer pool: B+-tree nodes + heap pages."""
        return self.btree_node_reads + self.heap_page_reads

    def total_cost(self) -> int:
        """An aggregate cost proxy used by the benchmark harness.

        Weighted so that page-granularity reads dominate per-entry and
        per-comparison CPU work, mirroring an I/O-bound cost model.
        The formula lives in :func:`weighted_cost`.
        """
        return weighted_cost(self.snapshot())

    def total_maintenance_cost(self) -> int:
        """Aggregate write-side cost proxy (index builds and updates).

        The formula lives in :func:`maintenance_cost` and shares the
        page weighting of :meth:`total_cost`, so maintenance work is
        benchmarkable against query work in one currency.
        """
        return maintenance_cost(self.snapshot())

    def diff(self, earlier: dict[str, int]) -> dict[str, int]:
        """Counter deltas relative to an earlier :meth:`snapshot`."""
        return diff_snapshots(self.__dict__, earlier)

    @contextlib.contextmanager
    def measure(self) -> Iterator[dict[str, int]]:
        """Context manager yielding a dict that is filled with the deltas
        of every counter when the block exits."""
        before = self.snapshot()
        result: dict[str, int] = {}
        yield result
        result.update(self.diff(before))

    def merge(self, *others: "StatsCollector") -> "StatsCollector":
        """Add the counters of ``others`` into this collector, in place.

        The mutating aggregation primitive behind cross-shard totals:
        a gather step merges every shard's collector into one summary
        collector.  Returns ``self`` so merges chain.  Shares the
        key-wise arithmetic of :func:`sum_snapshots` — the one
        aggregation code path — rather than re-implementing it.
        """
        combined = sum_snapshots(self.snapshot(), *(o.snapshot() for o in others))
        for f in fields(self):
            setattr(self, f.name, combined[f.name])
        return self

    def __add__(self, other: "StatsCollector") -> "StatsCollector":
        return StatsCollector().merge(self, other)


#: A module-level collector used when callers do not supply their own.
GLOBAL_STATS = StatsCollector()
