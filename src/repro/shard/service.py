"""Scatter-gather query execution over a sharded collection.

:class:`ShardedQueryService` mirrors the single-node
:class:`~repro.service.QueryService` facade (``execute`` /
``execute_batch`` / ``add_document`` / ``build_index`` / ``describe``)
but sends every query to the shards of a
:class:`~repro.shard.collection.ShardedCollection`, one leg after the
other on the calling thread, and gathers the partial answers into one
cost-accounted :class:`~repro.planner.evaluator.QueryResult`:

* **prepare** — the query text is resolved once per request through
  the tier's one plan cache (:meth:`~repro.service.base.ServingFacade.plan`)
  and every leg is handed the same parsed
  :class:`~repro.query.twig.TwigPattern`, which carries its analysis
  and compiled joins: parsing, analysing and join-compiling are
  functions of the text alone, so no shard or replica repeats them;
* **land** — the tier keeps the gathered answer of each request under
  its :meth:`~repro.service.base.ServingFacade.answer_key` (query,
  strategy and options, scope, :meth:`~ShardedQueryService.generation`),
  so a repeat at the same generation is one lookup and none of the
  steps below; an answer is filed only if the generation still reads
  the same after the gather, so never under a state it was not
  computed at;
* **scatter** — each relevant shard evaluates the twig through its own
  :class:`~repro.service.QueryService`, so per-shard result caches,
  generation fingerprints and ``strategy="auto"``
  choices all apply per shard (a shard prices its plan against its own
  catalog statistics, and an ``add_document`` on one shard invalidates
  only that shard's cached results); a replicated shard
  (:class:`~repro.shard.replica.ReplicatedShard`) additionally fans the
  read to one of its replicas through its read picker;
* **prune** — a query scoped to named documents (``documents=[...]``)
  is sent only to the shards holding them, and its answer is filtered
  to those documents' id intervals;
* **gather** — shard-local answer ids are translated into the global id
  space through the routing table
  (:class:`~repro.shard.topology.ShardTopology`), merged in ascending
  (document-order) sequence, and the per-shard cost counters are
  summed through :func:`~repro.storage.stats.sum_snapshots` so the
  merged result prices exactly the logical work all shards charged.

The scatter set and every id translation come from the collection's
topology — the versioned routing table — so online rebalancing
(:meth:`ShardedQueryService.rebalance` /
:meth:`ShardedQueryService.move_document`) re-routes documents under
running queries: a move swaps the routing entry atomically, keeps the
document's global id interval, and invalidates only the two shards it
touched.

The merged answer is *identical* to what a single-engine database
holding the same documents (in the same arrival order) would return —
the shard-equivalence differential tests pin this across shard counts,
placement policies and strategies.

**Consistency model.**  Each per-shard partial answer is a consistent
snapshot of its shard (execution serializes against that shard's writes
on the shard service's lock), but there is no global read snapshot
across shards: a query racing concurrent ``add_document`` calls may
observe different shards at different write watermarks.  Every answer
is therefore a *consistent cut* — for each shard, a prefix of that
shard's add sequence — rather than a prefix of the global add sequence;
once writes quiesce, answers are exact.  This is the standard
scatter-gather contract (a global snapshot would serialize every query
against every write, forfeiting the isolation the sharding buys), and
the concurrency tests assert exactly it.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Union

from ..errors import DocumentError
from ..obs import Telemetry
from ..obs.clock import now as _now
from ..planner.evaluator import QueryResult
from ..query.parser import parse_xpath
from ..query.twig import TwigPattern
from ..storage.stats import sum_snapshots
from ..xmltree.document import Document
from ..service.base import AUTO_STRATEGY, ServingFacade
from ..service.cache import LRUCache
from .collection import (
    AutoRebalancer,
    DocumentPlacement,
    RebalanceMove,
    RebalanceReport,
    Shard,
    ShardedCollection,
)
from .placement import PlacementPolicy
from .replica import ReadPicker


class ShardedQueryService(ServingFacade):
    """A scatter-gather serving facade over a :class:`ShardedCollection`."""

    def __init__(
        self,
        collection: Optional[ShardedCollection] = None,
        num_shards: int = 4,
        placement: Union[str, PlacementPolicy] = "hash",
        replicas: int = 1,
        read_picker: Union[str, ReadPicker] = "round_robin",
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        auto_rebalance: bool = False,
        rebalance_policy: Union[str, PlacementPolicy, None] = None,
        rebalance_high_watermark: float = 2.0,
        rebalance_low_watermark: float = 1.25,
        rebalance_interval: int = 8,
        rebalance_min_documents: Optional[int] = None,
        rebalance_background: bool = True,
        telemetry: Optional[Telemetry] = None,
        use_kernels: bool = True,
    ) -> None:
        if collection is None:
            collection = ShardedCollection(
                num_shards=num_shards,
                placement=placement,
                replicas=replicas,
                read_picker=read_picker,
                plan_cache_size=plan_cache_size,
                result_cache_size=result_cache_size,
                result_cache_ttl=result_cache_ttl,
                telemetry=telemetry,
                use_kernels=use_kernels,
            )
        self.collection = collection
        #: Adopt the collection's hub: shards, replicas and per-replica
        #: services already share it, so the scatter spans this facade
        #: opens become parents of the spans those layers open.
        self.telemetry = collection.telemetry
        #: The tier's prepared plans, one per normalised query text and
        #: shared by every shard leg and replica.  Never invalidated: a
        #: plan is a function of the text alone, so no document write
        #: or index build can make one stale.
        self.plan_cache = LRUCache(plan_cache_size)
        #: Landed answers: the gathered result of one ``execute`` under
        #: its :meth:`~repro.service.base.ServingFacade.answer_key`, so
        #: a repeat at the same generation costs one lookup -- no
        #: scatter here, and no flight, slot or worker thread at the
        #: front door, which reads this on its event loop.  Sized and
        #: aged like the per-replica result caches below it, which keep
        #: the partial answers a write to another shard did not touch.
        self.answer_cache = LRUCache(
            result_cache_size, ttl_seconds=result_cache_ttl
        )
        #: The self-driving rebalance trigger; off unless
        #: ``auto_rebalance=True``.  ``execute`` ticks it after every
        #: query, so skew checks run *between* queries — never on a
        #: scatter path — and a triggered ``rebalance(policy)`` runs on
        #: the trigger's own background worker while queries keep
        #: flowing (set ``rebalance_background=False`` to run it inline
        #: on the triggering query's thread, which tests use for
        #: determinism).
        self.operations = AutoRebalancer(
            self.collection,
            policy=rebalance_policy,
            high_watermark=rebalance_high_watermark,
            low_watermark=rebalance_low_watermark,
            check_interval=rebalance_interval,
            min_documents=rebalance_min_documents,
            background=rebalance_background,
            enabled=auto_rebalance,
        )
        self.queries_executed = 0
        self._counter_lock = threading.Lock()
        #: The last fingerprint :meth:`generation` returned.
        self._generation_read: tuple = ()

    @classmethod
    def from_documents(
        cls,
        documents: Iterable[Document],
        num_shards: int = 4,
        placement: Union[str, PlacementPolicy] = "hash",
        **options,
    ) -> "ShardedQueryService":
        """Build a sharded service and load ``documents`` in order."""
        service = cls(num_shards=num_shards, placement=placement, **options)
        for document in documents:
            service.add_document(document)
        return service

    # ------------------------------------------------------------------
    # Facade mirror: loading and index management
    # ------------------------------------------------------------------
    def add_document(self, document: Document) -> Document:
        """Route one document to its shard (see :meth:`ShardedCollection.add_document`)."""
        self.collection.add_document(document)
        return document

    def remove_document(self, name: str) -> DocumentPlacement:
        """Remove the named document from its owning shard.

        Routing, incremental index deletion and span retirement are
        :meth:`ShardedCollection.remove_document`'s contract; only the
        owning shard's caches are invalidated, and the merged answer
        stream stays identical to a single engine that performed the
        same removal.  Returns the retired placement.
        """
        return self.collection.remove_document(name)

    def replace_document(self, name: str, replacement: Document) -> DocumentPlacement:
        """Replace the named document (remove + re-add through placement).

        Weaker atomicity than the single-engine facade: the two halves
        run under the owning shards' own locks, not one global lock, so
        a racing query may observe the document absent between them —
        see :meth:`ShardedCollection.replace_document`.
        """
        return self.collection.replace_document(name, replacement)

    # ------------------------------------------------------------------
    # Facade mirror: topology maintenance (online rebalancing)
    # ------------------------------------------------------------------
    def move_document(
        self, ref: Union[DocumentPlacement, str], target_shard: int
    ) -> DocumentPlacement:
        """Move one live document to another shard, online.

        Remove-from-source + add-to-target through the shards'
        incremental index maintenance, with the routing entry swapped
        atomically and the global id interval preserved — see
        :meth:`ShardedCollection.move_document`.  Answers stay
        identical to a single engine throughout.
        """
        return self.collection.move_document(ref, target_shard)

    def plan_rebalance(
        self, policy: Union[str, PlacementPolicy, None] = None
    ) -> list[RebalanceMove]:
        """The (deterministic) move plan ``rebalance`` would apply."""
        return self.collection.plan_rebalance(policy)

    def rebalance(
        self,
        policy: Union[str, PlacementPolicy, None] = None,
        compact: bool = False,
    ) -> RebalanceReport:
        """Re-place the corpus under ``policy`` (default size-balanced).

        Applies :meth:`plan_rebalance` move by move while queries keep
        running; each move invalidates only the two shards it touches.
        See :meth:`ShardedCollection.rebalance` for the report and the
        ``compact`` trade-off.
        """
        return self.collection.rebalance(policy, compact=compact)

    def compact(self) -> int:
        """Prune retired placement spans (see :meth:`ShardedCollection.compact`)."""
        return self.collection.compact()

    def revive_replica(self, shard_index: int, replica_index: int):
        """Re-sync one quarantined replica from its shard's write log.

        The recovery half of failover — see
        :meth:`~repro.shard.replica.ReplicatedShard.revive`.  Raises
        for a plain (unreplicated) shard.
        """
        if not 0 <= shard_index < self.collection.num_shards:
            raise DocumentError(
                f"shard index {shard_index} outside "
                f"[0, {self.collection.num_shards})"
            )
        shard = self.collection.shards[shard_index]
        reviver = getattr(shard, "revive", None)
        if reviver is None:
            raise DocumentError(
                f"shard {shard_index} is not replicated; nothing to revive"
            )
        return reviver(replica_index)

    def build_index(self, name: str, **options) -> None:
        """Build one index of the family on every shard."""
        self.collection.build_index(name, **options)

    def ensure_indexes_for(self, strategy_name: str) -> None:
        """Build the indexes one strategy needs, on every shard."""
        self.collection.ensure_indexes_for(strategy_name)

    def invalidate(self, rebuilt: bool = True) -> None:
        """Flush the landed answers and every replica's service caches."""
        self.answer_cache.clear()
        for shard in self.collection.shards:
            shard.invalidate(rebuilt=rebuilt)

    def generation(self) -> tuple:
        """A cheap fingerprint of everything that can change answers.

        The topology epoch (placements, moves, rebalances) plus every
        replica's service generation (documents, index builds and
        maintenance).  Read lock-free — see
        :meth:`QueryService.generation
        <repro.service.QueryService.generation>` for the contract: any
        client-visible write is reflected in every later read.  Every
        component only ever advances, so two equal reads bracket a
        stretch in which nothing a query can see changed — the rule
        :meth:`execute` lands answers by.
        """
        current = (self.collection.topology.epoch,) + tuple(
            shard.generation() for shard in self.collection.shards
        )
        # Between writes every read is equal; hand out one object, so
        # the keys that hold a generation (one per landed answer) keep
        # one nest of tuples alive between them, not one each for the
        # collector to count and walk.  A racing reader at worst keeps
        # an equal tuple of its own.
        last = self._generation_read
        if current == last:
            return last
        self._generation_read = current
        return current

    # ------------------------------------------------------------------
    # Execution: scatter, prune, gather
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        documents: Optional[Sequence[str]] = None,
        query_id: Optional[str] = None,
        **strategy_options,
    ) -> QueryResult:
        """Evaluate one query across the shards and merge the answers.

        ``documents`` scopes the query to the named documents: only the
        shards holding them are scattered to (shard pruning) and the
        merged answer contains matches from those documents alone.
        ``strategy`` and the caching knobs apply per shard —
        ``"auto"`` in particular lets every shard pick the plan its own
        statistics price cheapest.  ``query_id`` names the request in
        the query's trace (and in every shard's and replica's child
        spans), so batch items and slow-query entries attribute back to
        it.
        """
        started = _now()
        xpath = query if isinstance(query, str) else query.source
        attributes = {"tier": "sharded", "xpath": xpath}
        if query_id is not None:
            attributes["query_id"] = query_id
        with self.telemetry.span("query", **attributes) as root:
            with self.telemetry.span("plan"):
                twig = self.plan(query)
            key = (
                self.answer_key(twig.key, strategy, strategy_options, documents)
                if use_result_cache
                else None
            )
            landed = self.answer_cache.get(key) if key is not None else None
            if landed is not None:
                result = self._copy_result(landed, cached=True)
            else:
                targets = self._target_shards(documents)
                with self.telemetry.span("scatter", shards=len(targets)):
                    partials = self._scatter(
                        targets, twig, strategy, use_result_cache,
                        strategy_options, query_id=query_id,
                    )
                with self.telemetry.span("gather"):
                    result = self._gather(
                        xpath, strategy, targets, partials, started
                    )
                # File the answer only under a state it was computed at:
                # generation components never go back, so an unchanged
                # fingerprint means no leg and no translation above saw
                # a write.  A racing write costs this entry, never a
                # later reader's answer.
                if key is not None and self.generation() == key[-1]:
                    self.answer_cache.put(
                        key, self._copy_result(result, cached=True)
                    )
            root.annotate(
                strategy=result.strategy,
                cached=result.cached,
                landed=landed is not None,
                ids=len(result.ids),
            )
        self.telemetry.record_query(
            "sharded", result.strategy, root.duration_seconds, result.cached
        )
        with self._counter_lock:
            self.queries_executed += 1
        if landed is None:
            # The between-queries heartbeat of the self-driving tier,
            # counted in gathers: the answer is already merged, so a due
            # skew check (and an inline-mode rebalance) delays only the
            # turnaround of this call, never a scatter in flight.  A
            # landed answer touched no shard and moves no skew.
            self.operations.tick()
        return result

    def _target_shards(
        self, documents: Optional[Sequence[str]]
    ) -> list[tuple[Shard, Optional[list[DocumentPlacement]]]]:
        """The scatter set: (shard, scope placements or None) pairs.

        Both flavours consult the routing table: an unscoped query
        scatters to the shards the topology routes live documents to
        (shards holding none cannot contribute matches, so they are
        always pruned), a scoped query only to the shards holding the
        named documents.  ``None`` scope means the whole shard is in
        scope.
        """
        if documents is None:
            live_counts = self.collection.topology.live_counts()
            return [
                (shard, None)
                for shard, count in zip(self.collection.shards, live_counts)
                if count
            ]
        by_shard = self.collection.shards_for_documents(documents)
        return [
            (self.collection.shards[index], placements)
            for index, placements in sorted(by_shard.items())
        ]

    def _scatter(
        self,
        targets: list[tuple[Shard, Optional[list[DocumentPlacement]]]],
        twig: TwigPattern,
        strategy: str,
        use_result_cache: bool,
        strategy_options: dict,
        query_id: Optional[str] = None,
    ) -> list[QueryResult]:
        """Run the prepared twig on every target shard, on the calling thread.

        Legs run in shard order; the first error raises and later legs
        never start.  A leg is a B+-tree lookup or a result-cache hit —
        tens to hundreds of microseconds of Python under the GIL, with
        nothing to wait on but its replica's service lock — so handing
        it to another thread costs more than running it.  Concurrency
        across queries comes from the callers (the front door's
        executor workers, each carrying one whole query).

        Routing through the shard surface (not ``shard.service``
        directly) is what lets a replicated shard hand the read to one
        of its replicas.  Each leg runs under its own ``shard`` span, a
        child of the caller's ``scatter`` span.
        """
        partials: list[QueryResult] = []
        for shard, _ in targets:
            with self.telemetry.span("shard", shard=shard.index) as span:
                result = shard.execute(
                    twig,
                    strategy=strategy,
                    use_result_cache=use_result_cache,
                    query_id=query_id,
                    **strategy_options,
                )
                span.annotate(strategy=result.strategy, cached=result.cached)
            partials.append(result)
        return partials

    def _gather(
        self,
        xpath: str,
        strategy: str,
        targets: list[tuple[Shard, Optional[list[DocumentPlacement]]]],
        partials: list[QueryResult],
        started: float,
    ) -> QueryResult:
        """Translate, filter and merge per-shard answers into one result."""
        merged_ids: list[int] = []
        for (shard, scope), partial in zip(targets, partials):
            merged_ids.extend(
                self.collection.translate_sorted(
                    shard.index, sorted(partial.ids), scope=scope
                )
            )
        # Global ids are assigned in document-arrival order, so ascending
        # id order is global document order — what a single engine
        # returns.  The set() dedup covers one race: a scatter crossing
        # an in-flight move can observe the moving document on both its
        # source and target shard, and both observations translate to
        # the same global interval (quiesced scatters never produce
        # duplicates — global spans are disjoint).
        merged_ids = sorted(set(merged_ids))
        strategies = {partial.strategy for partial in partials}
        if not strategies:
            merged_strategy = strategy
        elif len(strategies) == 1:
            merged_strategy = next(iter(strategies))
        else:
            merged_strategy = "mixed(" + ",".join(sorted(strategies)) + ")"
        return QueryResult(
            strategy=merged_strategy,
            xpath=xpath,
            ids=merged_ids,
            elapsed_seconds=_now() - started,
            cost=sum_snapshots(*(partial.cost for partial in partials)),
            cached=bool(partials) and all(partial.cached for partial in partials),
        )

    # ------------------------------------------------------------------
    # Oracle (differential testing and examples)
    # ------------------------------------------------------------------
    def oracle(
        self, query: Union[str, TwigPattern], documents: Optional[Sequence[str]] = None
    ) -> list[int]:
        """Index-free ground truth, merged across shards into global ids."""
        twig = parse_xpath(query) if isinstance(query, str) else query
        targets = self._target_shards(documents)
        merged: list[int] = []
        for shard, scope in targets:
            ids = shard.oracle_ids(twig)
            merged.extend(
                self.collection.translate_sorted(shard.index, sorted(ids), scope=scope)
            )
        merged.sort()
        return merged

    # ------------------------------------------------------------------
    # Stats hooks for the shared batch loop
    # ------------------------------------------------------------------
    def _stats_snapshot(self):
        # A replicated shard's snapshot folds its replicas together via
        # StatsCollector.merge, so replica write amplification is priced.
        # The trailing entry is the auto-rebalance trigger's own
        # collector, so a batch that fires one shows it in its deltas.
        snapshots = [shard.stats_snapshot() for shard in self.collection.shards]
        snapshots.append(self.operations.stats.snapshot())
        return snapshots

    def _stats_diff(self, before) -> dict[str, int]:
        *shard_snapshots, operations_snapshot = before
        diffs = [
            shard.stats_diff(snapshot)
            for shard, snapshot in zip(self.collection.shards, shard_snapshots)
        ]
        diffs.append(self.operations.stats.diff(operations_snapshot))
        return sum_snapshots(*diffs)

    # ------------------------------------------------------------------
    # Observability scrape hooks
    # ------------------------------------------------------------------
    def _activity_counters(self) -> dict[str, int]:
        """All shards' + the rebalancer's counters, summed for the scrape."""
        return sum_snapshots(
            self.operations.stats.snapshot(),
            *(shard.stats_snapshot() for shard in self.collection.shards),
        )

    def _cache_reports(self) -> dict[str, dict[str, object]]:
        reports: dict[str, dict[str, object]] = {
            "plan": self.plan_cache.describe(),
            "answer": self.answer_cache.describe(),
        }
        for shard in self.collection.shards:
            service_report = shard.service_report()
            for cache_name, short in (
                ("plan_cache", "plan"),
                ("result_cache", "result"),
                ("choice_cache", "choice"),
            ):
                reports[f"shard{shard.index}-{short}"] = service_report[cache_name]
        return reports

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Topology, per-shard summaries and aggregated cache counters."""
        report = self.collection.describe()
        report["telemetry"] = self.telemetry.describe()
        shard_reports = [shard["service"] for shard in report["shards"]]
        # Requests look plans and landed answers up in the tier's own
        # caches and count there; the replicas' caches see only what
        # reaches a leg (for plans: text handed to a shard directly)
        # and count beside them.
        tier_caches = {
            "plan_cache": self.plan_cache,
            "result_cache": self.answer_cache,
        }
        aggregated: dict[str, dict[str, int]] = {}
        for cache_name in ("plan_cache", "result_cache", "choice_cache"):
            reports = [r[cache_name] for r in shard_reports]
            if cache_name in tier_caches:
                reports.append(tier_caches[cache_name].describe())
            aggregated[cache_name] = {
                counter: sum(r[counter] for r in reports)
                for counter in (
                    "size",
                    "hits",
                    "misses",
                    "evictions",
                    "expiries",
                    "clears",
                    "cleared_entries",
                )
            }
        report["caches"] = aggregated
        report["answer_cache"] = self.answer_cache.describe()
        report["invalidations"] = {
            "total": sum(r["invalidations"] for r in shard_reports),
            "result_only": sum(r["result_invalidations"] for r in shard_reports),
            "full": sum(r["full_invalidations"] for r in shard_reports),
        }
        report["maintenance"] = {
            counter: sum(r["maintenance"][counter] for r in shard_reports)
            for counter in (
                "documents_added",
                "documents_removed",
                "index_builds",
                "index_updates",
            )
        }
        # A replace decomposes into a remove + an add at the shard
        # services (the halves may even land on different shards), so
        # the per-shard counters record the decomposition; the
        # collection counts the operation as itself.  Moves decompose
        # the same way — the topology's counter is the operation-level
        # truth.
        report["maintenance"]["documents_replaced"] = (
            self.collection.documents_replaced
        )
        report["maintenance"]["documents_moved"] = (
            self.collection.topology.documents_moved
        )
        if self.collection.replica_count > 1:
            report["replica_reads"] = {
                "picker": self.collection.shards[0].picker.name,
                "per_shard": [
                    list(shard.replica_reads) for shard in self.collection.shards
                ],
                "total": sum(
                    sum(shard.replica_reads) for shard in self.collection.shards
                ),
            }
        report["queries_executed"] = self.queries_executed
        report["operations"] = {
            "auto_rebalance": self.operations.describe(),
            "failover": self._failover_report(),
        }
        return report

    def _failover_report(self) -> dict[str, object]:
        """Replica health and failover activity, aggregated over shards."""
        per_shard = [shard.health_report() for shard in self.collection.shards]
        return {
            "per_shard": per_shard,
            "reads_retried": sum(r["reads_retried"] for r in per_shard),
            "reads_rerouted": sum(r["reads_rerouted"] for r in per_shard),
            "replicas_failed": sum(r["replicas_failed"] for r in per_shard),
            "replicas_revived": sum(r["replicas_revived"] for r in per_shard),
        }

    def close(self) -> None:
        """Drain the operations worker (idempotent).

        Inherited ``__enter__`` / ``__exit__`` (see
        :class:`~repro.service.base.ServingFacade`) make the service a
        context manager, so ``with ShardedQueryService(...) as service``
        releases its worker thread on the way out.
        """
        self.operations.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedQueryService(shards={self.collection.num_shards}, "
            f"placement={self.collection.placement.name!r}, "
            f"documents={self.collection.document_count})"
        )
