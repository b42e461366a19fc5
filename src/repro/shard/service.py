"""The sharded tier: routing, online rebalancing and scatter-gather.

:class:`ShardedQueryService` splits a document forest across N shards
and mirrors the single-node :class:`~repro.service.QueryService` facade
(``execute`` / ``execute_batch`` / ``add_document`` / ``build_index`` /
``describe``) over them.  Each shard is a
:class:`~repro.shard.replica.Shard`: a set of ``replicas`` identical,
fully independent vertical slices of the stack (one is the plain shard;
more scale reads out).  That independence buys the tier its isolation:
adding a document touches one shard's indexes and invalidates one
shard's result cache, while the other shards keep serving cached
answers.

**Routing and rebalancing.**  Where documents live is the routing
table :class:`~repro.shard.topology.ShardTopology` (its module says how
shard-local ids translate to the single-engine id space, and why a
moved or removed document's span keeps translating until
:meth:`~ShardedQueryService.compact`).  That translation makes the tier
answer-identical to a single engine, before, during and after a
:meth:`~ShardedQueryService.move_document` or
:meth:`~ShardedQueryService.rebalance`.

**Execution.**  Every query is sent to the relevant shards, one leg
after the other on the calling thread, and the partial answers are
gathered into one cost-accounted
:class:`~repro.planner.evaluator.QueryResult`:

* **prepare** — the query text is resolved once per request through
  the tier's one plan cache (:meth:`~repro.service.base.ServingFacade.plan`)
  and every leg is handed the same parsed
  :class:`~repro.query.twig.TwigPattern`, which carries its analysis
  and compiled joins, so no shard or replica repeats them;
* **land** — the tier keeps the gathered answer of each request under
  its :meth:`~repro.service.base.ServingFacade.answer_key` (query,
  strategy and options, scope, :meth:`~ShardedQueryService.generation`),
  so a repeat at the same generation is one lookup and none of the
  steps below; an answer is filed only if the generation still reads
  the same after the gather, so never under a state it was not
  computed at;
* **scatter** — each relevant shard evaluates the twig through its own
  :class:`~repro.service.QueryService`, so per-shard result caches,
  generation fingerprints and ``strategy="auto"`` choices all apply
  per shard; a shard hands the read to one of its replicas through its
  read picker;
* **prune** — a query scoped to named documents (``documents=[...]``)
  is sent only to the shards holding them, and its answer is filtered
  to those documents' id intervals;
* **gather** — shard-local answer ids are translated into the global id
  space through the routing table, merged in ascending (document-order)
  sequence, and the per-shard cost counters are summed through
  :func:`~repro.storage.stats.sum_snapshots` so the merged result
  prices exactly the logical work all shards charged.

**Consistency model.**  Each per-shard partial answer is a consistent
snapshot of its shard (execution serializes against that shard's writes
on the shard service's lock), but there is no global read snapshot
across shards: a query racing concurrent writes may observe different
shards at different write watermarks.  Every answer is therefore a
*consistent cut* — for each shard, a prefix of that shard's write
sequence — rather than a prefix of the global one; once writes quiesce,
answers are exact.  This is the standard scatter-gather contract (a
global snapshot would serialize every query against every write,
forfeiting the isolation the sharding buys), and the concurrency tests
assert exactly it.  See ``docs/ARCHITECTURE.md`` ("The shard tier").
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence, Union

from ..errors import DocumentError
from ..obs import Telemetry
from ..obs.clock import now as _now
from ..planner.evaluator import QueryResult
from ..query.match import NaiveMatcher
from ..query.parser import parse_xpath
from ..query.twig import TwigPattern
from ..storage.stats import StatsCollector, diff_snapshots, maintenance_cost, sum_snapshots
from ..xmltree.document import Document
from ..service.base import AUTO_STRATEGY, LandedAnswer, ServingFacade, cache_report, cache_section
from ..service.cache import LRUCache
from .placement import PlacementPolicy, make_placement
from .rebalance import AutoRebalancer, RebalanceMove, RebalanceReport
from .replica import FAILOVER_COUNTERS, ReadPicker, Shard
from .topology import DocumentPlacement, ShardTopology


class ShardedQueryService(ServingFacade):
    """N shards, a placement policy, a routing topology, and scatter-gather."""

    def __init__(
        self,
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
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.placement = make_placement(placement)
        #: One observability hub for the whole tier — every shard,
        #: replica and per-replica service shares it, so one query's
        #: spans land in one trace and every layer's ops events land in
        #: one ordered log.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.shards = [
            Shard(
                i,
                replicas=replicas,
                read_picker=read_picker,
                plan_cache_size=plan_cache_size,
                result_cache_size=result_cache_size,
                result_cache_ttl=result_cache_ttl,
                telemetry=self.telemetry,
            )
            for i in range(num_shards)
        ]
        #: The routing table: placements, id translation, epochs.  Its
        #: lock guards only routing bookkeeping and is never held
        #: across a shard's engine work, so a slow write to one shard
        #: cannot stall the gather (id translation) phase of queries on
        #: the other shards.
        self.topology = ShardTopology(num_shards)
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
        #: The tier's own activity: ``queries_executed``, one per
        #: :meth:`execute`; ``documents_replaced``, since the shards see
        #: a replace as a remove + an add; and the rebalancer's
        #: ``auto_rebalances``.  The tier bumps its two under
        #: :attr:`_counter_lock`, the rebalancer under its own lock.
        self.stats = StatsCollector()
        self._counter_lock = threading.Lock()
        #: The self-driving rebalance trigger; off unless
        #: ``auto_rebalance=True``.  ``execute`` ticks it after every
        #: query, so skew checks run *between* queries — never on a
        #: scatter path — and a triggered ``rebalance(policy)`` runs on
        #: the trigger's own background worker while queries keep
        #: flowing (set ``rebalance_background=False`` to run it inline
        #: on the triggering query's thread, which tests use for
        #: determinism).
        self.operations = AutoRebalancer(
            self,
            policy=rebalance_policy,
            high_watermark=rebalance_high_watermark,
            low_watermark=rebalance_low_watermark,
            check_interval=rebalance_interval,
            min_documents=rebalance_min_documents,
            background=rebalance_background,
            enabled=auto_rebalance,
        )

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

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def collection(self) -> "ShardedQueryService":
        """This tier, under the name ``benchmarks/e2e/layers.py`` reads.

        That harness reads ``service.collection.shards``,
        ``.translate_sorted(...)`` and ``.index_sizes_mb()``; nothing
        else may use this name.
        """
        return self

    def _shard(self, index: int) -> Shard:
        if not 0 <= index < self.num_shards:
            raise DocumentError(
                f"shard index {index} outside [0, {self.num_shards})"
            )
        return self.shards[index]

    def _choose(
        self,
        policy: PlacementPolicy,
        document: Document,
        ordinal: int,
        weights: Sequence[int],
    ) -> int:
        """The shard ``policy`` picks for ``document``, range-checked."""
        index = policy.choose(document, ordinal, weights)
        if not 0 <= index < self.num_shards:
            raise DocumentError(
                f"placement policy {policy.name!r} returned shard "
                f"{index} outside [0, {self.num_shards})"
            )
        return index

    # ------------------------------------------------------------------
    # Writes: add, remove, replace
    # ------------------------------------------------------------------
    def add_document(self, document: Document) -> DocumentPlacement:
        """Route one document to its shard and record its routing entry.

        The placement policy picks the shard from the live node count
        per shard (:meth:`~repro.shard.topology.ShardTopology.shard_node_weights`,
        the currency :meth:`plan_rebalance` and the skew trigger use);
        the shard adds the document under its own add lock, maintaining
        that shard's built indexes incrementally and invalidating only
        that shard's cached results.  The topology lock is held only for
        the bookkeeping, never across the engine work, so writes to one
        shard do not stall queries (or writes) on the others.  Returns
        the recorded :class:`DocumentPlacement`.
        """
        ordinal = self.topology.next_ordinal()
        # Weights are read without the shard add locks: a concurrent
        # write can skew one, which costs a policy a slightly stale
        # balance decision, never correctness.
        shard_index = self._choose(
            self.placement, document, ordinal, self.topology.shard_node_weights()
        )
        shard = self.shards[shard_index]
        with shard.add_lock:
            # The span is recorded *before* the engine add: the document
            # occupies exactly one id per node (renumbering is a pre-order
            # walk over the whole subtree), so its interval is known up
            # front.  Recording first means a concurrent query can never
            # see the new nodes without a span to translate them — it
            # either observes neither (a consistent cut without the
            # document) or both.  A span whose data has not landed yet
            # maps nothing and is harmless.
            local_start = shard.watermark
            count = document.count_nodes()
            placement = self.topology.reserve(
                document.name, ordinal, shard_index, local_start, count
            )
            # No rollback on failure: once the engine add starts, the
            # shard database may already hold the document's nodes, and
            # nothing in this codebase is transactional (a failed
            # single-node add leaves its engine just as mutated).
            # Keeping the span means any nodes that did land stay
            # translatable; a span whose data never landed maps nothing.
            shard.add_document(document)
            if shard.watermark != placement.local_end:
                raise DocumentError(
                    f"document {document.name!r} numbered "
                    f"{shard.watermark - local_start} ids but its span "
                    f"reserved {count}"
                )
            return placement

    def remove_document(self, name: str) -> DocumentPlacement:
        """Remove the uniquely named document from its owning shard.

        The owning shard removes the document from its database and
        built indexes (incrementally where supported) and invalidates
        its own cached results only.  The topology retires the
        placement: out of the live maps but still translatable off the
        hot path — local and global ids are never reused, so a
        concurrently scattered query that executed against the
        pre-removal shard snapshot can still translate its answer until
        :meth:`compact` prunes the span.  Returns the retired placement.
        """
        placement = self.topology.resolve_unique(name)
        shard = self.shards[placement.shard_index]
        with shard.add_lock:
            shard.remove_document(name)
            self.topology.retire(placement)
        return placement

    def replace_document(self, name: str, replacement: Document) -> DocumentPlacement:
        """Replace the named document: remove it, then add ``replacement``.

        The replacement routes through the placement policy like any
        add and is numbered at the current global watermark — exactly
        the ids a single engine would assign after the same remove +
        add.  Returns the new placement.

        Unlike the single-engine
        :meth:`~repro.service.service.QueryService.replace_document`,
        the two halves are **not** atomic under one lock: the
        replacement may land on a different shard, and holding two
        shards' add locks at once would invite lock-order deadlocks.
        A query racing a replace may therefore observe the gap state
        (old version gone, new version not yet added) — one more
        consistent cut; once writes quiesce, answers are exact.
        """
        self.remove_document(name)
        placement = self.add_document(replacement)
        with self._counter_lock:
            self.stats.documents_replaced += 1
        return placement

    # ------------------------------------------------------------------
    # Online rebalancing: document movement between shards
    # ------------------------------------------------------------------
    def move_document(
        self, ref: Union[DocumentPlacement, str], target_shard: int
    ) -> DocumentPlacement:
        """Move one live document to ``target_shard``, online.

        A remove from the source shard plus an add on the target shard,
        both through the shards' incremental index maintenance: the
        source's indexes forget the document's rows, the target's absorb
        them, and each side's write work lands in its own collector.
        Only those two shards bump their generations.

        The routing entry is swapped atomically
        (:meth:`~repro.shard.topology.ShardTopology.record_move`): the
        document keeps its **global** id interval and gains a fresh
        local interval at the target's watermark, so merged answers are
        identical to a single engine's.  Both shards' add locks are held
        (in ascending shard order, so concurrent moves cannot deadlock)
        across the whole move.  A scatter racing the move may observe
        the document on *neither* shard (the documented gap a
        cross-shard :meth:`replace_document` has) or on *both*; in the
        latter case both observations translate to the same global
        interval and the gather deduplicates.  Returns the new
        placement; a move to the owning shard is a no-op.
        """
        if isinstance(ref, DocumentPlacement):
            placement = ref
            self._check_live(placement)
        else:
            placement = self.topology.resolve_unique(ref)
        target = self._shard(target_shard)
        if target_shard == placement.shard_index:
            return placement
        source = self.shards[placement.shard_index]
        # Deadlock-free two-shard locking: always in ascending shard
        # order, whatever direction the move goes.
        first, second = sorted((source, target), key=lambda shard: shard.index)
        with first.add_lock, second.add_lock:
            # Re-check under the locks: a removal (or another move) may
            # have retired the placement between resolution and here.
            self._check_live(placement)
            document = source.document_at(placement.local_start)
            local_start = target.watermark
            moved = self.topology.record_move(placement, target_shard, local_start)
            target.add_document(source.remove_document(document))
            if target.watermark != moved.local_end:
                raise DocumentError(
                    f"document {document.name!r} numbered "
                    f"{target.watermark - local_start} ids on shard "
                    f"{target_shard} but its span reserved {moved.node_count}"
                )
            # The one count of a move, under the target's add lock.
            target.stats.documents_moved += 1
        return moved

    def _check_live(self, placement: DocumentPlacement) -> None:
        if not self.topology.is_live(placement):
            raise DocumentError(
                f"placement of {placement.name!r} (ordinal "
                f"{placement.ordinal}) is not live"
            )

    def plan_rebalance(
        self, policy: Union[str, PlacementPolicy, None] = None
    ) -> list[RebalanceMove]:
        """The moves that re-place every live document under ``policy``.

        Replays the live documents in arrival order through the policy
        against simulated (initially empty) node-count weights — the
        assignment the policy would have produced had it placed the
        whole corpus itself — and returns a move for every document
        whose current shard differs.  Deterministic for deterministic
        policies: :class:`~repro.shard.placement.SizeBalancedPlacement`
        breaks weight ties by lowest shard index, so the same corpus
        always yields the same plan.  Defaults to ``size_balanced``
        (the policy that undoes skew); planning mutates nothing.
        """
        chosen = make_placement(policy or "size_balanced")
        weights = [0] * self.num_shards
        moves: list[RebalanceMove] = []
        for placement in self.topology.placements():
            try:
                document = self.shards[placement.shard_index].document_at(
                    placement.local_start
                )
            except DocumentError:
                # A removal or move racing the plan can retire the
                # placement (and detach its shard-side document) after
                # the placements() snapshot.  Planning mutates nothing,
                # so skip it rather than fail the whole plan — which,
                # from a background auto-rebalance, would fail an
                # unrelated caller.  A live but unresolvable placement
                # still surfaces at move time, which re-checks liveness
                # under the shard locks.
                continue
            target = self._choose(chosen, document, placement.ordinal, weights)
            weights[target] += placement.node_count
            if target != placement.shard_index:
                moves.append(RebalanceMove(placement, target))
        return moves

    def rebalance(
        self,
        policy: Union[str, PlacementPolicy, None] = None,
        compact: bool = False,
    ) -> RebalanceReport:
        """Plan and apply a rebalance; optionally compact retired spans.

        Every planned move runs through :meth:`move_document` — online,
        two shards at a time, answers identical throughout, and each
        move invalidates only the two shards it touches.  With
        ``compact=True`` every retired span — those these moves retired
        *plus* any left by earlier removal/move churn — is pruned
        afterwards (do this when no pre-rebalance answers are still in
        flight); the report's ``spans_pruned`` counts that whole
        compaction.  Returns a :class:`RebalanceReport` pricing the
        whole operation in the shared maintenance currency.
        """
        plan = self.plan_rebalance(policy)
        before = self._counter_totals()
        moved = 0
        nodes_moved = 0
        for move in plan:
            # A removal racing the rebalance may retire a planned
            # placement at any point up to the move's lock acquisition;
            # skip dead placements rather than failing the whole batch.
            try:
                applied = self.move_document(move.placement, move.target_shard)
            except DocumentError:
                if self.topology.is_live(move.placement):
                    raise
                continue
            moved += 1
            nodes_moved += applied.node_count
        pruned = self.compact() if compact else 0
        spent = diff_snapshots(self._counter_totals(), before)
        return RebalanceReport(
            policy=make_placement(policy or "size_balanced").name,
            planned=len(plan),
            documents_moved=moved,
            nodes_moved=nodes_moved,
            spans_pruned=pruned,
            maintenance_cost=maintenance_cost(spent),
        )

    def compact(self) -> int:
        """Prune retired placement spans from the routing table.

        Call between query waves: answers computed against
        pre-retirement shard snapshots stop translating.  Returns the
        number of spans pruned.
        """
        return self.topology.compact()

    def revive_replica(self, shard_index: int, replica_index: int):
        """Re-sync one quarantined replica from its shard's primary.

        The recovery half of failover — see
        :meth:`~repro.shard.replica.Shard.revive`.
        """
        return self._shard(shard_index).revive(replica_index)

    # ------------------------------------------------------------------
    # Index management (fanned to every shard and replica)
    # ------------------------------------------------------------------
    def build_index(self, name: str, **options) -> None:
        """Build one index of the family on every shard."""
        for shard in self.shards:
            shard.build_index(name, **options)

    def ensure_indexes_for(self, strategy_name: str) -> None:
        """Build the indexes one strategy needs, on every shard."""
        for shard in self.shards:
            shard.ensure_indexes_for(strategy_name)

    def index_sizes_mb(self) -> dict[str, float]:
        """Total size per index name, summed across shards.

        Each shard reports its primary's copy (the physical total is
        that times the replica count).
        """
        totals: dict[str, float] = {}
        for shard in self.shards:
            for name, size in shard.engine.index_sizes_mb().items():
                totals[name] = totals.get(name, 0.0) + size
        return totals

    def translate_sorted(
        self, shard_index: int, local_ids: Sequence[int]
    ) -> list[int]:
        """Ascending shard-local ids in the global id space.

        The id translation of one gather leg, for the per-layer table
        of ``benchmarks/e2e/layers.py``; the gather itself calls the
        topology.
        """
        return self.topology.translate_sorted(shard_index, local_ids)

    def invalidate(self, rebuilt: bool = True) -> None:
        """Flush the landed answers and every replica's service caches.

        ``rebuilt`` is ignored: a flush is one kind.  The keyword stays
        only because ``benchmarks/e2e/layers.py`` still passes it.
        """
        self.answer_cache.clear()
        for shard in self.shards:
            shard.invalidate()

    def generation(self) -> tuple[int, ...]:
        """A cheap fingerprint of everything that can change answers.

        The topology epoch (placements, moves, rebalances), then every
        replica's engine epoch (document writes and index builds), shard
        by shard: 1 + shards x replicas ints.  Read lock-free — see
        :meth:`QueryService.generation
        <repro.service.QueryService.generation>` for the contract: any
        client-visible write is reflected in every later read.  Every
        component only ever advances, so two equal reads bracket a
        stretch in which nothing a query can see changed — the rule
        :meth:`execute` lands answers by.
        """
        current = [self.topology.epoch]
        for shard in self.shards:
            current += shard.generation()
        return tuple(current)

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
        it.  An option the strategy does not take is a
        :class:`~repro.errors.PlanningError` raised before any replica is
        read (:meth:`_check_options`).
        """
        self._check_options(strategy, strategy_options)
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
                result = self._copy_result(landed.result, cached=True)
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
                        key, LandedAnswer(self._copy_result(result, cached=True))
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
            self.stats.queries_executed += 1
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
            live_counts = self.topology.live_counts()
            return [
                (shard, None)
                for shard, count in zip(self.shards, live_counts)
                if count
            ]
        by_shard = self.topology.shards_for_documents(documents)
        return [
            (self.shards[index], placements)
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

        Routing through the shard (not ``shard.service`` directly) is
        what hands the read to one of its replicas.  Each leg runs under
        its own ``shard`` span, a child of the caller's ``scatter`` span.
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
                self.topology.translate_sorted(
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
            ids = NaiveMatcher(shard.db).match_ids(twig)
            merged.extend(
                self.topology.translate_sorted(shard.index, sorted(ids), scope=scope)
            )
        merged.sort()
        return merged

    # ------------------------------------------------------------------
    # Reporting hooks
    # ------------------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        """The tier's collector plus every shard's merged counters.

        A shard's totals fold its replicas together, so replica write
        amplification is priced; the tier's collector carries the
        rebalancer's runs, so a batch that fires one shows it in its
        cost.
        """
        return sum_snapshots(
            self.stats.snapshot(),
            *(shard._counter_totals() for shard in self.shards),
        )

    def _caches(self) -> list[tuple[str, LRUCache]]:
        """The tier's plan and answer caches (requests count there), then
        every shard's (only what reaches a leg counts there)."""
        return [("plan", self.plan_cache), ("answer", self.answer_cache)] + [
            (f"shard{shard.index}-{name}", cache)
            for shard in self.shards
            for name, cache in shard._caches()
        ]

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Topology, per-shard reports and the tier's counts, each once.

        Counts come from one :meth:`_counter_totals` reading, caches
        from one :func:`~repro.service.base.cache_report`; the hub,
        topology, rebalancer and health states from their owners.
        A replace or a move reaches the shards as a remove + an add
        (counted per replica); ``documents_replaced`` and
        ``documents_moved`` count the operations.
        """
        # shard.describe() takes each shard's own locks and may wait
        # behind a write there; no tier-level lock is held around it,
        # so it cannot stall other shards' gather phases.
        shards = [shard.describe() for shard in self.shards]
        totals = self._counter_totals()
        return {
            "num_shards": self.num_shards,
            "placement": self.placement.name,
            "replicas": self.shards[0].replica_count,
            "documents": self.topology.document_count,
            "global_watermark": self.topology.global_watermark,
            "topology": self.topology.describe(),
            "shards": shards,
            "telemetry": self.telemetry.describe(),
            "caches": cache_report(self._caches(), group=cache_section),
            "answer_cache": self.answer_cache.describe(),
            "invalidations": {"total": totals["invalidations"]},
            "maintenance": {
                name: totals[name]
                for name in ("documents_added", "documents_removed", "documents_replaced", "documents_moved")
            },
            "replica_reads": {
                "picker": self.shards[0].picker.name,
                "per_shard": [list(shard.replica_reads) for shard in self.shards],
                "total": sum(sum(shard.replica_reads) for shard in self.shards),
            },
            "queries_executed": totals["queries_executed"],
            "operations": {
                "auto_rebalance": self.operations.describe(),
                "failover": {
                    "per_shard": [shard["health"] for shard in shards],
                    **{name: totals[name] for name in FAILOVER_COUNTERS},
                },
            },
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
            f"ShardedQueryService(shards={self.num_shards}, "
            f"placement={self.placement.name!r}, "
            f"replicas={self.shards[0].replica_count}, "
            f"documents={self.topology.document_count})"
        )
