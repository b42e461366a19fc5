"""Horizontally partitioned document storage with a dynamic topology.

A :class:`ShardedCollection` splits a document forest across N shards.
Each shard is a :class:`~repro.shard.replica.Shard`: a set of
``replicas`` identical, fully independent vertical slices of the stack
(one is the plain shard; more scale reads out).  That independence
buys the serving tier its isolation properties: adding a document touches
one shard's indexes and invalidates one shard's result cache, while
the other shards keep serving cached answers.

Where documents live is not part of the collection any more: routing
is delegated to a :class:`~repro.shard.topology.ShardTopology`, an
explicit versioned routing table of
:class:`~repro.shard.topology.DocumentPlacement` records.  Because
every shard numbers nodes in a private id space starting at 1, each
placement records which shard took the document, the shard-local id
interval it occupies, and the *global* id interval it would occupy in
a single database that received the same documents in the same order.
Translating shard-local answers through these spans makes the sharded
tier answer-identical to a single-engine database (the differential
tests pin this), and lets queries be scoped to named documents with
shard pruning.

Making the topology explicit is what enables **online rebalancing**:
:meth:`ShardedCollection.move_document` detaches a document from its
source shard and re-adds it on a target shard — both halves through
the shards' incremental index maintenance
(:meth:`~repro.planner.evaluator.TwigQueryEngine.maintain_indexes`) —
while :meth:`~repro.shard.topology.ShardTopology.record_move` swaps
the routing entry in one atomic critical section.  The document keeps
its global id interval, so answers stay identical to a single engine
before, during and after the move; only the two shards touched bump
their generations and drop their cached results.
:meth:`ShardedCollection.rebalance` plans and applies a batch of such
moves under a placement policy, undoing the skew a sticky placement
has accumulated.

Removal routes to the owning shard
(:meth:`ShardedCollection.remove_document`): the shard's service
deletes the document from its database and indexes incrementally, and
the topology retires the placement — out of the live maps but still
translatable (off the hot path), so in-flight answers computed against
the pre-removal shard snapshot still map to global ids (the
consistent-cut contract).  :meth:`ShardedCollection.compact` prunes
those retired spans once readers have drained.  See
``docs/ARCHITECTURE.md`` ("The shard tier" and "Shard topology,
rebalancing & replication").
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..errors import DocumentError
from ..obs import Telemetry
from ..storage.stats import StatsCollector, maintenance_cost, sum_snapshots
from ..xmltree.document import Document
from .placement import PlacementPolicy, make_placement
from .replica import ReadPicker, Shard
from .topology import DocumentPlacement, ShardTopology

__all__ = [
    "AutoRebalancer",
    "DocumentPlacement",
    "RebalanceMove",
    "RebalanceReport",
    "Shard",
    "ShardedCollection",
]


@dataclass(frozen=True)
class RebalanceMove:
    """One planned document move: which placement goes to which shard."""

    placement: DocumentPlacement
    target_shard: int


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`ShardedCollection.rebalance` call did and cost."""

    policy: str
    planned: int
    documents_moved: int
    nodes_moved: int
    spans_pruned: int
    #: Write-side cost of the whole rebalance in the shared maintenance
    #: currency (:func:`~repro.storage.stats.maintenance_cost`): the
    #: incremental deletes on every source shard plus the incremental
    #: inserts on every target shard.
    maintenance_cost: int


class ShardedCollection:
    """N shards, a placement policy, and a dynamic routing topology."""

    def __init__(
        self,
        num_shards: int = 4,
        placement: Union[str, PlacementPolicy] = "hash",
        replicas: int = 1,
        read_picker: Union[str, ReadPicker] = "round_robin",
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.placement = make_placement(placement)
        #: One observability hub for the whole collection — every shard,
        #: replica and per-replica service shares it, so one query's
        #: spans land in one trace and every layer's ops events land in
        #: one ordered log.  The sharded query service adopts it.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        cache_options = dict(
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            result_cache_ttl=result_cache_ttl,
            telemetry=self.telemetry,
        )
        self.shards = [
            Shard(i, replicas=replicas, read_picker=read_picker, **cache_options)
            for i in range(num_shards)
        ]
        #: The routing table: placements, id translation, epochs.  Its
        #: lock guards only routing bookkeeping and is never held
        #: across a shard's engine work, so a slow write to one shard
        #: cannot stall the gather (id translation) phase of queries on
        #: the other shards.
        self.topology = ShardTopology(num_shards)
        #: Replacements performed through :meth:`replace_document`; the
        #: per-shard services see a replace as a remove + an add, so
        #: this collection-level counter is the one place the operation
        #: is counted as itself.
        self.documents_replaced = 0
        self._replace_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def replica_count(self) -> int:
        """Replicas per shard."""
        return self.shards[0].replica_count

    @property
    def document_count(self) -> int:
        return self.topology.document_count

    def add_document(self, document: Document) -> DocumentPlacement:
        """Route one document to its shard and record its routing entry.

        The placement policy picks the shard; the shard's service adds
        the document under the shard's own locks (maintaining that
        shard's built indexes incrementally and invalidating only that
        shard's cached results).  The topology lock is held only for
        the bookkeeping on either side of the add — never across the
        engine work — so writes to one shard do not stall queries (or
        writes) on the others.  Returns the recorded
        :class:`DocumentPlacement`.
        """
        ordinal = self.topology.next_ordinal()
        # Watermarks are read without the shard add locks: a concurrent
        # add can skew a weight, which costs a policy a slightly stale
        # balance decision, never correctness.
        weights = [shard.watermark for shard in self.shards]
        shard_index = self.placement.choose(document, ordinal, weights)
        if not 0 <= shard_index < self.num_shards:
            raise DocumentError(
                f"placement policy {self.placement.name!r} returned shard "
                f"{shard_index} outside [0, {self.num_shards})"
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

    def add_documents(self, documents: Iterable[Document]) -> list[DocumentPlacement]:
        """Route several documents (arrival order fixes the global ids)."""
        return [self.add_document(document) for document in documents]

    # ------------------------------------------------------------------
    # Removal and replacement
    # ------------------------------------------------------------------
    def remove_document(self, name: str) -> DocumentPlacement:
        """Remove the uniquely named document from its owning shard.

        The owning shard's service removes the document from its
        database and built indexes (incremental deletion where
        supported) and invalidates that shard's cached results only.
        The topology retires the placement: out of the live maps
        (``placements()``, ``placements_for``, ``document_count``) but
        still translatable off the hot path — local and global ids are
        never reused, so a concurrently scattered query that executed
        against the pre-removal shard snapshot can still translate its
        answer (the same consistent-cut contract adds follow, from the
        other direction) until :meth:`compact` prunes the span.
        Returns the retired placement.
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
        add (a hash policy keeps it on the same shard; others may not)
        and is numbered at the current global watermark — exactly the
        ids a single engine would assign after the same remove + add.
        Returns the new placement.

        Unlike the single-engine
        :meth:`~repro.service.service.QueryService.replace_document`,
        the two halves are **not** atomic under one lock: the
        replacement may land on a different shard, and holding two
        shards' add locks at once would invite lock-order deadlocks.
        A query racing a replace may therefore observe the gap state
        (old version gone, new version not yet added) — one more
        consistent cut under the tier's documented scatter-gather
        contract; once writes quiesce, answers are exact.
        """
        self.remove_document(name)
        placement = self.add_document(replacement)
        with self._replace_lock:
            self.documents_replaced += 1
        return placement

    # ------------------------------------------------------------------
    # Online rebalancing: document movement between shards
    # ------------------------------------------------------------------
    def move_document(
        self, ref: Union[DocumentPlacement, str], target_shard: int
    ) -> DocumentPlacement:
        """Move one live document to ``target_shard``, online.

        The move is a remove from the source shard plus an add on the
        target shard, both through the shards' services and therefore
        through the same incremental index-maintenance family
        (:meth:`~repro.planner.evaluator.TwigQueryEngine.maintain_indexes`)
        every other mutation uses: the source's indexes forget the
        document's rows, the target's indexes absorb them, and each
        side's write work lands in its own collector in the shared
        maintenance currency.  Only those two shards bump their service
        generations — the other shards' caches keep serving.

        The routing entry is swapped atomically
        (:meth:`~repro.shard.topology.ShardTopology.record_move`): the
        document keeps its **global** id interval and gains a fresh
        local interval at the target's watermark, so merged answers are
        identical to a single engine's — a move is invisible in the
        global id space.  Both shards' add locks are held (in shard
        order, so concurrent moves cannot deadlock) across the whole
        move.  A scatter racing the move may observe the document on
        *neither* shard (source leg after the removal, target leg
        before the add — the same documented gap a cross-shard
        :meth:`replace_document` has) or on *both* (source leg before
        the removal, target leg after the add); in the latter case both
        observations translate to the same global interval and the
        gather deduplicates, so an answer never double-counts a node.
        Returns the new placement; a move to the owning shard is a
        no-op.
        """
        if isinstance(ref, DocumentPlacement):
            placement = ref
            if not self.topology.is_live(placement):
                raise DocumentError(
                    f"placement of {placement.name!r} (ordinal "
                    f"{placement.ordinal}) is not live"
                )
        else:
            placement = self.topology.resolve_unique(ref)
        if not 0 <= target_shard < self.num_shards:
            raise DocumentError(
                f"shard index {target_shard} outside [0, {self.num_shards})"
            )
        if target_shard == placement.shard_index:
            return placement
        source = self.shards[placement.shard_index]
        target = self.shards[target_shard]
        # Deadlock-free two-shard locking: always in ascending shard
        # order, whatever direction the move goes.
        first, second = sorted((source, target), key=lambda shard: shard.index)
        with first.add_lock, second.add_lock:
            # Re-check under the locks: a removal (or another move) may
            # have retired the placement between resolution and here.
            if not self.topology.is_live(placement):
                raise DocumentError(
                    f"placement of {placement.name!r} (ordinal "
                    f"{placement.ordinal}) is not live"
                )
            document = source.document_at(placement.local_start)
            local_start = target.watermark
            moved = self.topology.record_move(placement, target_shard, local_start)
            detached = source.remove_document(document)
            target.add_document(detached)
            if target.watermark != moved.local_end:
                raise DocumentError(
                    f"document {document.name!r} numbered "
                    f"{target.watermark - local_start} ids on shard "
                    f"{target_shard} but its span reserved {moved.node_count}"
                )
            target.stats.documents_moved += 1
        return moved

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
                # placement (and detach its shard-side document) at any
                # point after the placements() snapshot.  Planning
                # mutates nothing, so skip the placement rather than
                # fail the whole plan — which, from a background
                # auto-rebalance, would fail an unrelated caller.  A
                # placement that is live but genuinely unresolvable
                # still surfaces at move time, which re-checks liveness
                # under the shard locks.
                continue
            target = chosen.choose(document, placement.ordinal, weights)
            if not 0 <= target < self.num_shards:
                raise DocumentError(
                    f"placement policy {chosen.name!r} returned shard "
                    f"{target} outside [0, {self.num_shards})"
                )
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
        two shards at a time, answers identical throughout.  With
        ``compact=True`` every retired span — those these moves
        retired *plus* any left by earlier removal/move churn — is
        pruned afterwards (do this when no pre-rebalance answers are
        still in flight); the report's ``spans_pruned`` counts that
        whole compaction.  Returns a :class:`RebalanceReport` pricing
        the whole operation in the shared maintenance currency.
        """
        plan = self.plan_rebalance(policy)
        before = [shard.stats_snapshot() for shard in self.shards]
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
        spent = sum_snapshots(
            *(
                shard.stats_diff(snapshot)
                for shard, snapshot in zip(self.shards, before)
            )
        )
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

        Delegates to :meth:`~repro.shard.topology.ShardTopology.compact`;
        call between query waves — answers computed against
        pre-retirement shard snapshots stop translating.  Returns the
        number of spans pruned.
        """
        return self.topology.compact()

    # ------------------------------------------------------------------
    # Index management (fanned to every shard)
    # ------------------------------------------------------------------
    def build_index(self, name: str, **options) -> None:
        """Build one index of the family on every shard (and replica)."""
        for shard in self.shards:
            shard.build_index(name, **options)

    def ensure_indexes_for(self, strategy_name: str) -> None:
        """Build whatever indexes a strategy needs, on every shard."""
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

    # ------------------------------------------------------------------
    # Id translation and document lookup (delegated to the topology)
    # ------------------------------------------------------------------
    def to_global(self, shard_index: int, local_id: int) -> int:
        """Translate one shard-local node id into the global id space."""
        return self.topology.to_global(shard_index, local_id)

    def translate_sorted(
        self,
        shard_index: int,
        local_ids: Sequence[int],
        scope: Optional[Sequence[DocumentPlacement]] = None,
    ) -> list[int]:
        """Translate ascending shard-local ids in one pass (one lock)."""
        return self.topology.translate_sorted(shard_index, local_ids, scope=scope)

    def placements_for(self, name: str) -> list[DocumentPlacement]:
        """Every live placement recorded under one document name."""
        return self.topology.placements_for(name)

    def placements(self) -> list[DocumentPlacement]:
        """All live placements in arrival order."""
        return self.topology.placements()

    def shards_for_documents(
        self, names: Sequence[str]
    ) -> dict[int, list[DocumentPlacement]]:
        """Shard index -> the named documents it holds (pruning map)."""
        return self.topology.shards_for_documents(names)

    def global_spans_for(self, names: Sequence[str]) -> list[tuple[int, int]]:
        """The named documents' global id intervals (scoping filter)."""
        return self.topology.global_spans_for(names)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Collection topology and per-shard summaries."""
        report = {
            "num_shards": self.num_shards,
            "placement": self.placement.name,
            "replicas": self.replica_count,
            "documents": self.document_count,
            "global_watermark": self.topology.global_watermark,
            "topology": self.topology.describe(),
        }
        # shard.describe() takes each shard's own service lock and may
        # wait behind a write there; no collection-level lock is held
        # around it, so it cannot stall other shards' gather phases.
        report["shards"] = [shard.describe() for shard in self.shards]
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCollection(shards={self.num_shards}, "
            f"placement={self.placement.name!r}, "
            f"replicas={self.replica_count}, "
            f"documents={self.document_count})"
        )


# ----------------------------------------------------------------------
# Self-driving rebalance: watermark trigger with a hysteresis band
# ----------------------------------------------------------------------
class AutoRebalancer:
    """Watermark-triggered background rebalancing over one collection.

    Closes the loop PR 5 left manual.  The sharded query service calls
    :meth:`tick` between queries; every ``check_interval``-th tick
    measures the topology's placement skew
    (:meth:`~repro.shard.topology.ShardTopology.skew`, the
    max-weight-over-mean ratio across shards).  When the ratio reaches
    ``high_watermark`` while the trigger is armed, one
    ``rebalance(policy)`` fires — in a single background worker by
    default, so queries keep flowing while documents move (a rebalance
    is online by construction) — and the trigger **disarms**.  It
    re-arms only once a later check measures skew below
    ``low_watermark``: the hysteresis band ``[low, high]`` guarantees
    exactly one rebalance per sustained skew episode, instead of
    thrashing move traffic while a corpus hovers at the threshold.

    Everything is deterministic: no timers, no wall clock — ticks are
    queries, checks are counted ticks, and the skew measure is a pure
    function of the routing table.  Activity lands in ``stats``
    (``auto_rebalances``, merged into the service's cost accounting)
    and a bounded episode log surfaced by :meth:`describe` under the
    service's ``operations`` key.  A rebalance that *fails* is recorded
    the same way (``auto_rebalance_failures`` / ``last_error`` /
    the episode's ``error`` field) and never raises into the query
    path that happened to tick afterwards — background operations
    failures are status, not answers.
    """

    #: Bound on the episode log kept for ``describe()``.
    MAX_EPISODES = 16

    def __init__(
        self,
        collection: ShardedCollection,
        policy: Union[str, PlacementPolicy, None] = None,
        high_watermark: float = 2.0,
        low_watermark: float = 1.25,
        check_interval: int = 8,
        min_documents: Optional[int] = None,
        background: bool = True,
        enabled: bool = False,
    ) -> None:
        if not 1.0 <= low_watermark < high_watermark:
            raise ValueError(
                f"need 1.0 <= low_watermark < high_watermark, got "
                f"{low_watermark} / {high_watermark}"
            )
        if check_interval < 1:
            raise ValueError(f"check_interval must be positive: {check_interval}")
        self.collection = collection
        self.policy = make_placement(policy or "size_balanced")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.check_interval = check_interval
        #: Below this corpus size a skewed ratio is noise (two documents
        #: on one shard of four already read as ratio 4.0), so the
        #: trigger holds fire.  Defaults to two documents per shard.
        self.min_documents = (
            min_documents
            if min_documents is not None
            else 2 * collection.num_shards
        )
        self.enabled = enabled
        #: The collection's hub (a disabled stand-in when the collection
        #: has none), so trigger/completion/failure events land in the
        #: same ops log as the replica transitions they interleave with.
        telemetry = getattr(collection, "telemetry", None)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=False)
        )
        self.stats = StatsCollector()
        self.last_report: Optional[RebalanceReport] = None
        #: ``repr`` of the most recent run's exception, ``None`` after a
        #: success — the status surface for background failures.
        self.last_error: Optional[str] = None
        self._failures = 0
        self._lock = threading.Lock()
        self._armed = True
        self._ticks = 0
        self._checks = 0
        self._last_skew: Optional[dict[str, object]] = None
        self._episodes: list[dict[str, object]] = []
        self._episodes_total = 0
        self._pending: Optional[Future] = None
        self._executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="auto-rebalance")
            if background
            else None
        )

    # ------------------------------------------------------------------
    def tick(self) -> Optional[dict[str, object]]:
        """One between-queries heartbeat; runs a skew check every
        ``check_interval`` ticks.  Returns the check record when one
        ran, else ``None``.  Cheap when disabled or off-interval (one
        lock, one counter)."""
        if not self.enabled:
            return None
        with self._lock:
            self._ticks += 1
            due = self._ticks % self.check_interval == 0
        if not due:
            return None
        return self.check()

    def check(self) -> dict[str, object]:
        """Measure skew and apply the watermark policy right now.

        Public so tests (and operators) can force a check without
        queueing ``check_interval`` queries.  Also reaps a finished
        background run (its outcome — success or failure — was already
        recorded by the run itself; nothing raises here).
        """
        self._reap()
        skew = self.collection.topology.skew()
        ratio = float(skew["ratio"])
        fired = False
        run_inline = False
        with self._lock:
            self._checks += 1
            self._last_skew = skew
            if not self._armed and ratio < self.low_watermark:
                # The episode's skew has drained; re-arm for the next one.
                self._armed = True
            if (
                self._armed
                and self._pending is None
                and ratio >= self.high_watermark
                and self.collection.document_count >= self.min_documents
            ):
                self._armed = False
                fired = True
                self._episodes_total += 1
                self._episodes.append(
                    {"episode": self._episodes_total, "trigger_ratio": ratio}
                )
                del self._episodes[: -self.MAX_EPISODES]
                self.telemetry.event(
                    "auto-rebalance",
                    phase="triggered",
                    episode=self._episodes_total,
                    ratio=ratio,
                )
                if self._executor is not None:
                    # Submitted inside the same locked section that
                    # disarmed the trigger: the future is published
                    # atomically with the firing decision, so a
                    # drain()/close() racing this check either sees no
                    # fire or sees the in-flight run — never a
                    # fired-but-unpublished window it could return
                    # through with stale state.
                    # repro-lint: ignore[RPR005] -- published to self._pending; _reap/drain()/close() consume it
                    self._pending = self._executor.submit(self._run)
                else:
                    run_inline = True
        if run_inline:
            self._run()
        return {"ratio": ratio, "fired": fired, "armed_after": not fired}

    def _run(self) -> None:
        """One triggered rebalance; records its own outcome, never raises.

        A failure must not escape: in background mode it would land in
        a future whose ``result()`` is called from a later query's tick
        path, failing an unrelated caller whose answer was already
        gathered.  Instead both outcomes are recorded under the lock
        and surfaced through :meth:`describe` (``auto_rebalances`` /
        ``auto_rebalance_failures`` / ``last_error`` and the episode
        log).
        """
        try:
            report = self.collection.rebalance(self.policy)
        except Exception as error:  # repro-lint: ignore[RPR005] -- recorded and surfaced via describe(); a background operations failure must not fail an unrelated query caller
            with self._lock:
                self._failures += 1
                self.last_error = repr(error)
                if self._episodes:
                    self._episodes[-1]["error"] = repr(error)
                episode = self._episodes_total
            self.telemetry.event(
                "auto-rebalance",
                phase="failed",
                episode=episode,
                error=repr(error),
            )
            return
        with self._lock:
            self.stats.auto_rebalances += 1
            self.last_report = report
            self.last_error = None
            if self._episodes:
                self._episodes[-1]["report"] = dataclasses.asdict(report)
            episode = self._episodes_total
        self.telemetry.event(
            "auto-rebalance",
            phase="completed",
            episode=episode,
            documents_moved=report.documents_moved,
            nodes_moved=report.nodes_moved,
        )

    def _reap(self) -> None:
        """Clear a finished background run so the firing gate re-opens.

        Pure bookkeeping: :meth:`_run` records its own success or
        failure, so there is no exception to propagate — a background
        failure surfaces through :meth:`describe`, never through the
        query whose tick happened to reap it.
        """
        with self._lock:
            if self._pending is not None and self._pending.done():
                self._pending = None

    def drain(self) -> Optional[RebalanceReport]:
        """Block until any in-flight background rebalance completes.

        Returns the latest completed report (tests call this to make
        'the rebalance has happened' deterministic before asserting).
        Never raises: a failed run records itself and shows up in
        :meth:`describe` instead.
        """
        with self._lock:
            future = self._pending
            self._pending = None
        if future is not None:
            future.result()  # waits only; _run never raises
        with self._lock:
            return self.last_report

    def close(self) -> None:
        """Drain and shut the background worker down."""
        self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Trigger configuration and activity (JSON-serializable)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "policy": self.policy.name,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "check_interval": self.check_interval,
                "min_documents": self.min_documents,
                "background": self._executor is not None,
                "armed": self._armed,
                "in_flight": self._pending is not None,
                "ticks": self._ticks,
                "checks": self._checks,
                "auto_rebalances": self.stats.auto_rebalances,
                "auto_rebalance_failures": self._failures,
                "last_error": self.last_error,
                "episodes_total": self._episodes_total,
                "last_skew": self._last_skew,
                "episodes": [dict(episode) for episode in self._episodes],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AutoRebalancer(enabled={self.enabled}, "
            f"policy={self.policy.name!r}, "
            f"band=[{self.low_watermark}, {self.high_watermark}])"
        )
