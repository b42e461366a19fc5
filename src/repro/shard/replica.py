"""Shards, replica sets and read pickers: the engine-holding tier.

A :class:`Shard` is one partition of a
:class:`~repro.shard.collection.ShardedCollection` — a fully
independent vertical slice of the stack with its own
:class:`~repro.xmltree.document.XmlDatabase`,
:class:`~repro.storage.stats.StatsCollector`,
:class:`~repro.planner.evaluator.TwigQueryEngine` (with its own index
family) and :class:`~repro.service.QueryService` (with its own caches,
lock and generation fingerprint).

A :class:`ReplicatedShard` is N identical such engine instances behind
the same shard surface, for read scale-out past one engine per shard:

* **writes go through to every replica** — ``add_document`` adds the
  original to the primary and a :meth:`~repro.xmltree.document.Document.clone`
  to each secondary, ``remove_document`` removes the same id span from
  all of them, ``build_index`` builds everywhere.  Replicas receive the
  same documents in the same order, so they assign identical node ids
  and identical answers — which is what lets any replica serve any
  read;
* **reads fan out to one replica** — a pluggable
  :class:`ReadPicker` (:data:`READ_PICKERS`: round-robin,
  least-loaded, sticky) chooses which replica executes each query —
  never the one a write is updating while another is live — and
  per-replica read counters make the fan-out observable;
* **costs merge through the one aggregation path** —
  :meth:`ReplicatedShard.stats_snapshot` folds every replica's
  collector together via :meth:`~repro.storage.stats.StatsCollector.merge`,
  so the N-fold write amplification of replication is priced honestly
  in the same currency as everything else;
* **failures are survived, not propagated** — every replica carries a
  health state machine (``healthy`` → ``suspect`` → ``dead``, driven by
  consecutive *infrastructure* ``execute`` failures; deterministic
  query errors (:data:`QUERY_ERRORS`) fail identically on every
  replica, so they re-raise to the caller without demoting anything),
  reads that fail are retried on the
  next healthy replica (:data:`~repro.storage.stats.StatsCollector`
  counters ``reads_retried`` / ``replicas_failed`` /
  ``replicas_revived`` record the activity), pickers only see healthy
  candidates, a dead replica is quarantined out of both the read pool
  and the write fan-out, and :meth:`ReplicatedShard.revive` re-syncs a
  quarantined replica by replaying the shard's write log — the
  primary's document sequence, adds *and* removals, so the rebuilt
  replica assigns exactly the primary's node ids.  Divergence (a
  replica whose watermark drifts from the primary's) is caught by the
  write-through alignment check and quarantined the same way.  The
  fault-injection module (:mod:`repro.faults`) exists to exercise all
  of this deterministically from tests and benches.

Both classes expose the same surface (``execute`` / ``add_document`` /
``remove_document`` / ``build_index`` / ``stats_snapshot`` / ...), so
the collection and the scatter-gather service route through a shard
without caring whether one engine or a replica set answers.
"""

from __future__ import annotations

import contextlib
import threading
import zlib
from dataclasses import dataclass
from typing import Optional, Union

from ..errors import (
    DocumentError,
    IndexError_,
    PlanningError,
    QueryNotSupportedError,
    QueryParseError,
)
from ..obs import Telemetry
from ..planner.evaluator import QueryResult, TwigQueryEngine
from ..query.match import NaiveMatcher
from ..query.twig import TwigPattern
from ..service.base import AUTO_STRATEGY
from ..service.service import QueryService
from ..storage.stats import StatsCollector
from ..xmltree.document import Document, XmlDatabase

#: Deterministic, query-attributable error types.  Replicas hold the
#: same documents with the same ids and the same indexes, so a query
#: that raises one of these fails identically on *every* replica: the
#: failure says nothing about the replica's health, and retrying it
#: elsewhere cannot succeed.  :meth:`ReplicatedShard.execute` re-raises
#: them untouched — demoting on them would let one bad query, repeated
#: ``dead_after`` times, walk the whole replica set (primary included)
#: to dead and turn a caller mistake into a permanent shard read
#: outage.  Infrastructure faults (anything else a replica raises,
#: e.g. :class:`~repro.faults.InjectedFault`) still drive the health
#: machine.
QUERY_ERRORS = (
    QueryParseError,
    QueryNotSupportedError,
    PlanningError,
    IndexError_,
    DocumentError,
)


class Shard:
    """One partition: a private database, engine, stats and service."""

    def __init__(
        self,
        index: int,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
        use_kernels: bool = True,
    ) -> None:
        self.index = index
        self.db = XmlDatabase()
        self.stats = StatsCollector()
        self.engine = TwigQueryEngine(self.db, stats=self.stats, use_kernels=use_kernels)
        self.service = QueryService(
            self.engine,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            result_cache_ttl=result_cache_ttl,
            telemetry=telemetry,
        )
        #: The stack-wide observability hub; the collection passes one
        #: shared instance down, a standalone shard gets its service's.
        self.telemetry = self.service.telemetry
        #: Serializes writes *to this shard* (watermark read + engine add
        #: + span record must be atomic per shard), without making other
        #: shards' reads or writes wait.
        self.add_lock = threading.RLock()
        #: first node id -> live document, maintained by
        #: :meth:`add_document` / :meth:`remove_document` so
        #: :meth:`document_at` resolves in one dict probe instead of
        #: scanning ``db.documents`` on every move / remove-by-span.
        #: Ids are never reused, so a start id maps to at most one live
        #: document; mutated only on the write path, which the caller
        #: already serializes under :attr:`add_lock`.
        self._by_first_id: dict[int, Document] = {}

    @property
    def watermark(self) -> int:
        """The shard database's next unassigned node id."""
        return self.db.revision[1]

    @property
    def document_count(self) -> int:
        return len(self.db.documents)

    @property
    def replica_count(self) -> int:
        """A plain shard is its own single replica."""
        return 1

    # ------------------------------------------------------------------
    # The shard surface the collection and the scatter service route to
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        query_id: Optional[str] = None,
        **strategy_options,
    ) -> QueryResult:
        """One scattered query, through this shard's service."""
        return self.service.execute(
            query,
            strategy=strategy,
            use_result_cache=use_result_cache,
            query_id=query_id,
            **strategy_options,
        )

    def add_document(self, document: Document) -> Document:
        """Add one routed document through the shard's service."""
        added = self.service.add_document(document)
        self._by_first_id[added.first_id] = added
        return added

    def remove_document(self, ref: Union[Document, str]) -> Document:
        """Remove one document through the shard's service."""
        removed = self.service.remove_document(ref)
        self._by_first_id.pop(removed.first_id, None)
        return removed

    def build_index(self, name: str, **options):
        return self.service.build_index(name, **options)

    def ensure_indexes_for(self, strategy_name: str) -> None:
        self.engine.ensure_indexes_for(strategy_name)

    def invalidate(self, rebuilt: bool = True) -> None:
        self.service.invalidate(rebuilt=rebuilt)

    def generation(self) -> tuple:
        """The shard service's change fingerprint (lock-free read)."""
        return self.service.generation()

    def index_sizes_mb(self) -> dict[str, float]:
        return self.engine.index_sizes_mb()

    def oracle_ids(self, twig: TwigPattern) -> list[int]:
        """Index-free shard-local ground truth (differential testing)."""
        return NaiveMatcher(self.db).match_ids(twig)

    def document_at(self, local_start: int) -> Document:
        """The live document whose id span begins at ``local_start``.

        Spans are recorded at add time and ids are never reused, so the
        start id identifies a document unambiguously even when names
        collide — this is how a move resolves the object to detach.
        Resolution is one probe of the first-id index maintained by the
        write path (the churn differential tests pin that the index
        tracks add/remove exactly), not a scan of ``db.documents``.
        """
        document = self._by_first_id.get(local_start)
        if document is not None:
            return document
        raise DocumentError(
            f"shard {self.index} has no document starting at id {local_start}"
        )

    def note_move(self) -> None:
        """Charge one completed document move to this shard's collector."""
        self.stats.documents_moved += 1

    def stats_snapshot(self) -> dict[str, int]:
        return self.stats.snapshot()

    def stats_diff(self, before: dict[str, int]) -> dict[str, int]:
        return self.stats.diff(before)

    def service_report(self) -> dict[str, object]:
        return self.service.describe()

    def health_report(self) -> dict[str, object]:
        """Degenerate health report: a plain shard is its one healthy replica.

        Shaped like :meth:`ReplicatedShard.health_report` so the
        operations tier aggregates over a mixed collection without a
        replica case.
        """
        return {
            "replicas": 1,
            "states": [REPLICA_HEALTHY],
            "healthy": 1,
            "suspect": 0,
            "dead": 0,
            "reads_retried": 0,
            "reads_rerouted": 0,
            "replicas_failed": 0,
            "replicas_revived": 0,
        }

    def describe(self) -> dict[str, object]:
        """Shard-level size and cache counters."""
        return {
            "documents": self.document_count,
            "node_watermark": self.watermark,
            "indexes": sorted(self.engine.indexes),
            "replicas": self.replica_count,
            "service": self.service_report(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard(index={self.index}, documents={self.document_count})"


# ----------------------------------------------------------------------
# Read pickers
# ----------------------------------------------------------------------
class ReadPicker:
    """Strategy interface: choose which replica serves one read.

    ``pick`` sees the in-flight read counts of the *eligible*
    candidates — the replicated shard filters out quarantined replicas
    before calling, so a picker only ever chooses among healthy ones —
    and a stable key for the query (its normalized text), and returns
    an index **into that candidate list**.  ``slots`` optionally names
    each candidate's stable replica slot id (ascending); stateful
    pickers use it to keep their rotation anchored to replicas rather
    than to positions in a candidate list whose membership shifts as
    replicas die, revive, or are excluded per-attempt.  Pickers may
    keep state (the round-robin cursor); the replicated shard
    serializes calls, so they need no locking of their own.
    """

    #: Registry name (also what ``describe()`` reports).
    name = "abstract"

    def pick(
        self,
        in_flight: list[int],
        query_key: str,
        slots: Optional[list[int]] = None,
    ) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class RoundRobinPicker(ReadPicker):
    """Cycle through the replicas — maximally even read *counts*.

    The cursor rotates over **stable replica slot ids**, not positions
    in the candidate list: when a replica dies, revives, or sits out
    one attempt, the candidate list shifts but the rotation continues
    from the same point in slot space, so the spread stays even across
    health transitions instead of briefly favouring whichever replica
    inherited a shifted position.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._cursor = 0

    def pick(
        self,
        in_flight: list[int],
        query_key: str,
        slots: Optional[list[int]] = None,
    ) -> int:
        if slots is None:
            slots = list(range(len(in_flight)))
        # First candidate slot at or after the cursor, wrapping in the
        # stable slot space; storing the cursor modulo the highest slot
        # id keeps it bounded over a long-lived shard instead of growing
        # by one per read forever.
        modulus = slots[-1] + 1
        position = min(
            range(len(slots)),
            key=lambda i: (slots[i] - self._cursor) % modulus,
        )
        self._cursor = (slots[position] + 1) % modulus
        return position


class LeastLoadedPicker(ReadPicker):
    """The replica with the fewest in-flight reads (lowest index ties)."""

    name = "least_loaded"

    def pick(
        self,
        in_flight: list[int],
        query_key: str,
        slots: Optional[list[int]] = None,
    ) -> int:
        return min(range(len(in_flight)), key=lambda i: (in_flight[i], i))


class StickyPicker(ReadPicker):
    """Affinity routing: the same query always lands on the same replica.

    Hashes the normalized query text (CRC32, like
    :class:`~repro.shard.placement.HashPlacement`), which partitions the
    distinct-query working set across the replicas — each replica's
    result cache holds only its slice, so a working set that overflows
    one replica's cache fits the replica set's aggregate capacity.
    """

    name = "sticky"

    def pick(
        self,
        in_flight: list[int],
        query_key: str,
        slots: Optional[list[int]] = None,
    ) -> int:
        return zlib.crc32(query_key.encode("utf-8")) % len(in_flight)


#: Registry of picker name -> picker class.
READ_PICKERS: dict[str, type[ReadPicker]] = {
    RoundRobinPicker.name: RoundRobinPicker,
    LeastLoadedPicker.name: LeastLoadedPicker,
    StickyPicker.name: StickyPicker,
}


def make_picker(picker: Union[str, ReadPicker]) -> ReadPicker:
    """Resolve a picker name or pass an instance through."""
    if isinstance(picker, ReadPicker):
        return picker
    try:
        return READ_PICKERS[picker]()
    except KeyError:
        raise DocumentError(
            f"unknown read picker {picker!r}; known: {sorted(READ_PICKERS)}"
        ) from None


# ----------------------------------------------------------------------
# Replica health
# ----------------------------------------------------------------------
#: The three states of the per-replica health machine.
REPLICA_HEALTHY = "healthy"
REPLICA_SUSPECT = "suspect"
REPLICA_DEAD = "dead"
REPLICA_STATES = (REPLICA_HEALTHY, REPLICA_SUSPECT, REPLICA_DEAD)


@dataclass
class ReplicaHealth:
    """Mutable health record for one replica slot.

    Driven by *consecutive* ``execute`` failures: ``suspect_after``
    failures demote healthy → suspect, ``dead_after`` demote suspect →
    dead (quarantine), and any success resets the streak and redeems a
    suspect back to healthy.  Dead is terminal until
    :meth:`ReplicatedShard.revive` replaces the slot.  Guarded by the
    replicated shard's read lock, like the in-flight counters.
    """

    state: str = REPLICA_HEALTHY
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    last_error: Optional[str] = None

    def describe(self) -> dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
            "last_error": self.last_error,
        }


# ----------------------------------------------------------------------
# Replica sets
# ----------------------------------------------------------------------
class ReplicatedShard:
    """N identical engine instances behind one shard surface.

    Exposes the same surface as :class:`Shard`; ``db`` / ``engine`` /
    ``stats`` / ``service`` refer to the primary replica (replica 0) so
    code that introspects a shard keeps working — but reads should go
    through :meth:`execute`, which is where the picker fans them out.
    """

    #: Never compact the write log below this many entries — small
    #: shards never pay the compaction sweep.
    OPLOG_COMPACT_MIN = 64
    #: ... and only compact once the log exceeds this factor of the
    #: live corpus: the compacted log is at most ``2 * live + 1``
    #: entries, so each sweep buys at least Ω(live) further writes
    #: before the next one — O(1) amortized clones per write.
    OPLOG_COMPACT_FACTOR = 3

    def __init__(
        self,
        index: int,
        replicas: int = 2,
        read_picker: Union[str, ReadPicker] = "round_robin",
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        suspect_after: int = 1,
        dead_after: int = 3,
        probe_interval: int = 16,
        telemetry: Optional[Telemetry] = None,
        use_kernels: bool = True,
    ) -> None:
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")
        if not 1 <= suspect_after <= dead_after:
            raise ValueError(
                f"need 1 <= suspect_after <= dead_after, got "
                f"{suspect_after} / {dead_after}"
            )
        if probe_interval < 1:
            raise ValueError(f"probe_interval must be positive: {probe_interval}")
        self.index = index
        self.picker = make_picker(read_picker)
        #: One hub for the whole replica set — carried in
        #: :attr:`_shard_options` so every replica (including the fresh
        #: one a :meth:`revive` builds) shares it.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._shard_options = dict(
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            result_cache_ttl=result_cache_ttl,
            telemetry=self.telemetry,
            use_kernels=use_kernels,
        )
        self.replicas = [
            Shard(index, **self._shard_options) for _ in range(replicas)
        ]
        #: Consecutive read failures before healthy -> suspect / -> dead.
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        #: Every ``probe_interval``-th read is routed to a suspect
        #: replica (if one exists) instead of the picker's choice, so a
        #: suspect either redeems itself (success -> healthy) or
        #: finishes dying (failures accumulate to ``dead_after``)
        #: without a separate prober thread.
        self.probe_interval = probe_interval
        #: Writes hold this across the whole write-through so replicas
        #: never diverge in id space; reads never take it.
        self.add_lock = threading.RLock()
        self._read_lock = threading.Lock()
        self._in_flight = [0] * replicas
        self.replica_reads = [0] * replicas
        self._health = [ReplicaHealth() for _ in range(replicas)]
        self._reads_since_probe = 0
        #: The slot whose service lock write-through holds right now
        #: (:meth:`_maintain`), or ``None``.
        self._maintaining: Optional[int] = None
        #: Failover activity counters (``reads_retried`` /
        #: ``reads_rerouted`` / ``replicas_failed`` /
        #: ``replicas_revived``), merged into
        #: :meth:`stats_snapshot` next to the replicas' cost counters.
        self.ops_stats = StatsCollector()
        #: Counters of replicas retired by :meth:`revive`, folded in so
        #: shard totals never decrease when a slot is replaced.
        self._retired_stats = StatsCollector()
        #: The shard's write log: every committed write in order, as
        #: ``("add", template Document clone)`` /
        #: ``("remove", span start id)`` entries.  :meth:`revive`
        #: replays it — adds *and* removals, because removals leave id
        #: gaps a fresh add sequence would not reproduce — so a rebuilt
        #: replica assigns exactly the primary's node ids.  Once the
        #: log outgrows the live corpus it is compacted down to the
        #: live documents plus synthetic ``("gap", id count)`` entries
        #: (:meth:`_compact_oplog`), so a long-lived shard holds
        #: O(corpus) log memory, not O(write history) — under steady
        #: rebalance churn the two differ without bound.  Mutated under
        #: :attr:`add_lock` only.
        self._oplog: list[tuple[str, object]] = []

    @property
    def primary(self) -> Shard:
        return self.replicas[0]

    # Primary views, for introspection parity with a plain Shard.
    @property
    def db(self) -> XmlDatabase:
        return self.primary.db

    @property
    def engine(self) -> TwigQueryEngine:
        return self.primary.engine

    @property
    def stats(self) -> StatsCollector:
        return self.primary.stats

    @property
    def service(self) -> QueryService:
        return self.primary.service

    @property
    def watermark(self) -> int:
        return self.primary.watermark

    @property
    def document_count(self) -> int:
        return self.primary.document_count

    @property
    def replica_count(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------
    # Reads: fan out to one replica
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        query_id: Optional[str] = None,
        **strategy_options,
    ) -> QueryResult:
        """Route one read to a healthy replica, failing over on error.

        The picker chooses among the healthy candidates only (the
        in-flight counters it consults are maintained around the
        replica call); every replica holds the same documents with the
        same ids, so the answer is independent of the choice.  A
        replica whose ``execute`` raises an *infrastructure* fault is
        demoted through the health machine (suspect after
        :attr:`suspect_after` consecutive failures, quarantined dead
        after :attr:`dead_after`) and the read retries on the next
        candidate — the caller only sees such an error once every
        replica has been tried or quarantined.  Deterministic query
        errors (:data:`QUERY_ERRORS`) fail the same way everywhere, so
        they re-raise immediately, demoting nothing and retrying
        nowhere.  Each attempt runs under a ``replica`` span, so a
        failed-over read's trace shows the failed attempt (with its
        error) next to the retry that answered.
        """
        query_key = query if isinstance(query, str) else query.source
        attempted: set[int] = set()
        while True:
            choice = self._pick_replica(query_key, attempted)
            answered = False
            with self.telemetry.span(
                "replica", shard=self.index, replica=choice
            ) as span:
                try:
                    result = self.replicas[choice].execute(
                        query,
                        strategy=strategy,
                        use_result_cache=use_result_cache,
                        query_id=query_id,
                        **strategy_options,
                    )
                except QUERY_ERRORS:
                    # The query itself is bad (parse/planning/lookup): every
                    # replica would fail it identically, so this says nothing
                    # about the replica that happened to serve it.
                    span.annotate(outcome="query-error")
                    raise
                except Exception as error:
                    attempted.add(choice)
                    span.annotate(outcome="failed", error=repr(error))
                    if not self._record_read_failure(choice, error, attempted):
                        raise
                else:
                    span.annotate(outcome="ok")
                    answered = True
                    self._record_read_success(choice)
                    return result
                finally:
                    # Exactly one decrement per attempt, whatever it returned.
                    if not answered:
                        self._finish_read(choice)

    def _pick_replica(self, query_key: str, exclude: set[int]) -> int:
        """Choose (and charge) the replica slot for one read attempt.

        Healthy candidates go to the picker; when none remain, suspect
        replicas serve as a degraded fallback — dead replicas are never
        eligible.  Every ``probe_interval``-th read is instead routed
        to the first suspect replica so suspects see enough traffic to
        redeem or die.  The slot under maintenance (:meth:`_maintain`)
        is no candidate for either while another live one remains (a
        read sent there waits out the write; counted in
        ``reads_rerouted``).  Raises when every replica is quarantined
        or already attempted.
        """
        with self._read_lock:
            live = [
                slot
                for slot, health in enumerate(self._health)
                if health.state != REPLICA_DEAD and slot not in exclude
            ]
            if self._maintaining in live and len(live) > 1:
                live.remove(self._maintaining)
                self.ops_stats.reads_rerouted += 1
            healthy = [
                slot for slot in live if self._health[slot].state == REPLICA_HEALTHY
            ]
            suspect = [slot for slot in live if slot not in healthy]
            choice: Optional[int] = None
            if healthy and suspect:
                self._reads_since_probe += 1
                if self._reads_since_probe >= self.probe_interval:
                    self._reads_since_probe = 0
                    choice = suspect[0]
            if choice is None:
                candidates = healthy or suspect
                if not candidates:
                    raise DocumentError(
                        f"shard {self.index} has no live replica left to "
                        f"serve reads (all {len(self.replicas)} quarantined "
                        f"or failed this query)"
                    )
                position = self.picker.pick(
                    [self._in_flight[slot] for slot in candidates],
                    query_key,
                    slots=candidates,
                )
                if not 0 <= position < len(candidates):
                    raise DocumentError(
                        f"read picker {self.picker.name!r} returned position "
                        f"{position} outside [0, {len(candidates)})"
                    )
                choice = candidates[position]
            self._in_flight[choice] += 1
            self.replica_reads[choice] += 1
            return choice

    def _finish_read(self, choice: int) -> None:
        """A read attempt that did not answer leaves its slot."""
        with self._read_lock:
            self._in_flight[choice] -= 1

    def _record_read_success(self, choice: int) -> None:
        """Leave the slot and reset the failure streak (one lock entry);
        a success redeems a suspect."""
        with self._read_lock:
            self._in_flight[choice] -= 1
            health = self._health[choice]
            health.consecutive_failures = 0
            health.successes += 1
            if health.state == REPLICA_SUSPECT:
                health.state = REPLICA_HEALTHY
                self.telemetry.event(
                    "replica-health",
                    shard=self.index,
                    replica=choice,
                    state=REPLICA_HEALTHY,
                    reason="suspect redeemed by successful read",
                )

    def _record_read_failure(
        self, choice: int, error: Exception, attempted: set[int]
    ) -> bool:
        """Demote the failed replica; True when the read should retry."""
        with self._read_lock:
            health = self._health[choice]
            health.consecutive_failures += 1
            health.failures += 1
            health.last_error = repr(error)
            if (
                health.state == REPLICA_HEALTHY
                and health.consecutive_failures >= self.suspect_after
            ):
                health.state = REPLICA_SUSPECT
                self.telemetry.event(
                    "replica-health",
                    shard=self.index,
                    replica=choice,
                    state=REPLICA_SUSPECT,
                    error=repr(error),
                )
            if (
                health.state != REPLICA_DEAD
                and health.consecutive_failures >= self.dead_after
            ):
                health.state = REPLICA_DEAD
                self.ops_stats.replicas_failed += 1
                self.telemetry.event(
                    "replica-quarantined",
                    shard=self.index,
                    replica=choice,
                    reason=f"read failures reached dead_after: {error!r}",
                )
            retry = any(
                slot not in attempted and health.state != REPLICA_DEAD
                for slot, health in enumerate(self._health)
            )
            if retry:
                self.ops_stats.reads_retried += 1
            return retry

    def oracle_ids(self, twig: TwigPattern) -> list[int]:
        return self.primary.oracle_ids(twig)

    # ------------------------------------------------------------------
    # Writes: through to every replica
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _maintain(self, slot: int):
        """Mark ``slot`` as the one replica this write is updating.

        Write-through is staggered, so one replica at a time holds its
        service lock, and :meth:`_pick_replica` routes reads around it.
        The outer mark comes back on exit: a write marks the primary for
        its whole fan-out and each secondary inside that, so no instant
        between halves is unmarked and a 2-replica set answers pre-write
        (secondary) up to the hand-over, post-write (primary) after.
        """
        outer, self._maintaining = self._maintaining, slot
        try:
            yield
        finally:
            self._maintaining = outer

    def _live_secondaries(self) -> list[tuple[int, Shard]]:
        """The secondaries still in the write fan-out, with their slots."""
        return [
            (slot, replica)
            for slot, replica in enumerate(self.replicas)
            if slot and not self._is_dead(slot)
        ]

    def add_document(self, document: Document) -> Document:
        """Write one document through to every live replica.

        The primary takes ``document`` itself; each live secondary
        takes a :meth:`~repro.xmltree.document.Document.clone` (trees
        cannot be shared between databases).  Identical add order means
        identical node ids on every replica.  The primary is the source
        of truth: its write always lands (and is logged for
        :meth:`revive`); a secondary whose write fails is quarantined
        dead — to be re-synced later — rather than unwinding a write
        the primary already committed.  Dead secondaries are skipped
        entirely; they catch up on revive.
        """
        with self.add_lock:
            with self._maintain(0):
                added = self.primary.add_document(document)
                self._oplog.append(("add", document.clone()))
                for position, replica in self._live_secondaries():
                    with self._maintain(position):
                        try:
                            replica.add_document(document.clone())
                        except Exception as error:  # repro-lint: ignore[RPR005] -- the primary write already landed; a failing secondary is quarantined for revive, not unwound
                            self._quarantine(
                                position, f"write-through add failed: {error!r}"
                            )
            self._check_alignment()
            self._maybe_compact_oplog()
            return added

    def remove_document(self, ref: Union[Document, str]) -> Document:
        """Remove the same document (by its id span) from every live replica.

        Mirrors :meth:`add_document`: the primary's removal is
        authoritative and logged, dead secondaries are skipped, and a
        secondary that fails its removal is quarantined for revive.
        """
        with self.add_lock:
            primary_doc = self.primary.db.resolve_document(ref)
            span_start = primary_doc.first_id
            with self._maintain(0):
                removed = self.primary.remove_document(primary_doc)
                self._oplog.append(("remove", span_start))
                for position, replica in self._live_secondaries():
                    with self._maintain(position):
                        try:
                            replica.remove_document(replica.document_at(span_start))
                        except Exception as error:  # repro-lint: ignore[RPR005] -- the primary removal already landed; a failing secondary is quarantined for revive, not unwound
                            self._quarantine(
                                position, f"write-through remove failed: {error!r}"
                            )
            self._check_alignment()
            self._maybe_compact_oplog()
            return removed

    def build_index(self, name: str, **options):
        """Build one index on every live replica (dead ones rebuild on revive)."""
        with self.add_lock, self._maintain(0):
            built = self.primary.build_index(name, **options)
            for position, replica in self._live_secondaries():
                with self._maintain(position):
                    replica.build_index(name, **options)
            return built

    def ensure_indexes_for(self, strategy_name: str) -> None:
        with self.add_lock, self._maintain(0):
            self.primary.ensure_indexes_for(strategy_name)
            for position, replica in self._live_secondaries():
                with self._maintain(position):
                    replica.ensure_indexes_for(strategy_name)

    def invalidate(self, rebuilt: bool = True) -> None:
        """Invalidate every replica's caches, atomically with writes.

        Holds :attr:`add_lock` so the sweep cannot interleave with a
        write-through: without it, replica 0 could be invalidated, a
        concurrent ``add_document`` bump every replica's generation,
        and the tail replicas then be invalidated again — leaving the
        set at inconsistent cache generations.
        """
        with self.add_lock:
            for replica in self.replicas:
                replica.invalidate(rebuilt=rebuilt)

    def generation(self) -> tuple:
        """Every replica's change fingerprint, in slot order.

        Not the primary's alone: write-through maintains the primary
        first, so between the two halves a read can be handed a
        secondary that has not absorbed the write yet.  With every
        replica in the fingerprint that stretch has a generation of its
        own, and nothing keyed on it outlives the write.
        """
        return tuple(replica.generation() for replica in self.replicas)

    def document_at(self, local_start: int) -> Document:
        return self.primary.document_at(local_start)

    def note_move(self) -> None:
        """Charge one completed move once (to the primary's collector)."""
        self.primary.note_move()

    def _is_dead(self, position: int) -> bool:
        with self._read_lock:
            return self._health[position].state == REPLICA_DEAD

    def _quarantine(self, position: int, reason: str) -> None:
        """Mark one secondary dead (idempotent); never the primary."""
        if position == 0:
            raise DocumentError(
                f"shard {self.index}: the primary replica cannot be "
                f"quarantined ({reason})"
            )
        with self._read_lock:
            health = self._health[position]
            if health.state != REPLICA_DEAD:
                health.state = REPLICA_DEAD
                health.last_error = reason
                self.ops_stats.replicas_failed += 1
                self.telemetry.event(
                    "replica-quarantined",
                    shard=self.index,
                    replica=position,
                    reason=reason,
                )

    def _check_alignment(self) -> None:
        """Quarantine any live secondary whose watermark left the primary's.

        The primary is the reference: a secondary reporting a different
        next-id watermark has diverged (it would assign different node
        ids and serve wrong answers silently), so it is pulled from the
        read pool and the write fan-out until revived — self-driving
        containment instead of failing the write that detected it.
        """
        reference = self.primary.watermark
        for position, replica in self._live_secondaries():
            watermark = replica.watermark
            if watermark != reference:
                self._quarantine(
                    position,
                    f"diverged: watermark {watermark} != primary {reference}",
                )

    # ------------------------------------------------------------------
    # Write-log compaction
    # ------------------------------------------------------------------
    def _maybe_compact_oplog(self) -> None:
        """Compact the write log once it outgrows the live corpus.

        Without this the log retains a clone of every document ever
        added: with rebalancing enabled every move appends an add-clone
        to the target shard and a remove entry to the source, so memory
        would grow without bound even at constant corpus size.  Called
        under :attr:`add_lock` by the write path.
        """
        threshold = max(
            self.OPLOG_COMPACT_MIN,
            self.OPLOG_COMPACT_FACTOR * (self.primary.document_count + 1),
        )
        if len(self._oplog) >= threshold:
            self._compact_oplog()

    def _compact_oplog(self) -> None:
        """Collapse the log to the live documents plus id-gap entries.

        Replaying the compacted log reproduces exactly the state the
        full history would: each live document re-added in first-id
        order, with ``("gap", count)`` entries advancing the id
        watermark across the ranges that removals (and the removal
        halves of moves) retired — so :meth:`revive` still rebuilds a
        replica to exactly the primary's node ids.  At most
        ``2 * live + 1`` entries remain, which is strictly below the
        compaction threshold, so the log stays bounded by the corpus
        size however long the shard lives.
        """
        entries: list[tuple[str, object]] = []
        cursor = 1  # a fresh XmlDatabase numbers from id 1
        for document in sorted(
            self.primary.db.documents, key=lambda doc: doc.first_id
        ):
            if document.first_id > cursor:
                entries.append(("gap", document.first_id - cursor))
            entries.append(("add", document.clone()))
            cursor = document.end_id
        if self.primary.watermark > cursor:
            entries.append(("gap", self.primary.watermark - cursor))
        self._oplog = entries

    # ------------------------------------------------------------------
    # Revive: re-sync a quarantined replica from the write log
    # ------------------------------------------------------------------
    def revive(self, replica_index: int) -> Shard:
        """Rebuild one replica slot by replaying the shard's write log.

        A fresh :class:`Shard` replays every committed write in order —
        adds *and* removals (or, after compaction, the live documents
        plus synthetic id-gap entries), because removals leave id gaps
        that a replay of only the surviving documents would not
        reproduce — so
        it assigns exactly the primary's node ids; the primary's built
        indexes are then rebuilt from their recorded build options.
        The slot is swapped in under both locks and its health reset to
        healthy; a fault injector wrapping the old replica is discarded
        with it.  The retired replica's cost counters fold into
        :meth:`stats_snapshot` so shard totals never decrease.  Works
        on any slot (a read-dead primary re-syncs from the log the same
        way).  Counted in ``replicas_revived``.
        """
        with self.add_lock:
            if not 0 <= replica_index < len(self.replicas):
                raise DocumentError(
                    f"shard {self.index} has no replica {replica_index} "
                    f"(replicas: {len(self.replicas)})"
                )
            fresh = Shard(self.index, **self._shard_options)
            for action, payload in self._oplog:
                if action == "add":
                    fresh.add_document(payload.clone())
                elif action == "gap":
                    # A compacted stretch of retired ids: advance the
                    # watermark without materializing the removed
                    # documents (see :meth:`_compact_oplog`).
                    fresh.db.skip_ids(payload)
                else:
                    fresh.remove_document(fresh.document_at(payload))
            for name in sorted(self.primary.engine.indexes):
                fresh.build_index(
                    name, **self.primary.engine.build_options.get(name, {})
                )
            if fresh.watermark != self.primary.watermark:
                raise DocumentError(
                    f"revive of shard {self.index} replica {replica_index} "
                    f"replayed to watermark {fresh.watermark}, primary is "
                    f"at {self.primary.watermark}"
                )
            with self._read_lock:
                retired = self.replicas[replica_index]
                self._retired_stats.merge(retired.stats)
                self.replicas[replica_index] = fresh
                self._health[replica_index] = ReplicaHealth()
                self.ops_stats.replicas_revived += 1
            self.telemetry.event(
                "replica-revived",
                shard=self.index,
                replica=replica_index,
                replayed=len(self._oplog),
                watermark=fresh.watermark,
            )
            return fresh

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def index_sizes_mb(self) -> dict[str, float]:
        """Primary's index sizes (every replica's copy is identical)."""
        return self.primary.index_sizes_mb()

    def stats_snapshot(self) -> dict[str, int]:
        """All replicas' counters folded through ``StatsCollector.merge``.

        Includes the shard's own failover activity counters
        (:attr:`ops_stats`) and the retired counters of replicas
        replaced by :meth:`revive`, so operations activity rides the
        same snapshot / merge / diff machinery as engine cost and the
        merged totals never decrease across a revive.
        """
        return (
            StatsCollector()
            .merge(
                self.ops_stats,
                self._retired_stats,
                *(replica.stats for replica in self.replicas),
            )
            .snapshot()
        )

    def stats_diff(self, before: dict[str, int]) -> dict[str, int]:
        now = self.stats_snapshot()
        return {key: now.get(key, 0) - value for key, value in before.items()}

    def service_report(self) -> dict[str, object]:
        """Per-replica service reports summed into one shard report.

        Counter values (and nested counter dicts) sum across replicas;
        non-numeric leaves (TTL configuration, hit rates) are taken
        from the primary.  The summed shape matches a plain shard's
        report, so collection-level aggregation needs no replica case.
        """
        reports = [replica.service_report() for replica in self.replicas]
        return _sum_reports(reports)

    def health_report(self) -> dict[str, object]:
        """Health states and failover activity of the replica set."""
        with self._read_lock:
            states = [health.state for health in self._health]
            detail = [health.describe() for health in self._health]
            return {
                "replicas": len(self.replicas),
                "states": states,
                "healthy": states.count(REPLICA_HEALTHY),
                "suspect": states.count(REPLICA_SUSPECT),
                "dead": states.count(REPLICA_DEAD),
                "reads_retried": self.ops_stats.reads_retried,
                "reads_rerouted": self.ops_stats.reads_rerouted,
                "replicas_failed": self.ops_stats.replicas_failed,
                "replicas_revived": self.ops_stats.replicas_revived,
                "detail": detail,
            }

    def describe(self) -> dict[str, object]:
        return {
            "documents": self.document_count,
            "node_watermark": self.watermark,
            "indexes": sorted(self.engine.indexes),
            "replicas": self.replica_count,
            "read_picker": self.picker.name,
            "replica_reads": list(self.replica_reads),
            "health": self.health_report(),
            "service": self.service_report(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicatedShard(index={self.index}, "
            f"replicas={self.replica_count}, "
            f"documents={self.document_count})"
        )


#: Report keys that are configuration, not additive counters: identical
#: across replicas (or meaningless to sum), so the summed report
#: carries the primary's value.
_NON_ADDITIVE_KEYS = frozenset({"max_size", "ttl_seconds"})


def _sum_reports(reports: list) -> dict[str, object]:
    """Key-wise recursive sum of homogeneous counter reports.

    Ints and floats sum, nested dicts recurse (with key union, so
    per-strategy count maps merge), configuration keys
    (:data:`_NON_ADDITIVE_KEYS`) and non-numeric leaves come from the
    first report — booleans count as non-numeric configuration here.
    Ratios are **recomputed** from the summed counters, never copied:
    the primary's ``hit_rate`` is not the replica set's whenever
    replicas diverge in traffic (a sticky picker guarantees they do).
    """
    merged: dict[str, object] = {}
    for key in {k for report in reports for k in report}:
        values = [report[key] for report in reports if key in report]
        first = values[0]
        if key == "hit_rate":
            continue  # recomputed below from the summed hits/misses
        if key in _NON_ADDITIVE_KEYS:
            merged[key] = first
        elif isinstance(first, dict):
            merged[key] = _sum_reports(values)
        elif isinstance(first, (int, float)) and not isinstance(first, bool):
            merged[key] = sum(values)
        else:
            merged[key] = first
    if any("hit_rate" in report for report in reports):
        hits = merged.get("hits", 0)
        total = hits + merged.get("misses", 0)
        merged["hit_rate"] = hits / total if total else 0.0
    return merged
