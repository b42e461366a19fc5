"""Shards as replica sets, and read pickers: the engine-holding tier.

A :class:`Shard` is one partition of the sharded tier
(:class:`~repro.shard.service.ShardedQueryService`): a set of N >= 1
identical :class:`Replica` engine slices, each with its own
:class:`~repro.xmltree.document.XmlDatabase`,
:class:`~repro.storage.stats.StatsCollector`,
:class:`~repro.planner.evaluator.TwigQueryEngine` and
:class:`~repro.service.QueryService` (caches, lock, epoch).  A set
of one is the plain shard; more replicas scale reads out:

* **writes go through to every replica** — the primary takes the
  document, each live secondary a
  :meth:`~repro.xmltree.document.Document.clone`, in the same order, so
  every replica assigns the same node ids and serves the same answers.
  The primary derives each write's index entries once and every
  secondary applies the same :class:`~repro.indexes.base.EntryBatch`;
  each still applies, so the N-fold write cost is counted;
* **reads fan out to one replica** — a :class:`ReadPicker`
  (:data:`READ_PICKERS`: round-robin, least-loaded, sticky) chooses
  among the healthy replicas, never the one a write is updating while
  another is live, and per-replica read counters show the fan-out;
* **counts sum through the one aggregation path** —
  :meth:`Shard._counter_totals` sums every replica's collector with
  :func:`~repro.storage.stats.sum_snapshots`;
* **failures are survived, not propagated** — a per-replica health
  machine (``healthy`` → ``suspect`` → ``dead``) is driven by
  consecutive *infrastructure* ``execute`` failures (query errors,
  :data:`QUERY_ERRORS`, fail alike everywhere and demote nothing);
  failed reads retry on the next healthy replica (``reads_retried`` /
  ``replicas_failed`` / ``replicas_revived`` count it); a dead replica
  leaves the read pool and the write fan-out, as does one that diverged
  (its watermark or dictionaries left the primary's), until
  :meth:`Shard.revive` re-syncs it from the primary's live documents,
  tag ids, id gaps and index trees.  :mod:`repro.faults` drives all of
  this deterministically from tests and benches.
"""

from __future__ import annotations

import contextlib
import threading
import zlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..errors import (
    DocumentError,
    IndexError_,
    PlanningError,
    QueryNotSupportedError,
    QueryParseError,
)
from ..indexes.base import EntryBatchIndex
from ..obs import Telemetry
from ..obs.clock import now
from ..planner.evaluator import QueryResult, TwigQueryEngine
from ..query.twig import TwigPattern
from ..service.base import AUTO_STRATEGY, cache_report, cache_section, service_counts
from ..service.cache import LRUCache
from ..service.service import QueryService
from ..storage.stats import StatsCollector, sum_snapshots
from ..xmltree.document import Document, XmlDatabase

#: Deterministic, query-attributable error types.  Replicas hold the
#: same documents with the same ids and the same indexes, so a query
#: that raises one of these fails identically on *every* replica: the
#: failure says nothing about the replica's health, and retrying it
#: elsewhere cannot succeed.  :meth:`Shard.execute` re-raises
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


class Replica:
    """One engine slice of a shard: a private database, engine, stats and service.

    Holds no lock and makes no routing decision: the owning
    :class:`Shard` serializes its writes and picks it for reads.
    :meth:`execute` and :attr:`watermark` are the two calls a
    :class:`~repro.faults.FaultInjector` intercepts; everything else the
    set reaches through :attr:`service` and :attr:`engine` directly.
    """

    def __init__(
        self,
        index: int,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.index = index
        self.db = XmlDatabase()
        self.stats = StatsCollector()
        self.engine = TwigQueryEngine(self.db, stats=self.stats)
        self.service = QueryService(
            self.engine,
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            result_cache_ttl=result_cache_ttl,
            telemetry=telemetry,
        )
        self.telemetry = self.service.telemetry
        #: first node id -> live document, maintained by
        #: :meth:`add_document` / :meth:`remove_document` so
        #: :meth:`document_at` resolves in one dict probe instead of
        #: scanning ``db.documents`` on every move / remove-by-span.
        #: Ids are never reused, so a start id maps to at most one live
        #: document; mutated only on the write path, which the set
        #: serializes under its ``add_lock``.
        self._by_first_id: dict[int, Document] = {}

    @property
    def watermark(self) -> int:
        """The replica database's next unassigned node id."""
        return self.db.revision[1]

    @property
    def document_count(self) -> int:
        return len(self.db.documents)

    def execute(self, query: Union[str, TwigPattern], **options) -> QueryResult:
        """One read, through this replica's service."""
        return self.service.execute(query, **options)

    def add_document(self, document: Document, batches: Optional[dict] = None) -> Document:
        """Add one document through the replica's service."""
        added = self.service.add_document(document, batches)
        self._by_first_id[added.first_id] = added
        return added

    def remove_document(self, ref: Union[Document, str], batches: Optional[dict] = None) -> Document:
        """Remove one document through the replica's service."""
        removed = self.service.remove_document(ref, batches)
        self._by_first_id.pop(removed.first_id, None)
        return removed

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica(shard={self.index}, documents={self.document_count})"


# ----------------------------------------------------------------------
# Read pickers
# ----------------------------------------------------------------------
class ReadPicker:
    """Strategy interface: choose which replica serves one read.

    ``pick`` sees the in-flight read counts of the *eligible*
    candidates — the shard filters out quarantined replicas
    before calling, so a picker only ever chooses among healthy ones —
    and a stable key for the query (its normalized text), and returns
    an index **into that candidate list**.  ``slots`` optionally names
    each candidate's stable replica slot id (ascending); stateful
    pickers use it to keep their rotation anchored to replicas rather
    than to positions in a candidate list whose membership shifts as
    replicas die, revive, or are excluded per-attempt.  Pickers may
    keep state (the round-robin cursor); the shard
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

#: The activity counters the failover machinery bumps in :attr:`Shard.ops_stats`.
FAILOVER_COUNTERS = ("reads_retried", "reads_rerouted", "replicas_failed", "replicas_revived")


@dataclass
class ReplicaHealth:
    """Mutable health record for one replica slot.

    Driven by *consecutive* ``execute`` failures: ``suspect_after``
    failures demote healthy → suspect, ``dead_after`` demote suspect →
    dead (quarantine), and any success resets the streak and redeems a
    suspect back to healthy.  Dead is terminal until
    :meth:`Shard.revive` replaces the slot.  Guarded by the
    shard's read lock, like the in-flight counters.
    """

    state: str = REPLICA_HEALTHY
    consecutive_failures: int = 0
    failures: int = 0
    successes: int = 0
    last_error: Optional[str] = None

    def describe(self) -> dict[str, object]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Shards: replica sets of N >= 1
# ----------------------------------------------------------------------
class Shard:
    """One partition: N >= 1 identical :class:`Replica` engines.

    ``db`` / ``engine`` / ``stats`` / ``service`` refer to the primary
    replica (replica 0) so code that introspects a shard keeps working
    — but reads should go through :meth:`execute`, which is where the
    picker fans them out.
    """

    def __init__(
        self,
        index: int,
        replicas: int = 1,
        read_picker: Union[str, ReadPicker] = "round_robin",
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        suspect_after: int = 1,
        dead_after: int = 3,
        probe_interval: int = 16,
        telemetry: Optional[Telemetry] = None,
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
        #: :attr:`_replica_options` so every replica (including the
        #: fresh one a :meth:`revive` builds) shares it.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._replica_options = dict(
            plan_cache_size=plan_cache_size,
            result_cache_size=result_cache_size,
            result_cache_ttl=result_cache_ttl,
            telemetry=self.telemetry,
        )
        self.replicas = [
            Replica(index, **self._replica_options) for _ in range(replicas)
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
        #: Serializes writes *to this shard* (watermark read + engine add
        #: + span record must be atomic per shard) across the whole
        #: write-through, so replicas never diverge in id space, without
        #: making other shards' reads or writes wait; reads never take it.
        self.add_lock = threading.RLock()
        self._read_lock = threading.Lock()
        self._in_flight = [0] * replicas
        self.replica_reads = [0] * replicas
        self._health = [ReplicaHealth() for _ in range(replicas)]
        self._reads_since_probe = 0
        #: The slot whose service lock write-through holds right now
        #: (:meth:`_maintain`), or ``None``.
        self._maintaining: Optional[int] = None
        #: The set's own collector, folded into :meth:`_counter_totals`
        #: beside the replicas': failover activity
        #: (:data:`FAILOVER_COUNTERS`), plus the counters of replicas
        #: :meth:`revive` retired, so totals never decrease.
        self.ops_stats = StatsCollector()

    @property
    def primary(self) -> Replica:
        return self.replicas[0]

    # Primary views, for introspection.
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
        missing = self.primary.service.on_demand_strategy(strategy)
        if missing is not None:
            # Built through to every live replica, not only the one read.
            self.ensure_indexes_for(missing)
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

    def _live_secondaries(self) -> list[tuple[int, Replica]]:
        """The secondaries still in the write fan-out, with their slots."""
        with self._read_lock:
            return [
                (slot, replica)
                for slot, replica in enumerate(self.replicas)
                if slot and self._health[slot].state != REPLICA_DEAD
            ]

    def _write_through(self, action: str, write: Callable[[int, Replica, dict], object]):
        """``write(slot, replica, batches)`` on the primary, then each live secondary.

        Under :attr:`add_lock`, each replica marked by :meth:`_maintain`
        while written.  The primary derives each index's entry batch into
        ``batches``; every secondary applies the same one, or raises as
        diverged.  The primary is the source of truth (its error reaches
        the caller before any secondary is touched); a failing secondary
        is quarantined for :meth:`revive`, not unwound, and dead ones are
        skipped.  Returns the primary's result.
        """
        batches: dict = {}
        with self.add_lock:
            with self._maintain(0):
                result = write(0, self.primary, batches)
                for position, replica in self._live_secondaries():
                    with self._maintain(position):
                        try:
                            write(position, replica, batches)
                        except Exception as error:  # repro-lint: ignore[RPR005] -- the primary write already landed; a failing secondary is quarantined for revive, not unwound
                            self._quarantine(
                                position,
                                f"write-through {action} failed: {error!r}",
                            )
            self._check_alignment()
            return result

    def add_document(self, document: Document) -> Document:
        """Write one document through to every live replica.

        The primary takes ``document`` itself; each live secondary
        takes a :meth:`~repro.xmltree.document.Document.clone` (trees
        cannot be shared between databases).  Identical add order means
        identical node ids on every replica, so the index entries the
        primary derives are every secondary's too.
        """
        return self._write_through(
            "add",
            lambda slot, replica, batches: replica.add_document(
                document.clone() if slot else document, batches
            ),
        )

    def remove_document(self, ref: Union[Document, str]) -> Document:
        """Remove the same document (by its id span) from every live replica."""
        with self.add_lock:
            document = self.primary.db.resolve_document(ref)
            return self._write_through(
                "remove",
                lambda slot, replica, batches: replica.remove_document(
                    replica.document_at(document.first_id) if slot else document,
                    batches,
                ),
            )

    def build_index(self, name: str, **options):
        """Build one index on every live replica (dead ones rebuild on revive)."""
        return self._write_through(
            "build_index",
            lambda slot, replica, batches: replica.service.build_index(name, batches=batches, **options),
        )

    def ensure_indexes_for(self, strategy_name: str) -> None:
        """Build the indexes one strategy needs and lacks on every live replica."""
        self._write_through(
            "ensure_indexes_for",
            lambda slot, replica, batches: replica.service.ensure_indexes_for(strategy_name, batches),
        )

    def invalidate(self) -> None:
        """Invalidate every replica's caches, atomically with writes.

        Holds :attr:`add_lock` so the sweep never lands between the
        halves of a write-through.
        """
        with self.add_lock:
            for replica in self.replicas:
                replica.service.invalidate()

    def generation(self) -> tuple[int, ...]:
        """Every replica's engine epoch, in slot order.

        Not the primary's alone: write-through maintains the primary
        first, so between the two halves a read can be handed a
        secondary that has not absorbed the write yet.  With every
        replica in the fingerprint that stretch has a generation of its
        own, and nothing keyed on it outlives the write.
        """
        return tuple([replica.engine.epoch for replica in self.replicas])

    def document_at(self, local_start: int) -> Document:
        return self.primary.document_at(local_start)

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
    # Revive: re-sync a quarantined replica from the primary
    # ------------------------------------------------------------------
    def _replay(self) -> list[tuple[str, object]]:
        """The primary's state as a write sequence a fresh replica replays.

        Each live document in first-id order as ``("add", document)``,
        with ``("gap", id count)`` entries across the ranges removals
        (and the removal halves of moves) retired.  Replaying it
        reproduces exactly the primary's node ids — removal gaps
        included — without any history of the writes that got there.
        Called under :attr:`add_lock`.
        """
        entries: list[tuple[str, object]] = []
        cursor = 1  # a fresh XmlDatabase numbers from id 1
        for document in sorted(
            self.primary.db.documents, key=lambda doc: doc.first_id
        ):
            if document.first_id > cursor:
                entries.append(("gap", document.first_id - cursor))
            entries.append(("add", document))
            cursor = document.end_id
        if self.primary.watermark > cursor:
            entries.append(("gap", self.primary.watermark - cursor))
        return entries

    def revive(self, replica_index: int) -> Replica:
        """Rebuild one replica slot from the primary's live documents.

        A fresh :class:`Replica` reserves the primary's tag ids
        (:meth:`~repro.xmltree.dictionary.TagDictionary.reserve`), then
        replays :meth:`_replay` — a clone of every live document in
        first-id order, with the id gaps between them skipped
        (:meth:`~repro.xmltree.document.XmlDatabase.skip_ids`) — so it
        assigns exactly the primary's tag and node ids.  It copies the
        primary's entry-batch indexes node for node
        (:meth:`~repro.indexes.base.EntryBatchIndex.copy_for`), so the
        primary's next batches apply to them as to the primary's own,
        and rebuilds the rest from their recorded build options.  The
        slot is swapped in under both locks and its health reset to
        healthy; a fault injector wrapping the old replica is discarded
        with it.  The retired replica's cost counters fold
        into :meth:`_counter_totals` so shard totals never decrease, and
        the fresh engine's epoch is seeded past the retired one's, so the
        slot's :meth:`generation` component never goes back (a landed
        answer keyed on an earlier value can never be served again).
        Works on any slot: a read-dead primary (the only replica of a
        set of one, say) re-syncs from its own documents, which every
        write kept current.  Counted in ``replicas_revived``; the
        ``replica-revived`` event reports the seconds it took.
        """
        with self.add_lock:
            if not 0 <= replica_index < len(self.replicas):
                raise DocumentError(
                    f"shard {self.index} has no replica {replica_index} "
                    f"(replicas: {len(self.replicas)})"
                )
            started = now()
            fresh = Replica(self.index, **self._replica_options)
            source = self.primary.engine
            fresh.db.tags.reserve(source.db.tags)
            replay = self._replay()
            for action, payload in replay:
                if action == "gap":
                    fresh.db.skip_ids(payload)
                else:
                    fresh.add_document(payload.clone())
            for name, index in sorted(source.indexes.items()):
                options = source.build_options.get(name, {})
                if isinstance(index, EntryBatchIndex):
                    fresh.engine.adopt_index(
                        name, index.copy_for(fresh.db, fresh.stats), options
                    )
                else:
                    fresh.service.build_index(name, **options)
            if fresh.watermark != self.primary.watermark:
                raise DocumentError(
                    f"revive of shard {self.index} replica {replica_index} "
                    f"replayed to watermark {fresh.watermark}, primary is "
                    f"at {self.primary.watermark}"
                )
            with self._read_lock:
                retired = self.replicas[replica_index]
                fresh.engine.epoch += retired.engine.epoch + 1
                self.ops_stats.merge(retired.stats)
                self.replicas[replica_index] = fresh
                self._health[replica_index] = ReplicaHealth()
                self.ops_stats.replicas_revived += 1
            self.telemetry.event(
                "replica-revived",
                shard=self.index,
                replica=replica_index,
                replayed=len(replay),
                watermark=fresh.watermark,
                seconds=round(now() - started, 6),
            )
            return fresh

    # ------------------------------------------------------------------
    # Reporting: the two hooks, and what the set alone owns
    # ------------------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        """All replicas' counters and :attr:`ops_stats`, summed.

        Operations activity rides the same snapshot / merge / diff
        machinery as engine cost, and the totals never decrease across
        a revive.
        """
        return sum_snapshots(
            self.ops_stats.snapshot(),
            *(replica.stats.snapshot() for replica in self.replicas),
        )

    #: The public name benchmarks and tests read the totals by.
    stats_snapshot = _counter_totals

    def _caches(self) -> list[tuple[str, LRUCache]]:
        """Every replica's service caches; replicas share the names."""
        return [pair for replica in self.replicas for pair in replica.service._caches()]

    def health_report(self) -> dict[str, object]:
        """Health states and failover activity of the replica set."""
        with self._read_lock:
            states = [health.state for health in self._health]
            return {
                "replicas": len(self.replicas),
                "states": states,
                "healthy": states.count(REPLICA_HEALTHY),
                "suspect": states.count(REPLICA_SUSPECT),
                "dead": states.count(REPLICA_DEAD),
                **{name: getattr(self.ops_stats, name) for name in FAILOVER_COUNTERS},
                "detail": [health.describe() for health in self._health],
            }

    def describe(self) -> dict[str, object]:
        """The set's own state; ``service`` sums its replicas' counters.

        The hub and each replica's strategy choices are not the set's
        to sum: a replica's ``service.describe()`` reports its own.
        """
        return {
            "documents": self.document_count,
            "node_watermark": self.watermark,
            "indexes": sorted(self.engine.indexes),
            "replicas": self.replica_count,
            "read_picker": self.picker.name,
            "replica_reads": list(self.replica_reads),
            "health": self.health_report(),
            "service": {
                **cache_report(self._caches(), group=cache_section),
                **service_counts(self._counter_totals()),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Shard(index={self.index}, "
            f"replicas={self.replica_count}, "
            f"documents={self.document_count})"
        )

