"""The routing table of the sharded tier: placements, epochs, compaction.

:class:`ShardTopology` is the single source of truth for *where every
document lives* and *how shard-local node ids translate into the global
id space*.  It keeps that bookkeeping out of the tier object
(:class:`~repro.shard.service.ShardedQueryService`) as an explicit,
separately testable layer, which is what makes the topology *dynamic*:
a document's placement is a routing-table entry that can be retired and
re-recorded on another shard (:meth:`ShardTopology.record_move`), not a
fact frozen at add time.

The table is a set of :class:`DocumentPlacement` records, each mapping
one document to its owning shard, its shard-local id interval and its
*global* id interval (the ids a single database receiving the same
documents in the same arrival order would have assigned).  Three
invariants make the sharded tier answer-identical to one engine:

* **global spans never change** — moving a document between shards
  gives it a new shard-local interval but keeps its global interval, so
  merged answers are bit-identical to a single engine's before, during
  and after a rebalance;
* **ids are never reused** — both the global watermark and every
  shard's local watermark only grow, so a retired placement's spans
  stay unambiguous forever;
* **every routing mutation is one critical section** — a move retires
  the source span and records the target span under one lock hold, so
  a concurrent reader translating an answer sees either the old routing
  or the new, never a half-updated table.

**Epochs.**  Every routing mutation (reserve, retire, move, compact)
bumps :attr:`ShardTopology.epoch`, a cheap version counter callers can
fingerprint to detect topology change without diffing the table — the
topology-level analogue of the per-shard service generations described
in ``docs/ARCHITECTURE.md`` ("Generations and invalidation").

**Retired spans and compaction.**  Removing or moving a document
retires its placement: it leaves the live maps (name lookup, scatter
pruning, ``placements()``) but its span stays translatable, so an
in-flight answer computed against the pre-mutation shard snapshot can
still be mapped to global ids — the consistent-cut contract.  Retired
spans live *outside* the hot translation path: the ascending merge walk
of :meth:`translate_sorted` touches live spans only, and falls back to
a binary search over the retired list just for the (rare, racing) ids
live spans do not cover.  Long churn workloads can therefore
accumulate retired spans without slowing steady-state translation, and
:meth:`compact` prunes them outright once in-flight readers have
drained — after which pre-compaction snapshot answers no longer
translate, which is the documented trade of reclaiming the memory.
"""

from __future__ import annotations

import bisect
import dataclasses
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import DocumentError
from ..xmltree.document import VIRTUAL_ROOT_ID


@dataclass(frozen=True)
class DocumentPlacement:
    """Where one document lives and which id intervals it owns.

    ``local_*`` bounds are in the owning shard's id space, ``global_*``
    bounds in the equivalent single-database id space; both intervals
    are half-open and have equal length, so translation is the linear
    shift ``global_start + (local_id - local_start)``.  Records are
    immutable: moving a document produces a *new* placement with the
    same name, ordinal and global interval but a new shard and local
    interval, and retires this one.
    """

    name: str
    ordinal: int
    shard_index: int
    local_start: int
    local_end: int
    global_start: int
    global_end: int

    @property
    def node_count(self) -> int:
        """Number of node ids (structural and value) the document owns."""
        return self.local_end - self.local_start


def _local_start(placement: DocumentPlacement) -> int:
    return placement.local_start


class ShardTopology:
    """The versioned routing table behind the sharded tier.

    All methods are thread-safe under one re-entrant lock; the lock is
    never held across engine work (the tier holds its per-shard
    add locks for that), only across the table mutations themselves —
    which is what makes each routing change atomic for readers.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self._num_shards = num_shards
        self._lock = threading.RLock()
        self._next_ordinal = 0
        self._global_next = 1
        #: Version counter: bumped by every routing mutation.
        self._epoch = 0
        #: Live placements by ordinal (arrival identity of a document).
        self._by_ordinal: dict[int, DocumentPlacement] = {}
        self._by_name: dict[str, list[DocumentPlacement]] = {}
        #: Per shard, live placements sorted by ``local_start`` — the
        #: hot path of id translation.  Appends are always in order
        #: (local starts are shard watermarks, which only grow).
        self._live_spans: list[list[DocumentPlacement]] = [
            [] for _ in range(num_shards)
        ]
        #: Per shard, retired placements sorted by ``local_start`` —
        #: consulted only when a live span does not cover an id, and
        #: emptied by :meth:`compact`.
        self._retired_spans: list[list[DocumentPlacement]] = [
            [] for _ in range(num_shards)
        ]
        self.spans_retired = 0
        self.spans_pruned = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Versioning and sizes
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Routing-table version; any mutation makes it grow."""
        with self._lock:
            return self._epoch

    @property
    def document_count(self) -> int:
        with self._lock:
            return len(self._by_ordinal)

    @property
    def global_watermark(self) -> int:
        """The next unassigned global node id."""
        with self._lock:
            return self._global_next

    @property
    def retired_span_count(self) -> int:
        """Spans kept only for in-flight translation (pruned by compact)."""
        with self._lock:
            return sum(len(spans) for spans in self._retired_spans)

    def live_counts(self) -> list[int]:
        """Live documents per shard — the scatter set's pruning input."""
        with self._lock:
            return [len(spans) for spans in self._live_spans]

    def shard_node_weights(self) -> list[int]:
        """Live node count per shard (the rebalance planner's currency)."""
        with self._lock:
            return [
                sum(placement.node_count for placement in spans)
                for spans in self._live_spans
            ]

    def skew(self) -> dict[str, object]:
        """Placement skew across shards — the auto-rebalance trigger input.

        ``ratio`` is the heaviest shard's node weight over the
        all-shard mean: 1.0 means perfectly flat, ``num_shards`` means
        everything sits on one shard.  An empty topology reports 1.0
        (nothing to balance).  Both ``live_counts`` and node weights
        ride along so watermark policies (and ``describe()`` readers)
        can consult either measure from one consistent snapshot — all
        three values come from a single critical section.
        """
        with self._lock:
            counts, weights = self.live_counts(), self.shard_node_weights()
        total = sum(weights)
        ratio = (max(weights) * self._num_shards / total) if total else 1.0
        return {
            "live_counts": counts,
            "node_weights": weights,
            "total_nodes": total,
            "ratio": ratio,
        }

    # ------------------------------------------------------------------
    # Routing mutations
    # ------------------------------------------------------------------
    def next_ordinal(self) -> int:
        """Allocate the arrival ordinal of one incoming document."""
        with self._lock:
            ordinal = self._next_ordinal
            self._next_ordinal += 1
            return ordinal

    def reserve(
        self,
        name: str,
        ordinal: int,
        shard_index: int,
        local_start: int,
        node_count: int,
    ) -> DocumentPlacement:
        """Record one incoming document's routing entry.

        Allocates the document's global interval at the global watermark
        and registers the placement as live.  Called *before* the
        engine add lands (under the owning shard's add lock), so a
        concurrent reader can never see nodes without a span to
        translate them.
        """
        self._check_shard(shard_index)
        with self._lock:
            placement = DocumentPlacement(
                name=name,
                ordinal=ordinal,
                shard_index=shard_index,
                local_start=local_start,
                local_end=local_start + node_count,
                global_start=self._global_next,
                global_end=self._global_next + node_count,
            )
            self._global_next += node_count
            self._record_live(placement)
            self._epoch += 1
            return placement

    def retire(self, placement: DocumentPlacement) -> None:
        """Retire one live placement (document removed from its shard).

        The record leaves the live maps but its span keeps translating
        (from the retired list, off the hot path) until :meth:`compact`.
        """
        with self._lock:
            self._retire_live(placement)
            self._epoch += 1

    def record_move(
        self, placement: DocumentPlacement, target_shard: int, local_start: int
    ) -> DocumentPlacement:
        """Re-route one live document to ``target_shard`` atomically.

        Retires the source placement and records the target placement —
        same name, ordinal and **global interval**, new shard and local
        interval — in one critical section, so readers see either the
        old routing or the new, never both or neither.  Returns the new
        placement.
        """
        self._check_shard(target_shard)
        with self._lock:
            moved = dataclasses.replace(
                placement,
                shard_index=target_shard,
                local_start=local_start,
                local_end=local_start + placement.node_count,
            )
            self._retire_live(placement)
            self._record_live(moved)
            self._epoch += 1
            return moved

    def compact(self) -> int:
        """Prune every retired span out of the translation table.

        Returns how many spans were dropped.  After compaction, answers
        computed against pre-mutation shard snapshots (the consistent
        cut retired spans served) can no longer be translated — call
        this between query waves or after a rebalance, not under one.
        """
        with self._lock:
            pruned = sum(len(spans) for spans in self._retired_spans)
            if pruned:
                for spans in self._retired_spans:
                    spans.clear()
                self.spans_pruned += pruned
                self._epoch += 1
            self.compactions += 1
            return pruned

    def _record_live(self, placement: DocumentPlacement) -> None:
        if placement.ordinal in self._by_ordinal:
            raise DocumentError(
                f"ordinal {placement.ordinal} already has a live placement"
            )
        self._by_ordinal[placement.ordinal] = placement
        self._by_name.setdefault(placement.name, []).append(placement)
        bisect.insort(
            self._live_spans[placement.shard_index], placement, key=_local_start
        )

    def _retire_live(self, placement: DocumentPlacement) -> None:
        live = self._by_ordinal.get(placement.ordinal)
        if live is not placement:
            raise DocumentError(
                f"placement of {placement.name!r} (ordinal "
                f"{placement.ordinal}) is not live"
            )
        del self._by_ordinal[placement.ordinal]
        remaining = self._by_name[placement.name]
        remaining.remove(placement)
        if not remaining:
            del self._by_name[placement.name]
        self._live_spans[placement.shard_index].remove(placement)
        bisect.insort(
            self._retired_spans[placement.shard_index], placement, key=_local_start
        )
        self.spans_retired += 1

    def _check_shard(self, shard_index: int) -> None:
        if not 0 <= shard_index < self._num_shards:
            raise DocumentError(
                f"shard index {shard_index} outside [0, {self._num_shards})"
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def placements(self) -> list[DocumentPlacement]:
        """All live placements in arrival (ordinal) order."""
        with self._lock:
            return [self._by_ordinal[o] for o in sorted(self._by_ordinal)]

    def placements_for(self, name: str) -> list[DocumentPlacement]:
        """Every live placement recorded under one document name."""
        with self._lock:
            try:
                return list(self._by_name[name])
            except KeyError:
                raise DocumentError(f"no document named {name!r}") from None

    def resolve_unique(self, name: str) -> DocumentPlacement:
        """The single live placement of a uniquely named document."""
        placements = self.placements_for(name)
        if len(placements) > 1:
            raise DocumentError(
                f"document name {name!r} is ambiguous "
                f"({len(placements)} placements)"
            )
        return placements[0]

    def is_live(self, placement: DocumentPlacement) -> bool:
        """Whether this exact record is current routing state."""
        with self._lock:
            return self._by_ordinal.get(placement.ordinal) is placement

    def shards_for_documents(
        self, names: Sequence[str]
    ) -> dict[int, list[DocumentPlacement]]:
        """Shard index -> the named documents it holds (pruning map).

        Shards holding none of the named documents are absent — this is
        the scatter set for a document-scoped query.
        """
        targets: dict[int, list[DocumentPlacement]] = {}
        for name in names:
            for placement in self.placements_for(name):
                targets.setdefault(placement.shard_index, []).append(placement)
        return targets

    def global_spans_for(self, names: Sequence[str]) -> list[tuple[int, int]]:
        """The named documents' global id intervals (scoping filter)."""
        return [
            (placement.global_start, placement.global_end)
            for name in names
            for placement in self.placements_for(name)
        ]

    # ------------------------------------------------------------------
    # Id translation
    # ------------------------------------------------------------------
    def to_global(self, shard_index: int, local_id: int) -> int:
        """Translate one shard-local node id into the global id space."""
        self._check_shard(shard_index)
        if local_id == VIRTUAL_ROOT_ID:
            # Every shard's virtual root is the same global virtual root.
            return VIRTUAL_ROOT_ID
        with self._lock:
            span = self._covering_span(
                self._live_spans[shard_index], local_id
            ) or self._covering_span(self._retired_spans[shard_index], local_id)
            if span is not None:
                return span.global_start + (local_id - span.local_start)
        raise DocumentError(
            f"shard {shard_index} has no document covering local id {local_id}"
        )

    @staticmethod
    def _covering_span(
        spans: list[DocumentPlacement], local_id: int
    ) -> Optional[DocumentPlacement]:
        position = bisect.bisect_right(spans, local_id, key=_local_start) - 1
        if position >= 0:
            span = spans[position]
            if span.local_start <= local_id < span.local_end:
                return span
        return None

    def translate_sorted(
        self,
        shard_index: int,
        local_ids: Sequence[int],
        scope: Optional[Sequence[DocumentPlacement]] = None,
    ) -> list[int]:
        """Translate ascending shard-local ids in one pass (one lock).

        Query answers come back in ascending local id order, so a single
        merge-style walk over the shard's (also ascending) *live* spans
        translates the whole answer without a per-id bisect; only ids no
        live span covers (answers racing a removal or a move) take the
        retired-list binary-search slow path.  ``scope`` restricts the
        output to the given documents' intervals — ids outside them
        (other documents co-resident on the shard) are dropped, which is
        the filtering half of shard pruning.
        """
        self._check_shard(shard_index)
        allowed: Optional[set[int]] = None
        if scope is not None:
            allowed = {placement.ordinal for placement in scope}
        with self._lock:
            # Snapshot both span lists and translate outside the lock:
            # the walk is O(answer size) and must not become a serial
            # section across every query's gather phase.
            live = list(self._live_spans[shard_index])
            retired = list(self._retired_spans[shard_index])
        translated: list[int] = []
        position = 0
        for local_id in local_ids:
            if local_id == VIRTUAL_ROOT_ID:
                translated.append(VIRTUAL_ROOT_ID)
                continue
            while position < len(live) and local_id >= live[position].local_end:
                position += 1
            if position < len(live) and live[position].local_start <= local_id:
                span = live[position]
            else:
                span = self._covering_span(retired, local_id)
                if span is None:
                    raise DocumentError(
                        f"shard {shard_index} has no document covering "
                        f"local id {local_id} (ids must be ascending)"
                    )
            if allowed is not None and span.ordinal not in allowed:
                continue
            translated.append(span.global_start + (local_id - span.local_start))
        return translated

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Routing-table counters for ``describe()`` reports."""
        with self._lock:
            return {
                "epoch": self._epoch,
                "documents": len(self._by_ordinal),
                "documents_per_shard": [len(s) for s in self._live_spans],
                "global_watermark": self._global_next,
                "retired_spans": sum(len(s) for s in self._retired_spans),
                "spans_retired": self.spans_retired,
                "spans_pruned": self.spans_pruned,
                "compactions": self.compactions,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardTopology(shards={self._num_shards}, "
            f"documents={self.document_count}, epoch={self.epoch})"
        )
