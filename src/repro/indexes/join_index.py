"""Join Indices baseline [Valduriez 1987], adapted to XML paths.

A join index precomputes the join between the two endpoints of a path:
for every distinct schema path it stores ``(head id, tail id)`` pairs.
Because only the endpoints are kept, recovering an intermediate node of
a path requires composing two join indices (head-to-intermediate joined
with intermediate-to-tail), and supporting both directions of lookup
requires **two** B+-trees per path — which is why Figure 9 shows Join
Indices as the largest structure and Section 5.2.6 reports them slower
than ASR and DATAPATHS.

As with ASR, the schema is assumed known and all paths present in the
data are materialised: every distinct schema path between a node and a
descendant (the same path set DATAPATHS enumerates, grouped by label
path) gets

* a *forward* B+-tree  ``head id -> (tail id, leaf value)``, and
* a *backward* B+-tree ``(leaf value, tail id) -> head id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..paths.fourary import iter_datapaths_rows
from ..paths.schema_paths import LabelPath, PathPattern, matching_schema_paths
from ..storage.btree import BPlusTree
from ..storage.keys import decode_key, encode_component, encode_key, row_key
from ..storage.stats import StatsCollector
from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase
from .base import FamilyDescriptor, PathIndex, rows_with_key


@dataclass
class JoinIndexRelation:
    """The pair of B+-trees materialised for one schema path."""

    path: LabelPath
    forward: BPlusTree
    backward: BPlusTree
    pair_count: int = 0

    def tails_for_head(self, head_id: int) -> list[tuple[int, Optional[str]]]:
        """Forward lookup: ``(tail id, value)`` pairs below ``head_id``."""
        return rows_with_key(self.forward, (head_id,))

    def heads_for_value(self, value: Optional[str]) -> list[int]:
        """Backward lookup by leaf value: head ids whose path tail holds it."""
        return [
            head_id
            for _key, head_id in self.backward.scan_prefix(encode_key((value,)))
        ]

    def backward_pairs_for_value(self, value: Optional[str]) -> list[tuple[int, int]]:
        """Backward lookup returning ``(head id, tail id)`` pairs.

        ``value=None`` returns the structural pairs (no value condition).
        """
        return [
            (head_id, decode_key(key)[1])
            for key, head_id in self.backward.scan_prefix(encode_key((value,)))
        ]

    def all_pairs(self) -> list[tuple[int, int, Optional[str]]]:
        """Every ``(head, tail, value)`` pair (full scan of the forward tree)."""
        return [
            (decode_key(key)[0], tail, value)
            for key, (tail, value) in self.forward.scan_all()
        ]


class JoinIndicesIndex(PathIndex):
    """Two B+-trees per distinct schema path, endpoints only."""

    name = "join_index"
    descriptor = FamilyDescriptor(
        schema_path_subset="all paths, one binary relation per path",
        id_list_sublist="first and last ID only",
        indexed_columns=("HeadId (forward)", "LeafValue, TailId (backward)"),
    )

    # Endpoint relations are built again wholesale; no incremental path.
    incremental = False
    incremental_removal = False

    #: Fixed logical charge for opening a relation, as for ASR.
    RELATION_OPEN_COST = 2

    def __init__(self, stats: Optional[StatsCollector] = None, order: int = 128) -> None:
        super().__init__(stats)
        self.order = order
        self.relations: dict[LabelPath, JoinIndexRelation] = {}

    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase, batches: Optional[dict]) -> None:
        # No incremental ``update()``: like ASR, join indices are one
        # relation pair per schema path, so document adds fall back to
        # the base-class full rebuild.
        self.relations = {}
        for row in iter_datapaths_rows(db, include_values=True):
            if row.head_id == VIRTUAL_ROOT_ID:
                # Rooted pairs are covered by the rows headed at the
                # document root element; the virtual-root duplicates are
                # a DATAPATHS-specific convenience.
                continue
            relation = self.relations.get(row.schema_path)
            if relation is None:
                relation = JoinIndexRelation(
                    path=row.schema_path,
                    forward=BPlusTree(self.order, self.stats, "ji_forward"),
                    backward=BPlusTree(self.order, self.stats, "ji_backward"),
                )
                self.relations[row.schema_path] = relation
            tail_id = row.tail_id
            # A node's value rows share its tail id with its structural
            # row, so the forward key names the value after it.
            relation.forward.insert(
                row_key(encode_key((row.head_id,)), tail_id) + encode_component(row.leaf_value),
                (tail_id, row.leaf_value),
            )
            relation.backward.insert(
                row_key(encode_key((row.leaf_value, tail_id)), tail_id), row.head_id
            )
            relation.pair_count += 1

    # ------------------------------------------------------------------
    @property
    def relation_count(self) -> int:
        """Number of materialised path relations."""
        return len(self.relations)

    def relations_matching(self, pattern: PathPattern) -> list[JoinIndexRelation]:
        """Join indices whose schema path the pattern matches.

        The pattern here describes a path from a *head label* downwards
        (head label included), so it is matched against the stored
        subpath label sequences.  Each returned relation is charged the
        per-relation open cost.
        """
        self._require_built()
        paths = matching_schema_paths(pattern, list(self.relations))
        for _ in paths:
            self.stats.heap_page_reads += self.RELATION_OPEN_COST
        return [self.relations[path] for path in paths]

    def relation_for(self, path: Sequence[str]) -> Optional[JoinIndexRelation]:
        """The join index for an exact schema path, if materialised."""
        self._require_built()
        relation = self.relations.get(tuple(path))
        if relation is not None:
            self.stats.heap_page_reads += self.RELATION_OPEN_COST
        return relation

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()

        def key_size(key) -> int:
            total = 0
            for component in key:
                if component[0] == 0:
                    total += 1
                elif component[0] == 1:
                    total += 4
                else:
                    total += len(component[1]) + 1
            return total

        total = 0
        for relation in self.relations.values():
            total += relation.forward.estimated_size_bytes(
                key_size_of=key_size, prefix_compression=True
            )
            total += relation.backward.estimated_size_bytes(
                key_size_of=key_size, prefix_compression=True
            )
            total += 256  # two catalog entries per path
        return total
