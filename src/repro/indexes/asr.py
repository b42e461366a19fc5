"""Access Support Relations (ASR) baseline [Kemper & Moerkotte 1990].

An ASR materialises a path as a relation whose columns are the object
(here: node) ids along the path.  As in Section 5.1.2, all paths
present in the data are materialised — one relation per distinct rooted
schema path — because the workload is ad hoc.  Each relation keeps the
ids of *every* node on the path in separate columns (no IdList
compression, Section 5.2.6) plus the leaf value, and carries a B+-tree
on the value column.

Characteristics reproduced from the paper:

* a branch lookup that matches a single schema path touches one
  relation (fast, comparable to DATAPATHS),
* a recursive (``//``) pattern that matches *k* schema paths must
  access *k* relations — cost linear in *k* rather than logarithmic in
  the data size (Figure 13),
* managing one table + index per schema path (902 for XMark, 235 for
  DBLP in the paper) is the manageability cost called out in
  Section 5.2.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..paths.fourary import iter_rootpaths_rows
from ..paths.schema_paths import LabelPath, PathPattern, matching_schema_paths
from ..storage.btree import BPlusTree
from ..storage.heap import HeapFile
from ..storage.keys import encode_key, row_key
from ..storage.stats import StatsCollector
from ..xmltree.document import XmlDatabase
from .base import FamilyDescriptor, PathIndex, rows_with_key


@dataclass
class AccessSupportRelation:
    """One materialised path: a heap of id tuples plus a value index."""

    path: LabelPath
    heap: HeapFile
    value_index: BPlusTree
    row_count: int = 0

    def rows_with_value(self, value: str) -> list[tuple]:
        """Rows whose leaf value equals ``value`` (via the value index)."""
        return rows_with_key(self.value_index, (value,))

    def scan(self) -> list[tuple]:
        """All rows of the relation (sequential scan)."""
        return list(self.heap.scan())


class AccessSupportRelationsIndex(PathIndex):
    """One relation per distinct rooted schema path."""

    name = "asr"
    descriptor = FamilyDescriptor(
        schema_path_subset="all rooted paths, one relation per path",
        id_list_sublist="all ids, one column per node",
        indexed_columns=("LeafValue per relation",),
    )

    # Per-path relations are built again wholesale; no incremental path.
    incremental = False
    incremental_removal = False

    #: Fixed logical charge for opening a relation (catalog lookup + root
    #: page), modelling why touching many small relations is linear in
    #: their number rather than logarithmic in the data size.
    RELATION_OPEN_COST = 2

    def __init__(self, stats: Optional[StatsCollector] = None, order: int = 128) -> None:
        super().__init__(stats)
        self.order = order
        self.relations: dict[LabelPath, AccessSupportRelation] = {}

    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase, batches: Optional[dict]) -> None:
        # No incremental ``update()``: adding a document can create new
        # schema paths (new relations plus catalog churn), so ASR takes
        # the base-class full-rebuild fall-back — the manageability cost
        # Section 5.2.6 calls out.
        self.relations = {}
        for row in iter_rootpaths_rows(db, include_values=True):
            relation = self.relations.get(row.schema_path)
            if relation is None:
                relation = AccessSupportRelation(
                    path=row.schema_path,
                    heap=HeapFile(stats=self.stats, name=f"asr:{'/'.join(row.schema_path)}"),
                    value_index=BPlusTree(self.order, self.stats, "asr_value"),
                )
                self.relations[row.schema_path] = relation
            stored = (*row.id_list, row.leaf_value)
            relation.heap.append(stored)
            relation.row_count += 1
            if row.leaf_value is not None:
                relation.value_index.insert(row_key(encode_key((row.leaf_value,)), row.tail_id), stored)

    # ------------------------------------------------------------------
    @property
    def relation_count(self) -> int:
        """Number of materialised relations (the paper's 902 / 235)."""
        return len(self.relations)

    def relations_matching(self, pattern: PathPattern) -> list[AccessSupportRelation]:
        """Relations whose schema path the pattern matches.

        Charges the per-relation open cost for each returned relation.
        """
        self._require_built()
        paths = matching_schema_paths(pattern, list(self.relations))
        for _ in paths:
            self.stats.heap_page_reads += self.RELATION_OPEN_COST
        return [self.relations[path] for path in paths]

    def relation_for(self, path: Sequence[str]) -> Optional[AccessSupportRelation]:
        """The relation for an exact schema path, if materialised."""
        self._require_built()
        relation = self.relations.get(tuple(path))
        if relation is not None:
            self.stats.heap_page_reads += self.RELATION_OPEN_COST
        return relation

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        total = 0
        for relation in self.relations.values():
            # Ids are stored uncompressed in separate columns.
            total += relation.heap.estimated_size_bytes()
            total += relation.value_index.estimated_size_bytes(
                key_size_of=lambda key: sum(
                    len(c[1]) + 1 if c[0] == 2 else 4 for c in key
                ),
                prefix_compression=True,
            )
            # Catalog entry per relation.
            total += 128
        return total
