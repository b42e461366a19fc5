"""The Index Fabric baseline, simulated with a B+-tree (Section 5.1.2).

The Index Fabric [Cooper et al. 2001] indexes whole root-to-leaf paths
*together with* the leaf value (a layered Patricia trie in the original
proposal; the paper — and therefore this reproduction — simulates it
with a regular B+-tree because commercial systems do not provide
Patricia tries).  In the family framework (Figure 3) it stores
root-to-leaf paths, returns only the first or last id, and indexes
``SchemaPath, LeafValue``.

Strengths and weaknesses reproduced here:

* a fully specified root-to-leaf path with a value condition is a
  single exact lookup (best case in Figure 11);
* branching queries need the Edge table to recover branch-point ids
  (the IF+Edge strategy), because no IdList is stored;
* paths that stop above a leaf and paths with a leading ``//`` are not
  supported directly — the strategy falls back to other access paths.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..paths.fourary import iter_rootpaths_rows
from ..paths.schema_paths import LabelPath, PathPattern, matching_schema_paths
from ..storage.btree import BPlusTree
from ..storage.keys import encode_key
from ..storage.stats import StatsCollector
from ..xmltree.document import XmlDatabase
from .base import FamilyDescriptor, PathIndex, labels_to_tag_ids


class IndexFabricIndex(PathIndex):
    """B+-tree on ``SchemaPath · LeafValue`` for root-to-leaf paths."""

    name = "index_fabric"
    descriptor = FamilyDescriptor(
        schema_path_subset="root-to-leaf paths",
        id_list_sublist="only first or last ID",
        indexed_columns=("SchemaPath", "LeafValue"),
    )

    # Raw-path keys cannot be patched in place; rebuild on maintenance.
    incremental = False
    incremental_removal = False

    def __init__(
        self,
        stats: Optional[StatsCollector] = None,
        order: int = 128,
        return_first: bool = False,
    ) -> None:
        super().__init__(stats)
        self.order = order
        self.return_first = return_first
        self._tree: Optional[BPlusTree] = None
        self._leaf_paths: list[LabelPath] = []
        self.entry_count = 0

    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase) -> None:
        # No incremental ``update()``: the simulated fabric is rebuilt in
        # full when a document is added (the base-class fall-back), as
        # the layered-trie original would re-layer anyway.
        self._tree = BPlusTree(order=self.order, stats=self.stats, name=self.name)
        self.entry_count = 0
        seen_paths: dict[LabelPath, None] = {}
        entries = []
        for row in iter_rootpaths_rows(db, include_values=True):
            if row.leaf_value is None:
                continue
            tag_ids = tuple(db.tags.intern(label) for label in row.schema_path)
            stored = row.id_list[0] if self.return_first else row.id_list[-1]
            entries.append((encode_key((*tag_ids, row.leaf_value)), stored))
            self.entry_count += 1
            seen_paths.setdefault(row.schema_path, None)
        self._tree.insert_many(entries)
        self._leaf_paths = list(seen_paths)

    # ------------------------------------------------------------------
    def lookup(self, labels: Sequence[str], value: str) -> list[int]:
        """Ids for a fully specified root-to-leaf path with a value."""
        db = self._require_built()
        assert self._tree is not None
        tag_ids = labels_to_tag_ids(db, labels)
        if tag_ids is None:
            return []
        return self._tree.search(encode_key((*tag_ids, value)))

    def leaf_paths(self) -> list[LabelPath]:
        """Distinct root-to-leaf schema paths present in the fabric."""
        self._require_built()
        return list(self._leaf_paths)

    def paths_matching(self, pattern: PathPattern) -> list[LabelPath]:
        """Root-to-leaf paths a (possibly recursive) pattern matches."""
        self._require_built()
        return matching_schema_paths(pattern, self._leaf_paths)

    def supports(self, labels: Sequence[str], value: Optional[str]) -> bool:
        """True when the fabric can answer this probe directly.

        A probe is supported when it carries a value condition and its
        path reaches a leaf-valued path stored in the fabric.
        """
        self._require_built()
        return value is not None and tuple(labels) in set(self._leaf_paths)

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert self._tree is not None

        def key_size(key) -> int:
            total = 0
            for component in key:
                if component[0] == 1:
                    total += 2
                elif component[0] == 2:
                    total += len(component[1]) + 1
                else:
                    total += 1
            return total

        return self._tree.estimated_size_bytes(
            key_size_of=key_size, prefix_compression=True
        )
