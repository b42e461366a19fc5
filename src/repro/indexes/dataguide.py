"""The (strong) DataGuide baseline, simulated with a B+-tree.

A DataGuide [Goldman & Widom 1997] summarises every distinct rooted
schema path and maps it to the ids of the elements reached by that
path.  In the paper's framework (Figure 3) it stores root-to-leaf path
*prefixes*, returns only the last id, and indexes the SchemaPath column
only — values are not part of the structure, which is why the
DataGuide+Edge strategy must join a separate value-index lookup against
the DataGuide result (Section 5.2.1).

As in the paper, the structure is simulated with a regular B+-tree
keyed by the (forward) schema path.
"""

from __future__ import annotations

from typing import Sequence

from ..paths.schema_paths import LabelPath, PathPattern, matching_schema_paths
from ..xmltree.document import XmlDatabase
from .base import EntryBatchIndex, FamilyDescriptor, labels_to_tag_ids, rows_with_key


class DataGuideIndex(EntryBatchIndex):
    """B+-tree on the rooted SchemaPath returning the last id of the path."""

    name = "dataguide"
    descriptor = FamilyDescriptor(
        schema_path_subset="root-to-leaf path prefixes",
        id_list_sublist="only last ID",
        indexed_columns=("SchemaPath",),
    )
    #: Keys spell the rooted schema path forward.
    reverse_schema_path = False

    # ------------------------------------------------------------------
    # Derivation (the tree and the skeleton are maintained by ``apply``)
    # ------------------------------------------------------------------
    def _entry_batch(self, db: XmlDatabase, documents) -> tuple[list[tuple], int]:
        """One ``(key, last id, schema_path)`` entry per structural node.

        Keyed by ``schema_path``, :attr:`stat_counts` is the DataGuide's
        skeleton (``distinct_paths``) in first-seen order, and the
        refcounts that retire a path when a removal takes its last node.
        """
        trie = self._paths
        batch = [
            ((path.suffixes[0] or trie.suffix(path, 0)) + tail, ids[-1], path.labels)
            for path, ids, tail, _heads, _values in trie.walk(documents)
        ]
        return batch, 0

    # ------------------------------------------------------------------
    def lookup_path(self, labels: Sequence[str]) -> list[int]:
        """Ids of elements reached by exactly the rooted path ``labels``."""
        db = self._require_built()
        assert self._tree is not None
        tag_ids = labels_to_tag_ids(db, labels)
        if tag_ids is None:
            return []
        return rows_with_key(self._tree, tag_ids)

    def distinct_paths(self) -> list[LabelPath]:
        """Every distinct rooted schema path (the DataGuide's skeleton)."""
        self._require_built()
        return list(self.stat_counts)

    def paths_matching(self, pattern: PathPattern) -> list[LabelPath]:
        """Distinct rooted paths that a (possibly recursive) pattern matches.

        Recursive queries must enumerate and probe each matching path —
        one lookup per path — which is the multiple-lookup overhead the
        paper attributes to path-id-style structures.
        """
        self._require_built()
        return matching_schema_paths(pattern, self.stat_counts)

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert self._tree is not None

        def key_size(key) -> int:
            return 2 * len(key)

        return self._tree.estimated_size_bytes(
            key_size_of=key_size, prefix_compression=True
        )
