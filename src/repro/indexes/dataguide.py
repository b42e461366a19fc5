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

from typing import Optional, Sequence

from ..paths.fourary import iter_rootpaths_rows
from ..paths.schema_paths import LabelPath, PathPattern, matching_schema_paths
from ..storage.btree import BPlusTree
from ..storage.keys import encode_key
from ..storage.stats import StatsCollector
from ..xmltree.document import XmlDatabase
from .base import FamilyDescriptor, KeySuffixMemo, PathIndex, adjust_counts, labels_to_tag_ids


class DataGuideIndex(PathIndex):
    """B+-tree on the rooted SchemaPath returning the last id of the path."""

    name = "dataguide"
    descriptor = FamilyDescriptor(
        schema_path_subset="root-to-leaf path prefixes",
        id_list_sublist="only last ID",
        indexed_columns=("SchemaPath",),
    )
    #: ``update()`` extends the summary (new entries and, when the new
    #: document introduces unseen rooted paths, new skeleton paths).
    incremental = True
    #: ``remove()`` deletes the removed document's entries and shrinks
    #: the skeleton when a rooted path loses its last occurrence.
    incremental_removal = True

    def __init__(self, stats: Optional[StatsCollector] = None, order: int = 128) -> None:
        super().__init__(stats)
        self.order = order
        self._tree: Optional[BPlusTree] = None
        self._key_suffixes: Optional[KeySuffixMemo] = None
        #: Occurrences per distinct rooted path, in first-seen order:
        #: the DataGuide's skeleton, and the refcounts that retire a
        #: path exactly when its last node disappears.
        self._path_counts: dict[LabelPath, int] = {}
        self.entry_count = 0

    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase) -> None:
        self._tree = BPlusTree(order=self.order, stats=self.stats, name=self.name)
        self._key_suffixes = KeySuffixMemo(db.tags, reverse=False)
        self._path_counts = {}
        self.entry_count = 0
        self._insert_documents(db, db.documents)

    def _update(self, db: XmlDatabase, document) -> None:
        """DataGuide summary extension for one new document.

        Every rooted path prefix of the new document contributes one
        B+-tree entry, inserted as one batch; rooted schema paths never
        seen before also extend the DataGuide skeleton
        (``distinct_paths``), so later recursive pattern matching
        enumerates them too.
        """
        self._insert_documents(db, (document,))

    def _remove(self, db: XmlDatabase, document) -> None:
        """DataGuide summary shrink for one removed document.

        Deletes the removed document's entries (one per structural
        node) as one batch and decrements the per-path refcounts by the
        entries actually found; a rooted path whose count reaches zero
        is retired from the skeleton, so recursive pattern matching
        stops enumerating (and probing) it — exactly the skeleton a
        from-scratch build over the remaining documents would produce.
        """
        assert self._tree is not None
        removed = self._tree.delete_many(self._entry_batch(db, (document,)))
        self.entry_count -= len(removed)
        adjust_counts(self._path_counts, (entry[2] for entry in removed), -1)

    def _insert_documents(self, db: XmlDatabase, documents) -> None:
        """Build and incremental insert: one entry batch, one tree pass."""
        assert self._tree is not None
        batch = self._entry_batch(db, documents)
        self.entry_count += len(batch)
        adjust_counts(self._path_counts, (entry[2] for entry in batch), 1)
        self._tree.insert_many(batch)

    def _entry_batch(self, db: XmlDatabase, documents) -> list[tuple]:
        """One ``(key, last id, schema_path)`` summary entry per
        structural node of ``documents``, in row order."""
        suffixes = self._key_suffixes
        return [
            (suffixes[schema_path], id_list[-1], schema_path)
            for _head, schema_path, _value, id_list in iter_rootpaths_rows(
                db, include_values=False, documents=documents
            )
        ]

    # ------------------------------------------------------------------
    def lookup_path(self, labels: Sequence[str]) -> list[int]:
        """Ids of elements reached by exactly the rooted path ``labels``."""
        db = self._require_built()
        assert self._tree is not None
        tag_ids = labels_to_tag_ids(db, labels)
        if tag_ids is None:
            return []
        return self._tree.search(encode_key(tag_ids))

    def distinct_paths(self) -> list[LabelPath]:
        """Every distinct rooted schema path (the DataGuide's skeleton)."""
        self._require_built()
        return list(self._path_counts)

    def paths_matching(self, pattern: PathPattern) -> list[LabelPath]:
        """Distinct rooted paths that a (possibly recursive) pattern matches.

        Recursive queries must enumerate and probe each matching path —
        one lookup per path — which is the multiple-lookup overhead the
        paper attributes to path-id-style structures.
        """
        self._require_built()
        return matching_schema_paths(pattern, self._path_counts)

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert self._tree is not None

        def key_size(key) -> int:
            return 2 * len(key)

        return self._tree.estimated_size_bytes(
            key_size_of=key_size, prefix_compression=True
        )
