"""The ROOTPATHS index (Section 3.2).

ROOTPATHS is a B+-tree on the concatenation
``LeafValue · ReverseSchemaPath`` over the rows of the 4-ary relation
whose HeadId is the (virtual) root — i.e. the prefixes of the
root-to-leaf data paths — returning the complete IdList.

Design points reproduced from the paper:

* *prefix paths* are stored in addition to full root-to-leaf paths so
  queries that stop above a leaf (``/book``) are answered directly;
* the SchemaPath is stored **reversed**, so a PCsubpath with a leading
  ``//`` becomes a B+-tree *prefix* scan — a single index lookup;
* the **full IdList** is stored, so the ids of branch points are
  available without joins (this is what makes twig queries cheap);
* IdLists are differentially encoded for the space numbers
  (Section 4.1), and SchemaPaths can optionally be dictionary-encoded
  (Section 4.2) at the cost of losing ``//`` support.

Ablation switches (used by ``benchmarks/bench_ablations.py``):

``store_full_idlist=False``
    store only the last id, mimicking the Index-Fabric/DataGuide
    behaviour inside the same key layout;
``reverse_schema_path=False``
    index the forward schema path; ``//`` lookups then degrade to a
    full index scan.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..errors import UnsupportedLookupError
from ..paths.compression import SchemaPathDictionary
from ..paths.fourary import iter_rootpaths_rows
from ..paths.idlist import encoded_size_bytes, present_ids, raw_size_bytes
from ..storage.btree import BPlusTree
from ..storage.keys import encode_component, encode_key
from ..storage.stats import StatsCollector
from ..xmltree.document import XmlDatabase
from .base import FamilyDescriptor, KeySuffixMemo, PathIndex, PathMatch, adjust_counts, labels_to_tag_ids


class RootPathsIndex(PathIndex):
    """B+-tree on ``LeafValue · ReverseSchemaPath`` returning full IdLists."""

    name = "rootpaths"
    descriptor = FamilyDescriptor(
        schema_path_subset="root-to-leaf path prefixes",
        id_list_sublist="full IdList",
        indexed_columns=("LeafValue", "reverse SchemaPath"),
    )
    #: ``update()`` inserts the new document's rows in place.
    incremental = True
    #: ``remove()`` deletes the removed document's rows in place.
    incremental_removal = True

    def __init__(
        self,
        stats: Optional[StatsCollector] = None,
        order: int = 128,
        store_full_idlist: bool = True,
        reverse_schema_path: bool = True,
        differential_idlists: bool = True,
        schema_path_dictionary: bool = False,
    ) -> None:
        super().__init__(stats)
        self.order = order
        self.store_full_idlist = store_full_idlist
        self.reverse_schema_path = reverse_schema_path
        self.differential_idlists = differential_idlists
        self.schema_path_dictionary = schema_path_dictionary
        self._tree: Optional[BPlusTree] = None
        self._path_dictionary = SchemaPathDictionary() if schema_path_dictionary else None
        self._key_suffixes: Optional[KeySuffixMemo] = None
        self.entry_count = 0
        self.value_counts: dict[tuple[str, Optional[str]], int] = {}

    # ------------------------------------------------------------------
    # Construction and maintenance
    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase) -> None:
        self._tree = BPlusTree(order=self.order, stats=self.stats, name=self.name)
        self._path_dictionary = (
            SchemaPathDictionary() if self.schema_path_dictionary else None
        )
        self._key_suffixes = KeySuffixMemo(
            db.tags, self.reverse_schema_path, path_dictionary=self._path_dictionary
        )
        self.entry_count = 0
        self.value_counts = {}
        self._insert_documents(db, db.documents)

    def _update(self, db: XmlDatabase, document) -> None:
        """Incremental insertion (Section 3.2 layout, maintained in place).

        Only ``document``'s rows are enumerated; their entry batch goes
        into the tree in one finger pass.  Tags (and, under Section 4.2
        compression, whole schema paths) first seen here grow the
        dictionaries exactly as a full build would, and the catalog
        statistics in ``value_counts`` stay exact.
        """
        self._insert_documents(db, (document,))

    def _remove(self, db: XmlDatabase, document) -> None:
        """Incremental deletion of one removed document's rows.

        The detached document still carries its node ids, so the exact
        entries it contributed are recomputed and deleted in one finger
        pass, and ``entry_count`` / ``value_counts`` drop by the entries
        actually found — to what a from-scratch build over the
        remaining documents would count.  Dictionaries never shrink
        (ids are positional); that costs a few dead designators, not
        correctness: lookups translate through the database dictionary,
        which reports fully released tags as unknown.
        """
        assert self._tree is not None
        removed = self._tree.delete_many(self._entry_batch(db, (document,)))
        self.entry_count -= len(removed)
        adjust_counts(self.value_counts, (entry[2] for entry in removed), -1)

    def _insert_documents(self, db: XmlDatabase, documents) -> None:
        """Build and incremental insert: one entry batch, one tree pass."""
        assert self._tree is not None
        batch = self._entry_batch(db, documents)
        self.entry_count += len(batch)
        adjust_counts(self.value_counts, (entry[2] for entry in batch), 1)
        self._tree.insert_many(batch)

    def _entry_batch(self, db: XmlDatabase, documents) -> list[tuple]:
        """The ``(key, payload, stat_key)`` entries of ``documents``' rows.

        The one row-to-entry mapping build, insert and delete share, so
        the three cannot disagree about what a row looks like in the
        tree.  Entries come in row order; the tree applies a batch in
        stable key order, which keeps equal keys in row order.
        """
        suffixes = self._key_suffixes
        full = self.store_full_idlist
        batch = []
        for _head, schema_path, leaf_value, id_list in iter_rootpaths_rows(
            db, documents=documents
        ):
            key = (encode_component(leaf_value),) + suffixes[schema_path]
            ids = id_list if full else id_list[-1:]
            batch.append(
                (key, (schema_path, ids, leaf_value), (schema_path[-1], leaf_value))
            )
        return batch

    def _key_labels(self, labels: Sequence[str]) -> tuple[str, ...]:
        if self.reverse_schema_path:
            return tuple(reversed(tuple(labels)))
        return tuple(labels)

    # ------------------------------------------------------------------
    # Lookups (the FreeIndex problem)
    # ------------------------------------------------------------------
    def lookup(
        self,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> Iterator[PathMatch]:
        """All root paths ending with ``segment_labels`` (single lookup).

        ``anchored`` restricts matches to paths that *are exactly* the
        segment (a fully specified, root-anchored PCsubpath); otherwise
        the segment may sit at any depth (a leading ``//``).
        """
        db = self._require_built()
        assert self._tree is not None
        tag_ids = labels_to_tag_ids(db, self._key_labels(segment_labels))
        if tag_ids is None:
            return
        if self.schema_path_dictionary:
            yield from self._lookup_with_dictionary(segment_labels, value, anchored)
            return
        if not self.reverse_schema_path and not anchored:
            raise UnsupportedLookupError(
                "forward-schema-path ROOTPATHS cannot answer '//' lookups with "
                "a prefix scan; rebuild with reverse_schema_path=True"
            )
        prefix = encode_key((value, *tag_ids))
        for _key, payload in self._tree.scan_prefix(prefix):
            labels, ids, leaf_value = payload
            if anchored and len(labels) != len(segment_labels):
                continue
            yield PathMatch(labels=labels, ids=ids, value=leaf_value, head_id=None)

    def lookup_payloads(
        self,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> list[tuple]:
        """Batch :meth:`lookup` returning raw stored payloads.

        The columnar kernels consume ``(schema_path, ids, leaf_value)``
        payload tuples directly instead of per-row
        :class:`~repro.indexes.base.PathMatch` objects.  Charges exactly
        the counters a fully consumed :meth:`lookup` would (same key
        prefix, same batch leaf walk via
        :meth:`~repro.storage.btree.BPlusTree.scan_prefix_items`).
        """
        db = self._require_built()
        assert self._tree is not None
        tag_ids = labels_to_tag_ids(db, self._key_labels(segment_labels))
        if tag_ids is None:
            return []
        if self.schema_path_dictionary:
            return [
                (match.labels, match.ids, match.value)
                for match in self._lookup_with_dictionary(
                    segment_labels, value, anchored
                )
            ]
        if not self.reverse_schema_path and not anchored:
            raise UnsupportedLookupError(
                "forward-schema-path ROOTPATHS cannot answer '//' lookups with "
                "a prefix scan; rebuild with reverse_schema_path=True"
            )
        prefix = encode_key((value, *tag_ids))
        items = self._tree.scan_prefix_items(prefix)
        if anchored:
            wanted = len(segment_labels)
            return [
                payload for _key, payload in items if len(payload[0]) == wanted
            ]
        return [payload for _key, payload in items]

    def _lookup_with_dictionary(
        self, segment_labels: Sequence[str], value: Optional[str], anchored: bool
    ) -> Iterator[PathMatch]:
        """Lookup under SchemaPath dictionary compression (Section 4.2).

        The path id is indivisible, so only fully specified root-anchored
        paths can be answered; a ``//`` pattern raises
        :class:`UnsupportedLookupError` — the loss of functionality the
        paper describes.
        """
        assert self._tree is not None and self._path_dictionary is not None
        if not anchored:
            raise UnsupportedLookupError(
                "SchemaPath dictionary compression cannot answer '//' lookups"
            )
        path_id = self._path_dictionary.id_of(tuple(segment_labels))
        if path_id is None:
            return
        key = encode_key((value, path_id))
        for payload in self._tree.search(key):
            labels, ids, leaf_value = payload
            yield PathMatch(labels=labels, ids=ids, value=leaf_value, head_id=None)

    def count(
        self,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> int:
        """Number of matching root paths (used by tests and statistics)."""
        return sum(1 for _ in self.lookup(segment_labels, value, anchored))

    def estimate_matches(
        self, leaf_label: str, value: Optional[str] = None
    ) -> int:
        """Catalog-statistics estimate of paths ending at ``leaf_label``
        with the given value — no I/O is charged (the optimizer's input)."""
        if value is not None:
            return self.value_counts.get((leaf_label, value), 0)
        return self.value_counts.get((leaf_label, None), 0)

    # ------------------------------------------------------------------
    # Space
    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert self._tree is not None
        db = self.db
        assert db is not None

        def key_size(key) -> int:
            # First component: leaf value; remaining: schema path designators
            # (about one byte per tag with a small dictionary) or a path id.
            total = 0
            for component in key:
                if component[0] == 0:
                    total += 1
                elif component[0] == 1:
                    total += 2 if not self.schema_path_dictionary else 3
                else:
                    total += len(component[1]) + 1
            return total

        def value_size(payload) -> int:
            _labels, ids, _value = payload
            if self.differential_idlists:
                return encoded_size_bytes(present_ids(ids))
            return raw_size_bytes(present_ids(ids))

        size = self._tree.estimated_size_bytes(
            key_size_of=key_size, value_size_of=value_size, prefix_compression=True
        )
        size += db.tags.estimated_size_bytes()
        if self._path_dictionary is not None:
            size += self._path_dictionary.estimated_size_bytes()
        return size
