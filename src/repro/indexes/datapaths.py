"""The DATAPATHS index (Section 3.3).

DATAPATHS is a B+-tree on ``HeadId · LeafValue · ReverseSchemaPath``
over *all* subpaths of root-to-leaf paths, returning the complete
IdList.  It solves both indexing problems of Section 2.3 in one lookup:

* **FreeIndex** — probe with the virtual root as HeadId (footnote 4),
* **BoundIndex** — probe with a concrete node id as HeadId, enabling
  the index-nested-loop join strategy that Section 5.2.3 shows winning
  when one branch is selective and the others are not.

Lossy compression options:

* ``schema_path_dictionary`` (Section 4.2) replaces the reverse schema
  path with an indivisible path id — ``//`` lookups become unsupported;
* ``head_pruner`` (Section 4.3) keeps only rows whose head label is a
  workload branch point (plus the virtual-root rows), shrinking the
  index but disabling BoundIndex probes at other nodes.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..errors import UnsupportedLookupError
from ..paths.compression import HeadIdPruner, SchemaPathDictionary
from ..paths.fourary import iter_datapaths_rows
from ..paths.idlist import encoded_size_bytes, present_ids, raw_size_bytes
from ..storage.btree import BPlusTree
from ..storage.keys import encode_component, encode_key
from ..storage.stats import StatsCollector
from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase
from .base import FamilyDescriptor, KeySuffixMemo, PathIndex, PathMatch, adjust_counts, labels_to_tag_ids


class DataPathsIndex(PathIndex):
    """B+-tree on ``HeadId · LeafValue · ReverseSchemaPath`` over all subpaths."""

    name = "datapaths"
    descriptor = FamilyDescriptor(
        schema_path_subset="all paths",
        id_list_sublist="full IdList",
        indexed_columns=("LeafValue", "HeadId", "reverse SchemaPath"),
    )
    #: ``update()`` inserts the new document's subpath rows in place.
    incremental = True
    #: ``remove()`` deletes the removed document's subpath rows in place.
    incremental_removal = True

    def __init__(
        self,
        stats: Optional[StatsCollector] = None,
        order: int = 128,
        differential_idlists: bool = True,
        schema_path_dictionary: bool = False,
        head_pruner: Optional[HeadIdPruner] = None,
    ) -> None:
        super().__init__(stats)
        self.order = order
        self.differential_idlists = differential_idlists
        self.schema_path_dictionary = schema_path_dictionary
        self.head_pruner = head_pruner
        self._tree: Optional[BPlusTree] = None
        self._path_dictionary = SchemaPathDictionary() if schema_path_dictionary else None
        self._key_suffixes: Optional[KeySuffixMemo] = None
        self.entry_count = 0
        self.pruned_count = 0
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
            db.tags, reverse=True, path_dictionary=self._path_dictionary
        )
        self.entry_count = 0
        self.pruned_count = 0
        self.value_counts = {}
        self._insert_documents(db, db.documents)

    def _update(self, db: XmlDatabase, document) -> None:
        """Incremental insertion of the new document's subpath rows.

        The entry batch of its rows (every (ancestor-or-self head, node)
        pair, plus the virtual-root rows) goes into the tree in one
        finger pass; head pruning, dictionary growth and the catalog
        statistics behave exactly as in a full build.
        """
        self._insert_documents(db, (document,))

    def _remove(self, db: XmlDatabase, document) -> None:
        """Incremental deletion of one removed document's subpath rows.

        Re-enumerates the rows the detached document contributed (it
        keeps its node ids) and deletes their batch in one finger pass;
        pruned rows come off the pruning counter instead, and the
        counters drop by the entries actually found — to what a
        from-scratch build over the remaining documents would count.
        """
        assert self._tree is not None
        batch, pruned = self._entry_batch(db, (document,))
        self.pruned_count -= pruned
        self._count_entries(self._tree.delete_many(batch), -1)

    def _insert_documents(self, db: XmlDatabase, documents) -> None:
        """Build and incremental insert: one entry batch, one tree pass."""
        assert self._tree is not None
        batch, pruned = self._entry_batch(db, documents)
        self.pruned_count += pruned
        self._count_entries(batch, 1)
        self._tree.insert_many(batch)

    def _count_entries(self, entries: list[tuple], sign: int) -> None:
        """Entry counter and virtual-root catalog statistics of a batch."""
        self.entry_count += sign * len(entries)
        adjust_counts(
            self.value_counts,
            (entry[2] for entry in entries if entry[2] is not None),
            sign,
        )

    def _entry_batch(self, db: XmlDatabase, documents) -> tuple[list[tuple], int]:
        """``documents``' rows as ``(key, payload, stat_key)`` entries,
        and how many rows head pruning dropped.

        The one row-to-entry mapping build, insert and delete share.
        The head's label is read from the schema path itself (its first
        component) rather than via ``db.node`` — a removed document's
        head ids are no longer resolvable in the database, but its rows
        must map to exactly the entries they produced at insert time.
        ``stat_key`` is set on virtual-root rows only.  Entries come in
        row order; the tree applies a batch in stable key order, which
        keeps equal keys in row order.
        """
        suffixes = self._key_suffixes
        pruner = self.head_pruner
        batch = []
        pruned = 0
        for head_id, schema_path, leaf_value, id_list in iter_datapaths_rows(
            db, documents=documents
        ):
            stat_key = None
            if head_id == VIRTUAL_ROOT_ID:
                stat_key = (schema_path[-1], leaf_value)
            elif pruner is not None and not pruner.keeps_label(schema_path[0]):
                pruned += 1
                continue
            key = (
                encode_component(head_id),
                encode_component(leaf_value),
            ) + suffixes[schema_path]
            batch.append(
                (key, (schema_path, id_list, leaf_value, head_id), stat_key)
            )
        return batch, pruned

    # ------------------------------------------------------------------
    # FreeIndex lookups
    # ------------------------------------------------------------------
    def free_lookup(
        self,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> Iterator[PathMatch]:
        """FreeIndex probe: subpath matches anywhere, via the virtual root."""
        yield from self.bound_lookup(
            VIRTUAL_ROOT_ID, segment_labels, value=value, anchored=anchored
        )

    # ------------------------------------------------------------------
    # BoundIndex lookups
    # ------------------------------------------------------------------
    def bound_lookup(
        self,
        head_id: int,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> Iterator[PathMatch]:
        """BoundIndex probe: matches of the PCsubpath rooted at ``head_id``.

        ``segment_labels`` are the labels of the subpath *below* the
        head for a concrete head (the head's own label is part of the
        stored schema path and not of the probe), or the full rooted
        labels when ``head_id`` is the virtual root.

        ``anchored`` means the subpath attaches to the head by a chain
        of parent-child edges only (no leading ``//``): the stored
        schema path must then be exactly ``head label + segment`` (or
        the segment itself for virtual-root probes).
        """
        db = self._require_built()
        assert self._tree is not None
        if self.head_pruner is not None and head_id != VIRTUAL_ROOT_ID:
            head_label = db.node(head_id).label
            if not self.head_pruner.keeps_label(head_label):
                raise UnsupportedLookupError(
                    f"DATAPATHS rows headed at {head_label!r} were pruned by the "
                    "workload-based HeadId pruning (Section 4.3)"
                )
        reverse_labels = tuple(reversed(tuple(segment_labels)))
        tag_ids = labels_to_tag_ids(db, reverse_labels)
        if tag_ids is None:
            return
        if self.schema_path_dictionary:
            yield from self._bound_lookup_dictionary(
                head_id, tuple(segment_labels), value, anchored
            )
            return
        expected_length = self._expected_anchored_length(head_id, len(tuple(segment_labels)))
        prefix = encode_key((head_id, value, *tag_ids))
        for _key, payload in self._tree.scan_prefix(prefix):
            labels, ids, leaf_value, row_head = payload
            if anchored and len(labels) != expected_length:
                continue
            yield PathMatch(labels=labels, ids=ids, value=leaf_value, head_id=row_head)

    def free_lookup_payloads(
        self,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> list[tuple]:
        """Batch :meth:`free_lookup` returning raw stored payloads."""
        return self.bound_lookup_payloads(
            VIRTUAL_ROOT_ID, segment_labels, value=value, anchored=anchored
        )

    def bound_lookup_payloads(
        self,
        head_id: int,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> list[tuple]:
        """Batch :meth:`bound_lookup` returning raw stored payloads.

        Payloads are the stored ``(schema_path, ids, leaf_value,
        head_id)`` tuples, consumed by the columnar kernels without
        per-row :class:`~repro.indexes.base.PathMatch` construction.
        Cost counters match a fully consumed :meth:`bound_lookup`
        exactly (same prefix, same batch leaf walk).
        """
        db = self._require_built()
        assert self._tree is not None
        if self.head_pruner is not None and head_id != VIRTUAL_ROOT_ID:
            head_label = db.node(head_id).label
            if not self.head_pruner.keeps_label(head_label):
                raise UnsupportedLookupError(
                    f"DATAPATHS rows headed at {head_label!r} were pruned by the "
                    "workload-based HeadId pruning (Section 4.3)"
                )
        reverse_labels = tuple(reversed(tuple(segment_labels)))
        tag_ids = labels_to_tag_ids(db, reverse_labels)
        if tag_ids is None:
            return []
        if self.schema_path_dictionary:
            return [
                (match.labels, match.ids, match.value, match.head_id)
                for match in self._bound_lookup_dictionary(
                    head_id, tuple(segment_labels), value, anchored
                )
            ]
        prefix = encode_key((head_id, value, *tag_ids))
        items = self._tree.scan_prefix_items(prefix)
        if anchored:
            wanted = self._expected_anchored_length(
                head_id, len(tuple(segment_labels))
            )
            return [
                payload for _key, payload in items if len(payload[0]) == wanted
            ]
        return [payload for _key, payload in items]

    def _expected_anchored_length(self, head_id: int, segment_length: int) -> int:
        if head_id == VIRTUAL_ROOT_ID:
            return segment_length
        return segment_length + 1

    def _bound_lookup_dictionary(
        self,
        head_id: int,
        segment_labels: tuple[str, ...],
        value: Optional[str],
        anchored: bool,
    ) -> Iterator[PathMatch]:
        assert self._tree is not None and self._path_dictionary is not None
        if not anchored:
            raise UnsupportedLookupError(
                "SchemaPath dictionary compression cannot answer '//' lookups"
            )
        db = self._require_built()
        if head_id == VIRTUAL_ROOT_ID:
            full_path = segment_labels
        else:
            full_path = (db.node(head_id).label,) + segment_labels
        path_id = self._path_dictionary.id_of(full_path)
        if path_id is None:
            return
        key = encode_key((head_id, value, path_id))
        for payload in self._tree.search(key):
            labels, ids, leaf_value, row_head = payload
            yield PathMatch(labels=labels, ids=ids, value=leaf_value, head_id=row_head)

    # ------------------------------------------------------------------
    def count_bound(
        self,
        head_id: int,
        segment_labels: Sequence[str],
        value: Optional[str] = None,
        anchored: bool = False,
    ) -> int:
        """Number of BoundIndex matches (mainly for tests)."""
        return sum(1 for _ in self.bound_lookup(head_id, segment_labels, value, anchored))

    def estimate_matches(self, leaf_label: str, value: Optional[str] = None) -> int:
        """Catalog estimate of FreeIndex matches ending at ``leaf_label``."""
        return self.value_counts.get((leaf_label, value), 0)

    # ------------------------------------------------------------------
    # Space
    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert self._tree is not None
        db = self.db
        assert db is not None

        def key_size(key) -> int:
            total = 0
            for index, component in enumerate(key):
                if component[0] == 0:
                    total += 1
                elif component[0] == 1:
                    # HeadId is a 4-byte id; schema path components are
                    # short designators (or a path id under compression).
                    total += 4 if index == 0 else 2
                else:
                    total += len(component[1]) + 1
            return total

        def value_size(payload) -> int:
            _labels, ids, _value, _head = payload
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
