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
from ..paths.compression import HeadIdPruner
from ..storage.keys import encode_component, encode_key
from ..storage.stats import StatsCollector
from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase
from .base import EntryBatch, EntryBatchIndex, FamilyDescriptor, PathMatch, labels_to_tag_ids, rows_with_key

_VIRTUAL_ROOT = encode_component(VIRTUAL_ROOT_ID)


class DataPathsIndex(EntryBatchIndex):
    """B+-tree on ``HeadId · LeafValue · ReverseSchemaPath`` over all subpaths."""

    name = "datapaths"
    descriptor = FamilyDescriptor(
        schema_path_subset="all paths",
        id_list_sublist="full IdList",
        indexed_columns=("LeafValue", "HeadId", "reverse SchemaPath"),
    )

    def __init__(
        self,
        stats: Optional[StatsCollector] = None,
        order: int = 128,
        differential_idlists: bool = True,
        schema_path_dictionary: bool = False,
        head_pruner: Optional[HeadIdPruner] = None,
    ) -> None:
        super().__init__(stats, order)
        self.differential_idlists = differential_idlists
        self.schema_path_dictionary = schema_path_dictionary
        self.head_pruner = head_pruner

    @property
    def value_counts(self) -> dict[tuple[str, Optional[str]], int]:
        """Virtual-root paths per ``(leaf label, leaf value)``."""
        return self.stat_counts

    # ------------------------------------------------------------------
    # Derivation (the tree and counters are maintained by ``apply``)
    # ------------------------------------------------------------------
    def _entry_batch(self, db: XmlDatabase, documents, bound: bool = True) -> tuple[list[tuple], int]:
        """``documents``' rows as ``(key, payload, stat_key)`` entries in
        row order, and how many rows head pruning dropped.

        The virtual-root rows and, when ``bound``, every (ancestor-or-self
        head, node) pair's; ``stat_key`` is set on virtual-root rows only.
        A node's rows share its trie path's label tuples and key suffixes
        and its encoded ids and values.
        """
        trie = self._paths
        keeps = self.head_pruner.keeps_label if self.head_pruner is not None else None
        batch = []
        append = batch.append
        pruned = 0
        for path, ids, tail, heads, values in trie.walk(documents, heads=bound):
            labels, suffixes = path.labels, path.suffixes
            leaves = values.items()
            suffix = (suffixes[0] or trie.suffix(path, 0)) + tail
            for value, lead in leaves:
                append((_VIRTUAL_ROOT + lead + suffix, (labels, ids, value, VIRTUAL_ROOT_ID), (labels[-1], value)))
            if not bound:
                if keeps is not None:
                    pruned += len(leaves) * sum(not keeps(name) for name in labels)
                continue
            for start, head in enumerate(heads):
                if keeps is not None and not keeps(labels[start]):
                    pruned += len(leaves)
                    continue
                suffix = (suffixes[start] or trie.suffix(path, start)) + tail
                subpath, head_id, below = path.subpaths[start], ids[start], ids[start + 1 :]
                for value, lead in leaves:
                    append((head + lead + suffix, (subpath, below, value, head_id), None))
        return batch, pruned

    def _removal_batch(self, db: XmlDatabase, document) -> EntryBatch:
        """One removed document's rows: a key range and the virtual-root rows.

        Ids are never reused, so the document's id span ``[first_id,
        end_id)`` holds every row headed inside it: one ``HeadId`` key
        range.  Only its virtual-root rows are derived; each one's
        schema path lists the real heads above and at its node, so the
        rows head pruning dropped are counted off those labels.
        """
        entries, pruned = self._entry_batch(db, (document,), bound=False)
        head_range = (encode_component(document.first_id), encode_component(document.end_id))
        return EntryBatch(entries, removal=True, head_range=head_range, pruned=pruned)

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
        for payload in rows_with_key(self._tree, (head_id, value, path_id)):
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

        return self._idlist_size_bytes(key_size)
