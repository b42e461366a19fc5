"""The Edge table baseline with Lore-style value / link indices.

The paper assumes XML data is stored in an Edge table [Florescu &
Kossmann] and compares against the most useful indices reported there
and in Lore's query optimizer work (Section 5.1.2):

* **value index** — ``(tag, value)``  -> element/attribute id,
* **tag index** — ``tag`` -> element/attribute id (used when a query
  step carries no value condition),
* **forward link index** — ``(parent id, tag)`` -> child id,
* **backward (reverse) link index** — ``child id`` -> parent id.

Evaluating a path of length *k* with these indices requires a join per
step, which is exactly why the Edge strategy degrades with path length
and predicate unselectivity in Figures 11-13.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..storage.btree import BPlusTree
from ..storage.heap import HeapFile
from ..storage.keys import encode_key, row_key
from ..storage.stats import StatsCollector
from ..xmltree.document import VIRTUAL_ROOT_ID, VIRTUAL_ROOT_LABEL, XmlDatabase
from .base import FamilyDescriptor, PathIndex, rows_with_key


class EdgeIndex(PathIndex):
    """Edge table + value, tag, forward-link and backward-link B+-trees."""

    name = "edge"
    descriptor = FamilyDescriptor(
        schema_path_subset="paths of length 1",
        id_list_sublist="only last ID",
        indexed_columns=("HeadId", "SchemaPath", "LeafValue"),
    )
    #: ``update()`` appends the new document's edges in place.
    incremental = True
    #: ``remove()`` deletes the removed document's edges in place.
    incremental_removal = True

    def __init__(self, stats: Optional[StatsCollector] = None, order: int = 128) -> None:
        super().__init__(stats)
        self.order = order
        self.heap: Optional[HeapFile] = None
        self._value_index: Optional[BPlusTree] = None
        self._tag_index: Optional[BPlusTree] = None
        self._forward_index: Optional[BPlusTree] = None
        self._backward_index: Optional[BPlusTree] = None
        self.edge_count = 0

    # ------------------------------------------------------------------
    def _build(self, db: XmlDatabase, batches: Optional[dict]) -> None:
        self.heap = HeapFile(stats=self.stats, name="edge_table")
        self._value_index = BPlusTree(self.order, self.stats, "edge_value")
        self._tag_index = BPlusTree(self.order, self.stats, "edge_tag")
        self._forward_index = BPlusTree(self.order, self.stats, "edge_forward")
        self._backward_index = BPlusTree(self.order, self.stats, "edge_backward")
        self.edge_count = 0
        for node in db.iter_structural():
            self._insert_node(node)

    def _update(self, db: XmlDatabase, document, batches: Optional[dict]) -> None:
        """Incremental insertion: one Edge-table row (plus the value,
        tag and link index entries) per structural node of the new
        document — the per-edge layout makes Edge the cheapest index to
        maintain."""
        for node in document.iter_structural():
            self._insert_node(node)

    def _remove(self, db: XmlDatabase, document, batches: Optional[dict]) -> None:
        """Incremental deletion of one removed document's edges.

        Every structural node's tag, value and link index entries are
        deleted by the exact keys :meth:`_insert_node` produced, one
        ``delete_many`` per tree, and the document's heap rows —
        contiguous, because adds append in document order — are
        filtered out of the pages its id span touches.
        """
        assert self.heap is not None
        doomed: dict[BPlusTree, list] = {}
        for node in document.iter_structural():
            for tree, key, _value in self._entries(node, document):
                doomed.setdefault(tree, []).append((key,))
            self.edge_count -= 1
        for tree, entries in doomed.items():
            tree.delete_many(entries)
        first_id, end_id = document.first_id, document.end_id
        self.heap.delete_where(lambda row: first_id <= row[1] < end_id)

    def _parent_edge(self, node, document=None):
        """The ``(parent_id, parent_label)`` an Edge row records.

        A document root's parent is the database's virtual root at
        insert time; after removal the root is detached (``parent is
        None``), so the virtual-root identity is reconstructed instead
        of read from the tree.
        """
        parent = node.parent
        if parent is not None:
            return parent.node_id, parent.label
        if document is not None and node is document.root:
            return VIRTUAL_ROOT_ID, VIRTUAL_ROOT_LABEL
        return None, None

    def _insert_node(self, node) -> None:
        """Append one structural node's Edge row and index entries."""
        assert self.heap is not None
        parent_id, parent_label = self._parent_edge(node)
        self.heap.append((parent_id, node.node_id, node.label, node.first_value()))
        self.edge_count += 1
        for tree, key, value in self._entries(node):
            tree.insert(key, value)

    def _entries(self, node, document=None):
        """One structural node's ``(tree, key, value)`` index entries, each
        key ending in the node's id."""
        assert (
            self._value_index is not None
            and self._tag_index is not None
            and self._forward_index is not None
            and self._backward_index is not None
        )
        parent_id, parent_label = self._parent_edge(node, document)
        value = node.first_value()
        node_id = node.node_id
        yield self._tag_index, row_key(encode_key((node.label,)), node_id), node_id
        if value is not None:
            yield self._value_index, row_key(encode_key((node.label, value)), node_id), node_id
        if parent_id is not None:
            yield self._forward_index, row_key(encode_key((parent_id, node.label)), node_id), node_id
            yield self._backward_index, row_key(encode_key((node_id,)), node_id), (parent_id, parent_label)

    # ------------------------------------------------------------------
    # Lookup primitives used by the Edge / DG+Edge / IF+Edge strategies
    # ------------------------------------------------------------------
    def nodes_with_value(self, label: str, value: str) -> list[int]:
        """Ids of nodes labelled ``label`` whose direct value equals ``value``."""
        self._require_built()
        assert self._value_index is not None
        return rows_with_key(self._value_index, (label, value))

    def nodes_with_label(self, label: str) -> list[int]:
        """Ids of nodes labelled ``label`` (the tag index)."""
        self._require_built()
        assert self._tag_index is not None
        return rows_with_key(self._tag_index, (label,))

    def parent_of(self, node_id: int) -> Optional[tuple[int, str]]:
        """``(parent id, parent label)`` via the backward link index."""
        self._require_built()
        assert self._backward_index is not None
        results = rows_with_key(self._backward_index, (node_id,))
        return results[0] if results else None

    def children_of(self, node_id: int, label: str) -> list[int]:
        """Child ids with a given tag via the forward link index."""
        self._require_built()
        assert self._forward_index is not None
        return rows_with_key(self._forward_index, (node_id, label))

    def ancestors_of(self, node_id: int) -> Iterator[tuple[int, str]]:
        """Walk the backward links to the root, yielding ``(id, label)``.

        Each step is an index probe; recursive (``//``) steps through
        the Edge table cost one probe per ancestor level, which is what
        makes the Edge approach unattractive for recursion.
        """
        current = node_id
        while True:
            parent = self.parent_of(current)
            if parent is None:
                return
            yield parent
            current = parent[0]

    def value_of(self, node_id: int) -> Optional[str]:
        """Direct value of a node, fetched from the Edge heap row."""
        db = self._require_built()
        return db.node(node_id).first_value()

    # ------------------------------------------------------------------
    def estimated_size_bytes(self) -> int:
        self._require_built()
        assert (
            self.heap is not None
            and self._value_index is not None
            and self._tag_index is not None
            and self._forward_index is not None
            and self._backward_index is not None
        )

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

        total = self.heap.estimated_size_bytes()
        for tree in (
            self._value_index,
            self._tag_index,
            self._forward_index,
            self._backward_index,
        ):
            total += tree.estimated_size_bytes(
                key_size_of=key_size, prefix_compression=True
            )
        return total
