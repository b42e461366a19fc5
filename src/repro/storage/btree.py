"""An in-memory B+-tree over unique composite keys, with prefix scans.

This is the "relational access method" every index in the paper's
family is realised with (Section 3: "we only consider relational
adaptations (using B+-trees)").  The tree supports:

* exact-match lookups,
* **prefix scans** over composite keys — the operation that lets a
  reversed SchemaPath answer ``//`` (suffix) queries with a single
  lookup (Section 3.2),
* deletion of entry batches and of key ranges (used by the update
  extension),
* logical-I/O accounting via :class:`~repro.storage.stats.StatsCollector`,
* an on-disk size estimate with optional key prefix compression,
  mirroring the paper's note that DB2 prefix-compresses index keys.

Keys handed to the tree are ``bytes`` built by
:mod:`repro.storage.keys`, whose byte order is component order, so the
tree only ever compares, bisects and slices them.  Every stored key is
unique: it ends in its row's tail id (:func:`~repro.storage.keys.row_key`),
as a relational index tells rows with equal columns apart by row id, so
the rows of one logical key are one prefix scan.  Values are arbitrary
Python objects (the library stores tuple row-ids or packed IdLists).
"""

from __future__ import annotations

import bisect
import operator
from typing import Any, Iterable, Iterator, Optional

from ..errors import StorageError
from .keys import EncodedKey, split_key
from .stats import GLOBAL_STATS, StatsCollector

__all__ = ["BPlusTree"]

#: Batches sort by key alone; fields after it need not compare.
_entry_key = operator.itemgetter(0)


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[EncodedKey] = []
        self.values: list[Any] = []
        self.next: Optional[_Leaf] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # keys[i] is the smallest key in children[i + 1]
        self.keys: list[EncodedKey] = []
        self.children: list[Any] = []


class BPlusTree:
    """B+-tree keyed by encoded composite keys.

    Parameters
    ----------
    order:
        Maximum number of entries per node.  The default (128) models a
        few-KB page of small composite keys.
    stats:
        Counter sink; defaults to the module-global collector.
    name:
        Identifier used in ``repr`` and error messages.
    """

    def __init__(
        self,
        order: int = 128,
        stats: Optional[StatsCollector] = None,
        name: str = "btree",
    ) -> None:
        if order < 4:
            raise StorageError("B+-tree order must be at least 4")
        self.order = order
        self.stats = stats if stats is not None else GLOBAL_STATS
        self.name = name
        self._root: Any = _Leaf()
        self._height = 1
        self._size = 0

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels from root to leaves (a single leaf is height 1)."""
        return self._height

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BPlusTree(name={self.name!r}, entries={self._size}, height={self._height})"

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: EncodedKey, value: Any) -> None:
        """Insert one entry under a key the tree does not hold yet.

        Charges one ``btree_writes`` (per-entry CPU work) plus
        ``btree_page_writes`` at page granularity: the leaf the entry
        lands in, one page per node created by a split, and the new
        root when the tree grows — the write-side counters priced by
        :func:`~repro.storage.stats.maintenance_cost`.
        """
        self.stats.btree_writes += 1
        self.stats.btree_page_writes += 1  # the leaf holding the new entry
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root = _Internal()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
            self.stats.btree_page_writes += 1  # the new root page
        self._size += 1

    def insert_many(self, entries: Iterable[tuple]) -> None:
        """Insert a batch of ``(key, value, ...)`` entries in one pass.

        The loader and the batch form of :meth:`insert`: entries need
        not be sorted, and fields after the value are ignored.  What it
        guarantees is the tree and the counters that inserting the
        entries one at a time in key order would leave — leaves about
        half full after a sorted load, one ``btree_writes`` and one leaf
        ``btree_page_writes`` per entry plus a page per split node and
        new root — and nothing about balance beyond that.

        It gets there with a leaf finger instead of a descent per
        entry: the next key (never smaller than the last) belongs in
        the current leaf as long as it sorts below the smallest
        separator to the right of the descent path, and goes in place
        while the leaf has room.  A full leaf is handed to
        :meth:`insert`, which splits it, and the finger is found again.
        """
        order = self.order
        leaf = high = None
        in_place = 0
        for entry in sorted(entries, key=_entry_key):
            key = entry[0]
            if leaf is None or (high is not None and key >= high):
                leaf, high = self._insertion_leaf(key)
            keys = leaf.keys
            if len(keys) >= order:
                self.insert(key, entry[1])
                leaf = None
                continue
            if not keys or key >= keys[-1]:
                keys.append(key)
                leaf.values.append(entry[1])
            else:
                index = bisect.bisect_right(keys, key)
                keys.insert(index, key)
                leaf.values.insert(index, entry[1])
            in_place += 1
        self._size += in_place
        self.stats.btree_writes += in_place
        self.stats.btree_page_writes += in_place  # each entry's leaf

    def _insertion_leaf(self, key: EncodedKey) -> tuple[_Leaf, Optional[EncodedKey]]:
        """The leaf :meth:`insert` would put ``key`` in, and its upper bound.

        The bound is the smallest separator to the right of the descent
        path (``None`` on the tree's right edge): every key from ``key``
        up to it descends to the same leaf.  Separators only tighten
        with depth, so the deepest one seen is the smallest.
        """
        node = self._root
        high = None
        while isinstance(node, _Internal):
            index = bisect.bisect_right(node.keys, key)
            if index < len(node.keys):
                high = node.keys[index]
            node = node.children[index]
        return node, high

    def _insert(self, node: Any, key: EncodedKey, value: Any):
        if isinstance(node, _Leaf):
            index = bisect.bisect_right(node.keys, key)
            node.keys.insert(index, key)
            node.values.insert(index, value)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        index = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[index], key, value)
        if split is not None:
            separator, right = split
            node.keys.insert(index, separator)
            node.children.insert(index + 1, right)
            if len(node.children) > self.order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        self.stats.btree_page_writes += 1  # the newly allocated right leaf
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        self.stats.btree_page_writes += 1  # the newly allocated right node
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1 :]
        right.children = node.children[middle + 1 :]
        node.keys = node.keys[:middle]
        node.children = node.children[: middle + 1]
        return separator, right

    def copy(self, stats: Optional[StatsCollector] = None) -> "BPlusTree":
        """A node-for-node copy sharing the (immutable) keys and values,
        charged one ``btree_page_writes`` per node: unlike a fresh load,
        it keeps this tree's leaf boundaries, emptied leaves and height."""
        twin = type(self)(self.order, stats, self.name)
        twin._height, twin._size = self._height, self._size
        leaves: list[_Leaf] = []

        def copied(node: Any) -> Any:
            twin.stats.btree_page_writes += 1  # the node's page, written once
            clone = type(node)()
            clone.keys = list(node.keys)
            if isinstance(node, _Leaf):
                clone.values = list(node.values)
                leaves.append(clone)
            else:
                clone.children = [copied(child) for child in node.children]
            return clone

        twin._root = copied(self._root)
        for leaf, following in zip(leaves, leaves[1:]):
            leaf.next = following
        return twin

    # ------------------------------------------------------------------
    # Deletion (entry-level; used by the maintenance extension)
    # ------------------------------------------------------------------
    def delete(self, key: EncodedKey, value: Any = None) -> int:
        """Delete the entry with ``key``; return 1, or 0 when there is none.

        ``value`` is not read (keys are unique); it keeps the signature
        of the duplicate-key tree.  Charged as :meth:`delete_many` of one.
        """
        return len(self.delete_many(((key, value),)))

    def delete_many(self, entries: Iterable[tuple]) -> list[tuple]:
        """Delete a batch of ``(key, ...)`` entries in one pass.

        Entries need not be sorted, and fields after the key ride along:
        returns the batch entries whose key the tree held, in key order,
        so callers read their own extra fields back from them to keep
        per-entry statistics exact.  Underfull nodes are not rebalanced
        — lookups stay correct either way, and the churn tests pin that
        every structural invariant (leaf chain order, uniform leaf
        depth, size accounting) holds through arbitrary interleavings.

        The sorted batch is merged against the leaf chain with a finger:
        every entry before the finger leaf sorts below the next key, so
        that key belongs to the finger leaf, or else to its successor,
        when the leaf's last key reaches it; only then does it descend.

        Charges one ``btree_deletes`` per batch entry (per-entry CPU
        work, the delete-side analogue of ``btree_writes``) and one leaf
        ``btree_page_writes`` per entry removed — the counters
        :func:`~repro.storage.stats.maintenance_cost` prices.
        """
        batch = sorted(entries, key=_entry_key)
        removed: list[tuple] = []
        leaf: Optional[_Leaf] = None
        for entry in batch:
            key = entry[0]
            leaf = self._finger_leaf(key, leaf)
            keys = leaf.keys
            index = bisect.bisect_left(keys, key)
            if index < len(keys) and keys[index] == key:
                del keys[index]
                del leaf.values[index]
                removed.append(entry)
        self._size -= len(removed)
        self.stats.btree_deletes += len(batch)
        self.stats.btree_page_writes += len(removed)  # each removed entry's leaf
        return removed

    def delete_range(self, low: EncodedKey, high: EncodedKey) -> int:
        """Delete every entry with ``low <= key < high``; return how many.

        One descent to ``low``'s leaf, then one slice per leaf along the
        chain until a key reaches ``high``.  Leaves the tree that
        :meth:`delete_many` over exactly those entries leaves — emptied
        leaves stay in the chain, separators and height are untouched,
        nothing is rebalanced — and charges what it charges: one
        ``btree_deletes`` and one leaf ``btree_page_writes`` per removed
        entry, nothing for an empty range.
        """
        removed = 0
        leaf: Optional[_Leaf] = self._find_leaf(low, count=False) if low < high else None
        while leaf is not None:
            keys = leaf.keys
            start = bisect.bisect_left(keys, low)
            end = bisect.bisect_left(keys, high, start)
            if end > start:
                del keys[start:end]
                del leaf.values[start:end]
                removed += end - start
            if start < len(keys):  # what is left from ``start`` on is >= high
                break
            leaf = leaf.next
        self._size -= removed
        self.stats.btree_deletes += removed
        self.stats.btree_page_writes += removed  # each removed entry's leaf
        return removed

    def _finger_leaf(self, key: EncodedKey, finger: Optional[_Leaf]) -> _Leaf:
        """The leaf ``key`` belongs in: ``finger`` or its successor when
        that leaf's last key reaches ``key``, else a descent's."""
        for leaf in (finger, finger.next) if finger is not None else ():
            if leaf is not None and leaf.keys and key <= leaf.keys[-1]:
                return leaf
        return self._find_leaf(key, count=False)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _find_leaf(self, key: EncodedKey, count: bool = True) -> _Leaf:
        """The leaf ``key`` belongs in; a separator is its right child's
        smallest key, so equal keys descend right."""
        node = self._root
        if count:
            self.stats.btree_node_reads += 1
        while isinstance(node, _Internal):
            node = node.children[bisect.bisect_right(node.keys, key)]
            if count:
                self.stats.btree_node_reads += 1
        return node

    def search(self, key: EncodedKey) -> list[Any]:
        """The value stored under exactly ``key``, as a list of at most one.

        A point lookup on a whole stored key: one descent and one entry
        examined.  The rows of a logical key are a prefix scan of
        :func:`~repro.storage.keys.exact_prefix`.
        """
        self.stats.index_lookups += 1
        self.stats.btree_entries_scanned += 1
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return [leaf.values[index]]
        return []

    def scan_prefix(self, prefix: EncodedKey) -> Iterator[tuple[EncodedKey, Any]]:
        """All ``(key, value)`` entries whose key starts with ``prefix``.

        This is the single-lookup suffix match of Section 3.2: probing
        ``(leaf value, reversed subpath...)`` returns every data path
        ending in that subpath.  Charged as :meth:`scan_prefix_items`
        once fully consumed.
        """
        stats = self.stats
        stats.index_lookups += 1
        leaf = self._find_leaf(prefix)
        index = bisect.bisect_left(leaf.keys, prefix)
        length = len(prefix)
        while True:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                stats.btree_entries_scanned += 1
                if key[:length] != prefix:
                    return
                yield key, leaf.values[index]
                index += 1
            if leaf.next is None:
                return
            leaf = leaf.next
            stats.btree_node_reads += 1
            index = 0

    def scan_prefix_items(self, prefix: EncodedKey) -> list[tuple[EncodedKey, Any]]:
        """Materialised :meth:`scan_prefix` with identical cost accounting.

        The columnar kernels consume whole lookup results at once; this
        batch variant walks the same leaves and charges exactly the
        counters the generator would when fully consumed — one
        ``index_lookups``, the descent's ``btree_node_reads``, one
        ``btree_entries_scanned`` per entry examined (including the
        first non-matching one) and one ``btree_node_reads`` per leaf
        hop — without a generator resumption per entry.
        """
        stats = self.stats
        stats.index_lookups += 1
        leaf = self._find_leaf(prefix)
        index = bisect.bisect_left(leaf.keys, prefix)
        length = len(prefix)
        scanned = 0
        out: list[tuple[EncodedKey, Any]] = []
        append = out.append
        while True:
            keys = leaf.keys
            values = leaf.values
            count = len(keys)
            while index < count:
                key = keys[index]
                scanned += 1
                if key[:length] != prefix:
                    stats.btree_entries_scanned += scanned
                    return out
                append((key, values[index]))
                index += 1
            if leaf.next is None:
                stats.btree_entries_scanned += scanned
                return out
            leaf = leaf.next
            stats.btree_node_reads += 1
            index = 0

    def scan_all(self) -> Iterator[tuple[EncodedKey, Any]]:
        """Every entry in key order (a full index scan)."""
        self.stats.index_lookups += 1
        node = self._root
        self.stats.btree_node_reads += 1
        while isinstance(node, _Internal):
            node = node.children[0]
            self.stats.btree_node_reads += 1
        leaf: Optional[_Leaf] = node
        while leaf is not None:
            for key, value in zip(leaf.keys, leaf.values):
                self.stats.btree_entries_scanned += 1
                yield key, value
            leaf = leaf.next
            if leaf is not None:
                self.stats.btree_node_reads += 1

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------
    def estimated_size_bytes(
        self,
        key_size_of=None,
        value_size_of=None,
        prefix_compression: bool = False,
        entry_overhead: int = 8,
        node_overhead: int = 64,
    ) -> int:
        """Approximate on-disk size of the index.

        Parameters
        ----------
        key_size_of / value_size_of:
            Callables mapping an entry's key components (the
            :func:`~repro.storage.keys.split_key` tuples) / value to a
            byte count.  Defaults assume 8 bytes per key component and
            per value.
        prefix_compression:
            When true, a key is charged only for the components in which
            it differs from the previous key in order, modelling the
            prefix compression of indexed columns the paper relies on
            for space efficiency (Section 3.1).
        """
        if key_size_of is None:
            key_size_of = lambda key: 8 * len(key)  # noqa: E731
        if value_size_of is None:
            value_size_of = lambda value: 8  # noqa: E731

        total = 0
        previous_key: Optional[tuple] = None
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: Optional[_Leaf] = node
        leaves = 0
        while leaf is not None:
            leaves += 1
            for encoded, value in zip(leaf.keys, leaf.values):
                key = split_key(encoded)
                if prefix_compression and previous_key is not None:
                    common = 0
                    for a, b in zip(previous_key, key):
                        if a != b:
                            break
                        common += 1
                    charged = key[common:]
                    total += key_size_of(charged)
                else:
                    total += key_size_of(key)
                total += value_size_of(value) + entry_overhead
                previous_key = key
            leaf = leaf.next
        # Internal levels: roughly entries / order separators per level.
        internal_nodes = 0
        level_nodes = max(leaves, 1)
        while level_nodes > 1:
            level_nodes = max(1, (level_nodes + self.order - 1) // self.order)
            internal_nodes += level_nodes
        total += (leaves + internal_nodes) * node_overhead
        return total
