"""An in-memory B+-tree with composite keys, duplicates and prefix scans.

This is the "relational access method" every index in the paper's
family is realised with (Section 3: "we only consider relational
adaptations (using B+-trees)").  The tree supports:

* duplicate keys (an index entry per matching data path),
* exact-match lookups,
* range scans,
* **prefix scans** over composite keys — the operation that lets a
  reversed SchemaPath answer ``//`` (suffix) queries with a single
  lookup (Section 3.2),
* deletion of individual entries and of key ranges (used by the
  update extension),
* logical-I/O accounting via :class:`~repro.storage.stats.StatsCollector`,
* an on-disk size estimate with optional key prefix compression,
  mirroring the paper's note that DB2 prefix-compresses index keys.

Keys handed to the tree are ``bytes`` built by
:func:`repro.storage.keys.encode_key`, whose byte order is component
order, so the tree only ever compares, bisects and slices them; values
are arbitrary Python objects (the library stores tuple row-ids or
packed IdLists).
"""

from __future__ import annotations

import bisect
import itertools
import operator
from typing import Any, Iterable, Iterator, Optional

from ..errors import StorageError
from .keys import EncodedKey, is_prefix, split_key
from .stats import GLOBAL_STATS, StatsCollector

__all__ = ["BPlusTree"]

#: Batches are ordered and grouped by key alone, so equal keys keep batch order.
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
        """Insert one entry; duplicate keys are allowed.

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
        entries one at a time in stable key order would leave — leaves
        about half full after a sorted load, equal keys in batch order,
        one ``btree_writes`` and one leaf ``btree_page_writes`` per
        entry plus a page per split node and new root — and nothing
        about balance beyond that.

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
        """Delete entries with ``key``.

        When ``value`` is given only entries whose value equals it are
        removed; otherwise every entry with the key is removed.  Returns
        the number of entries deleted.  Underfull nodes are not
        rebalanced — deletions here come from incremental index
        maintenance (``remove_document``) and lookups stay correct
        either way; the churn tests pin that every structural invariant
        (leaf chain order, uniform leaf depth, size accounting) holds
        through arbitrary delete/reinsert interleavings.

        Charges ``btree_deletes`` per removed entry (per-entry CPU
        work, the delete-side analogue of ``btree_writes``) plus one
        ``btree_page_writes`` per leaf actually modified — the counters
        :func:`~repro.storage.stats.maintenance_cost` prices.
        """
        leaf = self._find_leaf(key, count=False)
        removed = 0
        while leaf is not None:
            removed_here = 0
            index = bisect.bisect_left(leaf.keys, key)
            while index < len(leaf.keys) and leaf.keys[index] == key:
                if value is None or leaf.values[index] == value:
                    del leaf.keys[index]
                    del leaf.values[index]
                    removed += 1
                    removed_here += 1
                    self._size -= 1
                else:
                    index += 1
            if removed_here:
                self.stats.btree_page_writes += 1  # the modified leaf
            if leaf.keys and leaf.keys[-1] > key:
                break
            leaf = leaf.next
            if leaf is None or (leaf.keys and leaf.keys[0] > key):
                break
        self.stats.btree_deletes += max(removed, 1)
        return removed

    def delete_many(self, entries: Iterable[tuple]) -> list[tuple]:
        """Delete a batch of ``(key, value, ...)`` entries in one pass.

        The batch form of ``delete(key, value)``: entries need not be
        sorted, values must be hashable, and fields after the value
        ride along.  Returns the batch entries that were found, in key
        order, once per tree entry removed — callers read their own
        extra fields back from them to keep per-entry statistics exact.

        The batch is grouped by key and each key's duplicate run is
        walked once, dropping every entry whose value the group holds,
        across leaf boundaries and emptied leaves exactly as
        :meth:`delete` walks it (no rebalancing).  Between keys the
        walk keeps a leaf finger: the next key is larger, so its run
        starts in the leaf the last walk ended in when that leaf's last
        key reaches it; else the next leaf is tried the same way before
        descending again.

        Charges what the per-entry loop charges when no ``(key, value)``
        pair is stored twice (index payloads carry node ids, so none
        is): one ``btree_deletes`` and one leaf ``btree_page_writes`` per
        removed entry, and one ``btree_deletes`` for every batch entry
        that found nothing — one per batch entry in all.
        """
        batch = sorted(entries, key=_entry_key)
        removed: list[tuple] = []
        leaf: Optional[_Leaf] = None
        for key, group in itertools.groupby(batch, _entry_key):
            wanted = {entry[1]: entry for entry in group}
            leaf = self._run_start_leaf(key, leaf)
            while True:
                keys = leaf.keys
                values = leaf.values
                index = bisect.bisect_left(keys, key)
                while index < len(keys) and keys[index] == key:
                    entry = wanted.get(values[index])
                    if entry is None:
                        index += 1
                    else:
                        del keys[index]
                        del values[index]
                        removed.append(entry)
                if keys and keys[-1] > key:
                    break
                following = leaf.next
                if following is None or (following.keys and following.keys[0] > key):
                    break
                leaf = following
        self._size -= len(removed)
        self.stats.btree_deletes += max(len(batch), len(removed))
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

    def _run_start_leaf(self, key: EncodedKey, finger: Optional[_Leaf]) -> _Leaf:
        """Leaf holding the first entry with ``key``, trying ``finger`` first.

        ``finger`` is the leaf where the walk for a smaller key ended,
        so every entry before it sorts below ``key``: the first leaf
        from there on whose last key reaches ``key`` holds the start of
        the key's run if the tree holds the key at all.  The finger and
        its successor are tested before paying for a descent.
        """
        for leaf in (finger, finger.next) if finger is not None else ():
            if leaf is not None and leaf.keys and key <= leaf.keys[-1]:
                return leaf
        return self._find_leaf(key, count=False)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def _find_leaf(self, key: EncodedKey, count: bool = True) -> _Leaf:
        """Leaf that holds the *first* entry with ``key`` (duplicates may
        continue in following leaves).

        The descent uses ``bisect_left`` so that, when a separator equals
        the probe key, the left child — which may hold earlier duplicates
        — is visited first; forward leaf scans then cover the rest.
        """
        node = self._root
        if count:
            self.stats.btree_node_reads += 1
        while isinstance(node, _Internal):
            index = bisect.bisect_left(node.keys, key)
            node = node.children[index]
            if count:
                self.stats.btree_node_reads += 1
        return node

    def search(self, key: EncodedKey) -> list[Any]:
        """All values stored under exactly ``key``."""
        self.stats.index_lookups += 1
        return [value for _, value in self._scan_from(key, lambda k: k == key, key)]

    def scan_prefix(self, prefix: EncodedKey) -> Iterator[tuple[EncodedKey, Any]]:
        """All ``(key, value)`` entries whose key starts with ``prefix``.

        This is the single-lookup suffix match of Section 3.2: probing
        ``(leaf value, reversed subpath...)`` returns every data path
        ending in that subpath.
        """
        self.stats.index_lookups += 1
        yield from self._scan_from(prefix, lambda k: is_prefix(prefix, k), prefix)

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

    def scan_range(
        self, low: EncodedKey, high: EncodedKey, include_high: bool = False
    ) -> Iterator[tuple[EncodedKey, Any]]:
        """Entries with ``low <= key < high`` (or ``<= high`` when asked)."""
        self.stats.index_lookups += 1
        if include_high:
            predicate = lambda k: k <= high  # noqa: E731 - tiny local predicate
        else:
            predicate = lambda k: k < high  # noqa: E731
        yield from self._scan_from(low, predicate, low)

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

    def _scan_from(self, start: EncodedKey, keep, lower_bound: EncodedKey):
        """Scan leaf entries from the first key >= ``lower_bound`` while
        ``keep(key)`` holds."""
        leaf = self._find_leaf(start)
        index = bisect.bisect_left(leaf.keys, lower_bound)
        while True:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                self.stats.btree_entries_scanned += 1
                if not keep(key):
                    return
                yield key, leaf.values[index]
                index += 1
            if leaf.next is None:
                return
            leaf = leaf.next
            self.stats.btree_node_reads += 1
            index = 0

    def count_prefix(self, prefix: EncodedKey) -> int:
        """Number of entries whose key starts with ``prefix``."""
        return sum(1 for _ in self.scan_prefix(prefix))

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
