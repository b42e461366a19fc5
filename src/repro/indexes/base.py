"""Base classes and shared result types for the XML path index family.

Section 3.1 defines the family over the 4-ary relation
``(HeadId, SchemaPath, LeafValue, IdList)``: an index in the family
chooses (1) a subset of schema paths to store, (2) a sublist of the
IdList to return, and (3) which columns to index.  Figure 3 lists the
members; :class:`FamilyDescriptor` captures that row of the figure for
each implementation so the framework itself is inspectable at runtime.

Every concrete index implements :class:`PathIndex`:

* ``build(db)`` — construct the index from an :class:`XmlDatabase`,
* ``update(db, document)`` / ``remove(db, document)`` — absorb one
  added or forget one removed document: ROOTPATHS, DATAPATHS, Edge and
  DataGuide insert or delete exactly its rows, the rest fall back to a
  full rebuild (the default ``_update`` / ``_remove``),
* ``estimated_size_bytes()`` — the space number reported in Figure 9,
* index-specific lookup methods used by the evaluation strategies in
  :mod:`repro.planner.strategies`.

ROOTPATHS, DATAPATHS and DataGuide are entry-batch indexes
(:class:`EntryBatchIndex`): a pure *derive* step turns documents into
one key-sorted :class:`EntryBatch`, and an *apply* step, the only one
that touches the tree and the counters, takes it in.  Build, update
and remove are each apply(derive(...)); a replica set derives every
write once, on its primary, and each secondary applies the same batch
(the ``batches`` argument of ``build`` / ``update`` / ``remove``).

See ``docs/ARCHITECTURE.md`` ("Indexes") for how the maintenance family
fits the serving stack.
"""

from __future__ import annotations

import abc
import copy
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from ..errors import DocumentError, IndexNotBuiltError
from ..paths.compression import SchemaPathDictionary
from ..paths.idlist import encoded_size_bytes, present_ids, raw_size_bytes
from ..paths.schema_paths import LabelPath
from ..storage.btree import BPlusTree
from ..storage.keys import EncodedKey, encode_component, encode_key, exact_prefix, row_key
from ..storage.stats import GLOBAL_STATS, PAGE_READ_WEIGHT, StatsCollector
from ..xmltree.document import Document, XmlDatabase
from ..xmltree.nodes import NodeKind

#: Per-lookup descent charge assumed for an index that cannot report a
#: tree height (a shallow three-level tree), in weighted-cost currency.
DEFAULT_DESCENT_COST = 3 * PAGE_READ_WEIGHT

#: Entry batches sort by key alone; payloads need not compare.
_entry_key = operator.itemgetter(0)
_NO_VALUE = encode_component(None)


@dataclass(frozen=True)
class FamilyDescriptor:
    """One row of Figure 3: how an index instantiates the framework."""

    schema_path_subset: str
    id_list_sublist: str
    indexed_columns: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (
            f"paths={self.schema_path_subset}; ids={self.id_list_sublist}; "
            f"indexed={', '.join(self.indexed_columns)}"
        )


@dataclass(frozen=True)
class PathMatch:
    """One data path returned by an index lookup.

    ``labels`` is the forward schema path of the matched row and
    ``ids`` the node ids aligned with it.  For ROOTPATHS rows the path
    starts at the document root; for DATAPATHS BoundIndex rows it starts
    at the head node (head label included, head id excluded — the ids
    tuple is then one shorter than the labels tuple and callers use
    :meth:`id_at` which accounts for the offset).
    """

    labels: tuple[str, ...]
    ids: tuple[int, ...]
    value: Optional[str] = None
    head_id: Optional[int] = None

    @property
    def tail_id(self) -> int:
        """Id of the node at the end of the path."""
        return self.ids[-1]

    def id_at(self, label_position: int) -> Optional[int]:
        """Node id at a label position (``None`` for the head of a
        DATAPATHS row, whose id is ``head_id``)."""
        offset = len(self.labels) - len(self.ids)
        index = label_position - offset
        if index < 0:
            return self.head_id
        return self.ids[index]


class PathIndex(abc.ABC):
    """Abstract base class for every index in the family."""

    #: Short name used by the registry, the benches and the figures.
    name: str = "abstract"
    #: The Figure 3 row for this index.
    descriptor: FamilyDescriptor = FamilyDescriptor("-", "-", ())
    #: True when :meth:`update` inserts the new document's keys in place;
    #: False when it falls back to a full rebuild (the base ``_update``).
    incremental: bool = False
    #: True when :meth:`remove` deletes the removed document's keys in
    #: place; False when it falls back to a full rebuild (``_remove``).
    incremental_removal: bool = False

    def __init__(self, stats: Optional[StatsCollector] = None) -> None:
        self.stats = stats if stats is not None else GLOBAL_STATS
        self._built = False
        self.db: Optional[XmlDatabase] = None

    # ------------------------------------------------------------------
    # ``batches``: one write's entry batches by index name, shared by its
    # replicas (:class:`EntryBatchIndex`); other indexes ignore it.
    # ------------------------------------------------------------------
    def build(self, db: XmlDatabase, batches: Optional[dict] = None) -> "PathIndex":
        """Build the index over ``db`` and return ``self``."""
        self.db = db
        self._build(db, batches)
        self._built = True
        return self

    @abc.abstractmethod
    def _build(self, db: XmlDatabase, batches: Optional[dict]) -> None:
        """Index-specific construction.

        Implementations must reset any per-build state (entry counters,
        statistics, auxiliary dictionaries) at the start, because a
        rebuild — including the fall-back path of :meth:`update` —
        reuses the same index object.
        """

    # ------------------------------------------------------------------
    def update(self, db: XmlDatabase, document: Document, batches: Optional[dict] = None) -> "PathIndex":
        """Absorb one document just added to ``db`` (its nodes carry their final ids).

        Indexes with ``incremental = True`` insert exactly the rows it
        contributes; the rest fall back to ``_update``, a full rebuild.
        Either way the index answers over the post-add snapshot.
        """
        self._require_built()
        self.db = db
        self._update(db, document, batches)
        return self

    def _update(self, db: XmlDatabase, document: Document, batches: Optional[dict]) -> None:
        """Index-specific maintenance; the default is a full rebuild."""
        self.build(db)

    # ------------------------------------------------------------------
    def remove(self, db: XmlDatabase, document: Document, batches: Optional[dict] = None) -> "PathIndex":
        """Forget one document just detached from ``db``, ids and tree kept
        (what :meth:`~repro.xmltree.document.XmlDatabase.remove_document` returns).

        Indexes with ``incremental_removal = True`` delete exactly the
        rows it contributed, catalog statistics included; the rest fall
        back to ``_remove``, a full rebuild.  Either way the index
        answers over the post-removal snapshot.
        """
        self._require_built()
        self.db = db
        self._remove(db, document, batches)
        return self

    def _remove(self, db: XmlDatabase, document: Document, batches: Optional[dict]) -> None:
        """Index-specific removal; the default is a full rebuild."""
        self.build(db)

    def _require_built(self) -> XmlDatabase:
        if not self._built or self.db is None:
            raise IndexNotBuiltError(f"{self.name} index has not been built")
        return self.db

    @property
    def is_built(self) -> bool:
        """True once :meth:`build` has completed."""
        return self._built

    # ------------------------------------------------------------------
    def lookup_descent_cost(self) -> int:
        """Weighted cost of one lookup's descent into this index.

        Expressed in the :func:`~repro.storage.stats.weighted_cost`
        currency (page reads x weight), with no I/O charged — the
        optimizer's per-probe charge when ranking strategies against
        each other.  Indexes backed by a B+-tree in ``self._tree``
        report their actual height; others assume a shallow tree.
        """
        height = getattr(getattr(self, "_tree", None), "height", None)
        if height is not None:
            return max(1, height) * PAGE_READ_WEIGHT
        return DEFAULT_DESCENT_COST

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimated_size_bytes(self) -> int:
        """Approximate on-disk size (drives the Figure 9 experiment)."""

    def estimated_size_mb(self) -> float:
        """Size in megabytes (the unit of Figure 9)."""
        return self.estimated_size_bytes() / (1024.0 * 1024.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "built" if self._built else "empty"
        return f"{type(self).__name__}({status})"


class _PathNode:
    """A :class:`PathTrie` path: its subpath and key suffix per head offset."""

    def __init__(self, subpaths: tuple) -> None:
        self.labels, self.subpaths = subpaths[0] if subpaths else (), subpaths
        self.suffixes: list = [None] * len(subpaths)
        self.branches: dict[str, _PathNode] = {}


class PathTrie:
    """A tree's distinct rooted schema paths as a trie, for derive.

    As in a DataGuide (Goldman & Widom), a path is reached from its
    parent by label.  A document repeats a few hundred paths thousands
    of times, so what depends on the path alone is made once per trie
    node: its label tuples, shared by every payload of the tree, and
    each subpath's key suffix — tag ids, reversed for ROOTPATHS and
    DATAPATHS (Section 3.2), or the Section 4.2 path id, interned when a
    stored row first needs it, so path ids keep first-seen row order.
    Tag and path ids are never reassigned: the trie is made with the
    tree, never evicts, and is bounded by the schema, not by traffic.
    """

    def __init__(self, tags, reverse: bool = True, path_dictionary: Optional[SchemaPathDictionary] = None):
        self._tags = tags
        self._reverse = reverse
        self._path_dictionary = path_dictionary
        self._tuples: dict[LabelPath, LabelPath] = {}
        self._root = _PathNode(())

    def suffix(self, path: _PathNode, start: int) -> EncodedKey:
        """The key suffix of ``path``'s subpath at head offset ``start``."""
        subpath = path.subpaths[start]
        if self._path_dictionary is not None:
            components: tuple = (self._path_dictionary.intern(subpath),)
        else:
            components = self._tags.path_ids(reversed(subpath) if self._reverse else subpath)
        suffix = path.suffixes[start] = encode_key(components)
        return suffix

    def walk(self, documents: Sequence[Document], heads: bool = False):
        """``(path, ids, tail, heads, values)`` per structural node in
        document order: its trie node, root-to-node ids, the end every
        key of its rows shares (a row key with no components), with
        ``heads`` its ancestors-or-self's encoded ids, and ``{value:
        encoded value}`` for ``None`` and then its distinct leaf values."""
        value_kind = NodeKind.VALUE
        intern = self._tuples.setdefault
        for document in documents:
            stack = [(document.root, self._root, (), ())]
            while stack:
                node, parent, ids, encoded = stack.pop()
                path = parent.branches.get(node.label)
                if path is None:
                    labels = parent.labels + (node.label,)
                    path = parent.branches[node.label] = _PathNode(
                        tuple(intern(labels[start:], labels[start:]) for start in range(len(labels)))
                    )
                ids += (node.node_id,)
                if heads:
                    encoded += (encode_component(node.node_id),)
                values, children = {None: _NO_VALUE}, []
                for child in node.children:
                    if child.kind is not value_kind:
                        children.append(child)
                    elif child.label not in values:
                        values[child.label] = encode_component(child.label)
                yield path, ids, row_key(b"", node.node_id), encoded, values
                for child in reversed(children):
                    stack.append((child, path, ids, encoded))


class EntryBatch(NamedTuple):
    """One write's derived entries, applied alike by every replica.

    ``entries``: ``(key, payload, stat_key)`` in stable key order, bytes
    keys and tuple-of-atom payloads, never mutated, so replicas share
    them.  A removal deletes them after the key range ``head_range``.
    ``ids``: the tag and path ids assigned before the derive, which an
    applying index must match; ``paths``: the path ids it assigned.
    """

    entries: list
    removal: bool = False
    head_range: Optional[tuple[EncodedKey, EncodedKey]] = None
    pruned: int = 0
    ids: tuple = ()
    paths: tuple = ()


class EntryBatchIndex(PathIndex):
    """An index kept as one B+-tree of entry batches.

    Build, update and remove are each :meth:`apply` of :meth:`derive`,
    which maps rows to entries with the subclass's :meth:`_entry_batch`
    (and :meth:`_removal_batch`).
    """

    incremental = True
    incremental_removal = True
    #: Key suffixes read the schema path backwards (Section 3.2).
    reverse_schema_path = True
    #: Key suffixes are whole-path ids (Section 4.2).
    schema_path_dictionary = False

    def __init__(self, stats: Optional[StatsCollector] = None, order: int = 128) -> None:
        super().__init__(stats)
        self.order = order
        self._tree: Optional[BPlusTree] = None
        self._path_dictionary: Optional[SchemaPathDictionary] = None
        self._paths: Optional[PathTrie] = None
        self.entry_count = 0
        self.pruned_count = 0
        #: Entries per ``stat_key`` in first-seen order: the catalog
        #: statistics, or the DataGuide's skeleton.
        self.stat_counts: dict = {}

    def _build(self, db: XmlDatabase, batches: Optional[dict]) -> None:
        self._tree = BPlusTree(order=self.order, stats=self.stats, name=self.name)
        self._path_dictionary = SchemaPathDictionary() if self.schema_path_dictionary else None
        self._paths = PathTrie(db.tags, self.reverse_schema_path, self._path_dictionary)
        self.entry_count = self.pruned_count = 0
        self.stat_counts = {}
        self.apply(self._shared(db, batches, lambda: self.derive(db, db.documents)))

    def _update(self, db: XmlDatabase, document: Document, batches: Optional[dict]) -> None:
        self.apply(self._shared(db, batches, lambda: self.derive(db, (document,))))

    def _remove(self, db: XmlDatabase, document: Document, batches: Optional[dict]) -> None:
        self.apply(self._shared(db, batches, lambda: self.derive(db, (document,), removal=True)))

    def _assigned_ids(self, db: XmlDatabase) -> tuple[int, int]:
        return len(db.tags), len(self._path_dictionary or ())

    def _shared(self, db: XmlDatabase, batches: Optional[dict], derive) -> EntryBatch:
        """``derive()``, or the batch a replica before this one derived and
        recorded in ``batches``: that one only while both assigned the
        same ids before it, or this replica diverged and raises."""
        if batches is None:
            return derive()
        batch = batches.get(self.name)
        if batch is None:
            batch = batches[self.name] = derive()
        elif batch.ids != self._assigned_ids(db):
            raise DocumentError(
                f"{self.name} diverged: tag and path ids {self._assigned_ids(db)} "
                f"!= {batch.ids} where the batch was derived"
            )
        return batch

    def derive(self, db: XmlDatabase, documents: Sequence[Document], removal: bool = False) -> EntryBatch:
        """The pure step: ``documents``' entries as one key-sorted batch.

        Touches neither the tree nor the counters, only the dictionaries
        keys are spelt in, and records the path ids it assigned.
        """
        ids = self._assigned_ids(db)
        if removal:
            (document,) = documents
            batch = self._removal_batch(db, document)
        else:
            entries, pruned = self._entry_batch(db, documents)
            batch = EntryBatch(entries, pruned=pruned)
        batch.entries.sort(key=_entry_key)
        dictionary = self._path_dictionary
        paths = dictionary.paths_since(ids[1]) if dictionary is not None else ()
        return batch._replace(ids=ids, paths=paths)

    def apply(self, batch: EntryBatch) -> None:
        """The only step that touches the tree and the counters.

        One tree pass; ``entry_count`` and :attr:`stat_counts` move by
        the entries inserted or actually found (a count reaching zero
        is dropped), so after any churn they are what a from-scratch
        build over the remaining documents counts.
        """
        assert self._tree is not None
        for path in batch.paths:
            self._path_dictionary.intern(path)
        sign = -1 if batch.removal else 1
        if batch.removal:
            if batch.head_range is not None:
                self.entry_count -= self._tree.delete_range(*batch.head_range)
            applied = self._tree.delete_many(batch.entries)
        else:
            self._tree.insert_many(batch.entries)
            applied = batch.entries
        self.pruned_count += sign * batch.pruned
        self.entry_count += sign * len(applied)
        counts = self.stat_counts
        for stat_key, occurrences in Counter(entry[2] for entry in applied if entry[2] is not None).items():
            total = counts.get(stat_key, 0) + sign * occurrences
            if total > 0:
                counts[stat_key] = total
            else:
                counts.pop(stat_key, None)

    @abc.abstractmethod
    def _entry_batch(self, db: XmlDatabase, documents: Sequence[Document]) -> tuple[list, int]:
        """``documents``' rows as ``(key, payload, stat_key)`` entries in
        row order, and how many rows head pruning dropped."""

    def _removal_batch(self, db: XmlDatabase, document: Document) -> EntryBatch:
        """What deletes ``document``'s entries: by default all of them."""
        entries, pruned = self._entry_batch(db, (document,))
        return EntryBatch(entries, removal=True, pruned=pruned)

    def _idlist_size_bytes(self, key_size) -> int:
        """Figure 9 size of a tree of IdList payloads (ROOTPATHS, DATAPATHS),
        with the dictionaries its keys are spelt in."""
        db = self._require_built()
        assert self._tree is not None
        encoded = encoded_size_bytes if self.differential_idlists else raw_size_bytes
        size = self._tree.estimated_size_bytes(
            key_size_of=key_size,
            value_size_of=lambda payload: encoded(present_ids(payload[1])),
            prefix_compression=True,
        )
        size += db.tags.estimated_size_bytes()
        if self._path_dictionary is not None:
            size += self._path_dictionary.estimated_size_bytes()
        return size

    def copy_for(self, db: XmlDatabase, stats: StatsCollector) -> "EntryBatchIndex":
        """This built index as another replica's over ``db`` (same tag ids):
        the shared entries in a node-for-node copy of the tree, copies of
        the counters and the path dictionary, and a trie of its own."""
        assert self._tree is not None
        twin = copy.copy(self)
        twin.stats, twin.db = stats, db
        twin._tree = self._tree.copy(stats)
        twin._path_dictionary = copy.deepcopy(self._path_dictionary)
        twin._paths = PathTrie(db.tags, self.reverse_schema_path, twin._path_dictionary)
        twin.stat_counts = dict(self.stat_counts)
        return twin


def rows_with_key(tree: BPlusTree, components: Sequence) -> list:
    """The values of every row whose logical key is ``components``, in
    tail-id order: one prefix scan of the terminated key."""
    return [value for _key, value in tree.scan_prefix_items(exact_prefix(encode_key(components)))]


def labels_to_tag_ids(db: XmlDatabase, labels: Sequence[str]) -> Optional[tuple[int, ...]]:
    """Translate a label path to tag ids, ``None`` when a label is unknown.

    Unknown labels mean the query path cannot match anything in the
    database, so callers treat ``None`` as an empty result.
    """
    ids = []
    for label in labels:
        tag_id = db.tags.id_of(label)
        if tag_id is None:
            return None
        ids.append(tag_id)
    return tuple(ids)
