"""Base classes and shared result types for the XML path index family.

Section 3.1 defines the family over the 4-ary relation
``(HeadId, SchemaPath, LeafValue, IdList)``: an index in the family
chooses (1) a subset of schema paths to store, (2) a sublist of the
IdList to return, and (3) which columns to index.  Figure 3 lists the
members; :class:`FamilyDescriptor` captures that row of the figure for
each implementation so the framework itself is inspectable at runtime.

Every concrete index implements :class:`PathIndex`:

* ``build(db)`` — construct the index from an :class:`XmlDatabase`,
* ``update(db, document)`` — absorb one newly added document; indexes
  that support true incremental insertion (ROOTPATHS, DATAPATHS, Edge,
  DataGuide) extend their structures in place, the rest fall back to a
  full rebuild (the default ``_update``),
* ``remove(db, document)`` — forget one just-removed document; the same
  four indexes delete exactly the rows the document contributed
  (IdList shrink, exact catalog-statistic decrements), the rest fall
  back to a full rebuild over the post-removal database (the default
  ``_remove``),
* ``estimated_size_bytes()`` — the space number reported in Figure 9,
* index-specific lookup methods used by the evaluation strategies in
  :mod:`repro.planner.strategies`.

ROOTPATHS, DATAPATHS and DataGuide map a set of documents to one *entry
batch* — the ``(key, payload, stat_key)`` list of their rows, keys ending
in a :class:`KeySuffixMemo` suffix — and hand it to
``BPlusTree.insert_many`` (build, update) or ``delete_many`` (remove).

See ``docs/ARCHITECTURE.md`` ("Indexes") for how the maintenance family
fits the serving stack.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..errors import IndexNotBuiltError
from ..paths.compression import SchemaPathDictionary
from ..paths.schema_paths import LabelPath
from ..storage.keys import EncodedKey, encode_key
from ..storage.stats import GLOBAL_STATS, PAGE_READ_WEIGHT, StatsCollector
from ..xmltree.document import Document, XmlDatabase

#: Per-lookup descent charge assumed for an index that cannot report a
#: tree height (a shallow three-level tree), in weighted-cost currency.
DEFAULT_DESCENT_COST = 3 * PAGE_READ_WEIGHT


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
    def build(self, db: XmlDatabase) -> "PathIndex":
        """Build the index over ``db`` and return ``self``."""
        self.db = db
        self._build(db)
        self._built = True
        return self

    @abc.abstractmethod
    def _build(self, db: XmlDatabase) -> None:
        """Index-specific construction.

        Implementations must reset any per-build state (entry counters,
        statistics, auxiliary dictionaries) at the start, because a
        rebuild — including the fall-back path of :meth:`update` —
        reuses the same index object.
        """

    # ------------------------------------------------------------------
    def update(self, db: XmlDatabase, document: Document) -> "PathIndex":
        """Absorb one document that was just added to ``db``.

        ``document`` must already be part of ``db`` (its nodes carry
        their final ids).  Indexes with ``incremental = True`` insert
        exactly the rows the new document contributes — B+-tree inserts
        of its path/edge keys, IdList extension, tag-dictionary growth
        for labels first seen here; the rest fall back to the default
        ``_update``, a full rebuild over the whole database.  Either
        way the index answers queries over the post-add snapshot when
        this returns.
        """
        self._require_built()
        self.db = db
        self._update(db, document)
        return self

    def _update(self, db: XmlDatabase, document: Document) -> None:
        """Index-specific maintenance; the default is a full rebuild."""
        self.build(db)

    # ------------------------------------------------------------------
    def remove(self, db: XmlDatabase, document: Document) -> "PathIndex":
        """Forget one document that was just removed from ``db``.

        ``document`` must already be detached from ``db`` but keep its
        tree and node ids (exactly what
        :meth:`~repro.xmltree.document.XmlDatabase.remove_document`
        returns).  Indexes with ``incremental_removal = True`` delete
        exactly the rows the document once contributed, with catalog
        statistics decremented to what a from-scratch build over the
        remaining documents would count; the rest fall back to the default
        ``_remove``, a full rebuild over the post-removal database.
        Either way the index answers queries over the post-removal
        snapshot when this returns.
        """
        self._require_built()
        self.db = db
        self._remove(db, document)
        return self

    def _remove(self, db: XmlDatabase, document: Document) -> None:
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


class KeySuffixMemo(dict):
    """``schema_path -> encoded key suffix`` for the life of one tree.

    Every B+-tree-backed index ends its keys with the schema path as
    tag ids (reversed for ROOTPATHS and DATAPATHS, Section 3.2) or, under
    Section 4.2 compression, with the whole path's dictionary id.  A
    document repeats a few hundred distinct (sub)paths thousands of
    times, so the encoded suffix is assembled once per path and shared
    by every key that ends in it.

    Tag ids and path ids are positional and never reassigned (a fully
    released tag keeps its id), so an entry stays valid as long as the
    tree it was made for: an index makes a new memo in ``_build`` and
    never evicts from it.  Its size is bounded by the number of
    distinct (sub)paths of the schema, not by traffic.
    """

    def __init__(
        self,
        tags,
        reverse: bool = True,
        path_dictionary: Optional[SchemaPathDictionary] = None,
    ) -> None:
        super().__init__()
        self._tags = tags
        self._reverse = reverse
        self._path_dictionary = path_dictionary

    def __missing__(self, schema_path: LabelPath) -> EncodedKey:
        if self._path_dictionary is not None:
            components: tuple = (self._path_dictionary.intern(schema_path),)
        else:
            labels = reversed(schema_path) if self._reverse else schema_path
            components = self._tags.path_ids(labels)
        suffix = self[schema_path] = encode_key(components)
        return suffix


def adjust_counts(counts: dict, stat_keys: Iterable, sign: int) -> None:
    """Add ``sign`` to ``counts`` once per occurrence in ``stat_keys``.

    The catalog statistics of an entry batch: new keys are appended in
    first-seen order and a key whose count reaches zero is dropped, so
    after any churn ``counts`` is what a from-scratch build over the
    remaining documents would hold.
    """
    for stat_key, occurrences in Counter(stat_keys).items():
        total = counts.get(stat_key, 0) + sign * occurrences
        if total > 0:
            counts[stat_key] = total
        else:
            counts.pop(stat_key, None)


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
