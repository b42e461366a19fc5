"""Columnar encodings: interned paths, delta codecs, node columns.

Three pieces, all shared by the join/filter kernels:

* :class:`PathInterner` — a tiny append-only dictionary mapping schema
  paths (label tuples) to dense integer ids, stable for the lifetime of
  the interner; :class:`NodeColumns` stores its ``pathids`` through one.
* :func:`encode_id_column` / :func:`decode_id_column` — the batch delta
  codec for id columns.  Columns are stored as first-difference gaps and
  decompressed in one :func:`itertools.accumulate` pass on access,
  mirroring the IdList differential encoding of Section 4.1 at column
  granularity.
* :class:`NodeColumns` — the node table flattened into parallel
  ``array('q')`` columns (preorder id, subtree end, level, parent id,
  interned path id) with lazily built per-label position indexes.  The
  columnar matcher runs its structural joins over these arrays instead
  of walking :class:`~repro.xmltree.nodes.Node` objects.

:class:`BranchExtractor` is the strategies' payload-to-row kernel: it
maps raw index payloads (schema path, id tuple) to join rows for a
branch's needed twig-node positions, memoising the placement arithmetic
per schema path so :func:`~repro.paths.schema_paths.match_positions`
runs once per distinct path instead of once per matched row.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from ..paths.schema_paths import PathPattern, match_positions
from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase


class PathInterner:
    """Append-only schema-path dictionary: label tuple <-> dense int id."""

    def __init__(self) -> None:
        self._ids: dict[tuple[str, ...], int] = {}
        self._paths: list[tuple[str, ...]] = []

    def intern(self, path: tuple[str, ...]) -> int:
        """Id of ``path``, assigning the next dense id on first sight."""
        pid = self._ids.get(path)
        if pid is None:
            pid = len(self._paths)
            self._ids[path] = pid
            self._paths.append(path)
        return pid

    def id_of(self, path: tuple[str, ...]) -> Optional[int]:
        """Id of ``path`` if already interned, else ``None``."""
        return self._ids.get(path)

    def path_of(self, pid: int) -> tuple[str, ...]:
        """The path interned under ``pid``."""
        return self._paths[pid]

    def __len__(self) -> int:
        return len(self._paths)


# ----------------------------------------------------------------------
# Batch delta codec
# ----------------------------------------------------------------------
def encode_id_column(values: Iterable[int]) -> array:
    """Delta-encode an id stream into an ``array('q')`` of gaps."""
    gaps = array("q")
    previous = 0
    for value in values:
        gaps.append(value - previous)
        previous = value
    return gaps


def decode_id_column(gaps: array) -> array:
    """Batch-decompress a gap column back into absolute ids."""
    return array("q", accumulate(gaps))


# ----------------------------------------------------------------------
# Payload-to-row extraction
# ----------------------------------------------------------------------
class BranchExtractor:
    """Turn raw index payloads into join rows for one twig branch.

    A payload is the stored B+-tree value ``(schema_path, ids, ...)``
    (ROOTPATHS) or ``(schema_path, ids, value, head_id)`` (DATAPATHS
    bound rows, ``bound=True``).  Every placement of the pattern in a
    payload's schema path yields one row of the needed positions' ids —
    skipping rows with a ``None`` from a pruned IdList and honouring the
    :meth:`~repro.indexes.base.PathMatch.id_at` head offset, exactly as
    the per-row ``PathMatch`` producer in ``tests/oracle_legacy.py`` —
    but :func:`match_positions` runs once per distinct schema path:
    placements are memoised per schema path as pre-mapped
    needed-position tuples.  The memo is a function of the pattern and
    the labels alone, so an extractor shared by concurrent shard legs
    only ever sees a slot filled with the value any other leg would
    have computed.
    """

    def __init__(
        self,
        pattern: PathPattern,
        needed_positions: Sequence[int],
        exact: bool,
        bound: bool = False,
    ) -> None:
        self.pattern = pattern
        self.needed_positions = tuple(needed_positions)
        self.exact = exact
        self.bound = bound
        #: schema path -> tuple of pre-mapped position tuples
        self._placements: dict[tuple[str, ...], tuple[tuple[int, ...], ...]] = {}

    def rows(self, payloads: Iterable[tuple]) -> list[tuple]:
        """Join rows (needed-node id tuples) for a payload batch."""
        needed = self.needed_positions
        bound = self.bound
        out: list[tuple] = []
        append = out.append
        if self.exact:
            for payload in payloads:
                labels = payload[0]
                ids = payload[1]
                offset = len(labels) - len(ids)
                if offset == 0:
                    row = tuple(ids[p] for p in needed)
                else:
                    head = payload[3] if bound else None
                    row = tuple(
                        head if p < offset else ids[p - offset] for p in needed
                    )
                if None not in row:
                    append(row)
            return out
        cache = self._placements
        pattern = self.pattern
        for payload in payloads:
            labels = payload[0]
            mapped = cache.get(labels)
            if mapped is None:
                mapped = cache[labels] = tuple(
                    tuple(placement[p] for p in needed)
                    for placement in match_positions(pattern, labels)
                )
            if not mapped:
                continue
            ids = payload[1]
            offset = len(labels) - len(ids)
            if offset == 0:
                for positions in mapped:
                    row = tuple(ids[p] for p in positions)
                    if None not in row:
                        append(row)
            else:
                head = payload[3] if bound else None
                for positions in mapped:
                    row = tuple(
                        head if p < offset else ids[p - offset] for p in positions
                    )
                    if None not in row:
                        append(row)
        return out


# ----------------------------------------------------------------------
# Node columns
# ----------------------------------------------------------------------
class NodeColumns:
    """The structural node table as parallel flat integer columns.

    One entry per structural node (element or attribute), in global
    preorder — ascending node id.  Columns:

    ``ids``
        preorder node ids, stored delta-encoded and batch-decompressed
        on first access (:func:`decode_id_column`);
    ``ends``
        the maximum node id in each node's subtree, so descendant
        containment is the interval test ``ids[a] < ids[d] <= ends[a]``
        (ids are assigned preorder and never reused, and document spans
        are disjoint);
    ``levels`` / ``parents``
        node depth and parent node id (``VIRTUAL_ROOT_ID`` for document
        roots);
    ``pathids``
        the node's root-to-node schema path interned through a
        :class:`PathInterner`.

    Per-label position indexes and per-``(label, value)`` candidate
    lists are built lazily and memoised; instances are cached on the
    database keyed by its revision (see :meth:`for_database`).
    """

    def __init__(self, db: XmlDatabase) -> None:
        self.db = db
        self.interner = PathInterner()
        gaps = array("q")
        ends = array("q")
        levels = array("q")
        parents = array("q")
        pathids = array("q")
        labels: list[str] = []
        root_positions = array("q")
        #: position -> labels of the node's value children (only stored
        #: for nodes that have any; most positions are absent).
        values: dict[int, tuple[str, ...]] = {}
        previous = 0
        position = 0
        intern = self.interner.intern
        for document in db.documents:
            root = document.root
            subtree_end = _subtree_ends(root)
            root_positions.append(position)
            stack = [(root, VIRTUAL_ROOT_ID, ())]
            while stack:
                node, parent_id, path = stack.pop()
                path = path + (node.label,)
                node_id = node.node_id
                gaps.append(node_id - previous)
                previous = node_id
                ends.append(subtree_end[id(node)])
                levels.append(node.depth)
                parents.append(parent_id)
                pathids.append(intern(path))
                labels.append(node.label)
                value_labels = tuple(c.label for c in node.children if c.is_value)
                if value_labels:
                    values[position] = value_labels
                position += 1
                for child in reversed(node.children):
                    if child.is_structural:
                        stack.append((child, node_id, path))
        self._gaps = gaps
        self._ids: Optional[array] = None
        self.ends = ends
        self.levels = levels
        self.parents = parents
        self.pathids = pathids
        self.labels = labels
        self.values = values
        self.root_positions = root_positions
        self._by_label: Optional[dict[str, array]] = None
        self._candidates: dict[tuple[str, Optional[str]], array] = {}

    # ------------------------------------------------------------------
    @classmethod
    def for_database(cls, db: XmlDatabase) -> "NodeColumns":
        """Columns for ``db``, cached on the database per revision."""
        cached = getattr(db, "_kernel_columns", None)
        revision = db.revision
        if cached is not None and cached[0] == revision:
            return cached[1]
        columns = cls(db)
        db._kernel_columns = (revision, columns)
        return columns

    def __len__(self) -> int:
        return len(self._gaps)

    @property
    def ids(self) -> array:
        """Preorder node ids (batch-decompressed from the gap column)."""
        if self._ids is None:
            self._ids = decode_id_column(self._gaps)
        return self._ids

    # ------------------------------------------------------------------
    def positions_of_label(self, label: str) -> array:
        """Sorted positions of nodes labeled ``label``."""
        by_label = self._by_label
        if by_label is None:
            by_label = {}
            for position, node_label in enumerate(self.labels):
                column = by_label.get(node_label)
                if column is None:
                    column = array("q")
                    by_label[node_label] = column
                column.append(position)
            self._by_label = by_label
        return by_label.get(label, _EMPTY)

    def candidates(self, label: str, value: Optional[str]) -> array:
        """Sorted positions matching a twig node's label/value test."""
        if value is None:
            return self.positions_of_label(label)
        key = (label, value)
        cached = self._candidates.get(key)
        if cached is None:
            values = self.values
            cached = array(
                "q",
                (
                    p
                    for p in self.positions_of_label(label)
                    if value in values.get(p, ())
                ),
            )
            self._candidates[key] = cached
        return cached


_EMPTY = array("q")


def _subtree_ends(root) -> dict[int, int]:
    """Max node id in every subtree under ``root`` (value nodes included).

    Iterative two-pass (preorder collect, reverse fold) so degenerate
    chain documents never hit the recursion limit.
    """
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    ends: dict[int, int] = {}
    for node in reversed(order):
        end = node.node_id
        for child in node.children:
            child_end = ends[id(child)]
            if child_end > end:
                end = child_end
        ends[id(node)] = end
    return ends
