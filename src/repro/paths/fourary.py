"""Enumeration of the 4-ary relational representation of data paths.

Section 3.1 represents every data path of the XML database as a row
``(HeadId, SchemaPath, LeafValue, IdList)``:

* ``HeadId`` — id of the node the data path starts at,
* ``SchemaPath`` — the label sequence along the path (head label included),
* ``LeafValue`` — the string value when the path is extended to a leaf,
  else ``NULL``,
* ``IdList`` — the node ids along the path *excluding* the head
  (Figure 2), or — in the ROOTPATHS adaptation where the head column is
  dropped — including the root (Figure 4).

This module provides generators for both adaptations:

* :func:`iter_rootpaths_rows` — rows for root-to-node path prefixes
  (Figure 4), used by the Index Fabric and ASR baselines,
* :func:`iter_datapaths_rows` — rows for *all* subpaths, one per
  (ancestor-or-self head, node) pair (Figure 5), used by Join-Index.

Each yielded :class:`PathRow` carries the forward schema path; callers
reverse it when building keys.  ROOTPATHS, DATAPATHS and DataGuide
derive these rows per node (:class:`~repro.indexes.base.PathTrie`).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase
from ..xmltree.nodes import Node
from .schema_paths import LabelPath, iter_rooted_nodes


class PathRow(NamedTuple):
    """One row of the 4-ary relation (forward schema path).

    A named tuple: an index batch enumerates thousands of rows per
    document and unpacks each one.
    """

    head_id: int
    schema_path: LabelPath
    leaf_value: Optional[str]
    id_list: tuple[int, ...]

    @property
    def tail_id(self) -> int:
        """Id of the last node on the path (the node the row describes)."""
        return self.id_list[-1] if self.id_list else self.head_id


def iter_rootpaths_rows(db: XmlDatabase, include_values: bool = True) -> Iterator[PathRow]:
    """Rows for every root-to-node path prefix (Figure 4 adaptation).

    ``HeadId`` is the virtual root for every row (and therefore not
    interesting); ``IdList`` contains the full path from the document
    root down to the node.  For each node with value children a second
    row per distinct value is emitted with ``LeafValue`` set.
    """
    for node, labels, ids in iter_rooted_nodes(db.documents):
        yield PathRow(VIRTUAL_ROOT_ID, labels, None, ids)
        if include_values:
            for value in _node_values(node):
                yield PathRow(VIRTUAL_ROOT_ID, labels, value, ids)


def iter_datapaths_rows(db: XmlDatabase, include_values: bool = True) -> Iterator[PathRow]:
    """Rows for every subpath of every root-to-leaf path (Figure 5).

    For every structural node ``d`` and every ancestor-or-self head
    ``h`` of ``d``, one row is emitted whose schema path runs from ``h``
    to ``d`` (head label included) and whose IdList contains the ids
    strictly below ``h`` down to ``d``.  Additionally, rows with the
    virtual root as head reproduce the ROOTPATHS rows so a single
    DATAPATHS index also solves the FreeIndex problem (Section 3.3,
    footnote 4).
    """
    for node, labels, ids in iter_rooted_nodes(db.documents):
        values = _node_values(node) if include_values else []
        # Head = virtual root: schema path from the document root.
        yield PathRow(VIRTUAL_ROOT_ID, labels, None, ids)
        for value in values:
            yield PathRow(VIRTUAL_ROOT_ID, labels, value, ids)
        # Heads at every ancestor-or-self position.
        for start in range(len(ids)):
            head_id = ids[start]
            sub_labels = labels[start:]
            sub_ids = ids[start + 1 :]
            yield PathRow(head_id, sub_labels, None, sub_ids)
            for value in values:
                yield PathRow(head_id, sub_labels, value, sub_ids)


def _node_values(node: Node) -> list[str]:
    """Distinct leaf values directly below ``node`` (usually zero or one)."""
    values: list[str] = []
    for child in node.children:
        if child.is_value and child.label not in values:
            values.append(child.label)
    return values


def distinct_schema_paths(db: XmlDatabase) -> list[LabelPath]:
    """All distinct rooted schema paths in the database, in first-seen order.

    The paper cites 235 distinct schema paths for DBLP and 902 for
    XMark (Section 4.2); this is the path set the DataGuide, ASR and
    Join-Index structures enumerate.
    """
    return list(dict.fromkeys(labels for _node, labels, _ids in iter_rooted_nodes(db.documents)))
