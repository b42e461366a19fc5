"""Document and database containers for the XML tree model.

A :class:`Document` wraps a single rooted tree.  An :class:`XmlDatabase`
is the forest the paper indexes: it owns the node-id space, the tag
dictionary, and (as in Section 3.3, footnote 4) a *virtual root* that is
the parent of every document root so that the DATAPATHS index can solve
the FreeIndex problem by using the virtual root as the HeadId.

The database is mutable in both directions: :meth:`XmlDatabase.add_document`
numbers a new document at the id watermark, and
:meth:`XmlDatabase.remove_document` detaches one, reclaiming its node-id
span and its tag-dictionary refcounts.  Ids of removed nodes are never
reused — the watermark only grows — so surviving documents keep their
ids and incremental index maintenance can delete exactly the removed
document's rows (see ``docs/ARCHITECTURE.md``, "Mutation and the
generation model").
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from ..errors import DocumentError
from .dictionary import TagDictionary
from .nodes import Node, NodeKind

#: Label used for the virtual root that parents all document roots.
VIRTUAL_ROOT_LABEL = "#root"

#: Node id reserved for the virtual root.
VIRTUAL_ROOT_ID = 0


class Document:
    """A single XML document: one rooted, ordered, labeled tree."""

    def __init__(self, root: Node, name: str = "") -> None:
        if not root.is_structural:
            raise DocumentError("document root must be an element")
        self.root = root
        self.name = name
        #: Half-open node-id span ``[first_id, end_id)`` assigned by
        #: :meth:`XmlDatabase.add_document`; ``None`` until added.
        self.first_id: Optional[int] = None
        self.end_id: Optional[int] = None

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes of the document in document order."""
        return self.root.iter_subtree()

    def iter_structural(self) -> Iterator[Node]:
        """All element and attribute nodes in document order."""
        return (n for n in self.iter_nodes() if n.is_structural)

    def count_nodes(self) -> int:
        """Number of nodes (including value leaves) in the document."""
        return sum(1 for _ in self.iter_nodes())

    def clone(self) -> "Document":
        """A deep, unattached copy of this document's tree.

        Node kinds and labels are copied; ids, parents and depths are
        left for :meth:`XmlDatabase.add_document` to assign, so the
        clone can be added to a *different* database — trees are never
        shared between databases.  The shard tier's replica sets use this
        to write one logical document through to every replica.
        """
        copied_root = Node(self.root.kind, self.root.label)
        stack = [(self.root, copied_root)]
        while stack:
            original, copy = stack.pop()
            for child in original.children:
                stack.append((child, copy.add_child(Node(child.kind, child.label))))
        return Document(copied_root, name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document(name={self.name!r}, root={self.root.label!r})"


class XmlDatabase:
    """The XML database: a forest of documents sharing one id space.

    The database assigns document-order (pre-order, depth-first) numeric
    identifiers to structural nodes, starting at 1, exactly as in
    Figure 1(b) of the paper.  Value nodes receive ids too (they are
    needed by the Edge-table baseline) but ids of value leaves are never
    part of IdLists.

    A virtual root (id 0) parents every document root so paths "starting
    at the root" have a well defined HeadId even across documents.
    """

    def __init__(self) -> None:
        self.virtual_root = Node(NodeKind.ELEMENT, VIRTUAL_ROOT_LABEL, VIRTUAL_ROOT_ID)
        self.documents: list[Document] = []
        self.tags = TagDictionary()
        self._nodes_by_id: dict[int, Node] = {VIRTUAL_ROOT_ID: self.virtual_root}
        self._next_id = 1
        self._removed_count = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_document(self, document: Document) -> Document:
        """Add ``document`` to the database, numbering its nodes.

        Node ids are assigned in document order continuing from the last
        id used by previously added documents.
        """
        document.root.parent = self.virtual_root
        document.root.depth = 1
        self.virtual_root.children.append(document.root)
        document.first_id = self._next_id
        self._renumber(document.root)
        document.end_id = self._next_id
        self.documents.append(document)
        return document

    def skip_ids(self, count: int) -> None:
        """Advance the id watermark by ``count`` without assigning ids.

        Ids are never reused, so to every reader a skipped stretch is
        indistinguishable from ids that once belonged to a removed
        document.  This is what lets a replica re-synced from the live
        documents alone reproduce removal gaps (see
        :meth:`~repro.shard.replica.Shard.revive`): documents added
        after the skip are numbered exactly as the original database
        numbered them.
        """
        if count < 1:
            raise DocumentError(
                f"can only skip a positive id count, got {count}"
            )
        self._next_id += count

    def _renumber(self, root: Node) -> None:
        stack = [root]
        while stack:
            node = stack.pop()
            node.node_id = self._next_id
            self._next_id += 1
            self._nodes_by_id[node.node_id] = node
            if node.is_structural:
                self.tags.acquire(node.label)
            if node.parent is not None and node.parent is not self.virtual_root:
                node.depth = node.parent.depth + 1
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Removal and replacement
    # ------------------------------------------------------------------
    def resolve_document(self, ref: "Union[Document, str]") -> Document:
        """The live document ``ref`` names.

        ``ref`` is either a :class:`Document` currently in the database
        or a document name that identifies exactly one live document.

        Raises
        ------
        DocumentError
            If the document is not in the database, the name is
            unknown, or the name is ambiguous.
        """
        if isinstance(ref, Document):
            if not any(document is ref for document in self.documents):
                raise DocumentError(
                    f"document {ref.name!r} is not part of this database"
                )
            return ref
        matches = [document for document in self.documents if document.name == ref]
        if not matches:
            raise DocumentError(f"no document named {ref!r}")
        if len(matches) > 1:
            raise DocumentError(
                f"document name {ref!r} is ambiguous ({len(matches)} matches); "
                "pass the Document object instead"
            )
        return matches[0]

    def remove_document(self, ref: "Union[Document, str]") -> Document:
        """Detach one document, reclaiming its id span and tag refcounts.

        The document's nodes are dropped from the id map (their ids are
        retired, never reused — the watermark keeps growing), its tags
        are released from the dictionary's live counts, and its root is
        unlinked from the virtual root.  The returned document keeps
        its tree, its node ids and its recorded ``[first_id, end_id)``
        span intact, which is exactly what incremental index
        maintenance needs to delete the rows it once inserted.
        """
        document = self.resolve_document(ref)
        for node in document.iter_nodes():
            self._nodes_by_id.pop(node.node_id, None)
            if node.is_structural:
                self.tags.release(node.label)
        self.virtual_root.children.remove(document.root)
        document.root.parent = None
        self.documents.remove(document)
        self._removed_count += 1
        return document

    def replace_document(
        self, ref: "Union[Document, str]", replacement: Document
    ) -> Document:
        """Remove ``ref`` and add ``replacement`` in its stead.

        The replacement is numbered at the current watermark (fresh
        ids), exactly as if it had been removed and re-added — there is
        no in-place renumbering.  Returns the added replacement.
        """
        self.remove_document(ref)
        return self.add_document(replacement)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Return the node with the given id.

        Raises
        ------
        DocumentError
            If no node with that id exists.
        """
        try:
            return self._nodes_by_id[node_id]
        except KeyError:
            raise DocumentError(f"no node with id {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes_by_id

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes of all documents in document order (virtual root excluded)."""
        for document in self.documents:
            yield from document.iter_nodes()

    def iter_structural(self) -> Iterator[Node]:
        """All element and attribute nodes in document order."""
        return (n for n in self.iter_nodes() if n.is_structural)

    def iter_by_label(self, label: str) -> Iterator[Node]:
        """All structural nodes carrying the given tag or attribute name."""
        return (n for n in self.iter_structural() if n.label == label)

    @property
    def revision(self) -> tuple[int, int, int]:
        """O(1) change fingerprint: (live documents, id watermark, removals).

        Any document addition advances the watermark and any removal
        advances the removal counter, so caches can detect staleness
        without walking the trees.  Index ``1`` (the watermark) is the
        next unassigned node id; the sharded tier reads it directly.
        """
        return (len(self.documents), self._next_id, self._removed_count)

    @property
    def node_count(self) -> int:
        """Number of structural nodes in the database."""
        return sum(1 for _ in self.iter_structural())

    @property
    def value_count(self) -> int:
        """Number of value leaves in the database."""
        return sum(1 for n in self.iter_nodes() if n.is_value)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest structural node (document roots are depth 1)."""
        return max((n.depth for n in self.iter_structural()), default=0)

    def estimated_data_size_bytes(self) -> int:
        """A rough serialized-size estimate of the database.

        Used to report index sizes relative to the data size as the
        paper does in Section 5.2.5 ("1.4 times the data size").
        """
        total = 0
        for node in self.iter_nodes():
            if node.is_value:
                total += len(node.label) + 1
            else:
                # open tag + close tag
                total += 2 * len(node.label) + 5
        return total

    def document_spans(self) -> list[tuple[str, int, int]]:
        """Per-document ``(name, first_id, end_id)`` spans, arrival order.

        :meth:`add_document` numbers each document's nodes contiguously
        (pre-order, continuing from the previous watermark), so every
        document owns one half-open id interval ``[first_id, end_id)``,
        recorded at add time — removals leave the surviving documents'
        spans untouched (their ids never shift), they just drop the
        removed document's span from this list.  The sharded tier uses
        these spans to translate a shard-local id space into the id
        space a single database holding the same documents (in the same
        arrival order) would have assigned, and to scope query answers
        to named documents.
        """
        return [
            (document.name, document.first_id, document.end_id)
            for document in self.documents
        ]

    # ------------------------------------------------------------------
    # Statistics helpers used by the planner and the benches
    # ------------------------------------------------------------------
    def label_counts(self) -> dict[str, int]:
        """Mapping of tag/attribute name to number of occurrences."""
        counts: dict[str, int] = {}
        for node in self.iter_structural():
            counts[node.label] = counts.get(node.label, 0) + 1
        return counts

    def distinct_schema_path_count(self) -> int:
        """Number of distinct root-to-node label paths in the database."""
        seen: set[tuple[str, ...]] = set()
        for node in self.iter_structural():
            seen.add(tuple(node.root_path_labels()))
        return len(seen)


# ----------------------------------------------------------------------
# Programmatic tree construction
# ----------------------------------------------------------------------
class TreeBuilder:
    """A small fluent helper for building trees in code and in tests.

    Example
    -------
    >>> b = TreeBuilder("book")
    >>> b.child("title", text="XML")
    >>> with b.element("author"):
    ...     b.child("fn", text="jane")
    ...     b.child("ln", text="doe")
    >>> doc_root = b.root
    """

    def __init__(self, root_tag: str) -> None:
        self.root = Node(NodeKind.ELEMENT, root_tag)
        self._stack = [self.root]

    @property
    def current(self) -> Node:
        """The element new children are currently appended to."""
        return self._stack[-1]

    def child(self, tag: str, text: Optional[str] = None) -> Node:
        """Append a child element, optionally with a text value leaf."""
        node = self.current.add_child(Node(NodeKind.ELEMENT, tag))
        if text is not None:
            node.add_child(Node(NodeKind.VALUE, text))
        return node

    def attribute(self, name: str, value: str) -> Node:
        """Append an attribute node with its value leaf."""
        node = self.current.add_child(Node(NodeKind.ATTRIBUTE, name))
        node.add_child(Node(NodeKind.VALUE, value))
        return node

    def text(self, value: str) -> Node:
        """Append a text value leaf to the current element."""
        return self.current.add_child(Node(NodeKind.VALUE, value))

    def element(self, tag: str) -> "_BuilderScope":
        """Open a nested element usable as a context manager."""
        node = self.current.add_child(Node(NodeKind.ELEMENT, tag))
        return _BuilderScope(self, node)

    def build(self, name: str = "") -> Document:
        """Finish and return the built document."""
        return Document(self.root, name=name)


class _BuilderScope:
    """Context manager returned by :meth:`TreeBuilder.element`."""

    def __init__(self, builder: TreeBuilder, node: Node) -> None:
        self._builder = builder
        self.node = node

    def __enter__(self) -> Node:
        self._builder._stack.append(self.node)
        return self.node

    def __exit__(self, *exc: object) -> None:
        self._builder._stack.pop()


def build_database(documents: Iterable[Document]) -> XmlDatabase:
    """Convenience constructor: a database from an iterable of documents."""
    db = XmlDatabase()
    for document in documents:
        db.add_document(document)
    return db
