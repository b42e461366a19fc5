"""Twig patterns, their root-to-leaf paths, and PCsubpath decomposition.

A :class:`TwigPattern` wraps the root :class:`~repro.query.ast.TwigNode`
and designates an *output node* (the last trunk step of the original
XPath expression — e.g. ``author`` in
``/book[title='XML']//author[fn='jane' and ln='doe']``).

For index-based evaluation a twig is decomposed into
:class:`PathQuery` objects, one per root-to-leaf twig path.  A
:class:`PathQuery` carries:

* a :class:`~repro.paths.schema_paths.PathPattern` (label segments
  separated by ``//`` gaps, anchored when the twig is absolute),
* the optional leaf-value equality condition,
* the twig nodes aligned with the pattern labels, so that strategies
  can map matched label positions back to twig nodes (and therefore to
  branch points and the output node).

This is exactly the covering-by-PCsubpaths idea of Section 2.2/2.3: a
``PathQuery`` whose pattern has a single segment *is* a PCsubpath; one
with several segments is handled by matching its trailing PCsubpath
with an index lookup and verifying the leading segments against the
schema path returned by the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..paths.schema_paths import PathPattern
from .ast import Axis, TwigNode

#: Curly quotes that appear in the paper's query listings.
_QUOTE_NORMALISATION = str.maketrans({"‘": "'", "’": "'", "“": '"', "”": '"'})


def normalize_xpath(text: str) -> str:
    """Canonical form of a query string for caching purposes.

    Normalises the curly quotes of the paper's listings and strips
    surrounding whitespace — exactly the preprocessing
    :func:`~repro.query.parser.parse_xpath` applies — so queries
    differing only in those details share one plan-cache entry.
    """
    if not text.isascii():  # the curly quotes are not ASCII, most queries are
        text = text.translate(_QUOTE_NORMALISATION)
    return text.strip()


@dataclass(frozen=True)
class PathQuery:
    """One root-to-leaf path of a twig, ready for index evaluation."""

    pattern: PathPattern
    value: Optional[str]
    nodes: tuple[TwigNode, ...]

    @property
    def leaf(self) -> TwigNode:
        """The twig node at the end of the path."""
        return self.nodes[-1]

    @property
    def root(self) -> TwigNode:
        """The twig node at the start of the path (the twig root)."""
        return self.nodes[0]

    def position_of(self, node: TwigNode) -> int:
        """Index of ``node`` within the pattern labels."""
        for index, candidate in enumerate(self.nodes):
            if candidate is node:
                return index
        raise ValueError(f"{node!r} is not on this path")

    @property
    def is_recursive(self) -> bool:
        """True when the path contains any descendant edge."""
        return len(self.pattern.segments) > 1 or not self.pattern.anchored

    def describe(self) -> str:
        """Human-readable rendering, for logs and error messages."""
        parts: list[str] = []
        for node in self.nodes:
            parts.append(node.axis.value)
            parts.append(("@" if node.is_attribute else "") + node.label)
        text = "".join(parts)
        if self.value is not None:
            text += f" = '{self.value}'"
        return text


class TwigPattern:
    """A parsed query twig pattern with a designated output node.

    A twig is also the *prepared plan* of its query (see
    ``docs/ARCHITECTURE.md``, "Prepared plans"): it remembers the text
    it was parsed from and carries everything the planner derives from
    the pattern alone, so one twig object handed to every shard leg,
    replica and strategy instance is analysed and join-compiled once
    (a twig bound from a :class:`TwigShape` takes both from its shape).
    None of that state depends on documents or indexes, and the pattern
    must not be edited once it has been planned.
    """

    def __init__(self, root: TwigNode, output: Optional[TwigNode] = None) -> None:
        self.root = root
        self.output = output if output is not None else root
        #: The query text and its :func:`normalize_xpath` cache key.
        #: :func:`~repro.query.parser.parse_xpath` fills both; a
        #: hand-built twig renders them on first use.
        self._source: Optional[str] = None
        self._key: Optional[str] = None
        #: Planner-owned memos, each slot assigned at most one distinct
        #: value: the :class:`~repro.planner.analysis.TwigAnalysis`
        #: (:meth:`TwigAnalysis.of`) and one
        #: :class:`~repro.kernels.join.CompiledTwig` per payload flavour
        #: (``bound_payloads``), filled by the first strategy to ask.
        self.analysis = None
        self.compiled: dict[bool, object] = {}
        #: ``(shape, this twig's nodes in pre-order)`` when the twig was
        #: bound from a :class:`TwigShape`; the planner then re-points
        #: the shape's analysis and compiled joins at these nodes.
        self.bound: Optional[tuple[TwigShape, list[TwigNode]]] = None

    @property
    def source(self) -> str:
        """The text this twig was parsed from (else its rendering)."""
        if self._source is None:
            self._source = self.to_xpath()
        return self._source

    @property
    def key(self) -> str:
        """The normalised text every cache keys this query on."""
        if self._key is None:
            self._key = normalize_xpath(self.source)
        return self._key

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[TwigNode]:
        """All twig nodes, pre-order."""
        return self.root.iter_subtree()

    def leaves(self) -> list[TwigNode]:
        """Twig nodes with no children."""
        return [n for n in self.iter_nodes() if n.is_leaf]

    def branch_points(self) -> list[TwigNode]:
        """Twig nodes with more than one child."""
        return [n for n in self.iter_nodes() if n.is_branching]

    @property
    def branch_count(self) -> int:
        """Number of root-to-leaf paths in the twig (Figure 10's "branches")."""
        return len(self.leaves())

    @property
    def is_single_path(self) -> bool:
        """True when the twig has no branching (a simple path expression)."""
        return self.branch_count <= 1

    @property
    def has_recursion(self) -> bool:
        """True when any edge of the twig is a descendant (``//``) edge."""
        return any(n.axis is Axis.DESCENDANT for n in self.iter_nodes())

    @property
    def is_absolute(self) -> bool:
        """True when the twig root is attached with ``/`` (anchored at a
        document root) rather than ``//``."""
        return self.root.axis is Axis.CHILD

    def value_conditions(self) -> list[TwigNode]:
        """Twig nodes carrying an equality condition on their value."""
        return [n for n in self.iter_nodes() if n.value is not None]

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def root_to_leaf_paths(self) -> list[list[TwigNode]]:
        """Twig-node paths from the root to every leaf."""
        return [leaf.path_from_root() for leaf in self.leaves()]

    def path_queries(self) -> list[PathQuery]:
        """One :class:`PathQuery` per root-to-leaf twig path, plus one
        per valued inner step (``a`` in ``/r/a[. = 'x']/b``): a query
        holds the condition of its last node only, so such a step gets
        its own root-to-step path, joined to the paths through it.
        """
        return [
            self.path_query_for(node.path_from_root())
            for node in self.iter_nodes()
            if node.is_leaf or node.value is not None
        ]

    def path_query_for(self, nodes: Sequence[TwigNode]) -> PathQuery:
        """Build the :class:`PathQuery` for a path of twig nodes.

        ``nodes`` must start at the twig root; it may stop early (for
        example at a branch point), in which case the query describes
        the prefix path.
        """
        segments: list[tuple[str, ...]] = []
        current: list[str] = []
        for index, node in enumerate(nodes):
            if index == 0:
                current.append(node.label)
                continue
            if node.axis is Axis.DESCENDANT:
                segments.append(tuple(current))
                current = [node.label]
            else:
                current.append(node.label)
        segments.append(tuple(current))
        pattern = PathPattern(tuple(segments), anchored=self.is_absolute)
        return PathQuery(pattern=pattern, value=nodes[-1].value, nodes=tuple(nodes))

    def output_path(self) -> list[TwigNode]:
        """Twig nodes from the root to the output node (the trunk)."""
        return self.output.path_from_root()

    # ------------------------------------------------------------------
    def to_xpath(self) -> str:
        """Render the twig back into XPath-like text (best effort)."""
        return self.root.to_xpath()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwigPattern({self.to_xpath()!r})"


class TwigShape:
    """What every query differing only in its quoted literals shares.

    The *template* is the twig parsed from the shape's first text (no
    reader looks at the literals it keeps).  It is never handed out: it
    owns the analysis and compiled-join memos that every twig stamped
    out by :meth:`bind` re-points at its own nodes, by pre-order
    position.  Nothing here depends on documents or indexes or is
    written after construction: a shape needs no generation and no lock.
    """

    __slots__ = ("template", "_layout", "_slots", "_output")

    def __init__(self, template: TwigPattern, slots: Sequence[TwigNode]) -> None:
        self.template = template
        nodes = list(template.iter_nodes())
        position = {id(node): index for index, node in enumerate(nodes)}
        #: Per node: its fields and its parent's position (none: -1).
        self._layout = [
            (n.label, n.axis, n.value, n.is_attribute, position.get(id(n.parent), -1))
            for n in nodes
        ]
        self._slots = [position[id(node)] for node in slots]
        self._output = position[id(template.output)]

    def bind(self, source: str, key: str, literals: Sequence[str]) -> TwigPattern:
        """A twig of fresh nodes carrying ``literals`` in the value slots."""
        nodes: list[TwigNode] = []
        for label, axis, value, is_attribute, parent in self._layout:
            node = TwigNode(label, axis, value, is_attribute)
            if parent >= 0:
                nodes[parent].add_child(node)
            nodes.append(node)
        for slot, literal in zip(self._slots, literals):
            nodes[slot].value = literal
        twig = TwigPattern(nodes[0], nodes[self._output])
        twig._source, twig._key, twig.bound = source, key, (self, nodes)
        return twig
