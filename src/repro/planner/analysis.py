"""Twig analysis shared by every evaluation strategy.

Given a parsed :class:`~repro.query.twig.TwigPattern`, the
:class:`TwigAnalysis` computes the pieces all strategies need:

* the root-to-leaf :class:`~repro.query.twig.PathQuery` list,
* the *trunk* (root to output node),
* the *join points*: for every root-to-leaf path, the deepest trunk
  node lying on it — these are the "branch points" whose ids the paper
  extracts from IdLists and joins on (Section 5.2.2),
* for every path, the *needed nodes*: the join points lying on that
  path plus the output node when it is on the path — the columns its
  branch relation must produce for the final join.

Strategies turn each path into a relation over its needed nodes and the
generic joiner in :mod:`repro.planner.joiner` combines them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import QueryNotSupportedError
from ..query.ast import Axis, TwigNode
from ..query.twig import PathQuery, TwigPattern


@dataclass
class AnalyzedPath:
    """A root-to-leaf path with its join metadata."""

    query: PathQuery
    join_point: TwigNode
    needed_nodes: tuple[TwigNode, ...]
    contains_output: bool

    @property
    def leaf(self) -> TwigNode:
        return self.query.leaf


class TwigAnalysis:
    """Join-relevant structure of a twig pattern."""

    @classmethod
    def of(cls, twig: TwigPattern) -> "TwigAnalysis":
        """The twig's own analysis, built on first use and kept on it.

        The optimizer and every strategy instance of every shard read
        this one object.  A twig bound from a
        :class:`~repro.query.twig.TwigShape` gets its shape's analysis
        re-pointed at its own nodes (:meth:`_bound_to`) instead of a
        fresh derivation.  Two threads that both find the slot empty
        build equal analyses and one assignment wins; a
        :class:`~repro.kernels.join.CompiledTwig` keeps the analysis it
        was compiled from, so the loser is still consistent with
        itself.
        """
        analysis = twig.analysis
        if analysis is None:
            if twig.bound is None:
                analysis = cls(twig)
            else:
                shape, nodes = twig.bound
                analysis = cls.of(shape.template)._bound_to(twig, nodes)
            twig.analysis = analysis
        return analysis

    def __init__(self, twig: TwigPattern) -> None:
        nodes = list(twig.iter_nodes())
        order = {id(node): index for index, node in enumerate(nodes)}
        trunk = [order[id(node)] for node in twig.output_path()]
        depth = {position: level for level, position in enumerate(trunk)}
        paths = []
        for query in twig.path_queries():
            on_path = [order[id(node)] for node in query.nodes]
            # The deepest trunk node on the path (the root is on both).
            join_point = max((p for p in on_path if p in depth), key=depth.get)
            if query.leaf.children and join_point != on_path[-1]:
                # The grammar only puts ``[. = v]`` on trunk steps; a
                # hand-built twig that does otherwise would be joined
                # above the valued step and answer too widely.
                raise QueryNotSupportedError(
                    f"value condition on the off-trunk inner step "
                    f"{query.describe()!r} is not supported"
                )
            paths.append((query.pattern, on_path, join_point))
        needed = {join_point for _, _, join_point in paths} | {trunk[-1]}
        #: The whole analysis as pre-order positions: what every twig of
        #: this shape shares, each materialising it over its own nodes.
        self._layout = (
            trunk,
            [
                (
                    pattern,
                    on_path,
                    join_point,
                    [p for p in on_path if p in needed],
                    trunk[-1] in on_path,
                )
                for pattern, on_path, join_point in paths
            ],
        )
        self._point_at(twig, nodes)

    def _point_at(self, twig: TwigPattern, nodes: list[TwigNode]) -> None:
        """Materialise the layout over ``nodes``, ``twig``'s in pre-order.

        Each path takes its value from its own last node; the
        :class:`~repro.paths.schema_paths.PathPattern` objects are the
        layout's.
        """
        trunk, paths = self._layout
        self.twig = twig
        self.trunk: list[TwigNode] = [nodes[p] for p in trunk]
        self._trunk_depth = {id(node): depth for depth, node in enumerate(self.trunk)}
        self.node_order: dict[int, int] = {
            id(node): index for index, node in enumerate(nodes)
        }
        self.paths: list[AnalyzedPath] = []
        for pattern, on_path, join_point, needed, contains_output in paths:
            path_nodes = tuple([nodes[p] for p in on_path])
            self.paths.append(
                AnalyzedPath(
                    query=PathQuery(pattern, path_nodes[-1].value, path_nodes),
                    join_point=nodes[join_point],
                    needed_nodes=tuple([nodes[p] for p in needed]),
                    contains_output=contains_output,
                )
            )

    def _bound_to(self, twig: TwigPattern, nodes: list[TwigNode]) -> "TwigAnalysis":
        """This analysis for ``twig``, which has this twig's structure
        node for node (``nodes`` in pre-order) and its own values."""
        bound = object.__new__(type(self))
        bound._layout = self._layout
        bound._point_at(twig, nodes)
        return bound

    # ------------------------------------------------------------------
    def column_name(self, node: TwigNode) -> str:
        """Stable column name for a twig node, usable across relations."""
        return f"n{self.node_order[id(node)]}_{node.label}"

    def trunk_depth(self, node: TwigNode) -> Optional[int]:
        """Depth of ``node`` on the trunk, ``None`` if not a trunk node."""
        return self._trunk_depth.get(id(node))

    def trunk_common_node(self, a: TwigNode, b: TwigNode) -> TwigNode:
        """The shallower of two trunk nodes (their common trunk prefix end)."""
        da, db_ = self._trunk_depth[id(a)], self._trunk_depth[id(b)]
        return a if da <= db_ else b

    def trunk_nodes_between(
        self, upper: TwigNode, lower: TwigNode, inclusive_lower: bool = True
    ) -> list[TwigNode]:
        """Trunk nodes strictly below ``upper`` down to ``lower``."""
        du = self._trunk_depth[id(upper)]
        dl = self._trunk_depth[id(lower)]
        end = dl + 1 if inclusive_lower else dl
        return self.trunk[du + 1 : end]

    @property
    def output(self) -> TwigNode:
        """The twig's output node."""
        return self.twig.output

    @property
    def is_single_path(self) -> bool:
        """True when no join is required."""
        return len(self.paths) <= 1


def subpath_below(nodes: tuple[TwigNode, ...], head: TwigNode) -> tuple[TwigNode, ...]:
    """The nodes of a path strictly below ``head`` (which must be on it)."""
    for index, node in enumerate(nodes):
        if node is head:
            return nodes[index + 1 :]
    raise ValueError(f"{head!r} is not on the path")


def split_segments(nodes: tuple[TwigNode, ...]) -> tuple[tuple[tuple[str, ...], ...], bool]:
    """Split path nodes into label segments at descendant edges.

    Returns ``(segments, anchored)`` where ``anchored`` is True when the
    first node attaches with a parent-child edge (so the segment starts
    immediately below whatever the path hangs from).
    """
    if not nodes:
        return ((), True)
    segments: list[tuple[str, ...]] = []
    current: list[str] = [nodes[0].label]
    for node in nodes[1:]:
        if node.axis is Axis.DESCENDANT:
            segments.append(tuple(current))
            current = [node.label]
        else:
            current.append(node.label)
    segments.append(tuple(current))
    anchored = nodes[0].axis is Axis.CHILD
    return tuple(segments), anchored
