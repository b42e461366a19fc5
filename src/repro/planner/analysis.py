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
        this one object.  Two threads that both find the slot empty
        build equal analyses and one assignment wins; a
        :class:`~repro.kernels.join.CompiledTwig` keeps the analysis it
        was compiled from, so the loser is still consistent with
        itself.
        """
        analysis = twig.analysis
        if analysis is None:
            analysis = twig.analysis = cls(twig)
        return analysis

    def __init__(self, twig: TwigPattern) -> None:
        self.twig = twig
        self.trunk: list[TwigNode] = twig.output_path()
        self._trunk_depth = {id(node): depth for depth, node in enumerate(self.trunk)}
        self.node_order: dict[int, int] = {
            id(node): index for index, node in enumerate(twig.iter_nodes())
        }
        self.paths: list[AnalyzedPath] = self._analyze()

    # ------------------------------------------------------------------
    def _analyze(self) -> list[AnalyzedPath]:
        queries = self.twig.path_queries()
        join_points = []
        for query in queries:
            join_points.append(self._deepest_trunk_node(query))
        join_point_ids = {id(node) for node in join_points}
        analyzed = []
        for query, join_point in zip(queries, join_points):
            needed = tuple(
                node
                for node in query.nodes
                if id(node) in join_point_ids or node is self.twig.output
            )
            analyzed.append(
                AnalyzedPath(
                    query=query,
                    join_point=join_point,
                    needed_nodes=needed,
                    contains_output=any(n is self.twig.output for n in query.nodes),
                )
            )
        return analyzed

    def _deepest_trunk_node(self, query: PathQuery) -> TwigNode:
        deepest = query.nodes[0]
        best_depth = -1
        for node in query.nodes:
            depth = self._trunk_depth.get(id(node))
            if depth is not None and depth > best_depth:
                best_depth = depth
                deepest = node
        return deepest

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
