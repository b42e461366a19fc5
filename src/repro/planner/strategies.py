"""Twig evaluation strategies, one per index structure.

Each strategy turns a parsed twig pattern into sorted output-node ids
using only its index's lookup primitives: every root-to-leaf path
becomes rows of branch-point ids, and the twig's compiled hash join
(:class:`~repro.kernels.join.CompiledJoin`) joins them on the branch
points — the plans of Section 5:

* :class:`RootPathsStrategy` — one ROOTPATHS lookup per root-to-leaf
  path, branch-point ids extracted from IdLists, hash join.
* :class:`DataPathsStrategy` — same merge plan via FreeIndex probes,
  or the index-nested-loop plan built on BoundIndex probes when the
  optimizer decides one branch is selective enough (Section 5.2.3).
* :class:`EdgeStrategy` — value/tag index lookup for the leaf, then a
  join per step up the path through the backward-link index.
* :class:`DataGuidePlusEdgeStrategy` — DataGuide lookup for the schema
  path joined with a value-index lookup, then Edge walk-ups for branch
  points (the DG+Edge combination of Section 5.1.2).
* :class:`IndexFabricPlusEdgeStrategy` — Index Fabric lookup for fully
  specified root-to-leaf paths with values, Edge walk-ups for branch
  points, Edge fallback for unsupported branches (IF+Edge).
* :class:`AccessSupportRelationsStrategy` — per-schema-path relations,
  one access per matching relation (Section 5.2.6).
* :class:`JoinIndicesStrategy` — per-schema-path binary join indices,
  composed with joins to recover intermediate branch points.

All strategies are verified against the naive matcher in the tests,
and their answers and cost counters against the per-row operator
evaluator kept as the reference in ``tests/oracle_legacy.py``.
"""

from __future__ import annotations

import abc
from typing import Optional

from ..errors import PlanningError
from ..indexes.asr import AccessSupportRelationsIndex
from ..indexes.base import PathIndex
from ..kernels.join import CompiledBranch, CompiledTwig
from ..indexes.dataguide import DataGuideIndex
from ..indexes.datapaths import DataPathsIndex
from ..indexes.edge import EdgeIndex
from ..indexes.index_fabric import IndexFabricIndex
from ..indexes.join_index import JoinIndicesIndex
from ..indexes.rootpaths import RootPathsIndex
from ..paths.schema_paths import PathPattern, match_positions
from ..query.ast import Axis, TwigNode
from ..query.twig import PathQuery, TwigPattern
from ..storage.stats import GLOBAL_STATS, StatsCollector
from ..xmltree.document import VIRTUAL_ROOT_ID, XmlDatabase
from .analysis import AnalyzedPath, TwigAnalysis, split_segments, subpath_below
from .optimizer import DataPathsPlanChoice, choose_datapaths_plan


class EvaluationStrategy(abc.ABC):
    """Base class: a named way of answering twigs with specific indices."""

    #: Short name used by the engine, the workload tables and the benches.
    name: str = "abstract"
    #: Index names (keys into the engine's index dict) this strategy needs.
    required_indexes: tuple[str, ...] = ()
    #: Per-request options the constructor takes after ``stats``; the
    #: serving layer refuses anything else with a :class:`PlanningError`.
    options: tuple[str, ...] = ()
    #: DATAPATHS payloads carry a bound head id the extractors must read.
    bound_payloads: bool = False

    def __init__(
        self,
        db: XmlDatabase,
        indexes: dict[str, PathIndex],
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.db = db
        self.indexes = indexes
        self.stats = stats if stats is not None else GLOBAL_STATS
        for required in self.required_indexes:
            if required not in indexes:
                raise PlanningError(
                    f"strategy {self.name!r} requires the {required!r} index"
                )

    # ------------------------------------------------------------------
    def evaluate(self, twig: TwigPattern) -> list[int]:
        """Sorted ids of database nodes matching the twig's output node."""
        return self._merge(self._twig_plan(twig))

    def _merge(self, plan: CompiledTwig) -> list[int]:
        """Every branch's rows through the compiled join."""
        rows = [
            self._branch_rows(plan, branch, path)
            for branch, path in zip(plan.branches, plan.analysis.paths)
        ]
        return plan.join.run(rows, self.stats)

    def _twig_plan(self, twig: TwigPattern) -> CompiledTwig:
        """The twig's own :class:`CompiledTwig` for this payload flavour.

        Compiled on first use and kept on the twig object, so every
        strategy instance of every shard and replica handed the same
        twig runs the same compiled plan, and it lives exactly as long
        as the twig does; a twig bound from a shape runs the plan of its
        shape's template.  Like :meth:`TwigAnalysis.of`, a racing first
        use compiles twice and one assignment wins.
        """
        plan = twig.compiled.get(self.bound_payloads)
        if plan is None:
            analysis = TwigAnalysis.of(twig)
            if twig.bound is None:
                plan = CompiledTwig(analysis, bound=self.bound_payloads)
            else:
                plan = self._twig_plan(twig.bound[0].template).bound_to(analysis)
            twig.compiled[self.bound_payloads] = plan
        return plan

    @abc.abstractmethod
    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        """Rows of ids for the path's needed nodes.

        ``path`` (from ``plan.analysis``) carries the value, ``branch``
        its compiled layout.
        """

    def _needed_positions(self, path: AnalyzedPath) -> list[int]:
        return [path.query.position_of(node) for node in path.needed_nodes]


# ----------------------------------------------------------------------
# ROOTPATHS
# ----------------------------------------------------------------------
class RootPathsStrategy(EvaluationStrategy):
    """Single ROOTPATHS lookup per branch, join on extracted branch points."""

    name = "rootpaths"
    required_indexes = ("rootpaths",)

    @property
    def index(self) -> RootPathsIndex:
        return self.indexes["rootpaths"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        payloads = self.index.lookup_payloads(
            branch.trailing, path.query.value, anchored=branch.exact
        )
        return branch.extractor.rows(payloads)


# ----------------------------------------------------------------------
# DATAPATHS (merge plan and index-nested-loop plan)
# ----------------------------------------------------------------------
class DataPathsStrategy(EvaluationStrategy):
    """FreeIndex merge plan or BoundIndex index-nested-loop plan."""

    name = "datapaths"
    required_indexes = ("datapaths",)
    options = ("force_plan",)
    bound_payloads = True

    def __init__(
        self,
        db: XmlDatabase,
        indexes: dict[str, PathIndex],
        stats: Optional[StatsCollector] = None,
        force_plan: Optional[str] = None,
    ) -> None:
        super().__init__(db, indexes, stats)
        if force_plan not in (None, "merge", "inl"):
            raise PlanningError(f"unknown DATAPATHS plan {force_plan!r}")
        self.force_plan = force_plan
        self.last_plan: Optional[DataPathsPlanChoice] = None

    @property
    def index(self) -> DataPathsIndex:
        return self.indexes["datapaths"]  # type: ignore[return-value]

    # -- plan selection -------------------------------------------------
    def evaluate(self, twig: TwigPattern) -> list[int]:
        analysis = TwigAnalysis.of(twig)
        choice = self.last_plan = choose_datapaths_plan(
            analysis, self.index, force=self.force_plan
        )
        plan = self._twig_plan(twig)
        if choice.plan == "inl" and not analysis.is_single_path:
            return self._inl(plan, choice)
        return self._merge(plan)

    # -- merge plan ------------------------------------------------------
    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        payloads = self.index.free_lookup_payloads(
            branch.trailing, path.query.value, anchored=branch.exact
        )
        return branch.extractor.rows(payloads)

    # -- index-nested-loop plan -------------------------------------------
    def _inl(self, plan: CompiledTwig, choice: DataPathsPlanChoice) -> list[int]:
        """The index-nested-loop plan: one BoundIndex probe per outer row
        and probed branch, charged one ``join_probes`` each.

        The per-outer-branch probe layout — head-column positions, probe
        patterns, placement caches — is compiled once and stashed on the
        twig plan (shared like the plan itself: a function of the twig's
        shape and the outer branch alone; values come from the executing
        plan's analysis).
        """
        spec = plan.inl_plans.get(choice.outer_index)
        if spec is None:
            spec = _CompiledInl(plan.analysis, choice.outer_index)
            plan.inl_plans[choice.outer_index] = spec
        paths = plan.analysis.paths
        outer_rows = self._branch_rows(
            plan, plan.branches[choice.outer_index], paths[choice.outer_index]
        )
        probed = [(other, paths[other.branch].query.value) for other in spec.others]
        index = self.index
        stats = self.stats
        results: set[int] = set()
        for row in outer_rows:
            satisfied = True
            output_candidates: Optional[set[int]] = None
            for other, value in probed:
                head_id = row[other.head_pos]
                stats.join_probes += 1
                matches = other.probe.run(index, head_id, value)
                if not matches:
                    satisfied = False
                    break
                if other.extract_output:
                    extracted = _extract_probe_ids(matches, other.target_index)
                    if output_candidates is None:
                        output_candidates = extracted
                    else:
                        output_candidates &= extracted
                    if not output_candidates:
                        satisfied = False
                        break
            if not satisfied:
                continue
            if spec.output_pos is not None:
                results.add(row[spec.output_pos])
            elif output_candidates is not None:
                results.update(output_candidates)
            else:
                head_id = row[spec.trunk_head_pos]
                if spec.trunk_probe is None:
                    results.add(head_id)
                    continue
                stats.join_probes += 1
                matches = spec.trunk_probe.run(index, head_id, None)
                for payload, placement in matches:
                    labels, ids = payload[0], payload[1]
                    position = placement[spec.trunk_last] - (len(labels) - len(ids))
                    identifier = payload[3] if position < 0 else ids[position]
                    if identifier is not None:
                        results.add(identifier)
        return sorted(results)


# ----------------------------------------------------------------------
# Compiled DATAPATHS INL probe layout
# ----------------------------------------------------------------------
#: Stand-in probe result for an empty, valueless below-chain: the head
#: itself satisfies the branch.  Never hits the index and never feeds
#: extraction (target is None).
_SYNTHETIC_PROBE: list[tuple[tuple, tuple[int, ...]]] = [(((), (), None, None), (0,))]


class _ProbeSpec:
    """One compiled BoundIndex probe below a fixed trunk attachment.

    Probes over raw ``(schema_path, ids, leaf_value, head_id)`` payloads
    and verifies the below-pattern against the labels under the head
    (position 0), with placements memoised per schema path (they depend
    only on labels, never on the probed head id).
    """

    __slots__ = ("empty", "exact", "trailing", "verify_pattern",
                 "_placements", "_exact_placements")

    def __init__(self, below: tuple[TwigNode, ...]) -> None:
        self.empty = not below
        self._placements: dict[tuple[str, ...], tuple[tuple[int, ...], ...]] = {}
        self._exact_placements: dict[int, tuple[int, ...]] = {}
        if self.empty:
            # With a value, an exact probe of the head's own row.
            self.exact = True
            self.trailing: tuple[str, ...] = ()
            self.verify_pattern: Optional[PathPattern] = None
            return
        segments, anchored = split_segments(below)
        self.exact = len(segments) == 1 and anchored
        self.trailing = segments[-1]
        self.verify_pattern = (
            None if self.exact else PathPattern(segments, anchored=anchored)
        )

    def run(
        self, index: DataPathsIndex, head_id: int, value: Optional[str]
    ) -> list[tuple]:
        if self.empty and value is None:
            return _SYNTHETIC_PROBE
        payloads = index.bound_lookup_payloads(
            head_id, self.trailing, value=value, anchored=self.exact
        )
        results: list[tuple] = []
        if self.exact:
            cache = self._exact_placements
            for payload in payloads:
                length = len(payload[0])
                placement = cache.get(length)
                if placement is None:
                    placement = tuple(range(1, length))
                    cache[length] = placement
                results.append((payload, placement))
            return results
        cache = self._placements
        pattern = self.verify_pattern
        for payload in payloads:
            labels = payload[0]
            shifted = cache.get(labels)
            if shifted is None:
                shifted = tuple(
                    tuple(position + 1 for position in placement)
                    for placement in match_positions(pattern, labels[1:])
                )
                cache[labels] = shifted
            for placement in shifted:
                results.append((payload, placement))
        return results


def _extract_probe_ids(
    matches: list[tuple], target_index: Optional[int]
) -> set[int]:
    """Ids at the target below-position (the payload form of ``id_at``)."""
    if target_index is None:
        return set()
    extracted: set[int] = set()
    for payload, placement in matches:
        labels, ids = payload[0], payload[1]
        position = placement[target_index] - (len(labels) - len(ids))
        identifier = payload[3] if position < 0 else ids[position]
        if identifier is not None:
            extracted.add(identifier)
    return extracted


class _InlOther:
    """One probed (non-outer) branch of a compiled INL plan."""

    __slots__ = ("branch", "head_pos", "probe", "extract_output", "target_index")

    def __init__(
        self,
        branch: int,
        head_pos: int,
        probe: _ProbeSpec,
        extract_output: bool,
        target_index: Optional[int],
    ) -> None:
        self.branch = branch
        self.head_pos = head_pos
        self.probe = probe
        self.extract_output = extract_output
        self.target_index = target_index


class _CompiledInl:
    """Probe layout for one (twig shape, outer-branch) INL plan, built once."""

    __slots__ = ("others", "output_pos", "trunk_head_pos", "trunk_probe", "trunk_last")

    def __init__(self, analysis: TwigAnalysis, outer_index: int) -> None:
        outer = analysis.paths[outer_index]
        outer_columns = {node: i for i, node in enumerate(outer.needed_nodes)}
        output = analysis.output
        self.output_pos = outer_columns.get(output)
        output_on_outer = self.output_pos is not None
        others: list[_InlOther] = []
        for index, other in enumerate(analysis.paths):
            if index == outer_index:
                continue
            head_node = analysis.trunk_common_node(
                outer.join_point, other.join_point
            )
            below = subpath_below(other.query.nodes, head_node)
            probe = _ProbeSpec(below)
            extract = other.contains_output and not output_on_outer
            target_index = None
            if extract:
                for position, node in enumerate(below):
                    if node is output:
                        target_index = position
                        break
            head_pos = outer_columns[head_node]
            others.append(_InlOther(index, head_pos, probe, extract, target_index))
        self.others = others
        self.trunk_head_pos = outer_columns[outer.join_point]
        trunk_below = tuple(
            analysis.trunk_nodes_between(
                outer.join_point, output, inclusive_lower=True
            )
        )
        self.trunk_last = len(trunk_below) - 1
        self.trunk_probe = _ProbeSpec(trunk_below) if trunk_below else None


# ----------------------------------------------------------------------
# Edge table
# ----------------------------------------------------------------------
class EdgeStrategy(EvaluationStrategy):
    """Per-step joins through the Edge table's link and value indices."""

    name = "edge"
    required_indexes = ("edge",)

    @property
    def index(self) -> EdgeIndex:
        return self.indexes["edge"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        query = path.query
        leaf = query.leaf
        if query.value is not None:
            candidates = self.index.nodes_with_value(leaf.label, query.value)
        else:
            candidates = self.index.nodes_with_label(leaf.label)
        needed_positions = self._needed_positions(path)
        rows: list[tuple] = []
        for candidate in candidates:
            for assignment in self._walk_up(query, candidate):
                rows.append(tuple(assignment[p] for p in needed_positions))
        return rows

    def _walk_up(self, query: PathQuery, leaf_id: int) -> list[dict[int, int]]:
        """All upward placements of the path pattern ending at ``leaf_id``.

        Every parent/ancestor step is a probe of the backward-link index
        — the per-step join cost of the Edge approach.
        """
        nodes = query.nodes
        results: list[dict[int, int]] = []

        def recurse(position: int, node_id: int, assignment: dict[int, int]) -> None:
            if position == 0:
                if query.pattern.anchored:
                    self.stats.join_probes += 1
                    parent = self.index.parent_of(node_id)
                    if parent is not None and parent[0] != VIRTUAL_ROOT_ID:
                        return
                results.append(dict(assignment))
                return
            twig_node = nodes[position]
            expected = nodes[position - 1].label
            if twig_node.axis is Axis.CHILD:
                self.stats.join_probes += 1
                parent = self.index.parent_of(node_id)
                if parent is None or parent[1] != expected:
                    return
                assignment[position - 1] = parent[0]
                recurse(position - 1, parent[0], assignment)
            else:
                for ancestor_id, ancestor_label in self.index.ancestors_of(node_id):
                    self.stats.join_probes += 1
                    if ancestor_label == expected:
                        assignment[position - 1] = ancestor_id
                        recurse(position - 1, ancestor_id, dict(assignment))

        recurse(len(nodes) - 1, leaf_id, {len(nodes) - 1: leaf_id})
        return results


# ----------------------------------------------------------------------
# DataGuide + Edge
# ----------------------------------------------------------------------
class DataGuidePlusEdgeStrategy(EvaluationStrategy):
    """DataGuide for the schema path, value index for the value, Edge walk-ups."""

    name = "dataguide_edge"
    required_indexes = ("dataguide", "edge")

    @property
    def dataguide(self) -> DataGuideIndex:
        return self.indexes["dataguide"]  # type: ignore[return-value]

    @property
    def edge(self) -> EdgeIndex:
        return self.indexes["edge"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        query = path.query
        needed_positions = self._needed_positions(path)
        rows: list[tuple] = []
        value_ids: Optional[set[int]] = None
        if query.value is not None:
            value_ids = set(self.edge.nodes_with_value(query.leaf.label, query.value))
        for schema_path in self.dataguide.paths_matching(query.pattern):
            path_ids = self.dataguide.lookup_path(schema_path)
            if value_ids is not None:
                # Join the DataGuide result with the value-index result.
                self.stats.join_probes += len(path_ids)
                candidates = [i for i in path_ids if i in value_ids]
            else:
                candidates = path_ids
            placements = match_positions(query.pattern, schema_path)
            for candidate in candidates:
                ids = self._collect_path_ids(candidate, len(schema_path))
                if ids is None:
                    continue
                for placement in placements:
                    rows.append(tuple(ids[placement[p]] for p in needed_positions))
        return rows

    def _collect_path_ids(self, leaf_id: int, length: int) -> Optional[list[int]]:
        """Walk the backward links to materialise the ids along the path."""
        ids = [0] * length
        ids[-1] = leaf_id
        current = leaf_id
        for position in range(length - 2, -1, -1):
            self.stats.join_probes += 1
            parent = self.edge.parent_of(current)
            if parent is None:
                return None
            ids[position] = parent[0]
            current = parent[0]
        return ids


# ----------------------------------------------------------------------
# Index Fabric + Edge
# ----------------------------------------------------------------------
class IndexFabricPlusEdgeStrategy(DataGuidePlusEdgeStrategy):
    """Index Fabric for valued root-to-leaf paths, Edge for everything else."""

    name = "index_fabric_edge"
    required_indexes = ("index_fabric", "edge")

    @property
    def fabric(self) -> IndexFabricIndex:
        return self.indexes["index_fabric"]  # type: ignore[return-value]

    @property
    def edge(self) -> EdgeIndex:
        return self.indexes["edge"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        query = path.query
        needed_positions = self._needed_positions(path)
        if query.value is None:
            # The fabric only stores root-to-leaf paths with values; fall
            # back to the Edge-style evaluation for structural branches.
            return self._edge_fallback(plan, branch, path)
        rows: list[tuple] = []
        for schema_path in self.fabric.paths_matching(query.pattern):
            candidates = self.fabric.lookup(schema_path, query.value)
            placements = match_positions(query.pattern, schema_path)
            for candidate in candidates:
                ids = self._collect_path_ids(candidate, len(schema_path))
                if ids is None:
                    continue
                for placement in placements:
                    rows.append(tuple(ids[placement[p]] for p in needed_positions))
        return rows

    def _edge_fallback(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        edge_strategy = EdgeStrategy(self.db, {"edge": self.edge}, stats=self.stats)
        return edge_strategy._branch_rows(plan, branch, path)


# ----------------------------------------------------------------------
# Access Support Relations
# ----------------------------------------------------------------------
class AccessSupportRelationsStrategy(EvaluationStrategy):
    """One relation access per schema path matching each branch."""

    name = "asr"
    required_indexes = ("asr",)

    @property
    def index(self) -> AccessSupportRelationsIndex:
        return self.indexes["asr"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        query = path.query
        needed_positions = self._needed_positions(path)
        rows: list[tuple] = []
        for relation in self.index.relations_matching(query.pattern):
            if query.value is not None:
                stored_rows = relation.rows_with_value(query.value)
            else:
                stored_rows = [row for row in relation.scan() if row[-1] is None]
            placements = match_positions(query.pattern, relation.path)
            for stored in stored_rows:
                ids = stored[:-1]
                for placement in placements:
                    rows.append(tuple(ids[placement[p]] for p in needed_positions))
        return rows


# ----------------------------------------------------------------------
# Join Indices
# ----------------------------------------------------------------------
class JoinIndicesStrategy(EvaluationStrategy):
    """Compose per-path binary join indices to recover branch points."""

    name = "join_index"
    required_indexes = ("join_index",)

    @property
    def index(self) -> JoinIndicesIndex:
        return self.indexes["join_index"]  # type: ignore[return-value]

    def _branch_rows(
        self, plan: CompiledTwig, branch: CompiledBranch, path: AnalyzedPath
    ) -> list[tuple]:
        query = path.query
        needed = list(path.needed_nodes)
        # Anchor chain: root element, each needed node, and the leaf.
        anchors: list[TwigNode] = []
        for node in query.nodes:
            if node in needed or node is query.leaf or node is query.nodes[0]:
                if node not in anchors:
                    anchors.append(node)
        # Pairs per consecutive anchor segment, then hash-join them.
        assignments: Optional[list[dict[int, int]]] = None
        for upper, lower in zip(anchors, anchors[1:]):
            pairs = self._segment_pairs(query, upper, lower)
            upper_key = query.position_of(upper)
            lower_key = query.position_of(lower)
            if assignments is None:
                assignments = [{upper_key: h, lower_key: t} for h, t in pairs]
                continue
            by_head: dict[int, list[int]] = {}
            for head, tail in pairs:
                by_head.setdefault(head, []).append(tail)
            extended: list[dict[int, int]] = []
            for assignment in assignments:
                self.stats.join_probes += 1
                for tail in by_head.get(assignment[upper_key], ()):
                    new_assignment = dict(assignment)
                    new_assignment[lower_key] = tail
                    extended.append(new_assignment)
            assignments = extended
        if assignments is None:
            # Single-node path (for example ``//section`` or ``/site``):
            # there is no two-ended subpath to look up, so derive the ids
            # from the tails of relations whose path ends at that label.
            return self._single_node_rows(query, path)
        # Root anchoring: the first anchor must be a document root when the
        # twig is absolute; join-index heads for rooted relations are
        # document roots by construction, so nothing further is needed.
        needed_positions = self._needed_positions(path)
        rows = []
        for assignment in assignments:
            row = tuple(assignment.get(p) for p in needed_positions)
            if any(value is None for value in row):
                continue
            rows.append(row)
        return rows

    def _single_node_rows(self, query: PathQuery, path: AnalyzedPath) -> list[tuple]:
        """Ids for a one-node path, recovered from relation endpoints.

        For ``//label`` the ids are the tails of every relation whose
        path ends at ``label``; for an absolute ``/label`` they are the
        heads of relations starting at ``label``, restricted to document
        roots.  A value condition is applied through the backward
        (value-keyed) trees.
        """
        label = query.leaf.label
        ids: set[int] = set()
        if query.pattern.anchored:
            # The length-1 relation ``(label,)`` holds every node with
            # that label as a (node, node) pair — including roots with no
            # structural descendants, which never appear as the head of a
            # two-ended relation.
            root_ids = {doc.root.node_id for doc in self.db.documents}
            relation = self.index.relations.get((label,))
            if relation is not None:
                self.stats.heap_page_reads += self.index.RELATION_OPEN_COST
                for head, _tail in relation.backward_pairs_for_value(None):
                    if head in root_ids:
                        if query.value is None or self.db.node(head).first_value() == query.value:
                            ids.add(head)
        else:
            tail_pattern = PathPattern(((label,),), anchored=False)
            for relation in self.index.relations_matching(tail_pattern):
                for _head, tail in relation.backward_pairs_for_value(query.value):
                    ids.add(tail)
        return [(identifier,) * len(path.needed_nodes) for identifier in sorted(ids)]

    def _segment_pairs(
        self, query: PathQuery, upper: TwigNode, lower: TwigNode
    ) -> list[tuple[int, int]]:
        """(upper id, lower id) pairs for the path segment between two anchors.

        The relation paths consulted must *start* at the upper anchor's
        label (join-index heads are the path starts), so the pattern is
        always matched anchored at the relation path's beginning.  When
        the segment starts at the twig root of an absolute query, heads
        are additionally restricted to document roots.
        """
        nodes = query.nodes
        start = query.position_of(upper)
        end = query.position_of(lower)
        segment_nodes = nodes[start : end + 1]
        segments, _anchored = split_segments(segment_nodes)
        pattern = PathPattern(segments, anchored=True)
        value = query.value if lower is query.leaf else None
        pairs: list[tuple[int, int]] = []
        for relation in self.index.relations_matching(pattern):
            pairs.extend(relation.backward_pairs_for_value(value))
        if start == 0 and query.pattern.anchored:
            root_ids = {doc.root.node_id for doc in self.db.documents}
            pairs = [pair for pair in pairs if pair[0] in root_ids]
        return pairs
