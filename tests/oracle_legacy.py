"""The per-row twig evaluator: the reference the kernels are checked against.

Every strategy in :mod:`repro.planner.strategies` evaluates through the
compiled kernels: payload extractors, :class:`~repro.kernels.join.CompiledJoin`
and the compiled DATAPATHS index-nested-loop plan.  This module keeps the
per-row evaluator they were compiled from, so the tests can check that
the kernels answer *and charge* exactly like it:

* iterator operators (:class:`RowSchema`, :class:`RowSource`,
  :class:`HashJoin`, :class:`Filter`, :class:`Project`, :class:`Distinct`)
  that charge the stats collector once per row;
* the branch-relation joiner (:func:`build_join_plan`);
* the ROOTPATHS and DATAPATHS row producers over the ``PathMatch``
  lookups (``lookup``, ``free_lookup``, ``bound_lookup``) instead of raw
  payloads;
* the DATAPATHS index-nested-loop loop over ``PathMatch`` probes.

The other five strategies never had a second row producer: the
reference runs their own ``_branch_rows`` and only the join is its own.

:func:`reference_execute` is the entry point -- one query under one
strategy on a :class:`~repro.TwigIndexDatabase`, returning
``(ids, cost)`` to compare with a ``QueryResult``'s ``ids`` and ``cost``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.errors import PlanningError
from repro.indexes.base import PathMatch
from repro.paths.schema_paths import PathPattern, match_positions
from repro.planner import DEFAULT_STRATEGIES
from repro.planner.analysis import AnalyzedPath, TwigAnalysis, split_segments, subpath_below
from repro.planner.optimizer import DataPathsPlanChoice, choose_datapaths_plan
from repro.planner.strategies import DataPathsStrategy, EvaluationStrategy, RootPathsStrategy
from repro.query.ast import TwigNode
from repro.query.parser import parse_xpath
from repro.query.twig import PathQuery, TwigPattern
from repro.storage.stats import GLOBAL_STATS, StatsCollector

Row = tuple

#: The (strategy, options) runs the kernels are compared on: every
#: strategy, plus DATAPATHS forced to each of its two plans.
REFERENCE_RUNS = tuple((strategy, {}) for strategy in DEFAULT_STRATEGIES) + tuple(
    ("datapaths", {"force_plan": plan}) for plan in ("merge", "inl")
)


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------
class RowSchema:
    """An ordered list of column names describing a tuple stream."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise PlanningError(f"duplicate column names in schema: {self.columns}")
        self._positions = {name: i for i, name in enumerate(self.columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, column: str) -> bool:
        return column in self._positions

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RowSchema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowSchema{self.columns}"

    def position(self, column: str) -> int:
        """Index of ``column`` in a row tuple."""
        try:
            return self._positions[column]
        except KeyError:
            raise PlanningError(
                f"column {column!r} not in schema {self.columns}"
            ) from None

    def positions(self, columns: Iterable[str]) -> list[int]:
        """Indexes of several columns."""
        return [self.position(c) for c in columns]

    def project(self, columns: Sequence[str]) -> "RowSchema":
        """Schema of a projection onto ``columns`` (validates existence)."""
        for column in columns:
            self.position(column)
        return RowSchema(columns)

    def concat(self, other: "RowSchema", suffix: str = "_r") -> "RowSchema":
        """Schema of a join output; right-side duplicates get ``suffix``."""
        names = list(self.columns)
        for column in other.columns:
            name = column
            while name in names:
                name = name + suffix
            names.append(name)
        return RowSchema(names)


# ----------------------------------------------------------------------
# Iterator operators
# ----------------------------------------------------------------------
class PlanOperator:
    """Base class for every plan operator."""

    schema: RowSchema

    def __init__(self, schema: RowSchema, stats: Optional[StatsCollector] = None) -> None:
        self.schema = schema
        self.stats = stats if stats is not None else GLOBAL_STATS

    def __iter__(self) -> Iterator[Row]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def rows(self) -> list[Row]:
        """Fully evaluate the operator and return the rows."""
        return list(self)

    def explain(self, level: int = 0) -> str:
        """A one-line-per-operator plan description (for logging/tests)."""
        lines = [("  " * level) + self.describe()]
        for child in self.children():
            lines.append(child.explain(level + 1))
        return "\n".join(lines)

    def describe(self) -> str:
        return f"{type(self).__name__}{tuple(self.schema.columns)}"

    def children(self) -> Sequence["PlanOperator"]:
        return ()


class RowSource(PlanOperator):
    """A materialised list of rows with a schema (e.g. index lookup output)."""

    def __init__(
        self,
        schema: Union[RowSchema, Sequence[str]],
        rows: Iterable[Row],
        stats: Optional[StatsCollector] = None,
        label: str = "rows",
    ) -> None:
        if not isinstance(schema, RowSchema):
            schema = RowSchema(schema)
        super().__init__(schema, stats)
        self._rows = list(rows)
        self.label = label

    def __iter__(self) -> Iterator[Row]:
        for row in self._rows:
            self.stats.tuples_produced += 1
            yield row

    def __len__(self) -> int:
        return len(self._rows)

    def describe(self) -> str:
        return f"RowSource[{self.label}] ({len(self._rows)} rows)"


class Filter(PlanOperator):
    """Row filter by an arbitrary predicate over named columns."""

    def __init__(
        self,
        child: PlanOperator,
        predicate: Callable[[Row], bool],
        description: str = "",
    ) -> None:
        super().__init__(child.schema, child.stats)
        self.child = child
        self.predicate = predicate
        self.description = description

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            if self.predicate(row):
                self.stats.tuples_produced += 1
                yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self.child,)

    def describe(self) -> str:
        suffix = f" {self.description}" if self.description else ""
        return f"Filter{suffix}"


class Project(PlanOperator):
    """Projection onto a subset (or reordering) of columns."""

    def __init__(self, child: PlanOperator, columns: Sequence[str]) -> None:
        super().__init__(child.schema.project(columns), child.stats)
        self.child = child
        self._positions = child.schema.positions(columns)

    def __iter__(self) -> Iterator[Row]:
        for row in self.child:
            self.stats.tuples_produced += 1
            yield tuple(row[i] for i in self._positions)

    def children(self) -> Sequence[PlanOperator]:
        return (self.child,)


class Distinct(PlanOperator):
    """Duplicate elimination preserving first-seen order."""

    def __init__(self, child: PlanOperator) -> None:
        super().__init__(child.schema, child.stats)
        self.child = child

    def __iter__(self) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.child:
            if row not in seen:
                seen.add(row)
                self.stats.tuples_produced += 1
                yield row

    def children(self) -> Sequence[PlanOperator]:
        return (self.child,)


class HashJoin(PlanOperator):
    """Classic build/probe hash equi-join (build side = right input)."""

    def __init__(
        self,
        left: PlanOperator,
        right: PlanOperator,
        left_column: str,
        right_column: str,
    ) -> None:
        super().__init__(left.schema.concat(right.schema), left.stats)
        self.left = left
        self.right = right
        self.left_position = left.schema.position(left_column)
        self.right_position = right.schema.position(right_column)

    def __iter__(self) -> Iterator[Row]:
        table: dict[object, list[Row]] = {}
        for row in self.right:
            table.setdefault(row[self.right_position], []).append(row)
        for row in self.left:
            self.stats.join_probes += 1
            for match in table.get(row[self.left_position], ()):
                self.stats.tuples_produced += 1
                yield row + match

    def children(self) -> Sequence[PlanOperator]:
        return (self.left, self.right)

    def describe(self) -> str:
        return "HashJoin"


# ----------------------------------------------------------------------
# The branch-relation joiner
# ----------------------------------------------------------------------
class BranchRelation:
    """Rows of twig-node ids produced for one root-to-leaf path."""

    def __init__(
        self,
        analysis: TwigAnalysis,
        nodes: Sequence[TwigNode],
        rows: Sequence[tuple],
        label: str = "branch",
    ) -> None:
        self.analysis = analysis
        self.nodes = tuple(nodes)
        self.columns = tuple(analysis.column_name(node) for node in nodes)
        self.rows = list(rows)
        self.label = label

    def __len__(self) -> int:
        return len(self.rows)

    def to_operator(self, stats: Optional[StatsCollector] = None) -> RowSource:
        """Wrap the rows as a relational plan source."""
        return RowSource(self.columns, self.rows, stats=stats, label=self.label)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BranchRelation({self.label}, columns={self.columns}, rows={len(self.rows)})"


def join_branches(
    analysis: TwigAnalysis,
    relations: Sequence[BranchRelation],
    stats: Optional[StatsCollector] = None,
) -> list[int]:
    """Join branch relations and return sorted distinct output-node ids."""
    if not relations:
        return []
    output_column = analysis.column_name(analysis.output)
    plan = build_join_plan(analysis, relations, stats=stats)
    positions = plan.schema.position(output_column)
    ids = sorted({row[positions] for row in plan})
    return ids


def build_join_plan(
    analysis: TwigAnalysis,
    relations: Sequence[BranchRelation],
    stats: Optional[StatsCollector] = None,
) -> PlanOperator:
    """Compose the hash-join plan over the branch relations."""
    output_column = analysis.column_name(analysis.output)
    ordered = _order_relations(relations, output_column)
    plan: PlanOperator = ordered[0].to_operator(stats)
    joined_columns = set(plan.schema.columns)
    pending = list(ordered[1:])
    while pending:
        index = _next_joinable(pending, joined_columns)
        relation = pending.pop(index)
        right = relation.to_operator(stats)
        shared = [c for c in relation.columns if c in joined_columns]
        if not shared:
            raise PlanningError(
                f"branch relation {relation.label!r} shares no join column with the plan"
            )
        join_column = shared[-1]
        joined: PlanOperator = HashJoin(plan, right, join_column, join_column)
        # The right side's copy of the join columns gets a suffix in the
        # concatenated schema; filter the remaining shared columns for
        # equality and keep the left-side copies.
        for column in shared[:-1]:
            left_pos = joined.schema.position(column)
            right_pos = joined.schema.position(column + "_r")
            joined = Filter(
                joined,
                lambda row, lp=left_pos, rp=right_pos: row[lp] == row[rp],
                description=f"{column} consistent",
            )
        # Keep only the original column names; the right side's renamed
        # duplicates (suffix added by RowSchema.concat) are dropped.
        original = set(plan.schema.columns) | set(relation.columns)
        keep = [c for c in joined.schema.columns if c in original]
        plan = Project(joined, keep)
        joined_columns.update(relation.columns)
    if output_column not in plan.schema:
        raise PlanningError("no branch relation produced the output column")
    return Distinct(Project(plan, [output_column]))


def _order_relations(
    relations: Sequence[BranchRelation], output_column: str
) -> list[BranchRelation]:
    """Put a relation containing the output column first, then the rest."""
    with_output = [r for r in relations if output_column in r.columns]
    without = [r for r in relations if output_column not in r.columns]
    if not with_output:
        raise PlanningError("no branch relation contains the output node")
    # Among the output-bearing relations, start with the widest one so
    # join columns become available early.
    with_output.sort(key=lambda r: len(r.columns), reverse=True)
    return with_output + without


def _next_joinable(pending: list[BranchRelation], joined_columns: set[str]) -> int:
    for index, relation in enumerate(pending):
        if any(column in joined_columns for column in relation.columns):
            return index
    # Fall back to the first relation; build_join_plan will raise a
    # precise error if it truly cannot be joined.
    return 0


# ----------------------------------------------------------------------
# Row producers
# ----------------------------------------------------------------------
def _rows_from_matches(
    matches: Iterable[PathMatch],
    pattern: PathPattern,
    needed_positions: Sequence[int],
    already_exact: bool = False,
) -> list[tuple]:
    """Map index matches to needed-node id rows.

    Each match's schema path is checked against the full pattern
    (placements); every placement contributes one row built from the
    IdList positions of the needed nodes.
    """
    rows: list[tuple] = []
    for match in matches:
        if already_exact:
            placements = [tuple(range(len(match.labels)))]
        else:
            placements = match_positions(pattern, match.labels)
        for placement in placements:
            row = tuple(
                match.id_at(placement[position]) for position in needed_positions
            )
            if any(value is None for value in row):
                continue
            rows.append(row)
    return rows


def _match_rows(strategy: EvaluationStrategy, path: AnalyzedPath) -> list[tuple]:
    """ROOTPATHS ``lookup`` / DATAPATHS ``free_lookup`` rows for one path."""
    query = path.query
    pattern = query.pattern
    exact = pattern.is_single_segment and pattern.anchored
    lookup = (
        strategy.index.free_lookup
        if isinstance(strategy, DataPathsStrategy)
        else strategy.index.lookup
    )
    matches = lookup(pattern.trailing_segment, query.value, anchored=exact)
    return _rows_from_matches(
        matches, pattern, strategy._needed_positions(path), already_exact=exact
    )


def _merge(strategy: EvaluationStrategy, twig: TwigPattern) -> list[int]:
    """Every branch's rows through the operator-pipeline joiner."""
    analysis = TwigAnalysis.of(twig)
    per_match = isinstance(strategy, (RootPathsStrategy, DataPathsStrategy))
    plan = None if per_match else strategy._twig_plan(twig)
    relations = []
    for index, path in enumerate(analysis.paths):
        if plan is None:
            rows = _match_rows(strategy, path)
        else:
            rows = strategy._branch_rows(plan, plan.branches[index], path)
        relations.append(
            BranchRelation(analysis, path.needed_nodes, rows, label=path.query.describe())
        )
    return join_branches(analysis, relations, stats=strategy.stats)


# ----------------------------------------------------------------------
# DATAPATHS index-nested-loop plan
# ----------------------------------------------------------------------
def _evaluate_inl(
    strategy: DataPathsStrategy, analysis: TwigAnalysis, choice: DataPathsPlanChoice
) -> list[int]:
    outer = analysis.paths[choice.outer_index]
    others = [p for i, p in enumerate(analysis.paths) if i != choice.outer_index]
    outer_rows = _match_rows(strategy, outer)
    outer_columns = {node: i for i, node in enumerate(outer.needed_nodes)}
    output = analysis.output
    output_on_outer = output in outer_columns

    results: set[int] = set()
    for row in outer_rows:
        satisfied = True
        output_candidates: Optional[set[int]] = None
        for other in others:
            head_node = analysis.trunk_common_node(outer.join_point, other.join_point)
            head_id = row[outer_columns[head_node]]
            strategy.stats.join_probes += 1
            matches = _probe_below(strategy, head_id, other.query, head_node)
            if not matches:
                satisfied = False
                break
            if other.contains_output and not output_on_outer:
                extracted = _extract_node_ids(matches, other.query, head_node, output)
                if output_candidates is None:
                    output_candidates = extracted
                else:
                    output_candidates &= extracted
                if not output_candidates:
                    satisfied = False
                    break
        if not satisfied:
            continue
        if output_on_outer:
            results.add(row[outer_columns[output]])
        elif output_candidates is not None:
            results.update(output_candidates)
        else:
            # The output lies on the trunk below every probed branch's
            # attachment point; fetch it with one more BoundIndex probe
            # down the trunk from the deepest trunk node we hold.
            head_node = outer.join_point
            head_id = row[outer_columns[head_node]]
            trunk_below = tuple(
                analysis.trunk_nodes_between(head_node, output, inclusive_lower=True)
            )
            if not trunk_below:
                results.add(head_id)
                continue
            strategy.stats.join_probes += 1
            matches = _probe_nodes_below(strategy, head_id, trunk_below, value=None)
            for match, placement in matches:
                identifier = match.id_at(placement[len(trunk_below) - 1])
                if identifier is not None:
                    results.add(identifier)
    return sorted(results)


def _probe_below(
    strategy: DataPathsStrategy, head_id: int, query: PathQuery, head_node: TwigNode
) -> list[tuple[PathMatch, tuple[int, ...]]]:
    below = subpath_below(query.nodes, head_node)
    if below:
        return _probe_nodes_below(strategy, head_id, below, value=query.value)
    if query.value is None:
        return [(PathMatch(labels=(head_node.label,), ids=(head_id,)), (0,))]
    # The branch ends at the head with a value: probe the head's own row.
    own = strategy.index.bound_lookup(head_id, (), value=query.value, anchored=True)
    return [(match, ()) for match in own]


def _probe_nodes_below(
    strategy: DataPathsStrategy,
    head_id: int,
    below: tuple[TwigNode, ...],
    value: Optional[str],
) -> list[tuple[PathMatch, tuple[int, ...]]]:
    """BoundIndex probe for a chain of twig nodes below a head node.

    Returns ``(match, placement)`` pairs where the placement maps the
    below-node positions onto the match's label positions (the head
    label occupies position 0 of the match labels).
    """
    segments, anchored = split_segments(below)
    pattern = PathPattern(segments, anchored=False)
    trailing = segments[-1]
    exact = len(segments) == 1 and anchored
    matches = strategy.index.bound_lookup(head_id, pattern.labels if exact else trailing,
                                          value=value, anchored=exact)
    results: list[tuple[PathMatch, tuple[int, ...]]] = []
    for match in matches:
        if exact:
            placement = tuple(range(1, len(match.labels)))
            results.append((match, placement))
            continue
        # Verify the full below-pattern against the labels under the head.
        sub_labels = match.labels[1:]
        verify_pattern = PathPattern(segments, anchored=anchored)
        for placement in match_positions(verify_pattern, sub_labels):
            shifted = tuple(position + 1 for position in placement)
            results.append((match, shifted))
    return results


def _extract_node_ids(
    matches: list[tuple[PathMatch, tuple[int, ...]]],
    query: PathQuery,
    head_node: TwigNode,
    target: TwigNode,
) -> set[int]:
    below = subpath_below(query.nodes, head_node)
    target_index = None
    for index, node in enumerate(below):
        if node is target:
            target_index = index
            break
    if target_index is None:
        return set()
    extracted: set[int] = set()
    for match, placement in matches:
        identifier = match.id_at(placement[target_index])
        if identifier is not None:
            extracted.add(identifier)
    return extracted


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def reference_evaluate(strategy: EvaluationStrategy, twig: TwigPattern) -> list[int]:
    """``strategy``'s answer to ``twig``, evaluated (and charged) per row."""
    if isinstance(strategy, DataPathsStrategy):
        analysis = TwigAnalysis.of(twig)
        choice = strategy.last_plan = choose_datapaths_plan(
            analysis, strategy.index, force=strategy.force_plan
        )
        if choice.plan == "inl" and not analysis.is_single_path:
            return _evaluate_inl(strategy, analysis, choice)
    return _merge(strategy, twig)


def reference_execute(
    database, query: Union[str, TwigPattern], strategy: str = "rootpaths", **options
) -> tuple[list[int], dict[str, int]]:
    """``(ids, cost)`` of one query under one fixed strategy, per row.

    Measured like :meth:`~repro.planner.evaluator.TwigQueryEngine.execute`:
    missing indexes are built before the stats snapshot, and the cost is
    the counter delta around the evaluation alone.
    """
    engine = database.engine
    twig = parse_xpath(query) if isinstance(query, str) else query
    runner = engine.strategy(strategy, **options)
    before = engine.stats.snapshot()
    ids = reference_evaluate(runner, twig)
    return ids, engine.stats.diff(before)
