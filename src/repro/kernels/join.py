"""Join kernels: the compiled branch join and the structural join.

:class:`CompiledJoin` is the hash-join plan every strategy joins its
branch rows with — "extract the ids of the branch point from the
IdLists, and do a join on the branch points" (Section 5.2.2) — run as
one batch pass per join step.  Its relation order, join/filter/
projection structure and :class:`~repro.storage.stats.StatsCollector`
charges are those of the per-row iterator plan kept as the reference in
``tests/oracle_legacy.py`` (``build_join_plan``), where every operator
charges per row:

* ``RowSource`` produces one tuple per row it feeds a consumer;
* ``HashJoin`` charges one ``join_probes`` per left row and one
  ``tuples_produced`` per emitted pair;
* each residual shared-column ``Filter`` charges one ``tuples_produced``
  per passing pair;
* each per-step ``Project``, the final output projection and the final
  ``Distinct`` charge one ``tuples_produced`` per row they pass.

The kernel computes those counts from grouped dictionaries in bulk;
``tests/test_kernels.py`` and ``tests/test_differential_fuzz.py`` pin
them equal to the reference's, every counter of every strategy.

:class:`CompiledTwig` bundles everything derivable from a parsed twig
alone — the analysis, per-branch needed positions and payload
extractors, and the compiled join — so strategies pay the planning
arithmetic once per twig, not once per query execution.

:func:`structural_join` is the stack-based interval join used by the
columnar matcher's trunk walk.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import PlanningError
from .columns import BranchExtractor


class _Step:
    """One compiled hash-join step (static positions, no names)."""

    __slots__ = (
        "relation",
        "left_join_pos",
        "right_join_pos",
        "filters",
        "keep",
    )

    def __init__(
        self,
        relation: int,
        left_join_pos: int,
        right_join_pos: int,
        filters: tuple[tuple[int, int], ...],
        keep: tuple[int, ...],
    ) -> None:
        self.relation = relation
        self.left_join_pos = left_join_pos
        self.right_join_pos = right_join_pos
        self.filters = filters
        self.keep = keep


class CompiledJoin:
    """The branch join plan compiled to positional batch passes.

    Compilation only reads column *names* (which are fully determined
    by the twig analysis), so one compiled join serves every execution
    of its twig regardless of document churn.  Plan errors are deferred
    to :meth:`run`, so they surface when a twig executes, not when it
    is compiled.
    """

    def __init__(
        self,
        analysis,
        branch_columns: Sequence[tuple[str, ...]],
        branch_labels: Sequence[str],
    ) -> None:
        #: Message of the plan error :meth:`run` raises (a fresh exception
        #: per call: compiled joins are shared between threads).
        self.error: Optional[str] = None
        self.first = 0
        self.out_pos = 0
        self.steps: list[_Step] = []
        output_column = analysis.column_name(analysis.output)
        with_output = [
            i for i in range(len(branch_columns)) if output_column in branch_columns[i]
        ]
        without = [
            i
            for i in range(len(branch_columns))
            if output_column not in branch_columns[i]
        ]
        if not with_output:
            self.error = "no branch relation contains the output node"
            return
        with_output.sort(key=lambda i: len(branch_columns[i]), reverse=True)
        ordered = with_output + without
        self.first = ordered[0]
        plan_cols = list(branch_columns[ordered[0]])
        joined = set(plan_cols)
        self.out_pos = plan_cols.index(output_column)
        pending = ordered[1:]
        while pending:
            pick = 0
            for index, candidate in enumerate(pending):
                if any(c in joined for c in branch_columns[candidate]):
                    pick = index
                    break
            relation = pending.pop(pick)
            cols = branch_columns[relation]
            shared = [c for c in cols if c in joined]
            if not shared:
                self.error = (
                    f"branch relation {branch_labels[relation]!r} shares no "
                    "join column with the plan"
                )
                return
            join_column = shared[-1]
            self.steps.append(
                _Step(
                    relation,
                    plan_cols.index(join_column),
                    cols.index(join_column),
                    tuple(
                        (plan_cols.index(c), cols.index(c)) for c in shared[:-1]
                    ),
                    tuple(i for i, c in enumerate(cols) if c not in shared),
                )
            )
            plan_cols.extend(c for c in cols if c not in shared)
            joined.update(cols)

    # ------------------------------------------------------------------
    def run(self, rows_by_relation: Sequence[list[tuple]], stats) -> list[int]:
        """Join the branch row lists; sorted distinct output ids."""
        if self.error is not None:
            raise PlanningError(self.error)
        rows = rows_by_relation[self.first]
        out_pos = self.out_pos
        produced = len(rows)  # the first relation's RowSource
        probes = 0
        steps = self.steps
        if not steps:
            distinct = {row[out_pos] for row in rows}
            stats.tuples_produced += produced + len(rows) + len(distinct)
            return sorted(distinct)
        last = len(steps) - 1
        result: set = set()
        final_count = 0
        for step_index, step in enumerate(steps):
            right_rows = rows_by_relation[step.relation]
            produced += len(right_rows)  # RowSource feeding the build side
            probes += len(rows)  # one HashJoin probe per left row
            final = step_index == last
            jpos = step.right_join_pos
            lpos = step.left_join_pos
            keep = step.keep
            if not step.filters:
                if final:
                    counts: dict = {}
                    get = counts.get
                    for r in right_rows:
                        key = r[jpos]
                        counts[key] = get(key, 0) + 1
                    emitted = 0
                    add = result.add
                    for left in rows:
                        c = get(left[lpos])
                        if c:
                            emitted += c
                            add(left[out_pos])
                    produced += emitted * 2  # HashJoin emits + step Project
                    final_count = emitted
                elif keep:
                    groups: dict = {}
                    get = groups.get
                    for r in right_rows:
                        key = r[jpos]
                        projected = tuple(r[i] for i in keep)
                        bucket = get(key)
                        if bucket is None:
                            groups[key] = [projected]
                        else:
                            bucket.append(projected)
                    emitted = 0
                    next_rows: list[tuple] = []
                    append = next_rows.append
                    for left in rows:
                        bucket = get(left[lpos])
                        if bucket is not None:
                            emitted += len(bucket)
                            for projected in bucket:
                                append(left + projected)
                    produced += emitted * 2
                    rows = next_rows
                else:
                    counts = {}
                    get = counts.get
                    for r in right_rows:
                        key = r[jpos]
                        counts[key] = get(key, 0) + 1
                    emitted = 0
                    next_rows = []
                    for left in rows:
                        c = get(left[lpos])
                        if c:
                            emitted += c
                            next_rows += [left] * c
                    produced += emitted * 2
                    rows = next_rows
            else:
                groups = {}
                get = groups.get
                for r in right_rows:
                    key = r[jpos]
                    bucket = get(key)
                    if bucket is None:
                        groups[key] = [r]
                    else:
                        bucket.append(r)
                filters = step.filters
                passed = [0] * (len(filters) + 1)
                next_rows = []
                append = next_rows.append
                add = result.add
                for left in rows:
                    surviving = get(left[lpos])
                    if not surviving:
                        continue
                    passed[0] += len(surviving)
                    for fpos, (fl, fr) in enumerate(filters):
                        want = left[fl]
                        surviving = [r for r in surviving if r[fr] == want]
                        passed[fpos + 1] += len(surviving)
                        if not surviving:
                            break
                    if not surviving:
                        continue
                    if final:
                        add(left[out_pos])
                    else:
                        for r in surviving:
                            append(left + tuple(r[i] for i in keep))
                produced += sum(passed) + passed[-1]  # filters + step Project
                if final:
                    final_count = passed[-1]
                else:
                    rows = next_rows
        produced += final_count + len(result)  # output Project + Distinct
        stats.tuples_produced += produced
        stats.join_probes += probes
        return sorted(result)


class CompiledBranch:
    """Per-branch compiled state: needed positions and the extractor.

    Holds no twig node and no value -- the executing plan's analysis
    path carries those -- so one instance serves every twig of a shape.
    """

    __slots__ = (
        "columns",
        "needed_positions",
        "pattern",
        "exact",
        "trailing",
        "extractor",
    )

    def __init__(self, analysis, path, bound: bool) -> None:
        query = path.query
        self.columns = tuple(analysis.column_name(n) for n in path.needed_nodes)
        self.needed_positions = tuple(
            query.position_of(node) for node in path.needed_nodes
        )
        pattern = query.pattern
        self.pattern = pattern
        self.exact = pattern.is_single_segment and pattern.anchored
        self.trailing = pattern.trailing_segment
        self.extractor = BranchExtractor(
            pattern, self.needed_positions, self.exact, bound=bound
        )


class CompiledTwig:
    """Everything derivable from a parsed twig alone, computed once.

    Holds the :class:`~repro.planner.analysis.TwigAnalysis` (passed in
    by the strategy so this module stays independent of the planner
    package), one :class:`CompiledBranch` per path of the analysis and
    the :class:`CompiledJoin` over their column layouts.  The twig
    object keeps one instance per payload flavour (``bound``) and every
    strategy instance of every shard and replica runs it; nothing here
    depends on the document set, the indexes or the strategy that asked
    first.  Only :attr:`analysis` knows the twig's nodes and values: a
    twig bound from a shape runs the shape's branches (with their warm
    placement memos), join and INL probe layouts under its own analysis
    (:meth:`bound_to`).
    """

    def __init__(self, analysis, bound: bool = False) -> None:
        self.analysis = analysis
        self.branches = [
            CompiledBranch(analysis, path, bound) for path in analysis.paths
        ]
        self.join = CompiledJoin(
            analysis,
            [branch.columns for branch in self.branches],
            [path.query.describe() for path in analysis.paths],
        )
        #: Index-nested-loop probe specs, filled lazily by the
        #: DATAPATHS strategy per chosen outer branch.
        self.inl_plans: dict[int, object] = {}

    def bound_to(self, analysis) -> "CompiledTwig":
        """This plan under ``analysis``: this plan's analysis re-pointed
        at a twig of the same shape."""
        plan = object.__new__(CompiledTwig)
        plan.analysis = analysis
        plan.branches = self.branches
        plan.join = self.join
        plan.inl_plans = self.inl_plans
        return plan


# ----------------------------------------------------------------------
# Structural join
# ----------------------------------------------------------------------
def structural_join(
    ancestors: Sequence[int],
    candidates: Sequence[int],
    ids: Sequence[int],
    ends: Sequence[int],
) -> list[int]:
    """Candidates with at least one proper ancestor among ``ancestors``.

    Both inputs are positions sorted by start (``ids``); the interval
    family must be laminar (tree subtree spans: any two intervals nest
    or are disjoint).  A single merge pass maintains the stack of open
    ancestor intervals; a candidate matches iff the stack is non-empty
    when its start is reached — the classic stack-based structural join.
    """
    out: list[int] = []
    append = out.append
    stack: list[int] = []
    i = 0
    n = len(ancestors)
    for candidate in candidates:
        start = ids[candidate]
        while i < n and ids[ancestors[i]] < start:
            opening = ancestors[i]
            while stack and ends[stack[-1]] < ids[opening]:
                stack.pop()
            stack.append(opening)
            i += 1
        while stack and ends[stack[-1]] < start:
            stack.pop()
        if stack:
            append(candidate)
    return out
