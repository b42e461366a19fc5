"""The twig query engine: strategy registry, execution and measurement.

:class:`TwigQueryEngine` owns a database, the indices built over it and
a stats collector.  It maps strategy names to
:class:`~repro.planner.strategies.EvaluationStrategy` instances,
building missing indices on demand, and returns
:class:`QueryResult` objects that carry both the answer and the logical
cost of producing it — the measurements every benchmark reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..errors import PlanningError
from ..obs.clock import now as _now
from ..indexes import INDEX_TYPES, PathIndex
from ..query.match import NaiveMatcher
from ..query.parser import parse_xpath
from ..query.twig import TwigPattern
from ..storage.stats import StatsCollector, weighted_cost
from ..xmltree.document import Document, XmlDatabase
from .strategies import (
    AccessSupportRelationsStrategy,
    DataGuidePlusEdgeStrategy,
    DataPathsStrategy,
    EdgeStrategy,
    EvaluationStrategy,
    IndexFabricPlusEdgeStrategy,
    JoinIndicesStrategy,
    RootPathsStrategy,
)

#: Strategy name -> (strategy class, index names it requires).
STRATEGY_TYPES: dict[str, type[EvaluationStrategy]] = {
    RootPathsStrategy.name: RootPathsStrategy,
    DataPathsStrategy.name: DataPathsStrategy,
    EdgeStrategy.name: EdgeStrategy,
    DataGuidePlusEdgeStrategy.name: DataGuidePlusEdgeStrategy,
    IndexFabricPlusEdgeStrategy.name: IndexFabricPlusEdgeStrategy,
    AccessSupportRelationsStrategy.name: AccessSupportRelationsStrategy,
    JoinIndicesStrategy.name: JoinIndicesStrategy,
}


def strategy_class(name: str) -> type[EvaluationStrategy]:
    """The strategy class registered under ``name``; PlanningError if none."""
    try:
        return STRATEGY_TYPES[name]
    except KeyError:
        raise PlanningError(
            f"unknown strategy {name!r}; known: {sorted(STRATEGY_TYPES)}"
        ) from None


#: Strategy names in the order the paper's figures list them.
DEFAULT_STRATEGIES = (
    "rootpaths",
    "datapaths",
    "edge",
    "dataguide_edge",
    "index_fabric_edge",
    "asr",
    "join_index",
)


@dataclass
class QueryResult:
    """The answer to one twig query plus its execution measurements."""

    strategy: str
    xpath: str
    ids: list[int]
    elapsed_seconds: float
    cost: dict[str, int] = field(default_factory=dict)
    #: True when the answer was served from a service-layer result cache
    #: (the cost counters then describe the original execution).
    cached: bool = False

    @property
    def cardinality(self) -> int:
        """Number of matching output nodes."""
        return len(self.ids)

    @property
    def logical_io(self) -> int:
        """B+-tree node reads plus heap page reads charged by the query."""
        return self.cost.get("btree_node_reads", 0) + self.cost.get("heap_page_reads", 0)

    @property
    def total_cost(self) -> int:
        """Weighted logical cost (the shared StatsCollector formula)."""
        return weighted_cost(self.cost)


class TwigQueryEngine:
    """Build indices over an :class:`XmlDatabase` and evaluate twig queries."""

    def __init__(
        self,
        db: XmlDatabase,
        stats: Optional[StatsCollector] = None,
    ) -> None:
        self.db = db
        self.stats = stats if stats is not None else StatsCollector()
        self.indexes: dict[str, PathIndex] = {}
        #: Options used for the most recent build of each index, replayed
        #: when an evicted index is built again on demand (so ablation
        #: switches like ``store_full_idlist=False`` survive rebuilds).
        self.build_options: dict[str, dict[str, object]] = {}
        #: The write epoch: advanced by one for every document write
        #: (:meth:`maintain_indexes`) and index build (:meth:`adopt_index`)
        #: this engine applies.  Whatever caches answers or choices is
        #: keyed on it or flushed when it moves.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def build_index(self, name: str, batches: Optional[dict] = None, **options) -> PathIndex:
        """Build (or rebuild) one index by its short name.

        The options are recorded so a later on-demand rebuild (for
        example after the index was evicted) reuses them instead of
        silently reverting to defaults.  ``batches`` shares the derived
        build between replicas (:meth:`~repro.indexes.base.PathIndex.build`).
        """
        try:
            index_class = INDEX_TYPES[name]
        except KeyError:
            raise PlanningError(
                f"unknown index {name!r}; known: {sorted(INDEX_TYPES)}"
            ) from None
        index = index_class(stats=self.stats, **options)
        index.build(self.db, batches)
        return self.adopt_index(name, index, options)

    def adopt_index(self, name: str, index: PathIndex, options: dict) -> PathIndex:
        """Install a built ``index`` as ``name``, built with ``options``."""
        self.indexes[name] = index
        self.build_options[name] = dict(options)
        self.epoch += 1
        return index

    def ensure_indexes_for(self, strategy_name: str, batches: Optional[dict] = None) -> None:
        """Build whatever indices the strategy needs and are missing.

        Missing indices are (re)built with the options recorded by their
        last explicit :meth:`build_index` call, defaults otherwise.
        """
        for index_name in strategy_class(strategy_name).required_indexes:
            if index_name not in self.indexes:
                self.build_index(index_name, batches=batches, **self.build_options.get(index_name, {}))

    def index_sizes_mb(self) -> dict[str, float]:
        """Sizes of every built index in MB (the Figure 9 row)."""
        return {name: index.estimated_size_mb() for name, index in self.indexes.items()}

    # ------------------------------------------------------------------
    # Document maintenance
    # ------------------------------------------------------------------
    def add_document(self, document: Document, batches: Optional[dict] = None) -> Document:
        """Add a document and maintain every built index.

        The document is numbered into the database, then routed to each
        built index's :meth:`~repro.indexes.base.PathIndex.update` —
        incremental insertion where the index supports it, a full
        rebuild otherwise — so no index keeps answering from the
        pre-add snapshot.  The write work is charged to the shared
        stats collector in the maintenance-cost currency
        (:func:`~repro.storage.stats.maintenance_cost`).  ``batches``
        shares the derived entries between replicas.
        """
        added = self.db.add_document(document)
        self.maintain_indexes(added, batches=batches)
        return added

    def remove_document(self, ref: Union[Document, str], batches: Optional[dict] = None) -> Document:
        """Remove a document (by object or unique name), maintaining indexes.

        The database detaches the document and reclaims its node-id
        span and tag refcounts
        (:meth:`~repro.xmltree.document.XmlDatabase.remove_document`);
        every built index then forgets it through
        :meth:`~repro.indexes.base.PathIndex.remove` — incremental
        deletion for ROOTPATHS, DATAPATHS, Edge and DataGuide, a full
        rebuild over the remaining documents for the rest.  Delete work
        is charged in the same maintenance-cost currency as adds.
        Returns the detached document.
        """
        removed = self.db.remove_document(ref)
        self.maintain_indexes(removed, removal=True, batches=batches)
        return removed

    def replace_document(
        self, ref: Union[Document, str], replacement: Document
    ) -> Document:
        """Replace one document: remove ``ref``, add ``replacement``.

        The replacement is numbered at the current id watermark (fresh
        ids), exactly as a remove followed by an add — which is what
        this is, through the same maintenance dispatcher both times.
        Returns the added replacement.
        """
        self.remove_document(ref)
        return self.add_document(replacement)

    def maintain_indexes(
        self, document: Document, removal: bool = False, batches: Optional[dict] = None
    ) -> dict[str, bool]:
        """The maintenance dispatcher: one document add or removal.

        Routes the mutation to every built index —
        :meth:`~repro.indexes.base.PathIndex.update` for adds,
        :meth:`~repro.indexes.base.PathIndex.remove` for removals — and
        returns a map of index name to whether it was maintained
        incrementally (``True``) or fell back to a full rebuild
        (``False``).  Advances :attr:`epoch`, so service-layer caches
        notice the write even when the facade is bypassed.
        """
        # First, so a maintenance pass that raises part-way still moves it.
        self.epoch += 1
        maintained = {}
        for name in sorted(self.indexes):
            index = self.indexes[name]
            if removal:
                index.remove(self.db, document, batches)
                maintained[name] = index.incremental_removal
            else:
                index.update(self.db, document, batches)
                maintained[name] = index.incremental
        return maintained

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def strategy(self, name: str, **options) -> EvaluationStrategy:
        """Instantiate a strategy, building its required indices if needed."""
        self.ensure_indexes_for(name)
        return strategy_class(name)(self.db, self.indexes, stats=self.stats, **options)

    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = "rootpaths",
        **strategy_options,
    ) -> QueryResult:
        """Evaluate a twig query with the given strategy.

        ``query`` is either an XPath-subset string or an already parsed
        :class:`TwigPattern`.
        """
        twig = parse_xpath(query) if isinstance(query, str) else query
        xpath = query if isinstance(query, str) else twig.to_xpath()
        runner = self.strategy(strategy, **strategy_options)
        return self.execute_prepared(runner, twig, xpath=xpath)

    def execute_prepared(
        self,
        runner: EvaluationStrategy,
        twig: TwigPattern,
        xpath: Optional[str] = None,
    ) -> QueryResult:
        """Evaluate an already-parsed twig with an existing strategy instance.

        This is the measurement core of :meth:`execute`; the service
        layer calls it directly to reuse cached twigs and per-strategy
        instances across queries.
        """
        before = self.stats.snapshot()
        started = _now()
        ids = runner.evaluate(twig)
        elapsed = _now() - started
        cost = self.stats.diff(before)
        return QueryResult(
            strategy=runner.name,
            xpath=xpath if xpath is not None else twig.to_xpath(),
            ids=ids,
            elapsed_seconds=elapsed,
            cost=cost,
        )

    def execute_all(
        self,
        query: Union[str, TwigPattern],
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
    ) -> dict[str, QueryResult]:
        """Run one query under several strategies (a figure's data points)."""
        return {name: self.execute(query, strategy=name) for name in strategies}

    def oracle_ids(self, query: Union[str, TwigPattern]) -> list[int]:
        """Ground-truth answer from the naive matcher (no index involved)."""
        twig = parse_xpath(query) if isinstance(query, str) else query
        return NaiveMatcher(self.db).match_ids(twig)
