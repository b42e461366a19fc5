"""Top-level facade: :class:`TwigIndexDatabase`.

This is the class most examples and downstream users interact with.
It bundles an :class:`~repro.xmltree.document.XmlDatabase`, a
:class:`~repro.planner.evaluator.TwigQueryEngine` and convenience
loaders so that the whole pipeline — parse XML, build an index family
member, run twig queries with any evaluation strategy, compare sizes
and costs — is a handful of lines:

>>> from repro import TwigIndexDatabase
>>> db = TwigIndexDatabase.from_xml("<book><title>XML</title></book>")
>>> db.build_index("rootpaths")
>>> db.query("/book/title", strategy="rootpaths").ids
[2]

For serving workloads, the attached :class:`~repro.service.QueryService`
caches parsed plans and results, reuses strategy instances and picks the
cheapest strategy per query (``strategy="auto"``); batches run under one
shared stats snapshot:

>>> batch = db.execute_batch(["/book/title", "/book/title"])
>>> [result.ids for result in batch]
[[2], [2]]
>>> batch.cache_hits  # the repeat was served from the result cache
1

Documents can be removed and replaced as well as added
(:meth:`TwigIndexDatabase.remove_document` /
:meth:`TwigIndexDatabase.replace_document`); built indexes are
maintained incrementally in both directions.  ``docs/ARCHITECTURE.md``
maps the layers this facade bundles; ``README.md`` has a runnable tour.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from .obs import Telemetry, Trace
from .planner.evaluator import DEFAULT_STRATEGIES, QueryResult, TwigQueryEngine
from .query.match import NaiveMatcher
from .query.parser import parse_xpath
from .query.twig import TwigPattern
from .service import AUTO_STRATEGY, BatchResult, QueryService
from .storage.stats import StatsCollector
from .xmltree.document import Document, XmlDatabase
from .xmltree.parser import parse_file, parse_string


class TwigIndexDatabase:
    """An XML database plus the paper's index family and query engine."""

    def __init__(
        self,
        db: Optional[XmlDatabase] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.db = db if db is not None else XmlDatabase()
        self.stats = StatsCollector()
        self.engine = TwigQueryEngine(self.db, stats=self.stats)
        self.service = QueryService(self.engine, telemetry=telemetry)
        #: The stack's telemetry hub (shared with the service layer);
        #: ``docs/OBSERVABILITY.md`` documents the span taxonomy and
        #: metric names it exposes.
        self.telemetry = self.service.telemetry

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, text: str, name: str = "", **options) -> "TwigIndexDatabase":
        """Build a database from a single XML string."""
        instance = cls(**options)
        instance.load_xml(text, name=name)
        return instance

    @classmethod
    def from_documents(
        cls, documents: Iterable[Document], **options
    ) -> "TwigIndexDatabase":
        """Build a database from already-parsed documents."""
        instance = cls(**options)
        for document in documents:
            instance.db.add_document(document)
        return instance

    def load_xml(self, text: str, name: str = "") -> Document:
        """Parse and add one XML document."""
        return self.add_document(parse_string(text, name=name))

    def load_file(self, path: str, name: str = "") -> Document:
        """Parse and add one XML file."""
        return self.add_document(parse_file(path, name=name or path))

    def add_document(self, document: Document) -> Document:
        """Add an already-parsed document, maintaining every built index.

        Built indexes absorb the new document through
        :meth:`~repro.indexes.base.PathIndex.update` (incremental
        insertion for ROOTPATHS, DATAPATHS, Edge and DataGuide; full
        rebuild for the rest), so queries keep seeing the whole
        database.  The service layer drops cached results and optimizer
        choices but keeps parsed plans and strategy instances — an add
        changes answers, not query plans.  The whole mutation runs
        under the service lock, so concurrent readers serialize against
        it instead of observing half-maintained indexes.
        """
        return self.service.add_document(document)

    def remove_document(self, ref: Union[Document, str]) -> Document:
        """Remove a document by name (or object), maintaining every index.

        The mirror image of :meth:`add_document`: the database reclaims
        the document's node-id span and tag refcounts, and built
        indexes forget it through
        :meth:`~repro.indexes.base.PathIndex.remove` (incremental
        deletion for ROOTPATHS, DATAPATHS, Edge and DataGuide; full
        rebuild for the rest).  Cached results are dropped, parsed
        plans survive.  Returns the detached document.
        """
        return self.service.remove_document(ref)

    def replace_document(
        self,
        ref: Union[Document, str],
        replacement: Union[Document, str],
        name: Optional[str] = None,
    ) -> Document:
        """Replace a document with new content (remove + add, one lock).

        ``replacement`` is a parsed :class:`Document` or an XML string;
        a string is parsed under ``name`` (default: the replaced
        document's name, so document-scoped workflows keep working).
        The replacement is numbered at the current id watermark — ids
        are never reused.  Returns the added document.
        """
        old = self.db.resolve_document(ref)
        if isinstance(replacement, str):
            replacement = parse_string(
                replacement, name=name if name is not None else old.name
            )
        return self.service.replace_document(old, replacement)

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def build_index(self, name: str, **options):
        """Build one index of the family by short name.

        Known names: ``rootpaths``, ``datapaths``, ``edge``,
        ``dataguide``, ``index_fabric``, ``asr``, ``join_index``.
        Once built, an index is kept current by :meth:`add_document`.
        Rebuilding an index flushes every service-layer cache (results,
        plans, optimizer choices, strategy instances); the build runs
        under the service lock so concurrent readers never probe a
        half-built index.
        """
        return self.service.build_index(name, **options)

    def build_all_indexes(self) -> None:
        """Build every index required by the default strategy set."""
        for strategy in DEFAULT_STRATEGIES:
            self.engine.ensure_indexes_for(strategy)

    def index_sizes_mb(self) -> dict[str, float]:
        """Sizes (MB) of every index built so far."""
        return self.engine.index_sizes_mb()

    @property
    def indexes(self):
        """Mapping of index name to built index object."""
        return self.engine.indexes

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def parse(self, xpath: str) -> TwigPattern:
        """Parse an XPath-subset string into a twig pattern."""
        return parse_xpath(xpath)

    def query(
        self,
        xpath: Union[str, TwigPattern],
        strategy: str = "rootpaths",
        **strategy_options,
    ) -> QueryResult:
        """Evaluate a twig query (indices are built on demand).

        ``strategy="auto"`` lets the optimizer pick the estimated-
        cheapest strategy (via the service layer); fixed strategy names
        execute directly and unmeasured by any cache, as the benchmarks
        expect.
        """
        if strategy == AUTO_STRATEGY:
            return self.service.execute(
                xpath, strategy=strategy, use_result_cache=False, **strategy_options
            )
        return self.engine.execute(xpath, strategy=strategy, **strategy_options)

    def execute_batch(
        self,
        queries: Iterable[Union[str, TwigPattern]],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        **strategy_options,
    ) -> BatchResult:
        """Evaluate a batch of queries through the service layer.

        Plans and results are cached across the batch (and across
        batches), strategy instances are reused, and the returned
        :class:`~repro.service.BatchResult` carries one shared stats
        snapshot for the whole batch.
        """
        return self.service.execute_batch(
            queries,
            strategy=strategy,
            use_result_cache=use_result_cache,
            **strategy_options,
        )

    def query_all_strategies(
        self,
        xpath: Union[str, TwigPattern],
        strategies: Sequence[str] = DEFAULT_STRATEGIES,
    ) -> dict[str, QueryResult]:
        """Evaluate one query under several strategies."""
        return self.engine.execute_all(xpath, strategies=strategies)

    def oracle(self, xpath: Union[str, TwigPattern]) -> list[int]:
        """Index-free ground truth (naive tree matching)."""
        return self.engine.oracle_ids(xpath)

    def matcher(self) -> NaiveMatcher:
        """The naive tree-walking matcher (the oracle) bound to this database.

        :class:`~repro.query.match.ColumnarMatcher` is the same matcher
        as batch passes over the flattened node table.
        """
        return NaiveMatcher(self.db)

    # ------------------------------------------------------------------
    def node(self, node_id: int):
        """Resolve a node id returned by a query back to its tree node."""
        return self.db.node(node_id)

    def document_spans(self) -> list[tuple[str, int, int]]:
        """Per-document ``(name, first_id, end_id)`` node-id spans.

        The global id intervals the sharded tier's differential tests
        and document-scoped queries compare against; see
        :meth:`~repro.xmltree.document.XmlDatabase.document_spans`.
        """
        return self.db.document_spans()

    # ------------------------------------------------------------------
    # Observability (see docs/OBSERVABILITY.md)
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, object]:
        """Snapshot of every metric family (delegates to the service)."""
        return self.service.metrics()

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of the metric families."""
        return self.service.metrics_text()

    def traces(self, last: Optional[int] = None) -> list[Trace]:
        """Recently finished query traces, oldest first."""
        return self.service.traces(last=last)

    def slow_queries(self, last: Optional[int] = None) -> list[Trace]:
        """Traces that exceeded the slow-query threshold, oldest first."""
        return self.service.slow_queries(last=last)

    def describe(self) -> dict[str, object]:
        """Summary statistics of the loaded data (handy in examples)."""
        return {
            "documents": len(self.db.documents),
            "structural_nodes": self.db.node_count,
            "value_nodes": self.db.value_count,
            "max_depth": self.db.max_depth,
            "distinct_tags": len(self.db.tags),
            "distinct_schema_paths": self.db.distinct_schema_path_count(),
            "data_size_mb": self.db.estimated_data_size_bytes() / (1024.0 * 1024.0),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TwigIndexDatabase(documents={len(self.db.documents)}, "
            f"nodes={self.db.node_count}, indexes={sorted(self.indexes)})"
        )
