"""The query-serving layer: plan caching, strategy reuse, auto plans, batches.

:class:`~repro.planner.evaluator.TwigQueryEngine.execute` is built for
one-off measurements: every call re-parses the XPath, re-checks index
availability and instantiates a fresh strategy object.  Under a
repeated-query serving workload all of that is pure overhead.
:class:`QueryService` wraps an engine with the pieces a server needs:

* an LRU **plan cache** of :class:`~repro.query.twig.TwigShape` objects
  keyed on the literal-lifted query text, bound per request,
* **reusable strategy instances**, one per (strategy, options) pair,
  instead of a fresh object per query,
* a ``strategy="auto"`` mode that asks the optimizer
  (:func:`~repro.planner.optimizer.choose_strategy`, fed by the index
  catalog's ``estimate_matches`` statistics) for the estimated-cheapest
  strategy per query,
* an optional LRU **result cache** (with an optional TTL admission
  policy), invalidated whenever the document set or the built indexes
  change,
* :meth:`~QueryService.execute_batch`, which runs many queries under a
  single shared stats snapshot and reports batch-level totals.

The service watches a generation fingerprint of the database and the
engine's index-build and index-maintenance counters, so results cached
before an ``add_document`` / ``remove_document`` / ``build_index`` can
never be served afterwards even when the mutation bypassed the
service's own :meth:`~QueryService.invalidate`.  The fingerprint
distinguishes two kinds of change (see ``docs/ARCHITECTURE.md``,
"Generations and invalidation"):

* **incremental update** (a document was added, removed or replaced
  and the built indexes absorbed the change in place): cached results
  and optimizer choices are stale and dropped, but parsed plans and
  strategy instances stay — a document mutation changes answers, not
  the query language or the index set;
* **rebuild** (an index was built or rebuilt): everything is dropped,
  including the plan cache and the reusable strategy instances.

Every public entry point runs under one re-entrant lock, so a service
(and therefore one shard of a
:class:`~repro.shard.ShardedQueryService`) can be hammered by reader
threads while another thread adds documents: execution, cache
invalidation and index maintenance serialize per service, and the
sharded tier gets its parallelism *across* shards, each with its own
lock, engine and stats collector.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

from ..errors import PlanningError
from ..obs import Telemetry
from ..planner.evaluator import QueryResult, STRATEGY_TYPES, TwigQueryEngine
from ..planner.analysis import TwigAnalysis
from ..planner.optimizer import AUTO_CANDIDATES, StrategyChoice, choose_strategy
from ..planner.strategies import EvaluationStrategy
from ..query.twig import TwigPattern
from ..xmltree.document import Document
from .base import AUTO_STRATEGY, BatchResult, ServingFacade
from .cache import LRUCache

__all__ = ["AUTO_STRATEGY", "BatchResult", "QueryService"]


class QueryService(ServingFacade):
    """A serving facade over :class:`TwigQueryEngine` for repeated queries."""

    def __init__(
        self,
        engine: TwigQueryEngine,
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        result_cache_ttl: Optional[float] = None,
        auto_candidates: Sequence[str] = AUTO_CANDIDATES,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.engine = engine
        #: The observability hub.  A standalone service gets its own;
        #: shard-embedded services receive the stack-wide hub so every
        #: layer's spans and events land in one trace tree and one log.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.plan_cache = LRUCache(
            plan_cache_size, on_clear=self._cache_clear_listener("plan")
        )
        self.result_cache = LRUCache(
            result_cache_size,
            ttl_seconds=result_cache_ttl,
            on_clear=self._cache_clear_listener("result"),
        )
        #: Off: ``execute`` here is already one lookup in ``result_cache``,
        #: so there is no gathered answer to keep above it.
        self.answer_cache = LRUCache(0)
        #: Memoised StrategyChoice per normalized query for :meth:`choose`
        #: callers; flushed with the result cache (a choice depends on the
        #: built-index generation), which is why execution goes around it.
        self.choice_cache = LRUCache(
            plan_cache_size, on_clear=self._cache_clear_listener("choice")
        )
        self.auto_candidates = tuple(auto_candidates)
        for name in self.auto_candidates:
            if name not in STRATEGY_TYPES:
                raise ValueError(
                    f"unknown auto candidate {name!r}; known: {sorted(STRATEGY_TYPES)}"
                )
        self._strategies: dict[tuple, EvaluationStrategy] = {}
        self._generation: Optional[tuple] = None
        #: Serializes execution against document adds and index builds.
        self._lock = threading.RLock()
        self.invalidations = 0
        #: How many invalidations only dropped results (incremental
        #: document mutations) vs flushed everything (index rebuilds).
        self.result_invalidations = 0
        self.full_invalidations = 0
        #: Document-mutation counters surfaced by :meth:`describe` so
        #: benchmarks can assert on maintenance activity.
        self.documents_added = 0
        self.documents_removed = 0
        self.documents_replaced = 0
        self.auto_choice_counts: dict[str, int] = {}
        self.last_choice: Optional[StrategyChoice] = None

    def _cache_clear_listener(self, cache_name: str):
        """An ``on_clear`` callback publishing cache-invalidation events.

        Empty clears are not events — invalidating an already-empty
        cache is bookkeeping, not an operational transition worth a log
        record.
        """

        def on_clear(dropped: int) -> None:
            if dropped:
                self.telemetry.event(
                    "cache-invalidated", cache=cache_name, entries=dropped
                )

        return on_clear

    # ------------------------------------------------------------------
    # Mutation (locked against execution)
    # ------------------------------------------------------------------
    def add_document(self, document: Document) -> Document:
        """Add a document through the engine under the service lock.

        Built indexes absorb the document incrementally where they can
        (see :meth:`TwigQueryEngine.add_document`); cached results and
        optimizer choices are dropped, parsed plans and strategy
        instances survive.  Readers in other threads never observe the
        half-maintained state because they serialize on the same lock.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="add-document"
        ):
            with self._lock:
                added = self.engine.add_document(document)
                self.documents_added += 1
                self.invalidate(rebuilt=False)
                return added

    def remove_document(self, ref: Union[Document, str]) -> Document:
        """Remove a document through the engine under the service lock.

        Built indexes forget the document incrementally where they can
        (see :meth:`TwigQueryEngine.remove_document`).  A removal is an
        incremental update to the generation model: cached results and
        optimizer choices are dropped, parsed plans and strategy
        instances survive — removing data changes answers, not plans.
        Returns the detached document.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="remove-document"
        ):
            with self._lock:
                removed = self.engine.remove_document(ref)
                self.documents_removed += 1
                self.invalidate(rebuilt=False)
                return removed

    def replace_document(
        self, ref: Union[Document, str], replacement: Document
    ) -> Document:
        """Replace a document (remove + add) atomically under the lock.

        Readers serialize on the service lock, so no query can observe
        the half-replaced state (old version gone, new version not yet
        added).  One incremental invalidation covers both halves.
        Returns the added replacement.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="replace-document"
        ):
            with self._lock:
                added = self.engine.replace_document(ref, replacement)
                self.documents_replaced += 1
                self.invalidate(rebuilt=False)
                return added

    def build_index(self, name: str, **options):
        """Build (or rebuild) an index under the service lock.

        Flushes every cache tier: a rebuild invalidates results, plans,
        optimizer choices and strategy instances alike.
        """
        with self.telemetry.span(
            "index-maintain",
            stats=self.engine.stats,
            operation="build-index",
            index=name,
        ):
            with self._lock:
                index = self.engine.build_index(name, **options)
                self.invalidate(rebuilt=True)
                return index

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, rebuilt: bool = True) -> None:
        """Drop stale caches after a document or index change.

        ``rebuilt=True`` (an index was built or rebuilt) flushes
        everything: results, optimizer choices, parsed plans and the
        reusable strategy instances.  ``rebuilt=False`` (a document was
        added, removed or replaced and the indexes were maintained in
        place) drops only the result and choice caches — parsed plans
        and strategy instances remain valid.  A ``rebuilt=False`` call
        that finds an
        unobserved index build in the generation fingerprint escalates
        to a full flush — adopting the build silently would skip the
        rebuild contract.
        """
        with self._lock:
            current = self._current_generation()
            if (
                not rebuilt
                and self._generation is not None
                and current[1] != self._generation[1]
            ):
                rebuilt = True
            self._flush(rebuilt)
            self._generation = current

    def _flush(self, rebuilt: bool) -> None:
        self.result_cache.clear()
        self.choice_cache.clear()
        if rebuilt:
            self.plan_cache.clear()
            self._strategies.clear()
            self.full_invalidations += 1
        else:
            self.result_invalidations += 1
        self.invalidations += 1

    def _current_generation(self) -> tuple:
        return (
            self.engine.db.revision,
            self.engine.build_count,
            self.engine.update_count,
        )

    def generation(self) -> tuple:
        """The service's change fingerprint, read lock-free.

        Deliberately *not* taken under the service lock: the front
        door's event loop reads it on every request, and queuing behind
        an executing query would serialize the whole front door on one
        shard's lock.  The components are single attribute reads, each
        updated before its write returns to the caller, so any
        client-visible write is reflected in every later ``generation``
        read — a torn read during a racing write can only produce a
        transient extra value, which merely splits one coalescing group
        in two (correct, just less shared).
        """
        return self._current_generation()

    def _check_generation(self) -> None:
        current = self._current_generation()
        if self._generation is None:
            self._generation = current
        elif current != self._generation:
            # A build_count move means an index was (re)built; a move in
            # the database revision or the maintenance counter alone is
            # an incremental update.
            self._flush(rebuilt=current[1] != self._generation[1])
            self._generation = current

    # ------------------------------------------------------------------
    # Strategy reuse and auto choice
    # ------------------------------------------------------------------
    def strategy_instance(
        self, name: str, **strategy_options
    ) -> EvaluationStrategy:
        """A reusable strategy instance (required indexes built on demand)."""
        with self._lock:
            self.engine.ensure_indexes_for(name)
            # Pin the engine's kernel default into the options so cached
            # instances are keyed by the kernel flag they run with.
            strategy_options.setdefault("use_kernels", self.engine.use_kernels)
            key = self._options_key(name, strategy_options)
            if key is None:
                return self.engine.strategy(name, **strategy_options)
            instance = self._strategies.get(key)
            if instance is None:
                strategy_class = STRATEGY_TYPES[name]
                instance = strategy_class(
                    self.engine.db,
                    self.engine.indexes,
                    stats=self.engine.stats,
                    **strategy_options,
                )
                self._strategies[key] = instance
            return instance

    def choose(self, query: Union[str, TwigPattern]) -> StrategyChoice:
        """The optimizer's strategy pick for one query (``auto`` mode).

        Candidates are restricted to strategies whose indexes are
        already built; with none built, the first candidate's indexes
        are built (with their recorded options) and it is chosen.
        Choices are memoised per normalized query until the document
        set or the built indexes change.
        """
        with self._lock:
            self._check_generation()
            twig = self.plan(query)
            choice = self.choice_cache.get(twig.key)
            if choice is None:
                choice = self._choose(twig)
                self.choice_cache.put(twig.key, choice)
            self.last_choice = choice
            return choice

    def _choose(self, twig: TwigPattern) -> StrategyChoice:
        candidates = self._available_candidates()
        catalog = self._catalog_index()
        if catalog is None:
            if len(candidates) == 1:
                # Nothing to rank, and no statistics to rank with: the
                # single viable candidate wins without building anything.
                return StrategyChoice(candidates[0], {candidates[0]: 0.0}, None)
            raise PlanningError(
                "strategy='auto' needs the catalog statistics of a built "
                "ROOTPATHS or DATAPATHS index to rank "
                f"{sorted(candidates)}; build one of them first"
            )
        return choose_strategy(
            TwigAnalysis.of(twig),
            catalog,
            candidates=candidates,
            indexes=self.engine.indexes,
        )

    def _available_candidates(self) -> tuple[str, ...]:
        available = tuple(
            name
            for name in self.auto_candidates
            if all(
                index_name in self.engine.indexes
                for index_name in STRATEGY_TYPES[name].required_indexes
            )
        )
        if available:
            return available
        fallback = self.auto_candidates[0]
        self.engine.ensure_indexes_for(fallback)
        return (fallback,)

    def _catalog_index(self):
        """A built index carrying ``estimate_matches`` statistics, if any.

        Never builds one: silently constructing a full index just to
        read its statistics would be an expensive surprise.
        """
        for name in ("rootpaths", "datapaths"):
            index = self.engine.indexes.get(name)
            if index is not None:
                return index
        return None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        query_id: Optional[str] = None,
        **strategy_options,
    ) -> QueryResult:
        """Evaluate one query through the caches and the optimizer.

        ``strategy`` is a fixed strategy name or ``"auto"``.  Cached
        answers come back with ``cached=True`` and the cost counters of
        the execution that produced them.  ``query_id`` (optional)
        names the request in the query's trace and slow-query entries;
        it never enters a cache key.
        """
        attributes = {"tier": "engine"}
        if isinstance(query, str):
            attributes["xpath"] = query
        if query_id is not None:
            attributes["query_id"] = query_id
        with self.telemetry.span(
            "query", stats=self.engine.stats, **attributes
        ) as root:
            result = self._execute_traced(
                root, query, strategy, use_result_cache, strategy_options
            )
            root.annotate(
                strategy=result.strategy, cached=result.cached, ids=len(result.ids)
            )
        self.telemetry.record_query(
            "engine", result.strategy, root.duration_seconds, result.cached
        )
        return result

    def _execute_traced(
        self,
        root,
        query: Union[str, TwigPattern],
        strategy: str,
        use_result_cache: bool,
        strategy_options: dict,
    ) -> QueryResult:
        with self._lock:
            self._check_generation()
            with self.telemetry.span("plan"):
                twig = self.plan(query)
            # A text caller's own spelling names the request; the plan,
            # result and choice caches all key on the twig's one
            # normalised string.
            xpath = query if isinstance(query, str) else twig.source
            root.annotate(xpath=xpath)
            cache_key = self._result_key(twig.key, strategy, strategy_options)
            if use_result_cache and cache_key is not None:
                with self.telemetry.span("cache-lookup") as lookup:
                    hit = self.result_cache.get(cache_key)
                    lookup.annotate(outcome="hit" if hit is not None else "miss")
                if hit is not None:
                    return self._copy_result(hit, cached=True)
            result = self._execute_uncached(twig, xpath, strategy, strategy_options)
            # An on-demand index build during execution bumps the
            # generation; the result reflects the post-build state, so
            # adopt it before caching rather than letting the next call
            # flush this entry.
            self._generation = self._current_generation()
            if use_result_cache and cache_key is not None:
                # Cache a private copy: the caller owns the returned object
                # and may mutate its ids/cost without poisoning later hits.
                self.result_cache.put(cache_key, self._copy_result(result))
            return result

    def _execute_uncached(
        self, twig: TwigPattern, xpath: str, strategy: str, strategy_options: dict
    ) -> QueryResult:
        if strategy == AUTO_STRATEGY:
            with self.telemetry.span("choose") as chosen:
                # Not through ``choice_cache``: it is flushed with the
                # result cache, so after a result miss it cannot hit.
                choice = self.last_choice = self._choose(twig)
                strategy = choice.strategy
                chosen.annotate(strategy=strategy)
            self.auto_choice_counts[strategy] = (
                self.auto_choice_counts.get(strategy, 0) + 1
            )
            if (
                strategy == "datapaths"
                and choice.datapaths_plan is not None
                and "force_plan" not in strategy_options
            ):
                # Execute the plan the estimate priced; left to itself the
                # strategy would re-choose with the paper's flat probe
                # charge and could diverge from the costed plan.
                strategy_options = dict(strategy_options)
                strategy_options["force_plan"] = choice.datapaths_plan.plan
        runner = self.strategy_instance(strategy, **strategy_options)
        with self.telemetry.span("execute", strategy=strategy):
            return self.engine.execute_prepared(runner, twig, xpath=xpath)

    # ------------------------------------------------------------------
    # Stats hooks for the shared batch loop
    # ------------------------------------------------------------------
    def _stats_snapshot(self):
        return self.engine.stats.snapshot()

    def _stats_diff(self, before) -> dict[str, int]:
        return self.engine.stats.diff(before)

    # ------------------------------------------------------------------
    # Observability scrape hooks
    # ------------------------------------------------------------------
    def _activity_counters(self) -> dict[str, int]:
        return self.engine.stats.snapshot()

    def _cache_reports(self) -> dict[str, dict[str, object]]:
        with self._lock:
            return {
                "plan": self.plan_cache.describe(),
                "result": self.result_cache.describe(),
                "choice": self.choice_cache.describe(),
            }

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Cache and optimizer counters (for logs and benchmarks)."""
        with self._lock:
            return {
                "telemetry": self.telemetry.describe(),
                "plan_cache": self._cache_report(self.plan_cache),
                "result_cache": self._cache_report(self.result_cache),
                "choice_cache": self._cache_report(self.choice_cache),
                "strategy_instances": len(self._strategies),
                "auto_choice_counts": dict(self.auto_choice_counts),
                "invalidations": self.invalidations,
                "result_invalidations": self.result_invalidations,
                "full_invalidations": self.full_invalidations,
                "maintenance": {
                    "documents_added": self.documents_added,
                    "documents_removed": self.documents_removed,
                    "documents_replaced": self.documents_replaced,
                    "index_builds": self.engine.build_count,
                    "index_updates": self.engine.update_count,
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService(plans={len(self.plan_cache)}, "
            f"results={len(self.result_cache)}, "
            f"strategies={len(self._strategies)})"
        )
