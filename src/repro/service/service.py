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
  policy), flushed whenever the engine's write epoch moves,
* :meth:`~QueryService.execute_batch`, which runs many queries under a
  single shared stats snapshot and reports batch-level totals.

The service's fingerprint is the engine's write ``epoch``
(:class:`~repro.planner.evaluator.TwigQueryEngine`), which every
document write and index build advances by one.  Reads and writes flush
the result and choice caches when it moved, so nothing cached before an
``add_document`` / ``remove_document`` / ``build_index`` is served
afterwards, even when the write bypassed the service.  Plan shapes and
strategy instances are never flushed: a strategy reads its indexes from
the engine's one dict at evaluation time, and a compiled plan depends
on the query's labels alone (see ``docs/ARCHITECTURE.md``, "Generations
and invalidation").

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
from ..planner.evaluator import QueryResult, STRATEGY_TYPES, TwigQueryEngine, strategy_class
from ..planner.analysis import TwigAnalysis
from ..planner.optimizer import AUTO_CANDIDATES, StrategyChoice, choose_strategy
from ..planner.strategies import EvaluationStrategy
from ..query.twig import TwigPattern
from ..xmltree.document import Document
from .base import AUTO_STRATEGY, BatchResult, ServingFacade, service_counts
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
        #: built indexes and their statistics), which is why execution
        #: goes around it.
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
        #: The engine epoch the result and choice caches hold entries of.
        self._epoch = engine.epoch
        #: Serializes execution against document adds and index builds.
        #: Writes and invalidations count into the engine's collector
        #: (``documents_added`` ... ``invalidations``) under it.
        self._lock = threading.RLock()
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
    def add_document(self, document: Document, batches: Optional[dict] = None) -> Document:
        """Add a document through the engine under the service lock.

        Built indexes absorb the document incrementally where they can
        (see :meth:`TwigQueryEngine.add_document`; ``batches`` shares
        their derived entries between replicas), and the moved epoch
        drops cached results and optimizer choices.  Readers in other
        threads never observe the half-maintained state because they
        serialize on the same lock.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="add-document"
        ):
            with self._lock:
                added = self.engine.add_document(document, batches)
                self.engine.stats.documents_added += 1
                self._check_epoch()
                return added

    def remove_document(self, ref: Union[Document, str], batches: Optional[dict] = None) -> Document:
        """Remove a document through the engine under the service lock.

        Built indexes forget the document incrementally where they can
        (see :meth:`TwigQueryEngine.remove_document`), and the moved
        epoch drops cached results and optimizer choices.  Returns the
        detached document.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="remove-document"
        ):
            with self._lock:
                removed = self.engine.remove_document(ref, batches)
                self.engine.stats.documents_removed += 1
                self._check_epoch()
                return removed

    def replace_document(
        self, ref: Union[Document, str], replacement: Document
    ) -> Document:
        """Replace a document (remove + add) atomically under the lock.

        Readers serialize on the service lock, so no query can observe
        the half-replaced state (old version gone, new version not yet
        added).  One flush covers both halves.  Returns the added
        replacement.
        """
        with self.telemetry.span(
            "index-maintain", stats=self.engine.stats, operation="replace-document"
        ):
            with self._lock:
                added = self.engine.replace_document(ref, replacement)
                self.engine.stats.documents_replaced += 1
                self._check_epoch()
                return added

    def build_index(self, name: str, batches: Optional[dict] = None, **options):
        """Build (or rebuild) an index under the service lock.

        A write like any other: the moved epoch drops cached results and
        optimizer choices.  ``batches`` shares the derived build between
        replicas.
        """
        with self.telemetry.span(
            "index-maintain",
            stats=self.engine.stats,
            operation="build-index",
            index=name,
        ):
            with self._lock:
                index = self.engine.build_index(name, batches=batches, **options)
                self._check_epoch()
                return index

    def ensure_indexes_for(self, strategy_name: str, batches: Optional[dict] = None) -> None:
        """Build the indexes ``strategy_name`` needs and lacks, under the lock."""
        with self._lock:
            self.engine.ensure_indexes_for(strategy_name, batches)
            self._check_epoch()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the result and choice caches now.

        Reads and writes do this themselves whenever the engine epoch
        moved; plan shapes and strategy instances are never dropped.
        """
        with self._lock:
            self._flush()

    def _flush(self) -> None:
        self.result_cache.clear()
        self.choice_cache.clear()
        self.engine.stats.invalidations += 1
        self._epoch = self.engine.epoch

    def _check_epoch(self) -> None:
        if self.engine.epoch != self._epoch:
            self._flush()

    def generation(self) -> int:
        """The service's change fingerprint: the engine epoch, read lock-free.

        Deliberately *not* taken under the service lock: the front
        door's event loop reads it on every request, and queuing behind
        an executing query would serialize the whole front door on one
        shard's lock.  A write advances the epoch before it returns to
        its caller, so any client-visible write is reflected in every
        later ``generation`` read.
        """
        return self.engine.epoch

    # ------------------------------------------------------------------
    # Strategy reuse and auto choice
    # ------------------------------------------------------------------
    def strategy_instance(
        self, name: str, **strategy_options
    ) -> EvaluationStrategy:
        """A reusable strategy instance (required indexes built on demand)."""
        with self._lock:
            self.engine.ensure_indexes_for(name)
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
        Choices are memoised per normalized query until the engine
        epoch moves.
        """
        with self._lock:
            self._check_epoch()
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

    def _built(self, strategy: str) -> bool:
        """Whether every index ``strategy`` needs is built."""
        return all(map(self.engine.indexes.__contains__, strategy_class(strategy).required_indexes))

    def on_demand_strategy(self, strategy: str) -> Optional[str]:
        """The strategy whose missing indexes a read with ``strategy``
        would build on demand, or ``None`` when it builds nothing.

        ``auto`` builds only when none of its candidates is built, and
        then its first.  The sharded tier asks this before a leg, so the
        build goes through to every replica instead of the one read.
        """
        if strategy == AUTO_STRATEGY:
            if any(map(self._built, self.auto_candidates)):
                return None
            strategy = self.auto_candidates[0]
        return None if self._built(strategy) else strategy

    def _available_candidates(self) -> tuple[str, ...]:
        fallback = self.on_demand_strategy(AUTO_STRATEGY)
        if fallback is None:
            return tuple(filter(self._built, self.auto_candidates))
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
        it never enters a cache key.  An option the strategy does not
        take is a :class:`PlanningError` (:meth:`_check_options`).
        """
        self._check_options(strategy, strategy_options)
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
            self._check_epoch()
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
            # An on-demand index build during execution moved the epoch:
            # flush what was cached before it, then file this answer.
            self._check_epoch()
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
            if strategy_options:
                # Each option goes only to the candidate that takes it.
                accepted = STRATEGY_TYPES[strategy].options
                strategy_options = {
                    name: value
                    for name, value in strategy_options.items()
                    if name in accepted
                }
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
    # Counter and scrape hooks
    # ------------------------------------------------------------------
    def _counter_totals(self) -> dict[str, int]:
        return self.engine.stats.snapshot()

    def _caches(self) -> list[tuple[str, LRUCache]]:
        return [
            ("plan", self.plan_cache),
            ("result", self.result_cache),
            ("choice", self.choice_cache),
        ]

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Cache and optimizer counters (for logs and benchmarks)."""
        with self._lock:
            return {
                "telemetry": self.telemetry.describe(),
                **{f"{name}_cache": cache.describe() for name, cache in self._caches()},
                "strategy_instances": len(self._strategies),
                "auto_choice_counts": dict(self.auto_choice_counts),
                **service_counts(self._counter_totals()),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryService(plans={len(self.plan_cache)}, "
            f"results={len(self.result_cache)}, "
            f"strategies={len(self._strategies)})"
        )
