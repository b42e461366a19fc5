"""Shared machinery of the single-node and sharded query services.

:class:`ServingFacade` factors out everything that does not care
whether execution happens on one engine or is scattered across shards:

* the batch loop (:meth:`~ServingFacade.execute_batch`) with its shared
  stats window, cache-hit accounting, per-strategy counts and stable
  per-item query ids,
* hashable cache keys for (query, strategy, options) triples,
* defensive copies of cached :class:`QueryResult` objects,
* cache counter reporting (:func:`cache_report`), one summation behind
  both ``describe()`` and the ``repro_cache`` gauges,
* the observability read surface (:meth:`~ServingFacade.metrics`,
  :meth:`~ServingFacade.metrics_text`, :meth:`~ServingFacade.traces`,
  :meth:`~ServingFacade.slow_queries`) over the
  :class:`~repro.obs.Telemetry` hub every service carries.

Subclasses provide :meth:`~ServingFacade.execute` plus two reporting
hooks, which is exactly where one engine and N shards differ:

* :meth:`~ServingFacade._counter_totals` — every count, cost and
  activity alike.  The sharded tier sums every shard's collector
  through :func:`~repro.storage.stats.sum_snapshots`; a batch diffs two
  readings of it with :func:`~repro.storage.stats.diff_snapshots`, and
  the metrics scrape exports one.
* :meth:`~ServingFacade._caches` — every cache, as ``(name, LRUCache)``
  pairs that :func:`cache_report` sums per name (the gauges) or per
  ``describe()`` section.

Anything that is not a counter (the telemetry hub, topology, health
states, choice maps) is reported once by the object that owns it and
never summed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence, Union

from ..obs import Telemetry, Trace
from ..obs.clock import now as _now
from ..errors import PlanningError
from ..planner.evaluator import QueryResult, strategy_class
from ..planner.optimizer import AUTO_CANDIDATES
from ..query.parser import normalize_xpath, parse_xpath
from ..query.twig import TwigPattern
from ..storage.stats import diff_snapshots, weighted_cost
from .cache import LRUCache

#: The pseudo-strategy name that delegates plan choice to the optimizer.
AUTO_STRATEGY = "auto"

#: The :meth:`~repro.service.cache.LRUCache.describe` fields that sum
#: across caches.  ``max_size`` and ``ttl_seconds`` are configuration
#: and never do; ``hit_rate`` is recomputed from the summed counts.
CACHE_COUNTERS = (
    "size",
    "hits",
    "misses",
    "evictions",
    "expiries",
    "clears",
    "cleared_entries",
)

#: A cache name's last ``-`` part -> the ``describe()["caches"]``
#: section it sums into.  The tier's landed answers are results too.
CACHE_SECTIONS = {
    "plan": "plan_cache",
    "result": "result_cache",
    "answer": "result_cache",
    "choice": "choice_cache",
}


def cache_section(name: str) -> str:
    """The ``describe()`` section a cache named ``name`` reports under."""
    return CACHE_SECTIONS[name.rsplit("-", 1)[-1]]


def service_counts(totals: Mapping[str, int]) -> dict[str, object]:
    """The invalidation and document-write counts of a service report,
    read from one :meth:`~ServingFacade._counter_totals` reading."""
    return {
        "invalidations": totals["invalidations"],
        "maintenance": {
            "documents_added": totals["documents_added"],
            "documents_removed": totals["documents_removed"],
            "documents_replaced": totals["documents_replaced"],
        },
    }


def cache_report(
    caches: Iterable[tuple[str, LRUCache]],
    group: Callable[[str], str] = str,
) -> dict[str, dict[str, object]]:
    """Cache counters summed per ``group(name)``, hit rates recomputed.

    The one cache summation: ``describe()`` groups by
    :func:`cache_section`, the ``repro_cache`` gauges by name (a
    shard's replicas share their names, so a gauge sums the set).
    :data:`CACHE_COUNTERS` add up; ``hit_rate`` is computed from the
    summed hits and misses, never copied from one cache, since replicas
    behind a sticky picker see different traffic.
    """
    totals: dict[str, dict[str, object]] = {}
    for name, cache in caches:
        report = cache.describe()
        total = totals.setdefault(group(name), dict.fromkeys(CACHE_COUNTERS, 0))
        for counter in CACHE_COUNTERS:
            total[counter] += report[counter]
    for total in totals.values():
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
    return totals


class LandedAnswer:
    """One :attr:`ServingFacade.answer_cache` entry.

    ``result`` is the gathered answer as a hit reports it
    (``cached=True``).  ``encoded`` is what the front door derives from
    it on the entry's first landed hit (the answer's response fields and
    their JSON), kept here so that it shares the entry's key and so its
    generation, its TTL and its eviction: nothing of it outlives the
    entry.
    """

    __slots__ = ("result", "encoded")

    def __init__(self, result: QueryResult) -> None:
        self.result = result
        self.encoded: object = None


@dataclass
class BatchResult:
    """The answers to one query batch plus batch-level measurements.

    ``cost`` is the delta of one shared stats snapshot taken around the
    whole batch, so it prices exactly the logical work the batch charged
    — cached answers contribute nothing to it.

    ``query_ids`` carries one stable identifier per item, positionally
    aligned with ``results``: the id that was threaded through
    ``execute`` for that item, so traces, cache hits and slow-query
    entries are attributable back to the batch request that caused them.
    """

    results: list[QueryResult]
    elapsed_seconds: float
    cost: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    strategy_counts: dict[str, int] = field(default_factory=dict)
    query_ids: list[str] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        """Weighted logical cost of the whole batch (shared formula)."""
        return weighted_cost(self.cost)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class ServingFacade:
    """Common batch execution and cache accounting for query services."""

    #: The shared observability hub; subclasses assign it in their
    #: constructors (and the sharded tier adopts its collection's).
    telemetry: Telemetry
    #: Literal-lifted query text -> its shape; subclasses size it.
    plan_cache: LRUCache
    #: :meth:`answer_key` -> the whole answer of one ``execute``, a
    #: :class:`LandedAnswer`.  The sharded tier sizes it; a
    #: facade whose ``execute`` is already one cache lookup switches it
    #: off with ``LRUCache(0)``.  The front door reads it on the event
    #: loop, so nothing but the cache's own lock may guard it.
    answer_cache: LRUCache
    #: The strategies ``auto`` may pick; the single-engine service takes
    #: its own at construction.
    auto_candidates: tuple[str, ...] = AUTO_CANDIDATES

    # ------------------------------------------------------------------
    # Hooks subclasses implement
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, TwigPattern],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        query_id: Optional[str] = None,
        **strategy_options,
    ) -> QueryResult:
        raise NotImplementedError

    def _counter_totals(self) -> dict[str, int]:
        """Current counter totals: logical cost plus activity counters."""
        raise NotImplementedError

    def _caches(self) -> list[tuple[str, LRUCache]]:
        """Every cache the facade reads through, as ``(name, cache)``.

        A name's last ``-`` part is its kind (:data:`CACHE_SECTIONS`);
        caches that share a name report summed under it.
        """
        raise NotImplementedError

    def generation(self) -> Hashable:
        """A cheap fingerprint of everything that can change answers.

        Subclasses return a hashable value that moves on every
        client-visible write (document add/remove/replace/move, index
        build).  It closes every :meth:`answer_key`, so two requests
        may share one execution -- in flight or landed -- only when no
        write came between them.
        """
        raise NotImplementedError

    def answer_key(
        self,
        xpath_key: str,
        strategy: str,
        strategy_options: Mapping,
        documents: Optional[Sequence[str]] = None,
    ) -> Optional[tuple]:
        """``(normalised xpath, options key, documents scope, generation)``.

        What one answer is an answer *to*: the key of the
        :attr:`answer_cache` and, with the cache flag beside it, of the
        front door's flights.  ``None`` when the options are
        unhashable -- such a request shares nothing.
        """
        key = self._result_key(xpath_key, strategy, strategy_options)
        if key is None:
            return None
        scope = None if documents is None else tuple(documents)
        return key + (scope, self.generation())

    # ------------------------------------------------------------------
    # Prepared plans (shared)
    # ------------------------------------------------------------------
    def plan(self, query: Union[str, TwigPattern]) -> TwigPattern:
        """The prepared plan of a query: a shape lookup plus a bind.

        The plan cache holds one :class:`~repro.query.twig.TwigShape`
        per literal-lifted text; every call binds a twig of its own
        from it (its own nodes, literals, text and cache key) whose
        analysis and compiled joins are the shape's (see
        ``docs/ARCHITECTURE.md``, "Prepared plans").  A
        :class:`TwigPattern` is its own plan and passes through.  A
        shape is complete before it enters the cache; two threads that
        miss on the same new shape each parse it, both are equally
        valid, and the later ``put`` is the one the cache keeps.
        """
        if isinstance(query, TwigPattern):
            return query
        return parse_xpath(query, self.plan_cache)

    # ------------------------------------------------------------------
    # Lifecycle (shared)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release whatever workers the service owns (idempotent).

        The single-engine service owns no threads, so the base close is
        a no-op; the sharded tier drains its rebalance worker.
        Defined here so every facade supports the same
        ``with service: ...`` idiom and call sites never leak executor
        threads.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution (shared)
    # ------------------------------------------------------------------
    @staticmethod
    def default_query_id(index: int, query: Union[str, TwigPattern]) -> str:
        """A stable, human-scannable id for batch item ``index``.

        Position plus a checksum of the normalized query text, so the
        same batch produces the same ids on every run (determinism) and
        an id alone identifies which query it belonged to.
        """
        if isinstance(query, str):
            text = normalize_xpath(query)
        else:
            text = str(query)
        digest = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
        return f"q{index:03d}-{digest:08x}"

    def execute_batch(
        self,
        queries: Iterable[Union[str, TwigPattern]],
        strategy: str = AUTO_STRATEGY,
        use_result_cache: bool = True,
        query_ids: Optional[Sequence[str]] = None,
        **strategy_options,
    ) -> BatchResult:
        """Evaluate many queries under one shared stats window.

        Returns a :class:`BatchResult` whose ``cost`` is the counter
        delta across the whole batch — the logical work actually
        charged, with repeated queries served from the result cache for
        free.  Each item runs under a stable query id (caller-supplied
        via ``query_ids``, else :meth:`default_query_id`), recorded
        positionally in ``BatchResult.query_ids`` and threaded through
        ``execute`` so traces and slow-query entries name the request.
        """
        queries = list(queries)
        if query_ids is not None:
            ids = [str(query_id) for query_id in query_ids]
            if len(ids) != len(queries):
                raise ValueError(
                    f"query_ids length {len(ids)} != batch length {len(queries)}"
                )
        else:
            ids = [
                self.default_query_id(index, query)
                for index, query in enumerate(queries)
            ]
        before = self._counter_totals()
        started = _now()
        results: list[QueryResult] = []
        hits = 0
        strategy_counts: dict[str, int] = {}
        for query, query_id in zip(queries, ids):
            result = self.execute(
                query,
                strategy=strategy,
                use_result_cache=use_result_cache,
                query_id=query_id,
                **strategy_options,
            )
            hits += 1 if result.cached else 0
            strategy_counts[result.strategy] = (
                strategy_counts.get(result.strategy, 0) + 1
            )
            results.append(result)
        elapsed = _now() - started
        return BatchResult(
            results=results,
            elapsed_seconds=elapsed,
            cost=diff_snapshots(self._counter_totals(), before),
            cache_hits=hits,
            cache_misses=len(results) - hits,
            strategy_counts=strategy_counts,
            query_ids=ids,
        )

    # ------------------------------------------------------------------
    # Observability read surface (shared)
    # ------------------------------------------------------------------
    def _scrape(self) -> None:
        """Refresh scrape-time gauges from the live counters.

        Both hooks are read here, never re-counted:
        :meth:`_counter_totals` (logical cost plus every activity
        counter) becomes the ``repro_stats`` gauges and
        :func:`cache_report` over :meth:`_caches` the ``repro_cache``
        gauges — the same numbers ``describe()`` reports.
        """
        if not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        stats_gauge = metrics.gauge(
            "repro_stats",
            "StatsCollector totals (logical cost and activity counters)",
        )
        for name, value in self._counter_totals().items():
            stats_gauge.set(value, counter=name)
        cache_gauge = metrics.gauge(
            "repro_cache",
            "LRU cache counters, by cache and counter name",
        )
        for cache_name, report in cache_report(self._caches()).items():
            for counter in CACHE_COUNTERS:
                cache_gauge.set(report[counter], cache=cache_name, counter=counter)

    def metrics(self) -> dict[str, object]:
        """A JSON-serializable metrics snapshot (refreshes the gauges)."""
        self._scrape()
        return self.telemetry.metrics.snapshot()

    def metrics_text(self) -> str:
        """Prometheus-style text exposition of :meth:`metrics`."""
        self._scrape()
        return self.telemetry.metrics_text()

    def traces(self, last: Optional[int] = None) -> list[Trace]:
        """The most recent finished query traces, oldest first."""
        return self.telemetry.traces(last=last)

    def slow_queries(self, last: Optional[int] = None) -> list[Trace]:
        """Retained traces that crossed the slow-query threshold."""
        return self.telemetry.slow_queries(last=last)

    # ------------------------------------------------------------------
    # Request checks, cache keys and copies (shared)
    # ------------------------------------------------------------------
    def _check_options(self, strategy: str, strategy_options: Mapping) -> None:
        """Refuse an option the strategy does not take, before any work.

        A fixed strategy accepts its class's ``options``; ``auto``
        accepts what any of its candidates does (and forwards each
        option only to the candidate that takes it).  Anything else is
        a :class:`PlanningError`: the caller's mistake, answered as a
        typed query error -- never a bare ``TypeError`` from a strategy
        constructor, which the replicated tier would count against the
        replica that happened to serve it.
        """
        if not strategy_options:
            return
        names = self.auto_candidates if strategy == AUTO_STRATEGY else (strategy,)
        accepted = {option for name in names for option in strategy_class(name).options}
        unknown = sorted(set(strategy_options) - accepted)
        if unknown:
            raise PlanningError(
                f"strategy {strategy!r} takes no option(s) {unknown}; "
                f"it accepts {sorted(accepted)}"
            )

    @staticmethod
    def _options_key(name: str, options: Mapping) -> Optional[tuple]:
        try:
            key = (name, tuple(sorted(options.items())))
            hash(key)  # building the tuple alone never hashes the values
        except TypeError:
            # Unhashable option values cannot key the caches.
            return None
        return key

    def _result_key(
        self, normalized_xpath: str, strategy: str, strategy_options: Mapping
    ) -> Optional[tuple]:
        options_key = self._options_key(strategy, strategy_options)
        if options_key is None:
            return None
        return (normalized_xpath, options_key)

    @staticmethod
    def _copy_result(result: QueryResult, cached: bool = False) -> QueryResult:
        return QueryResult(
            strategy=result.strategy,
            xpath=result.xpath,
            ids=list(result.ids),
            elapsed_seconds=result.elapsed_seconds,
            cost=dict(result.cost),
            cached=cached,
        )

