"""Service layer: LRU caches, strategy reuse, auto plans, batch execution."""

from __future__ import annotations

import inspect

import pytest

from repro import TwigIndexDatabase
from repro.datasets import book_document
from repro.errors import PlanningError
from repro.planner import DEFAULT_STRATEGIES
from repro.planner.evaluator import strategy_class
from repro.planner.strategies import EvaluationStrategy
from repro.service import LRUCache, QueryService
from repro.service.service import AUTO_STRATEGY


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
def test_lru_cache_hit_miss_and_eviction():
    cache = LRUCache(2)
    assert cache.get("a") is None and cache.misses == 1
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes 'a'
    cache.put("c", 3)  # evicts 'b' (least recently used)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1
    assert cache.hits == 1 and cache.misses == 1
    assert 0.0 < cache.hit_rate < 1.0
    cache.clear()
    assert len(cache) == 0


def test_lru_cache_size_zero_disables_caching():
    cache = LRUCache(0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


def test_lru_cache_rejects_negative_size():
    with pytest.raises(ValueError):
        LRUCache(-1)


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------
@pytest.fixture()
def service_db() -> TwigIndexDatabase:
    return TwigIndexDatabase.from_documents([book_document()])


def test_plan_cache_shares_parsed_twigs(service_db):
    service = service_db.service
    first = service.plan("/book/title")
    again = service.plan("  /book/title ")  # normalised to the same key
    # One shape, bound twice: a twig of its own per call.
    assert again is not first and again.bound[0] is first.bound[0]
    assert (again.key, again.source) == ("/book/title", "  /book/title ")
    assert service.plan_cache.hits == 1 and service.plan_cache.misses == 1


def test_execute_results_match_engine_and_oracle(service_db):
    expected = service_db.oracle("/book//author[fn='jane']")
    for strategy in ("rootpaths", "datapaths", AUTO_STRATEGY):
        result = service_db.service.execute(
            "/book//author[fn='jane']", strategy=strategy
        )
        assert result.ids == expected, strategy


def test_result_cache_serves_repeats_without_new_work(service_db):
    service = service_db.service
    first = service.execute("/book/title", strategy="rootpaths")
    assert not first.cached
    before = service_db.stats.snapshot()
    repeat = service.execute("/book/title", strategy="rootpaths")
    assert repeat.cached
    assert repeat.ids == first.ids
    # The cached answer charged no logical work at all.
    assert all(value == 0 for value in service_db.stats.diff(before).values())
    # Mutating a cached answer must not poison the cache.
    repeat.ids.append(999)
    assert service.execute("/book/title", strategy="rootpaths").ids == first.ids


def test_result_cache_is_immune_to_caller_mutation(service_db):
    # Regression: the miss path used to cache the very object it
    # returned, so mutating a fresh result poisoned every later hit.
    service = service_db.service
    first = service.execute("/book/title")
    expected = list(first.ids)
    first.ids.append(999)  # the miss-path result is caller-owned
    hit = service.execute("/book/title")
    assert hit.cached and hit.ids == expected
    hit.ids.append(777)  # the hit-path result too
    assert service.execute("/book/title").ids == expected


def test_options_key_handles_unhashable_values():
    # Regression: the guard built the tuple without hashing it, so
    # unhashable option values crashed later at the cache lookup.
    assert QueryService._options_key("s", {"opt": [1, 2]}) is None
    assert QueryService._options_key("s", {"opt": "x"}) == ("s", (("opt", "x"),))


def test_auto_executes_the_costed_datapaths_plan(service_db):
    # The estimate prices a specific DATAPATHS plan; execution must run
    # that plan, not re-choose with the flat paper probe charge.
    service_db.build_index("datapaths")  # restricts auto to datapaths
    service = service_db.service
    xpath = "/book[title='XML']//author[fn='jane']"
    result = service.execute(xpath, strategy=AUTO_STRATEGY)
    choice = service.last_choice
    assert choice is not None and choice.strategy == "datapaths"
    assert choice.datapaths_plan is not None
    runner = service.strategy_instance(
        "datapaths", force_plan=choice.datapaths_plan.plan
    )
    assert runner.last_plan is not None
    assert runner.last_plan.plan == choice.datapaths_plan.plan
    assert result.ids == service_db.oracle(xpath)


def test_unknown_options_are_a_planning_error_and_file_nothing(service_db):
    service = service_db.service
    expected = service.execute("/book/title", strategy="rootpaths").ids
    filed = len(service.result_cache)
    for strategy, options in (
        ("rootpaths", {"stale": False}),
        ("rootpaths", {"force_plan": "merge"}),
        ("datapaths", {"bogus": 1}),
        (AUTO_STRATEGY, {"bogus": 1}),
    ):
        with pytest.raises(PlanningError, match="takes no option"):
            service.execute("/book/author", strategy=strategy, **options)
    assert len(service.result_cache) == filed
    assert service.execute("/book/title", strategy="rootpaths").ids == expected


def test_strategy_classes_declare_the_options_their_constructors_take():
    # The option check trusts these declarations: each must name exactly
    # the constructor's keywords beyond (db, indexes, stats).
    assert EvaluationStrategy.options == ()
    for name in DEFAULT_STRATEGIES:
        cls = strategy_class(name)
        expected = ("force_plan",) if name == "datapaths" else ()
        assert cls.options == expected, name
        keywords = tuple(inspect.signature(cls).parameters)[3:]
        assert keywords == cls.options, name


def test_auto_forwards_force_plan_only_to_datapaths(service_db):
    service = service_db.service
    xpath = "/book[title='XML']//author[fn='jane']"
    # Nothing built: auto runs ROOTPATHS, which takes no force_plan.
    result = service.execute(xpath, strategy=AUTO_STRATEGY, force_plan="inl")
    assert result.strategy == "rootpaths"
    assert result.ids == service_db.oracle(xpath)
    # DATAPATHS alone: auto picks it and runs the forced plan.
    database = TwigIndexDatabase.from_documents([book_document()])
    database.build_index("datapaths")
    service = database.service
    result = service.execute(xpath, strategy=AUTO_STRATEGY, force_plan="inl")
    assert result.strategy == "datapaths"
    assert service.strategy_instance("datapaths", force_plan="inl").last_plan.plan == "inl"
    assert result.ids == database.oracle(xpath)


def test_result_cache_can_be_bypassed(service_db):
    service = service_db.service
    service.execute("/book/title")
    result = service.execute("/book/title", use_result_cache=False)
    assert not result.cached


def test_add_document_invalidates_cached_results(service_db):
    service = service_db.service
    service.execute("/book/title")
    assert len(service.result_cache) == 1
    service_db.add_document(book_document())
    assert len(service.result_cache) == 0
    service_db.build_index("rootpaths")  # rebuild over both documents
    result = service.execute("/book/title")
    assert not result.cached
    assert result.ids == service_db.oracle("/book/title")
    assert len(result.ids) == 2


def test_out_of_band_document_add_is_detected(service_db):
    # Mutations that bypass the facade (and its explicit invalidate())
    # are caught by the generation fingerprint on the next execute.
    service = service_db.service
    service.execute("/book/title")
    service_db.db.add_document(book_document())
    service_db.engine.build_index("rootpaths")
    result = service.execute("/book/title")
    assert not result.cached
    assert len(result.ids) == 2


def test_strategy_instances_are_reused(service_db):
    service = service_db.service
    runner = service.strategy_instance("rootpaths")
    assert service.strategy_instance("rootpaths") is runner
    forced = service.strategy_instance("datapaths", force_plan="merge")
    assert service.strategy_instance("datapaths", force_plan="merge") is forced
    assert service.strategy_instance("datapaths", force_plan="inl") is not forced


def test_auto_uses_first_candidate_when_nothing_is_built(service_db):
    service = service_db.service
    result = service.execute("/book/title", strategy=AUTO_STRATEGY)
    assert result.strategy == "rootpaths"
    assert "rootpaths" in service_db.indexes
    assert "datapaths" not in service_db.indexes  # auto never force-builds


def test_auto_restricted_to_built_indexes(service_db):
    service_db.build_index("datapaths")
    choice = service_db.service.choose("/book/title")
    assert choice.strategy == "datapaths"
    assert set(choice.costs) == {"datapaths"}


def test_auto_choice_counts_are_recorded(service_db):
    service = service_db.service
    service.execute("/book/title", strategy=AUTO_STRATEGY, use_result_cache=False)
    service.execute("/book/title", strategy=AUTO_STRATEGY, use_result_cache=False)
    assert service.auto_choice_counts == {"rootpaths": 2}
    assert service.last_choice is not None
    assert service.last_choice.strategy == "rootpaths"


def test_unknown_auto_candidate_is_rejected(service_db):
    with pytest.raises(ValueError):
        QueryService(service_db.engine, auto_candidates=("nope",))


def test_auto_without_catalog_never_builds_one(service_db):
    # A lone candidate without estimate_matches statistics wins outright;
    # ROOTPATHS must not be built behind the caller's back just for stats.
    service = QueryService(service_db.engine, auto_candidates=("edge",))
    result = service.execute("/book/title", strategy=AUTO_STRATEGY)
    assert result.strategy == "edge"
    assert result.ids == service_db.oracle("/book/title")
    assert "rootpaths" not in service_db.indexes


def test_auto_ranking_without_catalog_raises(service_db):
    service = QueryService(service_db.engine, auto_candidates=("edge", "asr"))
    service_db.build_index("edge")
    service_db.build_index("asr")
    with pytest.raises(PlanningError, match="catalog statistics"):
        service.execute("/book/title", strategy=AUTO_STRATEGY)


def test_auto_choices_are_memoised_per_generation(service_db):
    service = service_db.service
    service_db.build_index("rootpaths")
    first = service.choose("/book/title")
    assert service.choice_cache.misses == 1
    assert service.choose("/book/title") is first
    assert service.choice_cache.hits == 1 and len(service.choice_cache) == 1
    # Execution prices its own choice: with the result cache on the memo
    # could never hit there (both are flushed together).
    service.execute("/book/title", strategy=AUTO_STRATEGY, use_result_cache=False)
    assert (service.choice_cache.hits, service.choice_cache.misses) == (1, 1)
    service_db.add_document(book_document())
    assert len(service.choice_cache) == 0  # flushed with the generation


def test_incremental_add_keeps_plans_and_strategies_drops_results(service_db):
    # Epoch semantics: an add moves the epoch, which drops answers
    # (result + choice caches) but not plans or strategy instances —
    # an add changes answers, not query plans.
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    runner = service.strategy_instance("rootpaths")
    assert len(service.result_cache) == 1
    invalidations_before = service.engine.stats.invalidations

    service_db.add_document(book_document(name="b2"))
    assert len(service.result_cache) == 0
    assert service.plan("/book/title").bound[0] is plan.bound[0]  # shape survived
    assert service.strategy_instance("rootpaths") is runner
    assert service.engine.stats.invalidations == invalidations_before + 1


def test_rebuild_with_new_options_drops_answers_keeps_shapes_and_strategies(service_db):
    # A rebuild is a write like any other: it moves the epoch once,
    # which drops results and choices.  Shapes and strategy instances
    # stay: the instance reads the engine's index dict at evaluation
    # time, so it runs on the rebuilt index without being replaced.
    service = service_db.service
    service_db.add_document(book_document(name="b2"))
    service_db.build_index("datapaths")
    queries = ["/book/title", "//author[fn='jane']", "/book[title='XML']//ln"]
    for xpath in queries:
        service.execute(xpath, strategy="datapaths")
        service.choose(xpath)
    shape = service.plan(queries[0]).bound[0]
    runner = service.strategy_instance("datapaths")
    epoch = service.engine.epoch
    invalidations_before = service.engine.stats.invalidations

    service_db.build_index("datapaths", order=8)
    assert service.engine.epoch == epoch + 1
    assert service.engine.stats.invalidations == invalidations_before + 1
    assert len(service.result_cache) == 0 and len(service.choice_cache) == 0
    assert service.plan(queries[0]).bound[0] is shape
    assert service.strategy_instance("datapaths") is runner
    assert runner.index is service.engine.indexes["datapaths"]
    assert runner.index.order == 8
    for xpath in queries:
        result = service.execute(xpath, strategy="datapaths")
        assert not result.cached
        assert result.ids == service_db.oracle(xpath)
        assert service.execute(xpath, strategy=AUTO_STRATEGY).ids == result.ids


def test_out_of_band_incremental_add_detected_as_result_invalidation(service_db):
    # engine.add_document bypasses the facade; the moved epoch must
    # still flush the results on the next read, and plans stay.
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    invalidations_before = service.engine.stats.invalidations

    service_db.engine.add_document(book_document(name="b2"))
    result = service.execute("/book/title")
    assert not result.cached
    assert result.ids == service_db.oracle("/book/title")
    assert len(result.ids) == 2
    assert service.plan("/book/title").bound[0] is plan.bound[0]
    assert service.engine.stats.invalidations == invalidations_before + 1


def test_execute_batch_correct_across_interleaved_adds(service_db):
    queries = ["/book/title", "//author[fn='jane']"]
    service_db.build_index("rootpaths")
    first = service_db.execute_batch(queries + queries)
    assert first.cache_hits == 2 and first.cache_misses == 2

    service_db.add_document(book_document(name="b2"))
    second = service_db.execute_batch(queries + queries)
    # Nothing may be served from the pre-add cache...
    assert second.cache_misses == 2 and second.cache_hits == 2
    # ...and every answer reflects the post-add database.
    for result in second:
        assert result.ids == service_db.oracle(result.xpath), result.xpath
    # Two books: 2 titles, and 2 jane-authors per book.
    assert [len(result.ids) for result in second] == [2, 4, 2, 4]


def test_execute_batch_shares_stats_and_counts_hits(service_db):
    queries = ["/book/title", "//author[fn='jane']", "/book/title", "/book/title"]
    batch = service_db.execute_batch(queries)
    assert [result.ids for result in batch] == [
        service_db.oracle(xpath) for xpath in queries
    ]
    assert batch.cache_misses == 2 and batch.cache_hits == 2
    assert len(batch) == 4
    assert sum(batch.strategy_counts.values()) == 4
    # The shared snapshot prices only the uncached executions.
    uncached_cost = sum(
        result.total_cost for result in batch.results if not result.cached
    )
    assert batch.total_cost == uncached_cost


def test_facade_query_auto_routes_through_service(service_db):
    result = service_db.query("/book/title", strategy=AUTO_STRATEGY)
    assert result.strategy in DEFAULT_STRATEGIES
    assert result.ids == service_db.oracle("/book/title")
    # query() never serves cached results, so benchmarks stay honest.
    assert not service_db.query("/book/title", strategy=AUTO_STRATEGY).cached


def test_describe_reports_cache_counters(service_db):
    service_db.execute_batch(["/book/title", "/book/title"])
    report = service_db.service.describe()
    assert report["result_cache"]["hits"] == 1
    assert report["plan_cache"]["misses"] == 1
    assert report["auto_choice_counts"] == {"rootpaths": 1}


# ----------------------------------------------------------------------
# TTL admission policy
# ----------------------------------------------------------------------
class FakeClock:
    """A manually advanced monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_lru_cache_ttl_expires_entries_lazily():
    clock = FakeClock()
    cache = LRUCache(4, ttl_seconds=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(9.999)
    assert cache.get("a") == 1 and "a" in cache
    clock.advance(0.001)  # exactly at the deadline: expired
    assert "a" not in cache
    assert cache.get("a") is None
    assert cache.expiries == 1 and cache.evictions == 0
    assert cache.misses == 1 and cache.hits == 1
    assert len(cache) == 0  # the expired entry was dropped, not kept


def test_lru_cache_ttl_restarts_on_refresh_and_reports_in_describe():
    clock = FakeClock()
    cache = LRUCache(4, ttl_seconds=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(8.0)
    cache.put("a", 2)  # refresh restarts the deadline
    clock.advance(8.0)
    assert cache.get("a") == 2
    report = cache.describe()
    assert report["ttl_seconds"] == 10.0
    assert report["expiries"] == 0 and report["evictions"] == 0
    clock.advance(10.0)
    assert cache.get("a") is None
    assert cache.describe()["expiries"] == 1


def test_lru_cache_rejects_non_positive_ttl():
    with pytest.raises(ValueError):
        LRUCache(4, ttl_seconds=0)
    with pytest.raises(ValueError):
        LRUCache(4, ttl_seconds=-1.5)


def test_service_result_cache_ttl_expires_cached_answers(service_db):
    clock = FakeClock()
    service = service_db.service
    service.result_cache = LRUCache(1024, ttl_seconds=30.0, clock=clock)
    service_db.build_index("rootpaths")

    assert not service.execute("/book/title").cached
    assert service.execute("/book/title").cached  # within TTL
    clock.advance(31.0)
    expired = service.execute("/book/title")  # past TTL: re-executed
    assert not expired.cached
    assert expired.ids == service_db.oracle("/book/title")
    report = service.describe()
    assert report["result_cache"]["expiries"] == 1
    assert report["result_cache"]["ttl_seconds"] == 30.0


def test_query_service_accepts_result_cache_ttl_parameter(service_db):
    service = QueryService(service_db.engine, result_cache_ttl=60.0)
    assert service.result_cache.ttl_seconds == 60.0
    # The no-TTL default keeps entries indefinitely.
    assert service_db.service.result_cache.ttl_seconds is None
