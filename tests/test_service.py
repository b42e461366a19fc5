"""Service layer: LRU caches, strategy reuse, auto plans, batch execution."""

from __future__ import annotations

import pytest

from repro import TwigIndexDatabase
from repro.datasets import book_document
from repro.errors import PlanningError
from repro.planner import DEFAULT_STRATEGIES
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
    # Generation semantics: an add maintained incrementally invalidates
    # answers (result + choice caches) but not plans or strategy
    # instances — an add changes answers, not query plans.
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    runner = service.strategy_instance("rootpaths")
    assert len(service.result_cache) == 1

    service_db.add_document(book_document(name="b2"))
    assert len(service.result_cache) == 0
    assert service.plan("/book/title").bound[0] is plan.bound[0]  # shape survived
    assert service.strategy_instance("rootpaths") is runner
    assert service.result_invalidations == 1
    assert service.full_invalidations >= 1  # the explicit build above


def test_rebuild_invalidates_everything(service_db):
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    runner = service.strategy_instance("rootpaths")
    full_before = service.full_invalidations

    service_db.build_index("rootpaths")
    assert len(service.result_cache) == 0
    assert len(service.plan_cache) == 0
    assert service.plan("/book/title").bound[0] is not plan.bound[0]
    assert service.strategy_instance("rootpaths") is not runner
    assert service.full_invalidations == full_before + 1


def test_out_of_band_incremental_add_detected_as_result_invalidation(service_db):
    # engine.add_document bypasses the facade's invalidate(); the
    # generation fingerprint must classify it as incremental (plans
    # kept) rather than flushing everything.
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    result_before = service.result_invalidations

    service_db.engine.add_document(book_document(name="b2"))
    result = service.execute("/book/title")
    assert not result.cached
    assert result.ids == service_db.oracle("/book/title")
    assert len(result.ids) == 2
    assert service.plan("/book/title").bound[0] is plan.bound[0]
    assert service.result_invalidations == result_before + 1


def test_add_after_out_of_band_rebuild_escalates_to_full_flush(service_db):
    # An index rebuilt behind the service's back must not be absorbed
    # by the weaker add-document invalidation: the unobserved
    # build_count move escalates invalidate(rebuilt=False) to a full
    # flush, honouring the rebuild contract.
    service = service_db.service
    service_db.build_index("rootpaths")
    service.execute("/book/title")
    plan = service.plan("/book/title")
    full_before = service.full_invalidations

    service_db.engine.build_index("rootpaths")  # out-of-band rebuild
    service_db.add_document(book_document(name="b2"))
    assert service.full_invalidations == full_before + 1
    assert len(service.plan_cache) == 0
    assert service.plan("/book/title") is not plan


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
