"""Sharded tier unit tests: placement, id translation, pruning,
per-shard cache invalidation and cross-shard stats aggregation."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ShardedQueryService, TwigIndexDatabase, parse_string
from repro.datasets import book_document, generate_xmark
from repro.errors import DocumentError, PlanningError
from repro.faults import FaultPlan, inject
from repro.shard import (
    HashPlacement,
    PLACEMENT_POLICIES,
    RoundRobinPlacement,
    SizeBalancedPlacement,
    make_placement,
)
from repro.storage.stats import StatsCollector, sum_snapshots


def _named_docs(count: int, scale: float = 0.02):
    return [
        generate_xmark(scale=scale, seed=100 + i, name=f"doc-{i}")
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
def test_round_robin_spreads_by_ordinal():
    service = ShardedQueryService(num_shards=3, placement="round_robin")
    placements = [service.add_document(doc) for doc in _named_docs(5)]
    assert [p.shard_index for p in placements] == [0, 1, 2, 0, 1]


def test_hash_placement_is_deterministic_by_name():
    first = ShardedQueryService(num_shards=4, placement="hash")
    second = ShardedQueryService(num_shards=4, placement="hash")
    for doc_a, doc_b in zip(_named_docs(4), _named_docs(4)):
        assert (
            first.add_document(doc_a).shard_index
            == second.add_document(doc_b).shard_index
        )


def test_size_balanced_placement_fills_least_loaded_shard():
    service = ShardedQueryService(num_shards=2, placement="size_balanced")
    big = generate_xmark(scale=0.05, seed=1, name="big")
    small = book_document()
    small.name = "small"
    first = service.add_document(big)
    second = service.add_document(small)
    third_doc = book_document()
    third_doc.name = "third"
    third = service.add_document(third_doc)
    assert first.shard_index == 0
    assert second.shard_index == 1
    # The big document still outweighs two books: shard 1 stays lighter.
    assert third.shard_index == 1


def test_make_placement_accepts_instances_and_rejects_unknown_names():
    assert isinstance(make_placement("hash"), HashPlacement)
    assert isinstance(make_placement("round_robin"), RoundRobinPlacement)
    policy = SizeBalancedPlacement()
    assert make_placement(policy) is policy
    assert set(PLACEMENT_POLICIES) == {"hash", "round_robin", "size_balanced"}
    with pytest.raises(DocumentError):
        make_placement("range")


def test_tier_rejects_zero_shards_and_out_of_range_placement():
    with pytest.raises(ValueError):
        ShardedQueryService(num_shards=0)

    class Broken(HashPlacement):
        def choose(self, document, ordinal, shard_weights):
            return len(shard_weights)

    service = ShardedQueryService(num_shards=2, placement=Broken())
    with pytest.raises(DocumentError):
        service.add_document(book_document())


# ----------------------------------------------------------------------
# Id translation and document spans
# ----------------------------------------------------------------------
def test_to_global_matches_single_database_spans():
    docs = _named_docs(4)
    single = TwigIndexDatabase.from_documents(_named_docs(4))
    topology = ShardedQueryService.from_documents(
        docs, num_shards=3, placement="round_robin"
    ).topology

    single_spans = {name: (start, end) for name, start, end in single.document_spans()}
    for placement in topology.placements():
        assert (placement.global_start, placement.global_end) == single_spans[
            placement.name
        ]
        # Linear translation holds across the whole interval's endpoints.
        assert (
            topology.to_global(placement.shard_index, placement.local_start)
            == placement.global_start
        )
        assert (
            topology.to_global(placement.shard_index, placement.local_end - 1)
            == placement.global_end - 1
        )


def test_to_global_virtual_root_and_unknown_ids():
    service = ShardedQueryService(num_shards=2, placement="round_robin")
    service.add_document(book_document())
    assert service.topology.to_global(0, 0) == 0
    with pytest.raises(DocumentError):
        service.topology.to_global(1, 5)  # shard 1 holds nothing
    with pytest.raises(DocumentError):
        service.topology.placements_for("missing")


# ----------------------------------------------------------------------
# Shard pruning for document-scoped queries
# ----------------------------------------------------------------------
def test_document_scoped_query_prunes_to_owning_shard():
    service = ShardedQueryService.from_documents(
        _named_docs(4), num_shards=4, placement="round_robin"
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")

    before = [shard.stats.snapshot() for shard in service.shards]
    result = service.execute(
        "/site/people/person/name", documents=["doc-2"], use_result_cache=False
    )
    charged = [
        sum(shard.stats.diff(snapshot).values())
        for shard, snapshot in zip(service.shards, before)
    ]
    # Only shard 2 (round-robin owner of doc-2) did any work.
    assert charged[2] > 0
    assert charged[0] == charged[1] == charged[3] == 0

    # The scoped answer is exactly the owning document's slice.
    assert result.ids == service.oracle("/site/people/person/name", documents=["doc-2"])
    full = service.execute("/site/people/person/name")
    scope = next(p for p in service.topology.placements() if p.name == "doc-2")
    assert result.ids == [
        i for i in full.ids if scope.global_start <= i < scope.global_end
    ]
    service.close()


def test_scoped_query_filters_other_documents_on_shared_shard():
    # Two documents on ONE shard: scoping to one must filter the other
    # even though both live in the scanned shard.
    service = ShardedQueryService.from_documents(
        _named_docs(2), num_shards=1, placement="round_robin"
    )
    service.build_index("rootpaths")
    scoped = service.execute("/site/people/person/name", documents=["doc-1"])
    assert scoped.ids == service.oracle("/site/people/person/name", documents=["doc-1"])
    full = service.execute("/site/people/person/name")
    assert set(scoped.ids) < set(full.ids)
    service.close()


# ----------------------------------------------------------------------
# Per-shard generations: an add invalidates only its shard's results
# ----------------------------------------------------------------------
def test_add_document_invalidates_only_the_owning_shards_result_cache():
    service = ShardedQueryService.from_documents(
        _named_docs(2), num_shards=2, placement="round_robin"
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    xpath = "/site/people/person/name"
    service.execute(xpath)  # warm both shards' result caches
    assert service.execute(xpath).cached

    shard0, shard1 = service.shards
    invalidations_before = (
        shard0.service.engine.stats.invalidations,
        shard1.service.engine.stats.invalidations,
    )
    # Ordinal 2 -> shard 0 under round-robin.
    placed = service.add_document(
        generate_xmark(scale=0.01, seed=999, name="doc-2")
    )
    assert placed.shard_index == 0
    assert shard0.service.engine.stats.invalidations == invalidations_before[0] + 1
    assert shard1.service.engine.stats.invalidations == invalidations_before[1]
    # Shard 1 still holds its cached partial; shard 0 must re-execute.
    assert len(shard1.service.result_cache) > 0
    assert len(shard0.service.result_cache) == 0

    merged = service.execute(xpath)
    assert not merged.cached  # one partial was fresh
    assert merged.ids == service.oracle(xpath)
    assert service.execute(xpath).cached  # now both partials cached again
    service.close()


# ----------------------------------------------------------------------
# Gather: merged costs and describe aggregation
# ----------------------------------------------------------------------
def test_merged_cost_is_the_sum_of_per_shard_costs():
    service = ShardedQueryService.from_documents(
        _named_docs(3), num_shards=3, placement="round_robin"
    )
    service.build_index("rootpaths")
    before = [shard.stats.snapshot() for shard in service.shards]
    result = service.execute(
        "/site/people/person/name", strategy="rootpaths", use_result_cache=False
    )
    expected = sum_snapshots(
        *(
            shard.stats.diff(snapshot)
            for shard, snapshot in zip(service.shards, before)
        )
    )
    assert result.cost == expected
    assert result.total_cost > 0
    service.close()


def test_describe_aggregates_shard_counters():
    service = ShardedQueryService.from_documents(
        _named_docs(2), num_shards=2, placement="round_robin"
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    xpath = "/site/people/person/name"
    service.execute(xpath)
    service.execute(xpath)
    report = service.describe()
    assert report["num_shards"] == 2
    assert report["placement"] == "round_robin"
    assert report["documents"] == 2
    assert len(report["shards"]) == 2
    # The tier missed once, both shards missed under it, and the repeat
    # landed at the tier without reaching a shard.
    assert report["answer_cache"]["hits"] == 1
    assert report["answer_cache"]["misses"] == 1
    assert report["caches"]["result_cache"]["hits"] == 1
    assert report["caches"]["result_cache"]["misses"] == 3
    assert report["queries_executed"] == 2
    # Past the tier's cache both shards hit once, and the sum shows it.
    service.execute(xpath, use_result_cache=False)
    service.execute(xpath)
    report = service.describe()
    assert report["answer_cache"]["hits"] == 2
    assert report["answer_cache"]["misses"] == 1
    assert report["caches"]["result_cache"]["hits"] == 2
    assert report["caches"]["result_cache"]["misses"] == 3
    service.close()


def test_empty_scatter_returns_empty_result():
    service = ShardedQueryService(num_shards=2)
    result = service.execute("/site/people", strategy="rootpaths")
    assert result.ids == [] and result.cost == {}
    assert result.strategy == "rootpaths"
    service.close()


def test_legs_run_on_the_callers_thread_and_no_worker_threads_exist():
    with ShardedQueryService.from_documents(
        _named_docs(4), num_shards=4, placement="round_robin", replicas=2
    ) as service:
        service.build_index("rootpaths")
        leg_threads: set[int] = set()
        for shard in service.shards:
            def recorded(*args, _real=shard.execute, **kwargs):
                leg_threads.add(threading.get_ident())
                return _real(*args, **kwargs)

            shard.execute = recorded
        expected = service.oracle("/site/people/person/name")
        for round_ in range(100):
            result = service.execute(
                "/site/people/person/name", use_result_cache=round_ % 2 == 0
            )
            assert result.ids == expected
        assert leg_threads == {threading.get_ident()}
        assert [t.name for t in threading.enumerate() if t.name.startswith("shard")] == []


# ----------------------------------------------------------------------
# Landed answers: the tier's own cache of gathered results
# ----------------------------------------------------------------------
XPATH = "/site/people/person/name"


def _landing_tier(**options) -> ShardedQueryService:
    service = ShardedQueryService.from_documents(
        _named_docs(4), num_shards=2, placement="round_robin", replicas=2, **options
    )
    service.build_index("rootpaths")
    return service


def _replica_reads(service) -> int:
    return sum(sum(shard.replica_reads) for shard in service.shards)


def test_landed_answer_is_the_gathers_and_reaches_no_replica():
    with _landing_tier(auto_rebalance=True, rebalance_interval=1) as service:
        gathered = service.execute(XPATH)
        reads = _replica_reads(service)
        landed = service.execute(XPATH)
        assert landed.cached and not gathered.cached
        assert (landed.ids, landed.strategy, landed.cost, landed.xpath) == (
            gathered.ids, gathered.strategy, gathered.cost, gathered.xpath,
        )
        assert landed.ids == service.oracle(XPATH)
        assert _replica_reads(service) == reads
        # The rebalance heartbeat counts gathers, not lookups.
        assert service.operations.describe()["ticks"] == 1
        assert service.stats.queries_executed == 2


def test_callers_cannot_poison_a_landed_answer():
    with _landing_tier() as service:
        expected = service.oracle(XPATH)
        for _ in range(3):  # the gather's own result, then two landed copies
            result = service.execute(XPATH)
            assert result.ids == expected and "poison" not in result.cost
            result.ids.append(-1)
            result.cost["poison"] = 1


def test_cache_flag_scope_and_options_key_landed_answers_apart():
    with _landing_tier() as service:
        full = service.execute(XPATH)
        scoped = service.execute(XPATH, documents=["doc-1"])
        fixed = service.execute(XPATH, strategy="rootpaths")
        assert not scoped.cached and not fixed.cached
        assert set(scoped.ids) < set(full.ids)
        assert len(service.answer_cache) == 3
        assert service.execute(XPATH, documents=["doc-1"]).ids == scoped.ids
        assert service.answer_cache.hits == 1

        # Flag off: neither served from the cache nor filed in it.
        lookups = service.answer_cache.hits + service.answer_cache.misses
        reads = _replica_reads(service)
        bypass = service.execute(XPATH, use_result_cache=False)
        assert not bypass.cached and bypass.ids == full.ids
        assert _replica_reads(service) == reads + 2
        assert service.answer_cache.hits + service.answer_cache.misses == lookups
        assert len(service.answer_cache) == 3

        # No strategy takes an unhashable option: an unknown one and a
        # known one with an unhashable value are both refused, and
        # nothing is filed for either.
        for strategy, options in (
            ("rootpaths", {"stale": []}),
            ("datapaths", {"force_plan": []}),
        ):
            for _ in range(2):
                with pytest.raises(PlanningError):
                    service.execute(XPATH, strategy=strategy, **options)
        assert len(service.answer_cache) == 3


def test_invalidate_and_ttl_expiry_drop_landed_answers():
    with _landing_tier(result_cache_ttl=0.05) as service:
        service.execute(XPATH)
        assert service.execute(XPATH).cached
        service.invalidate()
        assert len(service.answer_cache) == 0 and service.answer_cache.clears == 1
        assert not service.execute(XPATH).cached
        assert service.execute(XPATH).cached
        time.sleep(0.06)
        # Dated from its own put, like the partials under it: all expired.
        assert not service.execute(XPATH).cached
        assert service.answer_cache.expiries == 1
        assert service.execute(XPATH).ids == service.oracle(XPATH)


def test_a_write_to_one_shard_costs_every_answer_one_miss():
    other = "//item/name"
    with _landing_tier() as service:
        for xpath in (XPATH, other):
            service.execute(xpath)
            assert service.execute(xpath).cached
        reads = _replica_reads(service)
        placed = service.add_document(
            generate_xmark(scale=0.01, seed=998, name="doc-new")
        )
        untouched = service.shards[1 - placed.shard_index]
        for xpath in (XPATH, other):
            missed = service.execute(xpath)
            assert not missed.cached and missed.ids == service.oracle(xpath)
        # Every answer re-gathered once, on both shards -- and the shard
        # the write did not touch answered from a replica's own cache.
        assert _replica_reads(service) == reads + 4
        assert untouched.describe()["service"]["result_cache"]["hits"] == 2
        reads += 4
        for xpath in (XPATH, other):
            assert service.execute(xpath).cached
        assert _replica_reads(service) == reads


# ----------------------------------------------------------------------
# StatsCollector.merge / sum_snapshots share one aggregation path
# ----------------------------------------------------------------------
def test_stats_merge_and_sum_snapshots_agree_with_add():
    a = StatsCollector(btree_node_reads=3, join_probes=2)
    b = StatsCollector(btree_node_reads=4, heap_page_reads=1)
    c = StatsCollector(join_comparisons=7)

    added = a + b
    merged = StatsCollector().merge(a, b)
    assert added.snapshot() == merged.snapshot()

    merged.merge(c)
    assert merged.snapshot() == sum_snapshots(a.snapshot(), b.snapshot(), c.snapshot())
    # merge mutates in place and returns self for chaining.
    target = StatsCollector()
    assert target.merge(a) is target
    assert target.btree_node_reads == 3


def test_sum_snapshots_carries_partial_cost_dicts():
    assert sum_snapshots({"join_probes": 2}, {"join_probes": 1, "extra": 5}) == {
        "join_probes": 3,
        "extra": 5,
    }
    assert sum_snapshots() == {}


# ----------------------------------------------------------------------
# Placement weights and the one summed report
# ----------------------------------------------------------------------
def test_size_balanced_places_adds_by_live_weight_not_watermark():
    def small(name: str):
        return parse_string("<s><t>x</t><u/></s>", name=name)

    with ShardedQueryService(num_shards=2, placement="size_balanced") as service:
        big = parse_string("<big>" + "<a/>" * 101 + "</big>", name="big")
        assert big.count_nodes() == 102
        assert service.add_document(big).shard_index == 0
        assert service.add_document(small("s1")).shard_index == 1
        service.remove_document("big")
        # Shard 0's watermark still counts the removed document's ids;
        # its live weight does not, and that is what placement reads.
        assert [shard.watermark for shard in service.shards] == [103, 5]
        assert service.topology.shard_node_weights() == [0, 4]
        assert service.add_document(small("s2")).shard_index == 0
        assert service.topology.shard_node_weights() == [4, 4]
        assert service.topology.skew()["ratio"] == 1.0


@pytest.mark.parametrize("replicas", [1, 2])
def test_describe_caches_equal_the_summed_cache_gauges(replicas):
    with ShardedQueryService.from_documents(
        _named_docs(4), num_shards=2, placement="round_robin", replicas=replicas
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")
        for xpath in (XPATH, "//item/name", XPATH):
            service.execute(xpath)
            service.execute(xpath, use_result_cache=False)
        service.execute(XPATH, documents=["doc-1"])
        for shard in service.shards:
            shard.execute(XPATH)  # text handed to a shard: its plan cache
            shard.service.choose(XPATH)
            shard.service.choose(XPATH)
        caches = service.describe()["caches"]
        (family,) = [
            family
            for family in service.metrics()["gauges"]
            if family["name"] == "repro_cache"
        ]
        gauges = [
            (series["labels"]["cache"], series["labels"]["counter"], series["value"])
            for series in family["series"]
        ]
        # The tier's own caches are "plan" and "answer"; a shard's are
        # "shard<i>-plan", "shard<i>-result" and "shard<i>-choice".
        kinds = {
            "plan_cache": {"plan"},
            "result_cache": {"answer", "result"},
            "choice_cache": {"choice"},
        }
        for kind, names in kinds.items():
            for counter in ("hits", "misses"):
                exported = sum(
                    value
                    for cache, name, value in gauges
                    if name == counter and cache.rsplit("-", 1)[-1] in names
                )
                assert caches[kind][counter] == exported, (kind, counter)
            assert caches[kind]["hits"] > 0 and caches[kind]["misses"] > 0, kind


def _values_under(report, key: str) -> list:
    """Every value stored under ``key`` anywhere in a nested report."""
    if isinstance(report, list):
        return [value for item in report for value in _values_under(item, key)]
    if not isinstance(report, dict):
        return []
    found = []
    for name, value in report.items():
        found.extend([value] if name == key else _values_under(value, key))
    return found


def test_reports_show_the_hub_once_and_counts_equal_their_gauges():
    with ShardedQueryService.from_documents(
        _named_docs(4), num_shards=2, placement="round_robin", replicas=2
    ) as service:
        service.build_index("rootpaths")
        for xpath in (XPATH, "//item/name", XPATH):
            service.execute(xpath)
        service.move_document("doc-0", 1)
        # Replica 1 of shard 0 fails every read (each one retried), is
        # taken down, and is revived.
        inject(service.shards[0], 1, FaultPlan.failing_at(*range(1, 100)))
        for _ in range(8):
            service.execute(XPATH, use_result_cache=False)
        service.shards[0]._quarantine(1, "test: taken down")
        service.revive_replica(0, 1)
        service.replace_document("doc-1", _named_docs(2)[1])
        report = service.describe()
        # The hub every shard and replica shares is reported by the tier,
        # once, with its own numbers -- never once per replica.
        assert _values_under(report, "telemetry") == [service.telemetry.describe()]
        (family,) = [
            family
            for family in service.metrics()["gauges"]
            if family["name"] == "repro_stats"
        ]
        gauges = {
            series["labels"]["counter"]: series["value"]
            for series in family["series"]
        }
    failover = report["operations"]["failover"]
    for counter in ("reads_retried", "reads_rerouted", "replicas_failed", "replicas_revived"):
        assert failover[counter] == gauges[counter], counter
    assert failover["reads_retried"] > 0
    assert failover["replicas_failed"] == failover["replicas_revived"] == 1
    maintenance = report["maintenance"]
    for counter in ("documents_added", "documents_removed", "documents_replaced", "documents_moved"):
        assert maintenance[counter] == gauges[counter], counter
    assert maintenance["documents_moved"] == maintenance["documents_replaced"] == 1
    assert report["topology"].get("documents_moved") is None  # counted once
    assert report["invalidations"]["total"] == gauges["invalidations"]
    assert report["queries_executed"] == gauges["queries_executed"] == 11
