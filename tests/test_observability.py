"""End-to-end observability: tracing, metrics registry, ops event log.

The instrumentation contract of ``repro.obs`` (``docs/OBSERVABILITY.md``):

* **primitives** — the metrics registry (counters, gauges, fixed-bucket
  histograms with interpolated p50/p95/p99), the bounded ops event log,
  and the tracer's span nesting, cost attribution and bounded rings,
  all with injected deterministic clocks where wall time would flake;
* **engine tier** — a :class:`~repro.service.QueryService` query leaves
  a ``query -> plan -> cache-lookup -> choose -> execute`` trace, cache
  hits are annotated and counted, maintenance opens ``index-maintain``
  spans and publishes ``cache-invalidated`` events, and the slow-query
  log fires deterministically under an injected clock;
* **sharded tier** — one scatter-gather query is *one* trace whose
  ``scatter`` span holds one ``shard`` child per target, back to back
  in shard order, and the shared registry reports separate latency
  histograms per tier;
* **failover story** — a seeded replica kill mid-workload produces a
  trace showing the failed read and the retry on a healthy replica,
  plus ``fault-injected`` / ``replica-health`` / ``replica-quarantined``
  events in the ops log, asserted deterministically;
* **request attribution** — stable ``query_id`` values thread through
  ``execute_batch`` into :class:`~repro.service.BatchResult` and the
  root span attributes;
* **stats satellites** — ``StatsCollector.merge`` / ``sum_snapshots``
  edge cases: empty collectors, disjoint counter sets, and monotonicity
  across a merge-after-revive.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark
from repro.faults import FaultPlan, InjectedFault, inject
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    EventLog,
    MetricsRegistry,
    NULL_SPAN,
    Telemetry,
    Tracer,
    current_span,
    render_prometheus,
)
from repro.service import QueryService
from repro.service.base import ServingFacade
from repro.shard import REPLICA_DEAD, AutoRebalancer, ReplicatedShard, ShardedCollection
from repro.storage.stats import ACTIVITY_COUNTERS, StatsCollector, sum_snapshots

XPATH = "/site/people/person/name"


def _doc(i: int, scale: float = 0.01):
    return generate_xmark(scale=scale, seed=700 + i, name=f"doc-{i}")


class FakeClock:
    """A deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.step = step
        self.time = 0.0

    def __call__(self) -> float:
        self.time += self.step
        return self.time


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_gauge_basics_and_kind_conflicts():
    registry = MetricsRegistry()
    queries = registry.counter("queries_total", "served queries")
    queries.inc(tier="engine")
    queries.inc(2, tier="engine")
    queries.inc(tier="sharded")
    assert queries.value(tier="engine") == 3.0
    assert queries.value(tier="sharded") == 1.0
    assert queries.value(tier="absent") == 0.0
    with pytest.raises(ValueError):
        queries.inc(-1, tier="engine")

    depth = registry.gauge("depth", "last value wins")
    depth.set(4.0)
    depth.set(2.0)
    assert depth.value() == 2.0

    # get-or-create returns the same family; kind conflicts raise.
    assert registry.counter("queries_total") is queries
    with pytest.raises(ValueError):
        registry.gauge("queries_total")
    with pytest.raises(ValueError):
        registry.histogram("depth")
    assert len(registry) == 2


def test_histogram_quantiles_interpolate_and_clamp():
    registry = MetricsRegistry()
    latency = registry.histogram("latency", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        latency.observe(value)
    # p50: rank 2 of 4 falls in the (1, 2] bucket -> interpolated, then
    # clamped into [observed min, observed max].
    assert 0.5 <= latency.quantile(0.5) <= 2.0
    assert latency.quantile(0.99) <= 3.0
    assert latency.quantile(0.5, other="series") == 0.0  # empty series

    # Overflow beyond the last bound: the exact max is the estimate.
    latency.observe(9.0)
    assert latency.quantile(0.99) == 9.0

    snapshot = latency.snapshot()
    (series,) = snapshot["series"]
    assert series["count"] == 5
    assert series["min"] == 0.5 and series["max"] == 9.0
    assert series["buckets"][-1] == {"le": "+Inf", "cumulative": 5}
    assert set(("p50", "p95", "p99")) <= set(series)

    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=(2.0, 1.0))


def test_registry_snapshot_is_grouped_and_json_shaped():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("h").observe(0.001)
    snapshot = registry.snapshot()
    assert [f["name"] for f in snapshot["counters"]] == ["c"]
    assert [f["name"] for f in snapshot["gauges"]] == ["g"]
    assert [f["name"] for f in snapshot["histograms"]] == ["h"]
    assert snapshot["histograms"][0]["bucket_bounds"] == list(
        DEFAULT_LATENCY_BUCKETS
    )


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("repro_queries_total", "Total queries").inc(
        3, tier="engine", strategy="rootpaths"
    )
    registry.gauge("repro_stats", 'quoted "help"').set(7, counter="reads_retried")
    registry.histogram("repro_latency", buckets=(0.1, 1.0)).observe(0.05)
    text = render_prometheus(registry.snapshot())
    assert "# HELP repro_queries_total Total queries" in text
    assert "# TYPE repro_queries_total counter" in text
    assert 'repro_queries_total{strategy="rootpaths",tier="engine"} 3' in text
    assert 'repro_stats{counter="reads_retried"} 7' in text
    assert 'repro_latency_bucket{le="+Inf"} 1' in text
    assert "repro_latency_sum 0.05" in text
    assert "repro_latency_count 1" in text
    for quantile in ("0.5", "0.95", "0.99"):
        assert f'repro_latency{{quantile="{quantile}"}}' in text


# ----------------------------------------------------------------------
# Ops event log
# ----------------------------------------------------------------------
def test_event_log_is_a_bounded_ring_with_monotone_seq():
    log = EventLog(capacity=4)
    for i in range(10):
        log.publish("tick", round=i)
    events = log.events()
    assert len(events) == 4 and len(log) == 4
    assert [event.attributes["round"] for event in events] == [6, 7, 8, 9]
    assert [event.seq for event in events] == [7, 8, 9, 10]
    assert log.total_published == 10

    log.publish("other")
    # counts() tallies everything ever published, not just the retained
    # window — the ring forgets, the totals do not.
    assert log.counts() == {"tick": 10, "other": 1}
    assert [e.kind for e in log.events(kind="other")] == ["other"]
    assert len(log.events(last=2)) == 2
    description = log.describe()
    assert description["capacity"] == 4 and description["published"] == 11


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_spans_nest_by_context_and_attribute_cost():
    stats = StatsCollector()
    tracer = Tracer(clock=FakeClock())
    assert current_span() is None
    with tracer.span("query", stats=stats, tier="engine") as root:
        assert current_span() is root
        with tracer.span("plan") as plan:
            stats.index_lookups += 2
            assert current_span() is plan
        with tracer.span("execute", strategy="rootpaths"):
            stats.tuples_produced += 5
    assert current_span() is None

    (trace,) = tracer.traces()
    assert trace.trace_id == 1
    assert [span.name for span in trace.root.walk()] == [
        "query",
        "plan",
        "execute",
    ]
    # Each clock read ticks one second; the root saw all inner reads.
    assert trace.root.duration_seconds == pytest.approx(5.0)
    assert trace.root.cost["index_lookups"] == 2
    assert trace.root.cost["tuples_produced"] == 5
    assert trace.root.find("execute")[0].attributes["strategy"] == "rootpaths"
    rendered = trace.render()
    assert "trace #1" in rendered and "plan" in rendered
    tree = trace.tree()
    assert tree["trace_id"] == 1
    assert [child["name"] for child in tree["children"]] == ["plan", "execute"]


def test_span_exceptions_are_annotated_and_ring_is_bounded():
    tracer = Tracer(capacity=3, clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("query"):
            raise RuntimeError("boom")
    (trace,) = tracer.traces()
    assert "RuntimeError" in trace.root.attributes["error"]

    for i in range(5):
        with tracer.span("query", round=i):
            pass
    traces = tracer.traces()
    assert len(traces) == 3
    assert [t.root.attributes["round"] for t in traces] == [2, 3, 4]
    assert tracer.traces_finished == 6
    assert len(tracer.traces(last=1)) == 1
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_slow_query_log_fires_deterministically():
    clock = FakeClock(step=1.0)
    telemetry = Telemetry(slow_query_seconds=10.0, clock=clock)
    with telemetry.span("query", xpath="/a", query_id="q000-abc"):
        pass  # 1s root: under threshold
    clock.step = 12.0
    with telemetry.span("query", xpath="/b", query_id="q001-def"):
        pass  # 12s root: over threshold
    assert len(telemetry.traces()) == 2
    (slow,) = telemetry.slow_queries()
    assert slow.root.attributes["xpath"] == "/b"
    (event,) = telemetry.events.events(kind="slow-query")
    assert event.attributes["trace_id"] == slow.trace_id
    assert event.attributes["xpath"] == "/b"
    assert event.attributes["query_id"] == "q001-def"
    assert event.attributes["seconds"] == pytest.approx(12.0)

    # The threshold is reconfigurable through the hub.
    telemetry.slow_query_seconds = 0.5
    assert telemetry.tracer.slow_query_seconds == 0.5


def test_disabled_telemetry_is_a_complete_noop():
    telemetry = Telemetry(enabled=False)
    with telemetry.span("query", xpath="/a") as span:
        assert span is NULL_SPAN
        span.annotate(ignored=True)  # no-op, no branches at call sites
    telemetry.event("replica-quarantined", shard=0)
    telemetry.record_query("engine", "rootpaths", 0.1, cached=False)
    assert telemetry.traces() == []
    assert telemetry.events.total_published == 0
    assert len(telemetry.metrics) == 0
    assert NULL_SPAN.attributes == {}
    assert telemetry.describe()["enabled"] is False


def test_record_query_feeds_the_standard_families():
    telemetry = Telemetry()
    telemetry.record_query("engine", "rootpaths", 0.002, cached=False)
    telemetry.record_query("engine", "rootpaths", 0.004, cached=True)
    telemetry.record_query("sharded", "edge", 0.008, cached=False)
    counters = telemetry.metrics.counter("repro_queries_total")
    assert counters.value(tier="engine", strategy="rootpaths") == 2
    assert counters.value(tier="sharded", strategy="edge") == 1
    lookups = telemetry.metrics.counter("repro_result_cache_lookups_total")
    assert lookups.value(tier="engine", outcome="hit") == 1
    assert lookups.value(tier="engine", outcome="miss") == 1
    latency = telemetry.metrics.histogram("repro_query_latency_seconds")
    assert latency.quantile(0.5, tier="engine") > 0.0
    assert latency.quantile(0.5, tier="sharded") > 0.0


def test_watch_gc_times_collections_by_generation_until_stopped(monkeypatch):
    def run_now(function, *args):
        function(*args)

    def full_collections(telemetry) -> int:
        family = telemetry.metrics.histogram("repro_gc_pause_seconds").snapshot()
        return sum(
            series["count"]
            for series in family["series"]
            if series["labels"] == {"generation": 2}
        )

    telemetry = Telemetry()
    hooks = len(gc.callbacks)
    stop = telemetry.watch_gc(run_now)
    monkeypatch.setattr("repro.obs.telemetry.GC_PAUSE_EVENT_SECONDS", 3600.0)
    gc.collect()  # observed, and too short to be an event
    assert telemetry.events.events(kind="gc-pause") == []
    monkeypatch.setattr("repro.obs.telemetry.GC_PAUSE_EVENT_SECONDS", 0.0)
    gc.collect()  # observed, and an event
    telemetry.enabled = False
    gc.collect()  # a disabled hub records nothing
    telemetry.enabled = True
    stop()
    gc.collect()  # nor does a stopped watch
    assert len(gc.callbacks) == hooks
    assert full_collections(telemetry) == 2
    events = telemetry.events.events(kind="gc-pause")
    (full,) = [e for e in events if e.attributes["generation"] == 2]
    assert full.attributes["seconds"] > 0

    # A server nobody stopped: its closed loop refuses the sample, and
    # the hook takes itself out instead of failing inside the collector.
    def closed_loop(function, *args):
        raise RuntimeError("Event loop is closed")

    Telemetry().watch_gc(closed_loop)
    assert len(gc.callbacks) == hooks + 1
    gc.collect()
    assert len(gc.callbacks) == hooks


# ----------------------------------------------------------------------
# Engine tier: QueryService / TwigIndexDatabase
# ----------------------------------------------------------------------
def test_query_service_traces_plan_cache_choose_execute():
    db = TwigIndexDatabase.from_documents([_doc(0)])
    db.build_index("rootpaths")
    first = db.service.execute(XPATH, strategy="auto")
    second = db.service.execute(XPATH, strategy="auto")
    assert second.ids == first.ids and second.cached

    miss, hit = db.traces(last=2)
    assert miss.root.name == "query"
    assert miss.root.attributes["tier"] == "engine"
    assert miss.root.attributes["xpath"] == XPATH
    assert miss.root.attributes["cached"] is False
    names = [span.name for span in miss.root.walk()]
    assert names[:3] == ["query", "plan", "cache-lookup"]
    assert "choose" in names and "execute" in names
    assert miss.root.find("cache-lookup")[0].attributes["outcome"] == "miss"
    # The root's cost diff prices the query in the paper's currency.
    assert sum(miss.root.cost.values()) > 0

    assert hit.root.attributes["cached"] is True
    assert hit.root.find("cache-lookup")[0].attributes["outcome"] == "hit"
    assert hit.root.find("execute") == []  # a hit never executes

    lookups = db.telemetry.metrics.counter("repro_result_cache_lookups_total")
    assert lookups.value(tier="engine", outcome="hit") == 1
    assert lookups.value(tier="engine", outcome="miss") == 1


def test_maintenance_spans_and_cache_invalidation_events():
    db = TwigIndexDatabase.from_documents([_doc(0)])
    db.build_index("rootpaths")
    db.service.execute(XPATH, strategy="auto")  # populate caches
    db.service.choose(XPATH)  # execution no longer fills the choose() memo
    db.add_document(_doc(1))

    maintain = [
        trace
        for trace in db.traces()
        if trace.root.name == "index-maintain"
    ]
    operations = {t.root.attributes["operation"] for t in maintain}
    assert {"build-index", "add-document"} <= operations
    # Maintenance windows carry the write-side cost diff.
    add = [t for t in maintain if t.root.attributes["operation"] == "add-document"]
    assert sum(add[-1].root.cost.values()) > 0

    invalidated = db.telemetry.events.events(kind="cache-invalidated")
    assert invalidated, "the add must drop cached results"
    assert all(event.attributes["entries"] > 0 for event in invalidated)
    assert {"result", "choice"} <= {
        event.attributes["cache"] for event in invalidated
    }


def test_facade_surfaces_metrics_traces_and_describe():
    db = TwigIndexDatabase.from_documents([_doc(0)])
    db.build_index("rootpaths")
    assert db.telemetry is db.service.telemetry
    db.service.execute(XPATH, strategy="auto")

    snapshot = db.metrics()
    names = {f["name"] for group in snapshot.values() for f in group}
    assert {
        "repro_queries_total",
        "repro_query_latency_seconds",
        "repro_stats",
        "repro_cache",
    } <= names

    text = db.metrics_text()
    assert 'repro_query_latency_seconds{tier="engine",quantile="0.95"}' in text
    assert 'repro_queries_total{strategy="rootpaths",tier="engine"} 1' in text
    # The scrape exports every StatsCollector counter, activity ones
    # included, plus per-cache counters.
    for counter in ACTIVITY_COUNTERS:
        assert f'repro_stats{{counter="{counter}"}}' in text
    assert 'repro_cache{cache="result",counter="size"}' in text

    telemetry = db.service.describe()["telemetry"]
    assert telemetry["enabled"] is True
    assert telemetry["traces"]["finished"] >= 1
    assert db.traces(last=1)[0].root.name == "query"
    assert db.slow_queries() == []


def test_slow_query_log_through_the_service():
    db = TwigIndexDatabase.from_documents([_doc(0)])
    db.build_index("rootpaths")
    db.telemetry.slow_query_seconds = 0.0  # everything is slow
    db.service.execute(XPATH, strategy="auto")
    (slow,) = db.slow_queries()
    assert slow.root.attributes["xpath"] == XPATH
    (event,) = db.telemetry.events.events(kind="slow-query")
    assert event.attributes["trace_id"] == slow.trace_id


def test_disabled_stack_serves_identically_with_zero_telemetry():
    enabled = TwigIndexDatabase.from_documents([_doc(0)])
    disabled = TwigIndexDatabase(telemetry=Telemetry(enabled=False))
    disabled.add_document(_doc(0))
    for database in (enabled, disabled):
        database.build_index("rootpaths")
    expected = enabled.service.execute(XPATH, strategy="auto").ids
    assert disabled.service.execute(XPATH, strategy="auto").ids == expected
    assert disabled.traces() == []
    assert disabled.telemetry.events.total_published == 0
    assert len(disabled.telemetry.metrics) == 0


# ----------------------------------------------------------------------
# Request attribution: query ids through execute_batch
# ----------------------------------------------------------------------
def test_default_query_ids_are_stable_and_content_addressed():
    first = ServingFacade.default_query_id(0, XPATH)
    again = ServingFacade.default_query_id(0, XPATH)
    other = ServingFacade.default_query_id(1, XPATH)
    assert first == again  # same position, same query -> same id
    assert first.startswith("q000-") and other.startswith("q001-")
    assert first.split("-")[1] == other.split("-")[1]  # content hash part
    # Normalization: equivalent spellings share the content hash.
    spaced = ServingFacade.default_query_id(0, "/site/people/person/name ")
    assert spaced == first


def test_batch_results_carry_query_ids_and_root_spans_are_attributed():
    db = TwigIndexDatabase.from_documents([_doc(0)])
    db.build_index("rootpaths")
    batch = db.service.execute_batch([XPATH, "//person"], strategy="auto")
    assert len(batch.query_ids) == 2
    assert batch.query_ids[0] != batch.query_ids[1]
    roots = [trace.root for trace in db.traces() if trace.root.name == "query"]
    assert [root.attributes["query_id"] for root in roots] == batch.query_ids

    named = db.service.execute_batch(
        [XPATH], strategy="auto", query_ids=["tenant-7/q1"]
    )
    assert named.query_ids == ["tenant-7/q1"]
    assert db.traces(last=1)[0].root.attributes["query_id"] == "tenant-7/q1"

    with pytest.raises(ValueError):
        db.service.execute_batch([XPATH], query_ids=["a", "b"])


# ----------------------------------------------------------------------
# Sharded tier: one trace, one shard span per target
# ----------------------------------------------------------------------
def test_sharded_query_is_one_trace_with_one_shard_span_per_target():
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(8)],
        num_shards=4,
        placement="round_robin",
        replicas=2,
    )
    service.build_index("rootpaths")
    result = service.execute(XPATH, strategy="auto", query_id="req-1")
    assert result.ids

    (trace,) = [
        t
        for t in service.traces()
        if t.root.name == "query" and t.root.attributes["tier"] == "sharded"
    ]
    root = trace.root
    assert root.attributes["query_id"] == "req-1"
    (scatter,) = root.find("scatter")
    shard_spans = scatter.children
    assert [span.name for span in shard_spans] == ["shard"] * 4
    assert [span.attributes["shard"] for span in shard_spans] == [0, 1, 2, 3]
    # Legs run one after the other inside the scatter window.
    assert scatter.started <= shard_spans[0].started
    for earlier, later in zip(shard_spans, shard_spans[1:]):
        assert earlier.ended <= later.started
    assert shard_spans[-1].ended <= scatter.ended
    # Every shard span nests a replica read whose engine-tier query span
    # nests plan/execute work.
    for span in shard_spans:
        (replica,) = span.find("replica")
        assert replica.attributes["outcome"] == "ok"
        (engine_query,) = replica.find("query")
        assert engine_query.attributes["tier"] == "engine"
        assert engine_query.find("plan")
    assert root.find("gather")

    text = service.metrics_text()
    for tier in ("engine", "sharded"):
        assert f'repro_query_latency_seconds{{tier="{tier}",quantile="0.95"}}' in text
    assert service.describe()["telemetry"]["enabled"] is True
    service.close()


def test_sharded_batch_threads_query_ids():
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(2)], num_shards=2
    )
    service.build_index("rootpaths")
    batch = service.execute_batch([XPATH, XPATH])
    assert len(batch.query_ids) == 2
    roots = [
        t.root
        for t in service.traces()
        if t.root.name == "query" and t.root.attributes["tier"] == "sharded"
    ]
    assert [root.attributes["query_id"] for root in roots] == batch.query_ids
    service.close()


# ----------------------------------------------------------------------
# The failover story, deterministically
# ----------------------------------------------------------------------
def test_seeded_replica_kill_leaves_a_failover_trace_and_quarantine_event():
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(2)], num_shards=1, replicas=3
    )
    service.build_index("rootpaths")
    reference = service.execute(XPATH, use_result_cache=False).ids

    shard = service.collection.shards[0]
    injector = inject(shard, 1, FaultPlan.failing_at(*range(1, 50)))
    # Round-robin hands replica 1 every third read while it is healthy,
    # then only on probation probes (every probe_interval-th read) once
    # suspect; each of its reads fails and retries on the next healthy
    # replica, and after dead_after consecutive failures the replica is
    # quarantined.  No sleeps, no randomness: the whole story is
    # call-count scheduled, so 40 reads deterministically cover the
    # probes that walk it suspect -> dead.
    answers = [
        service.execute(XPATH, use_result_cache=False).ids for _ in range(40)
    ]
    assert all(answer == reference for answer in answers)
    assert injector.fired  # the plan really fired
    assert shard.health_report()["states"][1] == REPLICA_DEAD

    # The trace of a failed read shows the failure AND the retry.
    failover_traces = [
        t
        for t in service.traces()
        if t.root.name == "query"
        and any(
            span.attributes.get("outcome") == "failed"
            for span in t.root.find("replica")
        )
    ]
    assert failover_traces, "no trace recorded the failed read"
    spans = failover_traces[0].root.find("replica")
    failed = [s for s in spans if s.attributes["outcome"] == "failed"]
    retried = [s for s in spans if s.attributes["outcome"] == "ok"]
    assert failed[0].attributes["replica"] == 1
    assert "InjectedFault" in failed[0].attributes["error"]
    assert retried and retried[0].attributes["replica"] != 1

    # The ops log tells the same story as ordered events.
    events = service.telemetry.events
    (injected, *_rest) = events.events(kind="fault-injected")
    assert injected.attributes["fault"] == "error"
    suspect = events.events(kind="replica-health")
    assert any(e.attributes["state"] == "suspect" for e in suspect)
    (quarantined,) = events.events(kind="replica-quarantined")
    assert quarantined.attributes["replica"] == 1
    assert "dead_after" in quarantined.attributes["reason"]
    # Ordering: injection precedes demotion precedes quarantine.
    assert injected.seq < suspect[0].seq < quarantined.seq

    # Failover activity reaches the exposition via the scrape gauges.
    text = service.metrics_text()
    retries = [
        line
        for line in text.splitlines()
        if line.startswith('repro_stats{counter="reads_retried"}')
    ]
    assert retries and float(retries[0].split()[-1]) >= 3
    service.close()


def test_revive_publishes_a_replay_event():
    shard = ReplicatedShard(0, replicas=2, dead_after=1)
    for i in range(2):
        shard.add_document(_doc(i))
    shard.build_index("rootpaths")
    inject(shard, 1, FaultPlan.failing_at(1))
    for _ in range(2):
        shard.execute(XPATH)
    assert shard.health_report()["states"][1] == REPLICA_DEAD
    shard.add_document(_doc(5))  # missed write, replayed by revive
    shard.revive(1)
    (revived,) = shard.telemetry.events.events(kind="replica-revived")
    assert revived.attributes["replica"] == 1
    assert revived.attributes["replayed"] >= 1
    assert revived.attributes["watermark"] == shard.watermark


def test_auto_rebalance_publishes_triggered_and_completed_events():
    import zlib

    def colliding(base: str) -> str:
        for salt in range(10_000):
            name = f"{base}-{salt}"
            if zlib.crc32(name.encode("utf-8")) % 2 == 0:
                return name
        raise AssertionError("no colliding name")  # pragma: no cover

    collection = ShardedCollection(num_shards=2, placement="hash")
    for i in range(6):
        collection.add_document(
            generate_xmark(scale=0.01, seed=500 + i, name=colliding(f"s-{i}"))
        )
    auto = AutoRebalancer(
        collection,
        policy="size_balanced",
        check_interval=1,
        background=False,
        enabled=True,
    )
    assert auto.check()["fired"]
    events = collection.telemetry.events
    (triggered,) = events.events(kind="auto-rebalance", last=None)[:1]
    assert triggered.attributes["phase"] == "triggered"
    assert triggered.attributes["ratio"] >= auto.high_watermark
    completed = [
        e
        for e in events.events(kind="auto-rebalance")
        if e.attributes["phase"] == "completed"
    ]
    assert completed and completed[0].attributes["documents_moved"] > 0
    auto.close()


# ----------------------------------------------------------------------
# Telemetry is one hub per stack, and thread-safe
# ----------------------------------------------------------------------
def test_one_hub_is_shared_by_every_layer():
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(2)], num_shards=2, replicas=2
    )
    hub = service.telemetry
    assert service.collection.telemetry is hub
    for shard in service.collection.shards:
        assert shard.telemetry is hub
        for replica in shard.replicas:
            assert replica.telemetry is hub
            assert replica.service.telemetry is hub
    service.close()


def test_concurrent_queries_trace_without_interleaving():
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(8)], num_shards=2, replicas=2
    )
    service.build_index("rootpaths")
    errors: list[Exception] = []

    def worker():
        try:
            for _ in range(5):
                service.execute(XPATH, use_result_cache=False)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    roots = [
        t.root
        for t in service.traces()
        if t.root.name == "query" and t.root.attributes["tier"] == "sharded"
    ]
    # Every sharded trace is complete: scatter, per-shard reads, gather.
    for root in roots:
        assert root.find("scatter") and root.find("gather")
        assert len(root.find("shard")) == 2
    counter = service.telemetry.metrics.counter("repro_queries_total")
    assert counter.value(tier="sharded", strategy="rootpaths") == 20
    service.close()


# ----------------------------------------------------------------------
# Stats satellites: merge / sum_snapshots edge cases
# ----------------------------------------------------------------------
def test_merge_of_empty_collectors_is_identity():
    base = StatsCollector()
    base.index_lookups = 3
    merged = base.merge(StatsCollector(), StatsCollector())
    assert merged is base  # merge chains in place
    assert base.index_lookups == 3
    assert StatsCollector().merge().snapshot() == StatsCollector().snapshot()


def test_sum_snapshots_with_disjoint_counter_sets_unions_keys():
    assert sum_snapshots() == {}
    left = {"btree_node_reads": 2}
    right = {"heap_page_reads": 5, "btree_node_reads": 1}
    exotic = {"not_a_standard_counter": 7}
    total = sum_snapshots(left, right, exotic)
    assert total == {
        "btree_node_reads": 3,
        "heap_page_reads": 5,
        "not_a_standard_counter": 7,
    }
    # Inputs are not mutated.
    assert left == {"btree_node_reads": 2}


def test_merge_after_revive_is_monotone():
    shard = ReplicatedShard(0, replicas=2, dead_after=1)
    for i in range(2):
        shard.add_document(_doc(i))
    shard.build_index("rootpaths")
    before = shard.stats_snapshot()
    inject(shard, 1, FaultPlan.failing_at(1))
    for _ in range(2):
        shard.execute(XPATH)
    shard.revive(1)
    after = shard.stats_snapshot()
    # A revive replaces one replica's collector with a freshly-merged
    # one; no aggregated counter may move backwards.
    assert all(after[key] >= value for key, value in before.items())
    assert after["replicas_revived"] >= 1
