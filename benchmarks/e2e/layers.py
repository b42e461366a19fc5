"""The traced pass: what each layer costs, measured from outside.

The same tier the server child builds is rebuilt here in-process from
the same seed, and the first :data:`SAMPLE_READS` requests of the
workload are replayed single-threaded through one layer boundary per
pass -- the HTTP socket, ``FrontDoor.handle``, the sharded facade, each
shard in turn, one replica's ``QueryService``, the engine -- timing each
public call with the stack's own clock.  Every pass replays the same
sample, so the medians telescope::

    frontdoor.query_http_us = frontdoor.http_self_us + frontdoor.handle_us
    frontdoor.handle_us     = frontdoor.self_us      + shard.execute_us
    shard.execute_us        = shard.overhead_us      + shard.leg_sum_us
    service.miss_us         = service.self_us        + planner.execute_us

What is left of ``shard.leg_sum_us`` after one replica's service time on
each shard is nobody's, and is reported as
``loadgen.unattributed_share`` rather than hidden.

Leaf layers (indexes, kernels, B+-tree, parser) are timed on a
standalone engine holding one shard's worth of the corpus, so no
micro-measurement mutates the tier behind its facade.  Exact counts
come from ``StatsCollector`` diffs and repeat bit-identically for a
seed.  Metric prefixes are ``src/repro`` module names.
"""

from __future__ import annotations

import asyncio
import json
import statistics
from typing import Callable, Iterable, Sequence

from repro import FrontDoor, FrontDoorServer, QueryRequest, ShardedQueryService, Telemetry
from repro.kernels.columns import NodeColumns
from repro.kernels.join import structural_join
from repro.obs.clock import now
from repro.planner.analysis import TwigAnalysis, split_segments, subpath_below
from repro.planner.evaluator import TwigQueryEngine
from repro.query.ast import Axis
from repro.query.parser import normalize_xpath, parse_xpath
from repro.storage.stats import StatsCollector, weighted_cost
from repro.xmltree import XmlDatabase, parse_string

import loadgen
import measure
import workloads
from workloads import Workload

SAMPLE_READS = 400
#: Seven add/replace/remove cycles through the facade.
SAMPLE_WRITES = 21
#: B+-tree keys probed, inserted and deleted.
SAMPLE_KEYS = 400

#: Everything :func:`measure_layers` times or counts, by name.
TIMED_METRICS = (
    "frontdoor.http_rtt_us", "frontdoor.query_http_us", "frontdoor.http_self_us",
    "frontdoor.handle_us", "frontdoor.self_us", "frontdoor.validate_us", "frontdoor.encode_us",
    "shard.execute_us", "shard.leg_sum_us", "shard.leg_max_us", "shard.overhead_us",
    "shard.translate_us", "shard.add_ms", "shard.remove_ms", "shard.replace_ms",
    "service.hit_us", "service.miss_us", "service.self_us", "service.plan_cold_us",
    "service.plan_hot_us", "service.choose_us",
    "planner.execute_us", "planner.weighted_cost_per_query", "planner.join_probes_per_query",
    "kernels.columns_build_ms", "kernels.structural_join_ns_per_row",
    "indexes.rootpaths_lookup_us", "indexes.datapaths_bound_lookup_us", "indexes.update_ms",
    "indexes.remove_ms", "indexes.rootpaths_build_s", "indexes.datapaths_build_s",
    "indexes.size_mb",
    "storage.btree_search_ns", "storage.btree_node_reads_per_lookup", "storage.btree_insert_ns",
    "storage.btree_delete_ns", "storage.page_writes_per_add",
    "query.parse_us", "query.normalize_us",
    "xmltree.parse_ms_per_doc", "xmltree.clone_ms",
    "obs.tracing_overhead_ratio", "loadgen.unattributed_share",
)

#: The spans the stack emits on a read (``src/`` gains none here).
SPAN_NAMES = (
    "frontdoor", "coalesce", "admit", "query", "scatter", "shard",
    "replica", "plan", "cache-lookup", "choose", "execute", "gather",
)


def _median(call: Callable, items: Iterable, scale: float = 1e6) -> float:
    """Median wall time of ``call(item)`` over ``items``, in ``scale`` units."""
    samples = []
    for item in items:
        started = now()
        call(item)
        samples.append(now() - started)
    return statistics.median(samples) * scale


# ----------------------------------------------------------------------
# The tier, pass by pass
# ----------------------------------------------------------------------
def measure_layers(workload: Workload, seed: int) -> dict[str, float]:
    documents = workloads.corpus_documents(seed)
    mix = workloads.ReadMix(seed, workload, documents)
    sample = [mix.xpaths[query] for query in mix.take(SAMPLE_READS)]
    telemetry = Telemetry(enabled=False, trace_capacity=SAMPLE_READS)
    with ShardedQueryService(
        num_shards=workloads.SHARDS,
        replicas=workloads.REPLICAS,
        placement=workloads.PLACEMENT,
        telemetry=telemetry,
    ) as service:
        for document in documents:
            service.add_document(document)
        for index in workloads.INDEXES:
            service.build_index(index)

        def fresh() -> None:
            """Put the caches where the workload's reads find them."""
            if workload.reads == "pool":
                # Nothing repeats on the socket; drop what the last pass cached.
                service.invalidate(rebuilt=False)

        if workload.reads == "catalog":
            # As on the socket: every replica holds every answer first.
            for _ in range(2 * workloads.REPLICAS):
                for xpath in dict.fromkeys(sample):
                    service.execute(xpath)
        metrics = asyncio.run(_frontdoor_passes(service, sample, fresh))
        metrics.update(_shard_passes(service, sample, fresh))
        metrics.update(_service_passes(service, sample, fresh))
        metrics["indexes.size_mb"] = sum(service.collection.index_sizes_mb().values())
        metrics.update(_write_passes(service, seed))
    metrics["query.parse_us"] = _median(parse_xpath, sample)
    metrics["query.normalize_us"] = _median(normalize_xpath, sample)
    metrics.update(_leaf_passes(seed, sample))

    metrics["frontdoor.http_self_us"] = (
        metrics["frontdoor.query_http_us"] - metrics["frontdoor.handle_us"]
    )
    metrics["frontdoor.self_us"] = metrics["frontdoor.handle_us"] - metrics["shard.execute_us"]
    metrics["shard.overhead_us"] = metrics["shard.execute_us"] - metrics["shard.leg_sum_us"]
    metrics["service.self_us"] = metrics["service.miss_us"] - metrics["planner.execute_us"]
    leaf = "service.hit_us" if workload.reads == "catalog" else "service.miss_us"
    metrics["loadgen.unattributed_share"] = (
        metrics["shard.leg_sum_us"] - workloads.SHARDS * metrics[leaf]
    ) / metrics["frontdoor.query_http_us"]
    return metrics


async def _frontdoor_passes(service, sample: Sequence[str], fresh: Callable) -> dict[str, float]:
    """Over the socket, then ``FrontDoor.handle``; client and server share this loop."""
    metrics: dict[str, float] = {}
    with FrontDoor(service) as door:
        server = FrontDoorServer(door)
        _host, port = await server.start()
        connection = await loadgen.HttpConnection.open(port)
        try:
            requests = [loadgen.encode_query(xpath) for xpath in sample]

            async def http_pass() -> float:
                fresh()
                samples = []
                for request in requests:
                    started = now()
                    await connection.roundtrip(request)
                    samples.append(now() - started)
                return statistics.median(samples) * 1e6

            metrics["frontdoor.query_http_us"] = await http_pass()
            service.telemetry.enabled = True
            try:
                traced = await http_pass()
            finally:
                service.telemetry.enabled = False
            metrics["obs.tracing_overhead_ratio"] = traced / metrics["frontdoor.query_http_us"]
            metrics.update(span_self_times(service.traces()))

            samples = []
            for _ in sample:
                started = now()
                await connection.roundtrip(loadgen.HEALTHZ)
                samples.append(now() - started)
            metrics["frontdoor.http_rtt_us"] = statistics.median(samples) * 1e6

            fresh()
            samples, responses = [], []
            for xpath in sample:
                started = now()
                responses.append(await door.handle({"xpath": xpath}))
                samples.append(now() - started)
            metrics["frontdoor.handle_us"] = statistics.median(samples) * 1e6
        finally:
            await connection.close()
            await server.stop()
    metrics["frontdoor.validate_us"] = _median(
        QueryRequest.from_dict, ({"xpath": xpath} for xpath in sample)
    )
    metrics["frontdoor.encode_us"] = _median(
        lambda response: json.dumps(response.to_dict(), sort_keys=True), responses
    )
    return metrics


def span_self_times(traces) -> dict[str, float]:
    """``obs.span.<name>.self_us``: per request, median over the traces."""
    per_trace = []
    for trace in traces:
        if trace.root.name != "frontdoor":
            continue
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, seconds in measure.self_times(trace.root):
            if name in totals:
                totals[name] += seconds
        per_trace.append(totals)
    return {
        f"obs.span.{name}.self_us": statistics.median(t[name] for t in per_trace) * 1e6
        for name in SPAN_NAMES
    }


def _shard_passes(service, sample: Sequence[str], fresh: Callable) -> dict[str, float]:
    """The sharded facade, then each shard's leg and its id translation in turn."""
    fresh()
    metrics = {"shard.execute_us": _median(service.execute, sample)}
    fresh()
    collection = service.collection
    leg_sums, leg_maxes, translates = [], [], []
    for xpath in sample:
        legs, translate = [], 0.0
        for shard in collection.shards:
            started = now()
            partial = shard.execute(xpath)
            legs.append(now() - started)
            local_ids = sorted(partial.ids)
            started = now()
            collection.translate_sorted(shard.index, local_ids)
            translate += now() - started
        leg_sums.append(sum(legs))
        leg_maxes.append(max(legs))
        translates.append(translate)
    metrics["shard.leg_sum_us"] = statistics.median(leg_sums) * 1e6
    metrics["shard.leg_max_us"] = statistics.median(leg_maxes) * 1e6
    metrics["shard.translate_us"] = statistics.median(translates) * 1e6
    return metrics


def _service_passes(service, sample: Sequence[str], fresh: Callable) -> dict[str, float]:
    """One replica's ``QueryService`` (shard 0, replica 0) and the engine under it."""
    replica = service.collection.shards[0].replicas[0].service
    engine = replica.engine
    metrics: dict[str, float] = {}

    fresh()
    for xpath in sample:
        replica.execute(xpath)
    metrics["service.hit_us"] = _median(replica.execute, sample)
    fresh()
    metrics["service.miss_us"] = _median(
        lambda xpath: replica.execute(xpath, use_result_cache=False), sample
    )

    def cold_plan(xpath: str) -> None:
        replica.plan_cache.clear()
        started = now()
        replica.plan(xpath)
        cold.append(now() - started)
        started = now()
        replica.plan(xpath)
        hot.append(now() - started)

    def cold_choice(xpath: str) -> None:
        replica.choice_cache.clear()
        started = now()
        replica.choose(xpath)
        chosen.append(now() - started)

    cold, hot, chosen = [], [], []
    for xpath in sample:
        cold_plan(xpath)
        cold_choice(xpath)
    metrics["service.plan_cold_us"] = statistics.median(cold) * 1e6
    metrics["service.plan_hot_us"] = statistics.median(hot) * 1e6
    metrics["service.choose_us"] = statistics.median(chosen) * 1e6

    # What QueryService runs on a miss, with the plan the optimizer priced.
    prepared = []
    for xpath in sample:
        choice = replica.choose(xpath)
        options = {}
        if choice.strategy == "datapaths" and choice.datapaths_plan is not None:
            options["force_plan"] = choice.datapaths_plan.plan
        prepared.append(
            (replica.strategy_instance(choice.strategy, **options), replica.plan(xpath), xpath)
        )
    before = engine.stats.snapshot()
    metrics["planner.execute_us"] = _median(
        lambda item: engine.execute_prepared(item[0], item[1], xpath=item[2]), prepared
    )
    spent = engine.stats.diff(before)
    metrics["planner.weighted_cost_per_query"] = weighted_cost(spent) / len(sample)
    metrics["planner.join_probes_per_query"] = spent["join_probes"] / len(sample)
    return metrics


def _write_passes(service, seed: int) -> dict[str, float]:
    """The first write cycles through the facade, parse and clone timed apart."""
    timings: dict[str, list[float]] = {"add": [], "replace": [], "remove": [], "parse": [], "clone": []}
    page_writes = 0
    ops = workloads.write_ops(seed)
    for _ in range(SAMPLE_WRITES):
        op, name, xml = next(ops)
        if xml is not None:
            started = now()
            document = parse_string(xml, name=name)
            timings["parse"].append(now() - started)
            started = now()
            document.clone()
            timings["clone"].append(now() - started)
        before = sum(s.stats_snapshot()["btree_page_writes"] for s in service.collection.shards)
        started = now()
        if op == "add":
            service.add_document(document)
        elif op == "replace":
            service.replace_document(name, document)
        else:
            service.remove_document(name)
        timings[op].append(now() - started)
        if op == "add":
            page_writes += (
                sum(s.stats_snapshot()["btree_page_writes"] for s in service.collection.shards)
                - before
            )
    return {
        "shard.add_ms": statistics.median(timings["add"]) * 1e3,
        "shard.replace_ms": statistics.median(timings["replace"]) * 1e3,
        "shard.remove_ms": statistics.median(timings["remove"]) * 1e3,
        "xmltree.parse_ms_per_doc": statistics.median(timings["parse"]) * 1e3,
        "xmltree.clone_ms": statistics.median(timings["clone"]) * 1e3,
        "storage.page_writes_per_add": page_writes / len(timings["add"]),
    }


# ----------------------------------------------------------------------
# Leaf layers, on one shard's worth of the corpus
# ----------------------------------------------------------------------
def _leaf_passes(seed: int, sample: Sequence[str]) -> dict[str, float]:
    metrics: dict[str, float] = {}
    documents = workloads.corpus_documents(seed)
    db = XmlDatabase()
    for document in documents[:: workloads.SHARDS]:  # round-robin: shard 0's share
        db.add_document(document)
    engine = TwigQueryEngine(db, stats=StatsCollector())
    for name in workloads.INDEXES:
        started = now()
        engine.build_index(name)
        metrics[f"indexes.{name}_build_s"] = now() - started
    rootpaths, datapaths = (engine.indexes[name] for name in workloads.INDEXES)

    # Incremental maintenance of both indexes for one write-cycle document.
    _op, name, xml = next(workloads.write_ops(seed))
    updates, removes = [], []
    for _ in range(5):
        document = db.add_document(parse_string(xml, name=name))
        started = now()
        for index in (rootpaths, datapaths):
            index.update(db, document)
        updates.append(now() - started)
        db.remove_document(document)
        started = now()
        for index in (rootpaths, datapaths):
            index.remove(db, document)
        removes.append(now() - started)
    metrics["indexes.update_ms"] = statistics.median(updates) * 1e3
    metrics["indexes.remove_ms"] = statistics.median(removes) * 1e3

    # Lookups with the sample's own root-to-leaf paths.
    free, bound = [], []
    for xpath in dict.fromkeys(sample):
        for path in TwigAnalysis(parse_xpath(xpath)).paths:
            nodes = path.query.nodes
            segments, anchored = split_segments(nodes)
            free.append((segments[-1], path.query.value, anchored and len(segments) == 1))
            below = subpath_below(nodes, path.join_point)
            if below and all(node.axis is Axis.CHILD for node in below):
                head = next(db.iter_by_label(path.join_point.label), None)
                if head is not None:
                    labels = tuple(node.label for node in below)
                    bound.append((head.node_id, labels, path.query.value))
    metrics["indexes.rootpaths_lookup_us"] = _median(
        lambda probe: rootpaths.lookup_payloads(probe[0], value=probe[1], anchored=probe[2]), free
    )
    metrics["indexes.datapaths_bound_lookup_us"] = _median(
        lambda probe: datapaths.bound_lookup_payloads(
            probe[0], probe[1], value=probe[2], anchored=True
        ),
        bound,
    )

    # Kernels: the columnar rebuild a write forces, and one structural join.
    metrics["kernels.columns_build_ms"] = _median(lambda _: NodeColumns(db), range(5), scale=1e3)
    columns = NodeColumns.for_database(db)
    items = columns.positions_of_label("item")
    mails = columns.positions_of_label("mail")
    metrics["kernels.structural_join_ns_per_row"] = _median(
        lambda _: structural_join(items, mails, columns.ids, columns.ends), range(25), scale=1e9
    ) / (len(items) + len(mails))

    # The DATAPATHS B+-tree on its own keys.  The index keeps its tree
    # private; reading it is the one place this file looks inside a layer.
    tree = datapaths._tree
    entries = list(tree.scan_all())
    keys = [key for key, _payload in entries[:: max(1, len(entries) // SAMPLE_KEYS)]]
    before = engine.stats.snapshot()
    metrics["storage.btree_search_ns"] = _median(tree.search, keys, scale=1e9)
    reads = engine.stats.diff(before)["btree_node_reads"]
    metrics["storage.btree_node_reads_per_lookup"] = reads / len(keys)
    marker = ("bench-marker",)
    metrics["storage.btree_insert_ns"] = _median(
        lambda key: tree.insert(key, marker), keys, scale=1e9
    )
    metrics["storage.btree_delete_ns"] = _median(
        lambda key: tree.delete(key, marker), keys, scale=1e9
    )
    return metrics


# ----------------------------------------------------------------------
# Counts the server child reports at the end of the socket run
# ----------------------------------------------------------------------
def counter_metrics(counters: dict) -> dict[str, float]:
    caches = counters["caches"]

    def hit_rate(cache: dict) -> float:
        lookups = cache["hits"] + cache["misses"]
        return cache["hits"] / lookups if lookups else 0.0

    served = counters["served"]
    return {
        "frontdoor.coalesced_share": counters["coalesced"] / served if served else 0.0,
        "frontdoor.queue_peak": float(counters["queue_peak"]),
        "frontdoor.rejected": float(counters["rejected"]),
        "shard.reads_retried": float(counters["reads_retried"]),
        "shard.replica_reads": float(counters["replica_reads"]),
        "service.result_hit_rate": hit_rate(caches["result_cache"]),
        "service.plan_hit_rate": hit_rate(caches["plan_cache"]),
        "service.invalidations": float(counters["invalidations"]),
    }
