"""Rebalancing and replication — the dynamic-topology wins, pinned.

Two serving-tier phenomena the static topology of PR 3 could not fix,
measured and asserted here:

**Skew recovery.**  Hash placement is deterministic, so a corpus whose
names happen to collide lands on one shard and *stays* there — every
write invalidates the mega-shard's result cache and each serving round
re-executes the whole workload over effectively the whole corpus, while
the other shards sit idle.  The bench builds exactly that pathology
(names crafted to hash onto shard 0 of 4), replays the Figure 12 twig
workload as a mixed read/write loop (one small skew-named document
arrives per round), then calls ``rebalance(policy="size_balanced")``
and replays the same loop.  Post-rebalance each write invalidates only
the part of the corpus that shares shard 0 with it; the other shards
keep serving their cached partial answers.  Asserted: the weighted
logical cost of serving the loop falls to at most **0.7x** the skewed
topology's (measured 7881 / 13033 = 0.60x; shard 0 still receives every
skew-named arrival, so it ends the loop with 10 of 18 documents), with
answers identical to the index-free oracle before and after, and the
move/span counters surfaced through ``describe()``.

In wall-clock the rebalanced tier is pinned to a floor, at least
**0.6x** the skewed throughput (measured 0.74-0.83x over three runs at
the revision that introduced this pin; 0.53x at its parent, whose
scatter paid a thread hand-off per leg).  It is *slower* than the
skewed tier for the reason ``bench_shard_scaling.py`` spells out: a
skewed corpus is a one-leg scatter, the rebalanced one runs four legs
and a four-way gather per query (~230 us of fixed cost), and since the
columnar kernels the re-execution a write forces over the whole corpus
costs less than that.  What rebalancing delivers here is bounded
logical work per write, which the cost pin measures; the ">=1.2x
throughput" this bench used to assert predates the kernels.

**Replica read scale-out.**  Pure-Python threads cannot parallelize
CPU-bound twig matching, so the honest replica win in this codebase is
*aggregate result-cache capacity*: when the distinct-query working set
overflows one engine's result cache, a cyclic workload thrashes the
LRU and every round re-executes everything.  Three replicas behind the
``sticky`` picker partition the working set by query hash — each
replica caches only its slice, the slices fit, and steady-state rounds
serve from cache.  The bench runs a 12-query read-only workload
against a result cache of 6 entries with 1 replica vs 3 replicas
(sticky), asserting at least **1.5x** read throughput; the
``round_robin`` picker is measured alongside to show affinity is what
makes the capacity win (each replica eventually sees every query, so
round-robin still thrashes).

Both experiments are summarized into ``BENCH_rebalance.json``
(:func:`repro.bench.write_bench_report`) so the trajectory is tracked
across PRs.
"""

from __future__ import annotations

import statistics
import zlib

import pytest

from repro import ShardedQueryService
from repro.bench import format_table, write_bench_report
from repro.datasets import generate_xmark
from repro.obs.clock import now
from repro.workloads import query

#: The Figure 12 twig workload (high and low branch points).
FIG12_QUERIES = ("Q4x", "Q5x", "Q6x", "Q7x", "Q8x", "Q9x", "Q10x", "Q11x")

#: The wider read workload of the replica experiment: 13 distinct
#: queries — more than REPLICA_CACHE_SIZE result slots, and coprime to
#: the replica count so round-robin cannot degenerate into accidental
#: affinity (a cycle divisible by the replica count would pin each
#: query to one replica by alignment alone).  The sticky slices (CRC32
#: mod 3) are 4/4/5 queries, each within one replica's cache.
READ_QUERIES = FIG12_QUERIES + ("Q1x", "Q2x", "Q3x", "Q12x", "Q13x")

NUM_SHARDS = 4
BASE_DOCS = 6
BASE_SCALE = 0.04
ROUNDS = 6
DELTA_SCALE = 0.01

REPLICAS = 3
REPLICA_CACHE_SIZE = 6
READ_ROUNDS = 5


def _skewed_name(base: str) -> str:
    """A document name whose CRC32 lands on shard 0 of NUM_SHARDS."""
    for salt in range(10_000):
        name = f"{base}-{salt}"
        if zlib.crc32(name.encode("utf-8")) % NUM_SHARDS == 0:
            return name
    raise AssertionError("no skewed name found")  # pragma: no cover


def _base_documents():
    return [
        generate_xmark(scale=BASE_SCALE, seed=1000 + i, name=_skewed_name(f"doc-{i}"))
        for i in range(BASE_DOCS)
    ]


def _delta_document(round_number: int):
    return generate_xmark(
        scale=DELTA_SCALE,
        seed=9000 + round_number,
        name=_skewed_name(f"delta-{round_number}"),
    )


def _serve_rounds(service, workload, first_round, rounds):
    """The mixed read/write loop; returns median-round qps, cost, answers."""

    def total_cost() -> int:
        return sum(shard.stats.total_cost() for shard in service.shards)

    for xpath in workload:  # warm-up: caches filled, indexes probed
        service.execute(xpath)
    round_seconds: list[float] = []
    serving_cost = 0
    answers = {}
    for round_number in range(first_round, first_round + rounds):
        service.add_document(_delta_document(round_number))
        cost_before = total_cost()
        started = now()
        for xpath in workload:
            answers[xpath] = service.execute(xpath).ids
        round_seconds.append(now() - started)
        serving_cost += total_cost() - cost_before
    return {
        # Median round, so one scheduler hiccup cannot skew the ratio.
        "qps": len(workload) / statistics.median(round_seconds),
        "elapsed": sum(round_seconds),
        # Weighted logical cost of the query rounds alone (the adds'
        # maintenance is excluded): what each write forced the tier to
        # re-execute.
        "cost": serving_cost,
        "answers": answers,
    }


@pytest.fixture(scope="module")
def skew_recovery():
    workload = [query(qid).xpath for qid in FIG12_QUERIES]
    with ShardedQueryService.from_documents(
        _base_documents(), num_shards=NUM_SHARDS, placement="hash"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")
        spread_before = service.topology.live_counts()

        pre = _serve_rounds(service, workload, first_round=1, rounds=ROUNDS)
        pre["oracle"] = {xpath: service.oracle(xpath) for xpath in workload}

        report = service.rebalance("size_balanced", compact=True)
        spread_after = service.topology.live_counts()

        post = _serve_rounds(service, workload, first_round=ROUNDS + 1, rounds=ROUNDS)
        post["oracle"] = {xpath: service.oracle(xpath) for xpath in workload}
        describe = service.describe()
        gauges = service.metrics()["gauges"]

    measured = {
        "pre": pre,
        "post": post,
        "rebalance": report,
        "spread_before": spread_before,
        "spread_after": spread_after,
        "describe": describe,
        "stats_gauges": {
            series["labels"]["counter"]: series["value"]
            for family in gauges
            if family["name"] == "repro_stats"
            for series in family["series"]
        },
    }
    print()
    print(
        format_table(
            [
                "topology",
                "documents per shard",
                "queries/s",
                "throughput",
                "logical cost",
                "cost",
            ],
            [
                [
                    "skewed (hash)",
                    "/".join(map(str, spread_before)),
                    f"{pre['qps']:.0f}",
                    "1.00x",
                    f"{pre['cost']}",
                    "1.00x",
                ],
                [
                    "rebalanced",
                    "/".join(map(str, spread_after)),
                    f"{post['qps']:.0f}",
                    f"{post['qps'] / pre['qps']:.2f}x",
                    f"{post['cost']}",
                    f"{post['cost'] / pre['cost']:.2f}x",
                ],
            ],
            title=(
                f"Skew recovery — Figure 12 workload, {ROUNDS} rounds, "
                f"one skew-named add per round, {NUM_SHARDS} shards"
            ),
        )
    )
    return measured


@pytest.fixture(scope="module")
def replica_scaling():
    workload = [query(qid).xpath for qid in READ_QUERIES]
    documents_params = [(0.03, 2000 + i, f"rdoc-{i}") for i in range(3)]

    def build(replicas: int, picker: str) -> ShardedQueryService:
        service = ShardedQueryService.from_documents(
            [
                generate_xmark(scale=scale, seed=seed, name=name)
                for scale, seed, name in documents_params
            ],
            num_shards=1,
            placement="hash",
            replicas=replicas,
            read_picker=picker,
            result_cache_size=REPLICA_CACHE_SIZE,
        )
        service.build_index("rootpaths")
        service.build_index("datapaths")
        return service

    def serve_reads(service: ShardedQueryService) -> dict:
        for xpath in workload:  # warm-up
            service.execute(xpath)
        round_seconds: list[float] = []
        answers = {}
        for _ in range(READ_ROUNDS):
            started = now()
            for xpath in workload:
                answers[xpath] = service.execute(xpath).ids
            round_seconds.append(now() - started)
        return {
            "qps": len(workload) / statistics.median(round_seconds),
            "answers": answers,
            "oracle": {xpath: service.oracle(xpath) for xpath in workload},
            "describe": service.describe(),
        }

    measured = {}
    for label, replicas, picker in (
        ("single", 1, "sticky"),
        ("sticky", REPLICAS, "sticky"),
        ("round_robin", REPLICAS, "round_robin"),
    ):
        with build(replicas, picker) as service:
            measured[label] = serve_reads(service)
            measured[label]["replicas"] = replicas
            measured[label]["picker"] = picker

    rows = []
    for label in ("single", "sticky", "round_robin"):
        entry = measured[label]
        rows.append(
            [
                f"{entry['replicas']} replica{'s' if entry['replicas'] > 1 else ''} "
                f"({entry['picker']})",
                f"{entry['qps']:.0f}",
                f"{entry['qps'] / measured['single']['qps']:.2f}x",
            ]
        )
    print()
    print(
        format_table(
            ["tier", "queries/s", "throughput"],
            rows,
            title=(
                f"Replica read scale-out — {len(READ_QUERIES)} distinct "
                f"queries, result cache {REPLICA_CACHE_SIZE}/replica"
            ),
        )
    )
    return measured


@pytest.fixture(scope="module")
def bench_artifact(skew_recovery, replica_scaling):
    rebalance = skew_recovery["rebalance"]
    summary = {
        "skew_recovery": {
            "shards": NUM_SHARDS,
            "placement": "hash",
            "rounds": ROUNDS,
            "workload": list(FIG12_QUERIES),
            "documents_per_shard_before": skew_recovery["spread_before"],
            "documents_per_shard_after": skew_recovery["spread_after"],
            "pre_qps": skew_recovery["pre"]["qps"],
            "post_qps": skew_recovery["post"]["qps"],
            "throughput_ratio": skew_recovery["post"]["qps"]
            / skew_recovery["pre"]["qps"],
            "pre_cost": skew_recovery["pre"]["cost"],
            "post_cost": skew_recovery["post"]["cost"],
            "cost_ratio": skew_recovery["post"]["cost"]
            / skew_recovery["pre"]["cost"],
            "documents_moved": rebalance.documents_moved,
            "nodes_moved": rebalance.nodes_moved,
            "spans_pruned": rebalance.spans_pruned,
            "rebalance_maintenance_cost": rebalance.maintenance_cost,
        },
        "replica_scaling": {
            "replicas": REPLICAS,
            "result_cache_size": REPLICA_CACHE_SIZE,
            "read_rounds": READ_ROUNDS,
            "workload": list(READ_QUERIES),
            "single_qps": replica_scaling["single"]["qps"],
            "sticky_qps": replica_scaling["sticky"]["qps"],
            "round_robin_qps": replica_scaling["round_robin"]["qps"],
            "throughput_ratio": replica_scaling["sticky"]["qps"]
            / replica_scaling["single"]["qps"],
        },
    }
    return write_bench_report("rebalance", summary)


def test_corpus_starts_skewed_and_rebalance_spreads_it(skew_recovery):
    # The crafted names all hash to shard 0; size_balanced undoes it.
    assert skew_recovery["spread_before"][0] == BASE_DOCS
    assert sum(skew_recovery["spread_before"][1:]) == 0
    assert all(count > 0 for count in skew_recovery["spread_after"])
    assert skew_recovery["rebalance"].documents_moved > 0
    # Retired spans from the moves were compacted out of the hot path.
    assert skew_recovery["rebalance"].spans_pruned >= (
        skew_recovery["rebalance"].documents_moved
    )


def test_answers_identical_before_and_after_rebalance(skew_recovery):
    for phase in ("pre", "post"):
        answers = skew_recovery[phase]["answers"]
        oracle = skew_recovery[phase]["oracle"]
        for xpath, expected in oracle.items():
            assert answers[xpath] == expected, (phase, xpath)


def test_rebalance_shrinks_logical_reexecution_cost(skew_recovery):
    # Skewed, every write flushes the one shard that holds everything;
    # rebalanced, only shard 0's share of the corpus is re-executed.
    pre_cost = skew_recovery["pre"]["cost"]
    post_cost = skew_recovery["post"]["cost"]
    assert post_cost <= 0.7 * pre_cost, (
        f"post-rebalance serving cost {post_cost} is not under 0.7x the "
        f"skewed {pre_cost}"
    )


def test_rebalanced_tier_holds_at_least_0_6x_skewed_throughput(skew_recovery):
    # A floor on the fixed cost of four legs plus the gather, not a
    # speed-up claim: see the module docstring.
    pre_qps = skew_recovery["pre"]["qps"]
    post_qps = skew_recovery["post"]["qps"]
    assert post_qps >= 0.6 * pre_qps, (
        f"post-rebalance {post_qps:.0f} q/s fell under 0.6x the skewed "
        f"{pre_qps:.0f} q/s"
    )


def test_move_counters_surface_through_describe(skew_recovery):
    report = skew_recovery["describe"]
    moved = skew_recovery["rebalance"].documents_moved
    # One count (a StatsCollector counter on the target shard), read
    # through describe() and through the metrics scrape.
    assert report["maintenance"]["documents_moved"] == moved
    assert skew_recovery["stats_gauges"]["documents_moved"] == moved
    assert report["topology"]["spans_retired"] >= moved
    assert report["topology"]["retired_spans"] == 0  # compacted
    # The moves are priced in the shared currency on the shard collectors.
    total_moved = sum(
        shard["service"]["maintenance"]["documents_removed"]
        for shard in report["shards"]
    )
    assert total_moved >= moved


def test_replica_answers_match_oracle(replica_scaling):
    for label in ("single", "sticky", "round_robin"):
        entry = replica_scaling[label]
        for xpath, expected in entry["oracle"].items():
            assert entry["answers"][xpath] == expected, (label, xpath)


def test_three_replicas_serve_at_least_1_5x_single_read_throughput(replica_scaling):
    single_qps = replica_scaling["single"]["qps"]
    sticky_qps = replica_scaling["sticky"]["qps"]
    assert sticky_qps >= 1.5 * single_qps, (
        f"3-replica sticky {sticky_qps:.0f} q/s is not 1.5x the "
        f"single-replica {single_qps:.0f} q/s"
    )


def test_sticky_affinity_beats_round_robin_on_overflowing_working_set(replica_scaling):
    # Round-robin shows every replica every query, so per-replica caches
    # still thrash; affinity is what converts replicas into capacity.
    assert (
        replica_scaling["sticky"]["qps"] > replica_scaling["round_robin"]["qps"]
    )


def test_replica_reads_fan_out_and_caches_hit(replica_scaling):
    sticky = replica_scaling["sticky"]["describe"]
    reads = sticky["replica_reads"]["per_shard"][0]
    assert len(reads) == REPLICAS
    assert all(count > 0 for count in reads)
    assert sticky["caches"]["result_cache"]["hits"] > 0


def test_bench_artifact_written(bench_artifact):
    import json

    payload = json.loads(bench_artifact.read_text(encoding="utf-8"))
    assert payload["bench"] == "rebalance"
    assert payload["summary"]["skew_recovery"]["cost_ratio"] <= 0.7
    assert payload["summary"]["replica_scaling"]["throughput_ratio"] >= 1.5
