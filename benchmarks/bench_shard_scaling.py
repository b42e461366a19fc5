"""Shard scaling — scatter-gather serving vs the single-engine baseline.

A serving tier rarely sees a read-only workload: documents keep
arriving while the same queries repeat.  On a single engine every
``add_document`` invalidates the *whole* result cache, so each write
forces the next round of the workload to re-execute every query over
the full database.  The sharded tier confines a write to one shard —
its indexes absorb the document, its result cache flushes, and the
other shards keep serving their cached partial answers — so a round
after a write re-executes only one shard's slice of the data.

This bench replays the Figure 12 twig workload as such a mixed
read/write serving loop (one small document arrives between rounds)
against the single-engine :class:`~repro.service.QueryService` and
against :class:`~repro.shard.ShardedQueryService` at 1, 2 and 4
shards.

Asserted shape:

* every sharded answer is identical to the single-engine answer (the
  scatter-gather merge is exact),
* the logical re-execution work after a write shrinks with the shard
  count: the 4-shard tier charges at most half the single engine's
  weighted cost over the loop (measured 9049 / 27660 = 0.33x) — this
  is what write isolation delivers, and it compares across machines,
* in wall-clock the 4-shard tier stays at or above 0.6x the
  single-engine throughput (measured 0.76-0.87x over three runs at the
  revision that introduced this pin; 0.55-0.71x at its parent, whose
  scatter still paid a thread hand-off per leg).

The wall-clock pin is a floor, not a speed-up, and that is the honest
reading at this corpus size.  Since the columnar kernels, re-executing
one Figure 12 twig over the *whole* 4-document corpus costs the single
engine ~340 us (span trace: ``execute`` ~210, ``choose`` ~90).  The
4-shard tier re-executes only the written shard's quarter (``execute``
~90 us, beside the same ``auto`` choice) but pays a fixed price per
query that does not shrink with the data: four legs at ~45 us each
(``shard`` and engine ``query`` spans, plan and result-cache lookups,
result copy) and the id-translating gather (~35 us) — ~230 us against
the ~120 us of execution it saves.  So at this size sharding buys
isolation of logical work, not queries per second; the earlier
">=1.5x" pin predates the kernels, when a re-execution cost
milliseconds.  The floor guards the per-leg fixed cost: it is the
number that falls if scatter or gather grows.
"""

from __future__ import annotations

import statistics

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.bench import format_table, write_bench_report
from repro.datasets import generate_xmark
from repro.obs.clock import now
from repro.workloads import query

#: The Figure 12 twig workload (high and low branch points).
FIG12_QUERIES = ("Q4x", "Q5x", "Q6x", "Q7x", "Q8x", "Q9x", "Q10x", "Q11x")

#: Base corpus: four XMark-like documents spread across the shards.
BASE_DOCS = 4
BASE_SCALE = 0.08

#: Serving rounds; one small document arrives before every round past
#: the first, so each round past the first starts with a cold slice.
ROUNDS = 8
DELTA_SCALE = 0.01

SHARD_COUNTS = (1, 2, 4)


def _base_documents():
    return [
        generate_xmark(scale=BASE_SCALE, seed=1000 + i, name=f"xmark-{i}")
        for i in range(BASE_DOCS)
    ]


def _delta_document(round_number: int):
    return generate_xmark(
        scale=DELTA_SCALE, seed=9000 + round_number, name=f"delta-{round_number}"
    )


def _serve(execute, add_document, stats_cost):
    """Run the mixed read/write serving loop; return measurements.

    One warm-up pass fills every cache tier before the clock starts, so
    the timed loop measures the steady serving state: each round one
    document arrives, then the whole Figure 12 workload is served.
    """
    workload = [query(qid).xpath for qid in FIG12_QUERIES]
    for xpath in workload:  # warm-up: caches filled, indexes probed
        execute(xpath)
    cost_before = stats_cost()
    round_seconds: list[float] = []
    add_seconds = 0.0
    answers = {}
    for round_number in range(1, ROUNDS + 1):
        started = now()
        add_document(_delta_document(round_number))
        add_seconds += now() - started
        started = now()
        for xpath in workload:
            answers[xpath] = execute(xpath).ids
        round_seconds.append(now() - started)
    return {
        # Query-serving throughput: the maintenance cost of the arriving
        # documents is timed separately — it is identical logical work
        # on either tier and would otherwise drown the serving signal.
        # Throughput is taken from the *median* round, so one scheduler
        # hiccup on a shared CI runner cannot skew the asserted ratio.
        "elapsed": sum(round_seconds),
        "add_seconds": add_seconds,
        "queries": ROUNDS * len(workload),
        "qps": len(workload) / statistics.median(round_seconds),
        "cost": stats_cost() - cost_before,
        "answers": answers,
    }


def _run_single():
    database = TwigIndexDatabase.from_documents(_base_documents())
    database.build_index("rootpaths")
    database.build_index("datapaths")
    service = database.service
    return _serve(
        lambda xpath: service.execute(xpath, strategy="auto"),
        service.add_document,
        database.stats.total_cost,
    )


def _run_sharded(num_shards: int):
    with ShardedQueryService.from_documents(
        _base_documents(), num_shards=num_shards, placement="round_robin"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")

        def total_cost() -> int:
            return sum(shard.stats.total_cost() for shard in service.collection.shards)

        measured = _serve(
            lambda xpath: service.execute(xpath, strategy="auto"),
            service.add_document,
            total_cost,
        )
        measured["describe"] = service.describe()
    return measured


@pytest.fixture(scope="module")
def scaling():
    single = _run_single()
    sharded = {count: _run_sharded(count) for count in SHARD_COUNTS}

    rows = [
        [
            "single engine",
            f"{single['elapsed']:.3f}",
            f"{single['add_seconds']:.3f}",
            f"{single['qps']:.0f}",
            f"{single['cost']}",
            "1.00x",
        ]
    ]
    for count in SHARD_COUNTS:
        measured = sharded[count]
        rows.append(
            [
                f"{count} shard{'s' if count > 1 else ''}",
                f"{measured['elapsed']:.3f}",
                f"{measured['add_seconds']:.3f}",
                f"{measured['qps']:.0f}",
                f"{measured['cost']}",
                f"{measured['qps'] / single['qps']:.2f}x",
            ]
        )
    print()
    print(
        format_table(
            ["tier", "serve s", "add s", "queries/s", "logical cost", "throughput"],
            rows,
            title=(
                f"Shard scaling — Figure 12 workload, {ROUNDS} rounds, "
                f"one document add per round"
            ),
        )
    )
    write_bench_report(
        "shard_scaling",
        {
            "rounds": ROUNDS,
            "workload": list(FIG12_QUERIES),
            "single": {"qps": single["qps"], "cost": single["cost"]},
            "sharded": {
                str(count): {
                    "qps": sharded[count]["qps"],
                    "cost": sharded[count]["cost"],
                    "cost_ratio": sharded[count]["cost"] / single["cost"],
                    "throughput_ratio": sharded[count]["qps"] / single["qps"],
                }
                for count in SHARD_COUNTS
            },
        },
    )
    return {"single": single, "sharded": sharded}


def test_sharded_answers_match_single_engine(scaling):
    for count in SHARD_COUNTS:
        answers = scaling["sharded"][count]["answers"]
        for xpath, expected in scaling["single"]["answers"].items():
            assert answers[xpath] == expected, (count, xpath)


def test_four_shards_hold_at_least_0_6x_single_throughput(scaling):
    # A floor on the per-query fixed cost of four legs plus the gather,
    # not a speed-up claim: see the module docstring for the measured
    # ratio and why write isolation no longer shows up in wall-clock.
    single_qps = scaling["single"]["qps"]
    sharded_qps = scaling["sharded"][4]["qps"]
    assert sharded_qps >= 0.6 * single_qps, (
        f"4-shard scatter-gather {sharded_qps:.0f} q/s fell under 0.6x "
        f"the single-engine {single_qps:.0f} q/s"
    )


def test_write_isolation_shrinks_logical_reexecution_cost(scaling):
    # Each write invalidates 1/N of the cached results, so the weighted
    # logical cost of the whole loop must shrink with the shard count.
    single_cost = scaling["single"]["cost"]
    assert scaling["sharded"][4]["cost"] <= 0.5 * single_cost
    assert scaling["sharded"][2]["cost"] <= scaling["sharded"][1]["cost"]
    assert scaling["sharded"][4]["cost"] <= scaling["sharded"][2]["cost"]


def test_writes_only_invalidate_their_own_shard(scaling):
    report = scaling["sharded"][4]["describe"]
    # Every add (base corpus + one per round) invalidates exactly one
    # shard's results — never multiplied by the shard count.
    assert report["invalidations"]["result_only"] == BASE_DOCS + ROUNDS
    assert report["invalidations"]["full"] == 2 * 4  # two index builds
    assert report["caches"]["result_cache"]["hits"] > 0


def test_shard_scaling_benchmark_scatter_gather(benchmark):
    with ShardedQueryService.from_documents(
        _base_documents(), num_shards=4, placement="round_robin"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")
        xpath = query("Q4x").xpath
        service.execute(xpath)  # warm per-shard caches
        benchmark(lambda: service.execute(xpath, use_result_cache=False))
