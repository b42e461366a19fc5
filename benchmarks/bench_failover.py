"""Failover under fault injection — the self-driving tier, pinned.

The operations claim of the replicated tier, measured and asserted:
**losing a replica mid-workload costs throughput, never answers.**

The bench builds two identical serving tiers (2 shards × 3 replicas,
round-robin reads) over the same corpus and replays the same read
workload — the Figure 12 twig queries — for the same number of rounds.
The *healthy* run is left alone.  In the *faulted* run, a seeded
:class:`repro.faults.FaultPlan` is injected into one replica of shard 0
after two rounds, mid-workload: every subsequent read that routes to it
raises, the health machine walks the replica healthy → suspect → dead,
and the shard quarantines it and retries the failed reads on the
surviving replicas.  Every measured read passes
``use_result_cache=False``: a repeated query otherwise lands at the
tier's answer cache and never reaches a replica, and a failover bench
measures reads that do.

Asserted, per round and per query, for both runs: answers bit-identical
to a never-faulted **single** engine over the same documents (not just
the sharded oracle — the whole distributed tier against one
:class:`~repro.TwigIndexDatabase`).  Asserted on throughput: the
faulted run keeps at least **0.6x** the healthy run's queries/s — the
failure costs the failed attempts, not availability.  The failover counters (reads retried,
replicas failed) are asserted through ``describe()``.

Summarized into ``BENCH_failover.json``
(:func:`repro.bench.write_bench_report`) so the trajectory is tracked
across PRs.
"""

from __future__ import annotations

import statistics

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.bench import format_table, write_bench_report
from repro.datasets import generate_xmark
from repro.faults import FaultPlan, inject
from repro.obs.clock import now
from repro.workloads import query

#: The Figure 12 twig workload (high and low branch points).
FIG12_QUERIES = ("Q4x", "Q5x", "Q6x", "Q7x", "Q8x", "Q9x", "Q10x", "Q11x")

NUM_SHARDS = 2
REPLICAS = 3
NUM_DOCS = 4
SCALE = 0.03
ROUNDS = 6
KILL_AFTER_ROUND = 2  # the fault goes live mid-workload, not at startup

#: Seeded plan: every read against the victim replica fails once the
#: injection is live, so the health machine must walk it all the way to
#: dead (rate=1.0 keeps the seeded schedule deterministic in outcome).
FAULT_SEED = 20260808
FAULT_PLAN = FaultPlan.seeded(seed=FAULT_SEED, horizon=10_000, rate=1.0)


def _documents():
    return [
        generate_xmark(scale=SCALE, seed=4000 + i, name=f"fdoc-{i}")
        for i in range(NUM_DOCS)
    ]


def _build_service() -> ShardedQueryService:
    service = ShardedQueryService.from_documents(
        _documents(),
        num_shards=NUM_SHARDS,
        placement="hash",
        replicas=REPLICAS,
        read_picker="round_robin",
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    for shard in service.collection.shards:
        # Tighten the health machine so the workload's read volume is
        # enough to finish the walk to dead within the measured rounds
        # (the defaults are tuned for long-running serving, not a
        # 6-round bench).
        shard.dead_after = 2
        shard.probe_interval = 8
    return service


def _serve(service: ShardedQueryService, workload, faulted: bool) -> dict:
    """Replay the workload for ROUNDS rounds; optionally kill a replica."""
    for xpath in workload:  # warm-up: caches filled, indexes probed
        service.execute(xpath)
    round_seconds: list[float] = []
    answers: list[dict] = []
    injector = None
    for round_number in range(1, ROUNDS + 1):
        if faulted and round_number == KILL_AFTER_ROUND + 1:
            injector = inject(service.collection.shards[0], 1, FAULT_PLAN)
        started = now()
        round_answers = {}
        for xpath in workload:
            round_answers[xpath] = service.execute(
                xpath, use_result_cache=False
            ).ids
        round_seconds.append(now() - started)
        answers.append(round_answers)
    describe = service.describe()
    return {
        # Median round, so one scheduler hiccup cannot skew the ratio.
        "qps": len(workload) / statistics.median(round_seconds),
        "elapsed": sum(round_seconds),
        "answers": answers,
        "describe": describe,
        "failover": describe["operations"]["failover"],
        "injector_fired": len(injector.fired) if injector is not None else 0,
    }


@pytest.fixture(scope="module")
def failover_run():
    workload = [query(qid).xpath for qid in FIG12_QUERIES]

    # The never-faulted single engine: the differential oracle both
    # tiers must agree with, query by query.
    single = TwigIndexDatabase.from_documents(_documents())
    single.build_index("rootpaths")
    single.build_index("datapaths")
    expected = {xpath: single.service.execute(xpath).ids for xpath in workload}

    with _build_service() as healthy_service:
        healthy = _serve(healthy_service, workload, faulted=False)

    with _build_service() as faulted_service:
        faulted = _serve(faulted_service, workload, faulted=True)
        faulted_states = [
            shard["states"]
            for shard in faulted["describe"]["operations"]["failover"]["per_shard"]
        ]

    measured = {
        "workload": workload,
        "expected": expected,
        "healthy": healthy,
        "faulted": faulted,
        "faulted_states": faulted_states,
    }
    print()
    print(
        format_table(
            ["tier", "queries/s", "throughput", "retried", "replicas lost"],
            [
                ["healthy", f"{healthy['qps']:.0f}", "1.00x", "0", "0"],
                [
                    "one replica killed",
                    f"{faulted['qps']:.0f}",
                    f"{faulted['qps'] / healthy['qps']:.2f}x",
                    str(faulted["failover"]["reads_retried"]),
                    str(faulted["failover"]["replicas_failed"]),
                ],
            ],
            title=(
                f"Failover — Figure 12 workload, {ROUNDS} rounds, "
                f"{NUM_SHARDS} shards x {REPLICAS} replicas, seeded kill "
                f"after round {KILL_AFTER_ROUND}"
            ),
        )
    )
    return measured


@pytest.fixture(scope="module")
def bench_artifact(failover_run):
    healthy = failover_run["healthy"]
    faulted = failover_run["faulted"]
    summary = {
        "shards": NUM_SHARDS,
        "replicas": REPLICAS,
        "rounds": ROUNDS,
        "kill_after_round": KILL_AFTER_ROUND,
        "fault_seed": FAULT_SEED,
        "workload": list(FIG12_QUERIES),
        "healthy_qps": healthy["qps"],
        "faulted_qps": faulted["qps"],
        "throughput_ratio": faulted["qps"] / healthy["qps"],
        "reads_retried": faulted["failover"]["reads_retried"],
        "replicas_failed": faulted["failover"]["replicas_failed"],
        "replica_states": failover_run["faulted_states"],
    }
    return write_bench_report("failover", summary)


def test_fault_really_fired_and_replica_died(failover_run):
    faulted = failover_run["faulted"]
    assert faulted["injector_fired"] >= 1
    assert faulted["failover"]["replicas_failed"] == 1
    assert faulted["failover"]["reads_retried"] >= 1
    assert any("dead" in states for states in failover_run["faulted_states"])
    # The healthy run never failed over.
    healthy = failover_run["healthy"]
    assert healthy["failover"]["replicas_failed"] == 0
    assert healthy["failover"]["reads_retried"] == 0


def test_answers_identical_to_single_engine_through_the_kill(failover_run):
    expected = failover_run["expected"]
    for label in ("healthy", "faulted"):
        for round_number, round_answers in enumerate(failover_run[label]["answers"]):
            for xpath, ids in round_answers.items():
                assert ids == expected[xpath], (label, round_number, xpath)


def test_faulted_run_keeps_at_least_0_6x_healthy_throughput(failover_run):
    healthy_qps = failover_run["healthy"]["qps"]
    faulted_qps = failover_run["faulted"]["qps"]
    assert faulted_qps >= 0.6 * healthy_qps, (
        f"faulted {faulted_qps:.0f} q/s is not 0.6x the healthy "
        f"{healthy_qps:.0f} q/s"
    )


def test_bench_artifact_written(bench_artifact):
    import json

    payload = json.loads(bench_artifact.read_text(encoding="utf-8"))
    assert payload["bench"] == "failover"
    assert payload["summary"]["throughput_ratio"] >= 0.6
    assert payload["summary"]["replicas_failed"] == 1
