"""Observability tour: traces, metrics, ops events, a failover story.

Drives a sharded, replicated serving stack with telemetry on and shows
every read surface of ``docs/OBSERVABILITY.md``:

1. serve a small workload through a 2-shard, 3-replica
   :class:`~repro.shard.ShardedQueryService`,
2. kill one replica mid-workload with a deterministic
   :class:`~repro.faults.FaultPlan` and keep serving — answers never
   change, the failure costs only retries,
3. print the Prometheus-style metrics exposition (latency histograms
   with p50/p95/p99 per tier, per-strategy counters, failover
   activity),
4. print the ops event log — the injected fault, the health demotions
   and the quarantine, as one ordered story,
5. render the trace of the failed read: the ``replica`` span that
   errored and the retry that served the answer,
6. arm the slow-query log and render the captured trace tree.

Run with:  python examples/observability.py
"""

from repro import ShardedQueryService
from repro.datasets import generate_xmark
from repro.faults import FaultPlan, inject
from repro.workloads import query

SERVED = ("Q4x", "Q5x", "Q8x", "Q11x")


def documents():
    return [
        generate_xmark(scale=0.03, seed=100 + i, name=f"xmark-{i}")
        for i in range(6)
    ]


def main() -> None:
    # 1. A replicated stack.  One Telemetry hub is shared by the
    # facade, the shards, every replica and every per-replica
    # QueryService, so everything below reads from it.
    with ShardedQueryService.from_documents(
        documents(), num_shards=2, replicas=3
    ) as service:
        service.build_index("rootpaths")
        workload = [query(qid).xpath for qid in SERVED]

        print("== serving the workload (healthy) ==")
        baseline = {}
        for index, xpath in enumerate(workload):
            result = service.execute(
                xpath, query_id=f"warm-{index}", use_result_cache=False
            )
            baseline[xpath] = result.ids
            print(f"  {xpath}: {len(result.ids)} ids via {result.strategy}")

        # 2. Kill replica 1 of shard 0: every read it receives fails until
        # the health machine quarantines it.  Deterministic — the plan
        # fires on call counts, never on the wall clock.
        print("\n== injecting faults on shard 0, replica 1 ==")
        inject(service.shards[0], 1, FaultPlan.failing_at(*range(1, 30)))
        for round_number in range(12):
            for index, xpath in enumerate(workload):
                result = service.execute(
                    xpath,
                    query_id=f"r{round_number}-{index}",
                    use_result_cache=False,
                )
                assert result.ids == baseline[xpath]  # failover is invisible
        health = service.shards[0].health_report()
        print(f"  shard 0 replica states after the storm: {health['states']}")

        # 3. The aggregate view: the Prometheus exposition.
        print("\n== metrics exposition (excerpt) ==")
        for line in service.metrics_text().splitlines():
            if "quantile" in line or "repro_queries_total" in line or (
                "repro_stats" in line
                and any(k in line for k in ("retried", "failed", "rebalances"))
            ):
                print(f"  {line}")

        # 4. The ops event log: one ordered story per incident.
        print("\n== ops event log ==")
        for event in service.telemetry.events.events():
            attributes = {
                k: v for k, v in sorted(event.attributes.items()) if v is not None
            }
            print(f"  #{event.seq:<3} {event.kind:20} {attributes}")

        # 5. The trace of a failed read: the errored replica span and the
        # retry on a healthy replica, in one tree.
        print("\n== a failover trace ==")
        for trace in service.traces():
            replica_spans = trace.root.find("replica")
            if any(s.attributes.get("outcome") == "failed" for s in replica_spans):
                print(trace.render())
                break

        # 6. The slow-query log keeps outlier trees after the main ring
        # rotates; armed at 0 here so the next query qualifies.
        service.telemetry.slow_query_seconds = 0.0
        service.execute(workload[0], query_id="slow-demo", use_result_cache=False)
        print("\n== a slow-query trace ==")
        slow = service.slow_queries(last=1)[0]
        print(slow.render())
        print(
            f"\nslow queries retained: {len(service.slow_queries())}; "
            f"events published: {service.telemetry.events.total_published}; "
            f"traces finished: {service.telemetry.tracer.traces_finished}"
        )


if __name__ == "__main__":
    main()
