"""Sharded serving: partition documents, scatter-gather twig queries.

Walks the sharded tier end to end:

1. load a document corpus into a 4-shard :class:`ShardedQueryService`
   (each shard owns its own database, indexes, statistics and caches),
2. inspect where the placement policy put each document,
3. run twig queries scattered across the shards and check the merged
   answers against the index-free oracle,
4. scope a query to named documents (shard pruning),
5. keep serving while new documents arrive, and watch a write
   invalidate only its own shard's cached results.

Run with:  python examples/sharded_service.py
"""

from repro import ShardedQueryService
from repro.datasets import generate_xmark
from repro.workloads import query

SERVED = ("Q8x", "Q9x", "Q10x", "Q11x")
ROUNDS = 4


def main() -> None:
    # 1. Partition a four-document corpus across four shards.
    documents = [
        generate_xmark(scale=0.05, seed=100 + i, name=f"xmark-{i}") for i in range(4)
    ]
    # The service is a context manager: leaving the block drains the
    # maintenance worker even if a step raises.
    with ShardedQueryService.from_documents(
        documents, num_shards=4, placement="round_robin"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")

        # 2. Where did the documents land, and which global ids do they own?
        print("Placements:")
        for placement in service.collection.placements():
            print(
                f"  {placement.name:10s} -> shard {placement.shard_index} "
                f"(global ids {placement.global_start}..{placement.global_end - 1})"
            )

        # 3. Scatter-gather execution: per-shard auto plans, merged answers.
        print("\nScatter-gather answers (checked against the oracle):")
        for qid in SERVED:
            xpath = query(qid).xpath
            result = service.execute(xpath, strategy="auto")
            assert result.ids == service.oracle(xpath), qid
            print(
                f"  {qid:5s} {result.cardinality:5d} matches  "
                f"strategy={result.strategy}  cost={result.total_cost}"
            )

        # 4. Shard pruning: a query scoped to one document touches one shard.
        xpath = query("Q8x").xpath
        scoped = service.execute(xpath, documents=["xmark-2"], use_result_cache=False)
        print(
            f"\nScoped to xmark-2: {scoped.cardinality} matches "
            f"(full corpus: {service.execute(xpath).cardinality})"
        )

        # 5. Serve while documents arrive: only the written shard re-executes,
        #    so the first pass after a write misses (one fresh partial per
        #    query) and the repeat pass hits on every shard.
        print("\nMixed read/write serving (each round serves the workload twice):")
        for round_number in range(ROUNDS):
            service.add_document(
                generate_xmark(scale=0.01, seed=900 + round_number, name=f"delta-{round_number}")
            )
            batch = service.execute_batch([query(qid).xpath for qid in SERVED] * 2)
            print(
                f"  round {round_number}: {len(batch)} queries, "
                f"hits={batch.cache_hits} misses={batch.cache_misses}, "
                f"batch cost={batch.total_cost}"
            )

        report = service.describe()
        print("\nTopology:", {k: report[k] for k in ("num_shards", "placement", "documents")})
        print("Result caches:", report["caches"]["result_cache"])
        print("Invalidations:", report["invalidations"])


if __name__ == "__main__":
    main()
