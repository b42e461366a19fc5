"""Dynamic topology: rebalance a skewed corpus, scale reads with replicas.

Walks the topology machinery end to end:

1. load a corpus whose names all hash onto shard 0 of 4 — the skew a
   sticky placement can never undo,
2. inspect the routing table (:class:`~repro.shard.ShardTopology`):
   per-shard document spread, epoch, retired spans,
3. plan and apply an online ``rebalance(policy="size_balanced")``,
   checking answers against the oracle after every individual move,
4. compact the retired spans the moves left behind,
5. rebuild the same corpus with 3 replicas per shard and watch reads
   fan out across the replicas while a write goes through to all.

Run with:  python examples/rebalance_replicas.py
"""

import zlib

from repro import ShardedQueryService
from repro.datasets import generate_xmark
from repro.workloads import query

SERVED = ("Q8x", "Q9x", "Q10x", "Q11x")
NUM_SHARDS = 4


def skewed_name(base: str) -> str:
    """A name whose CRC32 hashes onto shard 0 (the skew generator)."""
    for salt in range(10_000):
        name = f"{base}-{salt}"
        if zlib.crc32(name.encode("utf-8")) % NUM_SHARDS == 0:
            return name
    raise RuntimeError("no skewed name found")


def documents():
    return [
        generate_xmark(scale=0.04, seed=100 + i, name=skewed_name(f"xmark-{i}"))
        for i in range(6)
    ]


def main() -> None:
    # 1. A pathologically skewed corpus: hash placement, colliding names.
    #    (`with` drains the maintenance worker on exit.)
    with ShardedQueryService.from_documents(
        documents(), num_shards=NUM_SHARDS, placement="hash"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")

        # 2. The routing table before: everything on shard 0.
        topology = service.topology
        print("Documents per shard (skewed):", topology.live_counts())
        print("Topology epoch:", topology.epoch)

        oracle = {qid: service.oracle(query(qid).xpath) for qid in SERVED}

        # 3. Rebalance online, one move at a time; answers never change.
        plan = service.plan_rebalance("size_balanced")
        print(f"\nRebalance plan ({len(plan)} moves):")
        for move in plan:
            print(
                f"  {move.placement.name:14s} shard "
                f"{move.placement.shard_index} -> {move.target_shard}"
            )
            service.move_document(move.placement, move.target_shard)
            for qid in SERVED:  # every intermediate topology answers exactly
                assert service.execute(query(qid).xpath).ids == oracle[qid], qid
        print("Documents per shard (rebalanced):", topology.live_counts())

        # 4. The moves retired the source spans; compaction prunes them.
        print(f"\nRetired spans before compaction: {topology.retired_span_count}")
        pruned = service.compact()
        print(f"Pruned {pruned} spans; topology epoch now {topology.epoch}")

        report = service.describe()
        print("Moves recorded:", report["maintenance"]["documents_moved"])

    # 5. Replicas: the same corpus, 3 identical engines per shard.
    #    Reads fan out (round-robin here; "least_loaded" and "sticky"
    #    are the other pickers), writes go through to every replica.
    with ShardedQueryService.from_documents(
        documents(),
        num_shards=2,
        placement="round_robin",
        replicas=3,
        read_picker="round_robin",
    ) as replicated:
        replicated.build_index("rootpaths")
        replicated.build_index("datapaths")
        for _ in range(6):
            for qid in SERVED:
                result = replicated.execute(query(qid).xpath, use_result_cache=False)
                assert result.ids == replicated.oracle(query(qid).xpath), qid
        replicated.add_document(generate_xmark(scale=0.01, seed=999, name="delta"))
        report = replicated.describe()
        print("\nReplica reads per shard:", report["replica_reads"]["per_shard"])
        print(
            "Write-through adds (summed across replicas):",
            report["maintenance"]["documents_added"],
        )


if __name__ == "__main__":
    main()
