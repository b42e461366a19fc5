"""Shard-equivalence differential harness.

The tentpole invariant of the sharded tier: a
:class:`~repro.shard.ShardedQueryService` holding a document set — for
any shard count, any placement policy, any strategy (including
``auto``, where every shard prices its own plan) — must return exactly
the match set a single-engine :class:`~repro.service.QueryService`
returns for the same documents in the same arrival order.  The harness
replays randomized document sets through both tiers and diffs every
answer (ids and cardinalities) across a Figure-12-style generated
workload, then adds one more document through the incremental
maintenance path and diffs again.

The dynamic-topology extensions hold the same invariant under churn
the static tier never saw: answers are diffed before, **during**
(after every individual move) and after a ``rebalance()`` of a
hash-skewed corpus — including after span compaction and post-rebalance
adds — and under replica read fan-out, where every replica of every
shard serves a slice of the diffed reads.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark
from repro.planner import DEFAULT_STRATEGIES
from repro.service import AUTO_STRATEGY
from repro.shard import PLACEMENT_POLICIES
from repro.workloads.generator import branch_count_sweep, generate_twig

SHARD_COUNTS = (1, 2, 4)

#: Strategies diffed on every (shard count x placement) cell; the full
#: seven-strategy family is diffed on a dedicated config below to keep
#: the matrix runtime in check without losing family-wide coverage.
MATRIX_STRATEGIES = ("rootpaths", "datapaths", AUTO_STRATEGY)


def _workload() -> list[str]:
    """A Figure-12-style generated query workload (plus recursion)."""
    queries = [
        generated.xpath
        for selectivity in ("selective", "moderate", "unselective")
        for generated in branch_count_sweep(
            selectivity, max_branches=2 if selectivity == "moderate" else 3
        )
    ]
    queries.append(generate_twig(1, ["selective"], branch_depth="low").xpath)
    queries.extend(
        [
            "/site/people/person/name",
            "//person[name='Hagen Artosi']",
            "/site/open_auctions/open_auction/time",
        ]
    )
    return queries


def _document_parameters(seed: int, count: int) -> list[tuple[float, int]]:
    rng = random.Random(seed)
    return [
        (rng.choice([0.015, 0.02, 0.03]), rng.randrange(1, 10_000))
        for _ in range(count)
    ]


def _documents(parameters: list[tuple[float, int]]):
    """Fresh document objects (documents cannot be shared across DBs)."""
    return [
        generate_xmark(scale=scale, seed=seed, name=f"doc-{position}")
        for position, (scale, seed) in enumerate(parameters)
    ]


def _diff_answers(single, sharded, strategies, workload, context: str) -> None:
    for xpath in workload:
        expected = single.oracle(xpath)
        for strategy in strategies:
            single_result = single.service.execute(xpath, strategy=strategy)
            sharded_result = sharded.execute(xpath, strategy=strategy)
            assert single_result.ids == expected, f"{context}: single {strategy} {xpath}"
            assert sharded_result.ids == expected, (
                f"{context}, {strategy}, {xpath}: "
                f"sharded={sharded_result.ids} single={single_result.ids} "
                f"oracle={expected}"
            )
            assert sharded_result.cardinality == single_result.cardinality


@pytest.mark.parametrize("placement", sorted(PLACEMENT_POLICIES))
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sharded_equals_single_across_counts_and_policies(num_shards, placement):
    """RP/DP/auto diffed over the full (shard count x policy) matrix."""
    parameters = _document_parameters(seed=num_shards * 31 + len(placement), count=4)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(_documents(parameters))
    single.build_index("rootpaths")
    single.build_index("datapaths")

    sharded = ShardedQueryService.from_documents(
        _documents(parameters), num_shards=num_shards, placement=placement
    )
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    _diff_answers(
        single, sharded, MATRIX_STRATEGIES, workload, f"{placement}/{num_shards}"
    )

    # One more document through the incremental maintenance path: the
    # sharded add touches exactly one shard, the single add the whole
    # database; answers must stay identical.
    delta = (0.015, 4242)
    single.add_document(
        generate_xmark(scale=delta[0], seed=delta[1], name=f"doc-{len(parameters)}")
    )
    sharded.add_document(
        generate_xmark(scale=delta[0], seed=delta[1], name=f"doc-{len(parameters)}")
    )
    _diff_answers(
        single,
        sharded,
        MATRIX_STRATEGIES,
        workload,
        f"{placement}/{num_shards}+delta",
    )
    sharded.close()


def test_sharded_equals_single_for_the_whole_strategy_family():
    """Every strategy of the family (plus auto) on a 4-shard collection."""
    parameters = _document_parameters(seed=77, count=3)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(_documents(parameters))
    sharded = ShardedQueryService.from_documents(
        _documents(parameters), num_shards=4, placement="hash"
    )
    for strategy in DEFAULT_STRATEGIES:
        single.engine.ensure_indexes_for(strategy)
        sharded.ensure_indexes_for(strategy)

    _diff_answers(
        single,
        sharded,
        DEFAULT_STRATEGIES + (AUTO_STRATEGY,),
        workload,
        "family/hash/4",
    )
    sharded.close()


def test_sharded_batch_equals_single_batch():
    """The batch facade returns the same answers and hit accounting."""
    parameters = _document_parameters(seed=5, count=4)
    workload = _workload()
    batch_queries = workload * 2  # every query repeats once

    single = TwigIndexDatabase.from_documents(_documents(parameters))
    single.build_index("rootpaths")
    single.build_index("datapaths")
    sharded = ShardedQueryService.from_documents(
        _documents(parameters), num_shards=4, placement="round_robin"
    )
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    single_batch = single.service.execute_batch(batch_queries)
    sharded_batch = sharded.execute_batch(batch_queries)
    for single_result, sharded_result in zip(single_batch, sharded_batch):
        assert sharded_result.ids == single_result.ids, single_result.xpath
    # Both tiers: first round misses, repeats hit.
    assert single_batch.cache_misses == len(workload)
    assert sharded_batch.cache_misses == len(workload)
    assert single_batch.cache_hits == len(workload)
    assert sharded_batch.cache_hits == len(workload)
    assert sharded_batch.total_cost > 0
    sharded.close()


# ----------------------------------------------------------------------
# Dynamic topology: rebalancing and replication
# ----------------------------------------------------------------------
def _skewed_documents(parameters):
    """The randomized corpus with names that all hash onto shard 0 of 4."""
    documents = _documents(parameters)
    for position, document in enumerate(documents):
        for salt in range(10_000):
            name = f"skew-{position}-{salt}"
            if zlib.crc32(name.encode("utf-8")) % 4 == 0:
                document.name = name
                break
    return documents


def test_rebalance_preserves_answers_before_during_and_after():
    """The acceptance invariant: sharded == single through a rebalance.

    A hash-skewed corpus (every document on shard 0 of 4) is rebalanced
    move by move; the full workload is diffed against the single engine
    at every intermediate topology, after compaction, and after one
    more post-rebalance add.
    """
    parameters = _document_parameters(seed=13, count=4)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(_skewed_documents(parameters))
    single.build_index("rootpaths")
    single.build_index("datapaths")
    sharded = ShardedQueryService.from_documents(
        _skewed_documents(parameters), num_shards=4, placement="hash"
    )
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    # The crafted names really did skew everything onto one shard.
    assert sharded.topology.live_counts() == [4, 0, 0, 0]
    _diff_answers(single, sharded, MATRIX_STRATEGIES, workload, "skewed/pre")

    plan = sharded.plan_rebalance("size_balanced")
    assert plan, "a skewed corpus must produce a non-empty plan"
    for index, move in enumerate(plan):
        sharded.move_document(move.placement, move.target_shard)
        # Mid-rebalance topologies answer exactly (subset of strategies
        # per step keeps the matrix runtime in check; the final diff
        # below covers RP/DP/auto on the settled topology).
        _diff_answers(
            single, sharded, (AUTO_STRATEGY,), workload, f"skewed/move-{index}"
        )
    assert all(count > 0 for count in sharded.topology.live_counts())

    pruned = sharded.compact()
    assert pruned == len(plan)
    _diff_answers(single, sharded, MATRIX_STRATEGIES, workload, "skewed/rebalanced")

    # One more document through the incremental path on the rebalanced
    # topology: global ids keep lining up with the single engine.
    delta = (0.015, 1717)
    for tier in (single, sharded):
        tier.add_document(
            generate_xmark(scale=delta[0], seed=delta[1], name="post-rebalance")
        )
    _diff_answers(single, sharded, MATRIX_STRATEGIES, workload, "skewed/+delta")
    sharded.close()


@pytest.mark.parametrize("read_picker", ("round_robin", "least_loaded", "sticky"))
def test_replicated_shards_equal_single_engine(read_picker):
    """Replica read fan-out never changes an answer, for any picker."""
    parameters = _document_parameters(seed=29, count=4)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(_documents(parameters))
    single.build_index("rootpaths")
    single.build_index("datapaths")
    sharded = ShardedQueryService.from_documents(
        _documents(parameters),
        num_shards=2,
        placement="round_robin",
        replicas=3,
        read_picker=read_picker,
    )
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    _diff_answers(
        single, sharded, MATRIX_STRATEGIES, workload, f"replicas/{read_picker}"
    )
    # The diff above issued enough uncached reads that the fan-out
    # demonstrably spread (round-robin cycles; the others may skew but
    # the counters must exist and sum to the reads served).
    report = sharded.describe()
    assert report["replica_reads"]["picker"] == read_picker
    assert report["replica_reads"]["total"] > 0
    if read_picker == "round_robin":
        for reads in report["replica_reads"]["per_shard"]:
            assert all(count > 0 for count in reads)

    # Mutations through the replicated write path keep the tiers equal.
    delta = (0.015, 3131)
    for tier in (single, sharded):
        tier.add_document(
            generate_xmark(scale=delta[0], seed=delta[1], name="replica-delta")
        )
    single.service.remove_document("doc-1")
    sharded.remove_document("doc-1")
    _diff_answers(
        single, sharded, MATRIX_STRATEGIES, workload, f"replicas/{read_picker}+churn"
    )
    sharded.close()


def test_rebalance_under_replicas_preserves_answers():
    """Moves between replicated shards write through to every replica."""
    parameters = _document_parameters(seed=41, count=3)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(_skewed_documents(parameters))
    single.build_index("rootpaths")
    single.build_index("datapaths")
    sharded = ShardedQueryService.from_documents(
        _skewed_documents(parameters),
        num_shards=4,
        placement="hash",
        replicas=2,
        read_picker="round_robin",
    )
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    report = sharded.rebalance("size_balanced", compact=True)
    assert report.documents_moved > 0
    # Every replica of every shard agrees on its shard's watermark.
    for shard in sharded.shards:
        assert len({replica.watermark for replica in shard.replicas}) == 1
    _diff_answers(
        single, sharded, MATRIX_STRATEGIES, workload, "replicas/rebalanced"
    )
    sharded.close()
