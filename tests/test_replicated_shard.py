"""Replica-set unit tests: write-through, pickers, merged accounting.

A :class:`~repro.shard.replica.ReplicatedShard` must be
indistinguishable from a plain shard to the collection above it: every
replica holds the same documents with the same node ids (write-through
with cloned trees), any replica answers any read (the picker's choice
cannot change the answer), and the shard's cost/cache reports fold all
replicas together through the one aggregation path
(:meth:`~repro.storage.stats.StatsCollector.merge`).
"""

from __future__ import annotations

import threading

import pytest

from repro import ShardedQueryService
from repro.datasets import book_document, generate_xmark
from repro.errors import DocumentError
from repro.shard import (
    LeastLoadedPicker,
    READ_PICKERS,
    ReadPicker,
    ReplicatedShard,
    RoundRobinPicker,
    StickyPicker,
    make_picker,
)
from repro.storage.stats import sum_snapshots


def _doc(i: int, scale: float = 0.01):
    return generate_xmark(scale=scale, seed=700 + i, name=f"doc-{i}")


def _replicated(replicas: int = 3, picker: str = "round_robin") -> ReplicatedShard:
    shard = ReplicatedShard(0, replicas=replicas, read_picker=picker)
    for i in range(2):
        shard.add_document(_doc(i))
    shard.build_index("rootpaths")
    return shard


# ----------------------------------------------------------------------
# Pickers
# ----------------------------------------------------------------------
def test_picker_registry_and_unknown_names():
    assert set(READ_PICKERS) == {"round_robin", "least_loaded", "sticky"}
    assert isinstance(make_picker("round_robin"), RoundRobinPicker)
    assert isinstance(make_picker("least_loaded"), LeastLoadedPicker)
    sticky = StickyPicker()
    assert make_picker(sticky) is sticky
    with pytest.raises(DocumentError):
        make_picker("random")


def test_round_robin_cycles_and_sticky_pins():
    round_robin = RoundRobinPicker()
    assert [round_robin.pick([0, 0, 0], "q") for _ in range(6)] == [0, 1, 2, 0, 1, 2]
    sticky = StickyPicker()
    picks = {sticky.pick([0, 0, 0], f"query-{i}") for i in range(20)}
    assert picks <= {0, 1, 2} and len(picks) > 1  # spreads across replicas
    assert all(
        sticky.pick([0, 0, 0], "the same query") == sticky.pick([0, 0, 0], "the same query")
        for _ in range(5)
    )


def test_least_loaded_prefers_idle_replicas_lowest_index_ties():
    picker = LeastLoadedPicker()
    assert picker.pick([0, 0, 0], "q") == 0
    assert picker.pick([2, 1, 1], "q") == 1
    assert picker.pick([1, 2, 0], "q") == 2


# ----------------------------------------------------------------------
# Write-through and read fan-out
# ----------------------------------------------------------------------
def test_write_through_keeps_replicas_identical():
    shard = _replicated()
    watermarks = {replica.watermark for replica in shard.replicas}
    assert len(watermarks) == 1
    xpath = "/site/people/person/name"
    twig_answers = {
        tuple(replica.service.execute(xpath, strategy="rootpaths").ids)
        for replica in shard.replicas
    }
    assert len(twig_answers) == 1
    # Every replica built the index.
    assert all("rootpaths" in replica.engine.indexes for replica in shard.replicas)
    # Documents are clones, never shared trees.
    roots = {id(replica.db.documents[0].root) for replica in shard.replicas}
    assert len(roots) == len(shard.replicas)


def test_remove_document_removes_the_same_span_everywhere():
    shard = _replicated()
    before = shard.watermark
    shard.remove_document("doc-0")
    assert all(replica.document_count == 1 for replica in shard.replicas)
    assert all(replica.watermark == before for replica in shard.replicas)
    xpath = "/site/people/person/name"
    answers = {
        tuple(replica.service.execute(xpath, strategy="rootpaths").ids)
        for replica in shard.replicas
    }
    assert len(answers) == 1


def test_reads_fan_out_and_are_counted():
    shard = _replicated(replicas=3, picker="round_robin")
    xpath = "/site/people/person/name"
    expected = shard.replicas[0].service.execute(xpath, strategy="rootpaths").ids
    for _ in range(6):
        assert shard.execute(xpath, strategy="rootpaths").ids == expected
    assert shard.replica_reads == [2, 2, 2]


class _LastReplica(ReadPicker):
    """Every read to the highest eligible slot: the secondary, when alive."""

    name = "last"

    def pick(self, in_flight, query_key, slots=None):
        return len(in_flight) - 1


def test_generation_names_the_stretch_between_write_through_halves():
    """Regression: ``generation()`` was the primary's fingerprint alone.

    Write-through maintains the primary first.  Until the secondary has
    caught up its lock is free and it answers with the pre-write state,
    while the primary's fingerprint already reads post-write -- so an
    answer keyed on it (a flight, a landed answer) was filed under the
    finished write and outlived it.  A read issued after the ack must
    never get the pre-write ids.
    """
    xpath = "/site/people/person/name"
    with ShardedQueryService.from_documents(
        [_doc(0), _doc(1)], num_shards=1, replicas=2, read_picker=_LastReplica()
    ) as service:
        service.build_index("rootpaths")
        before = service.execute(xpath).ids
        secondary = service.collection.shards[0].replicas[1]
        parked, release = threading.Event(), threading.Event()

        def parked_add(document, _real=secondary.add_document):
            parked.set()
            assert release.wait(timeout=30), "never released"
            return _real(document)

        secondary.add_document = parked_add
        writer = threading.Thread(target=service.add_document, args=(_doc(2),))
        writer.start()
        try:
            assert parked.wait(timeout=30)
            # Between the halves: the primary holds the document, the
            # secondary does not, and serves.  Legal -- the write is
            # still in flight -- and now a generation of its own.
            between = service.generation()
            assert service.execute(xpath).ids == before
        finally:
            release.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert service.generation() != between
        after = service.execute(xpath)
        assert not after.cached
        assert after.ids == service.oracle(xpath) and len(after.ids) > len(before)


def test_replica_stats_merge_through_the_one_aggregation_path():
    shard = _replicated()
    merged = shard.stats_snapshot()
    assert merged == sum_snapshots(
        *(replica.stats.snapshot() for replica in shard.replicas)
    )
    before = shard.stats_snapshot()
    shard.execute("/site/people/person/name", use_result_cache=False)
    diff = shard.stats_diff(before)
    assert sum(diff.values()) > 0  # one replica's work shows in the fold


def test_service_report_sums_counters_and_keeps_configuration():
    shard = _replicated()
    xpath = "/site/people/person/name"
    for _ in range(3):
        shard.execute(xpath)
    report = shard.service_report()
    per_replica = [replica.service.describe() for replica in shard.replicas]
    assert report["result_cache"]["misses"] == sum(
        r["result_cache"]["misses"] for r in per_replica
    )
    assert report["maintenance"]["documents_added"] == sum(
        r["maintenance"]["documents_added"] for r in per_replica
    )
    # Configuration keys are not summed across replicas.
    assert report["result_cache"]["max_size"] == (
        per_replica[0]["result_cache"]["max_size"]
    )
    describe = shard.describe()
    assert describe["replicas"] == 3
    assert describe["read_picker"] == "round_robin"
    assert len(describe["replica_reads"]) == 3


def test_replicated_collection_write_amplification_is_priced():
    # The same corpus on 1 vs 3 replicas: maintenance work (index
    # builds + incremental adds) triples in the merged snapshot — the
    # honest cost of write-through replication.
    def maintenance(replicas: int) -> int:
        service = ShardedQueryService(
            num_shards=1, placement="hash", replicas=replicas
        )
        service.add_document(_doc(0))
        service.build_index("rootpaths")
        service.add_document(_doc(1))
        snapshot = service.collection.shards[0].stats_snapshot()
        service.close()
        return snapshot["btree_writes"]

    single = maintenance(1)
    triple = maintenance(3)
    assert single > 0
    assert triple == 3 * single


def test_replica_validation():
    with pytest.raises(ValueError):
        ReplicatedShard(0, replicas=0)
    with pytest.raises(ValueError):
        ShardedQueryService(num_shards=2, replicas=0)
    shard = ReplicatedShard(0, replicas=2)
    shard.add_document(book_document())
    assert shard.replica_count == 2
    assert shard.document_count == 1
