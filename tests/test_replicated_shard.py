"""Replica-set unit tests: write-through, pickers, merged accounting.

A :class:`~repro.shard.replica.Shard` of any size must look the
same to the collection above it: every
replica holds the same documents with the same node ids (write-through
with cloned trees), any replica answers any read (the picker's choice
cannot change the answer), and the shard's cost/cache reports fold all
replicas together through the one aggregation path
(:meth:`~repro.storage.stats.StatsCollector.merge`).
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro import ShardedQueryService
from repro.datasets import book_document, generate_xmark
from repro.errors import DocumentError
from repro.shard import (
    LeastLoadedPicker,
    READ_PICKERS,
    REPLICA_SUSPECT,
    ReadPicker,
    RoundRobinPicker,
    Shard,
    StickyPicker,
    make_picker,
)
from repro.storage.stats import diff_snapshots, sum_snapshots


def _doc(i: int, scale: float = 0.01):
    return generate_xmark(scale=scale, seed=700 + i, name=f"doc-{i}")


def _replicated(replicas: int = 3, picker: str = "round_robin") -> Shard:
    shard = Shard(0, replicas=replicas, read_picker=picker)
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
    for replicas in (1, 2):  # a set of one validates its picker too
        with pytest.raises(DocumentError):
            ShardedQueryService(num_shards=1, replicas=replicas, read_picker="random")


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
@pytest.mark.parametrize("replicas", [3, 1])
def test_write_through_keeps_replicas_identical(replicas):
    shard = _replicated(replicas=replicas)
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


@pytest.mark.parametrize("replicas", [3, 1])
def test_remove_document_removes_the_same_span_everywhere(replicas):
    shard = _replicated(replicas=replicas)
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
    """Every read to the highest eligible slot: a secondary, when alive."""

    name = "last"

    def pick(self, in_flight, query_key, slots=None):
        return len(in_flight) - 1


class _Parked:
    """Park one replica's write-through call on an event, as a slow write.

    ``with _Parked(replica, "add_document") as parked:`` swaps the
    method for one that signals ``parked.reached`` and then waits for
    ``parked.release`` (set on exit) before doing the real work.
    """

    def __init__(self, replica, method: str) -> None:
        self.reached, self.release = threading.Event(), threading.Event()
        real = getattr(replica, method)

        def parked(*args, **kwargs):
            self.reached.set()
            assert self.release.wait(timeout=30), "never released"
            return real(*args, **kwargs)

        setattr(replica, method, parked)

    def __enter__(self) -> "_Parked":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release.set()


def _run_beside(write, parked: _Parked) -> threading.Thread:
    """Start ``write`` on a thread and wait until it is parked."""
    writer = threading.Thread(target=write)
    writer.start()
    assert parked.reached.wait(timeout=30)
    return writer


def _finish(writer: threading.Thread) -> None:
    writer.join(timeout=30)
    assert not writer.is_alive()


def test_generation_names_the_stretch_between_write_through_halves():
    """Regression: ``generation()`` was the primary's fingerprint alone.

    Write-through maintains the primary first.  Until a secondary has
    caught up it answers with the pre-write state, while the primary's
    fingerprint already reads post-write -- so an answer keyed on it (a
    flight, a landed answer) was filed under the finished write and
    outlived it.  A read issued after the ack must never get the
    pre-write ids.  Three replicas, because reads route around the one
    under maintenance: with secondary 1 parked, slot 2 is the replica
    still answering pre-write beside a post-write primary.
    """
    xpath = "/site/people/person/name"
    with ShardedQueryService.from_documents(
        [_doc(0), _doc(1)], num_shards=1, replicas=3, read_picker=_LastReplica()
    ) as service:
        service.build_index("rootpaths")
        before = service.execute(xpath).ids
        shard = service.shards[0]
        with _Parked(shard.replicas[1], "add_document") as parked:
            writer = _run_beside(lambda: service.add_document(_doc(2)), parked)
            # Between the halves: the primary holds the document, slot 2
            # does not, and serves.  Legal -- the write is still in
            # flight -- and now a generation of its own.
            between = service.generation()
            assert service.execute(xpath).ids == before
            assert shard.replica_reads[2] == 2
        _finish(writer)
        assert service.generation() != between
        after = service.execute(xpath)
        assert not after.cached
        assert after.ids == service.oracle(xpath) and len(after.ids) > len(before)


def test_each_write_half_advances_its_own_epoch_once():
    """An add or remove moves the topology epoch and the owning shard's
    replica epochs by one each; a build moves every replica's by one."""
    with ShardedQueryService.from_documents(
        [_doc(i) for i in range(4)], num_shards=4, replicas=2
    ) as service:
        service.build_index("rootpaths")
        before = service.generation()
        placement = service.add_document(_doc(9))
        added = service.generation()
        assert len(added) == 1 + 4 * 2
        # The topology epoch, then the owning shard's two replica epochs.
        expected = [1] + [0] * 8
        first = 1 + placement.shard_index * 2
        expected[first:first + 2] = [1, 1]
        assert [new - old for old, new in zip(before, added)] == expected
        service.remove_document("doc-9")
        removed = service.generation()
        assert [new - old for old, new in zip(added, removed)] == expected
        service.build_index("datapaths")
        built = service.generation()
        assert [new - old for old, new in zip(removed, built)] == [0] + [1] * 8


@pytest.mark.parametrize(
    "strategy, expected",
    [("datapaths", ["datapaths", "rootpaths"]), ("auto", ["rootpaths"])],
)
def test_an_on_demand_build_reaches_every_live_replica(strategy, expected):
    """A read whose strategy lacks an index builds it through the shard's
    write-through, not on the one replica that served the read."""
    with ShardedQueryService.from_documents(
        [_doc(i) for i in range(6)], num_shards=1, replicas=2
    ) as service:
        if strategy != "auto":
            service.build_index("rootpaths")
        xpath = "//item/name"
        result = service.execute(xpath, strategy=strategy, use_result_cache=False)
        assert result.ids == service.oracle(xpath)
        shard = service.shards[0]
        assert [sorted(r.engine.indexes) for r in shard.replicas] == [expected] * 2
        assert shard.health_report()["dead"] == 0


# ----------------------------------------------------------------------
# Reads route around the replica under maintenance
# ----------------------------------------------------------------------
XPATH = "/site/people/person/name"


def _reads_beside(shard: Shard, busy=None, count: int = 4) -> list[tuple]:
    """``count`` uncached reads from a thread, each with a bounded join.

    ``busy`` is the replica under maintenance: its service lock is held
    here for the length of the reads, as the real index update holds it
    (the park sits in front of that call).  A read routed there would
    outlast the join, so returning at all is the no-lock-wait assertion.
    """
    answers: list[tuple] = []

    def read():
        for _ in range(count):
            result = shard.execute(XPATH, strategy="rootpaths", use_result_cache=False)
            answers.append(tuple(result.ids))

    reader = threading.Thread(target=read)
    with busy.service._lock if busy is not None else contextlib.nullcontext():
        reader.start()
        reader.join(timeout=10)
        assert not reader.is_alive(), "a read waited for the replica under maintenance"
    return answers


@pytest.mark.parametrize("picker", sorted(READ_PICKERS))
def test_reads_route_around_each_half_of_a_write_and_stay_monotone(picker):
    shard = _replicated(replicas=2, picker=picker)
    pre = tuple(shard.execute(XPATH, strategy="rootpaths").ids)
    sequence = [pre]
    # The primary's half: every read is the secondary's, pre-write.
    with _Parked(shard.replicas[0], "add_document") as parked:
        writer = _run_beside(lambda: shard.add_document(_doc(2)), parked)
        reads = list(shard.replica_reads)
        sequence += _reads_beside(shard, busy=shard.replicas[0])
        assert set(sequence) == {pre}
        assert [now - then for now, then in zip(shard.replica_reads, reads)] == [0, 4]
    _finish(writer)
    post = tuple(shard.replicas[0].service.execute(XPATH, strategy="rootpaths").ids)
    assert len(post) > len(pre)
    # The secondary's half of a removal: every read is the primary's.
    with _Parked(shard.replicas[1], "remove_document") as parked:
        writer = _run_beside(lambda: shard.remove_document("doc-2"), parked)
        reads = list(shard.replica_reads)
        sequence += _reads_beside(shard, busy=shard.replicas[1])
        assert sequence[-4:] == [pre] * 4  # the primary has removed it already
        assert [now - then for now, then in zip(shard.replica_reads, reads)] == [4, 0]
    _finish(writer)
    assert shard.health_report()["reads_rerouted"] == 8
    assert shard.describe()["health"]["reads_rerouted"] == 8
    assert shard.stats_snapshot()["reads_rerouted"] == 8


def test_answers_across_one_write_never_step_back():
    """Pre-write from the secondary, then post-write from the primary."""
    shard = _replicated(replicas=2)
    pre = tuple(shard.execute(XPATH, strategy="rootpaths").ids)
    with _Parked(shard.replicas[0], "add_document") as first:
        with _Parked(shard.replicas[1], "add_document") as second:
            writer = _run_beside(lambda: shard.add_document(_doc(2)), first)
            sequence = _reads_beside(shard, busy=shard.replicas[0])
            first.release.set()
            assert second.reached.wait(timeout=30)
            sequence += _reads_beside(shard, busy=shard.replicas[1])
        _finish(writer)
    sequence += _reads_beside(shard)
    assert sequence[:4] == [pre] * 4
    post = sequence[-1]
    assert len(post) > len(pre) and sequence[4:] == [post] * 8


def test_a_parked_build_index_is_routed_around():
    shard = _replicated(replicas=2)
    expected = tuple(shard.execute(XPATH, strategy="rootpaths").ids)
    with _Parked(shard.replicas[1].service, "build_index") as parked:
        writer = _run_beside(lambda: shard.build_index("datapaths"), parked)
        assert set(_reads_beside(shard, busy=shard.replicas[1])) == {expected}
    _finish(writer)
    assert shard.replica_reads[1] == 0 and shard.ops_stats.reads_rerouted == 4
    assert all("datapaths" in replica.engine.indexes for replica in shard.replicas)


def test_the_only_live_replica_is_waited_for_not_refused():
    shard = _replicated(replicas=2)
    shard._quarantine(1, "test: secondary down")
    primary = shard.replicas[0]
    answers: list[tuple] = []
    reader = threading.Thread(
        target=lambda: answers.append(
            tuple(shard.execute(XPATH, strategy="rootpaths").ids)
        )
    )
    with _Parked(primary, "add_document") as parked:
        writer = _run_beside(lambda: shard.add_document(_doc(2)), parked)
        with primary.service._lock:  # as the index update would hold it
            reader.start()
            reader.join(timeout=0.5)
            assert reader.is_alive() and not answers  # waiting, not refused
    _finish(writer)
    _finish(reader)
    assert len(answers) == 1
    assert shard.ops_stats.reads_rerouted == 0 and shard.replica_reads[1] == 0


def test_a_suspect_under_maintenance_is_never_the_probe_target():
    shard = Shard(0, replicas=3, probe_interval=1)
    for i in range(2):
        shard.add_document(_doc(i))
    shard.build_index("rootpaths")
    shard._health[1].state = REPLICA_SUSPECT
    with _Parked(shard.replicas[1], "add_document") as parked:
        writer = _run_beside(lambda: shard.add_document(_doc(2)), parked)
        # probe_interval=1 would send every read to the suspect.
        _reads_beside(shard, busy=shard.replicas[1])
        assert shard.replica_reads[1] == 0
    _finish(writer)
    shard.execute(XPATH, strategy="rootpaths", use_result_cache=False)
    assert shard.replica_reads[1] == 1  # probed again once the write is through


def test_rerouted_reads_are_counted_up_to_the_scrape():
    with ShardedQueryService.from_documents(
        [_doc(0), _doc(1)], num_shards=1, replicas=2
    ) as service:
        service.build_index("rootpaths")
        shard = service.shards[0]
        with _Parked(shard.replicas[1], "add_document") as parked:
            writer = _run_beside(lambda: service.add_document(_doc(2)), parked)
            for _ in range(3):
                service.execute(XPATH, use_result_cache=False)
        _finish(writer)
        assert shard.replica_reads[1] == 0
        assert service.describe()["operations"]["failover"]["reads_rerouted"] == 3
        assert 'repro_stats{counter="reads_rerouted"} 3' in service.metrics_text()


def test_replica_stats_merge_through_the_one_aggregation_path():
    shard = _replicated()
    merged = shard.stats_snapshot()
    assert merged == sum_snapshots(
        *(replica.stats.snapshot() for replica in shard.replicas)
    )
    before = shard.stats_snapshot()
    shard.execute("/site/people/person/name", use_result_cache=False)
    diff = diff_snapshots(shard.stats_snapshot(), before)
    assert sum(diff.values()) > 0  # one replica's work shows in the fold


def test_shard_report_sums_counters_and_keeps_configuration_per_replica():
    shard = _replicated()
    xpath = "/site/people/person/name"
    for _ in range(3):
        shard.execute(xpath)
    report = shard.describe()["service"]
    per_replica = [replica.service.describe() for replica in shard.replicas]
    assert report["result_cache"]["misses"] == sum(
        r["result_cache"]["misses"] for r in per_replica
    )
    assert report["maintenance"]["documents_added"] == sum(
        r["maintenance"]["documents_added"] for r in per_replica
    )
    # Configuration keys are not summed across replicas: each replica's
    # own report keeps them, the summed one carries counters only.
    assert "max_size" not in report["result_cache"]
    assert all(r["result_cache"]["max_size"] == 1024 for r in per_replica)
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
        snapshot = service.shards[0].stats_snapshot()
        service.close()
        return snapshot["btree_writes"]

    single = maintenance(1)
    triple = maintenance(3)
    assert single > 0
    assert triple == 3 * single


def test_replica_validation():
    with pytest.raises(ValueError):
        Shard(0, replicas=0)
    with pytest.raises(ValueError):
        ShardedQueryService(num_shards=2, replicas=0)
    shard = Shard(0, replicas=2)
    shard.add_document(book_document())
    assert shard.replica_count == 2
    assert shard.document_count == 1
