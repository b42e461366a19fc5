"""Routing-table unit tests: epochs, moves, retired-span pruning, plans.

The :class:`~repro.shard.topology.ShardTopology` invariants the
sharded tier rests on, tested at the table level (no engines needed for
most), plus the tier's movement machinery:

* global spans survive moves unchanged (a move is invisible in the
  global id space);
* every routing mutation bumps the epoch;
* retired spans translate until :meth:`compact` prunes them, and the
  hot path stays live-spans-only;
* a long add/remove/move churn keeps answers exact while compaction
  bounds the table;
* ``SizeBalancedPlacement`` tie-breaking (lowest shard index) and
  therefore :meth:`plan_rebalance` are deterministic.
"""

from __future__ import annotations

import random

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import book_document, generate_xmark
from repro.errors import DocumentError
from repro.shard import (
    DocumentPlacement,
    ShardTopology,
    SizeBalancedPlacement,
)
from repro.storage.stats import diff_snapshots


def _placement(topology: ShardTopology, name: str, shard: int, local_start: int, count: int) -> DocumentPlacement:
    return topology.reserve(name, topology.next_ordinal(), shard, local_start, count)


# ----------------------------------------------------------------------
# Reservation, translation and epochs (pure table tests)
# ----------------------------------------------------------------------
def test_reserve_assigns_contiguous_global_spans():
    topology = ShardTopology(3)
    a = _placement(topology, "a", 0, 1, 10)
    b = _placement(topology, "b", 2, 1, 5)
    c = _placement(topology, "c", 0, 11, 7)
    assert (a.global_start, a.global_end) == (1, 11)
    assert (b.global_start, b.global_end) == (11, 16)
    assert (c.global_start, c.global_end) == (16, 23)
    assert topology.global_watermark == 23
    assert topology.to_global(2, 3) == 13
    assert topology.translate_sorted(0, [1, 5, 11, 17]) == [1, 5, 16, 22]
    assert topology.live_counts() == [2, 0, 1]
    assert topology.shard_node_weights() == [17, 0, 5]


def test_every_routing_mutation_bumps_the_epoch():
    topology = ShardTopology(2)
    epochs = [topology.epoch]
    a = _placement(topology, "a", 0, 1, 4)
    epochs.append(topology.epoch)
    moved = topology.record_move(a, 1, 1)
    epochs.append(topology.epoch)
    topology.retire(moved)
    epochs.append(topology.epoch)
    topology.compact()
    epochs.append(topology.epoch)
    assert epochs == sorted(epochs)
    assert len(set(epochs)) == len(epochs)
    # An empty compact is a no-op for readers: no epoch bump.
    before = topology.epoch
    assert topology.compact() == 0
    assert topology.epoch == before


def test_record_move_preserves_global_span_and_identity():
    topology = ShardTopology(2)
    original = _placement(topology, "doc", 0, 1, 9)
    moved = topology.record_move(original, 1, 1)
    assert moved.name == original.name
    assert moved.ordinal == original.ordinal
    assert (moved.global_start, moved.global_end) == (
        original.global_start,
        original.global_end,
    )
    assert (moved.shard_index, moved.local_start, moved.local_end) == (1, 1, 10)
    assert topology.placements() == [moved]
    assert topology.describe()["spans_retired"] == 1
    # The old record is no longer live: moving it again is an error.
    with pytest.raises(DocumentError):
        topology.record_move(original, 1, 20)
    # Both the retired source span and the live target span translate.
    assert topology.to_global(0, 5) == original.global_start + 4
    assert topology.to_global(1, 5) == original.global_start + 4


def test_retired_spans_translate_until_compacted():
    topology = ShardTopology(1)
    a = _placement(topology, "a", 0, 1, 5)
    b = _placement(topology, "b", 0, 6, 5)
    topology.retire(a)
    # Hot path: b only.  Slow path: a still translates (consistent cut).
    assert topology.translate_sorted(0, [2, 7]) == [2, 7]
    assert topology.retired_span_count == 1
    assert topology.compact() == 1
    assert topology.retired_span_count == 0
    assert topology.spans_pruned == 1
    # After compaction the pruned span no longer translates…
    with pytest.raises(DocumentError):
        topology.to_global(0, 2)
    with pytest.raises(DocumentError):
        topology.translate_sorted(0, [2])
    # …while live spans are untouched.
    assert topology.translate_sorted(0, [6, 10]) == [b.global_start, b.global_end - 1]


def test_scope_filtering_follows_a_moved_document():
    topology = ShardTopology(2)
    a = _placement(topology, "a", 0, 1, 5)
    b = _placement(topology, "b", 0, 6, 5)
    moved = topology.record_move(b, 1, 1)
    assert topology.shards_for_documents(["b"]) == {1: [moved]}
    assert topology.shards_for_documents(["a", "b"]) == {0: [a], 1: [moved]}
    # Scoped translation drops the co-resident document's ids.
    assert topology.translate_sorted(0, [2, 3], scope=[a]) == [2, 3]
    assert topology.translate_sorted(1, [1, 3], scope=[moved]) == [6, 8]
    assert topology.global_spans_for(["b"]) == [(6, 11)]


def test_unknown_ids_and_bad_shards_raise():
    topology = ShardTopology(2)
    _placement(topology, "a", 0, 1, 5)
    assert topology.to_global(0, 0) == 0  # virtual root
    with pytest.raises(DocumentError):
        topology.to_global(0, 6)
    with pytest.raises(DocumentError):
        topology.to_global(1, 1)
    with pytest.raises(DocumentError):
        topology.to_global(2, 1)
    with pytest.raises(DocumentError):
        topology.placements_for("missing")
    with pytest.raises(DocumentError):
        topology.reserve("x", topology.next_ordinal(), 5, 1, 1)


# ----------------------------------------------------------------------
# Collection-level movement
# ----------------------------------------------------------------------
def _documents(count: int, scale: float = 0.01):
    return [
        generate_xmark(scale=scale, seed=300 + i, name=f"doc-{i}")
        for i in range(count)
    ]


def test_move_document_is_online_and_answer_preserving():
    single = TwigIndexDatabase.from_documents(_documents(3))
    single.build_index("rootpaths")
    service = ShardedQueryService(num_shards=3, placement="round_robin")
    for document in _documents(3):
        service.add_document(document)
    service.build_index("rootpaths")
    xpath = "/site/people/person/name"
    expected = single.service.execute(xpath).ids
    assert service.execute(xpath).ids == expected

    placement = service.topology.placements_for("doc-1")[0]
    moved = service.move_document("doc-1", (placement.shard_index + 1) % 3)
    assert moved.shard_index == (placement.shard_index + 1) % 3
    assert (moved.global_start, moved.global_end) == (
        placement.global_start,
        placement.global_end,
    )
    # The document physically changed shards…
    assert service.shards[placement.shard_index].document_count == 0
    assert service.shards[moved.shard_index].document_count == 2
    # …and answers (scoped and unscoped) are unchanged.
    assert service.execute(xpath, use_result_cache=False).ids == expected
    assert service.execute(
        xpath, documents=["doc-1"], use_result_cache=False
    ).ids == service.oracle(xpath, documents=["doc-1"])
    # A move to the owning shard is a no-op.
    assert service.move_document("doc-1", moved.shard_index) == moved
    with pytest.raises(DocumentError):
        service.move_document("doc-1", 7)
    with pytest.raises(DocumentError):
        service.move_document(placement, 0)  # stale record
    service.close()


def test_move_invalidates_only_the_two_shards_touched():
    service = ShardedQueryService(num_shards=4, placement="round_robin")
    for document in _documents(4):
        service.add_document(document)
    service.build_index("rootpaths")
    xpath = "/site/people/person/name"
    service.execute(xpath)  # warm all four shards' result caches
    before = [shard.service.engine.stats.invalidations for shard in service.shards]
    service.move_document("doc-0", 1)  # shard 0 -> shard 1
    after = [shard.service.engine.stats.invalidations for shard in service.shards]
    assert after[0] == before[0] + 1  # source: removal invalidation
    assert after[1] == before[1] + 1  # target: add invalidation
    assert after[2] == before[2] and after[3] == before[3]
    # The untouched shards still serve their cached partials.
    assert len(service.shards[2].service.result_cache) > 0
    assert len(service.shards[3].service.result_cache) > 0
    service.close()


def test_move_charges_maintenance_on_both_sides_and_counts_itself():
    service = ShardedQueryService(num_shards=2, placement="round_robin")
    for document in _documents(2):
        service.add_document(document)
    service.build_index("rootpaths")
    before = [shard.stats_snapshot() for shard in service.shards]
    service.move_document("doc-0", 1)
    source_diff = diff_snapshots(service.shards[0].stats_snapshot(), before[0])
    target_diff = diff_snapshots(service.shards[1].stats_snapshot(), before[1])
    # Source paid delete-side maintenance, target insert-side — the two
    # halves of a move in the shared cost currency.
    assert source_diff["btree_deletes"] > 0
    assert target_diff["btree_writes"] > 0
    assert target_diff["documents_moved"] == 1
    assert service.describe()["maintenance"]["documents_moved"] == 1


# ----------------------------------------------------------------------
# Churn: retired spans accumulate, compaction prunes, answers stay exact
# ----------------------------------------------------------------------
def test_churn_accumulates_retired_spans_and_compact_prunes_them():
    rng = random.Random(7)
    service = ShardedQueryService(num_shards=3, placement="round_robin")
    service.build_index("rootpaths")
    xpath = "/site/people/person/name"

    alive: list[str] = []
    serial = 0
    for _step in range(40):
        action = rng.random()
        if action < 0.5 or len(alive) < 2:
            name = f"churn-{serial}"
            serial += 1
            service.add_document(
                generate_xmark(scale=0.004, seed=5000 + serial, name=name)
            )
            alive.append(name)
        elif action < 0.75:
            victim = alive.pop(rng.randrange(len(alive)))
            service.remove_document(victim)
        else:
            name = alive[rng.randrange(len(alive))]
            service.move_document(name, rng.randrange(3))
        # Answers stay oracle-exact through every kind of churn.
        assert (
            service.execute(xpath, use_result_cache=False).ids
            == service.oracle(xpath)
        )

    topology = service.topology
    retired = topology.retired_span_count
    assert retired > 0  # churn left a tail of retired spans
    assert retired == topology.spans_retired - topology.spans_pruned
    pruned = service.compact()
    assert pruned == retired
    assert topology.retired_span_count == 0
    # The hot path now holds exactly the live documents, and the tier
    # still answers exactly.
    assert topology.document_count == len(alive)
    assert (
        service.execute(xpath, use_result_cache=False).ids == service.oracle(xpath)
    )
    service.close()


# ----------------------------------------------------------------------
# Deterministic planning
# ----------------------------------------------------------------------
def test_size_balanced_tie_break_is_lowest_shard_index():
    policy = SizeBalancedPlacement()
    document = book_document()
    # All-equal weights: always shard 0, never an arbitrary choice.
    assert policy.choose(document, 0, [0, 0, 0, 0]) == 0
    assert policy.choose(document, 3, [7, 7, 7, 7]) == 0
    # A tie among a subset resolves to the lowest tied index.
    assert policy.choose(document, 1, [5, 3, 3, 9]) == 1
    assert policy.choose(document, 2, [4, 6, 2, 2]) == 2


def test_rebalance_plans_are_reproducible():
    def build() -> ShardedQueryService:
        service = ShardedQueryService(num_shards=3, placement="hash")
        for document in _documents(5, scale=0.008):
            service.add_document(document)
        return service

    first = build().plan_rebalance("size_balanced")
    second = build().plan_rebalance("size_balanced")
    assert [(m.placement.ordinal, m.target_shard) for m in first] == [
        (m.placement.ordinal, m.target_shard) for m in second
    ]
    # Planning mutates nothing: the same tier plans identically
    # twice, and a plan's replay (simulated weights from zero) assigns
    # every document deterministically.
    service = build()
    assert service.plan_rebalance() == service.plan_rebalance()


def test_rebalance_report_counts_moves_and_prunes():
    service = ShardedQueryService(num_shards=2, placement="round_robin")
    for document in _documents(4, scale=0.006):
        service.add_document(document)
    service.build_index("rootpaths")
    # round_robin alternates 0/1; size_balanced may move some subset.
    report = service.rebalance("size_balanced", compact=True)
    assert report.policy == "size_balanced"
    assert report.documents_moved == report.planned
    assert report.spans_pruned == report.documents_moved
    if report.documents_moved:
        assert report.nodes_moved > 0
        assert report.maintenance_cost > 0
    # A second rebalance under the same policy is a fixed point.
    again = service.rebalance("size_balanced")
    assert again.documents_moved == 0
