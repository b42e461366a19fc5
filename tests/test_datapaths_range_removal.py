"""DATAPATHS removal as one HeadId key range, against the enumerated removal.

``DataPathsIndex._removal_batch`` derives a removed document's
real-head rows as one :meth:`~repro.storage.btree.BPlusTree.delete_range`
key range of its id span and enumerates only its virtual-root rows.
The reference kept here is the removal that path replaced: enumerate
every subpath row of the document, delete the whole batch with
``delete_many`` and take the pruned rows off ``pruned_count``.

Both must leave byte-identical state after every removal: the leaf
chain (emptied leaves included), height and size of the tree,
``entry_count``, ``value_counts`` (in order), ``pruned_count`` and the
``StatsCollector`` counters.  Checked on fuzz seeds 0-2 for every
DATAPATHS option, and through the replicated tier's write paths
(replace, move, rebalance, and removals after a revive that replayed
the primary's live documents with id-gap entries).  There, every
secondary applies the batches its primary derived, so each one must
also end byte-identical to its primary, Section 4.2 path dictionary
included.
"""

from __future__ import annotations

import random

import pytest

from repro import ShardedQueryService
from repro.indexes import DataPathsIndex
from repro.indexes.base import EntryBatch
from repro.paths import HeadIdPruner
from repro.storage import StatsCollector
from repro.storage.btree import _Internal
from repro.workloads import random_churn_ops, random_corpus
from repro.workloads.fuzz import random_document
from repro.xmltree import XmlDatabase


def enumerated_removal(index: DataPathsIndex, db, document) -> EntryBatch:
    """The reference removal: every subpath row, one ``delete_many``."""
    batch, pruned = index._entry_batch(db, (document,))
    return EntryBatch(batch, removal=True, pruned=pruned)


class EnumeratedRemoval(DataPathsIndex):
    """DATAPATHS with the reference removal."""

    _removal_batch = enumerated_removal


def index_state(index) -> dict:
    """Everything a removal may touch, in comparable form."""
    tree = index._tree
    node = tree._root
    while isinstance(node, _Internal):
        node = node.children[0]
    leaves = []
    while node is not None:
        leaves.append((list(node.keys), list(node.values)))
        node = node.next
    return {
        "leaves": leaves,
        "height": tree.height,
        "size": len(tree),
        "entry_count": index.entry_count,
        "value_counts": list(index.value_counts.items()),
        "pruned_count": getattr(index, "pruned_count", None),
        "paths": list(getattr(index._path_dictionary, "_id_to_path", ())),
        "stats": index.stats.snapshot(),
    }


#: Labels the pruners keep.  Every other fuzz tag (``b``-``e``, and the
#: self-nested chain's tag unless it is ``a``) is pruned, and each
#: occurs at several depths.
KEPT = {"r", "s", "a"}

OPTIONS = {
    "default": {},
    "order-4": {"order": 4},
    "raw-idlists": {"differential_idlists": False},
    "dictionary": {"schema_path_dictionary": True, "order": 6},
    "pruned": {"order": 6},
    "pruned-dictionary": {"schema_path_dictionary": True, "order": 5},
}


def _options(config: str) -> dict:
    options = dict(OPTIONS[config])
    if config.startswith("pruned"):
        options["head_pruner"] = HeadIdPruner(KEPT)
    return options


@pytest.mark.parametrize("config", sorted(OPTIONS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_range_removal_leaves_the_enumerated_removals_state(config, seed):
    rng = random.Random(seed)
    db = XmlDatabase()
    for document in random_corpus(rng, documents=4):
        db.add_document(document)
    sliced = DataPathsIndex(stats=StatsCollector(), **_options(config)).build(db)
    reference = EnumeratedRemoval(stats=StatsCollector(), **_options(config)).build(db)
    assert index_state(sliced) == index_state(reference)

    removals = 0
    pruned_depths: dict[str, set[int]] = {}
    for round_number in range(4):
        live = [document.name for document in db.documents]
        for op, name, document in random_churn_ops(
            rng, live, operations=3, name_prefix=f"round{round_number}"
        ):
            if op != "add":  # remove, replace and move all start by removing
                detached = db.remove_document(name)
                sliced.remove(db, detached)
                reference.remove(db, detached)
                removals += 1
                for node in detached.iter_structural():
                    if node.label not in KEPT:
                        pruned_depths.setdefault(node.label, set()).add(node.depth)
                assert index_state(sliced) == index_state(reference), (op, name)
            if document is not None:
                added = db.add_document(document)
                sliced.update(db, added)
                reference.update(db, added)
    assert removals > 0
    assert sliced.entry_count == len(sliced._tree)
    if config.startswith("pruned"):
        assert sliced.pruned_count > 0
        assert any(len(depths) > 1 for depths in pruned_depths.values())


# ----------------------------------------------------------------------
# The replicated tier's write paths
# ----------------------------------------------------------------------
def _tier_state(service: ShardedQueryService) -> list:
    """Per shard, per replica: spans, tag ids, index states, counters."""
    return [
        [
            (
                replica.db.document_spans(),
                list(replica.db.tags),
                {
                    name: index_state(replica.engine.indexes[name])
                    for name in ("rootpaths", "datapaths")
                },
                replica.stats.snapshot(),
            )
            for replica in shard.replicas
        ]
        for shard in service.shards
    ]


def _without_stats(state: tuple) -> tuple:
    spans, tags, indexes, _stats = state
    return (
        spans,
        tags,
        {
            name: {key: value for key, value in fields.items() if key != "stats"}
            for name, fields in indexes.items()
        },
    )


def _run_tier_writes(seed: int, datapaths_options: dict) -> list:
    """Replace, move, rebalance, remove, compact + revive, remove again."""
    rng = random.Random(seed)
    corpus = random_corpus(rng, documents=5)
    names = [document.name for document in corpus]
    service = ShardedQueryService(num_shards=2, placement="round_robin", replicas=2)
    try:
        for document in corpus:
            service.add_document(document)
        service.build_index("rootpaths")
        service.build_index("datapaths", **datapaths_options)
        service.replace_document(names[0], random_document(rng, names[0]))
        # Pile documents onto shard 0 so the rebalance has moves to make.
        for name in names[1:5]:
            if service.topology.placements_for(name)[0].shard_index != 0:
                service.move_document(name, 0)
        assert service.rebalance("size_balanced").documents_moved > 0
        service.remove_document(names[5])
        gaps = 0
        for shard in service.shards:
            gaps += sum(action == "gap" for action, _payload in shard._replay())
            shard.revive(1)
        assert gaps > 0
        service.remove_document(names[1])
        service.replace_document(names[2], random_document(rng, names[2]))
        service.move_document(
            names[3], 1 - service.topology.placements_for(names[3])[0].shard_index
        )
        for shard in service.shards:
            assert shard.health_report()["states"] == ["healthy", "healthy"]
        return _tier_state(service)
    finally:
        service.close()


TIER_OPTIONS = {
    "default": {},
    "pruned": {"head_pruner": HeadIdPruner(KEPT)},
    "dictionary": {"schema_path_dictionary": True},
}


@pytest.mark.parametrize("config", sorted(TIER_OPTIONS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tier_write_paths_leave_the_enumerated_removals_state(
    monkeypatch, seed, config
):
    options = TIER_OPTIONS[config]
    sliced = _run_tier_writes(seed, options)
    with monkeypatch.context() as patch:
        patch.setattr(DataPathsIndex, "_removal_batch", enumerated_removal)
        reference = _run_tier_writes(seed, options)
    assert sliced == reference


@pytest.mark.parametrize("config", sorted(TIER_OPTIONS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tier_secondaries_are_byte_identical_to_their_primary(seed, config):
    for shard in _run_tier_writes(seed, TIER_OPTIONS[config]):
        primary, *secondaries = map(_without_stats, shard)
        assert secondaries
        for secondary in secondaries:
            assert secondary == primary
