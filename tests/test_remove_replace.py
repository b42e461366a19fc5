"""Document removal & replacement: differential harness and regressions.

The tentpole invariant of the removal extension: for **any interleaving
of add, remove and replace**, a database whose indexes are maintained
incrementally (one :meth:`~repro.indexes.base.PathIndex.update` or
:meth:`~repro.indexes.base.PathIndex.remove` per mutation) must answer
every query identically to a database that replayed the same mutation
sequence raw and built every index **from scratch** at the end.  The
harness replays randomized mutation sequences against both databases
and diffs the answers of every strategy (and ``auto``) across a
Figure-12-style generated workload.

The sharded tier invariant rides along: a
:class:`~repro.shard.ShardedQueryService` that performs the same
add/remove/replace sequence stays answer-identical to the single
engine, across shard counts and placement policies.

Also pinned here:

* the stale-index regression for removals — every strategy must stop
  returning the removed document's nodes,
* exact catalog statistics (``entry_count``, ``value_counts``, the
  DataGuide skeleton, ``edge_count``) after removals,
* which indexes remove in place vs fall back to a rebuild,
* service generations treating removals as incremental updates
  (results dropped, plans and strategy instances kept),
* tag-dictionary refcount reclamation,
* batched maintenance under seeded churn: entries and every counter of
  the B+-tree-backed indexes equal a from-scratch build's,
* error handling for unknown / ambiguous document names.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import book_document, generate_xmark
from repro.errors import DocumentError
from repro.indexes import DataGuideIndex, DataPathsIndex, RootPathsIndex
from repro.paths import HeadIdPruner
from repro.planner import DEFAULT_STRATEGIES
from repro.service.service import AUTO_STRATEGY
from repro.storage import StatsCollector
from repro.storage.stats import maintenance_cost
from repro.workloads import random_churn_ops, random_corpus
from repro.xmltree import XmlDatabase

#: Every index of the family, by registry name.
ALL_INDEXES = (
    "rootpaths",
    "datapaths",
    "edge",
    "dataguide",
    "index_fabric",
    "asr",
    "join_index",
)

#: The indexes with true incremental deletion.
INCREMENTAL_REMOVAL = ("rootpaths", "datapaths", "edge", "dataguide")


def _workload() -> list[str]:
    """A compact Figure-12-style workload (paths, twigs, recursion)."""
    from repro.workloads.generator import branch_count_sweep, generate_twig

    queries = [
        generated.xpath
        for selectivity in ("selective", "unselective")
        for generated in branch_count_sweep(selectivity, max_branches=2)
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


def _make_document(spec: tuple[float, int, str]):
    scale, seed, name = spec
    return generate_xmark(scale=scale, seed=seed, name=name)


def _mutation_script(sequence_seed: int) -> list[tuple]:
    """A randomized add/remove/replace script over named documents.

    Each op is ``("add", spec)``, ``("remove", name)`` or
    ``("replace", name, spec)`` where ``spec`` regenerates the same
    document deterministically — the two databases under diff replay
    the identical script on fresh document objects.
    """
    rng = random.Random(sequence_seed)
    ordinal = 3
    live = ["d0", "d1", "d2"]
    script: list[tuple] = []
    for _ in range(4):
        roll = rng.random()
        if roll < 0.4 and len(live) > 1:
            victim = live.pop(rng.randrange(len(live)))
            script.append(("remove", victim))
        elif roll < 0.75 and live:
            victim = live[rng.randrange(len(live))]
            spec = (rng.choice([0.015, 0.02]), rng.randrange(1, 10_000), victim)
            script.append(("replace", victim, spec))
        else:
            name = f"d{ordinal}"
            ordinal += 1
            live.append(name)
            spec = (rng.choice([0.015, 0.02]), rng.randrange(1, 10_000), name)
            script.append(("add", spec))
    return script


def _initial_specs(sequence_seed: int) -> list[tuple[float, int, str]]:
    rng = random.Random(sequence_seed + 77_000)
    return [
        (rng.choice([0.02, 0.03]), rng.randrange(1, 10_000), f"d{i}")
        for i in range(3)
    ]


def _apply(database: TwigIndexDatabase, op: tuple) -> None:
    if op[0] == "add":
        database.add_document(_make_document(op[1]))
    elif op[0] == "remove":
        database.remove_document(op[1])
    else:
        database.replace_document(op[1], _make_document(op[2]))


def _apply_raw(database: TwigIndexDatabase, op: tuple) -> None:
    """Replay one op on the raw database, bypassing index maintenance."""
    if op[0] == "add":
        database.db.add_document(_make_document(op[1]))
    elif op[0] == "remove":
        database.db.remove_document(op[1])
    else:
        database.db.replace_document(op[1], _make_document(op[2]))


# ----------------------------------------------------------------------
# The differential harness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sequence_seed", [11, 23])
def test_incremental_remove_replace_equals_rebuild(sequence_seed):
    """Any add/remove/replace interleaving == rebuilt-from-scratch."""
    initial = _initial_specs(sequence_seed)
    script = _mutation_script(sequence_seed)
    workload = _workload()

    incremental = TwigIndexDatabase.from_documents(
        [_make_document(spec) for spec in initial]
    )
    for name in ALL_INDEXES:
        incremental.build_index(name)

    applied: list[tuple] = []
    for op in script:
        _apply(incremental, op)
        applied.append(op)

        # The rebuilt replica replays the same history raw (ids must
        # match, including the holes removals leave), then builds every
        # index from scratch over the post-mutation state.
        rebuilt = TwigIndexDatabase.from_documents(
            [_make_document(spec) for spec in initial]
        )
        for replay_op in applied:
            _apply_raw(rebuilt, replay_op)
        for name in ALL_INDEXES:
            rebuilt.build_index(name)

        assert incremental.db.document_spans() == rebuilt.db.document_spans()
        for xpath in workload:
            expected = rebuilt.oracle(xpath)
            assert incremental.oracle(xpath) == expected, (op, xpath)
            for strategy in DEFAULT_STRATEGIES + (AUTO_STRATEGY,):
                incremental_ids = incremental.query(xpath, strategy=strategy).ids
                rebuilt_ids = rebuilt.query(xpath, strategy=strategy).ids
                assert incremental_ids == rebuilt_ids == expected, (
                    f"after {op}, {strategy}, {xpath}: "
                    f"incremental={incremental_ids} rebuilt={rebuilt_ids} "
                    f"oracle={expected}"
                )


@pytest.mark.parametrize(
    "num_shards,placement", [(2, "hash"), (4, "round_robin"), (3, "size_balanced")]
)
def test_sharded_remove_replace_equals_single_engine(num_shards, placement):
    """Sharded removals/replacements stay answer-identical to one engine."""
    initial = _initial_specs(5)
    script = _mutation_script(5)
    workload = _workload()

    single = TwigIndexDatabase.from_documents(
        [_make_document(spec) for spec in initial]
    )
    sharded = ShardedQueryService(num_shards=num_shards, placement=placement)
    for spec in initial:
        sharded.add_document(_make_document(spec))
    single.build_index("rootpaths")
    single.build_index("datapaths")
    sharded.build_index("rootpaths")
    sharded.build_index("datapaths")

    def apply_sharded(op: tuple) -> None:
        if op[0] == "add":
            sharded.add_document(_make_document(op[1]))
        elif op[0] == "remove":
            sharded.remove_document(op[1])
        else:
            sharded.replace_document(op[1], _make_document(op[2]))

    try:
        for op in script:
            _apply(single, op)
            apply_sharded(op)
            for xpath in workload:
                expected = single.oracle(xpath)
                assert sharded.oracle(xpath) == expected, (op, xpath)
                for strategy in ("rootpaths", "datapaths", AUTO_STRATEGY):
                    sharded_ids = sharded.execute(xpath, strategy=strategy).ids
                    single_ids = single.query(xpath, strategy=strategy).ids
                    assert sharded_ids == single_ids == expected, (
                        f"after {op}, {strategy}, {xpath}: "
                        f"sharded={sharded_ids} single={single_ids}"
                    )
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# Regressions and exactness
# ----------------------------------------------------------------------
def test_remove_document_after_build_index_is_not_stale():
    """Every strategy must stop returning the removed document's nodes."""
    db = TwigIndexDatabase.from_documents(
        [book_document(name="keep"), book_document(name="drop")]
    )
    for name in ALL_INDEXES:
        db.build_index(name)
    assert len(db.query("/book/title", strategy="rootpaths").ids) == 2

    removed = db.remove_document("drop")
    assert removed.name == "drop"
    expected = db.oracle("/book/title")
    assert len(expected) == 1
    for strategy in DEFAULT_STRATEGIES + (AUTO_STRATEGY,):
        ids = db.query("/book/title", strategy=strategy).ids
        assert ids == expected, f"{strategy} still stale: {ids}"


def test_replace_document_swaps_content_and_keeps_name():
    db = TwigIndexDatabase.from_xml(
        "<book><title>Old Title</title></book>", name="b"
    )
    for name in ("rootpaths", "datapaths", "edge", "dataguide"):
        db.build_index(name)
    replacement = "<book><title>New Title</title><year>2005</year></book>"
    added = db.replace_document("b", replacement)
    assert added.name == "b"
    assert len(db.db.documents) == 1
    for strategy in ("rootpaths", "datapaths", "edge", AUTO_STRATEGY):
        assert db.query("/book[title='Old Title']", strategy=strategy).ids == []
        assert len(db.query("/book[title='New Title']", strategy=strategy).ids) == 1
        assert len(db.query("/book/year", strategy=strategy).ids) == 1


def test_incremental_removal_flags_match_the_documented_family():
    """RP/DP/Edge/DataGuide remove in place; the rest rebuild."""
    db = TwigIndexDatabase.from_documents(
        [book_document(name="a"), book_document(name="b")]
    )
    for name in ALL_INDEXES:
        db.build_index(name)
    detached = db.db.remove_document("b")
    report = db.engine.maintain_indexes(detached, removal=True)
    assert report == {
        name: (name in INCREMENTAL_REMOVAL) for name in ALL_INDEXES
    }


def test_removal_preserves_catalog_statistics_exactly():
    """Counts and skeletons equal a from-scratch build after removal."""
    specs = [(0.03, 5, "d0"), (0.02, 9, "d1"), (0.02, 31, "d2")]

    incremental = TwigIndexDatabase.from_documents(
        [_make_document(spec) for spec in specs]
    )
    for name in ("rootpaths", "datapaths", "edge", "dataguide"):
        incremental.build_index(name)
    incremental.remove_document("d1")

    rebuilt = TwigIndexDatabase.from_documents(
        [_make_document(spec) for spec in specs]
    )
    rebuilt.db.remove_document("d1")
    for name in ("rootpaths", "datapaths", "edge", "dataguide"):
        rebuilt.build_index(name)

    for name in ("rootpaths", "datapaths"):
        left, right = incremental.indexes[name], rebuilt.indexes[name]
        assert left.entry_count == right.entry_count, name
        assert left.value_counts == right.value_counts, name
    assert (
        incremental.indexes["edge"].edge_count == rebuilt.indexes["edge"].edge_count
    )
    assert sorted(incremental.indexes["dataguide"].distinct_paths()) == sorted(
        rebuilt.indexes["dataguide"].distinct_paths()
    )
    assert (
        incremental.indexes["dataguide"].entry_count
        == rebuilt.indexes["dataguide"].entry_count
    )


def test_incremental_remove_is_cheaper_than_rebuild_in_maintenance_currency():
    base = generate_xmark(scale=0.05, seed=7, name="base")
    doomed = generate_xmark(scale=0.01, seed=42, name="doomed")
    db = TwigIndexDatabase.from_documents([base, doomed])
    for name in INCREMENTAL_REMOVAL:
        db.build_index(name)
    build_cost = maintenance_cost(db.stats.snapshot())

    before = db.stats.snapshot()
    db.remove_document("doomed")
    removal_diff = db.stats.diff(before)
    removal_cost = maintenance_cost(removal_diff)
    assert removal_diff["btree_deletes"] > 0
    assert 0 < removal_cost < build_cost, (removal_cost, build_cost)


def test_service_generation_treats_removal_as_incremental():
    """Removal drops results/choices but keeps plans and instances."""
    db = TwigIndexDatabase.from_documents(
        [book_document(name="a"), book_document(name="b")]
    )
    db.build_index("rootpaths")
    service = db.service
    service.execute("/book/title", strategy=AUTO_STRATEGY)
    assert len(service.plan_cache) == 1
    result_before = service.result_invalidations
    full_before = service.full_invalidations

    service.remove_document("b")
    assert service.result_invalidations == result_before + 1
    assert service.full_invalidations == full_before
    assert len(service.plan_cache) == 1  # parsed plans survive
    assert len(service.result_cache) == 0
    report = service.describe()
    assert report["maintenance"]["documents_removed"] == 1


def test_tag_dictionary_refcounts_are_reclaimed():
    """A tag whose last document leaves becomes unknown again."""
    db = TwigIndexDatabase.from_xml("<book><title>X</title></book>", name="a")
    db.load_xml("<zine><headline>Y</headline></zine>", name="z")
    for name in ("rootpaths", "datapaths"):
        db.build_index(name)
    assert db.db.tags.id_of("headline") is not None
    size_with = db.db.tags.estimated_size_bytes()

    db.remove_document("z")
    assert db.db.tags.id_of("headline") is None
    assert db.db.tags.estimated_size_bytes() < size_with
    for strategy in ("rootpaths", "datapaths"):
        assert db.query("/zine/headline", strategy=strategy).ids == []
    # Re-adding revives the tag under its original id.
    db.load_xml("<zine><headline>Z</headline></zine>", name="z2")
    assert db.db.tags.id_of("headline") is not None
    assert len(db.query("/zine/headline", strategy="rootpaths").ids) == 1


def test_remove_unknown_and_ambiguous_names_raise():
    db = TwigIndexDatabase.from_documents(
        [book_document(name="dup"), book_document(name="dup")]
    )
    with pytest.raises(DocumentError):
        db.remove_document("missing")
    with pytest.raises(DocumentError):
        db.remove_document("dup")
    # Passing the Document object disambiguates.
    victim = db.db.documents[0]
    removed = db.remove_document(victim)
    assert removed is victim
    assert len(db.db.documents) == 1


def test_sharded_remove_unknown_and_ambiguous_raise():
    sharded = ShardedQueryService(num_shards=2, placement="round_robin")
    try:
        sharded.add_document(book_document(name="dup"))
        sharded.add_document(book_document(name="dup"))
        with pytest.raises(DocumentError):
            sharded.remove_document("missing")
        with pytest.raises(DocumentError):
            sharded.remove_document("dup")
    finally:
        sharded.close()


def test_sharded_removal_invalidates_owning_shard_only():
    sharded = ShardedQueryService(num_shards=2, placement="round_robin")
    try:
        sharded.add_document(book_document(name="a"))  # shard 0
        sharded.add_document(book_document(name="b"))  # shard 1
        sharded.build_index("rootpaths")
        sharded.execute("/book/title", strategy="rootpaths")
        shard0, shard1 = sharded.collection.shards
        before = (
            shard0.service.result_invalidations,
            shard1.service.result_invalidations,
        )
        placement = sharded.remove_document("b")
        assert placement.shard_index == 1
        assert shard1.service.result_invalidations == before[1] + 1
        assert shard0.service.result_invalidations == before[0]
        report = sharded.describe()
        assert report["maintenance"]["documents_removed"] == 1
        assert report["documents"] == 1
        # A replace is counted as itself at the collection level, even
        # though the shard services see it as a remove + an add.
        sharded.replace_document("a", book_document(name="a"))
        report = sharded.describe()
        assert report["maintenance"]["documents_replaced"] == 1
        assert report["documents"] == 1
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# Batched maintenance under churn vs a from-scratch build
# ----------------------------------------------------------------------
CHURNED_INDEXES = {
    "rootpaths": lambda: RootPathsIndex(stats=StatsCollector(), order=6),
    "rootpaths-dictionary": lambda: RootPathsIndex(
        stats=StatsCollector(), order=6, schema_path_dictionary=True
    ),
    "datapaths": lambda: DataPathsIndex(stats=StatsCollector(), order=6),
    "datapaths-dictionary": lambda: DataPathsIndex(
        stats=StatsCollector(), order=6, schema_path_dictionary=True
    ),
    "datapaths-pruned": lambda: DataPathsIndex(
        stats=StatsCollector(), order=6, head_pruner=HeadIdPruner({"a", "r"})
    ),
    "dataguide": lambda: DataGuideIndex(stats=StatsCollector(), order=4),
}


def _entry_multiset(index) -> Counter:
    """Stored ``(key, payload)`` entries, path-dictionary ids spelled out.

    Section 4.2 ids are positional over an index's lifetime, so a
    churned index and a fresh build number the same path differently;
    the path itself is what must agree.
    """
    dictionary = getattr(index, "_path_dictionary", None)
    entries: Counter = Counter()
    for key, payload in index._tree.scan_all():
        if dictionary is not None:
            key = key[:-1] + (dictionary.path_of(key[-1][1]),)
        entries[(key, payload)] += 1
    return entries


@pytest.mark.parametrize("config", sorted(CHURNED_INDEXES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_churned_batches_leave_a_from_scratch_builds_entries_and_counters(
    config, seed
):
    rng = random.Random(seed)
    db = XmlDatabase()
    for document in random_corpus(rng, documents=4):
        db.add_document(document)
    churned = CHURNED_INDEXES[config]().build(db)

    for round_number in range(4):
        live = [document.name for document in db.documents]
        for op, name, document in random_churn_ops(
            rng, live, operations=3, name_prefix=f"round{round_number}"
        ):
            if op != "add":  # remove, replace and move all start by removing
                churned.remove(db, db.remove_document(name))
            if document is not None:
                churned.update(db, db.add_document(document))

        fresh = CHURNED_INDEXES[config]().build(db)
        assert _entry_multiset(churned) == _entry_multiset(fresh)
        assert churned.entry_count == fresh.entry_count == len(churned._tree)
        if isinstance(churned, DataGuideIndex):
            assert churned._path_counts == fresh._path_counts
            assert sorted(churned.distinct_paths()) == sorted(fresh.distinct_paths())
        else:
            assert churned.value_counts == fresh.value_counts
        if isinstance(churned, DataPathsIndex):
            assert churned.pruned_count == fresh.pruned_count
            assert (churned.pruned_count > 0) == (config == "datapaths-pruned")
