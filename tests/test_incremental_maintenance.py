"""Incremental index maintenance: differential harness and regressions.

The tentpole invariant: for any sequence of document adds, a database
whose indexes are maintained **incrementally** (one
:meth:`~repro.indexes.base.PathIndex.update` per add) must answer every
query identically to a database whose indexes are **rebuilt from
scratch** after each add.  The harness replays randomized document
sequences against both databases and diffs the answers of every
strategy (and ``auto``) across a Figure-12-style generated workload.

Also pinned here:

* the stale-index regression — before the maintenance extension,
  ``add_document`` after ``build_index`` left every index answering
  from the pre-add snapshot,
* that incremental maintenance is charged in the maintenance-cost
  currency and is cheaper than a rebuild for a small delta document,
* which indexes maintain in place vs fall back to a rebuild,
* the entry batches of the B+-tree-backed indexes: every memoised key
  is the key the paper's layout spells out, and a build is leaf for
  leaf a sorted one-entry-at-a-time load.
"""

from __future__ import annotations

import random
from operator import itemgetter

import pytest

from repro import TwigIndexDatabase
from repro.datasets import book_document, generate_dblp, generate_xmark
from repro.indexes import DataGuideIndex, DataPathsIndex, RootPathsIndex
from repro.paths import HeadIdPruner, iter_datapaths_rows, iter_rootpaths_rows
from repro.planner import DEFAULT_STRATEGIES
from repro.service.service import AUTO_STRATEGY
from repro.storage import BPlusTree, StatsCollector, encode_key
from repro.storage.stats import maintenance_cost
from repro.workloads import random_corpus, random_document
from repro.workloads.generator import branch_count_sweep, generate_twig
from repro.xmltree import XmlDatabase, parse_string
from repro.xmltree.document import VIRTUAL_ROOT_ID

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


def _document_sequence(seed: int) -> list[tuple[float, int]]:
    """Randomized (scale, seed) parameters for a grow-only sequence."""
    rng = random.Random(seed)
    return [
        (rng.choice([0.02, 0.03, 0.04]), rng.randrange(1, 10_000))
        for _ in range(3)
    ]


def _documents(parameters: list[tuple[float, int]]):
    """Fresh document objects (documents cannot be shared across DBs)."""
    return [
        generate_xmark(scale=scale, seed=seed, name=f"xmark-{position}")
        for position, (scale, seed) in enumerate(parameters)
    ]


@pytest.mark.parametrize("sequence_seed", [1, 2])
def test_incremental_equals_rebuild_on_randomized_add_sequences(sequence_seed):
    """The differential harness over every strategy including ``auto``."""
    parameters = _document_sequence(sequence_seed)
    workload = _workload()

    incremental_docs = _documents(parameters)
    rebuilt_docs = _documents(parameters)

    incremental = TwigIndexDatabase.from_documents([incremental_docs[0]])
    for name in ALL_INDEXES:
        incremental.build_index(name)

    for step in range(1, len(parameters) + 1):
        if step > 1:
            incremental.add_document(incremental_docs[step - 1])

        rebuilt = TwigIndexDatabase.from_documents(rebuilt_docs[:step])
        for name in ALL_INDEXES:
            rebuilt.build_index(name)

        for xpath in workload:
            expected = rebuilt.oracle(xpath)
            for strategy in DEFAULT_STRATEGIES + (AUTO_STRATEGY,):
                incremental_ids = incremental.query(xpath, strategy=strategy).ids
                rebuilt_ids = rebuilt.query(xpath, strategy=strategy).ids
                assert incremental_ids == rebuilt_ids == expected, (
                    f"step {step}, {strategy}, {xpath}: "
                    f"incremental={incremental_ids} rebuilt={rebuilt_ids} "
                    f"oracle={expected}"
                )


def test_add_document_after_build_index_is_not_stale():
    """Regression: built indexes used to answer from the pre-add snapshot.

    Before the maintenance extension this failed for every strategy —
    ``add_document`` went straight to the raw database and no built
    index saw the new document's nodes.
    """
    db = TwigIndexDatabase.from_documents([book_document()])
    for name in ALL_INDEXES:
        db.build_index(name)
    first_ids = db.query("/book/title", strategy="rootpaths").ids
    assert len(first_ids) == 1

    added = db.add_document(book_document(name="second-book"))
    new_title_id = next(
        node.node_id
        for node in added.iter_structural()
        if node.label == "title"
    )
    expected = db.oracle("/book/title")
    assert new_title_id in expected and len(expected) == 2
    for strategy in DEFAULT_STRATEGIES + (AUTO_STRATEGY,):
        ids = db.query(xpath := "/book/title", strategy=strategy).ids
        assert ids == expected, f"{strategy} still stale on {xpath}: {ids}"


def test_incremental_flags_match_the_documented_family():
    """RP/DP/Edge/DataGuide maintain in place; the rest rebuild."""
    db = TwigIndexDatabase.from_documents([book_document()])
    maintained = {}
    for name in ALL_INDEXES:
        db.build_index(name)
    report = db.engine.maintain_indexes(db.db.add_document(book_document(name="b2")))
    maintained.update(report)
    assert maintained == {
        "rootpaths": True,
        "datapaths": True,
        "edge": True,
        "dataguide": True,
        "index_fabric": False,
        "asr": False,
        "join_index": False,
    }


def test_incremental_update_preserves_catalog_statistics():
    """``value_counts`` after updates equals a from-scratch build's."""
    docs_a = [generate_dblp(scale=0.03, seed=5, name="d0"),
              generate_dblp(scale=0.02, seed=9, name="d1")]
    docs_b = [generate_dblp(scale=0.03, seed=5, name="d0"),
              generate_dblp(scale=0.02, seed=9, name="d1")]

    incremental = TwigIndexDatabase.from_documents([docs_a[0]])
    incremental.build_index("rootpaths")
    incremental.build_index("datapaths")
    incremental.add_document(docs_a[1])

    rebuilt = TwigIndexDatabase.from_documents(docs_b)
    rebuilt.build_index("rootpaths")
    rebuilt.build_index("datapaths")

    for name in ("rootpaths", "datapaths"):
        left, right = incremental.indexes[name], rebuilt.indexes[name]
        assert left.entry_count == right.entry_count, name
        assert left.value_counts == right.value_counts, name


def test_incremental_add_is_cheaper_than_rebuild_in_maintenance_currency():
    """Grow-by-one: update() charges less than building from scratch."""
    base = generate_xmark(scale=0.05, seed=7, name="base")
    delta = generate_xmark(scale=0.01, seed=42, name="delta")

    db = TwigIndexDatabase.from_documents([base])
    for name in ("rootpaths", "datapaths", "edge", "dataguide"):
        db.build_index(name)
    build_cost = maintenance_cost(db.stats.snapshot())
    assert build_cost > 0  # builds charge page writes now

    before = db.stats.snapshot()
    db.add_document(delta)
    update_cost = maintenance_cost(db.stats.diff(before))
    assert 0 < update_cost < build_cost, (update_cost, build_cost)


def test_update_on_unbuilt_index_raises():
    from repro.errors import IndexNotBuiltError
    from repro.indexes import RootPathsIndex

    db = TwigIndexDatabase.from_documents([book_document()])
    index = RootPathsIndex()
    with pytest.raises(IndexNotBuiltError):
        index.update(db.db, db.db.documents[0])


# ----------------------------------------------------------------------
# Entry batches: memoised keys and the build loader, against the
# paper's key layout written out row by row with no memo.
# ----------------------------------------------------------------------
#: Small orders, so the tiny fuzz corpora still make multi-level trees.
BATCH_INDEXES = {
    "rootpaths": lambda: RootPathsIndex(stats=StatsCollector(), order=6),
    "rootpaths-forward": lambda: RootPathsIndex(
        stats=StatsCollector(), order=6, reverse_schema_path=False
    ),
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


def _reference_entries(index, db: XmlDatabase) -> list[tuple]:
    """``(key, payload)`` per stored row of ``db``, in row order.

    Each key is ``encode_key`` over the row's own components (Sections
    3.2 / 3.3 / 4.2), with tag ids read from the database dictionary
    label by label.  Path-dictionary ids are positional in first-seen
    row order over the index's lifetime, so they are read back from the
    index's dictionary — and must exist there.
    """
    tag_id = db.tags.intern
    if isinstance(index, DataGuideIndex):
        return [
            (encode_key(tag_id(label) for label in row.schema_path), row.id_list[-1])
            for row in iter_rootpaths_rows(db, include_values=False)
        ]
    entries = []
    rootpaths = isinstance(index, RootPathsIndex)
    for row in iter_rootpaths_rows(db) if rootpaths else iter_datapaths_rows(db):
        if rootpaths:
            lead: tuple = (row.leaf_value,)
            payload: tuple = (row.schema_path, row.id_list, row.leaf_value)
            labels = row.schema_path
            if index.reverse_schema_path:
                labels = tuple(reversed(labels))
        else:
            pruner = index.head_pruner
            if (
                pruner is not None
                and row.head_id != VIRTUAL_ROOT_ID
                and not pruner.keeps_label(row.schema_path[0])
            ):
                continue
            lead = (row.head_id, row.leaf_value)
            payload = (row.schema_path, row.id_list, row.leaf_value, row.head_id)
            labels = tuple(reversed(row.schema_path))
        if index.schema_path_dictionary:
            path_id = index._path_dictionary.id_of(row.schema_path)
            assert path_id is not None, row.schema_path
            path_component: tuple = (path_id,)
        else:
            path_component = tuple(tag_id(label) for label in labels)
        entries.append((encode_key((*lead, *path_component)), payload))
    return entries


def _leaves(tree: BPlusTree) -> list[tuple[list, list]]:
    """Leaf-for-leaf ``(keys, values)``, read without touching the counters."""
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    leaves = []
    while node is not None:
        leaves.append((list(node.keys), list(node.values)))
        node = node.next
    return leaves


def _stored(index) -> list[tuple]:
    return [
        (key, value)
        for keys, values in _leaves(index._tree)
        for key, value in zip(keys, values)
    ]


def _assert_matches_reference(index, db: XmlDatabase) -> None:
    """Stored entries are the reference entries, equal keys in row order."""
    assert _stored(index) == sorted(_reference_entries(index, db), key=itemgetter(0))
    assert index.entry_count == len(index._tree)


def _fuzz_database(seed: int) -> XmlDatabase:
    db = XmlDatabase()
    for document in random_corpus(random.Random(seed), documents=4):
        db.add_document(document)
    return db


@pytest.mark.parametrize("config", sorted(BATCH_INDEXES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_is_a_sorted_per_entry_load_of_the_reference_entries(config, seed):
    """Leaf for leaf, and counter for counter, the sorted ``insert`` loop."""
    db = _fuzz_database(seed)
    index = BATCH_INDEXES[config]().build(db)
    reference = BPlusTree(order=index.order, stats=StatsCollector())
    for key, payload in sorted(_reference_entries(index, db), key=itemgetter(0)):
        reference.insert(key, payload)
    assert _leaves(index._tree) == _leaves(reference)
    assert index._tree.height == reference.height
    assert index.stats.snapshot() == reference.stats.snapshot()
    if getattr(index, "schema_path_dictionary", False):
        # Section 4.2 path ids are handed out in first-seen row order.
        dictionary = index._path_dictionary
        first_seen = dict.fromkeys(
            payload[0] for _key, payload in _reference_entries(index, db)
        )
        assert [
            dictionary.path_of(path_id) for path_id in range(1, len(dictionary) + 1)
        ] == list(first_seen)


@pytest.mark.parametrize("config", sorted(BATCH_INDEXES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoised_keys_equal_the_unmemoised_mapping_through_churn(config, seed):
    """Memo validity: through adds, a released and re-acquired tag, and a
    rebuild on the same index object."""
    rng = random.Random(seed)
    db = _fuzz_database(seed)
    index = BATCH_INDEXES[config]().build(db)
    _assert_matches_reference(index, db)

    # "zonly" occurs in one document only: removing it releases the tag
    # fully (its id stays), re-adding it re-acquires the same id.
    zonly = "<r><zonly><a>v1</a></zonly><b><zonly>v2</zonly></b></r>"
    first = db.add_document(parse_string(zonly, name="z1"))
    index.update(db, first)
    fresh = db.add_document(random_document(rng, "late"))
    index.update(db, fresh)
    _assert_matches_reference(index, db)

    index.remove(db, db.remove_document("z1"))
    assert db.tags.id_of("zonly") is None
    _assert_matches_reference(index, db)

    again = db.add_document(parse_string(zonly, name="z2"))
    assert db.tags.id_of("zonly") is not None
    index.update(db, again)
    _assert_matches_reference(index, db)

    # A rebuild reuses the index object; its memo starts over with it.
    memo_before = index._key_suffixes
    index.build(db)
    assert index._key_suffixes is not memo_before
    _assert_matches_reference(index, db)
