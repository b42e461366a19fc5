"""Tests for the ROOTPATHS and DATAPATHS indices (the paper's contribution)."""

import pytest

from repro.errors import IndexNotBuiltError, UnsupportedLookupError
from repro.indexes import DataPathsIndex, RootPathsIndex
from repro.paths import HeadIdPruner, prune_idlist
from repro.query import parse_xpath
from repro.storage import StatsCollector
from repro.storage.btree import BPlusTree


# ----------------------------------------------------------------------
# ROOTPATHS
# ----------------------------------------------------------------------
def test_rootpaths_requires_build():
    index = RootPathsIndex(stats=StatsCollector())
    with pytest.raises(IndexNotBuiltError):
        list(index.lookup(("book",), None))
    with pytest.raises(IndexNotBuiltError):
        index.estimated_size_bytes()


def test_rootpaths_single_lookup_full_idlist(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    matches = list(index.lookup(("author", "fn"), "jane"))
    assert len(matches) == 2
    for match in matches:
        assert match.labels == ("book", "allauthors", "author", "fn")
        # Full root-to-node IdList, one id per label (Figure 4).
        assert len(match.ids) == len(match.labels)
        assert match.ids[0] == book_xmldb.documents[0].root.node_id


def test_rootpaths_anchored_vs_suffix_lookup(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    # '/book/title' is anchored: exactly one path (the chapter title does
    # not start at the root).
    anchored = list(index.lookup(("book", "title"), None, anchored=True))
    assert len(anchored) == 1
    # '//title' (suffix match) also reaches the chapter title.
    suffix = list(index.lookup(("title",), None, anchored=False))
    assert len(suffix) == 2


def test_rootpaths_structural_and_value_rows_are_distinct(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    structural = index.count(("author", "fn"), None)
    valued = index.count(("author", "fn"), "jane")
    assert structural == 3
    assert valued == 2


def test_rootpaths_unknown_label_or_value_is_empty(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    assert index.count(("nonexistent",), None) == 0
    assert index.count(("author", "fn"), "zzz") == 0


def test_rootpaths_estimate_matches_statistics(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    assert index.estimate_matches("fn", "jane") == 2
    assert index.estimate_matches("fn", None) == 3
    assert index.estimate_matches("fn", "none") == 0


def test_rootpaths_idlist_ablation_store_last_only(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector(), store_full_idlist=False).build(book_xmldb)
    match = next(iter(index.lookup(("author", "fn"), "jane")))
    assert len(match.ids) == 1


def test_rootpaths_forward_schema_path_cannot_serve_recursion(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector(), reverse_schema_path=False).build(book_xmldb)
    # Anchored lookups still work.
    assert index.count(("book", "title"), "XML", anchored=True) == 1
    with pytest.raises(UnsupportedLookupError):
        list(index.lookup(("title",), None, anchored=False))


def test_rootpaths_schema_path_dictionary_loses_recursion(book_xmldb):
    index = RootPathsIndex(stats=StatsCollector(), schema_path_dictionary=True).build(book_xmldb)
    assert index.count(("book", "title"), "XML", anchored=True) == 1
    with pytest.raises(UnsupportedLookupError):
        list(index.lookup(("title",), None, anchored=False))


def test_rootpaths_size_smaller_without_full_idlists(book_xmldb):
    full = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    last_only = RootPathsIndex(stats=StatsCollector(), store_full_idlist=False).build(book_xmldb)
    assert last_only.estimated_size_bytes() < full.estimated_size_bytes()


def test_rootpaths_differential_encoding_reduces_size(book_xmldb):
    compressed = RootPathsIndex(stats=StatsCollector(), differential_idlists=True).build(book_xmldb)
    raw = RootPathsIndex(stats=StatsCollector(), differential_idlists=False).build(book_xmldb)
    assert compressed.estimated_size_bytes() < raw.estimated_size_bytes()


# ----------------------------------------------------------------------
# DATAPATHS
# ----------------------------------------------------------------------
def test_datapaths_free_lookup_equals_rootpaths(book_xmldb):
    rootpaths = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    datapaths = DataPathsIndex(stats=StatsCollector()).build(book_xmldb)
    rp_ids = sorted(m.tail_id for m in rootpaths.lookup(("author", "fn"), "jane"))
    dp_ids = sorted(m.tail_id for m in datapaths.free_lookup(("author", "fn"), "jane"))
    assert rp_ids == dp_ids


def test_datapaths_bound_lookup_below_concrete_head(book_xmldb):
    datapaths = DataPathsIndex(stats=StatsCollector()).build(book_xmldb)
    book_id = book_xmldb.documents[0].root.node_id
    matches = list(datapaths.bound_lookup(book_id, ("author", "fn"), "jane"))
    assert len(matches) == 2
    for match in matches:
        assert match.head_id == book_id
        # The head's own id is not part of the IdList (Figure 5).
        assert len(match.ids) == len(match.labels) - 1
        author_id = match.id_at(len(match.labels) - 2)
        assert book_xmldb.node(author_id).label == "author"
    # Bound to a single author, only that author's subtree matches.
    author = next(iter(book_xmldb.iter_by_label("author")))
    bound = list(datapaths.bound_lookup(author.node_id, ("fn",), "jane"))
    assert len(bound) == 1


def test_datapaths_bound_lookup_anchored_requires_direct_chain(book_xmldb):
    datapaths = DataPathsIndex(stats=StatsCollector()).build(book_xmldb)
    book_id = book_xmldb.documents[0].root.node_id
    # 'author' is not a direct child of book, so an anchored probe fails...
    assert datapaths.count_bound(book_id, ("author",), None, anchored=True) == 0
    # ... while the '//' probe succeeds.
    assert datapaths.count_bound(book_id, ("author",), None, anchored=False) == 3
    # A genuinely direct chain works anchored.
    assert datapaths.count_bound(book_id, ("allauthors", "author"), None, anchored=True) == 3


def test_datapaths_is_larger_than_rootpaths(book_xmldb):
    rootpaths = RootPathsIndex(stats=StatsCollector()).build(book_xmldb)
    datapaths = DataPathsIndex(stats=StatsCollector()).build(book_xmldb)
    assert datapaths.entry_count > rootpaths.entry_count
    assert datapaths.estimated_size_bytes() > rootpaths.estimated_size_bytes()


def _prune_stored_idlists(index, idlist_position: int) -> None:
    """Replace every stored IdList with a last-id-only pruned version.

    Simulates Section 4.1's workload-based pruning at the storage level
    so the space accounting can be exercised against NULL-bearing lists.
    """
    entries = []
    for key, payload in index._tree.scan_all():
        mutable = list(payload)
        ids = mutable[idlist_position]
        if ids:
            mutable[idlist_position] = prune_idlist(ids, keep_positions=(len(ids) - 1,))
        entries.append((key, tuple(mutable)))
    rebuilt = BPlusTree(order=index.order, stats=index.stats, name=index.name)
    rebuilt.insert_many(entries)
    index._tree = rebuilt


def test_space_accounting_handles_pruned_idlists_consistently(book_xmldb):
    # Regression: DATAPATHS sized IdLists without filtering NULLs while
    # ROOTPATHS filtered them, so Figure 9 numbers diverged (and pruned
    # DATAPATHS lists crashed the varint coder).  Both must size only the
    # present ids.
    for index_class, options in (
        (RootPathsIndex, {}),
        (RootPathsIndex, {"differential_idlists": False}),
        (DataPathsIndex, {}),
        (DataPathsIndex, {"differential_idlists": False}),
    ):
        index = index_class(stats=StatsCollector(), **options).build(book_xmldb)
        full_size = index.estimated_size_bytes()
        _prune_stored_idlists(index, idlist_position=1)
        pruned_size = index.estimated_size_bytes()
        assert pruned_size < full_size, (index_class.__name__, options)


def test_datapaths_headid_pruning(book_xmldb):
    pruner = HeadIdPruner.from_workload([parse_xpath("/book//author[fn='jane']")])
    pruned = DataPathsIndex(stats=StatsCollector(), head_pruner=pruner).build(book_xmldb)
    full = DataPathsIndex(stats=StatsCollector()).build(book_xmldb)
    assert pruned.entry_count < full.entry_count
    assert pruned.pruned_count > 0
    assert pruned.estimated_size_bytes() < full.estimated_size_bytes()
    # Probes at retained heads still work; pruned heads raise.
    book_id = book_xmldb.documents[0].root.node_id
    assert pruned.count_bound(book_id, ("author", "fn"), "jane") == 2
    author = next(iter(book_xmldb.iter_by_label("allauthors")))
    with pytest.raises(UnsupportedLookupError):
        list(pruned.bound_lookup(author.node_id, ("author",), None))
    # FreeIndex probes (virtual root) always survive pruning.
    assert pruned.count_bound(0, ("book", "title"), "XML", anchored=True) == 1


def test_datapaths_schema_path_dictionary(book_xmldb):
    compressed = DataPathsIndex(stats=StatsCollector(), schema_path_dictionary=True).build(book_xmldb)
    book_id = book_xmldb.documents[0].root.node_id
    assert compressed.count_bound(book_id, ("allauthors", "author"), None, anchored=True) == 3
    with pytest.raises(UnsupportedLookupError):
        list(compressed.bound_lookup(book_id, ("author",), None, anchored=False))


def test_family_descriptors_match_figure_3():
    assert "reverse SchemaPath" in RootPathsIndex.descriptor.indexed_columns
    assert RootPathsIndex.descriptor.id_list_sublist == "full IdList"
    assert DataPathsIndex.descriptor.schema_path_subset == "all paths"
    assert "HeadId" in DataPathsIndex.descriptor.indexed_columns
