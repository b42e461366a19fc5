"""Tests for IdList encoding, the 4-ary relation enumeration and compression."""

from hypothesis import given, strategies as st

from repro.paths import (
    HeadIdPruner,
    SchemaPathDictionary,
    compression_ratio,
    decode_deltas,
    distinct_schema_paths,
    encode_deltas,
    encoded_size_bytes,
    iter_datapaths_rows,
    iter_rootpaths_rows,
    present_ids,
    prune_idlist,
    raw_size_bytes,
    varint_size,
)
from repro.query import parse_xpath
from repro.xmltree.document import VIRTUAL_ROOT_ID


# ----------------------------------------------------------------------
# IdList differential encoding (Section 4.1)
# ----------------------------------------------------------------------
def test_delta_encoding_round_trip_simple():
    ids = (1, 5, 6, 7)
    assert decode_deltas(encode_deltas(ids)) == ids
    assert encode_deltas(ids) == [1, 4, 1, 1]
    assert encode_deltas([]) == []
    assert decode_deltas([]) == ()


@given(st.lists(st.integers(min_value=0, max_value=10**7), max_size=30))
def test_delta_encoding_round_trip_property(ids):
    assert list(decode_deltas(encode_deltas(ids))) == ids


def test_varint_sizes():
    assert varint_size(0) == 1
    assert varint_size(63) == 1
    assert varint_size(64) == 2
    assert varint_size(-5) == 1
    assert varint_size(10**6) >= 3


def test_differential_encoding_saves_space_on_correlated_ids():
    id_lists = [tuple(range(start, start + 8)) for start in range(1000, 2000, 8)]
    ratio = compression_ratio(id_lists)
    assert ratio < 0.75  # the paper reports roughly 30% savings
    assert raw_size_bytes(id_lists[0]) > encoded_size_bytes(id_lists[0])


def test_prune_idlist_replaces_with_none():
    assert prune_idlist((1, 5, 6, 7), keep_positions=[2]) == (None, None, 6, None)


def test_present_ids_filters_pruned_nulls_for_sizing():
    pruned = prune_idlist((1, 5, 9), keep_positions=(0, 2))
    assert pruned == (1, None, 9)
    assert present_ids(pruned) == [1, 9]
    # Sizing a pruned list must go through the filter: NULL slots occupy
    # no id storage, and the varint coder cannot encode None at all.
    assert encoded_size_bytes(present_ids(pruned)) == encoded_size_bytes((1, 9))
    assert raw_size_bytes(present_ids(pruned)) == raw_size_bytes((1, 9))
    assert present_ids((4, 2)) == [4, 2]
    assert present_ids(()) == []


# ----------------------------------------------------------------------
# 4-ary relation enumeration (Section 3.1, Figures 2/4/5)
# ----------------------------------------------------------------------
def test_rootpaths_rows_include_prefixes_and_values(book_xmldb):
    rows = list(iter_rootpaths_rows(book_xmldb))
    by_key = {(r.schema_path, r.leaf_value) for r in rows}
    assert (("book",), None) in by_key
    assert (("book", "title"), None) in by_key
    assert (("book", "title"), "XML") in by_key
    assert (("book", "allauthors", "author", "fn"), "jane") in by_key
    # Rooted rows carry the full IdList starting at the document root.
    title_row = next(r for r in rows if r.schema_path == ("book", "title") and r.leaf_value == "XML")
    assert title_row.id_list[0] == book_xmldb.documents[0].root.node_id
    assert len(title_row.id_list) == 2
    assert title_row.head_id == VIRTUAL_ROOT_ID


def test_datapaths_rows_cover_all_subpaths(book_xmldb):
    rows = list(iter_datapaths_rows(book_xmldb))
    author = next(n for n in book_xmldb.iter_by_label("author"))
    fn = author.structural_children()[0]
    # A row headed at the author covering author -> fn must exist.
    matching = [
        r
        for r in rows
        if r.head_id == author.node_id and r.schema_path == ("author", "fn") and r.leaf_value == "jane"
    ]
    assert len(matching) == 1
    assert matching[0].id_list == (fn.node_id,)
    # Virtual-root rows duplicate the rooted rows.
    assert any(r.head_id == VIRTUAL_ROOT_ID and r.schema_path == ("book",) for r in rows)


def test_row_counts_relationship(book_xmldb):
    rootpaths = len(list(iter_rootpaths_rows(book_xmldb)))
    datapaths = len(list(iter_datapaths_rows(book_xmldb)))
    # DATAPATHS stores all subpaths, strictly more rows than the rooted prefixes.
    assert datapaths > rootpaths


def test_distinct_schema_paths(book_xmldb):
    paths = distinct_schema_paths(book_xmldb)
    assert ("book", "allauthors", "author", "ln") in paths
    assert len(paths) == 11
    assert len(set(paths)) == len(paths)


def test_path_row_tail_id(book_xmldb):
    for row in iter_rootpaths_rows(book_xmldb):
        assert row.tail_id == row.id_list[-1]


# ----------------------------------------------------------------------
# Lossy compression helpers (Sections 4.2 / 4.3)
# ----------------------------------------------------------------------
def test_schema_path_dictionary_interning():
    dictionary = SchemaPathDictionary()
    first = dictionary.intern(("a", "b"))
    assert dictionary.intern(("a", "b")) == first
    assert dictionary.intern(("a", "c")) == first + 1
    assert dictionary.id_of(("a", "b")) == first
    assert dictionary.id_of(("z",)) is None
    assert dictionary.path_of(first) == ("a", "b")
    assert ("a", "b") in dictionary
    assert len(dictionary) == 2
    assert dictionary.estimated_size_bytes() > 0


def test_headid_pruner_from_workload():
    twigs = [
        parse_xpath("/site[people/person/name='x']/open_auctions/open_auction[@increase='1']"),
        parse_xpath("/dblp/inproceedings/year[.='1998']"),
    ]
    pruner = HeadIdPruner.from_workload(twigs)
    assert pruner.keeps_label("site")
    assert pruner.keeps_label("open_auction")
    assert pruner.keeps_label("dblp")
    assert not pruner.keeps_label("mailbox")
