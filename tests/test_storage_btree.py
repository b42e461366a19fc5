"""Unit and property tests for the B+-tree access method.

Stored keys are unique row keys (:func:`~repro.storage.keys.row_key`):
a logical key plus a row id.  The rows of one logical key are the
prefix scan of :func:`~repro.storage.keys.exact_prefix`, in id order,
and may span many leaves.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BPlusTree, StatsCollector, decode_key, encode_key, exact_prefix, row_key
from repro.storage.btree import _Internal, _Leaf


def make_tree(order=8, stats=None):
    return BPlusTree(order=order, stats=stats or StatsCollector())


def rows(tree, components) -> list:
    """Values of the rows of one logical key, in id order."""
    return [value for _key, value in tree.scan_prefix(exact_prefix(encode_key(components)))]


def test_order_must_be_reasonable():
    with pytest.raises(StorageError):
        BPlusTree(order=2)


def test_insert_and_exact_search():
    tree = make_tree()
    for i in range(100):
        tree.insert(encode_key((i,)), f"v{i}")
    assert len(tree) == 100
    assert tree.search(encode_key((42,))) == ["v42"]
    assert tree.search(encode_key((1000,))) == []


def test_rows_of_one_logical_key_are_all_returned():
    tree = make_tree(order=4)
    for i in range(50):
        tree.insert(row_key(encode_key(("dup",)), i), i)
    tree.insert(row_key(encode_key(("other",)), 0), "x")
    assert rows(tree, ("dup",)) == list(range(50))


def test_rows_spanning_many_leaves_found_from_first():
    """Regression test: a key's prefix scan must descend to its *first* row."""
    tree = make_tree(order=4)
    for i in range(200):
        tree.insert(row_key(encode_key(("k", i % 3)), i), i)
    assert rows(tree, ("k", 1)) == [i for i in range(200) if i % 3 == 1]


def test_prefix_scan_returns_exactly_prefixed_entries():
    tree = make_tree(order=6)
    for value in ("jane", "john", None):
        for path in ((5, 4), (5, 9), (7, 4)):
            tree.insert(encode_key((value, *path)), (value, path))
    results = [payload for _k, payload in tree.scan_prefix(encode_key(("jane", 5)))]
    assert sorted(results) == [("jane", (5, 4)), ("jane", (5, 9))]
    # None (NULL leaf value) is a distinct prefix.
    none_results = list(tree.scan_prefix(encode_key((None,))))
    assert len(none_results) == 3


def test_scan_all_returns_every_entry_in_key_order():
    tree = make_tree(order=5)
    for i in reversed(range(40)):
        tree.insert(encode_key((i,)), i)
    assert [v for _k, v in tree.scan_all()] == list(range(40))


def test_delete_one_row_and_all_rows_of_a_key():
    tree = make_tree(order=4)
    for i in range(30):
        tree.insert(row_key(encode_key(("k",)), i), i)
    assert tree.delete(row_key(encode_key(("k",)), 7)) == 1
    assert 7 not in rows(tree, ("k",))
    remaining = list(tree.scan_prefix(exact_prefix(encode_key(("k",)))))
    assert len(tree.delete_many(remaining)) == 29
    assert rows(tree, ("k",)) == []
    assert len(tree) == 0


def test_stats_count_node_reads_and_lookups():
    stats = StatsCollector()
    tree = make_tree(order=4, stats=stats)
    for i in range(200):
        tree.insert(encode_key((i,)), i)
    stats.reset()
    tree.search(encode_key((150,)))
    assert stats.index_lookups == 1
    assert stats.btree_node_reads >= tree.height
    assert stats.btree_entries_scanned >= 1


def test_estimated_size_with_and_without_prefix_compression():
    tree = make_tree(order=16)
    for i in range(500):
        tree.insert(encode_key(("shared-prefix", i)), i)
    raw = tree.estimated_size_bytes(prefix_compression=False)
    compressed = tree.estimated_size_bytes(prefix_compression=True)
    assert 0 < compressed < raw


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=5)),
        max_size=300,
    ),
    st.integers(min_value=4, max_value=32),
)
def test_against_sorted_list_reference(pairs, order):
    """Property: search and ordered iteration agree with a sorted list."""
    tree = BPlusTree(order=order, stats=StatsCollector())
    reference: list[tuple] = []
    for row_id, (first, second) in enumerate(pairs):
        key = row_key(encode_key((first, second)), row_id)
        tree.insert(key, (first, second))
        reference.append((key, (first, second)))
    reference.sort(key=lambda kv: kv[0])
    assert [v for _k, v in tree.scan_all()] == [v for _k, v in reference]
    for probe in {p[0] for p in pairs} | {99}:
        prefix = encode_key((probe,))
        expected = sorted(v for k, v in reference if k[: len(prefix)] == prefix)
        got = sorted(v for _k, v in tree.scan_prefix(prefix))
        assert got == expected


# ----------------------------------------------------------------------
# Churn: random interleaved insert / delete / scan_prefix against a
# dict oracle of row keys (the maintenance extension's workload shape).
# ----------------------------------------------------------------------
def _leaf_chain(tree: BPlusTree) -> list[_Leaf]:
    """The leaf linked list, reached by descending leftmost pointers."""
    node = tree._root
    while isinstance(node, _Internal):
        node = node.children[0]
    leaves = []
    while node is not None:
        leaves.append(node)
        node = node.next
    return leaves


def _leaf_depths(tree: BPlusTree) -> set[int]:
    """Depths of every leaf reached through the internal structure."""
    depths: set[int] = set()
    stack = [(tree._root, 1)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, _Leaf):
            depths.add(depth)
        else:
            stack.extend((child, depth + 1) for child in node.children)
    return depths


def _check_invariants(tree: BPlusTree, oracle: dict) -> None:
    """Structural invariants the churn test enforces after every op."""
    # Height: every leaf sits at the same depth, equal to the reported
    # height (entry deletes never rebalance, but must not skew depths).
    assert _leaf_depths(tree) == {tree.height}
    # Leaf chain: strictly increasing keys, every entry reachable.
    chained = [key for leaf in _leaf_chain(tree) for key in leaf.keys]
    assert all(a < b for a, b in zip(chained, chained[1:]))
    assert len(chained) == len(tree) == len(oracle)
    # Content: the oracle's ``row key -> value`` map.
    assert dict(tree.scan_all()) == oracle


def _rows_of(oracle: dict, components) -> list:
    """The oracle's row keys of one logical key."""
    prefix = exact_prefix(encode_key(components))
    return [key for key in oracle if key.startswith(prefix)]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=4, max_value=16),
)
def test_churn_against_sorted_dict_oracle(seed, order):
    """Random insert/delete/delete_range/scan_prefix churn preserves all
    invariants."""
    rng = random.Random(seed)
    tree = BPlusTree(order=order, stats=StatsCollector())
    oracle: dict = {}
    for step in range(150):
        roll = rng.random()
        first, second = rng.randrange(12), rng.randrange(4)
        victims = _rows_of(oracle, (first, second))
        if roll < 0.55 or not oracle:
            key = row_key(encode_key((first, second)), step)
            tree.insert(key, (first, second, step))
            oracle[key] = (first, second, step)
        elif roll < 0.65:
            # Every row of one logical key, plus one absent row.
            absent = row_key(encode_key((first, second)), -1)
            removed = tree.delete_many([(key,) for key in victims] + [(absent,)])
            assert sorted(removed) == [(key,) for key in sorted(victims)]
            for key in victims:
                del oracle[key]
        elif roll < 0.75 and victims:
            victim = rng.choice(victims)
            assert tree.delete(victim) == 1
            assert tree.delete(victim) == 0
            del oracle[victim]
        elif roll < 0.82:
            # A whole-head slice, as a document removal cuts its id span.
            low = encode_key((first,))
            high = encode_key((first + rng.randrange(0, 4),))
            in_range = [k for k in oracle if low <= k < high]
            assert tree.delete_range(low, high) == len(in_range)
            for k in in_range:
                del oracle[k]
        else:
            prefix = encode_key((first,))
            expected = [oracle[k] for k in sorted(oracle) if k.startswith(prefix)]
            assert [v for _k, v in tree.scan_prefix(prefix)] == expected
        _check_invariants(tree, oracle)


def test_delete_charges_page_writes_and_delete_counter():
    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    for i in range(20):
        tree.insert(encode_key(("k", i)), i)
    stats.reset()
    assert tree.delete(encode_key(("k", 3))) == 1
    assert stats.btree_page_writes >= 1
    assert stats.btree_deletes == 1
    assert stats.btree_writes == 0  # inserts charge writes, deletes don't


def test_delete_miss_still_charges_probe_work():
    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    for i in range(10):
        tree.insert(encode_key(("k", i)), i)
    stats.reset()
    assert tree.delete(encode_key(("absent",))) == 0
    # A miss charges the (floored) per-call delete work but no page write.
    assert stats.btree_deletes == 1
    assert stats.btree_page_writes == 0


def test_delete_counts_in_maintenance_cost_currency():
    from repro.storage.stats import maintenance_cost

    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    for i in range(30):
        tree.insert(row_key(encode_key(("k", i % 5)), i), i)
    victims = list(tree.scan_prefix(exact_prefix(encode_key(("k", 2)))))
    stats.reset()
    removed = len(tree.delete_many(victims))
    assert removed == 6
    cost = maintenance_cost(stats.snapshot())
    # Page-granular leaf writes at weight 10 plus per-entry delete work.
    assert cost == 10 * stats.btree_page_writes + stats.btree_deletes
    assert cost > 0


def test_delete_emptying_every_leaf_keeps_tree_usable():
    """Deleting everything leaves a multi-level skeleton that still works."""
    tree = make_tree(order=4)
    for i in range(100):
        tree.insert(encode_key((i,)), i)
    assert tree.height > 1
    for i in range(100):
        assert tree.delete(encode_key((i,))) == 1
    assert len(tree) == 0
    assert tree.search(encode_key((50,))) == []
    assert list(tree.scan_all()) == []
    # The emptied tree accepts fresh inserts and answers correctly.
    for i in range(40):
        tree.insert(encode_key((i,)), f"new{i}")
    assert tree.search(encode_key((7,))) == ["new7"]
    assert [v for _k, v in tree.scan_all()] == [f"new{i}" for i in range(40)]


def test_delete_rows_spanning_leaves_removes_them_all():
    """Rows of one key crossing several underfull leaves are all found."""
    tree = make_tree(order=4)
    dup = encode_key(("dup",))
    for i in range(60):
        tree.insert(row_key(dup, i), i)
    tree.insert(row_key(encode_key(("zz",)), 0), "sentinel")
    # Punch holes first so some leaves go underfull (no rebalancing).
    for victim in range(0, 60, 3):
        assert tree.delete(row_key(dup, victim)) == 1
    remaining = [i for i in range(60) if i % 3 != 0]
    assert rows(tree, ("dup",)) == remaining
    assert len(tree.delete_many([(row_key(dup, i),) for i in reversed(range(60))])) == len(remaining)
    assert rows(tree, ("dup",)) == []
    assert rows(tree, ("zz",)) == ["sentinel"]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=4, max_value=12),
)
def test_delete_then_reinsert_churn_against_dict_oracle(seed, order):
    """Remove-document-shaped churn: bulk deletes then reinsertion waves.

    Models the maintenance extension's actual access pattern — a
    document removal deletes a contiguous batch of (key, payload)
    entries, a replacement reinserts a similar batch — interleaved with
    prefix scans, against a dict oracle, with structural invariants
    checked after every wave.
    """
    rng = random.Random(seed)
    tree = BPlusTree(order=order, stats=StatsCollector())
    oracle: dict = {}
    next_id = 0
    live_batches: list[list[tuple]] = []
    for _wave in range(12):
        if live_batches and rng.random() < 0.45:
            batch = live_batches.pop(rng.randrange(len(live_batches)))
            for key, _value in batch:
                assert tree.delete(key) == 1
                del oracle[key]
        else:
            batch = []
            for _ in range(rng.randrange(1, 25)):
                key = row_key(encode_key((rng.randrange(8), rng.randrange(4))), next_id)
                value = ("doc", next_id)
                next_id += 1
                tree.insert(key, value)
                oracle[key] = value
                batch.append((key, value))
            live_batches.append(batch)
        probe = encode_key((rng.randrange(8),))
        expected = [oracle[k] for k in sorted(oracle) if k.startswith(probe)]
        assert [v for _k, v in tree.scan_prefix(probe)] == expected
        _check_invariants(tree, oracle)


def test_insert_charges_page_writes_for_leaf_and_splits():
    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    tree.insert(encode_key((0,)), 0)
    assert stats.btree_page_writes == 1  # just the leaf
    before = stats.btree_page_writes
    for i in range(1, 5):
        tree.insert(encode_key((i,)), i)
    # The 5th entry overflows the order-4 leaf: new right leaf + new root.
    assert tree.height == 2
    assert stats.btree_page_writes == before + 4 + 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=400))
def test_height_stays_logarithmic(values):
    tree = BPlusTree(order=8, stats=StatsCollector())
    for row_id, value in enumerate(values):
        tree.insert(row_key(encode_key((value,)), row_id), value)
    # A generous logarithmic bound: order-8 tree of n entries.
    n = len(values)
    bound = 2
    capacity = 8
    while capacity < n:
        capacity *= 4
        bound += 1
    assert tree.height <= bound


# ----------------------------------------------------------------------
# Batch mutators: one finger pass must leave what the per-entry loop
# over the same sorted batch leaves.
# ----------------------------------------------------------------------
def _shape(tree: BPlusTree):
    """Leaf-for-leaf contents (emptied leaves included), height, size."""
    leaves = [(list(leaf.keys), list(leaf.values)) for leaf in _leaf_chain(tree)]
    return leaves, tree.height, len(tree)


def _write_counters(tree: BPlusTree) -> dict:
    snapshot = tree.stats.snapshot()
    return {
        name: snapshot[name]
        for name in ("btree_writes", "btree_deletes", "btree_page_writes")
    }


def _entries(tree: BPlusTree) -> list[tuple]:
    """Every ``(key, value)`` in chain order, read without charging."""
    return [
        entry for leaf in _leaf_chain(tree) for entry in zip(leaf.keys, leaf.values)
    ]


def _range_key(first):
    return encode_key((first,))


def _inside_one_leaf(tree):
    leaf = next(leaf for leaf in _leaf_chain(tree) if len(leaf.keys) >= 3)
    return [(leaf.keys[1], leaf.keys[-1])]


#: ``delete_range`` cases: a function of the loaded tree giving the
#: ``(low, high)`` bounds to apply one after another.  Tree keys are
#: rows of ``(k, 0 | 1)`` with 1 + k % 7 rows under each ``k`` (so no
#: logical bound is a stored key and one logical key holds up to four
#: rows).
RANGE_CASES = {
    "empty": lambda tree: [
        (_range_key(50), _range_key(50)),
        (_range_key(60), _range_key(40)),
        (encode_key((70, 0)), encode_key((70, 0))),
    ],
    "inside-one-leaf": _inside_one_leaf,
    "many-leaves": lambda tree: [(_range_key(40), _range_key(300))],
    "right-edge": lambda tree: [(_range_key(350), _range_key(10**6))],
    "rows-of-one-key-at-both-bounds": lambda tree: [
        (encode_key((6, 0)), encode_key((13, 1))),
        (encode_key((20, 1)), encode_key((27, 0))),
    ],
    "absent-bounds": lambda tree: [
        (_range_key(-5), _range_key(3)),
        (encode_key((100, 7)), encode_key((150, -1))),
        (_range_key(10**6), _range_key(10**7)),
    ],
    "over-emptied-leaves": lambda tree: [
        (_range_key(40), _range_key(300)),
        (_range_key(20), _range_key(320)),
        (_range_key(0), _range_key(10**6)),
    ],
}


@pytest.mark.parametrize("case", sorted(RANGE_CASES))
@pytest.mark.parametrize("order", [4, 128])
def test_delete_range_is_delete_many_over_the_range(case, order):
    """Same leaf chain (emptied leaves kept, no rebalancing), height,
    size and write charges as ``delete_many`` over exactly the entries
    in ``[low, high)``."""
    rng = random.Random(order)
    entries = [
        (row_key(encode_key((first, copy % 2)), copy), (first, copy))
        for first in range(400)
        for copy in range(1 + first % 7)
    ]
    rng.shuffle(entries)
    sliced = BPlusTree(order=order, stats=StatsCollector())
    batched = BPlusTree(order=order, stats=StatsCollector())
    for tree in (sliced, batched):
        for key, value in entries:
            tree.insert(key, value)
    assert _shape(sliced) == _shape(batched)
    for low, high in RANGE_CASES[case](sliced):
        doomed = [entry for entry in _entries(sliced) if low <= entry[0] < high]
        assert sliced.delete_range(low, high) == len(doomed)
        assert len(batched.delete_many(doomed)) == len(doomed)
        assert _shape(sliced) == _shape(batched)
        assert _write_counters(sliced) == _write_counters(batched)
        assert all(not low <= key < high for key, _value in _entries(sliced))
    if case == "empty":
        assert len(sliced) == len(entries)
        assert _write_counters(sliced)["btree_deletes"] == 0
    else:
        assert len(sliced) < len(entries)
    # The sliced tree stays a working tree.
    key = row_key(encode_key((999, 0)), 0)
    sliced.insert(key, "fresh")
    assert sliced.search(key) == ["fresh"]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=4, max_value=16),
)
def test_batch_mutators_match_the_per_entry_loop(seed, order):
    """Random churn, then random batches: tree, size and counters agree."""
    rng = random.Random(seed)
    batched = BPlusTree(order=order, stats=StatsCollector())
    looped = BPlusTree(order=order, stats=StatsCollector())
    oracle: dict = {}
    next_id = 0

    def random_row():  # 18 logical keys, many rows each
        nonlocal next_id
        next_id += 1
        key = row_key(encode_key((rng.randrange(6), rng.randrange(3))), next_id)
        return key, ("v", next_id)

    # Unsorted single-entry churn, applied identically to both trees.
    for _ in range(rng.randrange(0, 120)):
        if rng.random() < 0.7 or not oracle:
            key, value = random_row()
            for tree in (batched, looped):
                tree.insert(key, value)
            oracle[key] = value
        else:
            victim = rng.choice(sorted(oracle))
            for tree in (batched, looped):
                assert tree.delete(victim) == 1
            del oracle[victim]
    assert _shape(batched) == _shape(looped)

    bounds = [encode_key((first,)) for first in range(7)] + [
        encode_key((first, second)) for first in range(7) for second in range(4)
    ]
    for _wave in range(10):
        live = sorted(oracle.items())
        roll = rng.random()
        if roll < 0.15:
            # delete_range: bounds present, absent or prefix-only, and
            # sometimes inverted (an empty range).
            low, high = rng.choice(bounds), rng.choice(bounds)
            doomed = [entry for entry in _entries(batched) if low <= entry[0] < high]
            assert batched.delete_range(low, high) == len(doomed)
            for key, _value in doomed:
                assert looped.delete(key) == 1
                del oracle[key]
        elif roll < 0.55 or not live:
            batch = [(*random_row(), "rides along") for _ in range(rng.randrange(0, 40))]
            batched.insert_many(batch)
            for key, value, _extra in sorted(batch, key=lambda entry: entry[0]):
                looped.insert(key, value)
                oracle[key] = value
        else:
            if roll < 0.65:  # empty whole leaves: every row under one head
                head = decode_key(rng.choice(live)[0])[0]
                batch = [entry for entry in live if decode_key(entry[0])[0] == head]
            else:
                batch = rng.sample(live, rng.randrange(1, len(live) + 1))
            # ... plus entries that must find nothing: an absent key, a live
            # row id under another logical key, and a repeat of a batch entry.
            batch.append((row_key(encode_key((99, 0)), 0), ("v", -1)))
            stray_key, stray_value = rng.choice(live)
            batch.append((row_key(encode_key((decode_key(stray_key)[0], 7)), stray_value[1]), stray_value))
            batch.append(batch[0])
            rng.shuffle(batch)
            removed = batched.delete_many(batch)
            expected = []
            for entry in sorted(batch, key=lambda entry: entry[0]):
                expected.extend([entry] * looped.delete(entry[0]))
            assert sorted(removed) == sorted(expected)
            for key, _value in removed:
                del oracle[key]
        assert _shape(batched) == _shape(looped)
        assert _write_counters(batched) == _write_counters(looped)
        _check_invariants(batched, oracle)


def test_insert_many_is_a_sorted_one_at_a_time_load():
    """The loader's guarantee: the sorted per-entry tree, charged per entry."""
    rng = random.Random(5)
    logical = [encode_key((rng.randrange(50), rng.randrange(3))) for _ in range(600)]
    entries = [(row_key(key, i), i) for i, key in enumerate(logical)]
    rng.shuffle(entries)
    loaded = make_tree(order=8)
    loaded.insert_many(entries)
    reference = make_tree(order=8)
    for key, value in sorted(entries, key=lambda entry: entry[0]):
        reference.insert(key, value)
    assert _shape(loaded) == _shape(reference)
    assert loaded.stats.snapshot() == reference.stats.snapshot()
    assert loaded.stats.btree_writes == 600
    # The rows of one logical key come back in id order.
    key = logical[0]
    found = [v for _k, v in loaded.scan_prefix(exact_prefix(key))]
    assert found == [i for i, other in enumerate(logical) if other == key]


def test_delete_many_misses_remove_nothing_and_charge_the_probe():
    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    for i in range(30):
        tree.insert(row_key(encode_key(("k", i % 5)), i), i)
    before = _shape(tree)
    stats.reset()
    removed = tree.delete_many(
        [
            (row_key(encode_key(("absent",)), 1), 1),  # no such key
            (row_key(encode_key(("k", 9)), 1), 1),  # no such key, inside the key range
            (row_key(encode_key(("k", 2)), 1), 1),  # row 1 is held under ("k", 1)
        ]
    )
    assert removed == []
    assert _shape(tree) == before
    assert stats.btree_deletes == 3  # one probe each, as delete() charges a miss
    assert stats.btree_page_writes == 0
    # The same row under its own key is found, with its extra field.
    key = row_key(encode_key(("k", 1)), 1)
    assert tree.delete_many([(key, 1, "extra")]) == [(key, 1, "extra")]
    assert 1 not in rows(tree, ("k", 1))
