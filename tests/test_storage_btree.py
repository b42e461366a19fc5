"""Unit and property tests for the B+-tree access method."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BPlusTree, StatsCollector, encode_key
from repro.storage.btree import _Internal, _Leaf


def make_tree(order=8, stats=None):
    return BPlusTree(order=order, stats=stats or StatsCollector())


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


def test_duplicate_keys_are_all_returned():
    tree = make_tree(order=4)
    for i in range(50):
        tree.insert(encode_key(("dup",)), i)
    tree.insert(encode_key(("other",)), "x")
    assert sorted(tree.search(encode_key(("dup",)))) == list(range(50))


def test_duplicates_spanning_many_leaves_found_from_first():
    """Regression test: reads must descend to the *first* duplicate."""
    tree = make_tree(order=4)
    for i in range(200):
        tree.insert(encode_key(("k", i % 3)), i)
    found = tree.search(encode_key(("k", 1)))
    assert sorted(found) == [i for i in range(200) if i % 3 == 1]


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


def test_scan_range_and_scan_all():
    tree = make_tree(order=5)
    for i in range(40):
        tree.insert(encode_key((i,)), i)
    ranged = [v for _k, v in tree.scan_range(encode_key((10,)), encode_key((20,)))]
    assert ranged == list(range(10, 20))
    inclusive = [v for _k, v in tree.scan_range(encode_key((10,)), encode_key((20,)), include_high=True)]
    assert inclusive == list(range(10, 21))
    assert [v for _k, v in tree.scan_all()] == list(range(40))


def test_delete_specific_value_and_all():
    tree = make_tree(order=4)
    for i in range(30):
        tree.insert(encode_key(("k",)), i)
    removed = tree.delete(encode_key(("k",)), value=7)
    assert removed == 1
    assert 7 not in tree.search(encode_key(("k",)))
    removed_all = tree.delete(encode_key(("k",)))
    assert removed_all == 29
    assert tree.search(encode_key(("k",))) == []
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


def test_count_prefix():
    tree = make_tree()
    for i in range(10):
        tree.insert(encode_key(("a", i)), i)
        tree.insert(encode_key(("b", i)), i)
    assert tree.count_prefix(encode_key(("a",))) == 10


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
    for first, second in pairs:
        key = encode_key((first, second))
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
# sorted-dict oracle (the maintenance extension's workload shape).
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
    # Leaf chain: globally non-decreasing keys, every entry reachable.
    chained = [key for leaf in _leaf_chain(tree) for key in leaf.keys]
    assert chained == sorted(chained)
    assert len(chained) == len(tree) == sum(len(vs) for vs in oracle.values())
    # Content: key-by-key multiset equality with the oracle.
    by_key: dict = {}
    for key, value in tree.scan_all():
        by_key.setdefault(key, []).append(value)
    assert {k: sorted(vs) for k, vs in by_key.items()} == {
        k: sorted(vs) for k, vs in oracle.items() if vs
    }


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**30),
    st.integers(min_value=4, max_value=16),
)
def test_churn_against_sorted_dict_oracle(seed, order):
    """Random insert/delete/scan_prefix churn preserves all invariants."""
    rng = random.Random(seed)
    tree = BPlusTree(order=order, stats=StatsCollector())
    oracle: dict = {}
    for step in range(150):
        roll = rng.random()
        first, second = rng.randrange(12), rng.randrange(4)
        key = encode_key((first, second))
        if roll < 0.55 or not any(oracle.values()):
            value = (first, second, step)
            tree.insert(key, value)
            oracle.setdefault(key, []).append(value)
        elif roll < 0.7:
            victims = oracle.get(key, [])
            expected = len(victims)
            assert tree.delete(key) == expected
            oracle[key] = []
        elif roll < 0.8 and oracle.get(key):
            victim = rng.choice(oracle[key])
            assert tree.delete(key, value=victim) == 1
            oracle[key].remove(victim)
        else:
            prefix = encode_key((first,))
            expected = sorted(
                v
                for k, values in oracle.items()
                for v in values
                if k[: len(prefix)] == prefix
            )
            got = sorted(v for _k, v in tree.scan_prefix(prefix))
            assert got == expected
            assert tree.count_prefix(prefix) == len(expected)
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
        tree.insert(encode_key(("k", i % 5)), i)
    stats.reset()
    removed = tree.delete(encode_key(("k", 2)))
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


def test_delete_duplicates_spanning_leaves_removes_them_all():
    """Duplicates crossing several underfull leaves are all found."""
    tree = make_tree(order=4)
    for i in range(60):
        tree.insert(encode_key(("dup",)), i)
    tree.insert(encode_key(("zz",)), "sentinel")
    # Punch holes first so some leaves go underfull (no rebalancing).
    for victim in range(0, 60, 3):
        assert tree.delete(encode_key(("dup",)), value=victim) == 1
    remaining = [i for i in range(60) if i % 3 != 0]
    assert sorted(tree.search(encode_key(("dup",)))) == remaining
    assert tree.delete(encode_key(("dup",))) == len(remaining)
    assert tree.search(encode_key(("dup",))) == []
    assert tree.search(encode_key(("zz",))) == ["sentinel"]


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
            for key, value in batch:
                assert tree.delete(key, value=value) == 1
                oracle[key].remove(value)
        else:
            batch = []
            for _ in range(rng.randrange(1, 25)):
                key = encode_key((rng.randrange(8), rng.randrange(4)))
                value = ("doc", next_id)
                next_id += 1
                tree.insert(key, value)
                oracle.setdefault(key, []).append(value)
                batch.append((key, value))
            live_batches.append(batch)
        probe = encode_key((rng.randrange(8),))
        expected = sorted(
            v
            for k, values in oracle.items()
            for v in values
            if k[: len(probe)] == probe
        )
        assert sorted(v for _k, v in tree.scan_prefix(probe)) == expected
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
    for value in values:
        tree.insert(encode_key((value,)), value)
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
# over the same stably sorted batch leaves.
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

    def random_key():  # duplicate-heavy: 18 distinct keys
        return encode_key((rng.randrange(6), rng.randrange(3)))

    def live_entries():
        return [(key, value) for key, values in oracle.items() for value in values]

    # Unsorted single-entry churn, applied identically to both trees.
    for _ in range(rng.randrange(0, 120)):
        key = random_key()
        if rng.random() < 0.7 or not oracle.get(key):
            value = ("v", next_id)
            next_id += 1
            for tree in (batched, looped):
                tree.insert(key, value)
            oracle.setdefault(key, []).append(value)
        else:
            for tree in (batched, looped):
                tree.delete(key)
            oracle[key] = []
    assert _shape(batched) == _shape(looped)

    for _wave in range(10):
        live = live_entries()
        roll = rng.random()
        if roll < 0.5 or not live:
            batch = []
            for _ in range(rng.randrange(0, 40)):
                batch.append((random_key(), ("v", next_id), "rides along"))
                next_id += 1
            batched.insert_many(batch)
            for key, value, _extra in sorted(batch, key=lambda entry: entry[0]):
                looped.insert(key, value)
            for key, value, _extra in batch:
                oracle.setdefault(key, []).append(value)
        else:
            if roll < 0.65:  # empty whole leaves: every entry under one head
                head = rng.choice(live)[0][0]
                batch = [entry for entry in live if entry[0][0] == head]
            else:
                batch = rng.sample(live, rng.randrange(1, len(live) + 1))
            # ... plus entries that must find nothing: an absent key, a live
            # value under another key, and a repeat of a batch entry.
            batch.append((encode_key((99, 0)), ("v", -1)))
            stray_key, stray_value = rng.choice(live)
            batch.append((encode_key((stray_key[0][1], 7)), stray_value))
            batch.append(batch[0])
            rng.shuffle(batch)
            removed = batched.delete_many(batch)
            expected = []
            for entry in sorted(batch, key=lambda entry: entry[0]):
                expected.extend([entry] * looped.delete(entry[0], value=entry[1]))
            assert sorted(removed) == sorted(expected)
            for key, value in removed:
                oracle[key].remove(value)
        assert _shape(batched) == _shape(looped)
        assert _write_counters(batched) == _write_counters(looped)
        _check_invariants(batched, oracle)


def test_insert_many_is_a_sorted_one_at_a_time_load():
    """The loader's guarantee: the sorted per-entry tree, charged per entry."""
    rng = random.Random(5)
    entries = [(encode_key((rng.randrange(50), rng.randrange(3))), i) for i in range(600)]
    loaded = make_tree(order=8)
    loaded.insert_many(entries)
    reference = make_tree(order=8)
    for key, value in sorted(entries, key=lambda entry: entry[0]):
        reference.insert(key, value)
    assert _shape(loaded) == _shape(reference)
    assert loaded.stats.snapshot() == reference.stats.snapshot()
    assert loaded.stats.btree_writes == 600
    # Equal keys come back in batch order.
    key = entries[0][0]
    assert loaded.search(key) == [v for k, v in entries if k == key]


def test_delete_many_misses_remove_nothing_and_charge_the_probe():
    stats = StatsCollector()
    tree = BPlusTree(order=4, stats=stats)
    for i in range(30):
        tree.insert(encode_key(("k", i % 5)), i)
    before = _shape(tree)
    stats.reset()
    removed = tree.delete_many(
        [
            (encode_key(("absent",)), 1),  # no such key
            (encode_key(("k", 9)), 1),  # no such key, inside the key range
            (encode_key(("k", 2)), 1),  # value 1 is held under ("k", 1)
        ]
    )
    assert removed == []
    assert _shape(tree) == before
    assert stats.btree_deletes == 3  # one probe each, as delete() charges a miss
    assert stats.btree_page_writes == 0
    # The same value under its own key is found, with its extra field.
    assert tree.delete_many([(encode_key(("k", 1)), 1, "extra")]) == [
        (encode_key(("k", 1)), 1, "extra")
    ]
    assert 1 not in tree.search(encode_key(("k", 1)))
