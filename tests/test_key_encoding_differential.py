"""Same-tree differential: byte keys against tagged-tuple keys.

``BPlusTree`` only ever compares keys, and the byte encoding of
``repro.storage.keys`` promises that byte order is component order.  So
a reference tree that stores each key's :func:`split_key` tuple — the
``(0,)`` / ``(1, int)`` / ``(2, str)`` components the tree was keyed on
before keys became bytes — must end every operation with the same
nodes, separators, leaf chain, size, height, counters and modelled
size as the tree the indexes really use.

A row key's reference tuple is its logical components, the empty
tuple (the terminator, which sorts below every component) and what
follows it — the tail id, and for the join index's forward tree the
leaf value.  The reference converts at the tree's edge only: keys go in
as tuples and come out of scans as bytes again, so the indexes run
unchanged on top of it.  Every B+-tree-backed index is checked under
build plus add / remove / replace churn on the fuzz seeds, first index
by index (with the DATAPATHS options that change its keys) and then end
to end through the engine, where every strategy's answers and cost
dicts must agree as well.  After the build and after every write step,
no index tree may hold a duplicate key: its leaf chain strictly
increases (:func:`assert_unique_keys`).
"""

from __future__ import annotations

import contextlib
import random
from typing import Iterator
from unittest import mock

import pytest

from repro import TwigIndexDatabase
from repro.indexes import (
    AccessSupportRelationsIndex,
    DataGuideIndex,
    DataPathsIndex,
    EdgeIndex,
    IndexFabricIndex,
    JoinIndicesIndex,
    RootPathsIndex,
)
from repro.paths import HeadIdPruner
from repro.planner import DEFAULT_STRATEGIES
from repro.storage import BPlusTree, StatsCollector, encode_key, exact_prefix, split_key
from repro.storage import btree as btree_module
from repro.workloads import clone_document, random_churn_ops, random_corpus, random_twig_xpath
from repro.xmltree import XmlDatabase

SEEDS = [0, 1, 2]

INDEX_CONFIGS = {
    "rootpaths": lambda stats: RootPathsIndex(stats=stats, order=6),
    "datapaths": lambda stats: DataPathsIndex(stats=stats, order=6),
    "datapaths-pruned": lambda stats: DataPathsIndex(
        stats=stats, order=6, head_pruner=HeadIdPruner({"a", "r"})
    ),
    "datapaths-dictionary": lambda stats: DataPathsIndex(
        stats=stats, order=6, schema_path_dictionary=True
    ),
    "dataguide": lambda stats: DataGuideIndex(stats=stats, order=4),
    "edge": lambda stats: EdgeIndex(stats=stats, order=6),
    "index_fabric": lambda stats: IndexFabricIndex(stats=stats, order=6),
    "asr": lambda stats: AccessSupportRelationsIndex(stats=stats, order=4),
    "join_index": lambda stats: JoinIndicesIndex(stats=stats, order=4),
}

#: Index modules that construct trees by the module-level name.
_TREE_USERS = ("base", "edge", "index_fabric", "asr", "join_index")


def _encode(parts) -> bytes:
    return encode_key(part[1] if part[0] else None for part in parts)


def _as_tuple(key):
    if isinstance(key, tuple):
        return key
    logical = split_key(key)
    rest = key[len(_encode(logical)) :]  # the terminator and the row id
    return logical + (((),) + split_key(rest[1:]) if rest else ())


def _as_bytes(key) -> bytes:
    if () not in key:
        return _encode(key)
    cut = key.index(())
    return exact_prefix(_encode(key[:cut])) + _encode(key[cut + 1 :])


def _logical(key):
    """What ``split_key`` returns for either key form."""
    key = _as_tuple(key)
    return key[: key.index(())] if () in key else key


class _TupleKeyTree(BPlusTree):
    """The same tree keyed on ``split_key`` tuples instead of bytes."""

    def insert(self, key, value):
        super().insert(_as_tuple(key), value)

    def insert_many(self, entries):
        super().insert_many((_as_tuple(entry[0]), *entry[1:]) for entry in entries)

    def delete(self, key, value=None):
        return super().delete(_as_tuple(key), value)

    def delete_many(self, entries):
        found = super().delete_many(
            (_as_tuple(entry[0]), *entry[1:]) for entry in entries
        )
        return [(_as_bytes(entry[0]), *entry[1:]) for entry in found]

    def delete_range(self, low, high):
        return super().delete_range(_as_tuple(low), _as_tuple(high))

    def search(self, key):
        return super().search(_as_tuple(key))

    def scan_prefix(self, prefix):
        for key, value in super().scan_prefix(_as_tuple(prefix)):
            yield _as_bytes(key), value

    def scan_prefix_items(self, prefix):
        return [
            (_as_bytes(key), value)
            for key, value in super().scan_prefix_items(_as_tuple(prefix))
        ]

    def scan_all(self):
        for key, value in super().scan_all():
            yield _as_bytes(key), value


@pytest.fixture(autouse=True)
def _size_model_reads_both_key_forms():
    """``estimated_size_bytes`` reads logical keys of both key forms."""
    with mock.patch.object(btree_module, "split_key", _logical):
        yield


@contextlib.contextmanager
def _reference_trees() -> Iterator[None]:
    """Every tree an index constructs inside the block is a reference tree."""
    with contextlib.ExitStack() as stack:
        for name in _TREE_USERS:
            module = __import__(f"repro.indexes.{name}", fromlist=["BPlusTree"])
            stack.enter_context(mock.patch.object(module, "BPlusTree", _TupleKeyTree))
        yield


def _shape(node) -> tuple:
    """A node and everything below it, with every key as its tuple."""
    keys = tuple(_as_tuple(key) for key in node.keys)
    if hasattr(node, "children"):
        return ("internal", keys, tuple(_shape(child) for child in node.children))
    return ("leaf", keys, tuple(node.values))


def _leaf_chain(tree: BPlusTree) -> list[tuple]:
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    chain = []
    while node is not None:
        chain.append((tuple(_as_tuple(key) for key in node.keys), tuple(node.values)))
        node = node.next
    return chain


def _trees(obj, path: str) -> Iterator[tuple[str, BPlusTree]]:
    """Every tree an index holds, under a stable attribute path."""
    if isinstance(obj, BPlusTree):
        yield path, obj
    elif isinstance(obj, dict):
        for name, value in obj.items():
            yield from _trees(value, f"{path}[{name!r}]")
    elif type(obj).__module__.startswith("repro.indexes"):
        for name, value in vars(obj).items():
            if name not in ("db", "stats"):
                yield from _trees(value, f"{path}.{name}")


def assert_unique_keys(index) -> None:
    """No tree of ``index`` holds a duplicate key: each leaf chain strictly
    increases."""
    for path, tree in _trees(index, "index"):
        node = tree._root
        while hasattr(node, "children"):
            node = node.children[0]
        keys = []
        while node is not None:
            keys.extend(node.keys)
            node = node.next
        assert all(a < b for a, b in zip(keys, keys[1:])), path


def _assert_same_trees(actual, reference) -> None:
    actual_trees = dict(_trees(actual, "index"))
    reference_trees = dict(_trees(reference, "index"))
    assert list(actual_trees) == list(reference_trees)
    assert actual_trees, "the index holds no B+-tree"
    for path, tree in actual_trees.items():
        other = reference_trees[path]
        assert type(tree) is BPlusTree and type(other) is _TupleKeyTree, path
        assert len(tree) == len(other), path
        assert tree.height == other.height, path
        assert _shape(tree._root) == _shape(other._root), path
        assert _leaf_chain(tree) == _leaf_chain(other), path
        assert tree.estimated_size_bytes() == other.estimated_size_bytes(), path
    assert actual.estimated_size_bytes() == reference.estimated_size_bytes()


@pytest.mark.parametrize("config", sorted(INDEX_CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_byte_keys_build_and_maintain_the_tuple_keyed_tree(config, seed):
    rng = random.Random(seed)
    db = XmlDatabase()
    for document in random_corpus(rng, documents=4):
        db.add_document(document)
    actual = INDEX_CONFIGS[config](StatsCollector()).build(db)
    with _reference_trees():
        reference = INDEX_CONFIGS[config](StatsCollector()).build(db)
    _assert_same_trees(actual, reference)
    assert actual.stats.snapshot() == reference.stats.snapshot()
    assert_unique_keys(actual)

    for round_number in range(4):
        live = [document.name for document in db.documents]
        for op, name, document in random_churn_ops(
            rng, live, operations=3, name_prefix=f"round{round_number}"
        ):
            if op != "add":  # remove, replace and move all start by removing
                removed = db.remove_document(name)
                actual.remove(db, removed)
                with _reference_trees():
                    reference.remove(db, removed)
            if document is not None:
                added = db.add_document(document)
                actual.update(db, added)
                with _reference_trees():
                    reference.update(db, added)
            assert_unique_keys(actual)
        _assert_same_trees(actual, reference)
        assert actual.stats.snapshot() == reference.stats.snapshot()


def _apply(target: TwigIndexDatabase, op: str, name: str, document) -> None:
    if op == "add":
        target.add_document(clone_document(document))
    elif op == "remove":
        target.remove_document(name)
    elif op == "replace":
        target.replace_document(name, clone_document(document))
    else:  # move: remove plus an add under a fresh name
        target.remove_document(name)
        target.add_document(clone_document(document))


@pytest.mark.parametrize("seed", SEEDS)
def test_byte_keys_answer_and_charge_every_strategy_like_tuple_keys(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, documents=4)
    actual = TwigIndexDatabase()
    reference = TwigIndexDatabase()
    for document in corpus:
        actual.add_document(clone_document(document))
        with _reference_trees():
            reference.add_document(clone_document(document))
    actual.build_all_indexes()
    with _reference_trees():
        reference.build_all_indexes()
    for index in actual.indexes.values():
        assert_unique_keys(index)

    for stage in range(3):
        documents = list(actual.db.documents)
        for _ in range(8):
            xpath = random_twig_xpath(rng, documents)
            for strategy in DEFAULT_STRATEGIES:
                got = actual.query(xpath, strategy=strategy)
                with _reference_trees():
                    expected = reference.query(xpath, strategy=strategy)
                assert (got.ids, got.cost) == (expected.ids, expected.cost), (
                    xpath,
                    strategy,
                )
        live = [document.name for document in documents]
        for op, name, document in random_churn_ops(
            rng, live, operations=3, name_prefix=f"stage{stage}"
        ):
            _apply(actual, op, name, document)
            with _reference_trees():
                _apply(reference, op, name, document)
            for index in actual.indexes.values():
                assert_unique_keys(index)

    assert sorted(actual.indexes) == sorted(reference.indexes)
    for name, index in actual.indexes.items():
        _assert_same_trees(index, reference.indexes[name])
    assert actual.stats.snapshot() == reference.stats.snapshot()
    assert actual.index_sizes_mb() == reference.index_sizes_mb()
