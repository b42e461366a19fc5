"""Property tests pinning the columnar kernels.

Three pins:

* the batch codecs and merge/gallop kernels agree with tiny obvious
  oracles (nested loops, set operations) on random inputs;
* the path interner hands out stable ids, and a twig's compiled plan
  (its placement memos included) survives index rebuilds and document
  churn;
* every strategy's kernel execution returns the answers *and* the
  cost counters of the per-row reference evaluator
  (``tests/oracle_legacy.py``) — the kernels are a pure encoding
  change, not a cost-model change.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import TwigIndexDatabase
from repro.datasets import FIGURE_1_QUERY, book_document
from repro.kernels.columns import (
    NodeColumns,
    PathInterner,
    decode_id_column,
    encode_id_column,
)
from repro.kernels.filter import (
    filter_has_descendant,
    gallop_leftmost,
    intersect_sorted,
)
from repro.kernels.join import CompiledJoin, structural_join
from repro.query.match import ColumnarMatcher, NaiveMatcher
from repro.workloads import (
    max_fanout_star,
    random_corpus,
    random_document,
    random_twig_xpath,
    self_nested_chain,
)

from oracle_legacy import REFERENCE_RUNS, reference_execute


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40)))
@settings(max_examples=50, deadline=None)
def test_id_column_codec_round_trip(values):
    assert list(decode_id_column(encode_id_column(values))) == values


def test_node_columns_ids_match_preorder(book_xmldb):
    columns = NodeColumns(book_xmldb)
    ids = list(columns.ids)
    assert ids == sorted(ids)
    expected = sorted(
        node.node_id
        for document in book_xmldb.documents
        for node in document.root.iter_subtree()
        if node.is_structural
    )
    assert ids == expected


# ----------------------------------------------------------------------
# Gallop / intersect against set oracles
# ----------------------------------------------------------------------
@given(
    st.lists(st.integers(min_value=0, max_value=200), unique=True),
    st.integers(min_value=-5, max_value=220),
)
@settings(max_examples=60, deadline=None)
def test_gallop_leftmost_matches_linear_scan(values, target):
    values.sort()
    expected = next(
        (i for i, v in enumerate(values) if v >= target), len(values)
    )
    assert gallop_leftmost(values, target) == expected


@given(
    st.lists(st.integers(min_value=0, max_value=100), unique=True),
    st.lists(st.integers(min_value=0, max_value=100), unique=True),
)
@settings(max_examples=60, deadline=None)
def test_intersect_sorted_matches_set_intersection(left, right):
    left.sort()
    right.sort()
    assert intersect_sorted(left, right) == sorted(set(left) & set(right))


# ----------------------------------------------------------------------
# Structural join and descendant filter against nested-loop oracles
# ----------------------------------------------------------------------
def _containment_oracle(ancestors, candidates, ids, ends):
    """The 10-line nested-loop definition the kernels must reproduce."""
    kept = []
    for candidate in candidates:
        for ancestor in ancestors:
            if ids[ancestor] < ids[candidate] <= ends[ancestor]:
                kept.append(candidate)
                break
    return kept


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_structural_join_matches_nested_loop_oracle(seed):
    rng = random.Random(seed)
    db = TwigIndexDatabase()
    for document in random_corpus(rng, documents=2):
        db.add_document(document)
    columns = NodeColumns(db.db)
    ids, ends = columns.ids, columns.ends
    positions = range(len(columns))
    for _ in range(25):
        ancestors = sorted(rng.sample(positions, rng.randrange(0, len(columns))))
        candidates = sorted(rng.sample(positions, rng.randrange(0, len(columns))))
        expected = _containment_oracle(ancestors, candidates, ids, ends)
        assert structural_join(ancestors, candidates, ids, ends) == expected
        # filter_has_descendant is the transpose: ancestors that contain
        # at least one candidate.
        expected_bases = [
            b
            for b in ancestors
            if any(ids[b] < ids[c] <= ends[b] for c in candidates)
        ]
        assert (
            filter_has_descendant(ancestors, candidates, ids, ends)
            == expected_bases
        )


def test_structural_join_excludes_self_on_same_tag_chain():
    db = TwigIndexDatabase.from_documents([self_nested_chain(6, tag="a")])
    columns = NodeColumns(db.db)
    everyone = list(range(len(columns)))
    joined = structural_join(everyone, everyone, columns.ids, columns.ends)
    # Every node except the root has a proper ancestor; nobody matches
    # itself even though all intervals share one label.
    assert joined == everyone[1:]


# ----------------------------------------------------------------------
# Interner and compiled-plan stability
# ----------------------------------------------------------------------
def test_path_interner_ids_are_stable():
    interner = PathInterner()
    first = interner.intern(("r", "a"))
    second = interner.intern(("r", "b"))
    assert interner.intern(("r", "a")) == first
    assert interner.id_of(("r", "b")) == second
    assert interner.path_of(first) == ("r", "a")
    assert len(interner) == 2


def test_compiled_twig_survives_rebuild_and_churn():
    rng = random.Random(11)
    db = TwigIndexDatabase()
    for document in random_corpus(rng, documents=2):
        db.add_document(document)
    db.build_index("rootpaths")
    strategy = db.engine.strategy("rootpaths")
    twigs = [
        db.parse(random_twig_xpath(rng, db.db.documents)) for _ in range(10)
    ]
    for twig in twigs:
        strategy.evaluate(twig)
    compiled = [twig.compiled[False] for twig in twigs]
    # Full index rebuild plus churn: the plans are functions of the
    # twig alone, so a fresh strategy instance over the rebuilt index
    # runs the very same compiled objects and still answers correctly.
    db.add_document(random_document(rng, "later"))
    db.build_index("rootpaths")
    rebuilt = db.engine.strategy("rootpaths")
    for twig, plan in zip(twigs, compiled):
        assert rebuilt.evaluate(twig) == NaiveMatcher(db.db).match_ids(twig)
        assert twig.compiled == {False: plan}
        assert plan.analysis is twig.analysis


# ----------------------------------------------------------------------
# Kernels vs the per-row reference: identical answers AND cost counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [101, 202, 303])
def test_kernels_match_the_reference_answers_and_counters(seed):
    rng = random.Random(seed)
    corpus = random_corpus(rng, documents=2)
    database = TwigIndexDatabase()
    for document in corpus:
        database.add_document(document)
    queries = [random_twig_xpath(rng, corpus) for _ in range(15)]
    for strategy, options in REFERENCE_RUNS:
        for xpath in queries:
            result = database.query(xpath, strategy=strategy, **options)
            reference = reference_execute(database, xpath, strategy, **options)
            assert (result.ids, result.cost) == reference, (strategy, options, xpath)


def test_reference_check_catches_a_planted_counter_regression(monkeypatch):
    # One extra tuples_produced charge in the compiled join leaves every
    # answer right: only the cost-dict half of the check can see it.
    database = TwigIndexDatabase.from_documents([book_document()])
    xpath = FIGURE_1_QUERY
    for strategy in ("rootpaths", "edge"):
        result = database.query(xpath, strategy=strategy)
        assert (result.ids, result.cost) == reference_execute(database, xpath, strategy)
    real_run = CompiledJoin.run

    def overcharging_run(self, rows_by_relation, stats):
        ids = real_run(self, rows_by_relation, stats)
        stats.tuples_produced += 1
        return ids

    monkeypatch.setattr(CompiledJoin, "run", overcharging_run)
    for strategy in ("rootpaths", "edge"):
        result = database.query(xpath, strategy=strategy)
        ids, cost = reference_execute(database, xpath, strategy)
        assert result.ids == ids, strategy
        assert result.cost["tuples_produced"] == cost["tuples_produced"] + 1, strategy


# ----------------------------------------------------------------------
# Columnar matcher against the naive oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [17, 29])
def test_columnar_matcher_agrees_with_naive(seed):
    rng = random.Random(seed)
    db = TwigIndexDatabase()
    for document in random_corpus(rng):
        db.add_document(document)
    db.add_document(max_fanout_star(12, name="star-2"))
    naive = NaiveMatcher(db.db)
    columnar = ColumnarMatcher(db.db)
    for _ in range(40):
        twig = db.parse(random_twig_xpath(rng, db.db.documents))
        assert columnar.match_ids(twig) == naive.match_ids(twig)
