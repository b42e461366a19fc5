"""Integration tests: every evaluation strategy must agree with the oracle.

This is the core correctness property of the reproduction — Section 2.1
defines what a twig match is; the naive matcher implements it directly;
and each of the seven index-based strategies must return exactly the
same output-node ids on every query it supports.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import FIGURE_1_QUERY, book_document
from repro.errors import QueryNotSupportedError
from repro.planner import DEFAULT_STRATEGIES
from repro.query import NaiveMatcher, TwigNode, TwigPattern
from repro.workloads import (
    branch_count_sweep,
    clone_document,
    generate_twig,
    max_fanout_star,
    queries_for_dataset,
    random_corpus,
    random_twig_xpath,
    self_nested_chain,
)
from repro.xmltree import Document, Node, NodeKind, parse_string

from oracle_legacy import REFERENCE_RUNS, reference_execute

BOOK_QUERIES = [
    FIGURE_1_QUERY,
    "/book/title",
    "/book//title",
    "//author[fn='jane']",
    "//author[fn='jane' and ln='doe']",
    "/book/allauthors/author[ln='doe']",
    "/book[title='XML']/year",
    "/book[allauthors/author/fn='john']//section/head",
    "//chapter/section/head",
    "//ln",
    "/book",
    "/book[year='1999']",          # empty result
    "//author[fn='jane']/ln",
    "/book[title='XML'][chapter/title='XML']//author[ln='poe']",
]


@pytest.fixture(scope="module")
def book_engine():
    database = TwigIndexDatabase.from_documents([book_document()])
    database.build_all_indexes()
    return database


@pytest.mark.parametrize("xpath", BOOK_QUERIES)
@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
def test_book_queries_match_oracle(book_engine, strategy, xpath):
    expected = book_engine.oracle(xpath)
    result = book_engine.query(xpath, strategy=strategy)
    assert result.ids == expected, f"{strategy} disagrees on {xpath}"


@pytest.fixture(scope="module")
def xmark_engine():
    from repro.datasets import generate_xmark

    database = TwigIndexDatabase.from_documents([generate_xmark(scale=0.05, seed=3)])
    database.build_all_indexes()
    return database


@pytest.fixture(scope="module")
def dblp_engine():
    from repro.datasets import generate_dblp

    database = TwigIndexDatabase.from_documents([generate_dblp(scale=0.05, seed=3)])
    database.build_all_indexes()
    return database


@pytest.mark.parametrize("workload_query", queries_for_dataset("xmark"), ids=lambda q: q.qid)
@pytest.mark.parametrize("strategy", ("rootpaths", "datapaths", "asr", "join_index"))
def test_xmark_workload_matches_oracle(xmark_engine, strategy, workload_query):
    expected = xmark_engine.oracle(workload_query.xpath)
    result = xmark_engine.query(workload_query.xpath, strategy=strategy)
    assert result.ids == expected, f"{strategy} disagrees on {workload_query.qid}"


@pytest.mark.parametrize(
    "workload_query",
    [q for q in queries_for_dataset("xmark") if q.recursions == 0],
    ids=lambda q: q.qid,
)
@pytest.mark.parametrize("strategy", ("edge", "dataguide_edge", "index_fabric_edge"))
def test_xmark_nonrecursive_workload_edge_strategies(xmark_engine, strategy, workload_query):
    expected = xmark_engine.oracle(workload_query.xpath)
    result = xmark_engine.query(workload_query.xpath, strategy=strategy)
    assert result.ids == expected, f"{strategy} disagrees on {workload_query.qid}"


@pytest.mark.parametrize("workload_query", queries_for_dataset("dblp"), ids=lambda q: q.qid)
@pytest.mark.parametrize("strategy", DEFAULT_STRATEGIES)
def test_dblp_workload_matches_oracle(dblp_engine, strategy, workload_query):
    expected = dblp_engine.oracle(workload_query.xpath)
    result = dblp_engine.query(workload_query.xpath, strategy=strategy)
    assert result.ids == expected, f"{strategy} disagrees on {workload_query.qid}"


def _generated_workload() -> list[str]:
    """A sweep of the randomized workload generator's parameter space."""
    xpaths: list[str] = []
    for selectivity in ("selective", "moderate", "unselective"):
        xpaths.extend(
            generated.xpath for generated in branch_count_sweep(selectivity, max_branches=2)
        )
    xpaths.append(generate_twig(2, ["selective", "unselective"]).xpath)
    xpaths.append(generate_twig(3, ["selective", "moderate", "unselective"]).xpath)
    xpaths.extend(
        generated.xpath
        for generated in branch_count_sweep("unselective", max_branches=2, branch_depth="low")
    )
    xpaths.append(
        generate_twig(
            2,
            ["selective", "unselective"],
            branch_depth="low",
            output_suffix="/time",
        ).xpath
    )
    return xpaths


@pytest.mark.parametrize("xpath", _generated_workload())
def test_generated_workload_every_strategy_and_auto_match_oracle(xmark_engine, xpath):
    # Differential test: the generator's whole parameter space, run
    # through every fixed strategy and the optimizer-driven auto mode.
    expected = xmark_engine.oracle(xpath)
    for strategy in DEFAULT_STRATEGIES + ("auto",):
        result = xmark_engine.query(xpath, strategy=strategy)
        assert result.ids == expected, f"{strategy} disagrees on {xpath}"
    service_result = xmark_engine.service.execute(xpath, strategy="auto")
    assert service_result.ids == expected
    assert service_result.strategy in DEFAULT_STRATEGIES


def test_datapaths_forced_plans_agree(xmark_engine):
    for workload_query in queries_for_dataset("xmark"):
        expected = xmark_engine.oracle(workload_query.xpath)
        merge = xmark_engine.query(workload_query.xpath, strategy="datapaths", force_plan="merge")
        inl = xmark_engine.query(workload_query.xpath, strategy="datapaths", force_plan="inl")
        assert merge.ids == expected
        assert inl.ids == expected


# ----------------------------------------------------------------------
# Deterministic edge cases over the fuzzer's corpus generators.
#
# Each case is a (corpus, queries) pair; queries are (xpath, empty)
# where ``empty`` pins whether the oracle answer must be empty — so the
# edge the case exists for (a query that matches nothing, a bare
# single-node document, a deep same-tag chain) is provably exercised,
# not silently optimized away by a generator change.
# ----------------------------------------------------------------------
def _single_node_corpus():
    return (
        [Document(Node(NodeKind.ELEMENT, "s"), name="solo")],
        [("/s", False), ("//s", False), ("/s[a]", True), ("//a", True)],
    )


def _deep_chain_corpus():
    return (
        [self_nested_chain(12, tag="a", name="chain")],
        [
            ("//a", False),
            ("//a//a//a", False),
            ("/a/a/a", False),
            ("//a[a='v0']", False),
            ("//a[a='v3']", True),
            ("//b", True),
        ],
    )


def _fanout_star_corpus():
    return (
        [max_fanout_star(16, name="star")],
        [
            ("//b", False),
            ("/r/b", False),
            ("/r[b='v1']", False),
            ("//b[c]", True),
            ("/r/b/b", True),
        ],
    )


def _random_fuzz_corpus(seed):
    def build():
        rng = random.Random(seed)
        corpus = random_corpus(rng, documents=3)
        queries = [
            (random_twig_xpath(rng, corpus), None) for _ in range(8)
        ]
        return corpus, queries

    return build


FUZZ_EDGE_CORPORA = {
    "single-node": _single_node_corpus,
    "deep-chain": _deep_chain_corpus,
    "fanout-star": _fanout_star_corpus,
    "fuzz-seed-1": _random_fuzz_corpus(1),
    "fuzz-seed-2": _random_fuzz_corpus(2),
}


@pytest.mark.parametrize("case", sorted(FUZZ_EDGE_CORPORA))
def test_fuzz_corpus_edge_cases_every_strategy_and_auto(case):
    documents, queries = FUZZ_EDGE_CORPORA[case]()
    database = TwigIndexDatabase.from_documents(
        [clone_document(document) for document in documents]
    )
    database.build_all_indexes()
    for xpath, empty in queries:
        expected = database.oracle(xpath)
        if empty is True:
            assert expected == [], f"{case}: {xpath} should be empty"
        elif empty is False:
            assert expected, f"{case}: {xpath} should be non-empty"
        for strategy in DEFAULT_STRATEGIES + ("auto",):
            result = database.query(xpath, strategy=strategy)
            assert result.ids == expected, (
                f"{strategy} disagrees on {xpath} ({case})"
            )


# ----------------------------------------------------------------------
# A value condition on a step that also has children.
#
# A PathQuery carries its leaf's value only, so ``a[. = 'x']`` above
# ``/b`` used to be dropped by every index strategy (ids for both
# ``a``s).  It is now its own valued root-to-step path.
# ----------------------------------------------------------------------
INNER_VALUE_XML = "<r><a>x<b>1</b></a><a>y<b>2</b></a><a>x</a></r>"
INNER_VALUE_QUERIES = {
    "/r/a[. = 'x']/b": [4],
    "/r/a[. = 'x'][b]": [2],
    "//a[. = 'y']/b": [8],
    "/r/a[. = 'y'][b = '2']/b": [8],
    "/r/a[. = 'x'][b = '2']": [],
    "/r[. = 'x']/a": [],
    "/r[a = 'x']/a[. = 'y']/b[. = '2']": [8],
}


@pytest.mark.parametrize("xpath", sorted(INNER_VALUE_QUERIES))
def test_value_on_an_inner_step_is_evaluated_not_dropped(xpath):
    expected = INNER_VALUE_QUERIES[xpath]
    database = TwigIndexDatabase.from_xml(INNER_VALUE_XML)
    database.build_all_indexes()
    assert NaiveMatcher(database.db).match_ids(database.parse(xpath)) == expected
    for strategy, options in REFERENCE_RUNS:
        result = database.query(xpath, strategy=strategy, **options)
        assert result.ids == expected, (strategy, options)
        reference = reference_execute(database, xpath, strategy, **options)
        assert (result.ids, result.cost) == reference, (strategy, options)
    assert database.query(xpath, strategy="auto").ids == expected

    # The sharded tier: the same document on two shards, global ids.
    with ShardedQueryService(num_shards=2, replicas=2, placement="round_robin") as tier:
        for name in ("one", "two"):
            tier.add_document(parse_string(INNER_VALUE_XML, name=name))
        tier.build_index("rootpaths")
        tier.build_index("datapaths")
        oracle = tier.oracle(xpath)
        assert len(oracle) == 2 * len(expected)
        for strategy in ("rootpaths", "datapaths", "auto"):
            assert tier.execute(xpath, strategy=strategy).ids == oracle, strategy


def test_value_on_an_off_trunk_inner_step_is_rejected_not_widened():
    # The grammar cannot write it; a hand-built twig gets a typed error.
    root = TwigNode("r")
    inner = root.add_child(TwigNode("a", value="x"))
    inner.add_child(TwigNode("b"))
    twig = TwigPattern(root, output=root)
    database = TwigIndexDatabase.from_xml(INNER_VALUE_XML)
    with pytest.raises(QueryNotSupportedError, match="off-trunk"):
        database.query(twig, strategy="rootpaths")


# ----------------------------------------------------------------------
# Property test: random small trees, random twigs, all strategies agree.
# ----------------------------------------------------------------------
LABELS = ("a", "b", "c")
VALUES = ("x", "y")


def _random_tree(draw) -> Document:
    node_budget = draw(st.integers(min_value=3, max_value=18))
    rng_choices = st.integers(min_value=0, max_value=10**6)

    root = Node(NodeKind.ELEMENT, "r")
    frontier = [root]
    for _ in range(node_budget):
        parent = frontier[draw(rng_choices) % len(frontier)]
        if parent.depth >= 4:
            parent = root
        label = LABELS[draw(rng_choices) % len(LABELS)]
        child = parent.add_child(Node(NodeKind.ELEMENT, label))
        if draw(st.booleans()):
            child.add_child(Node(NodeKind.VALUE, VALUES[draw(rng_choices) % len(VALUES)]))
        frontier.append(child)
    return Document(root, name="random")


def _random_query(draw) -> str:
    rng_choices = st.integers(min_value=0, max_value=10**6)
    start = "/r" if draw(st.booleans()) else "//" + LABELS[draw(rng_choices) % 3]
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        axis = "//" if draw(st.booleans()) else "/"
        steps.append(axis + LABELS[draw(rng_choices) % 3])
    predicates = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        label = LABELS[draw(rng_choices) % 3]
        if draw(st.booleans()):
            predicates.append(f"[{label}='{VALUES[draw(rng_choices) % 2]}']")
        else:
            predicates.append(f"[{label}]")
    return start + "".join(steps) + "".join(predicates)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_all_strategies_agree_on_random_trees(data):
    document = _random_tree(data.draw)
    query = _random_query(data.draw)
    database = TwigIndexDatabase.from_documents([document])
    expected = database.oracle(query)
    for strategy in DEFAULT_STRATEGIES:
        result = database.query(query, strategy=strategy)
        assert result.ids == expected, f"{strategy} disagrees on {query}"
