"""Plan shapes: *bind(shape)* is the template builder run on the text.

Text becomes a twig by lifting its quoted literals, looking the rest up
as a shape and binding the literals to the shape's template
(``docs/ARCHITECTURE.md``, "Prepared plans").  Pinned here:

* **bind == build.**  For the fuzz corpora (``FUZZ_SEEDS``), the 16
  catalog queries and a sample of the benchmark's cold pool, a twig
  bound from a shape that *another text* built equals the twig the
  parser builds from the text itself: same rendering, keys, analysis
  and compiled branches, and -- through a 2x2 tier and one engine --
  the same ids and bit-identical cost counters, which on the engine
  are also the per-row reference evaluator's (``tests/oracle_legacy.py``).
* **edge literals** lift and bind like any other.
* **isolation.**  Concurrent binds of one shape never see each other's
  values, a bound twig's nodes are its own, and a shape evicted
  mid-request is not missed.
* **the budget.**  A cold request on a warm shape tokenizes, parses,
  analyses and join-compiles nothing, and prices each leg at most twice.
"""

from __future__ import annotations

import importlib.util
import os
import random
import re
import sys
import threading
from pathlib import Path

import pytest

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark
from repro.errors import QueryParseError
from repro.kernels.join import CompiledJoin, CompiledTwig
from repro.planner import optimizer
from repro.planner.analysis import TwigAnalysis
from repro.query import parser as parser_module
from repro.query.parser import normalize_xpath, parse_xpath
from repro.service.cache import LRUCache
from repro.workloads import ALL_QUERIES, clone_document, random_corpus, random_twig_xpath

from oracle_legacy import reference_execute

SEEDS = [int(token) for token in os.environ.get("FUZZ_SEEDS", "0,1,2").split(",")]
CATALOG = [q.xpath for q in ALL_QUERIES if q.dataset == "xmark"]
#: (strategy, options) pairs every execution comparison runs.
RUNS = (
    ("rootpaths", {}),
    ("datapaths", {"force_plan": "merge"}),
    ("datapaths", {"force_plan": "inl"}),
    ("auto", {}),
)
LITERAL = re.compile(r"""'[^']*'|"[^"]*\"""")


def _cold_pool_module():
    """``benchmarks/e2e/workloads.py``: the pool the claim is measured on."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _xmark_documents():
    return [generate_xmark(scale=0.02, seed=500 + i, name=f"doc-{i}") for i in range(4)]


# ----------------------------------------------------------------------
# bind and build
# ----------------------------------------------------------------------
def _sibling(xpath: str) -> str:
    """Another text of ``xpath``'s shape: every quoted literal replaced."""
    counter = iter(range(1000))
    return LITERAL.sub(lambda _match: f"'~{next(counter)}'", normalize_xpath(xpath))


def _bound(xpath: str):
    """``xpath`` bound from a shape its sibling built (when it has literals)."""
    shapes = LRUCache(4)
    seeded = parse_xpath(_sibling(xpath), shapes)
    twig = parse_xpath(xpath, shapes)
    assert len(shapes) == 1 and twig.bound[0] is seeded.bound[0]
    assert (shapes.hits, shapes.misses) == (1, 1)
    return twig


def _built(xpath: str):
    """What the parser builds from the text itself: its own template."""
    twig = parse_xpath(xpath).bound[0].template
    assert twig.bound is None
    twig._source, twig._key = xpath, normalize_xpath(xpath)
    return twig


def _analysis_signature(twig):
    analysis = TwigAnalysis.of(twig)
    order = {id(node): index for index, node in enumerate(twig.iter_nodes())}
    assert analysis.node_order == order and analysis.twig is twig
    return (
        [order[id(node)] for node in analysis.trunk],
        order[id(analysis.output)],
        [
            (
                path.query.pattern,
                path.query.value,
                [order[id(node)] for node in path.query.nodes],
                order[id(path.join_point)],
                [order[id(node)] for node in path.needed_nodes],
                [analysis.column_name(node) for node in path.needed_nodes],
                path.contains_output,
                analysis.trunk_depth(path.join_point),
            )
            for path in analysis.paths
        ],
    )


def _compiled_signature(twig, flavour: bool):
    analysis = TwigAnalysis.of(twig)
    if twig.bound is None:
        plan = CompiledTwig(analysis, bound=flavour)
    else:
        template = twig.bound[0].template
        plan = CompiledTwig(TwigAnalysis.of(template), bound=flavour).bound_to(analysis)
    assert plan.analysis is analysis and len(plan.branches) == len(analysis.paths)
    # The executing plan reads each branch's value off its analysis path.
    return [
        (
            branch.columns,
            branch.needed_positions,
            branch.pattern,
            branch.exact,
            path.query.value,
            branch.trailing,
            branch.extractor.bound,
        )
        for branch, path in zip(plan.branches, plan.analysis.paths)
    ]


def _assert_bind_is_build(xpath: str) -> None:
    bound, built = _bound(xpath), _built(xpath)
    assert bound.to_xpath() == built.to_xpath(), xpath
    assert (bound.source, bound.key) == (xpath, normalize_xpath(xpath))
    assert [
        (n.label, n.axis, n.value, n.is_attribute, len(n.children))
        for n in bound.iter_nodes()
    ] == [
        (n.label, n.axis, n.value, n.is_attribute, len(n.children))
        for n in built.iter_nodes()
    ], xpath
    assert all(
        child.parent is node for node in bound.iter_nodes() for child in node.children
    )
    assert _analysis_signature(bound) == _analysis_signature(built), xpath
    for flavour in (False, True):
        assert _compiled_signature(bound, flavour) == _compiled_signature(
            built, flavour
        ), (xpath, flavour)


class _Systems:
    """A 2x2 tier and a single engine over the same documents."""

    def __init__(self, documents) -> None:
        self.tier = ShardedQueryService(
            num_shards=2, replicas=2, placement="round_robin"
        )
        for document in documents:
            self.tier.add_document(clone_document(document))
        self.engine = TwigIndexDatabase.from_documents(
            [clone_document(document) for document in documents]
        )
        for target in (self.tier, self.engine):
            target.build_index("rootpaths")
            target.build_index("datapaths")

    def close(self) -> None:
        self.tier.close()

    def assert_same_execution(self, xpath: str) -> None:
        """Text (lookup + bind) and the built twig: same ids, same costs,
        and on the engine the reference's for every fixed strategy."""
        for service in (self.tier, self.engine.service):
            # Warm the shape from a sibling, so the text below binds.
            service.plan(_sibling(xpath))
            oracle = service.oracle(xpath) if service is self.tier else self.engine.oracle(xpath)
            for strategy, options in RUNS:
                runs = [
                    service.execute(
                        query, strategy=strategy, use_result_cache=False, **options
                    )
                    for query in (xpath, _built(xpath))
                ]
                context = (xpath, strategy, options)
                assert runs[0].ids == runs[1].ids == oracle, context
                assert runs[0].cost == runs[1].cost, context
                assert runs[0].strategy == runs[1].strategy, context
                if service is not self.tier and strategy != "auto":
                    reference = reference_execute(self.engine, xpath, strategy, **options)
                    assert (runs[0].ids, runs[0].cost) == reference, context


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_corpora_bind_is_build(seed):
    rng = random.Random(seed)
    documents = random_corpus(rng, documents=4)
    queries = list(dict.fromkeys(random_twig_xpath(rng, documents) for _ in range(48)))
    assert any("[. = " in xpath for xpath in queries)
    systems = _Systems(documents)
    try:
        for xpath in queries:
            _assert_bind_is_build(xpath)
            systems.assert_same_execution(xpath)
    finally:
        systems.close()


def test_catalog_and_cold_pool_bind_is_build():
    documents = _xmark_documents()
    pool = _cold_pool_module().cold_pool(11, documents)
    sample = random.Random(11).sample(pool, 256)
    # Thousands of texts, a handful of shapes: one text of each.
    one_of_each = {tuple(LITERAL.split(xpath)): xpath for xpath in pool}
    assert len(one_of_each) <= 32 < len(pool)
    systems = _Systems(documents)
    try:
        for xpath in CATALOG + sorted(one_of_each.values()) + sample:
            _assert_bind_is_build(xpath)
            systems.assert_same_execution(xpath)
        assert len(systems.tier.plan_cache) <= len(CATALOG) + len(one_of_each)
    finally:
        systems.close()


# ----------------------------------------------------------------------
# Edge literals
# ----------------------------------------------------------------------
EDGE_XML = (
    "<r><a>v<b>1</b></a><a>w<b>2</b></a><a></a>"
    '<c>it\'s</c><c>say "hi"</c><c>5</c><c>v</c><d>v</d></r>'
)
EDGE_QUERIES = {
    "same literal twice": ("/r[c = 'v'][d = 'v']/a", 3),
    "empty literal": ("/r/a[. = '']", 0),
    "single quote inside double quotes": ('/r/c[. = "it\'s"]', 1),
    "double quote inside single quotes": ("/r/c[. = 'say \"hi\"']", 1),
    "curly quotes": ("/r/a[b = ‘2’]", 1),
    "value on a leaf trunk step": ("/r/d[. = 'v']", 1),
    "value on an inner trunk step": ("/r/a[. = 'v']/b", 1),
    "two conditions on one step: the last wins": ("/r/a[. = 'v'][. = 'w']/b", 1),
    "bare number": ("/r/c[. = 5]", 1),
    "bare name": ("/r[c = v]/d", 1),
    "no literal at all": ("/r//b", 2),
}


@pytest.mark.parametrize("case", sorted(EDGE_QUERIES))
def test_edge_literals_lift_and_bind(case):
    xpath, matches = EDGE_QUERIES[case]
    _assert_bind_is_build(xpath)
    database = TwigIndexDatabase.from_xml(EDGE_XML)
    database.build_index("rootpaths")
    database.build_index("datapaths")
    database.service.plan(_sibling(xpath))
    expected = database.oracle(xpath)
    assert len(expected) == matches
    for strategy, options in RUNS:
        result = database.service.execute(xpath, strategy=strategy, **options)
        assert result.ids == expected, (strategy, options)


def test_bare_literals_stay_in_the_shape_and_whitespace_splits_shapes():
    shapes = LRUCache(8)
    five, six = parse_xpath("/r/c[. = 5]", shapes), parse_xpath("/r/c[. = 6]", shapes)
    assert len(shapes) == 2 and five.bound[0] is not six.bound[0]
    assert (five.output.value, six.output.value) == ("5", "6")
    tight, loose = parse_xpath("/r[c='v']/d", shapes), parse_xpath("/r[c = 'v']/d", shapes)
    assert len(shapes) == 4 and tight.bound[0] is not loose.bound[0]
    assert tight.to_xpath() == loose.to_xpath()
    # Whitespace *inside* a literal is the literal's, and stays.
    spaced = parse_xpath("/r[c = ' v ']/d", shapes)
    assert spaced.bound[0] is loose.bound[0] and spaced.root.children[0].value == " v "


@pytest.mark.parametrize(
    "xpath", ["/r[c = ?]", "/r[c = 'v]", "/r[c = 'v']'", "/r[c = 'v' 'w']", "/r['v']"]
)
def test_texts_that_do_not_parse_never_borrow_a_shape(xpath):
    shapes = LRUCache(8)
    parse_xpath("/r[c = 'x']", shapes)
    with pytest.raises(QueryParseError):
        parse_xpath(xpath, shapes)
    assert len(shapes) == 1


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------
def test_concurrent_binds_of_one_shape_never_share_a_value():
    documents = _xmark_documents()
    template = "/site/people/person[profile/@income = '{}']/name"
    incomes = sorted(
        {
            child.label
            for document in documents
            for node in document.iter_structural()
            if node.label == "income"
            for child in node.children
            if child.is_value
        }
    )[:24]
    threads, rounds = 8, 300
    interval = sys.getswitchinterval()
    with ShardedQueryService(num_shards=2, replicas=2, placement="round_robin") as service:
        for document in documents:
            service.add_document(document)
        service.build_index("rootpaths")
        service.build_index("datapaths")
        expected = {income: service.oracle(template.format(income)) for income in incomes}
        assert len({tuple(ids) for ids in expected.values()}) > len(incomes) // 2
        wrong: list[tuple] = []
        start = threading.Barrier(threads)

        def caller(offset: int) -> None:
            rng = random.Random(offset)
            start.wait(timeout=30)
            for _ in range(rounds):
                income = rng.choice(incomes)
                xpath = template.format(income)
                result = service.execute(xpath, use_result_cache=False)
                twig = service.plan(xpath)
                values = [node.value for node in twig.value_conditions()]
                if result.ids != expected[income] or values != [income]:
                    wrong.append((income, result.ids, values))

        workers = [threading.Thread(target=caller, args=(i,)) for i in range(threads)]
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert not wrong, wrong[:3]
        assert len(service.plan_cache) == 1
        assert service.describe()["queries_executed"] == threads * rounds


def test_a_bound_twig_owns_its_nodes_and_outlives_its_shape():
    xpath = "/site/people/person[profile/@income = '{}']/name"
    with ShardedQueryService(
        num_shards=2, replicas=2, placement="round_robin", plan_cache_size=1
    ) as service:
        for document in _xmark_documents():
            service.add_document(document)
        service.build_index("rootpaths")
        first = service.plan(xpath.format("1"))
        shape = first.bound[0]
        # Scribbling on a bound twig reaches neither the template nor the next bind.
        for node in list(first.iter_nodes()):
            node.label, node.value = "scribble", "scribble"
            node.children.clear()
        again = service.plan(xpath.format("2"))
        assert again.bound[0] is shape
        assert again.to_xpath() == _built(xpath.format("2")).to_xpath()
        assert "scribble" not in shape.template.to_xpath()

        # Evicted mid-request: the bound twig holds what it needs.
        held = service.plan(xpath.format("9876.00"))
        service.plan("/site/regions")
        assert len(service.plan_cache) == 1 and service.plan_cache.evictions == 1
        assert service.plan("/site/regions").bound[0] is not shape
        answer = service.execute(held, use_result_cache=False)
        assert answer.ids == service.oracle(xpath.format("9876.00"))
        assert held.compiled and held.analysis.twig is held


# ----------------------------------------------------------------------
# The per-request budget
# ----------------------------------------------------------------------
@pytest.fixture()
def prepare_calls(monkeypatch):
    """Calls of everything a shape prepares once, plus the per-leg pricing."""
    calls: dict[str, int] = {}

    def count(owner, name: str, label: str) -> None:
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(parser_module, "_tokenize", "tokenize")
    count(parser_module._Parser, "parse_query", "parse")
    count(TwigAnalysis, "__init__", "analysis")
    count(CompiledTwig, "__init__", "compiled-twig")
    count(CompiledJoin, "__init__", "compiled-join")
    count(optimizer, "estimate_branch_cardinalities", "estimates")
    return calls


def test_cold_request_on_a_warm_shape_stays_inside_its_budget(prepare_calls, monkeypatch):
    xpath = (
        "/site//item[quantity = '{}'][location = 'United States']"
        "[incategory/category = '{}']/mailbox/mail/to"
    )
    with ShardedQueryService(num_shards=4, replicas=2, placement="round_robin") as service:
        for document in _xmark_documents():
            service.add_document(document)
        service.build_index("rootpaths")
        service.build_index("datapaths")
        # Warm the shape on both replicas of every shard, both flavours.
        for index, strategy in enumerate(("rootpaths", "datapaths", "auto", "auto")):
            service.execute(xpath.format(index, "category1"), strategy=strategy)
        choice_lookups = []
        for shard in service.shards:
            for replica in shard.replicas:
                monkeypatch.setattr(
                    replica.service.choice_cache,
                    "get",
                    lambda key: choice_lookups.append(key),
                )
        reads = sum(sum(shard.replica_reads) for shard in service.shards)
        prepare_calls.clear()
        cold = service.execute(xpath.format("1", "category7"))
        assert not cold.cached
        legs = sum(sum(s.replica_reads) for s in service.shards) - reads
        assert legs == 4
        assert prepare_calls.pop("estimates") <= 2 * legs
        assert prepare_calls == {} and choice_lookups == []
        assert cold.ids == service.oracle(xpath.format("1", "category7"))

