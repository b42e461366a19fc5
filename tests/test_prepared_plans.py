"""Prepared plans: one parse, analysis and join compile per shape.

A sharded request resolves its text once through the tier's plan cache
— a shape lookup plus a bind — and hands every shard leg the same
:class:`TwigPattern`, which re-points its shape's analysis and compiled
joins at its own nodes.  Pinned here:

* the work really happens once per shape (call counts), and never
  again for a repeat or for another text of the shape, whichever
  replica executes it;
* handing a leg the tier's twig, the query text, or a twig the caller
  parsed gives the same ids, cost counters and cache keys for every
  strategy, through document churn and an index rebuild with different
  options;
* a malformed query fails before any leg runs and leaves no plan;
* the tier's plan-cache counters count requests, and the text-in
  surface the layer benchmark drives (``QueryService.plan``,
  ``replica.plan_cache``, ``Shard.execute(text)``) still works.
"""

from __future__ import annotations

import random

import pytest

from repro import ShardedQueryService
from repro.datasets import generate_xmark
from repro.errors import QueryParseError
from repro.kernels.join import CompiledTwig
from repro.planner import DEFAULT_STRATEGIES
from repro.planner.analysis import TwigAnalysis
from repro.query.parser import _Parser, parse_xpath
from repro.storage.stats import sum_snapshots
from repro.workloads import (
    ALL_QUERIES,
    clone_document,
    random_corpus,
    random_document,
    random_twig_xpath,
)

CATALOG = [q.xpath for q in ALL_QUERIES if q.dataset == "xmark"]
STRATEGIES = (*DEFAULT_STRATEGIES, "auto")


def _xmark_documents(count: int = 4):
    return [
        generate_xmark(scale=0.02, seed=300 + i, name=f"doc-{i}") for i in range(count)
    ]


def _tier(documents, replicas: int = 2) -> ShardedQueryService:
    service = ShardedQueryService(
        num_shards=4, replicas=replicas, placement="round_robin"
    )
    for document in documents:
        service.add_document(clone_document(document))
    service.build_index("rootpaths")
    service.build_index("datapaths")
    return service


# ----------------------------------------------------------------------
# (a) once per shape, never per request or leg
# ----------------------------------------------------------------------
@pytest.fixture()
def prepare_counts(monkeypatch):
    """Counts of parses, analyses and join compiles, wherever called from."""
    counts = {"parse": 0, "analysis": 0, "compiled": []}
    real_parse = _Parser.parse_query

    def counting_parse(self):
        counts["parse"] += 1
        return real_parse(self)

    monkeypatch.setattr(_Parser, "parse_query", counting_parse)

    analysis_init, compiled_init = TwigAnalysis.__init__, CompiledTwig.__init__

    def counting_analysis(self, twig):
        counts["analysis"] += 1
        analysis_init(self, twig)

    def counting_compiled(self, analysis, bound=False):
        counts["compiled"].append(bound)
        compiled_init(self, analysis, bound=bound)

    monkeypatch.setattr(TwigAnalysis, "__init__", counting_analysis)
    monkeypatch.setattr(CompiledTwig, "__init__", counting_compiled)
    return counts


def test_cold_request_prepares_once_for_all_eight_replicas(prepare_counts):
    xpath = "/site//item[quantity = '2'][location = 'United States']/mailbox/mail/to"
    with _tier(_xmark_documents()) as service:
        first = service.execute(xpath)
        assert not first.cached
        assert prepare_counts["parse"] == 1
        assert prepare_counts["analysis"] == 1
        flavours = prepare_counts["compiled"]
        assert 1 <= len(flavours) <= 2 and len(set(flavours)) == len(flavours)

        # The repeat lands at the tier: no leg runs, no replica is read.
        landed = service.execute(xpath)
        assert landed.cached and landed.ids == first.ids
        assert service.answer_cache.hits == 1
        assert all(
            shard.replica_reads == [1, 0] for shard in service.shards
        )

        # Past the tier's cache round-robin sends the repeat to each
        # shard's *other* replica: it executes with the first request's
        # plan.  Only a flavour no replica ran yet may still be
        # compiled, and then once.
        second = service.execute(xpath, use_result_cache=False)
        assert not second.cached and second.ids == first.ids
        assert all(
            shard.replica_reads == [1, 1] for shard in service.shards
        )
        assert prepare_counts["parse"] == 1
        assert prepare_counts["analysis"] == 1
        assert len(set(flavours)) == len(flavours) <= 2

        settled = list(flavours)
        assert service.execute(xpath).cached
        assert service.execute(xpath, use_result_cache=False).ids == first.ids
        assert (prepare_counts["parse"], prepare_counts["analysis"]) == (1, 1)
        assert flavours == settled

        # Another text of the same shape is a cold request that prepares
        # nothing: it binds its literals to the first text's shape.
        other = xpath.replace("'2'", "'1'")
        cold = service.execute(other)
        assert not cold.cached and len(service.plan_cache) == 1
        assert (prepare_counts["parse"], prepare_counts["analysis"]) == (1, 1)
        assert len(set(flavours)) == len(flavours) <= 2
        assert cold.ids == service.oracle(other) != first.ids


# ----------------------------------------------------------------------
# (b) tier twig == text per leg == caller's twig
# ----------------------------------------------------------------------
def _legs_by_text(service, xpath, strategy):
    """What the tier did before plans were shared: the text to every leg."""
    ids, costs = [], []
    for shard in service.shards:
        if not shard.document_count:
            continue  # the tier prunes empty shards from its scatter
        partial = shard.execute(xpath, strategy=strategy)
        ids.extend(
            service.topology.translate_sorted(shard.index, sorted(partial.ids))
        )
        costs.append(partial.cost)
    return sorted(set(ids)), sum_snapshots(*costs)


MODES = {
    "tier": lambda service, xpath, strategy: _merged(
        service.execute(xpath, strategy=strategy)
    ),
    "text-per-leg": _legs_by_text,
    "caller-twig": lambda service, xpath, strategy: _merged(
        service.execute(parse_xpath(xpath), strategy=strategy)
    ),
}


def _merged(result):
    return result.ids, result.cost


def _result_cache_keys(service):
    return [
        sorted(replica.service.result_cache, key=repr)
        for shard in service.shards
        for replica in shard.replicas
    ]


def _assert_modes_agree(tiers, queries, stage):
    for xpath in queries:
        oracle = tiers["tier"].oracle(xpath)
        for strategy in STRATEGIES:
            answers = {
                mode: MODES[mode](service, xpath, strategy)
                for mode, service in tiers.items()
            }
            context = f"{stage}: {strategy} {xpath}"
            assert answers["tier"][0] == oracle, context
            assert answers["text-per-leg"] == answers["tier"], context
            assert answers["caller-twig"] == answers["tier"], context
    keys = {mode: _result_cache_keys(service) for mode, service in tiers.items()}
    assert keys["text-per-leg"] == keys["tier"], stage
    assert keys["caller-twig"] == keys["tier"], stage
    assert any(keys["tier"])


def _differential(documents, queries, late_document):
    tiers = {mode: _tier(documents) for mode in MODES}
    try:
        _assert_modes_agree(tiers, queries, "loaded")
        plans = [tiers["tier"].plan(xpath) for xpath in queries]

        victim, replaced = documents[0].name, documents[1].name
        for service in tiers.values():
            service.add_document(clone_document(late_document))
            service.remove_document(victim)
            service.replace_document(
                replaced, clone_document(late_document, name=replaced)
            )
        _assert_modes_agree(tiers, queries, "after add/remove/replace")

        for service in tiers.values():
            service.build_index("rootpaths", order=8)
            service.build_index("datapaths", order=8, differential_idlists=False)
        _assert_modes_agree(tiers, queries, "after rebuild with other options")
        # Shapes are data- and index-independent: same objects throughout,
        # each bind a twig of its own.
        for xpath, plan in zip(queries, plans):
            again = tiers["tier"].plan(xpath)
            assert again is not plan and again.bound[0] is plan.bound[0]
            assert (again.key, again.to_xpath()) == (plan.key, plan.to_xpath())
    finally:
        for service in tiers.values():
            service.close()


def test_catalog_queries_agree_across_plan_sources():
    late = generate_xmark(scale=0.02, seed=399, name="late")
    _differential(_xmark_documents(), CATALOG, late)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_corpora_agree_across_plan_sources(seed):
    rng = random.Random(seed)
    documents = random_corpus(rng, documents=4)
    queries = list(
        dict.fromkeys(random_twig_xpath(rng, documents) for _ in range(12))
    )
    _differential(documents, queries, random_document(rng, "late"))


# ----------------------------------------------------------------------
# (c) a malformed query never reaches a leg
# ----------------------------------------------------------------------
@pytest.mark.parametrize("xpath", ["", "site/people", "/site[", "/site/people]"])
def test_malformed_xpath_fails_before_any_leg(xpath):
    with _tier(_xmark_documents()) as service:
        reads = [list(shard.replica_reads) for shard in service.shards]
        with pytest.raises(QueryParseError):
            service.execute(xpath)
        assert [
            list(shard.replica_reads) for shard in service.shards
        ] == reads
        assert len(service.plan_cache) == 0
        assert service.execute(CATALOG[0]).ids == service.oracle(CATALOG[0])


# ----------------------------------------------------------------------
# (e) the tier's plan cache counts requests
# ----------------------------------------------------------------------
def test_plan_cache_counters_count_requests_not_legs():
    with _tier(_xmark_documents()) as service:
        for _ in range(3):
            for xpath in CATALOG[:5]:
                service.execute(xpath)
        service.execute("  " + CATALOG[0] + " ")  # same normalised key
        report = service.describe()
        plans = report["caches"]["plan_cache"]
        # Five texts of three shapes: only a shape's first text misses.
        assert (plans["hits"], plans["misses"], plans["size"]) == (13, 3, 3)
        assert plans["hits"] + plans["misses"] == report["queries_executed"]
        assert all(
            shard["service"]["plan_cache"]["misses"] == 0
            for shard in report["shards"]
        )
        # A write drops results, a rebuild drops the replicas' own
        # caches; neither can make a plan stale, so the tier keeps them.
        shape = service.plan(CATALOG[0]).bound[0]
        service.add_document(generate_xmark(scale=0.02, seed=398, name="late"))
        service.build_index("rootpaths", order=8)
        service.invalidate()
        assert service.plan(CATALOG[0]).bound[0] is shape
        assert service.plan_cache.clears == 0


# ----------------------------------------------------------------------
# (f) the text-in surface below the tier
# ----------------------------------------------------------------------
def test_text_callers_below_the_tier_prepare_for_themselves():
    xpath = CATALOG[9]
    with _tier(_xmark_documents()) as service:
        shard = service.shards[0]
        local = shard.execute(xpath)
        serving = [r for r in shard.replicas if len(r.service.plan_cache)]
        assert len(serving) == 1 and len(service.plan_cache) == 0
        assert local.xpath == xpath and local.ids == shard.execute(xpath).ids

        # The calls benchmarks/e2e/layers.py makes on one replica's service.
        replica = shard.replicas[0].service
        replica.plan_cache.clear()
        misses = replica.plan_cache.misses
        twig = replica.plan(xpath)
        again = replica.plan(xpath)
        assert again is not twig and again.bound[0] is twig.bound[0]
        assert replica.plan_cache.misses == misses + 1
        assert (twig.source, twig.key) == (xpath, xpath)
        replica.choice_cache.clear()
        choice = replica.choose(xpath)
        options = {}
        if choice.strategy == "datapaths" and choice.datapaths_plan is not None:
            options["force_plan"] = choice.datapaths_plan.plan
        runner = replica.strategy_instance(choice.strategy, **options)
        direct = replica.engine.execute_prepared(runner, twig, xpath=xpath)
        assert direct.ids == local.ids
        assert replica.execute(xpath, use_result_cache=False).cost == direct.cost
