"""Incremental document removal vs full rebuild — shrink-by-one workload.

The mirror image of ``bench_incremental_update.py``: a serving system
must also *forget* documents while indexes stay online.  This bench
removes one small document from an XMark-like corpus and compares, in
the shared maintenance-cost currency
(:func:`~repro.storage.stats.maintenance_cost`: page-granular writes at
weight 10 plus per-entry insert/delete work), the cost of

* **incremental remove** — one
  :meth:`~repro.indexes.base.PathIndex.remove` per built index
  (B+-tree deletes of just the removed document's rows), vs
* **full rebuild** — building every index from scratch over the
  post-removal database, which is the only alternative a correct
  answer allows.

Asserted shape:

* incremental remove-one is cheaper than the rebuild by at least a
  conservative 5x (the corpus is ~8x the removed document),
* the delete work is *visible*: the stats snapshot diff charges
  ``btree_deletes`` and page writes, and the service/cache ``describe()``
  reports surface the removal and the result-cache invalidation it
  caused — the counters this PR made consistent,
* both maintenance paths answer the Figure 12-style workload
  identically (and correctly w.r.t. the oracle), and a replace
  (remove + add) stays consistent too.

See ``docs/BENCHMARKS.md`` for how this bench relates to the paper.
"""

from __future__ import annotations

import pytest

from repro import TwigIndexDatabase
from repro.bench import format_table, write_bench_report
from repro.datasets import generate_xmark
from repro.storage.stats import maintenance_cost
from repro.workloads.generator import branch_count_sweep

#: Corpus and victim scales: the surviving base is ~8x the removed
#: document, so a clear gap between incremental and rebuild cost is
#: structural, not noise.
BASE_SCALE = 0.16
VICTIM_SCALE = 0.02

#: The four indexes with true incremental deletion.
MAINTAINED_INDEXES = ("rootpaths", "datapaths", "edge", "dataguide")

#: Conservative floor for the incremental advantage on this corpus.
MIN_SPEEDUP = 5.0


def _documents():
    """Fresh base + victim documents (documents cannot be shared)."""
    return (
        generate_xmark(scale=BASE_SCALE, seed=7, name="base"),
        generate_xmark(scale=VICTIM_SCALE, seed=99, name="victim"),
    )


@pytest.fixture(scope="module")
def shrink_by_one():
    # Incremental path: indexes built over the full corpus forget the
    # victim through one remove() per index.
    base, victim = _documents()
    incremental = TwigIndexDatabase.from_documents([base, victim])
    for name in MAINTAINED_INDEXES:
        incremental.build_index(name)
    # Warm the result cache so the removal's invalidation is observable.
    incremental.service.execute("/site/people/person/name")
    before = incremental.stats.snapshot()
    incremental.remove_document("victim")
    removal_diff = incremental.stats.diff(before)
    incremental_cost = maintenance_cost(removal_diff)

    # Rebuild path: the same post-removal corpus, indexes from scratch.
    base, _ = _documents()
    rebuilt = TwigIndexDatabase.from_documents([base])
    before = rebuilt.stats.snapshot()
    for name in MAINTAINED_INDEXES:
        rebuilt.build_index(name)
    rebuild_cost = maintenance_cost(rebuilt.stats.diff(before))

    print()
    print(
        format_table(
            ["maintenance path", "weighted cost", "relative"],
            [
                ["incremental remove-one", incremental_cost, "1.0x"],
                [
                    "full rebuild",
                    rebuild_cost,
                    f"{rebuild_cost / max(1, incremental_cost):.1f}x",
                ],
            ],
            title=f"Shrink-by-one maintenance cost — indexes: "
            f"{', '.join(MAINTAINED_INDEXES)}",
        )
    )
    write_bench_report(
        "remove_replace",
        {
            "indexes": list(MAINTAINED_INDEXES),
            "incremental_cost": incremental_cost,
            "rebuild_cost": rebuild_cost,
            "cost_ratio": rebuild_cost / max(1, incremental_cost),
        },
    )
    return {
        "incremental": incremental,
        "rebuilt": rebuilt,
        "removal_diff": removal_diff,
        "incremental_cost": incremental_cost,
        "rebuild_cost": rebuild_cost,
    }


def test_incremental_remove_beats_rebuild(shrink_by_one):
    incremental_cost = shrink_by_one["incremental_cost"]
    rebuild_cost = shrink_by_one["rebuild_cost"]
    assert incremental_cost > 0, "removal must charge write work"
    assert rebuild_cost >= MIN_SPEEDUP * incremental_cost, (
        f"incremental remove-one ({incremental_cost}) not at least "
        f"{MIN_SPEEDUP}x cheaper than rebuild ({rebuild_cost})"
    )


def test_delete_counters_are_surfaced_consistently(shrink_by_one):
    """The counters the removal charged are visible at every layer.

    The stats snapshot diff carries the raw delete work; the service
    ``describe()`` reports the removal and the incremental (result-only)
    invalidation it caused; the result cache's ``describe()`` shows the
    cleared entries.  A benchmark can therefore assert on maintenance
    activity without reaching into private state.
    """
    diff = shrink_by_one["removal_diff"]
    assert diff["btree_deletes"] > 0
    assert diff["btree_page_writes"] > 0
    assert diff["heap_page_writes"] > 0  # the Edge heap pages rewritten
    assert maintenance_cost(diff) == (
        10 * (diff["btree_page_writes"] + diff["heap_page_writes"])
        + diff["btree_writes"]
        + diff["btree_deletes"]
    )

    report = shrink_by_one["incremental"].service.describe()
    assert report["maintenance"]["documents_removed"] == 1
    assert report["invalidations"] >= 1
    assert report["result_cache"]["clears"] >= 1
    assert report["result_cache"]["cleared_entries"] >= 1


def test_both_maintenance_paths_answer_identically(shrink_by_one):
    incremental = shrink_by_one["incremental"]
    rebuilt = shrink_by_one["rebuilt"]
    queries = [
        generated.xpath
        for selectivity in ("selective", "unselective")
        for generated in branch_count_sweep(selectivity, max_branches=2)
    ]
    queries.append("/site/people/person/name")
    for xpath in queries:
        expected = rebuilt.oracle(xpath)
        for strategy in ("rootpaths", "datapaths", "edge", "auto"):
            assert incremental.query(xpath, strategy=strategy).ids == expected, (
                strategy,
                xpath,
            )
            assert rebuilt.query(xpath, strategy=strategy).ids == expected, (
                strategy,
                xpath,
            )


def test_remove_replace_benchmark(benchmark):
    # Wall-clock shape of one replace (remove + add) round trip on a
    # small corpus; the cost assertion above is the pin.
    base = generate_xmark(scale=0.05, seed=7, name="base")
    churn = generate_xmark(scale=0.01, seed=13, name="churn")
    database = TwigIndexDatabase.from_documents([base, churn])
    for name in MAINTAINED_INDEXES:
        database.build_index(name)

    counter = iter(range(10_000))

    def replace_one():
        database.replace_document(
            "churn",
            generate_xmark(scale=0.01, seed=13 + next(counter), name="churn"),
        )

    benchmark.pedantic(replace_one, rounds=3, iterations=1)
