"""Document removal & replacement with online index maintenance.

Walks the full mutation lifecycle the serving tier supports: load a
corpus, build indexes, then **remove** and **replace** documents while
every index is maintained incrementally — no rebuild, no stale answers
— first on a single engine, then on a sharded service.

Run with:  python examples/remove_replace.py
"""

from repro import ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark
from repro.storage.stats import maintenance_cost

QUERY = "/site/people/person/name"


def main() -> None:
    # 1. Load three documents and build the incrementally maintained
    #    index family (ROOTPATHS, DATAPATHS, Edge, DataGuide).
    documents = [
        generate_xmark(scale=0.05, seed=seed, name=f"doc-{position}")
        for position, seed in enumerate((7, 21, 99))
    ]
    db = TwigIndexDatabase.from_documents(documents)
    for name in ("rootpaths", "datapaths", "edge", "dataguide"):
        db.build_index(name)
    print("Loaded:", db.describe())
    print(f"{QUERY!r} matches: {len(db.query(QUERY).ids)}")

    # 2. Remove one document.  Every built index deletes exactly the
    #    rows that document contributed (B+-tree deletes, IdList
    #    shrink, catalog-statistic decrements) — far cheaper than the
    #    rebuild a correct answer would otherwise require.
    before = db.stats.snapshot()
    db.remove_document("doc-1")
    removal = db.stats.diff(before)
    print(f"\nRemoved 'doc-1': cost={maintenance_cost(removal)} "
          f"(btree_deletes={removal['btree_deletes']}, "
          f"page_writes={removal['btree_page_writes']})")
    print(f"{QUERY!r} matches now: {len(db.query(QUERY).ids)}")
    assert db.query(QUERY).ids == db.oracle(QUERY)

    # 3. Replace a document with new content.  One locked remove + add;
    #    the replacement gets fresh node ids at the watermark and keeps
    #    the name, so document-scoped workflows continue to work.
    replacement = generate_xmark(scale=0.02, seed=123, name="doc-2")
    db.replace_document("doc-2", replacement)
    print(f"\nReplaced 'doc-2': {QUERY!r} matches: {len(db.query(QUERY).ids)}")
    assert db.query(QUERY).ids == db.oracle(QUERY)

    # 4. Every write moved the engine's epoch once: cached results were
    #    dropped, parsed plans survived.
    report = db.service.describe()
    print("Service maintenance counters:", report["maintenance"])
    print("Invalidations:", report["invalidations"])

    # 5. The same mutations on a sharded service route to the owning
    #    shard only and stay answer-identical to the single engine.
    with ShardedQueryService(num_shards=2, placement="hash") as sharded:
        for position, seed in enumerate((7, 21, 99)):
            sharded.add_document(
                generate_xmark(scale=0.05, seed=seed, name=f"doc-{position}")
            )
        sharded.build_index("rootpaths")
        sharded.remove_document("doc-1")
        sharded.replace_document(
            "doc-2", generate_xmark(scale=0.02, seed=123, name="doc-2")
        )
        sharded_ids = sharded.execute(QUERY).ids
        print(f"\nSharded after remove+replace: {len(sharded_ids)} matches "
              f"(identical to single engine: {sharded_ids == db.query(QUERY).ids})")
        assert sharded_ids == db.query(QUERY).ids


if __name__ == "__main__":
    main()
