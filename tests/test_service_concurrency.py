"""Concurrent access: readers hammering execute() against add_document().

The serving tier's thread-safety contract: a
:class:`~repro.service.QueryService` (and each shard of a
:class:`~repro.shard.ShardedQueryService`) may be queried from many
threads while another thread adds documents — never returning a torn
read of a half-maintained index, never a stale cached answer after the
caches were invalidated — and once the writer finishes, queries must
see the final document set.

What "never stale or torn" means differs by tier:

* the **single-node** service serializes execution against writes on
  one lock, so every observed answer must be the oracle answer of some
  *prefix* of the add sequence (linearizability);
* the **sharded** service has per-shard snapshots but no global read
  snapshot (see the consistency model in :mod:`repro.shard.service`),
  so every observed answer must be a *consistent cut*: per shard, a
  prefix of that shard's add sub-sequence.

The harness precomputes the oracle answers of every admissible state
(documents are independent trees, so a state's answer is the union of
its documents' match sets), races reader threads against one writer,
and checks each observed answer against the admissible set.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import sys
import threading

import pytest

from repro import FrontDoor, QueryRequest, ShardedQueryService, TwigIndexDatabase
from repro.datasets import generate_xmark
from repro.query import normalize_xpath

QUERIES = (
    "/site/people/person/name",
    "//person[name='Hagen Artosi']",
    "/site/open_auctions/open_auction",
)

BASE_DOCS = 2
EXTRA_DOCS = 3
READER_THREADS = 3
READER_ROUNDS = 25


def _documents(count: int):
    return [
        generate_xmark(scale=0.015, seed=500 + i, name=f"doc-{i}")
        for i in range(count)
    ]


def _prefix_oracles() -> list[dict[str, list[int]]]:
    """Oracle answers for every prefix of the add sequence.

    Prefix k holds the answers after the first BASE_DOCS + k documents;
    these are the only answer sets a linearizable service may return.
    """
    oracles = []
    for k in range(EXTRA_DOCS + 1):
        reference = TwigIndexDatabase.from_documents(_documents(BASE_DOCS + k))
        oracles.append({xpath: reference.oracle(xpath) for xpath in QUERIES})
    return oracles


@pytest.fixture(scope="module")
def prefix_oracles():
    return _prefix_oracles()


def _hammer(execute, add_document):
    """Race readers against one writer; return the observed answers."""
    observed: dict[str, set[tuple[int, ...]]] = {xpath: set() for xpath in QUERIES}
    errors: list[BaseException] = []
    observed_lock = threading.Lock()
    writer_done = threading.Event()

    def writer():
        try:
            for document in _documents(BASE_DOCS + EXTRA_DOCS)[BASE_DOCS:]:
                add_document(document)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            writer_done.set()

    def reader():
        try:
            rounds = 0
            while rounds < READER_ROUNDS or not writer_done.is_set():
                rounds += 1
                for xpath in QUERIES:
                    ids = tuple(execute(xpath).ids)
                    with observed_lock:
                        observed[xpath].add(ids)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(READER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "hammer thread wedged"
    assert not errors, errors
    return observed


def _assert_answers_admissible(observed, allowed_by_query, contract):
    for xpath in QUERIES:
        stale_or_torn = observed[xpath] - allowed_by_query[xpath]
        assert not stale_or_torn, (
            f"{xpath}: observed answers matching no {contract} of the add "
            f"sequence: {sorted(len(ids) for ids in stale_or_torn)} ids"
        )


def _per_document_answers():
    """Each document's own match ids in the global id space.

    Documents are independent trees, so the answer of any document
    subset is the union of the per-document match sets; this is what
    lets the harness enumerate every admissible concurrent state.
    """
    reference = TwigIndexDatabase.from_documents(
        _documents(BASE_DOCS + EXTRA_DOCS)
    )
    spans = reference.document_spans()
    contributions: dict[str, list[list[int]]] = {}
    for xpath in QUERIES:
        full = reference.oracle(xpath)
        contributions[xpath] = [
            [i for i in full if start <= i < end] for _, start, end in spans
        ]
    return contributions


def _consistent_cut_answers(shard_deltas: list[list[int]]):
    """Admissible answers when each shard may lag at its own prefix.

    ``shard_deltas`` lists, per shard, the positions (document indexes)
    of the delta documents that shard received, in arrival order.  A
    cut includes every base document plus, for each shard, a prefix of
    its deltas.
    """
    contributions = _per_document_answers()
    cuts = [list(range(BASE_DOCS))]
    for deltas in shard_deltas:
        cuts = [
            cut + deltas[:take] for cut in cuts for take in range(len(deltas) + 1)
        ]
    allowed: dict[str, set[tuple[int, ...]]] = {}
    for xpath in QUERIES:
        per_doc = contributions[xpath]
        allowed[xpath] = {
            tuple(sorted(id_ for position in cut for id_ in per_doc[position]))
            for cut in cuts
        }
    return allowed


def test_single_service_race_no_stale_results(prefix_oracles):
    database = TwigIndexDatabase.from_documents(_documents(BASE_DOCS))
    database.build_index("rootpaths")
    database.build_index("datapaths")
    service = database.service

    observed = _hammer(
        lambda xpath: service.execute(xpath, strategy="auto"),
        service.add_document,
    )
    # One lock serializes everything: full linearizability.
    allowed = {
        xpath: {tuple(prefix[xpath]) for prefix in prefix_oracles}
        for xpath in QUERIES
    }
    _assert_answers_admissible(observed, allowed, "prefix")

    # The settled service answers for the final document set, cached and
    # uncached alike, and the caches are internally consistent.
    final = prefix_oracles[-1]
    for xpath in QUERIES:
        assert service.execute(xpath).ids == final[xpath]
        assert (
            service.execute(xpath, use_result_cache=False).ids == final[xpath]
        )
    report = service.describe()
    assert report["result_cache"]["size"] <= service.result_cache.max_size
    assert report["invalidations"] >= EXTRA_DOCS


@pytest.mark.parametrize("placement", ["round_robin", "hash"])
def test_sharded_service_race_no_stale_results(prefix_oracles, placement):
    service = ShardedQueryService.from_documents(
        _documents(BASE_DOCS), num_shards=2, placement=placement
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")

    observed = _hammer(
        lambda xpath: service.execute(xpath, strategy="auto"),
        service.add_document,
    )
    # Scatter-gather: per-shard snapshots, no global snapshot — check
    # against every consistent cut.  The delta-to-shard assignment is
    # read back from the collection (both policies here are
    # deterministic, so the racing run used the same assignment).
    shard_deltas: list[list[int]] = [
        [] for _ in range(service.num_shards)
    ]
    for placement in service.topology.placements():
        if placement.ordinal >= BASE_DOCS:
            shard_deltas[placement.shard_index].append(placement.ordinal)
    allowed = _consistent_cut_answers(shard_deltas)
    _assert_answers_admissible(observed, allowed, "consistent cut")

    final = prefix_oracles[-1]
    for xpath in QUERIES:
        assert service.execute(xpath).ids == final[xpath]
        assert service.oracle(xpath) == final[xpath]
    service.close()


CHURN_CALLERS = 8
CHURN_INCARNATIONS = 10


def _race_callers_against_churn(service, caller_queries, ask=None, full_churn=False):
    """Race one churn writer against one thread per ``caller_queries`` entry.

    The writer adds and removes a ``churn`` document over and over
    (round-robin placement lands each incarnation on the next shard)
    while each caller keeps issuing its own queries through ``ask``
    (``xpath -> ids``; the service's own ``execute`` by default).  With
    ``full_churn`` every incarnation is also replaced by a different
    document and then moved one shard on before it is removed.

    State *s* is the collection after the writer's first *s*
    operations.  A *version* is one document the churn name stood for:
    its match ids per query, and the shard it lived on in each state it
    was alive in (a replace starts a new version with new ids, a move
    keeps the version and gives it a second home).  A query that read
    ``done == lo`` before it started and ``done == hi - 1`` after it
    returned can have observed states ``lo .. hi`` (operation ``hi``
    may have been in flight).  Its answer must be a consistent cut of
    that window: every base match, plus *whole* versions only, each
    alive in some state of the window, and no two read off the same
    shard (a leg sees one state of its shard).
    """
    if ask is None:
        def ask(xpath):
            return service.execute(xpath).ids

    queries = sorted({xpath for mine in caller_queries for xpath in mine})
    base = {xpath: set(service.oracle(xpath)) for xpath in queries}
    versions: list[dict] = []  # match ids per query, {alive state: shard}
    done = [0]  # operations the writer has finished
    observations: list[tuple[str, int, int, list[int]]] = []
    observations_lock = threading.Lock()
    errors: list[BaseException] = []
    writer_done = threading.Event()
    start = threading.Barrier(len(caller_queries) + 1)

    def finished(new_version: bool) -> int:
        """Count the operation that just returned; record what it left."""
        (placement,) = service.topology.placements_for("churn")
        if new_version:
            # Only this thread writes, so the oracle is stable here.
            ids = {
                xpath: set(service.oracle(xpath)) - base[xpath]
                for xpath in queries
            }
            versions.append({"ids": ids, "homes": {}})
        done[0] += 1
        versions[-1]["homes"][done[0]] = placement.shard_index
        return placement.shard_index

    def writer():
        try:
            start.wait(timeout=60)
            for _ in range(CHURN_INCARNATIONS):
                service.add_document(
                    generate_xmark(scale=0.015, seed=900, name="churn")
                )
                shard = finished(new_version=True)
                if full_churn:
                    service.replace_document(
                        "churn", generate_xmark(scale=0.015, seed=901, name="churn")
                    )
                    shard = finished(new_version=True)
                    service.move_document(
                        "churn", (shard + 1) % service.num_shards
                    )
                    finished(new_version=False)
                service.remove_document("churn")
                done[0] += 1
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            writer_done.set()

    def caller(mine):
        try:
            start.wait(timeout=60)
            rounds = 0
            while rounds < 10 or not writer_done.is_set():
                rounds += 1
                for xpath in mine:
                    lo = done[0]
                    ids = ask(xpath)
                    hi = done[0] + 1
                    with observations_lock:
                        observations.append((xpath, lo, hi, ids))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=caller, args=(mine,)) for mine in caller_queries
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings than the 5 ms default
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors

    assert {
        shard for version in versions for shard in version["homes"].values()
    } == {0, 1, 2, 3}
    assert any(ids for version in versions for ids in version["ids"].values())
    for xpath, lo, hi, ids in observations:
        assert ids == sorted(set(ids))
        assert base[xpath] <= set(ids), f"{xpath}: base matches missing"
        extra = set(ids) - base[xpath]
        seen = [version for version in versions if version["ids"][xpath] & extra]
        assert extra == set().union(*(version["ids"][xpath] for version in seen)), (
            f"{xpath}: torn read of a churn document"
        )
        homes = [
            {
                shard
                for state, shard in version["homes"].items()
                if lo <= state <= hi
            }
            for version in seen
        ]
        assert all(homes), (
            f"{xpath}: saw a version alive only outside [{lo}, {hi}]: "
            f"{[version['homes'] for version in seen]}"
        )
        assert any(
            len(set(shards)) == len(shards) for shards in itertools.product(*homes)
        ), f"{xpath}: two states of one shard"
    # The race was real: some query caught a churn document alive.
    assert any(set(ids) - base[xpath] for xpath, _, _, ids in observations)

    for xpath in queries:
        assert set(ask(xpath)) == base[xpath]


def _churn_tier(replicas: int = 1) -> ShardedQueryService:
    service = ShardedQueryService.from_documents(
        _documents(4), num_shards=4, placement="round_robin", replicas=replicas
    )
    service.build_index("rootpaths")
    service.build_index("datapaths")
    return service


def test_concurrent_scattered_queries_share_one_collection():
    """Eight callers scatter the same queries over the same shards under churn."""
    with _churn_tier() as service:
        _race_callers_against_churn(service, [QUERIES] * CHURN_CALLERS)


def test_concurrent_callers_share_one_prepared_plan_under_churn():
    """Plans shared between requests, replica locks and a writer stay sound.

    Eight callers open on the same never-seen text at once (the barrier
    lines their first plan-cache miss up), eight more each bring a text
    of their own (two shapes between them), and all sixteen then run
    legs of twigs bound from the same shapes on different replicas,
    under different replica locks, beside the add/remove writer.  Every
    answer must still be a consistent cut, and afterwards the tier holds
    one plan per shape — the object every later request binds from.
    """
    shared = "/site/people/person[profile/education]/name"
    own = [
        f"/site/people/person[profile/@income][address/city]/emailaddress[. = 'x{i}']"
        if i % 2
        else f"//open_auction[bidder/increase][@id = 'open_auction{i}']/current"
        for i in range(CHURN_CALLERS)
    ]
    with _churn_tier(replicas=2) as service:
        assert len(service.plan_cache) == 0
        _race_callers_against_churn(
            service,
            [(shared, QUERIES[0])] * CHURN_CALLERS
            + [(xpath, QUERIES[1]) for xpath in own],
        )
        # Exactly the shape keys of the texts asked: each normalised text
        # with its quoted literals lifted out (the callers' sixteen texts
        # are two shapes).
        assert set(service.plan_cache) == {
            tuple(re.split(r"'[^']*'", normalize_xpath(text)))
            for text in (shared, *own, *QUERIES[:2])
        }
        assert len(service.plan_cache) == 5
        plan = service.plan(shared)
        shape = plan.bound[0]
        assert service.plan(shared).bound[0] is shape
        assert shape.template.analysis is not None and plan.analysis is None
        assert service.execute(plan).ids == service.oracle(shared)
        for flavour, compiled in plan.compiled.items():
            assert compiled.analysis.twig is plan
            assert compiled.join is shape.template.compiled[flavour].join


def test_front_door_answers_stay_consistent_cuts_under_full_churn():
    """Landed answers, flights and gathers beside add/replace/move/remove.

    Eight callers ask through ``FrontDoor.handle`` -- one event loop,
    the answer cache on, coalescing on -- while the writer takes the
    churn document through every kind of write on a 4 x 2 tier.  An
    answer filed under a generation it was not computed at, or a flight
    that outlived a write, would hand some caller a version that was
    alive only outside its window.
    """
    loop = asyncio.new_event_loop()
    runner = threading.Thread(target=loop.run_forever)
    with _churn_tier(replicas=2) as service, FrontDoor(service) as door:

        def ask(xpath):
            response = asyncio.run_coroutine_threadsafe(
                door.handle(QueryRequest(xpath=xpath)), loop
            ).result(timeout=60)
            return list(response.ids)

        runner.start()
        try:
            _race_callers_against_churn(
                service, [QUERIES] * CHURN_CALLERS, ask=ask, full_churn=True
            )
        finally:
            loop.call_soon_threadsafe(loop.stop)
            runner.join(timeout=30)
            loop.close()
        # The race went through every path: landed, led and followed.
        assert service.answer_cache.hits > 0
        assert door.flights.flights_started > 0
        report = service.describe()["maintenance"]
        assert report["documents_replaced"] == CHURN_INCARNATIONS
        assert report["documents_moved"] == CHURN_INCARNATIONS
