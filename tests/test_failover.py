"""Failover & self-driving operations: fault injection, revive, auto-rebalance.

The operations loop of the distributed tier, exercised deterministically
through :mod:`repro.faults` (seeded plans, call-count scheduling, no
wall-clock randomness anywhere):

* **fault plans and the injector proxy** — schedules validate, seeds
  reproduce, and the injector raises / delays / drifts exactly at the
  scheduled calls while delegating everything else;
* **the health state machine** — consecutive read failures demote a
  replica healthy → suspect → dead, reads retry on the next healthy
  replica (the caller never sees a survivable fault), pickers never
  select a dead replica, probation traffic redeems a recovered suspect;
* **the differential pin** — a seeded plan killing one replica of a
  3-replica shard mid-workload leaves every query answer bit-identical
  to a never-faulted single engine;
* **revive / re-sync** — a quarantined replica that missed writes is
  rebuilt from the primary's live documents (id gaps skipped and tag
  ids reserved, so both reproduce) and passes the alignment check — in
  a set of one too;
* **shared entry batches** — a secondary whose dictionaries diverged
  from the primary's is quarantined before it applies anything, and
  one whose apply raises is quarantined and revived;
* **watermark-triggered auto-rebalance** — the hysteresis band fires
  ``rebalance(policy)`` exactly once per sustained skew episode;
* **the satellite regressions** — ``invalidate`` under the write lock,
  ``cache_report`` recomputing ``hit_rate`` from summed counters, the
  bounded round-robin cursor, and the first-id index behind
  ``document_at``.
"""

from __future__ import annotations

import threading
import zlib

import pytest

from repro import ShardedQueryService, TwigIndexDatabase, parse_string
from repro.datasets import generate_xmark
from repro.errors import DocumentError, PlanningError, QueryParseError
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    inject,
)
from repro.service.base import cache_report
from repro.service.cache import LRUCache
from repro.shard import (
    REPLICA_DEAD,
    REPLICA_HEALTHY,
    REPLICA_SUSPECT,
    AutoRebalancer,
    RoundRobinPicker,
    Shard,
)

XPATH = "/site/people/person/name"


def _doc(i: int, scale: float = 0.01):
    return generate_xmark(scale=scale, seed=700 + i, name=f"doc-{i}")


def _replicated(replicas: int = 3, **options) -> Shard:
    shard = Shard(0, replicas=replicas, **options)
    for i in range(2):
        shard.add_document(_doc(i))
    shard.build_index("rootpaths")
    return shard


def _walk_to_dead(shard: Shard, slot: int) -> None:
    """Fail ``slot``'s reads until it is quarantined.

    The victim must already fail every call.  While another replica is
    live the reads retry there and answer; a set of one has no retry,
    so its reads raise until the health machine declares it dead.
    """
    while shard.health_report()["states"][slot] != REPLICA_DEAD:
        try:
            shard.execute(XPATH, use_result_cache=False)
        except (InjectedFault, DocumentError):
            assert shard.replica_count == 1
    if shard.replica_count == 1:
        with pytest.raises(DocumentError):  # no live replica left
            shard.execute(XPATH)


def _single_engine(*documents) -> TwigIndexDatabase:
    single = TwigIndexDatabase.from_documents(list(documents))
    single.build_index("rootpaths")
    return single


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultEvent(call=0)
    with pytest.raises(ValueError):
        FaultEvent(call=1, kind="meteor")
    with pytest.raises(ValueError):
        FaultEvent(call=1, kind="slow", delay_seconds=0.0)
    with pytest.raises(ValueError):
        FaultEvent(call=1, kind="diverge", drift=0)
    with pytest.raises(ValueError):  # two faults on one call
        FaultPlan([FaultEvent(call=3), FaultEvent(call=3, kind="slow", delay_seconds=1)])
    with pytest.raises(ValueError):
        FaultPlan.seeded(seed=1, horizon=10, rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan.seeded(seed=1, horizon=10, rate=0.5, kinds=("meteor",))


def test_seeded_plans_are_reproducible_and_wall_clock_free():
    first = FaultPlan.seeded(seed=42, horizon=200, rate=0.15, kinds=FAULT_KINDS)
    second = FaultPlan.seeded(seed=42, horizon=200, rate=0.15, kinds=FAULT_KINDS)
    assert first.events == second.events
    assert len(first) > 0
    assert all(1 <= event.call <= 200 for event in first.events)
    other = FaultPlan.seeded(seed=43, horizon=200, rate=0.15, kinds=FAULT_KINDS)
    assert first.events != other.events


def test_injector_fires_exactly_at_scheduled_calls_and_delegates():
    class Surface:
        watermark = 17

        def __init__(self):
            self.calls = 0

        def execute(self, xpath):
            self.calls += 1
            return f"answer-{self.calls}"

        def describe(self):
            return {"kind": "surface"}

    slept: list[float] = []
    surface = Surface()
    plan = FaultPlan(
        [
            FaultEvent(call=2, kind="error"),
            FaultEvent(call=4, kind="slow", delay_seconds=0.25),
            FaultEvent(call=5, kind="diverge", drift=3),
        ]
    )
    injector = FaultInjector(surface, plan, sleep=slept.append)

    assert injector.execute("q") == "answer-1"
    with pytest.raises(InjectedFault):
        injector.execute("q")
    assert surface.calls == 1  # the faulted call never reached the surface
    assert injector.watermark == 17
    assert injector.execute("q") == "answer-2"
    assert injector.execute("q") == "answer-3" and slept == [0.25]
    injector.execute("q")
    assert injector.watermark == 17 + 3  # diverge drift is permanent
    assert injector.calls_seen == 5
    assert [event.kind for event in injector.fired] == ["error", "slow", "diverge"]
    assert injector.describe() == {"kind": "surface"}  # transparent proxy


# ----------------------------------------------------------------------
# Health machine: retry, quarantine, probation
# ----------------------------------------------------------------------
def test_failed_read_retries_on_next_replica_and_caller_sees_no_error():
    shard = _replicated()
    expected = shard.primary.service.execute(XPATH, strategy="rootpaths").ids
    inject(shard, 1, FaultPlan.failing_at(1))
    for _ in range(6):
        assert shard.execute(XPATH, strategy="rootpaths").ids == expected
    report = shard.health_report()
    assert report["reads_retried"] >= 1
    assert shard.ops_stats.reads_retried >= 1


def test_picker_never_selects_a_dead_replica():
    # dead_after=1: the first failure quarantines the replica outright.
    shard = _replicated(dead_after=1)
    injector = inject(shard, 1, FaultPlan.failing_at(*range(1, 1000)))
    expected = shard.primary.service.execute(XPATH, strategy="rootpaths").ids
    for _ in range(30):
        assert shard.execute(XPATH, strategy="rootpaths").ids == expected
    report = shard.health_report()
    assert report["states"][1] == REPLICA_DEAD
    assert report["replicas_failed"] == 1
    # Exactly one read ever reached the dead replica: the one that
    # killed it.  Everything after routed around the quarantine.
    assert injector.calls_seen == 1
    assert shard.replica_reads[1] == 1


def test_consecutive_failures_walk_healthy_suspect_dead():
    shard = _replicated(suspect_after=1, dead_after=2, probe_interval=2)
    inject(shard, 2, FaultPlan.failing_at(*range(1, 1000)))
    seen: list[str] = []
    for _ in range(8):  # round-robin reaches the faulted replica, then probes it
        shard.execute(XPATH)
        seen.append(shard.health_report()["states"][2])
    assert REPLICA_SUSPECT in seen  # demoted before it died
    assert seen[-1] == REPLICA_DEAD
    # The walk is monotone: healthy* suspect* dead*.
    order = {REPLICA_HEALTHY: 0, REPLICA_SUSPECT: 1, REPLICA_DEAD: 2}
    assert [order[state] for state in seen] == sorted(order[state] for state in seen)


def test_probation_redeems_a_suspect_that_recovers():
    # The replica fails exactly once; the probe interval then routes a
    # read back to it, and the success redeems it to healthy.
    shard = _replicated(suspect_after=1, dead_after=3, probe_interval=4)
    inject(shard, 1, FaultPlan.failing_at(1))
    while shard.health_report()["states"][1] == REPLICA_HEALTHY:
        shard.execute(XPATH)  # round-robin reaches the fault within a cycle
    assert shard.health_report()["states"][1] == REPLICA_SUSPECT
    for _ in range(2 * 4):  # at least one probe window passes
        shard.execute(XPATH)
    report = shard.health_report()
    assert report["states"][1] == REPLICA_HEALTHY
    assert report["detail"][1]["successes"] >= 1


@pytest.mark.parametrize("replicas", [2, 1])
def test_all_replicas_dead_surfaces_an_error(replicas):
    shard = _replicated(replicas=replicas, dead_after=1)
    for slot in range(replicas):
        inject(shard, slot, FaultPlan.failing_at(*range(1, 100)))
    with pytest.raises((DocumentError, InjectedFault)):
        for _ in range(4):
            shard.execute(XPATH)
    with pytest.raises(DocumentError):
        shard.execute(XPATH)  # both quarantined: no live replica left


def test_query_errors_do_not_demote_health_or_retry():
    # A bad query fails identically on every replica: with the old
    # catch-everything demotion, repeating it dead_after times walked
    # the whole replica set (primary included) to dead and turned a
    # caller mistake into a permanent shard read outage.
    shard = _replicated(suspect_after=1, dead_after=2)
    expected = shard.primary.service.execute(XPATH, strategy="rootpaths").ids
    for _ in range(8):  # well past dead_after on every replica
        with pytest.raises(QueryParseError):
            shard.execute("not a query ((")
    report = shard.health_report()
    assert report["states"] == [REPLICA_HEALTHY] * 3
    assert report["reads_retried"] == 0
    assert report["replicas_failed"] == 0
    # Valid reads still serve afterwards.
    assert shard.execute(XPATH, strategy="rootpaths").ids == expected


def test_unknown_strategy_options_are_refused_before_any_replica():
    # An option the strategy's constructor does not take used to escape
    # as a bare TypeError: counted as a replica fault, six of them left
    # a shard with no live replica.  It is a PlanningError now, raised
    # before any replica is read.
    bad = [
        ("rootpaths", {"bogus": 1}),
        ("rootpaths", {"force_plan": "inl"}),
        ("rootpaths", {"stale": False}),
        ("datapaths", {"bogus": 1}),
        ("datapaths", {"stale": True}),
        ("edge", {"force_plan": "merge"}),
        ("join_index", {"stale": []}),
        ("auto", {"bogus": 1}),
        ("auto", {"stale": False}),
        ("auto", {"force_plan": "merge", "bogus": 1}),
    ]
    with ShardedQueryService.from_documents(
        [_doc(i) for i in range(4)], num_shards=2, replicas=2, placement="round_robin"
    ) as service:
        service.build_index("rootpaths")
        service.build_index("datapaths")
        for strategy, options in bad:
            with pytest.raises(PlanningError):
                service.execute(XPATH, strategy=strategy, use_result_cache=False, **options)
        for shard in service.shards:
            assert shard.replica_reads == [0, 0]
            assert shard.health_report()["states"] == [REPLICA_HEALTHY] * 2
        expected = service.oracle(XPATH)
        assert service.execute(XPATH).ids == expected
        # Under auto, force_plan goes only to DATAPATHS: where auto picks
        # ROOTPATHS it is dropped, not passed to a constructor without it.
        chosen = service.execute(XPATH, strategy="auto", force_plan="merge")
        assert chosen.strategy == "rootpaths" and chosen.ids == expected
    # The single-engine service runs the same check.
    database = TwigIndexDatabase.from_documents([_doc(0)])
    with pytest.raises(PlanningError):
        database.service.execute(XPATH, strategy="rootpaths", stale=False)
    with pytest.raises(PlanningError):
        database.query(XPATH, strategy="auto", bogus=1)


def test_divergent_secondary_is_quarantined_by_the_alignment_check():
    shard = _replicated()
    injector = inject(shard, 2, FaultPlan.diverging_at(1, drift=5))
    while not injector.fired:  # round-robin reaches replica 2 within a cycle
        shard.execute(XPATH)  # arms the drift on replica 2's watermark
    shard.add_document(_doc(7))  # write-through alignment catches it
    report = shard.health_report()
    assert report["states"][2] == REPLICA_DEAD
    assert "diverged" in report["detail"][2]["last_error"]
    assert report["replicas_failed"] == 1
    # The healthy replicas still agree and still serve.
    assert shard.replicas[0].watermark == shard.replicas[1].watermark
    shard.execute(XPATH)


@pytest.mark.parametrize("entry", ["build_index", "ensure_indexes_for"])
def test_a_failing_secondary_build_is_quarantined_and_every_shard_builds(
    entry, monkeypatch
):
    service = ShardedQueryService.from_documents(
        [_doc(i) for i in range(3)], num_shards=3, placement="round_robin", replicas=2
    )
    with service:
        service.build_index("rootpaths")
        victim = service.shards[0].replicas[1]

        def refuse(name, **options):
            raise InjectedFault(f"test: build of {name} refused")

        monkeypatch.setattr(victim.engine, "build_index", refuse)
        getattr(service, entry)("datapaths")  # the primary built: no raise
        report = service.shards[0].health_report()
        assert report["states"] == [REPLICA_HEALTHY, REPLICA_DEAD]
        assert f"write-through {entry} failed" in report["detail"][1]["last_error"]
        for shard in service.shards:
            states = shard.health_report()["states"]
            assert all(
                "datapaths" in replica.engine.indexes
                for replica, state in zip(shard.replicas, states)
                if state != REPLICA_DEAD
            ), shard.index
        assert service.execute(XPATH, strategy="datapaths").ids == service.oracle(XPATH)
        revived = service.revive_replica(0, 1)
        assert sorted(revived.engine.indexes) == ["datapaths", "rootpaths"]


# ----------------------------------------------------------------------
# The differential pin: seeded mid-workload kill vs a single engine
# ----------------------------------------------------------------------
def test_seeded_replica_kill_mid_workload_answers_identical_to_single_engine():
    parameters = [(0.015, 11), (0.02, 12), (0.015, 13)]

    def documents():
        return [
            generate_xmark(scale=scale, seed=seed, name=f"doc-{i}")
            for i, (scale, seed) in enumerate(parameters)
        ]

    single = TwigIndexDatabase.from_documents(documents())
    single.build_index("rootpaths")
    sharded = ShardedQueryService.from_documents(
        documents(), num_shards=2, placement="hash", replicas=3
    )
    sharded.build_index("rootpaths")

    plan = FaultPlan.seeded(seed=20260808, horizon=30, rate=0.4)
    injectors = [
        inject(sharded.shards[0], 1, plan),
        inject(sharded.shards[1], 2, plan),
    ]
    workload = [
        XPATH,
        "//person[name='Hagen Artosi']",
        "/site/open_auctions/open_auction/time",
        "//item[location]",
    ]
    for round_number in range(8):
        for xpath in workload:
            expected = single.service.execute(xpath, strategy="rootpaths").ids
            got = sharded.execute(
                xpath, strategy="rootpaths", use_result_cache=round_number % 2 == 0
            ).ids
            assert got == expected, xpath
    # The faults really fired and the tier really failed over.
    assert any(injector.fired for injector in injectors)
    failover = sharded.describe()["operations"]["failover"]
    assert failover["reads_retried"] >= 1
    sharded.close()


# ----------------------------------------------------------------------
# Revive / re-sync
# ----------------------------------------------------------------------
@pytest.mark.parametrize("replicas", [3, 1])
def test_revive_replays_live_documents_through_removal_gaps(replicas):
    # The victim is a secondary, or in a set of one the primary itself.
    victim = min(1, replicas - 1)
    shard = _replicated(replicas=replicas, dead_after=1)
    shard.remove_document("doc-0")  # leaves an id gap in the replay
    inject(shard, victim, FaultPlan.failing_at(*range(1, 100)))
    _walk_to_dead(shard, victim)
    # Writes land while the replica is quarantined: a secondary misses
    # them, the primary (the source of truth) never does.
    shard.add_document(_doc(5))
    if victim:
        assert shard.replicas[victim].watermark != shard.primary.watermark
    watermark = shard.primary.watermark

    revived = shard.revive(victim)
    assert shard.replicas[victim] is revived  # injector discarded with the slot
    assert revived.watermark == shard.primary.watermark == watermark
    assert revived.document_count == shard.primary.document_count
    assert sorted(revived.engine.indexes) == sorted(shard.primary.engine.indexes)
    # The rebuilt replica assigns exactly the primary's node ids, which
    # are a single engine's after the same writes.
    single = _single_engine(_doc(0), _doc(1))
    single.service.remove_document("doc-0")
    single.add_document(_doc(5))
    expected = single.service.execute(XPATH, strategy="rootpaths").ids
    assert revived.service.execute(XPATH, strategy="rootpaths").ids == expected
    assert shard.primary.service.execute(XPATH, strategy="rootpaths").ids == expected
    report = shard.health_report()
    assert report["states"][victim] == REPLICA_HEALTHY
    assert report["replicas_revived"] == 1
    # The next write-through alignment check passes with all replicas.
    shard.add_document(_doc(6))
    assert len({replica.watermark for replica in shard.replicas}) == 1


@pytest.mark.parametrize("replicas", [3, 1])
def test_revive_is_monotone_in_the_merged_stats(replicas):
    victim = min(1, replicas - 1)
    shard = _replicated(replicas=replicas, dead_after=1)
    inject(shard, victim, FaultPlan.failing_at(*range(1, 100)))
    _walk_to_dead(shard, victim)
    before = shard.stats_snapshot()
    shard.revive(victim)
    after = shard.stats_snapshot()
    assert all(after[key] >= value for key, value in before.items())
    assert after["replicas_revived"] == 1


@pytest.mark.parametrize("replicas", [2, 1])
def test_revive_never_moves_a_generation_component_back(replicas):
    # Removals before the kill: the replay is shorter than the history,
    # so a fresh engine counting only its replay would land its epoch
    # below the retired one's.
    victim = replicas - 1
    with ShardedQueryService.from_documents(
        [_doc(i) for i in range(6)], num_shards=1, replicas=replicas
    ) as service:
        service.build_index("rootpaths")
        for i in range(1, 5):
            service.remove_document(f"doc-{i}")
        shard = service.shards[0]
        shard.dead_after = 1
        before = service.generation()
        inject(shard, victim, FaultPlan.failing_at(*range(1, 100)))
        _walk_to_dead(shard, victim)
        service.revive_replica(0, victim)
        after = service.generation()
    assert all(new >= old for old, new in zip(before, after))
    assert after[1 + victim] > before[1 + victim]


def test_revive_stays_exact_under_remove_readd_churn():
    # Constant corpus, endless remove/re-add churn.  Small docs keep
    # the loop fast.
    shard = _replicated(replicas=2, dead_after=1)
    for i in range(70):
        name = f"doc-{i % 2}"
        shard.remove_document(name)
        shard.add_document(
            generate_xmark(scale=0.005, seed=900 + i, name=name)
        )
    # The replay (live adds + id-gap entries) still re-syncs a replica
    # to exactly the primary's ids through the removal gaps.
    inject(shard, 1, FaultPlan.failing_at(*range(1, 100)))
    for _ in range(4):
        shard.execute(XPATH)
    assert shard.health_report()["states"][1] == REPLICA_DEAD
    shard.add_document(_doc(8))  # a write the quarantined replica misses
    revived = shard.revive(1)
    assert revived.watermark == shard.primary.watermark
    assert revived.document_count == shard.primary.document_count
    assert (
        revived.service.execute(XPATH, strategy="rootpaths").ids
        == shard.primary.service.execute(XPATH, strategy="rootpaths").ids
    )


def _index_snapshot(replica) -> dict:
    """Every built index's entries and counters, in comparable form."""
    return {
        name: (list(index._tree.scan_all()), index.entry_count, dict(index.stat_counts))
        for name, index in sorted(replica.engine.indexes.items())
    }


def test_revive_reproduces_the_primarys_tag_ids():
    shard = Shard(0, replicas=2)
    shard.add_document(parse_string("<a><x>1</x></a>", name="A"))
    shard.add_document(parse_string("<b><y>2</y></b>", name="B"))
    shard.build_index("rootpaths")
    shard.remove_document("A")  # releases a and x; the replay never sees them
    revived = shard.revive(1)
    tags, revived_tags = shard.primary.db.tags, revived.db.tags
    assert list(revived_tags) == list(tags) == ["a", "x", "b", "y"]
    for label in ("a", "x", "b", "y"):
        assert revived_tags.id_of(label) == tags.id_of(label), label
    assert tags.id_of("a") is None and tags.id_of("b") == 3
    # The revived replica applies the primary's next batches exactly.
    shard.add_document(parse_string("<a><z>3</z></a>", name="C"))
    assert shard.health_report()["states"] == [REPLICA_HEALTHY, REPLICA_HEALTHY]
    assert _index_snapshot(revived) == _index_snapshot(shard.primary)
    assert list(revived_tags) == list(tags)


def test_a_secondary_with_a_planted_tag_id_is_quarantined_untouched():
    shard = _replicated(replicas=2)
    secondary = shard.replicas[1]
    secondary.db.tags.intern("planted")  # one id the primary never assigned
    before = _index_snapshot(secondary)
    shard.add_document(_doc(7))
    report = shard.health_report()
    assert report["states"] == [REPLICA_HEALTHY, REPLICA_DEAD]
    assert "rootpaths diverged: tag and path ids" in report["detail"][1]["last_error"]
    assert _index_snapshot(secondary) == before
    revived = shard.revive(1)
    assert _index_snapshot(revived) == _index_snapshot(shard.primary)


@pytest.mark.parametrize("write", ["add", "remove"])
def test_a_secondary_whose_apply_raises_is_quarantined_and_revived(write, monkeypatch):
    shard = _replicated(replicas=2)

    def refuse(batch):
        raise InjectedFault("test: apply refused")

    monkeypatch.setattr(shard.replicas[1].engine.indexes["rootpaths"], "apply", refuse)
    if write == "add":
        shard.add_document(_doc(7))
    else:
        shard.remove_document("doc-0")
    report = shard.health_report()
    assert report["states"] == [REPLICA_HEALTHY, REPLICA_DEAD]
    assert f"write-through {write} failed" in report["detail"][1]["last_error"]
    assert "apply refused" in report["detail"][1]["last_error"]
    revived = shard.revive(1)
    assert shard.health_report()["states"] == [REPLICA_HEALTHY, REPLICA_HEALTHY]
    assert _index_snapshot(revived) == _index_snapshot(shard.primary)
    shard.add_document(_doc(8))
    assert shard.health_report()["states"] == [REPLICA_HEALTHY, REPLICA_HEALTHY]
    assert (
        revived.service.execute(XPATH, strategy="rootpaths").ids
        == shard.primary.service.execute(XPATH, strategy="rootpaths").ids
    )


def test_service_revive_passthrough_and_validation():
    service = ShardedQueryService.from_documents(
        [_doc(0), _doc(1)], num_shards=2, placement="round_robin", replicas=2
    )
    revived = service.revive_replica(0, 1)
    assert revived.watermark == service.shards[0].primary.watermark
    with pytest.raises(DocumentError):
        service.revive_replica(7, 0)
    with pytest.raises(DocumentError):
        service.revive_replica(0, 9)
    service.close()
    # A set of one: its only replica walks to dead, reads raise the
    # typed error, and reviving slot 0 restores single-engine answers.
    plain = ShardedQueryService.from_documents([_doc(0), _doc(1)], num_shards=1)
    plain.build_index("rootpaths")
    expected = _single_engine(_doc(0), _doc(1)).service.execute(XPATH).ids
    inject(plain.shards[0], 0, FaultPlan.failing_at(*range(1, 100)))
    _walk_to_dead(plain.shards[0], 0)
    with pytest.raises(DocumentError):
        plain.execute(XPATH, use_result_cache=False)
    plain.revive_replica(0, 0)
    assert plain.execute(XPATH, use_result_cache=False).ids == expected
    with pytest.raises(DocumentError):
        plain.revive_replica(0, 1)
    plain.close()


# ----------------------------------------------------------------------
# Watermark-triggered auto-rebalance
# ----------------------------------------------------------------------
def _colliding_name(base: str, num_shards: int) -> str:
    """A document name whose CRC32 routes to shard 0."""
    for salt in range(10_000):
        name = f"{base}-{salt}"
        if zlib.crc32(name.encode("utf-8")) % num_shards == 0:
            return name
    raise AssertionError("no colliding name found")  # pragma: no cover


def _skewed_tier(num_docs: int = 6) -> ShardedQueryService:
    tier = ShardedQueryService(num_shards=2, placement="hash")
    for i in range(num_docs):
        tier.add_document(
            generate_xmark(scale=0.01, seed=500 + i, name=_colliding_name(f"s-{i}", 2))
        )
    return tier


def test_auto_rebalance_fires_exactly_once_per_sustained_skew_episode():
    tier = _skewed_tier()
    # policy="hash" re-places the colliding corpus right back onto shard
    # 0, so the skew *stays* at the high watermark after the fire — the
    # sustained-episode case the hysteresis band must not re-fire on.
    auto = AutoRebalancer(
        tier,
        policy="hash",
        high_watermark=2.0,
        low_watermark=1.25,
        check_interval=1,
        background=False,
        enabled=True,
    )
    assert auto.check()["fired"]
    for _ in range(5):
        assert not auto.check()["fired"]  # skew still high, trigger disarmed
    assert auto.stats.auto_rebalances == 1

    # The episode ends only when measured skew drains below the low
    # watermark; the next check re-arms without firing.
    tier.rebalance("size_balanced")
    record = auto.check()
    assert not record["fired"]
    assert auto.describe()["armed"]

    # A second sustained episode fires exactly once more.
    for placement in tier.topology.placements():
        tier.move_document(placement, 0)
    assert auto.check()["fired"]
    for _ in range(5):
        assert not auto.check()["fired"]
    assert auto.stats.auto_rebalances == 2
    assert auto.describe()["episodes_total"] == 2
    auto.close()


def test_auto_rebalance_respects_min_documents_and_hysteresis_band():
    tier = _skewed_tier(num_docs=2)  # ratio 2.0 but tiny corpus
    auto = AutoRebalancer(
        tier, check_interval=1, background=False, enabled=True
    )
    assert tier.topology.skew()["ratio"] == 2.0
    assert not auto.check()["fired"]  # below min_documents (2 * num_shards)
    with pytest.raises(ValueError):
        AutoRebalancer(tier, high_watermark=1.2, low_watermark=1.5)
    with pytest.raises(ValueError):
        AutoRebalancer(tier, check_interval=0)
    auto.close()


def test_service_drives_auto_rebalance_between_queries():
    documents = [
        generate_xmark(scale=0.01, seed=300 + i, name=_colliding_name(f"q-{i}", 2))
        for i in range(6)
    ]
    service = ShardedQueryService.from_documents(
        documents,
        num_shards=2,
        placement="hash",
        auto_rebalance=True,
        rebalance_interval=2,
        rebalance_background=False,  # inline, so assertions are deterministic
    )
    service.build_index("rootpaths")
    assert service.topology.skew()["ratio"] == 2.0
    expected = service.oracle(XPATH)
    for _ in range(8):
        assert service.execute(XPATH, use_result_cache=False).ids == expected
    operations = service.describe()["operations"]["auto_rebalance"]
    assert operations["auto_rebalances"] == 1  # once, not once per check
    assert operations["episodes_total"] == 1
    assert operations["last_skew"]["ratio"] < 1.25  # skew drained
    weights = service.topology.shard_node_weights()
    assert all(weight > 0 for weight in weights)
    # The activity counter rides the shared stats machinery.
    assert service._counter_totals()["auto_rebalances"] == 1
    service.close()


def test_plan_rebalance_skips_placements_retired_mid_plan(monkeypatch):
    # A removal racing the planner can retire a placement (and detach
    # its shard-side document) after the placements() snapshot; the
    # plan must skip it, not abort — from a background auto-rebalance
    # an abort would surface as an operations failure.
    tier = _skewed_tier()
    stale = tier.topology.placements()
    retired = stale[0]
    tier.remove_document(retired.name)
    monkeypatch.setattr(tier.topology, "placements", lambda: stale)
    moves = tier.plan_rebalance()
    assert all(move.placement is not retired for move in moves)


def test_background_rebalance_failure_is_status_not_a_query_error(monkeypatch):
    documents = [
        generate_xmark(scale=0.01, seed=400 + i, name=_colliding_name(f"f-{i}", 2))
        for i in range(6)
    ]
    service = ShardedQueryService.from_documents(
        documents,
        num_shards=2,
        placement="hash",
        auto_rebalance=True,
        rebalance_interval=1,
    )
    service.build_index("rootpaths")

    def boom(policy, compact=False):
        raise RuntimeError("rebalance exploded")

    monkeypatch.setattr(service, "rebalance", boom)
    expected = service.oracle(XPATH)
    # The trigger fires on the first tick and the background run fails;
    # no later query (whose answer was already gathered) may lose its
    # result to that failure.
    for _ in range(6):
        assert service.execute(XPATH, use_result_cache=False).ids == expected
    assert service.operations.drain() is None  # never completed a run
    operations = service.describe()["operations"]["auto_rebalance"]
    assert operations["auto_rebalances"] == 0
    assert operations["auto_rebalance_failures"] >= 1
    assert "rebalance exploded" in operations["last_error"]
    assert "error" in operations["episodes"][-1]
    service.close()


def test_fired_background_run_is_published_before_check_returns():
    # The future must be published atomically with the firing decision:
    # a drain() racing the check may never observe a fired-but-
    # unpublished run and return with pre-rebalance state.
    tier = _skewed_tier()
    auto = AutoRebalancer(
        tier, check_interval=1, background=True, enabled=True
    )
    release = threading.Event()
    real_rebalance = tier.rebalance

    def gated(policy, compact=False):
        assert release.wait(10)
        return real_rebalance(policy)

    tier.rebalance = gated
    try:
        record = auto.check()
        assert record["fired"]
        assert auto.describe()["in_flight"]  # visible before any sync point
    finally:
        release.set()
    report = auto.drain()
    assert report is not None
    assert auto.stats.auto_rebalances == 1
    auto.close()


def test_disabled_auto_rebalance_never_checks():
    service = ShardedQueryService.from_documents(
        [_doc(0), _doc(1)], num_shards=2, placement="hash"
    )
    for _ in range(5):
        service.execute(XPATH)
    operations = service.describe()["operations"]["auto_rebalance"]
    assert not operations["enabled"]
    assert operations["checks"] == 0
    assert operations["auto_rebalances"] == 0
    service.close()


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------
def test_invalidate_takes_the_write_lock():
    shard = _replicated(replicas=2)
    finished = threading.Event()

    def invalidate():
        shard.invalidate()
        finished.set()

    with shard.add_lock:
        worker = threading.Thread(target=invalidate)
        worker.start()
        assert not finished.wait(0.15)  # blocked behind the write lock
    worker.join(timeout=5)
    assert finished.is_set()


def test_invalidate_racing_write_through_leaves_replicas_consistent():
    shard = _replicated(replicas=3)
    stop = threading.Event()
    errors: list[BaseException] = []

    def sweep():
        try:
            while not stop.is_set():
                shard.invalidate()
        except BaseException as error:  # pragma: no cover - failure path
            errors.append(error)

    sweeper = threading.Thread(target=sweep)
    sweeper.start()
    try:
        for i in range(8):
            shard.add_document(_doc(20 + i, scale=0.005))
    finally:
        stop.set()
        sweeper.join(timeout=10)
    assert not errors
    # No torn interleaving: replicas aligned, healthy, answers equal.
    assert len({replica.watermark for replica in shard.replicas}) == 1
    assert shard.health_report()["dead"] == 0
    answers = {
        tuple(replica.service.execute(XPATH, strategy="rootpaths").ids)
        for replica in shard.replicas
    }
    assert len(answers) == 1


def test_cache_report_recomputes_hit_rate_from_summed_counters():
    warm, cold = LRUCache(64), LRUCache(64)
    warm.put("q", 1)
    for _ in range(9):
        warm.get("q")
    for _ in range(10):
        cold.get("q")
    warm.get("other")
    assert (warm.hit_rate, cold.hit_rate) == (0.9, 0.0)
    pairs = [("result", warm), ("shard0-result", cold), ("answer", cold)]
    (merged,) = cache_report(pairs[:2], group=lambda name: "all").values()
    assert merged["hits"] == 9 and merged["misses"] == 11
    assert merged["hit_rate"] == pytest.approx(0.45)  # not the first's 0.9
    # Configuration is never summed (two 64-entry caches are not one
    # of 128): it stays on each cache's own describe().
    assert "max_size" not in merged and "ttl_seconds" not in merged
    per_name = cache_report(pairs + [("result", cold)])
    assert per_name["result"]["hit_rate"] == pytest.approx(0.45)
    assert per_name["shard0-result"]["hit_rate"] == 0.0


def test_replicated_shard_hit_rate_reflects_all_replicas():
    # Sticky affinity drives all traffic for one query to one replica;
    # the shard-level rate must fold every replica's counters, not copy
    # the primary's.
    shard = _replicated(read_picker="sticky")
    for _ in range(6):
        shard.execute(XPATH)
    report = shard.describe()["service"]["result_cache"]
    assert report["hit_rate"] == pytest.approx(
        report["hits"] / (report["hits"] + report["misses"])
    )


def test_round_robin_cursor_stays_bounded():
    picker = RoundRobinPicker()
    picks = [picker.pick([0, 0, 0], "q") for _ in range(1000)]
    assert picks[:6] == [0, 1, 2, 0, 1, 2]  # the cycle is unchanged
    assert picker._cursor < 3


def test_lru_hit_rate_is_read_under_the_lock():
    cache = LRUCache(max_size=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    assert cache.hit_rate == pytest.approx(0.5)
    # Concurrent readers always observe a rate a consistent counter
    # pair could produce.
    stop = threading.Event()
    rates: list[float] = []

    def read():
        while not stop.is_set():
            rates.append(cache.hit_rate)

    reader = threading.Thread(target=read)
    reader.start()
    try:
        for i in range(2000):
            cache.put(i % 8, i)
            cache.get(i % 8)
    finally:
        stop.set()
        reader.join(timeout=10)
    assert all(0.0 <= rate <= 1.0 for rate in rates)


@pytest.mark.parametrize("replicas", [1, 3])
def test_document_at_index_tracks_add_remove_churn(replicas):
    shard = _replicated(replicas=replicas)
    first = shard.primary.db.documents[0]
    assert shard.document_at(first.first_id) is first
    removed = shard.remove_document("doc-0")
    with pytest.raises(DocumentError):
        shard.document_at(removed.first_id)
    added = shard.add_document(_doc(9))
    assert shard.document_at(added.first_id) is added
    with pytest.raises(DocumentError):
        shard.document_at(10**9)
