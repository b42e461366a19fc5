"""The concurrent front door under load: coalescing and backpressure.

A load generator drives the asyncio front door with 100+ simulated
connections (one asyncio task per client, each issuing its requests
back-to-back) and pins the two throughput mechanisms the front door
exists for:

* **single-flight coalescing** on a hot-skewed mix — most clients ask
  the same hot query concurrently.  With coalescing off every arrival
  pays full execution; with it on, concurrent identical arrivals ride
  one execution.  The result cache is off throughout: this phase
  isolates what coalescing does for *in-flight* duplicates, which is
  exactly the window the result cache cannot cover.  Asserted: ≥3x qps.

* **bounded admission** under overload — 150 clients against 2
  execution slots and a tiny queue.  The door must shed (fast, typed
  rejects) rather than buffer: the queue never grows past its bound,
  rejects are orders of magnitude faster than service, and served p99
  stays proportional to the *bounded* queue, not to the offered load.

Fidelity is pinned before any clock starts: a single, never-concurrent
engine answers the whole query mix first, and every response any phase
serves is asserted bit-identical to that oracle.  Latency quantiles
come from the observability histogram layer
(``repro_frontdoor_latency_seconds``), not from ad-hoc timers.

``REPRO_FRONTDOOR_SMOKE=1`` (CI) shrinks per-client request counts
while keeping 100+ concurrent clients.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

import pytest

from repro import FrontDoor, QueryRequest, ShardedQueryService, TwigIndexDatabase
from repro.bench import format_table, write_bench_report
from repro.datasets import generate_xmark
from repro.frontdoor import RejectedError

#: Reduced-scale CI smoke: fewer requests per client; the client count
#: never drops below 100.
SMOKE = os.environ.get("REPRO_FRONTDOOR_SMOKE", "") not in ("", "0")

CLIENTS = 120
OVERLOAD_CLIENTS = 150
REQUESTS_PER_CLIENT = 3 if SMOKE else 6
CORPUS_DOCS = 4
CORPUS_SCALE = 0.02

#: The served mix: one hot query plus a uniform tail.
HOT_XPATH = "/site/people/person/name"
COLD_XPATHS = (
    "//person",
    "/site/open_auctions/open_auction",
    "//item/name",
    "/site/regions",
    "//open_auction/bidder",
    "/site/people/person",
    "//item",
)
ALL_XPATHS = (HOT_XPATH,) + COLD_XPATHS

#: Hot-skew: 8 of 10 requests hit the hot query.
HOT_SHARE = 0.8


def _documents():
    return [
        generate_xmark(scale=CORPUS_SCALE, seed=4200 + i, name=f"front-{i}")
        for i in range(CORPUS_DOCS)
    ]


def _sharded(num_shards: int) -> ShardedQueryService:
    service = ShardedQueryService.from_documents(
        _documents(), num_shards=num_shards, placement="round_robin"
    )
    service.build_index("rootpaths")
    return service


def _client_plan(client: int, requests: int, hot_share: float) -> list[str]:
    """Client ``client``'s deterministic request sequence."""
    rng = random.Random(10_000 + client)
    return [
        HOT_XPATH
        if rng.random() < hot_share
        else COLD_XPATHS[rng.randrange(len(COLD_XPATHS))]
        for _ in range(requests)
    ]


async def _drive(door: FrontDoor, plans: list[list[str]]):
    """All clients concurrently, each issuing its plan back-to-back.

    Returns ``(responses, rejections, elapsed_seconds)``; the clock
    brackets only the concurrent serving window.
    """

    async def client(plan: list[str]):
        served, rejected = [], 0
        for xpath in plan:
            try:
                served.append(
                    await door.handle(
                        QueryRequest(xpath=xpath, use_result_cache=False)
                    )
                )
            except RejectedError:
                rejected += 1
        return served, rejected

    loop = asyncio.get_running_loop()
    started = loop.time()
    outcomes = await asyncio.gather(*(client(plan) for plan in plans))
    elapsed = loop.time() - started
    responses = [response for served, _ in outcomes for response in served]
    rejections = sum(rejected for _, rejected in outcomes)
    return responses, rejections, elapsed


def _quantiles(door: FrontDoor, disposition: str) -> dict[str, float]:
    histogram = door.telemetry.metrics.histogram(
        "repro_frontdoor_latency_seconds",
        "Front-door request wall time, served vs rejected",
    )
    return {
        "p50": histogram.quantile(0.50, disposition=disposition),
        "p99": histogram.quantile(0.99, disposition=disposition),
    }


@pytest.fixture(scope="module")
def oracle():
    """The single never-concurrent engine's answers — the fidelity pin.

    Computed (and the per-query unloaded service times measured) before
    any load-phase clock starts; every phase asserts its served answers
    against these ids.
    """
    database = TwigIndexDatabase.from_documents(_documents())
    database.build_index("rootpaths")
    answers = {}
    for xpath in ALL_XPATHS:
        answers[xpath] = tuple(
            database.service.execute(xpath, use_result_cache=False).ids
        )
    return {"answers": answers}


def _assert_fidelity(responses, oracle) -> None:
    assert responses, "phase served nothing"
    for response in responses:
        assert response.ids == oracle["answers"][response.xpath], response.xpath


# ----------------------------------------------------------------------
# Phase 1: single-flight coalescing on the hot-skewed mix
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def coalescing(oracle):
    plans = [
        _client_plan(client, REQUESTS_PER_CLIENT, HOT_SHARE)
        for client in range(CLIENTS)
    ]
    measured = {}
    for label, coalesce in (("on", True), ("off", False)):
        with _sharded(2) as service:
            # The queue bound exceeds the client count: this phase
            # measures coalescing, not shedding (phase 2 does that).
            with FrontDoor(
                service, coalesce=coalesce, max_concurrency=8, max_queue=2 * CLIENTS
            ) as door:
                responses, rejections, elapsed = asyncio.run(
                    _drive(door, plans)
                )
                _assert_fidelity(responses, oracle)
                assert rejections == 0
                measured[label] = {
                    "clients": CLIENTS,
                    "requests": len(responses),
                    "qps": len(responses) / elapsed,
                    "elapsed": elapsed,
                    "executions": service.queries_executed,
                    "coalesced_hits": door.flights.coalesced_hits,
                    "flights": door.flights.flights_started,
                    **_quantiles(door, "served"),
                }
    measured["qps_ratio"] = measured["on"]["qps"] / measured["off"]["qps"]
    return measured


def test_coalescing_multiplies_hot_skewed_qps(coalescing):
    on, off = coalescing["on"], coalescing["off"]
    # Coalescing-off executed every request; on collapsed the hot
    # duplicates into a handful of flights.
    assert off["executions"] == off["requests"]
    assert on["executions"] == on["flights"]
    assert on["coalesced_hits"] > on["requests"] // 2
    assert on["executions"] < on["requests"] // 3
    assert coalescing["qps_ratio"] >= 3.0, coalescing


# ----------------------------------------------------------------------
# Phase 2: bounded admission under overload
# ----------------------------------------------------------------------
MAX_CONCURRENCY = 2
MAX_QUEUE = 6


@pytest.fixture(scope="module")
def backpressure(oracle):
    plans = [
        _client_plan(client, 2, hot_share=0.0)
        for client in range(OVERLOAD_CLIENTS)
    ]
    with _sharded(2) as service:
        with FrontDoor(
            service,
            coalesce=False,
            max_concurrency=MAX_CONCURRENCY,
            max_queue=MAX_QUEUE,
        ) as door:
            # Unloaded baseline: the whole mix served serially through
            # this door, fidelity-checked, worst per-query time kept as
            # the basis of the p99 bound below.
            async def serial_pass():
                worst = 0.0
                for xpath in ALL_XPATHS:
                    started = time.perf_counter()
                    response = await door.handle(
                        QueryRequest(xpath=xpath, use_result_cache=False)
                    )
                    worst = max(worst, time.perf_counter() - started)
                    assert response.ids == oracle["answers"][xpath]
                return worst

            worst_unloaded = asyncio.run(serial_pass())
            responses, rejections, elapsed = asyncio.run(_drive(door, plans))
            _assert_fidelity(responses, oracle)
            admission = door.admission.describe()
            measured = {
                "clients": OVERLOAD_CLIENTS,
                "max_concurrency": MAX_CONCURRENCY,
                "max_queue": MAX_QUEUE,
                "served": len(responses),
                "rejected": rejections,
                "qps": len(responses) / elapsed,
                "queue_peak": admission["queue_peak"],
                "rejected_queue": admission["rejected_queue"],
                "served_latency": _quantiles(door, "served"),
                "rejected_latency": _quantiles(door, "rejected"),
            }
    # Served p99 must be proportional to the *bounded* pipeline depth
    # (slots + queue) times one unloaded service time — not to the
    # 300-request offered load, which is what an unbounded queue would
    # make it track.
    measured["worst_unloaded"] = worst_unloaded
    measured["p99_bound"] = 4.0 * (MAX_CONCURRENCY + MAX_QUEUE) * worst_unloaded
    return measured


def test_overload_sheds_instead_of_buffering(backpressure):
    # The door shed real load, and the queue never outgrew its bound.
    assert backpressure["rejected"] > 0
    assert backpressure["rejected"] == backpressure["rejected_queue"]
    assert backpressure["queue_peak"] <= backpressure["max_queue"]
    assert (
        backpressure["served"] + backpressure["rejected"]
        == OVERLOAD_CLIENTS * 2
    )
    # Fast reject: rejections cost microseconds, far under service p50.
    rejected_p99 = backpressure["rejected_latency"]["p99"]
    assert rejected_p99 <= 0.05, backpressure
    assert rejected_p99 < backpressure["served_latency"]["p50"]
    # Bounded tail: p99 tracks the admission bound, not the client count.
    assert (
        backpressure["served_latency"]["p99"] <= backpressure["p99_bound"]
    ), backpressure


# ----------------------------------------------------------------------
# The artifact
# ----------------------------------------------------------------------
def test_write_report(coalescing, backpressure):
    summary = {
        "smoke": SMOKE,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "coalescing": coalescing,
        "backpressure": backpressure,
        "coalesce_qps_ratio": coalescing["qps_ratio"],
    }
    path = write_bench_report("frontdoor", summary)
    rows = [
        [
            "coalescing (hot-skewed)",
            f"{coalescing['off']['qps']:.0f}",
            f"{coalescing['on']['qps']:.0f}",
            f"{coalescing['qps_ratio']:.2f}x",
        ],
    ]
    print()
    print(
        format_table(
            ["phase", "baseline qps", "front door qps", "ratio"],
            rows,
            title=f"front door under {CLIENTS} concurrent clients -> {path}",
        )
    )
    print(
        f"backpressure: served={backpressure['served']} "
        f"rejected={backpressure['rejected']} "
        f"queue_peak={backpressure['queue_peak']}/{backpressure['max_queue']} "
        f"served p99={backpressure['served_latency']['p99'] * 1000:.1f}ms "
        f"(bound {backpressure['p99_bound'] * 1000:.1f}ms) "
        f"rejected p99={backpressure['rejected_latency']['p99'] * 1000:.2f}ms"
    )
