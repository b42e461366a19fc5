"""The concurrent front door: coalescing, admission, HTTP, lifecycles.

The contracts pinned here, roughly in pipeline order:

* **models** — typed validation rejects malformed bodies with a 400
  before any engine work; requests round-trip through their dict shape;
* **coalescing** — N concurrent identical queries produce exactly one
  engine execution and bit-identical answers; a generation bump (any
  write) splits the flight so a post-write arrival never rides a
  pre-write execution; a leader's failure fans out to its followers;
* **admission** — token buckets refill on an injected clock; quota and
  queue-full rejections are typed and *fast* (the queue never grows
  past its bound); drain stops new work and waits for admitted work;
* **scatter** — legs run in shard order on the caller's thread: a
  failing leg surfaces its error, later legs never start, and the
  service keeps serving;
* **HTTP** — the stdlib server round-trips queries, serves the
  observability surface, and maps every rejection to its status code;
* **lifecycle** — services and the front door are context managers,
  and close is idempotent.

Event-loop tests run under ``asyncio.run`` directly (the container has
no pytest-asyncio); blocking points are gated on ``threading.Event`` so
every race in here is deterministic, never timing-based.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import threading
import urllib.error
import urllib.request
from types import MappingProxyType

import pytest

from repro import (
    FrontDoor,
    FrontDoorServer,
    QueryRequest,
    ShardedQueryService,
    TwigIndexDatabase,
)
from repro.datasets import generate_xmark
from repro.errors import PlanningError
from repro.frontdoor import (
    AdmissionController,
    BadRequestError,
    DrainingError,
    QueueFullError,
    QuotaExceededError,
    SingleFlight,
    TokenBucket,
    error_body,
)

XPATH = "/site/people/person/name"
OTHER_XPATHS = (
    "//person",
    "/site/open_auctions/open_auction",
    "//item/name",
    "/site/regions",
)


def _documents(count: int = 3, scale: float = 0.01):
    return [
        generate_xmark(scale=scale, seed=700 + i, name=f"fd-{i}")
        for i in range(count)
    ]


def _service(**kwargs) -> ShardedQueryService:
    service = ShardedQueryService.from_documents(
        _documents(), num_shards=2, placement="round_robin", **kwargs
    )
    service.build_index("rootpaths")
    return service


@pytest.fixture()
def service():
    with _service() as svc:
        yield svc


class _Gate:
    """Counts engine executions and holds them at a deterministic gate."""

    def __init__(self, service, blocking: bool = True):
        self.calls = 0
        self.release = threading.Event()
        if not blocking:
            self.release.set()
        self._lock = threading.Lock()
        self._real = service.execute
        service.execute = self._wrapped  # instance attr shadows the method

    def _wrapped(self, *args, **kwargs):
        with self._lock:
            self.calls += 1
        assert self.release.wait(timeout=30), "gate never released"
        return self._real(*args, **kwargs)


async def _until(condition, timeout: float = 10.0) -> None:
    for _ in range(int(timeout / 0.005)):
        if condition():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"condition never held: {condition}")


# ----------------------------------------------------------------------
# Request/response models
# ----------------------------------------------------------------------
_FIELDS = "['xpath', 'strategy', 'tenant', 'use_result_cache', 'documents', 'query_id', 'options']"

#: Body -> its exact 400 message.  Checks run in field order, so a body
#: with two faults names the first field's.
REJECTED = [
    ("not an object", "request body must be a JSON object, got str"),
    ({}, "request is missing the required 'xpath' field"),
    ({"xpath": ""}, "'xpath' must be a non-empty string"),
    ({"xpath": 7}, "'xpath' must be a non-empty string"),
    ({"xpath": XPATH, "bogus": 1}, f"unknown request field(s) ['bogus']; expected a subset of {_FIELDS}"),
    ({"xpath": XPATH, "strategy": ""}, "'strategy' must be a non-empty string"),
    ({"xpath": XPATH, "tenant": 5}, "'tenant' must be a non-empty string"),
    ({"xpath": XPATH, "use_result_cache": "yes"}, "'use_result_cache' must be a boolean"),
    ({"xpath": XPATH, "documents": "doc-1"}, "'documents' must be a list of document names"),
    ({"xpath": XPATH, "documents": [1, 2]}, "'documents' must be a list of document names"),
    ({"xpath": XPATH, "query_id": 9}, "'query_id' must be a string"),
    ({"xpath": XPATH, "options": [1]}, "'options' must be an object with string keys"),
    ({"xpath": XPATH, "options": {1: "x"}}, "'options' must be an object with string keys"),
    ([XPATH], "request body must be a JSON object, got list"),
    ({"xpath": XPATH, "documents": ""}, "'documents' must be a list of document names"),
    ({"xpath": XPATH, "use_result_cache": 1}, "'use_result_cache' must be a boolean"),
    ({"xpath": " \t\n "}, "'xpath' must be a non-empty string"),
    ({"xpath": XPATH, "options": None}, "'options' must be an object with string keys"),
    ({"xpath": XPATH, "documents": {"a": 1}}, "'documents' must be a list of document names"),
    ({"zeta": 1, "alpha": 2}, f"unknown request field(s) ['alpha', 'zeta']; expected a subset of {_FIELDS}"),
    ({"tenant": 5, "strategy": "", "xpath": XPATH}, "'strategy' must be a non-empty string"),
]


@pytest.mark.parametrize(
    "body, message", REJECTED, ids=[f"body{i}" for i in range(len(REJECTED))]
)
def test_request_validation_rejects(body, message):
    with pytest.raises(BadRequestError) as excinfo:
        QueryRequest.from_dict(body)
    assert str(excinfo.value) == message
    assert excinfo.value.status == 400
    assert error_body(excinfo.value)["error"] == "bad-request"


def test_request_round_trips_through_dict():
    request = QueryRequest.from_dict(
        {
            "xpath": XPATH,
            "strategy": "rootpaths",
            "tenant": "acme",
            "use_result_cache": False,
            "documents": ["fd-0", "fd-2"],
            "query_id": "q-1",
            "options": {"limit": 5},
        }
    )
    assert request.documents == ("fd-0", "fd-2")
    assert QueryRequest.from_dict(request.to_dict()) == request
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.xpath = "/site"  # type: ignore[misc]


def test_request_validation_accepts_any_mapping_and_sequence():
    """Past the JSON types' fast checks, the abstract ones still admit."""
    body = MappingProxyType(
        {"xpath": XPATH, "documents": ("fd-0",), "options": MappingProxyType({"limit": 5})}
    )
    request = QueryRequest.from_dict(body)
    assert request == QueryRequest(xpath=XPATH, documents=("fd-0",), options={"limit": 5})
    assert type(request.options) is dict


def test_rejection_bodies_carry_retry_after():
    body = error_body(QuotaExceededError("slow down", retry_after=1.25))
    assert body == {
        "error": "quota-exceeded",
        "status": 429,
        "message": "slow down",
        "retry_after": 1.25,
    }


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------
def test_concurrent_identical_queries_execute_once(service):
    """N identical concurrent queries: one engine run, identical bits."""
    clients = 12
    gate = _Gate(service)
    expected = None

    async def main():
        with FrontDoor(service, max_concurrency=8) as door:
            tasks = [
                asyncio.ensure_future(
                    door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
                )
                for _ in range(clients)
            ]
            # Every follower must have joined the leader's flight before
            # the engine is allowed to answer.
            await _until(lambda: door.flights.coalesced_hits == clients - 1)
            gate.release.set()
            responses = await asyncio.gather(*tasks)
            return responses

    responses = asyncio.run(main())
    assert gate.calls == 1
    assert service.stats.queries_executed == 1
    answers = {response.ids for response in responses}
    assert len(answers) == 1
    assert sum(1 for r in responses if not r.coalesced) == 1
    assert sum(1 for r in responses if r.coalesced) == clients - 1
    expected = service.oracle(XPATH)
    assert answers == {tuple(expected)}


def test_coalescing_disabled_executes_every_request(service):
    gate = _Gate(service, blocking=False)

    async def main():
        with FrontDoor(service, coalesce=False, max_concurrency=8) as door:
            await asyncio.gather(
                *(
                    door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
                    for _ in range(5)
                )
            )
            return door.flights.uncoalesced

    uncoalesced = asyncio.run(main())
    assert gate.calls == 5
    assert uncoalesced == 5


def test_generation_bump_splits_the_flight(service):
    """A write between two arrivals must start a fresh flight."""
    gate = _Gate(service)

    async def main():
        with FrontDoor(service, max_concurrency=8) as door:
            generation_before = service.generation()
            first = asyncio.ensure_future(
                door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
            )
            await _until(lambda: gate.calls == 1)
            # The write lands while the first flight is still executing
            # (the gate holds it), bumping the generation fingerprint.
            service.add_document(
                generate_xmark(scale=0.01, seed=999, name="fd-delta")
            )
            assert service.generation() != generation_before
            second = asyncio.ensure_future(
                door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
            )
            await _until(lambda: gate.calls == 2)
            gate.release.set()
            responses = await asyncio.gather(first, second)
            return responses, door.flights.describe()

    (first, second), flights = asyncio.run(main())
    assert flights["flights_started"] == 2
    assert flights["coalesced_hits"] == 0
    assert not first.coalesced and not second.coalesced
    # Both executions ran after the write committed, so both answers
    # must be the post-write oracle (the second by contract; the first
    # because the sharded tier reads each shard's current snapshot).
    assert second.ids == tuple(service.oracle(XPATH))


def test_generation_stable_across_reads(service):
    before = service.generation()
    service.execute(XPATH)
    assert service.generation() == before
    service.add_document(generate_xmark(scale=0.01, seed=998, name="fd-gen"))
    assert service.generation() != before


def test_leader_failure_fans_out_to_followers():
    """Followers asked the same question; they get the same error."""

    async def main():
        flights = SingleFlight()
        started = asyncio.Event()
        release = asyncio.Event()

        async def boom():
            started.set()
            await release.wait()
            raise RuntimeError("leader failed")

        async def fly():
            return await flights.run("key", boom)

        leader = asyncio.ensure_future(fly())
        await started.wait()
        followers = [asyncio.ensure_future(fly()) for _ in range(3)]
        await _until(lambda: flights.coalesced_hits == 3)
        release.set()
        outcomes = await asyncio.gather(
            leader, *followers, return_exceptions=True
        )
        assert flights.flights_started == 1
        return outcomes

    outcomes = asyncio.run(main())
    assert len(outcomes) == 4
    assert all(
        isinstance(outcome, RuntimeError) and str(outcome) == "leader failed"
        for outcome in outcomes
    )


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_token_bucket_refills_on_injected_clock():
    clock = {"now": 0.0}
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock["now"])
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    assert bucket.retry_after() == pytest.approx(0.5)
    clock["now"] = 0.5  # one token refilled
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    assert bucket.admitted == 3 and bucket.rejected == 2


def test_quota_rejects_with_retry_after(service):
    clock = {"now": 0.0}
    bucket = TokenBucket(rate=1.0, burst=1.0, clock=lambda: clock["now"])

    async def main():
        with FrontDoor(service, quotas={"acme": bucket}) as door:
            await door.handle(QueryRequest(xpath=XPATH, tenant="acme"))
            with pytest.raises(QuotaExceededError) as excinfo:
                await door.handle(QueryRequest(xpath=XPATH, tenant="acme"))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == pytest.approx(1.0)
            # Another tenant is not throttled by acme's bucket.
            await door.handle(QueryRequest(xpath=XPATH, tenant="other"))
            clock["now"] = 1.0
            await door.handle(QueryRequest(xpath=XPATH, tenant="acme"))
            return door.describe()

    report = asyncio.run(main())
    assert report["admission"]["rejected_quota"] == 1
    assert report["requests_rejected"] == 1
    assert report["requests_served"] == 3


def test_queue_full_is_a_fast_typed_reject(service):
    """Beyond max_concurrency + max_queue the door sheds, never buffers."""
    gate = _Gate(service)

    async def main():
        with FrontDoor(
            service, coalesce=False, max_concurrency=1, max_queue=1
        ) as door:
            tasks = []
            for index in range(4):
                tasks.append(
                    asyncio.ensure_future(
                        door.handle(
                            QueryRequest(
                                xpath=OTHER_XPATHS[index],
                                use_result_cache=False,
                            )
                        )
                    )
                )
                # Deterministic arrival order: each request reaches its
                # admission decision before the next one is created.
                await _until(
                    lambda want=index + 1: (
                        door.admission.admitted
                        + door.admission.queue_depth
                        + door.admission.rejected_queue
                    )
                    >= want
                )
            assert door.admission.in_flight == 1
            assert door.admission.queue_depth == 1
            gate.release.set()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, door.admission.describe()

    outcomes, admission = asyncio.run(main())
    rejected = [o for o in outcomes if isinstance(o, QueueFullError)]
    served = [o for o in outcomes if not isinstance(o, BaseException)]
    assert len(rejected) == 2 and len(served) == 2
    assert all(error.status == 503 for error in rejected)
    assert admission["rejected_queue"] == 2
    assert admission["queue_peak"] == 1  # never grew past max_queue
    assert admission["in_flight"] == 0 and admission["queue_depth"] == 0


def test_drain_stops_new_work_and_waits_for_admitted(service):
    gate = _Gate(service)

    async def main():
        with FrontDoor(service, coalesce=False, max_concurrency=2) as door:
            running = asyncio.ensure_future(
                door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
            )
            await _until(lambda: gate.calls == 1)
            drainer = asyncio.ensure_future(door.drain())
            await _until(lambda: door.admission.draining)
            with pytest.raises(DrainingError) as excinfo:
                await door.handle(QueryRequest(xpath="//person"))
            assert excinfo.value.status == 503
            assert not drainer.done()  # still waiting on admitted work
            gate.release.set()
            response = await running
            await drainer
            assert door.admission.in_flight == 0
            return response

    response = asyncio.run(main())
    assert response.ids == tuple(service.oracle(XPATH))


def test_admission_controller_validates_bounds():
    with pytest.raises(ValueError):
        AdmissionController(max_concurrency=0)
    with pytest.raises(ValueError):
        AdmissionController(max_queue=-1)
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)


# ----------------------------------------------------------------------
# Scatter
# ----------------------------------------------------------------------
def test_scatter_failure_propagates_and_service_survives():
    with ShardedQueryService.from_documents(
        _documents(4), num_shards=4, placement="round_robin", replicas=2
    ) as svc:
        svc.build_index("rootpaths")
        shards = svc.shards
        expected = svc.execute(XPATH, use_result_cache=False).ids
        reads_before = [sum(shard.replica_reads) for shard in shards]
        real = shards[2].execute

        def boom(*args, **kwargs):
            raise RuntimeError("shard 2 exploded")

        shards[2].execute = boom
        with pytest.raises(RuntimeError, match="shard 2 exploded"):
            svc.execute(XPATH, use_result_cache=False)
        # Legs run in shard order and stop at the first error: shards 0
        # and 1 were read once more, shard 3's leg never started.
        reads_after = [sum(shard.replica_reads) for shard in shards]
        assert [after - before for before, after in zip(reads_before, reads_after)] == [
            1, 1, 0, 0
        ]
        # A failed scatter leaves nothing behind; the next query is served.
        shards[2].execute = real
        assert svc.execute(XPATH, use_result_cache=False).ids == expected


def test_scattered_answers_match_the_oracle():
    with ShardedQueryService.from_documents(
        _documents(4), num_shards=4, placement="round_robin"
    ) as svc:
        svc.build_index("rootpaths")
        for xpath in (XPATH,) + OTHER_XPATHS:
            assert svc.execute(xpath, use_result_cache=False).ids == svc.oracle(xpath)
        assert "scatter" not in svc.describe()


# ----------------------------------------------------------------------
# The HTTP layer
# ----------------------------------------------------------------------
def _http(method: str, url: str, body=None, timeout: float = 10.0):
    """One blocking HTTP call; returns (status, decoded-or-text body)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            raw = response.read().decode("utf-8")
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read().decode("utf-8")
        status = error.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


def test_http_server_end_to_end(service):
    async def main():
        door = FrontDoor(service, max_concurrency=4)
        server = FrontDoorServer(door)
        host, port = await server.start()
        base = f"http://{host}:{port}"
        loop = asyncio.get_running_loop()

        def client():
            checks = {}
            checks["query"] = _http("POST", f"{base}/query", {"xpath": XPATH})
            checks["scoped"] = _http(
                "POST",
                f"{base}/query",
                {"xpath": XPATH, "documents": ["fd-0"], "use_result_cache": False},
            )
            checks["bad_json"] = _http("POST", f"{base}/query", "not json")
            checks["unknown_field"] = _http(
                "POST", f"{base}/query", {"xpath": XPATH, "wat": 1}
            )
            checks["parse_error"] = _http(
                "POST", f"{base}/query", {"xpath": "///"}
            )
            checks["bad_option"] = _http(
                "POST",
                f"{base}/query",
                {"xpath": XPATH, "options": {"use_kernels": False}},
            )
            checks["get_query"] = _http("GET", f"{base}/query")
            checks["not_found"] = _http("GET", f"{base}/nope")
            checks["healthz"] = _http("GET", f"{base}/healthz")
            checks["describe"] = _http("GET", f"{base}/describe")
            checks["metrics"] = _http("GET", f"{base}/metrics")
            return checks

        checks = await loop.run_in_executor(None, client)
        # Drain through the API, then observe the draining responses.
        await door.drain()

        def drained_client():
            return {
                "healthz": _http("GET", f"{base}/healthz"),
                "query": _http("POST", f"{base}/query", {"xpath": XPATH}),
            }

        checks["drained"] = await loop.run_in_executor(None, drained_client)
        await server.stop(drain=False)
        return checks

    checks = asyncio.run(main())
    status, body = checks["query"]
    assert status == 200
    assert tuple(body["ids"]) == tuple(service.oracle(XPATH))
    assert body["cardinality"] == len(body["ids"])

    status, scoped = checks["scoped"]
    assert status == 200
    assert 0 < scoped["cardinality"] < len(body["ids"])

    assert checks["bad_json"][0] == 400
    assert checks["bad_json"][1]["error"] == "bad-request"
    assert checks["unknown_field"][0] == 400
    assert checks["parse_error"] == (
        400,
        checks["parse_error"][1],
    ) and checks["parse_error"][1]["error"] == "query-error"
    # An option no strategy takes is the query's fault, not the server's.
    assert checks["bad_option"][0] == 400
    assert checks["bad_option"][1]["error"] == "query-error"
    assert checks["get_query"][0] == 405
    assert checks["not_found"][0] == 404
    assert checks["healthz"] == (200, checks["healthz"][1])
    assert checks["healthz"][1]["status"] == "ok"
    assert checks["describe"][1]["coalesce"] is True
    assert "repro_frontdoor_latency_seconds" in checks["metrics"][1]
    assert "repro_frontdoor_requests_total" in checks["metrics"][1]

    drained = checks["drained"]
    assert drained["healthz"][0] == 503
    assert drained["query"] == (503, drained["query"][1])
    assert drained["query"][1]["error"] == "draining"


def test_stop_ends_every_connection_handler(service):
    """Regression: ``stop()`` used to return with handlers still alive — a
    client that had just hung up (handler inside ``wait_closed()``) or an
    idle keep-alive connection — and the loop's shutdown then cancelled
    them, logging a leaked ``CancelledError`` callback per connection."""
    leaked: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: leaked.append(context)
        )
        server = FrontDoorServer(FrontDoor(service))
        host, port = await server.start()

        async def healthz(reader, writer):
            """One whole keep-alive round trip; returns the status line."""
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            length = int(
                re.search(rb"content-length: *(\d+)", head, re.I).group(1)
            )
            await reader.readexactly(length)
            return head.split(b"\r\n", 1)[0]

        # Both connections have been answered once, so the server holds a
        # handler for each, waiting for the next request.
        reader, writer = await asyncio.open_connection(host, port)
        idle_reader, idle_writer = await asyncio.open_connection(host, port)
        statuses = [
            await healthz(reader, writer),
            await healthz(idle_reader, idle_writer),
        ]
        writer.close()  # hang up just before stop()
        await asyncio.wait_for(server.stop(), timeout=10)
        # The idle keep-alive connection was closed from the server side.
        rest = await asyncio.wait_for(idle_reader.read(), timeout=10)
        idle_writer.close()
        return statuses, rest

    statuses, rest = asyncio.run(main())
    assert all(line.startswith(b"HTTP/1.1 200") for line in statuses)
    assert rest == b""
    assert leaked == []


def test_unknown_option_is_a_query_error_not_an_internal_one(service):
    async def main():
        with FrontDoor(service) as door:
            for options in ({"bogus": 1}, {"force_plan": "merge"}):
                with pytest.raises(PlanningError):
                    await door.handle(
                        QueryRequest(xpath=XPATH, strategy="rootpaths", options=options)
                    )
            served = await door.handle(QueryRequest(xpath=XPATH))
            return door.requests_served, served

    requests_served, response = asyncio.run(main())
    assert requests_served == 1
    assert response.ids == tuple(service.oracle(XPATH))
    events = service.telemetry.events
    assert events.events(kind="internal-error") == []
    for shard in service.shards:
        assert shard.health_report()["states"] == ["healthy"]


def test_http_documents_scope_rejected_on_single_engine():
    database = TwigIndexDatabase.from_documents(_documents(1))
    database.build_index("rootpaths")

    async def main():
        with database.service as svc, FrontDoor(svc) as door:
            response = await door.handle(QueryRequest(xpath=XPATH))
            with pytest.raises(BadRequestError, match="documents"):
                await door.handle(
                    QueryRequest(xpath=XPATH, documents=("fd-0",))
                )
            return response

    response = asyncio.run(main())
    assert response.ids == tuple(
        database.service.execute(XPATH).ids
    )


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_services_are_context_managers():
    with ShardedQueryService.from_documents(_documents(2), num_shards=2) as svc:
        svc.build_index("rootpaths")
        assert svc.execute(XPATH).cardinality >= 0
    svc.close()  # idempotent after the block already closed it

    database = TwigIndexDatabase.from_documents(_documents(1))
    with database.service as single:
        assert single.execute(XPATH).cardinality >= 0
    single.close()


def test_frontdoor_telemetry_counts_requests(service):
    async def main():
        with FrontDoor(service) as door:
            for _ in range(3):
                await door.handle(QueryRequest(xpath=XPATH))
            return door.describe(), service.metrics_text()

    report, exposition = asyncio.run(main())
    assert report["requests_served"] == 3
    assert "repro_frontdoor_latency_seconds" in exposition
    served = [
        line
        for line in exposition.splitlines()
        if line.startswith("repro_frontdoor_requests_total")
    ]
    assert served, exposition
