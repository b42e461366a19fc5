"""Landed answers at the front door, and the HTTP skin's failure paths.

A *landed* answer is one the sharded service already gathered for the
same question at the current generation (its ``answer_cache``).  The
front door returns it from the event loop.  Pinned here:

* **what a landed hit skips** — no flight, no admission slot, no worker
  thread, no replica read — and what it does not: the tenant's quota
  and a drain still apply, and the answer is the gather's own ``ids``,
  ``strategy`` and cost;
* **what keys apart** — the cache flag, a ``documents=`` scope, the
  strategy and its options, and every write (which costs each answer
  one miss before it lands again);
* **the 500 path** — any non-``ReproError`` out of ``handle``, from a
  worker thread or from the loop-side peek, is a typed, counted 500 and
  the connection keeps serving;
* **header limits** — a header block past the stream's 64 KiB buffer is
  a typed 431 and a closed connection, and the server keeps serving.

Event-loop tests run under ``asyncio.run`` directly, like
``test_frontdoor.py``.
"""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro import FrontDoor, FrontDoorServer, QueryRequest, ShardedQueryService
from repro.datasets import generate_xmark
from repro.frontdoor import DrainingError, QuotaExceededError, TokenBucket

XPATH = "/site/people/person/name"
OTHER = "//item/name"


def _documents(count: int = 4, scale: float = 0.01):
    return [
        generate_xmark(scale=scale, seed=730 + i, name=f"ld-{i}")
        for i in range(count)
    ]


@pytest.fixture()
def service():
    with ShardedQueryService.from_documents(
        _documents(), num_shards=2, placement="round_robin", replicas=2
    ) as svc:
        svc.build_index("rootpaths")
        yield svc


def _replica_reads(service) -> int:
    return service.describe()["replica_reads"]["total"]


def _outcomes(service) -> dict[str, int]:
    """``outcome`` label -> count, summed over tenants."""
    counts: dict[str, int] = {}
    pattern = re.compile(
        r'^repro_frontdoor_requests_total\{.*outcome="([^"]+)".*\} (\d+)', re.M
    )
    for outcome, value in pattern.findall(service.metrics_text()):
        counts[outcome] = counts.get(outcome, 0) + int(value)
    return counts


# ----------------------------------------------------------------------
# What a landed hit skips, and what it does not
# ----------------------------------------------------------------------
def test_landed_hit_takes_no_flight_slot_or_replica_read(service):
    async def main():
        with FrontDoor(service) as door:
            first = await door.handle(QueryRequest(xpath=XPATH))
            before = (
                door.flights.describe(),
                door.admission.describe(),
                _replica_reads(service),
            )
            second = await door.handle(QueryRequest(xpath=XPATH, query_id="again"))
            after = (
                door.flights.describe(),
                door.admission.describe(),
                _replica_reads(service),
            )
            return first, second, before, after, door.describe()

    first, second, before, after, report = asyncio.run(main())
    assert not first.cached and not first.coalesced
    assert second.cached and not second.coalesced
    # The gather's own answer, strategy and price -- under this request's name.
    assert second.ids == first.ids == tuple(service.oracle(XPATH))
    assert (second.strategy, second.total_cost) == (first.strategy, first.total_cost)
    assert second.query_id == "again"
    assert before == after
    assert before[0]["flights_started"] == 1 and before[1]["admitted"] == 1
    assert report["requests_served"] == 2
    assert _outcomes(service) == {"executed": 1, "landed": 1}
    # One counted lookup per request: the miss by the worker that
    # executed the first, the hit by the door that served the second.
    assert (service.answer_cache.hits, service.answer_cache.misses) == (1, 1)


def test_landed_hit_still_charges_quota_and_honours_drain(service):
    clock = {"now": 0.0}
    bucket = TokenBucket(rate=1.0, burst=2.0, clock=lambda: clock["now"])

    async def main():
        with FrontDoor(service, quotas={"acme": bucket}) as door:
            request = QueryRequest(xpath=XPATH, tenant="acme")
            await door.handle(request)
            landed = await door.handle(request)
            with pytest.raises(QuotaExceededError):
                await door.handle(request)
            await door.drain()
            with pytest.raises(DrainingError):
                await door.handle(QueryRequest(xpath=XPATH))
            return landed

    landed = asyncio.run(main())
    assert landed.cached
    assert bucket.admitted == 2 and bucket.rejected == 1
    assert service.answer_cache.hits == 1  # neither reject looked


# ----------------------------------------------------------------------
# What keys apart
# ----------------------------------------------------------------------
def test_cache_flag_scope_and_options_key_apart(service):
    requests = [
        QueryRequest(xpath=XPATH),
        QueryRequest(xpath=XPATH, documents=("ld-0",)),
        QueryRequest(xpath=XPATH, documents=("ld-1",)),
        QueryRequest(xpath=XPATH, strategy="rootpaths"),
    ]

    async def main():
        with FrontDoor(service) as door:
            cold = [await door.handle(request) for request in requests]
            warm = [await door.handle(request) for request in requests]
            started = door.flights.flights_started
            bypass = [
                await door.handle(QueryRequest(xpath=XPATH, use_result_cache=False))
                for _ in range(2)
            ]
            return cold, warm, bypass, door.flights.flights_started - started

    cold, warm, bypass, bypass_flights = asyncio.run(main())
    # Four questions, four gathers; each then lands as itself.
    assert not any(response.cached for response in cold)
    assert all(response.cached for response in warm)
    assert [r.ids for r in warm] == [r.ids for r in cold]
    full, doc0, doc1, _ = (set(response.ids) for response in cold)
    assert doc0 and doc1 and not doc0 & doc1 and doc0 | doc1 < full
    assert service.answer_cache.hits == 4 and len(service.answer_cache) == 4
    # The cache flag off is never served from, and never fills, the cache.
    assert bypass_flights == 2
    assert not any(response.cached for response in bypass)
    assert service.answer_cache.hits == 4 and len(service.answer_cache) == 4


def test_a_write_costs_every_answer_one_miss_then_it_lands_again(service):
    async def main():
        with FrontDoor(service) as door:
            for xpath in (XPATH, OTHER):
                await door.handle(QueryRequest(xpath=xpath))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None,
                service.add_document,
                generate_xmark(scale=0.01, seed=799, name="ld-new"),
            )
            rounds = []
            for _ in range(2):
                rounds.append(
                    [
                        await door.handle(QueryRequest(xpath=xpath))
                        for xpath in (XPATH, OTHER)
                    ]
                )
            return rounds, door.flights.flights_started

    (missed, landed), flights = asyncio.run(main())
    assert not any(response.cached for response in missed)
    assert all(response.cached for response in landed)
    for response, xpath in zip(landed, (XPATH, OTHER)):
        assert response.ids == tuple(service.oracle(xpath))
    assert flights == 4


# ----------------------------------------------------------------------
# The 500 path
# ----------------------------------------------------------------------
async def _exchange(reader, writer, method: str, path: str, body=None):
    """One keep-alive round trip; returns ``(status, decoded JSON body)``."""
    payload = json.dumps(body).encode("utf-8") if body is not None else b""
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(re.search(rb"content-length: *(\d+)", head, re.I).group(1))
    raw = await reader.readexactly(length)
    return int(head.split()[1]), json.loads(raw)


@pytest.mark.parametrize("where", ["worker-thread", "loop-side-peek"])
def test_unexpected_error_is_a_counted_500_and_the_connection_survives(service, where):
    def boom(*args, **kwargs):
        raise RuntimeError("every replica is on fire")

    leaked: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: leaked.append(context)
        )
        server = FrontDoorServer(FrontDoor(service))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        query = {"xpath": XPATH}
        if where == "worker-thread":
            real, service.execute = service.execute, boom
        else:
            # Landed first, so that the door's probe finds the key and
            # its own ``get`` -- on the event loop -- is what raises.
            await _exchange(reader, writer, "POST", "/query", query)
            real, service.answer_cache.get = service.answer_cache.get, boom
        failed = await _exchange(reader, writer, "POST", "/query", query)
        if where == "worker-thread":
            service.execute = real
        else:
            service.answer_cache.get = real
        # Same connection, same handler: it outlived the failure.
        served = await _exchange(reader, writer, "POST", "/query", query)
        writer.close()
        await asyncio.wait_for(server.stop(), timeout=10)
        return failed, served

    failed, served = asyncio.run(main())
    assert failed == (
        500,
        {
            "error": "internal-error",
            "status": 500,
            "kind": "RuntimeError",
            "message": "every replica is on fire",
        },
    )
    assert served[0] == 200
    assert tuple(served[1]["ids"]) == tuple(service.oracle(XPATH))
    assert _outcomes(service) == (
        {"internal-error": 1, "executed": 1}
        if where == "worker-thread"
        else {"executed": 1, "internal-error": 1, "landed": 1}
    )
    (event,) = service.telemetry.events.events(kind="internal-error")
    assert "every replica is on fire" in event.attributes["error"]
    assert "boom" in event.attributes["traceback"]
    assert leaked == []


def test_query_errors_stay_400_and_are_counted(service):
    async def main():
        server = FrontDoorServer(FrontDoor(service))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        answer = await _exchange(reader, writer, "POST", "/query", {"xpath": "///"})
        writer.close()
        await asyncio.wait_for(server.stop(), timeout=10)
        return answer

    status, body = asyncio.run(main())
    assert status == 400 and body["error"] == "query-error"
    assert _outcomes(service) == {"query-error": 1}


# ----------------------------------------------------------------------
# Header limits
# ----------------------------------------------------------------------
def test_oversized_header_is_a_typed_431_and_the_server_keeps_serving(service):
    leaked: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: leaked.append(context)
        )
        server = FrontDoorServer(FrontDoor(service))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            b"GET /healthz HTTP/1.1\r\nHost: test\r\nX-Padding: "
            + b"x" * (70 * 1024)
            + b"\r\n\r\n"
        )
        try:
            await writer.drain()
            refused = await asyncio.wait_for(reader.read(), timeout=10)
        except ConnectionResetError:  # pragma: no cover - hung up mid-send
            refused = b""
        writer.close()
        reader, writer = await asyncio.open_connection(host, port)
        healthy = await _exchange(reader, writer, "GET", "/healthz")
        writer.close()
        await asyncio.wait_for(server.stop(), timeout=10)
        return refused, healthy

    refused, healthy = asyncio.run(main())
    # read() ran to end of stream: the server hung up after answering.
    head, _, body = refused.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")
    assert b"Connection: close" in head
    assert json.loads(body)["error"] == "header-too-large"
    assert healthy[0] == 200 and healthy[1]["status"] == "ok"
    assert leaked == []


def test_header_block_split_across_writes_is_one_request(service):
    async def main():
        server = FrontDoorServer(FrontDoor(service))
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps({"xpath": XPATH}).encode("utf-8")
        head = (
            f"POST /query HTTP/1.1\r\nHost: test\r\nX-Mixed-CASE:  spaced \r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1")
        for chunk in (head[:9], head[9:-2], head[-2:] + payload[:5], payload[5:]):
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.01)
        answer = await reader.readuntil(b"\r\n\r\n")
        writer.close()
        await asyncio.wait_for(server.stop(), timeout=10)
        return answer

    assert asyncio.run(main()).startswith(b"HTTP/1.1 200 OK")
