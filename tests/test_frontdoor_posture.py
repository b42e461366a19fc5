"""The serving posture: what ``FrontDoorServer.start()`` takes of the
interpreter and ``stop()`` gives back.

* the thread switch interval is ``SWITCH_INTERVAL_SECONDS`` and the heap
  built before listening is frozen while a server serves, and both are
  as found afterwards — after ``stop()``, after a ``start()`` that could
  not bind, and whichever of two servers stops first;
* freezing leaks only what the ``start()`` docstring says: cyclic
  garbage made of objects that were alive at ``start()`` waits for
  ``stop()``, what is added and removed while serving does not;
* collector pauses are a ``/metrics`` query while serving and stop being
  recorded at ``stop()``.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import weakref

import pytest

from repro import FrontDoor, FrontDoorServer, ShardedQueryService
from repro.datasets import generate_xmark
from repro.frontdoor.server import SWITCH_INTERVAL_SECONDS

XPATH = "/site/people/person/name"


def _doc(i: int):
    return generate_xmark(scale=0.01, seed=900 + i, name=f"posture-{i}")


@pytest.fixture()
def service():
    with ShardedQueryService.from_documents(
        [_doc(i) for i in range(3)], num_shards=2, placement="round_robin"
    ) as svc:
        svc.build_index("rootpaths")
        yield svc


def _posture() -> tuple:
    return (sys.getswitchinterval(), gc.get_freeze_count(), len(gc.callbacks))


def _as_found(found: tuple) -> bool:
    """Interval and hooks exactly; nothing a server froze still frozen.

    ``gc.unfreeze()`` cannot be partial, so what the interpreter froze
    for itself at start-up (CPython >= 3.12 does) is unfrozen with it.
    """
    interval, frozen, hooks = _posture()
    return (interval, hooks) == (found[0], found[2]) and frozen <= found[1]


def _serving(found: tuple) -> bool:
    return (
        sys.getswitchinterval() == pytest.approx(SWITCH_INTERVAL_SECONDS)
        and gc.get_freeze_count() > found[1]
    )


def test_start_takes_the_posture_and_stop_gives_it_back(service):
    found = _posture()
    assert found[0] != pytest.approx(SWITCH_INTERVAL_SECONDS)

    async def main():
        server = FrontDoorServer(FrontDoor(service))
        await server.start()
        serving = _serving(found), len(gc.callbacks)
        await server.stop()
        await server.stop()  # a second stop has nothing left to give back
        return serving

    assert asyncio.run(main()) == (True, found[2] + 1)
    assert _as_found(found)


def test_a_start_that_cannot_bind_leaves_the_interpreter_as_found(service):
    found = _posture()
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)

        async def main():
            server = FrontDoorServer(
                FrontDoor(service), port=taken.getsockname()[1]
            )
            with pytest.raises(OSError):
                await server.start()
            await server.stop()

        asyncio.run(main())
    assert _as_found(found)


@pytest.mark.parametrize("first_to_stop", [0, 1])
def test_two_servers_share_one_posture_whichever_stops_first(service, first_to_stop):
    found = _posture()

    async def main():
        servers = [FrontDoorServer(FrontDoor(service)) for _ in range(2)]
        for server in servers:
            await server.start()
        await servers[first_to_stop].stop()
        still_serving = _serving(found)
        await servers[1 - first_to_stop].stop()
        return still_serving

    assert asyncio.run(main())
    assert _as_found(found)


def test_only_what_was_held_at_start_waits_for_stop(service):
    """The leak bound of ``start()``'s docstring, as collector counts.

    A document leaves by reference count; its node tree is cyclic
    (parent <-> children) and needs the collector, which never looks at
    a frozen object.  ``gc.collect()`` returns how many objects it found
    unreachable.
    """
    held_nodes = _doc(0).count_nodes()

    async def main():
        server = FrontDoorServer(FrontDoor(service))
        await server.start()
        gc.collect()
        young = _doc(9)
        gone, young_nodes = weakref.ref(young), young.count_nodes()
        service.add_document(young)
        del young
        service.execute(XPATH)
        service.remove_document("posture-9")
        young_reclaimed = gc.collect()
        service.remove_document("posture-0")
        held_reclaimed_serving = gc.collect()
        await server.stop()
        return gone(), young_nodes, young_reclaimed, held_reclaimed_serving, gc.collect()

    gone, young_nodes, young_reclaimed, held_serving, held_stopped = asyncio.run(main())
    # Added and removed while serving: reclaimed while serving.
    assert gone is None and young_reclaimed >= young_nodes
    # Held at start() and removed while serving: waits for stop().
    assert held_serving < held_nodes <= held_stopped


def test_collector_pauses_are_a_metrics_query_while_serving(service, monkeypatch):
    monkeypatch.setattr("repro.obs.telemetry.GC_PAUSE_EVENT_SECONDS", 0.0)

    def full_collections() -> int:
        histogram = service.telemetry.metrics.histogram("repro_gc_pause_seconds")
        return sum(
            series["count"]
            for series in histogram.snapshot()["series"]
            if series["labels"] == {"generation": 2}
        )

    async def main():
        server = FrontDoorServer(FrontDoor(service))
        await server.start()
        gc.collect()
        await asyncio.sleep(0)  # the sample is recorded on the loop
        text = service.metrics_text()
        await server.stop()
        return text

    text = asyncio.run(main())
    watched = full_collections()
    assert watched >= 1
    assert f'repro_gc_pause_seconds_count{{generation="2"}} {watched}' in text
    events = service.telemetry.events.events(kind="gc-pause")
    assert [e for e in events if e.attributes["generation"] == 2]
    gc.collect()  # no longer watched
    assert full_collections() == watched
