"""The system under test, as a child process of the load generator.

Builds the real stack -- a sharded, replicated ``ShardedQueryService``
behind ``FrontDoor`` / ``FrontDoorServer`` on a loopback TCP port --
from the configuration and documents it reads on stdin, then serves
until told to stop.  Reads arrive over HTTP like any client's.  Writes
ride the control pipe (stdin/stdout, one JSON object per line) because
the HTTP skin has no write route; each is parsed and applied on a
worker thread, so the event loop keeps serving reads meanwhile.

Nothing here knows the benchmark's seed, workload or expected answers.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import FrontDoor, FrontDoorServer, ShardedQueryService, Telemetry  # noqa: E402
from repro.obs.clock import now  # noqa: E402
from repro.xmltree import parse_string  # noqa: E402


def build_service(config: dict) -> ShardedQueryService:
    """Load ``config["documents"]`` and build ``config["indexes"]``."""
    service = ShardedQueryService(
        num_shards=config["shards"],
        replicas=config["replicas"],
        placement=config["placement"],
        telemetry=Telemetry(enabled=False),
    )
    for name, xml in config["documents"]:
        service.add_document(parse_string(xml, name=name))
    for index in config["indexes"]:
        service.build_index(index)
    return service


def apply_write(service: ShardedQueryService, op: str, name: str, xml) -> None:
    """One control-pipe write: parse the payload, call the facade."""
    if op == "add":
        service.add_document(parse_string(xml, name=name))
    elif op == "replace":
        service.replace_document(name, parse_string(xml, name=name))
    elif op == "remove":
        service.remove_document(name)
    else:
        raise ValueError(f"unknown write op {op!r}")


def counters(service: ShardedQueryService, door: FrontDoor) -> dict:
    """The ``describe()`` counts the per-layer table reports."""
    report = service.describe()
    front = door.describe()
    admission = front["admission"]
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
    return {
        "served": front["requests_served"],
        "rejected": front["requests_rejected"],
        "coalesced": front["coalesced_hits"],
        "queue_peak": admission["queue_peak"],
        "caches": report["caches"],
        "invalidations": report["invalidations"]["total"],
        "reads_retried": report["operations"]["failover"]["reads_retried"],
        "replica_reads": report.get("replica_reads", {}).get("total", 0),
        "peak_rss_kb": peak_kb,
    }


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


async def serve() -> None:
    loop = asyncio.get_running_loop()
    config = json.loads(sys.stdin.readline())
    with build_service(config) as service, FrontDoor(service) as door:
        server = FrontDoorServer(door)
        _host, port = await server.start()
        reply({"ready": True, "port": port})
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = json.loads(line) if line.strip() else {"op": "stop"}
            op = command["op"]
            if op == "stop":
                break
            if op == "counters":
                reply(counters(service, door))
                continue
            started = now()
            await loop.run_in_executor(
                None, apply_write, service, op, command["name"], command.get("xml")
            )
            reply({"ok": True, "server_ms": (now() - started) * 1e3})
        await server.stop()
    reply({"stopped": True})


if __name__ == "__main__":
    asyncio.run(serve())
