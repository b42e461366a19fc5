"""The single-threaded asyncio load generator and its server handle.

One event loop drives everything a workload does: keep-alive HTTP
connections issuing reads, one write channel on the server's control
pipe, and the clock.  Total concurrency is :data:`CONCURRENCY`
(the sandbox's two cores): read-only workloads open that many
connections, write workloads one fewer plus the write channel, which
never has more than one write outstanding.

A run is a short discarded warm-up and then :data:`ROUNDS` rounds, each
a fixed share of ``--seconds``:

``probe``
    on workloads without writes of their own, whole add/replace/remove
    cycles issued back-to-back with no reads running: the write metric
    exists everywhere, and this is the ingest measurement (one writer,
    nothing else).  The catalog answers are cached again afterwards;
``open``
    Poisson arrivals on a seeded schedule.  Latency is timed from the
    moment a read was *due*, so a stall charges every read it delays;
``closed``
    every read connection issues back-to-back, which measures capacity.

The windows alternate, and often, so that each kind samples the whole
run: the host's speed changes for a second or a minute at a time, and
every timing metric is read off the slices of its windows the host left
alone (``measure.quiet_median``, ``peak_rate``).
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import os
import selectors
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.obs.clock import now

import measure
import workloads
from measure import Window
from workloads import ReadMix, Workload

CONCURRENCY = 2

#: The server child is pinned to the first allowed core (``start``)
#: and this process to the second (``run``), so the generator never
#: takes server time.
#: Left to the scheduler on this two-core box the same server had half
#: the capacity and several times the run-to-run range (README,
#: findings), presumably from passing the interpreter lock between cores.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

#: Shares of ``--seconds`` (they sum to 1).
PHASE_SHARES = {"warmup": 0.04, "probe": 0.26, "open": 0.40, "closed": 0.30}
#: Where a workload with writes of its own spends the probe's share.
PROBE_SHARE_TO = {"open": 0.16, "closed": 0.10}

#: The probe, the open and the closed window alternate this many times,
#: so each samples the whole run and not one stretch of it.
ROUNDS = 8

SERVER = Path(__file__).with_name("server.py")


# ----------------------------------------------------------------------
# Wire
# ----------------------------------------------------------------------
def encode_query(xpath: str) -> bytes:
    body = json.dumps({"xpath": xpath}).encode("utf-8")
    head = (
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n"
GOODBYE = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"


class HttpConnection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "HttpConnection":
        return cls(*await asyncio.open_connection(host, port))

    async def roundtrip(self, request: bytes) -> tuple[int, bytes]:
        self._writer.write(request)
        status_line = await self._reader.readline()
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        """Have the server close first, and see it done.

        Finding for the robustness item: when a client hangs up just
        before ``FrontDoorServer.stop()``, the connection handler is
        still inside ``wait_closed()`` as the loop shuts down, and
        asyncio logs a leaked ``CancelledError`` callback.  Asking for
        ``Connection: close`` and reading to EOF leaves no handler
        behind, so the server's stderr stays empty unless something
        else is wrong.
        """
        await self.roundtrip(GOODBYE)
        await self._reader.read()
        self._writer.close()
        await self._writer.wait_closed()


class ServerProcess:
    """The ``server.py`` child: start, control pipe, stop."""

    def __init__(self, process: asyncio.subprocess.Process, port: int, stderr_task) -> None:
        self._process = process
        self.port = port
        self._stderr_task = stderr_task

    @classmethod
    async def start(cls, documents: Sequence[tuple[str, str]]) -> "ServerProcess":
        """Spawn the child, hand it the corpus, wait until it listens."""
        process = await asyncio.create_subprocess_exec(
            sys.executable, str(SERVER),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            limit=1 << 22,
        )
        if len(CPUS) >= 2:
            os.sched_setaffinity(process.pid, {CPUS[0]})
        stderr_task = asyncio.ensure_future(process.stderr.read())
        server = cls(process, 0, stderr_task)
        ready = await server.command(
            {
                "shards": workloads.SHARDS,
                "replicas": workloads.REPLICAS,
                "placement": workloads.PLACEMENT,
                "indexes": list(workloads.INDEXES),
                "documents": list(documents),
            }
        )
        server.port = ready["port"]
        return server

    async def command(self, message: dict) -> dict:
        self._process.stdin.write(json.dumps(message).encode("utf-8") + b"\n")
        await self._process.stdin.drain()
        line = await self._process.stdout.readline()
        if not line:
            await self._process.wait()
            stderr = (await self._stderr_task).decode("utf-8", "replace")
            raise RuntimeError(f"server exited early ({self._process.returncode}):\n{stderr}")
        return json.loads(line)

    async def stop(self) -> str:
        """Stop the child and wait for it; returns what it wrote to stderr."""
        if self._process.returncode is None:
            try:
                await self.command({"op": "stop"})
            finally:
                self._process.stdin.close()
                try:
                    await asyncio.wait_for(self._process.wait(), timeout=30.0)
                except asyncio.TimeoutError:
                    self._process.kill()
                    await self._process.wait()
        return (await self._stderr_task).decode("utf-8", "replace")


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class Read:
    phase: str
    query: int
    due: float
    sent: float
    done: float
    status: int
    ids: Optional[tuple]
    #: How long after it could have gone out the generator sent it.
    late: float = 0.0
    wrong: bool = False

    @property
    def latency_ms(self) -> float:
        """From the due time to the answer, less the generator's own lateness.

        What is left is the round trip plus the wait behind earlier
        reads of the same connection, which is how a stall of the
        server reaches the reads it delays.
        """
        return (self.done - self.due - self.late) * 1e3


@dataclass
class Write:
    op: str
    name: str
    xml: Optional[str]
    due: float
    sent: float
    done: float
    ok: bool


@dataclass
class Recording:
    """Everything one workload run observed, before any arithmetic."""

    workload: Workload
    seconds: dict[str, float]
    open_windows: list[Window] = field(default_factory=list)
    closed_windows: list[Window] = field(default_factory=list)
    reads: list[Read] = field(default_factory=list)
    writes: list[Write] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    #: Reads the answer check compared with the oracle (set by ``check.verify``).
    compared: int = 0


def phase_seconds(workload: Workload, total: float) -> dict[str, float]:
    shares = dict(PHASE_SHARES)
    if workload.write_rate:
        # Its own writes are the write measurement; the reads get the time.
        shares["probe"] = 0.0
        for phase, share in PROBE_SHARE_TO.items():
            shares[phase] += share
    return {phase: share * total for phase, share in shares.items()}


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def run(main):
    """``asyncio.run`` on a loop whose timers are not rounded up to a millisecond.

    The default epoll selector takes its timeout in whole milliseconds;
    ``select()`` takes microseconds, and with a handful of sockets costs
    the same.  So the generator sleeps until a read is due instead of
    spinning up to it, and its core stays idle beside the server's.
    """
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[1]})
    with asyncio.Runner(
        loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
    ) as runner:
        return runner.run(main)


def _ids(status: int, body: bytes) -> Optional[tuple]:
    return tuple(json.loads(body)["ids"]) if status == 200 else None


async def open_loop(
    connections: Sequence[HttpConnection],
    requests: Sequence[bytes],
    queries: Sequence[int],
    start: float,
    offsets: Sequence[float],
    phase: str,
    reads: list[Read],
) -> None:
    """Send ``queries[i]`` at ``start + offsets[i]``, on whichever connection is free."""
    arrivals = iter(range(len(offsets)))

    async def worker(connection: HttpConnection) -> None:
        free_at = start
        for i in arrivals:
            due = start + offsets[i]
            if (delay := due - now()) > 0:
                await asyncio.sleep(delay)
            sent = now()
            status, body = await connection.roundtrip(requests[queries[i]])
            done = now()
            reads.append(
                Read(phase, queries[i], due, sent, done, status, _ids(status, body),
                     late=sent - max(due, free_at))
            )
            free_at = done

    await asyncio.gather(*(worker(connection) for connection in connections))


async def closed_loop(
    connections: Sequence[HttpConnection],
    requests: Sequence[bytes],
    mix: ReadMix,
    stop_at: float,
    reads: list[Read],
) -> None:
    """Every connection issues back-to-back until ``stop_at``."""

    async def worker(connection: HttpConnection) -> None:
        while (sent := now()) < stop_at:
            (query,) = mix.take(1)
            status, body = await connection.roundtrip(requests[query])
            reads.append(Read("closed", query, sent, sent, now(), status, _ids(status, body)))

    await asyncio.gather(*(worker(connection) for connection in connections))


async def write_channel(
    server: ServerProcess,
    ops: Iterator[tuple[str, str, Optional[str]]],
    start: float,
    rate: Optional[float],
    stop_at: Optional[float],
    turn: asyncio.Lock,
    writes: list[Write],
) -> None:
    """One write outstanding at most: on a fixed schedule, or back-to-back.

    Runs until cancelled, or until the first whole add/replace/remove
    cycle that ends after ``stop_at``, so the corpus is back to its
    base content.  A write goes out only while the channel holds
    ``turn``, so whoever else takes that lock pauses the writer between
    two writes.
    """
    for k in itertools.count():
        due = start + (k + 0.5) / rate if rate else now()
        if (delay := due - now()) > 0:
            await asyncio.sleep(delay)
        async with turn:
            sent = now()
            if stop_at is not None and k % 3 == 0 and sent >= stop_at:
                return
            op, name, xml = next(ops)
            ack = await server.command({"op": op, "name": name, "xml": xml})
            writes.append(
                Write(op, name, xml, due if rate else sent, sent, now(), bool(ack.get("ok")))
            )


async def drive(
    workload: Workload,
    server: ServerProcess,
    seed: int,
    mix: ReadMix,
    total_seconds: float,
) -> Recording:
    """Run every phase of one workload against a listening server."""
    recording = Recording(workload, phase_seconds(workload, total_seconds))
    seconds = recording.seconds
    readers = CONCURRENCY - (1 if workload.write_rate else 0)
    connections = [await HttpConnection.open(server.port) for _ in range(readers)]
    requests = [encode_query(xpath) for xpath in mix.xpaths]
    ops = workloads.write_ops(seed)
    reads, writes = recording.reads, recording.writes
    turn = asyncio.Lock()
    writer = None

    async def open_window(phase: str, label: str, length: float) -> Window:
        start = now()
        offsets = workloads.poisson_offsets(
            seed, f"{workload.name}/{label}", workload.read_qps, length
        )
        await open_loop(
            connections, requests, mix.take(len(offsets)), start, offsets, phase, reads
        )
        return (start, length)

    async def prime() -> None:
        """Every replica of every shard caches every catalog answer again.

        The picker alternates replicas, so it takes two passes per
        replica; on the pool nothing repeats and nothing is primed.
        """
        if workload.reads == "catalog":
            for _ in range(2 * workloads.REPLICAS):
                for request in requests:
                    await connections[0].roundtrip(request)

    # The generator's own collector would stop the clock-reading side of
    # every latency for tens of milliseconds (the corpus lives in this
    # process too, for the answer check); a run allocates a few MB.
    gc.collect()
    gc.disable()
    try:
        for number in range(ROUNDS):
            if seconds["probe"]:
                await write_channel(
                    server, ops, now(), None, now() + seconds["probe"] / ROUNDS, turn, writes
                )
            if number == 0 or seconds["probe"]:
                await prime()
            if number == 0:
                if workload.write_rate:
                    writer = asyncio.ensure_future(
                        write_channel(server, ops, now(), workload.write_rate, None, turn, writes)
                    )
                await open_window("warmup", "warmup", seconds["warmup"])
            recording.open_windows.append(
                await open_window("open", f"open/{number}", seconds["open"] / ROUNDS)
            )
            start = now()
            length = seconds["closed"] / ROUNDS
            await closed_loop(connections, requests, mix, start + length, reads)
            recording.closed_windows.append((start, length))
        if writer is not None:
            async with turn:  # between two writes, never inside one
                writer.cancel()

        # Outside every timed window: the reads the answer check needs.
        for query in mix.check_sample():
            sent = now()
            status, body = await connections[0].roundtrip(requests[query])
            reads.append(Read("check", query, sent, sent, now(), status, _ids(status, body)))
        recording.counters = await server.command({"op": "counters"})
    finally:
        gc.enable()
        if writer is not None:
            writer.cancel()
            await asyncio.gather(writer, return_exceptions=True)
        for connection in connections:
            await connection.close()
    return recording


# ----------------------------------------------------------------------
# From a recording to the named metrics
# ----------------------------------------------------------------------
def _write_latency_ms(writes: Sequence[Write]) -> Optional[float]:
    """The fastest write of each op kind, averaged over the kinds.

    add, replace and remove cost differently, and a run holds eight to
    two dozen of each; the fastest of a kind is the one the host did
    not disturb, and it repeats better than any quartile of so few.
    """
    by_op: dict[str, list[float]] = {}
    for write in writes:
        by_op.setdefault(write.op, []).append((write.done - write.due) * 1e3)
    if not by_op:
        return None
    return statistics.fmean(min(latencies) for latencies in by_op.values())


def _docs_per_second(writes: Sequence[Write]) -> Optional[float]:
    """Three documents over the service time of the fastest add/replace/remove cycle."""
    cycles = [
        sum(write.done - write.sent for write in writes[i:i + 3])
        for i in range(len(writes) - 2)
        if [write.op for write in writes[i:i + 3]] == ["add", "replace", "remove"]
    ]
    return 3.0 / min(cycles) if cycles else None


def summarize(recording: Recording) -> dict[str, float]:
    """End-to-end metrics and ``loadgen.*`` diagnostics of one run."""
    workload = recording.workload
    opened = [read for read in recording.reads if read.phase == "open"]
    closed = [read for read in recording.reads if read.phase == "closed"]
    open_latency = [(read.due, read.latency_ms) for read in opened]
    within = [
        read.status == 200 and not read.wrong and read.latency_ms <= workload.limit_ms
        for read in opened
    ]
    first_open = recording.open_windows[0][0]
    # A workload's own writes past the warm-up, or the probe's.
    writes = [w for w in recording.writes if not workload.write_rate or first_open <= w.due]
    operations = len(recording.reads) + len(recording.writes)
    failed = sum(1 for r in recording.reads if r.status != 200 or r.wrong) + sum(
        1 for w in recording.writes if not w.ok
    )
    latencies = [latency for _due, latency in open_latency]
    return {
        "read_p50_ms": measure.quiet_median(open_latency, recording.open_windows),
        "read_capacity_qps": measure.peak_rate(
            (read.done for read in closed), recording.closed_windows
        ),
        "read_slo_ok_share": statistics.fmean(within),
        "write_p50_ms": _write_latency_ms(writes),
        "server_peak_rss_mb": recording.counters["peak_rss_kb"] / 1024.0,
        "loadgen.write_docs_per_s": _docs_per_second(writes),
        "loadgen.open_p50_ms": measure.percentile(latencies, 0.50),
        "loadgen.read_p95_ms": measure.percentile(latencies, 0.95),
        "loadgen.read_p99_ms": measure.percentile(latencies, 0.99),
        "loadgen.max_lateness_ms": max(read.late for read in opened) * 1e3,
        "loadgen.read_slo_miss_share": 1.0 - statistics.fmean(within),
        "loadgen.failed_share": failed / operations,
        "loadgen.open_reads": float(len(opened)),
        "loadgen.writes_acked": float(len(recording.writes)),
        "loadgen.reads_compared": float(recording.compared),
        "attempted": operations,
        "failed": failed,
    }
