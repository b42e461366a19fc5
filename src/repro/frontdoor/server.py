"""The concurrent front door: asyncio serving over a query service.

Two layers, separable on purpose:

* :class:`FrontDoor` — the transport-free core.  ``await
  handle(request)`` takes a validated :class:`QueryRequest` (or a raw
  dict) through quota, single-flight coalescing and bounded admission,
  runs the blocking service call on a worker thread, and returns a
  :class:`QueryResponse`.  Benchmarks and tests drive *this* with
  hundreds of simulated connections (asyncio tasks) — no sockets, no
  HTTP parsing in the measured path.
* :class:`FrontDoorServer` — a stdlib-only HTTP/1.1 + JSON skin over a
  front door (``asyncio.start_server``; no aiohttp/uvloop dependency
  creep).  ``POST /query`` serves requests; ``GET /healthz``,
  ``GET /metrics`` (Prometheus text) and ``GET /describe`` expose the
  observability surface; ``POST /drain`` gracefully drains.

Request flow (the order is the admission pipeline of
``docs/ARCHITECTURE.md``):

1. **validate** — malformed bodies are 400s before any accounting;
2. **quota** — the tenant's token bucket (fast 429, ``retry_after``);
3. **landed?** — an answer the service already gathered for this
   question at the current generation (its ``answer_cache``) is
   returned from the event loop: no flight, slot or worker thread, and
   a body of the entry's encoded answer with three request values;
4. **coalesce** — identical in-flight queries (same normalized xpath,
   strategy, options, scope, cache flag *and service generation*) join
   the running flight as followers and never touch the engine;
5. **admit** — flight leaders take one of ``max_concurrency`` slots or
   wait in the bounded queue (fast 503 beyond it);
6. **execute** — the blocking ``service.execute`` runs on the front
   door's thread pool, inside the caller's telemetry context, so the
   engine's ``query`` span lands under this request's trace.

Every response copies what it keeps of the flight's result, so the
fan-out can never alias one mutable answer across clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import gc
import inspect
import json
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Optional, Union

from ..errors import ReproError
from ..obs.clock import now as _now
from ..planner.evaluator import QueryResult
from ..query.parser import normalize_xpath
from ..service.base import ServingFacade
from .admission import AdmissionController, QuotaSpec
from .coalesce import SingleFlight
from .models import (
    BadRequestError,
    DrainingError,
    FrontDoorError,
    QueryRequest,
    QueryResponse,
    RejectedError,
    error_body,
)

__all__ = ["FrontDoor", "FrontDoorServer"]


class FrontDoor:
    """Quota + coalescing + bounded admission over a blocking service."""

    def __init__(
        self,
        service: ServingFacade,
        coalesce: bool = True,
        max_concurrency: int = 8,
        max_queue: int = 64,
        quotas: Optional[Mapping[str, QuotaSpec]] = None,
        default_quota: Optional[QuotaSpec] = None,
    ) -> None:
        self.service = service
        #: Share the service's hub so front-door spans, the engine's
        #: query spans and the admission events land in one trace tree.
        self.telemetry = service.telemetry
        self.coalesce = coalesce
        self.flights = SingleFlight()
        self.admission = AdmissionController(
            max_concurrency=max_concurrency,
            max_queue=max_queue,
            quotas=quotas,
            default_quota=default_quota,
        )
        #: One worker thread per execution slot: an admitted leader
        #: never queues invisibly inside the executor.
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="frontdoor"
        )
        #: Whether the wrapped service takes a ``documents=`` scope
        #: (the sharded facade does, the single-engine one does not).
        self._supports_documents = (
            "documents" in inspect.signature(service.execute).parameters
        )
        self.requests_served = 0
        self.requests_rejected = 0

    # ------------------------------------------------------------------
    # The request pipeline
    # ------------------------------------------------------------------
    async def handle(
        self, request: Union[QueryRequest, Mapping]
    ) -> QueryResponse:
        """Serve one request; raises a :class:`FrontDoorError` on reject."""
        if not isinstance(request, QueryRequest):
            request = QueryRequest.from_dict(request)
        started = _now()
        attributes = {
            "tier": "frontdoor",
            "xpath": request.xpath,
            "tenant": request.tenant,
        }
        if request.query_id is not None:
            attributes["query_id"] = request.query_id
        try:
            with self.telemetry.span("frontdoor", **attributes) as root:
                response, outcome = await self._admit_and_run(request, started)
                root.annotate(outcome=outcome, strategy=response.strategy)
        except FrontDoorError as error:
            self.requests_rejected += 1
            self._record(request, started, outcome=error.code, served=False)
            raise
        except ReproError:
            # Parse/planning/lookup errors are the query's own fault.
            self._record(request, started, outcome="query-error", served=False)
            raise
        except Exception as error:
            # Not a refusal and not the query's fault: keep what an
            # operator needs to find it, then let the caller answer 500.
            self.telemetry.event(
                "internal-error",
                xpath=request.xpath,
                tenant=request.tenant,
                error=repr(error),
                traceback=traceback.format_exc(),
            )
            self._record(request, started, outcome="internal-error", served=False)
            raise
        self.requests_served += 1
        self._record(
            request,
            started,
            outcome=outcome,
            served=True,
            cached=response.cached,
            strategy=response.strategy,
        )
        return response

    async def _admit_and_run(
        self, request: QueryRequest, started: float
    ) -> tuple[QueryResponse, str]:
        """The response and how it was come by (the ``outcome`` label)."""
        if self.admission.draining:
            raise DrainingError("server is draining; not accepting new queries")
        if request.documents is not None and not self._supports_documents:
            raise BadRequestError(
                "'documents' scoping requires the sharded service; "
                f"{type(self.service).__name__} does not support it"
            )
        self.admission.check_quota(request.tenant)
        key = self.flight_key(request)
        answers = self.service.answer_cache
        if key is not None and request.use_result_cache and key[0] in answers:
            # Probed first, because a miss here is not the request's
            # lookup: ``execute`` makes that one on a worker, and counts
            # it, so the cache's counters see every request once.  Only
            # the cache's own lock is taken, never a replica's service
            # lock, so a writer cannot stall the loop; and the stored
            # answer is never handed out -- the response copies what it
            # keeps of it.
            landed = answers.get(key[0])
            if landed is not None:
                return QueryResponse.landed(request, landed, _now() - started), "landed"
        with self.telemetry.span("coalesce", xpath=request.xpath) as span:
            result, coalesced = await self.flights.run(
                key if self.coalesce else None, lambda: self._execute(request)
            )
            span.annotate(
                outcome="hit" if coalesced else "lead",
                in_flight=self.flights.in_flight,
            )
        if coalesced:
            self.telemetry.event(
                "coalesced", xpath=request.xpath, tenant=request.tenant
            )
        response = QueryResponse.from_result(
            request, result, coalesced, elapsed_seconds=_now() - started
        )
        return response, "coalesced" if coalesced else "executed"

    async def _execute(self, request: QueryRequest) -> QueryResult:
        """The leader's path: bounded admission, then a worker thread."""
        with self.telemetry.span("admit") as span:
            await self.admission.acquire()
            span.annotate(
                in_flight=self.admission.in_flight,
                queued=self.admission.queue_depth,
            )
        try:
            loop = asyncio.get_running_loop()
            # copy_context(): the engine's root "query" span opened on
            # the worker thread parents under this request's trace.
            context = contextvars.copy_context()
            return await loop.run_in_executor(
                self._executor, context.run, self._run_blocking, request
            )
        finally:
            self.admission.release()

    def _run_blocking(self, request: QueryRequest) -> QueryResult:
        options = dict(request.options)
        if request.documents is not None:
            options["documents"] = list(request.documents)
        return self.service.execute(
            request.xpath,
            strategy=request.strategy,
            use_result_cache=request.use_result_cache,
            query_id=request.query_id,
            **options,
        )

    # ------------------------------------------------------------------
    # Coalescing key
    # ------------------------------------------------------------------
    def flight_key(self, request: QueryRequest) -> Optional[tuple]:
        """``(answer key, cache flag)``: what may share one execution.

        The first half is the service's own
        :meth:`~repro.service.base.ServingFacade.answer_key` — query,
        strategy and options, scope, generation — so a flight and a
        landed answer are the same question by construction, and the
        generation in it is what keeps a write from ever being masked
        by an older execution.  ``None`` (nothing shared) when the
        options are unhashable.
        """
        key = self.service.answer_key(
            normalize_xpath(request.xpath),
            request.strategy,
            request.options,
            request.documents,
        )
        return None if key is None else (key, request.use_result_cache)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record(
        self,
        request: QueryRequest,
        started: float,
        outcome: str,
        served: bool,
        cached: bool = False,
        strategy: str = "-",
    ) -> None:
        elapsed = _now() - started
        if not self.telemetry.enabled:
            return
        self.telemetry.metrics.histogram(
            "repro_frontdoor_latency_seconds",
            "Front-door request wall time, served vs rejected",
        ).observe(elapsed, disposition="served" if served else "rejected")
        self.telemetry.metrics.counter(
            "repro_frontdoor_requests_total",
            "Front-door requests by tenant and outcome",
        ).inc(tenant=request.tenant, outcome=outcome)
        if served:
            self.telemetry.record_query("frontdoor", strategy, elapsed, cached)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting new queries, wait for in-flight work."""
        self.telemetry.event(
            "frontdoor-drain",
            in_flight=self.admission.in_flight,
            queued=self.admission.queue_depth,
        )
        await self.admission.drain()

    def close(self) -> None:
        """Release the worker threads (after :meth:`drain`; idempotent)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def describe(self) -> dict[str, object]:
        return {
            "coalesce": self.coalesce,
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            "coalesced_hits": self.flights.coalesced_hits,
            "flights": self.flights.describe(),
            "admission": self.admission.describe(),
            "service": type(self.service).__name__,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrontDoor(served={self.requests_served}, "
            f"coalesced={self.flights.coalesced_hits}, "
            f"rejected={self.requests_rejected})"
        )


# ----------------------------------------------------------------------
# The HTTP/1.1 + JSON skin
# ----------------------------------------------------------------------

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Unreadable(FrontDoorError):
    """A request not readable to its end: answered, then hung up on."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


#: Refuse request bodies past this size (a malformed content-length
#: must not buffer unbounded memory).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The interpreter's thread switch interval while a server serves.  A
#: read beside a write hops threads (loop -> worker -> loop) and waits
#: one interval per hop for the writer to let go of the interpreter; the
#: default 5 ms is the reads' mean spacing.  Chosen by the table in
#: ``docs/BENCHMARKS.md`` ("The switch interval").
SWITCH_INTERVAL_SECONDS = 0.001


class _ServingPosture:
    """Interpreter-wide serving settings, shared by a process's servers:
    every entry freezes the heap built so far, the first also shortens
    the switch interval, and the last exit undoes both (``gc.unfreeze()``
    is all or nothing: what anyone else froze is unfrozen with it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._holders = 0
        self._found_interval = 0.0

    def __enter__(self) -> None:
        with self._lock:
            if not self._holders:
                self._found_interval = sys.getswitchinterval()
                sys.setswitchinterval(SWITCH_INTERVAL_SECONDS)
            self._holders += 1
            gc.freeze()

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._holders -= 1
            if not self._holders:
                sys.setswitchinterval(self._found_interval)
                gc.unfreeze()


_POSTURE = _ServingPosture()


class FrontDoorServer:
    """A stdlib asyncio HTTP server around a :class:`FrontDoor`.

    ``port=0`` (the default) binds an ephemeral port; read it back from
    :attr:`address` after :meth:`start`.  Connections are keep-alive
    HTTP/1.1; :meth:`stop` drains the front door, hangs up on idle
    connections and waits for every connection handler to finish, so no
    handler is left for the event loop's shutdown to cancel.
    """

    def __init__(
        self,
        frontdoor: FrontDoor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.frontdoor = frontdoor
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection-handler tasks, and the writers of those that
        #: are waiting for a request and can be hung up on at any time.
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()
        self._stopping = False
        #: Gives back what :meth:`start` took of the interpreter.
        self._posture = contextlib.ExitStack()

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns ``(host, port)``.

        Takes the serving posture, given back by :meth:`stop` or a
        failed bind: :data:`SWITCH_INTERVAL_SECONDS`, timed collector
        pauses, and ``gc.freeze()`` — the heap built before listening
        (corpus, indexes) is walked by no later collection.  The price
        is a bounded leak: a frozen object that becomes cyclic garbage
        while serving (a document held at ``start()`` and removed since)
        is reclaimed only at ``stop()`` — at most the corpus held at
        ``start()``.  What is added *and* removed while serving is
        collected as ever.
        """
        self._stopping = False
        loop = asyncio.get_running_loop()
        with contextlib.ExitStack() as posture:
            posture.callback(
                self.frontdoor.telemetry.watch_gc(loop.call_soon_threadsafe)
            )
            posture.enter_context(_POSTURE)
            self._server = await asyncio.start_server(
                self._serve_connection, self.host, self.port
            )
            self._posture = posture.pop_all()
        self.port = self._server.sockets[0].getsockname()[1]
        self.frontdoor.telemetry.event(
            "frontdoor-listening", host=self.host, port=self.port
        )
        return (self.host, self.port)

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain admitted work, close the socket, then
        end every connection.

        Idle keep-alive connections are closed from this side; one that
        is mid-request answers it and closes instead of waiting for the
        next.  Every handler is awaited before this returns — including
        one whose client has just hung up and which is still inside
        ``writer.wait_closed()`` — because a handler that outlives
        ``stop()`` is cancelled by the loop's shutdown and surfaces as a
        leaked ``CancelledError`` callback.
        """
        if drain:
            await self.frontdoor.drain()
        if self._server is not None:
            self._server.close()  # stop accepting; open connections stay
        self._stopping = True  # a handler not yet started closes at once
        for writer in list(self._idle):
            writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers))
        if self._server is not None:
            # Last: from Python 3.12 on this waits for every accepted
            # connection, so it must follow the hang-ups above.
            await self._server.wait_closed()
            self._server = None
        self._posture.close()
        self.frontdoor.close()

    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while not self._stopping:
                self._idle.add(writer)
                try:
                    parsed = await self._read_request(reader)
                except _Unreadable as refusal:
                    parsed = None
                    self._write_response(
                        writer, *self._json(refusal.status, error_body(refusal)), False
                    )
                    await writer.drain()
                finally:
                    self._idle.discard(writer)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload, content_type, extra = await self._dispatch(
                    method, path, body
                )
                keep_alive = keep_alive and not self._stopping
                self._write_response(
                    writer, status, payload, content_type, extra, keep_alive
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                self._handlers.discard(handler)

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        """One request off the wire, or ``None`` at a clean end of stream.

        The request line and headers arrive in one await and are split
        as one string.  :class:`_Unreadable`: a header block past the
        stream's 64 KiB buffer (431), a bad request line or
        ``Content-Length`` (400), a body past :data:`MAX_BODY_BYTES` (413).
        """
        try:
            block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if error.partial:
                raise
            return None
        except asyncio.LimitOverrunError:
            raise _Unreadable(
                431, "header-too-large", "request line and headers exceed the 64 KiB read buffer"
            ) from None
        request_line, *lines = block[:-4].decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            raise _Unreadable(400, "bad-request", f"malformed request line {request_line[:80]!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not declared.isdecimal():  # 1*DIGIT, RFC 9110; int() would also take "+5" and "1_0"
            raise _Unreadable(400, "bad-request", f"malformed Content-Length {declared[:80]!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _Unreadable(
                413, "payload-too-large", f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, body: bytes):
        """Route one request; returns (status, payload, content-type, headers)."""
        path = path.split("?", 1)[0]
        if path == "/query":
            if method != "POST":
                return self._json(405, {"error": "method-not-allowed", "status": 405, "message": "POST /query"})
            return await self._serve_query(body)
        if path == "/healthz":
            return self._json(
                200 if not self.frontdoor.admission.draining else 503,
                {
                    "status": "draining" if self.frontdoor.admission.draining else "ok",
                    "served": self.frontdoor.requests_served,
                },
            )
        if path == "/describe":
            return self._json(200, self.frontdoor.describe())
        if path == "/metrics":
            text = self.frontdoor.service.metrics_text()
            return (200, text.encode("utf-8"), "text/plain; version=0.0.4", ())
        if path == "/drain" and method == "POST":
            await self.frontdoor.drain()
            return self._json(200, {"status": "drained"})
        return self._json(
            404, {"error": "not-found", "status": 404, "message": path}
        )

    async def _serve_query(self, body: bytes):
        try:
            decoded = json.loads(body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            bad = BadRequestError(f"request body is not valid JSON: {error}")
            return self._json(bad.status, error_body(bad))
        try:
            response = await self.frontdoor.handle(decoded)
        except RejectedError as rejected:
            extra = ()
            if rejected.retry_after is not None:
                extra = (("Retry-After", f"{max(0.0, rejected.retry_after):.3f}"),)
            return self._json(rejected.status, error_body(rejected), extra)
        except FrontDoorError as error:
            return self._json(error.status, error_body(error))
        except ReproError as error:
            # Parse/planning/lookup errors are the *query's* fault: a
            # deterministic 400, never a 500.
            return self._fault(400, "query-error", error)
        except Exception as error:  # repro-lint: ignore[RPR005] -- answered as a typed 500 and counted by handle(); re-raising would kill the connection handler
            return self._fault(500, "internal-error", error)
        return (200, response.encode(), "application/json", ())

    @classmethod
    def _fault(cls, status: int, code: str, error: Exception):
        """The JSON answer to an error the front door did not raise itself."""
        return cls._json(
            status,
            {
                "error": code,
                "status": status,
                "kind": type(error).__name__,
                "message": str(error),
            },
        )

    @staticmethod
    def _json(status: int, payload: object, extra=()):
        return (
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json",
            tuple(extra),
        )

    @staticmethod
    def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        extra_headers,
        keep_alive: bool,
    ) -> None:
        reason = _REASONS.get(status, "OK")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrontDoorServer({self.host}:{self.port})"
