"""The per-stack telemetry hub: one tracer + one registry + one ops log.

A :class:`Telemetry` instance is the single observability handle a
serving stack shares.  The top-level service creates it (or accepts
one) and threads it down through the collection, the shards, the
replica sets and their per-replica :class:`~repro.service.QueryService`
instances — which is what makes one query's spans, wherever they were
opened (the scatter loop, a replica's engine, the write path's index
maintenance), land in the *same* trace tree, and every layer's events
land in the *same* ordered ops log.

``enabled=False`` makes the whole surface no-op — ``span`` returns a
reusable null context, ``event`` and ``record_query`` return without
touching a lock — so the overhead bench can pin the cost of the
instrumentation itself (``benchmarks/bench_observability.py``: a
ceiling on the microseconds tracing adds to one executed query, a floor
on enabled/disabled throughput, answers bit-identical).
"""

from __future__ import annotations

import contextlib
import gc
from typing import Callable, Optional

from .clock import now as _now
from .events import EventLog
from .export import render_prometheus
from .metrics import MetricsRegistry
from .trace import NULL_SPAN, Span, Trace, Tracer

__all__ = ["GC_PAUSE_EVENT_SECONDS", "Telemetry"]

#: Collector pauses at least this long are ops events (``gc-pause``) as
#: well as ``repro_gc_pause_seconds`` observations.
GC_PAUSE_EVENT_SECONDS = 0.010


class Telemetry:
    """Tracer, metrics registry and ops event log behind one switch."""

    def __init__(
        self,
        enabled: bool = True,
        trace_capacity: int = 64,
        event_capacity: int = 256,
        slow_query_seconds: Optional[float] = None,
        slow_query_capacity: int = 32,
        clock: Callable[[], float] = _now,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.events = EventLog(capacity=event_capacity)
        self.tracer = Tracer(
            capacity=trace_capacity,
            clock=clock,
            slow_query_seconds=slow_query_seconds,
            slow_capacity=slow_query_capacity,
            on_slow=self._on_slow,
        )
        #: Reused for every span of a disabled stack: no allocation, no
        #: generator frame, no contextvar traffic on the hot path.
        self._null_span = contextlib.nullcontext(NULL_SPAN)

    # ------------------------------------------------------------------
    # The three instrumentation primitives call sites use
    # ------------------------------------------------------------------
    def span(self, name: str, stats=None, **attributes):
        """A tracer span, or a shared no-op context when disabled."""
        if not self.enabled:
            return self._null_span
        return Span(name, attributes, self.tracer, stats)

    def event(self, kind: str, **attributes):
        """Publish one ops event (dropped silently when disabled)."""
        if not self.enabled:
            return None
        return self.events.publish(kind, **attributes)

    def record_query(
        self, tier: str, strategy: str, elapsed_seconds: float, cached: bool
    ) -> None:
        """Feed one finished query into the standard metric families.

        ``tier`` is ``"engine"`` for a single-engine service (each
        shard's per-replica service included) and ``"sharded"`` for the
        scatter-gather facade, so one shared registry reports separate
        latency distributions for single-engine and sharded execution.
        """
        if not self.enabled:
            return
        self.metrics.histogram(
            "repro_query_latency_seconds",
            "Query wall time by serving tier",
        ).observe(elapsed_seconds, tier=tier)
        self.metrics.counter(
            "repro_queries_total",
            "Queries served, by tier and executed strategy",
        ).inc(tier=tier, strategy=strategy)
        self.metrics.counter(
            "repro_result_cache_lookups_total",
            "Result-cache outcomes of served queries, by tier",
        ).inc(tier=tier, outcome="hit" if cached else "miss")

    def watch_gc(self, defer: Callable[..., object]) -> Callable[[], None]:
        """Time every collection from now on; call the result to stop.

        A collection holds the interpreter lock, so its length is a
        pause of every thread.  The ``gc.callbacks`` hook runs under
        whatever lock the interrupted thread holds, this hub's included,
        so it takes none: ``defer(function, *args)`` must run the
        recording later and elsewhere (a server passes its loop's
        ``call_soon_threadsafe``).
        """
        started = 0.0

        def record(generation: int, seconds: float) -> None:
            self.metrics.histogram(
                "repro_gc_pause_seconds", "Collector pauses, by generation collected"
            ).observe(seconds, generation=generation)
            if seconds >= GC_PAUSE_EVENT_SECONDS:
                self.events.publish("gc-pause", generation=generation, seconds=seconds)

        def on_gc(phase: str, info: dict) -> None:
            nonlocal started
            if not self.enabled:
                return
            if phase == "start":
                started = _now()
            else:
                try:
                    defer(record, info["generation"], _now() - started)
                except RuntimeError:  # a closed loop: its server never stopped
                    stop()

        def stop() -> None:
            if on_gc in gc.callbacks:
                gc.callbacks.remove(on_gc)

        gc.callbacks.append(on_gc)
        return stop

    def _on_slow(self, trace: Trace) -> None:
        attributes = trace.root.attributes
        self.events.publish(
            "slow-query",
            trace_id=trace.trace_id,
            seconds=trace.duration_seconds,
            xpath=attributes.get("xpath"),
            query_id=attributes.get("query_id"),
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def slow_query_seconds(self) -> Optional[float]:
        return self.tracer.slow_query_seconds

    @slow_query_seconds.setter
    def slow_query_seconds(self, threshold: Optional[float]) -> None:
        self.tracer.slow_query_seconds = threshold

    def traces(self, last: Optional[int] = None) -> list[Trace]:
        return self.tracer.traces(last=last)

    def slow_queries(self, last: Optional[int] = None) -> list[Trace]:
        return self.tracer.slow_queries(last=last)

    def metrics_text(self) -> str:
        """The registry as Prometheus-style text (no scrape refresh)."""
        return render_prometheus(self.metrics.snapshot())

    def describe(self) -> dict[str, object]:
        """The ``telemetry`` section of the services' ``describe()``."""
        return {
            "enabled": self.enabled,
            "traces": self.tracer.describe(),
            "events": self.events.describe(),
            "metric_families": len(self.metrics),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(enabled={self.enabled}, "
            f"traces={self.tracer.traces_finished}, "
            f"events={self.events.total_published})"
        )
