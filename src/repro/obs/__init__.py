"""Zero-dependency observability for the serving stack.

One :class:`Telemetry` hub per stack composes three primitives:

* :mod:`repro.obs.trace` — per-query traces of nested spans,
  propagated across the front door's thread pool via ``contextvars``;
* :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges and fixed-bucket latency histograms with p50/p95/p99;
* :mod:`repro.obs.events` — a bounded, deterministic ring-buffer ops
  log of replica/rebalance/fault/cache transitions.

:mod:`repro.obs.export` renders a registry snapshot as
Prometheus-style text; :mod:`repro.obs.clock` is the one sanctioned
``time.perf_counter`` alias (repro-lint RPR006 bans ad-hoc timing
calls elsewhere in ``src/``).  See ``docs/OBSERVABILITY.md``.
"""

from .clock import now
from .events import EventLog, OpsEvent
from .export import render_prometheus
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    QUANTILES,
)
from .telemetry import Telemetry
from .trace import NULL_SPAN, Span, Trace, Tracer, current_span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "OpsEvent",
    "QUANTILES",
    "Span",
    "Telemetry",
    "Trace",
    "Tracer",
    "current_span",
    "now",
    "render_prometheus",
]
