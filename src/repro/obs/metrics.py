"""A thread-safe registry of counters, gauges and latency histograms.

The tracer answers "what did *this* query do"; the
:class:`MetricsRegistry` answers "what does the service do in
aggregate".  Three instrument kinds, all label-aware:

* :class:`Counter` — monotone totals (``repro_queries_total`` per
  strategy and tier, cache lookup outcomes),
* :class:`Gauge` — last-observed values, which is also how the
  scrape path exports the :class:`~repro.storage.stats.StatsCollector`
  activity counters (``reads_retried``, ``replicas_failed``,
  ``auto_rebalances``, ...) without double-counting them,
* :class:`Histogram` — fixed-bucket latency distributions with
  p50/p95/p99 estimation by linear interpolation inside the bucket
  the target rank falls in (the standard fixed-bucket estimator;
  exact min/max observations clamp the ends).

Everything is stdlib-only and guarded by one registry lock — metric
updates are single dict/list operations, so one lock is cheaper than
per-family locks and makes :meth:`MetricsRegistry.snapshot` a
consistent cut.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QUANTILES",
]

#: Upper bucket bounds (seconds) for latency histograms: log-spaced
#: from 10 microseconds (a warm cache hit) to 10 seconds, plus an
#: implicit +Inf overflow bucket.
DEFAULT_LATENCY_BUCKETS = (
    0.00001,
    0.000025,
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: The percentiles every histogram series reports.
QUANTILES = (0.5, 0.95, 0.99)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class _Family:
    """Shared shape of one named metric family (all label series)."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help_text
        self._lock = lock
        self._series: dict[tuple, object] = {}


class Counter(_Family):
    """A monotone total per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "series": [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(self._series.items())
                ],
            }


class Gauge(_Family):
    """A last-written value per label set (scrape-time exports use this)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    snapshot = Counter.snapshot


class _HistogramSeries:
    """Bucket counts plus exact sum/count/min/max for one label set."""

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * (num_buckets + 1)  # trailing +Inf bucket
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Family):
    """Fixed-bucket distribution with interpolated quantile estimates."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, lock)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be ascending: {buckets}")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            # First bound >= value; past the last one is the +Inf bucket.
            series.counts[bisect_left(self.buckets, value)] += 1
            series.total += 1
            series.sum += value
            series.min = min(series.min, value)
            series.max = max(series.max, value)

    def quantile(self, q: float, **labels) -> float:
        """Estimated ``q``-quantile for one label series (0.0 when empty)."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.total == 0:
                return 0.0
            return self._estimate(series, q)

    def _estimate(self, series: _HistogramSeries, q: float) -> float:
        target = q * series.total
        cumulative = 0.0
        lower = 0.0
        for bound, count in zip(self.buckets, series.counts):
            if count and cumulative + count >= target:
                fraction = (target - cumulative) / count
                value = lower + (bound - lower) * fraction
                return min(max(value, series.min), series.max)
            cumulative += count
            lower = bound
        # The rank falls in the +Inf overflow bucket; the exact max is
        # the only honest upper bound we have.
        return series.max

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            rendered = []
            for key, series in sorted(self._series.items()):
                cumulative = 0
                bucket_rows = []
                for bound, count in zip(self.buckets, series.counts):
                    cumulative += count
                    bucket_rows.append({"le": bound, "cumulative": cumulative})
                bucket_rows.append(
                    {"le": "+Inf", "cumulative": series.total}
                )
                entry = {
                    "labels": dict(key),
                    "count": series.total,
                    "sum": series.sum,
                    "min": series.min if series.total else 0.0,
                    "max": series.max if series.total else 0.0,
                    "buckets": bucket_rows,
                }
                for q in QUANTILES:
                    entry[f"p{int(q * 100)}"] = (
                        self._estimate(series, q) if series.total else 0.0
                    )
                rendered.append(entry)
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "bucket_bounds": list(self.buckets),
                "series": rendered,
            }


class MetricsRegistry:
    """Named metric families, created on first use, snapshotted as one.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call fixes the family's kind (and a histogram's buckets);
    re-registering a name as a different kind is a programming error
    and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._family(name, Counter, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._family(name, Gauge, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._family(name, Histogram, help_text, buckets=buckets)

    def _family(self, name: str, cls: type, help_text: str, **options) -> _Family:
        # Families are never replaced or removed, so the per-query
        # callers find theirs with one lock-free dict probe; the lock
        # is for creation only.
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help_text, self._lock, **options)
                    self._families[name] = family
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """A JSON-serializable consistent cut of every family."""
        with self._lock:
            families = [
                family.snapshot() for _, family in sorted(self._families.items())
            ]
        return {
            "counters": [f for f in families if f["kind"] == "counter"],
            "gauges": [f for f in families if f["kind"] == "gauge"],
            "histograms": [f for f in families if f["kind"] == "histogram"],
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry(families={len(self)})"
