"""Per-query traces of nested spans, propagated across thread pools.

A :class:`Span` is one timed window of a query's life (``plan`` /
``choose`` / ``cache-lookup`` / ``execute`` / ``scatter`` / ``shard`` /
``replica`` / ``index-maintain`` — the taxonomy lives in
``docs/OBSERVABILITY.md``), carrying wall time, free-form attributes
and, when a :class:`~repro.storage.stats.StatsCollector` is attached,
the counter diff of exactly its window — so a trace prices each phase
in the same logical currency the paper's figures use.

Parent/child structure comes from a ``contextvars.ContextVar``: a span
opened while another is current becomes its child.  Crossing a thread
pool does **not** propagate context variables by itself —
``ThreadPoolExecutor.submit`` runs the callable in whatever context
the worker thread last had — so the one thread hop a query makes (the
front door's executor, :meth:`~repro.frontdoor.server.FrontDoor._execute`)
submits through ``contextvars.copy_context().run``, giving the worker
a private copy in which the request's span is current.  Everything
below that hop — scatter, shard legs, replicas, engine — runs on that
one worker thread, so its spans nest by plain call order.

A root span (opened with no parent) becomes a :class:`Trace` when it
closes: the :class:`Tracer` keeps a bounded ring of recent traces and
a separate bounded ring of *slow* traces — roots whose duration
reached the configurable threshold — so the full span tree of an
outlier survives even after the main ring has rotated past it.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .clock import now as _now

__all__ = ["NULL_SPAN", "Span", "Trace", "Tracer", "current_span"]

#: The innermost open span of the calling context (None outside any).
_CURRENT_SPAN: contextvars.ContextVar[Optional["Span"]] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def current_span() -> Optional["Span"]:
    """The span the calling context is currently inside, if any."""
    return _CURRENT_SPAN.get()


class Span:
    """One named, timed, attributed window of a query's execution.

    A span is its own context manager: ``with tracer.span(...) as
    span`` opens it under the context's current span, and leaving the
    block closes it — a root span (no parent) then becomes a
    :class:`Trace`.  One object per span, no wrapper: the enter/exit
    pair is paid five times per traced query.
    """

    __slots__ = (
        "name", "attributes", "children", "started", "ended", "cost",
        "_tracer", "_stats", "_before", "_token", "_parent",
    )

    def __init__(
        self, name: str, attributes: Optional[dict] = None, tracer=None, stats=None
    ) -> None:
        self.name = name
        #: Owned, not copied: :meth:`Tracer.span` hands over its own
        #: keyword dict.
        self.attributes: dict = attributes if attributes is not None else {}
        self.children: list[Span] = []
        self.started: Optional[float] = None
        self.ended: Optional[float] = None
        #: StatsCollector diff over this span's window (when attached).
        self.cost: Optional[dict[str, int]] = None
        self._tracer = tracer
        self._stats = stats
        self._before = None
        self._token = None
        self._parent: Optional[Span] = None

    def __enter__(self) -> "Span":
        parent = self._parent = _CURRENT_SPAN.get()
        if parent is not None:
            parent.children.append(self)
        self._token = _CURRENT_SPAN.set(self)
        if self._stats is not None:
            self._before = self._stats.snapshot()
        self.started = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.ended = self._tracer.clock()
        if self._stats is not None:
            self.cost = self._stats.diff(self._before)
        if exc is not None and "error" not in self.attributes:
            self.attributes["error"] = repr(exc)
        _CURRENT_SPAN.reset(self._token)
        parent = self._parent
        # A closed span is a record: drop what only the open window
        # needed (the parent link would make every retained trace a
        # reference cycle).
        self._stats = self._before = self._token = self._parent = None
        if parent is None:
            self._tracer._finish(self)
        return False

    # ------------------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        if self.started is None or self.ended is None:
            return 0.0
        return self.ended - self.started

    def annotate(self, **attributes) -> "Span":
        """Attach attributes after the fact (chainable)."""
        self.attributes.update(attributes)
        return self

    def walk(self):
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree, depth-first order."""
        return [span for span in self.walk() if span.name == name]

    def tree(self) -> dict[str, object]:
        """The span subtree as a JSON-serializable dict."""
        node: dict[str, object] = {
            "name": self.name,
            "duration_seconds": self.duration_seconds,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.cost is not None:
            node["cost"] = {k: v for k, v in self.cost.items() if v}
        if self.children:
            node["children"] = [child.tree() for child in self.children]
        return node

    def render(self, indent: int = 0) -> str:
        """A human-readable tree (slow-query dumps, examples)."""
        details = " ".join(
            f"{key}={value!r}" for key, value in sorted(self.attributes.items())
        )
        line = "  " * indent + (
            f"{self.name}  {self.duration_seconds * 1000:.3f}ms"
            + (f"  [{details}]" if details else "")
        )
        return "\n".join(
            [line] + [child.render(indent + 1) for child in self.children]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NullSpan(Span):
    """The shared no-op span a disabled telemetry hands out.

    Accepts annotations and discards them, so instrumented call sites
    need no ``if enabled`` branches of their own.
    """

    __slots__ = ()

    def annotate(self, **attributes) -> "Span":
        return self


NULL_SPAN = _NullSpan("disabled")


@dataclass(frozen=True)
class Trace:
    """One finished per-query trace: a numbered, closed root span."""

    trace_id: int
    root: Span

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds

    def tree(self) -> dict[str, object]:
        return {"trace_id": self.trace_id, **self.root.tree()}

    def render(self) -> str:
        return f"trace #{self.trace_id}\n" + self.root.render(indent=1)


class Tracer:
    """Produces spans and retains finished traces in bounded rings."""

    def __init__(
        self,
        capacity: int = 64,
        clock: Callable[[], float] = _now,
        slow_query_seconds: Optional[float] = None,
        slow_capacity: int = 32,
        on_slow: Optional[Callable[[Trace], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be positive: {capacity}")
        self.clock = clock
        #: Root spans at or above this duration are copied into the
        #: slow-query ring (and reported through ``on_slow``); ``None``
        #: disables the slow log.
        self.slow_query_seconds = slow_query_seconds
        self._on_slow = on_slow
        self._lock = threading.Lock()
        self._traces: deque[Trace] = deque(maxlen=capacity)
        self._slow: deque[Trace] = deque(maxlen=slow_capacity)
        self._seq = 0
        self._finished = 0

    # ------------------------------------------------------------------
    def span(self, name: str, stats=None, **attributes) -> Span:
        """One span, opened by entering it as a context manager.

        ``stats`` is any object with ``snapshot()``/``diff()`` (in
        practice a :class:`~repro.storage.stats.StatsCollector`); the
        span's ``cost`` becomes the counter diff over its window.
        """
        return Span(name, attributes, self, stats)

    def _finish(self, root: Span) -> None:
        slow_trace = None
        with self._lock:
            self._seq += 1
            self._finished += 1
            trace = Trace(trace_id=self._seq, root=root)
            self._traces.append(trace)
            threshold = self.slow_query_seconds
            if threshold is not None and root.duration_seconds >= threshold:
                self._slow.append(trace)
                slow_trace = trace
        if slow_trace is not None and self._on_slow is not None:
            self._on_slow(slow_trace)

    # ------------------------------------------------------------------
    def traces(self, last: Optional[int] = None) -> list[Trace]:
        """The most recent finished traces, oldest first."""
        with self._lock:
            traces = list(self._traces)
        return traces if last is None else traces[-last:]

    def slow_queries(self, last: Optional[int] = None) -> list[Trace]:
        """Retained traces that crossed the slow-query threshold."""
        with self._lock:
            slow = list(self._slow)
        return slow if last is None else slow[-last:]

    @property
    def traces_finished(self) -> int:
        with self._lock:
            return self._finished

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "finished": self._finished,
                "retained": len(self._traces),
                "capacity": self._traces.maxlen,
                "slow_query_seconds": self.slow_query_seconds,
                "slow_retained": len(self._slow),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(finished={self.traces_finished})"
