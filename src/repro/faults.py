"""Deterministic fault injection for the shard tier's replica sets.

The failover machinery of :class:`~repro.shard.replica.Shard`
(health states, read retry, quarantine, revive) is only trustworthy if
it can be exercised *on demand*: a replica must be killable at an exact
point in a workload, reproducibly, from a test or a benchmark.  This
module provides that, with no wall-clock randomness anywhere:

* a :class:`FaultPlan` is an immutable schedule mapping **call counts**
  (the Nth ``execute`` seen by one wrapped surface) to
  :class:`FaultEvent` records.  Plans are built explicitly
  (:meth:`FaultPlan.failing_at`, :meth:`FaultPlan.diverging_at`) or generated from a seed
  (:meth:`FaultPlan.seeded`) via :class:`random.Random` — the same seed
  always yields the same schedule;
* a :class:`FaultInjector` wraps one replica (anything exposing
  ``execute`` and ``watermark``, in practice a
  :class:`~repro.shard.replica.Replica`) and fires the plan's events:

  - ``error`` events raise :class:`InjectedFault` out of ``execute``
    instead of running it — what drives the health state machine
    (healthy → suspect → dead) and the read-retry path;
  - ``slow`` events sleep ``delay_seconds`` before executing — what
    latency-sensitive pickers and benches measure against;
  - ``diverge`` events permanently skew the reported ``watermark`` —
    what the write-through alignment check must catch and quarantine.

The injector is a transparent proxy: every attribute it does not
intercept delegates to the wrapped surface, so it can stand in for a
replica inside ``Shard.replicas`` (see :func:`inject`) and the
tier above notices nothing until a fault fires.  Reviving a
replica (:meth:`~repro.shard.replica.Shard.revive`) replaces
the injector along with the faulty replica, which is exactly the
recovery semantics a real replacement node would have.

Thread-safety: one injector may be hit by concurrent scattered reads,
so the call counter and the fired-event log are kept under a lock.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "inject",
]


class InjectedFault(RuntimeError):
    """The exception an ``error`` fault raises out of a wrapped call."""


#: The fault kinds a plan may schedule.
FAULT_KINDS = ("error", "slow", "diverge")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` on the ``call``-th execute.

    ``call`` counts from 1 (the first ``execute`` the injector sees).
    ``delay_seconds`` applies to ``slow`` events; ``drift`` is how many
    ids a ``diverge`` event adds to the reported watermark (it must be
    non-zero, or the divergence would be invisible).
    """

    call: int
    kind: str = "error"
    delay_seconds: float = 0.0
    drift: int = 1

    def __post_init__(self) -> None:
        if self.call < 1:
            raise ValueError(f"fault call counts start at 1, got {self.call}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.kind == "slow" and self.delay_seconds <= 0:
            raise ValueError("slow faults need a positive delay_seconds")
        if self.kind == "diverge" and self.drift == 0:
            raise ValueError("diverge faults need a non-zero drift")


class FaultPlan:
    """An immutable, deterministic schedule of faults by call count.

    A plan is shared state only in the trivial sense: it is read-only
    after construction, so one plan may parameterize several injectors.
    Each *injector* keeps its own call counter and fired log.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(events, key=lambda event: event.call)
        by_call: dict[int, FaultEvent] = {}
        for event in ordered:
            if event.call in by_call:
                raise ValueError(
                    f"two faults scheduled for call {event.call}; "
                    "one call fires at most one event"
                )
            by_call[event.call] = event
        self._by_call = by_call

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def failing_at(cls, *calls: int) -> "FaultPlan":
        """A plan raising :class:`InjectedFault` on the given calls."""
        return cls(FaultEvent(call=call, kind="error") for call in calls)

    @classmethod
    def diverging_at(cls, call: int, drift: int = 1) -> "FaultPlan":
        """A plan skewing the reported watermark from ``call`` onward."""
        return cls([FaultEvent(call=call, kind="diverge", drift=drift)])

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: int,
        rate: float,
        kinds: Sequence[str] = ("error",),
        delay_seconds: float = 0.001,
        drift: int = 1,
    ) -> "FaultPlan":
        """A reproducible random schedule over the first ``horizon`` calls.

        Each call in ``[1, horizon]`` independently fires with
        probability ``rate``; the kind is drawn uniformly from
        ``kinds``.  Determinism comes from :class:`random.Random`
        seeded with ``seed`` — no wall-clock randomness — so a test or
        bench that records its seed replays the identical schedule.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}"
                )
        rng = random.Random(seed)
        events = []
        for call in range(1, horizon + 1):
            if rng.random() >= rate:
                continue
            kind = kinds[rng.randrange(len(kinds))]
            events.append(
                FaultEvent(
                    call=call,
                    kind=kind,
                    delay_seconds=delay_seconds if kind == "slow" else 0.0,
                    drift=drift,
                )
            )
        return cls(events)

    # ------------------------------------------------------------------
    @property
    def events(self) -> list[FaultEvent]:
        """The schedule in call order."""
        return [self._by_call[call] for call in sorted(self._by_call)]

    def event_for(self, call: int) -> Optional[FaultEvent]:
        """The event scheduled for the ``call``-th execute, if any."""
        return self._by_call.get(call)

    def __len__(self) -> int:
        return len(self._by_call)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = [f"{e.kind}@{e.call}" for e in self.events]
        return f"FaultPlan({', '.join(kinds)})"


@dataclass
class _InjectorState:
    """Mutable per-injector bookkeeping, guarded by the injector lock."""

    calls: int = 0
    drift: int = 0
    fired: list[FaultEvent] = field(default_factory=list)


class FaultInjector:
    """A transparent proxy over one replica that fires a plan.

    Wraps any object exposing the replica surface (``execute``,
    ``watermark``, ``add_document``, ...) and intercepts exactly two
    things: ``execute`` (where ``error`` and ``slow`` events fire and
    the call counter advances) and ``watermark`` (where an armed
    ``diverge`` event's drift is added).  Everything else — locks,
    engines, stats, services — delegates to the wrapped surface, so a
    :class:`~repro.shard.replica.Shard` treats the injector
    exactly like the replica it wraps.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
        telemetry=None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._state = _InjectorState()
        #: Optional :class:`~repro.obs.Telemetry`; when present, every
        #: fired event is also published to the stack's ops log, so a
        #: fault-injection run reads as one ordered story: injected
        #: fault -> failed read -> retry -> quarantine.
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Intercepted surface
    # ------------------------------------------------------------------
    def execute(self, *args, **kwargs):
        """Run one read through the plan, then through the surface."""
        with self._lock:
            self._state.calls += 1
            event = self.plan.event_for(self._state.calls)
            if event is not None:
                self._state.fired.append(event)
                if event.kind == "diverge":
                    self._state.drift += event.drift
        if event is not None:
            if self._telemetry is not None:
                self._telemetry.event(
                    "fault-injected",
                    fault=event.kind,
                    call=event.call,
                    target=getattr(self.inner, "index", None),
                )
            if event.kind == "error":
                raise InjectedFault(
                    f"injected fault on call {event.call} of "
                    f"{self.inner!r}"
                )
            if event.kind == "slow":
                self._sleep(event.delay_seconds)
        return self.inner.execute(*args, **kwargs)

    @property
    def watermark(self) -> int:
        """The wrapped watermark plus any accumulated divergence drift."""
        with self._lock:
            drift = self._state.drift
        return self.inner.watermark + drift

    # ------------------------------------------------------------------
    # Observability (tests and benches assert on these)
    # ------------------------------------------------------------------
    @property
    def calls_seen(self) -> int:
        with self._lock:
            return self._state.calls

    @property
    def fired(self) -> list[FaultEvent]:
        """Events that have fired so far, in firing order."""
        with self._lock:
            return list(self._state.fired)

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Everything not intercepted is the wrapped replica's business.
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.inner!r}, plan={self.plan!r})"


def inject(shard, replica_index: int, plan: FaultPlan) -> FaultInjector:
    """Wrap one replica of a :class:`~repro.shard.replica.Shard`.

    Swaps ``shard.replicas[replica_index]`` for a
    :class:`FaultInjector` around it (under the shard's write lock, so
    the swap cannot interleave with a write-through) and returns the
    injector.  :meth:`~repro.shard.replica.Shard.revive`
    later replaces the slot with a freshly re-synced replica, which
    removes the injector — recovery discards the faulty node.
    """
    with shard.add_lock:
        replica = shard.replicas[replica_index]
        injector = FaultInjector(
            replica, plan, telemetry=getattr(shard, "telemetry", None)
        )
        shard.replicas[replica_index] = injector
        return injector
