"""Single-flight coalescing of identical in-flight queries.

Under concurrency a hot query arrives many times while its first
arrival is still executing.  Without coalescing each arrival pays full
execution (a landed answer only helps *after* the first completion);
with it, the first arrival becomes the flight *leader*, every identical
arrival becomes a *follower* awaiting the leader's future, and the
engine runs once per flight regardless of the concurrent client count.

The flight key is the service's
:meth:`~repro.service.base.ServingFacade.answer_key` for the request —
``(normalized_xpath, strategy + options, documents, generation)`` —
paired with ``use_result_cache``, so two requests
share a flight only when no write landed between them: a write bumps
the generation, later arrivals key to a *new* flight, and the old one
keeps serving only the waiters that arrived before the write (each of
which is answered consistently with its own arrival time).  That is
the coalescing contract the generation-bump race test pins.

Single-threaded by construction: every method runs on the event loop,
and the lookup/registration pair in :meth:`SingleFlight.run` contains
no ``await``, so registration is atomic and two leaders can never race
for one key.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Hashable, Optional, Tuple

__all__ = ["SingleFlight"]


class _Flight:
    """One in-flight execution: its future plus the follower count."""

    __slots__ = ("future", "followers")

    def __init__(self, future: asyncio.Future) -> None:
        self.future = future
        self.followers = 0


class SingleFlight:
    """In-flight deduplication keyed on whatever the caller hashes by."""

    def __init__(self) -> None:
        self._flights: dict[Hashable, _Flight] = {}
        #: Executions actually started (flight leaders).
        self.flights_started = 0
        #: Requests served by riding another request's execution.
        self.coalesced_hits = 0
        #: Requests that bypassed coalescing (no key, e.g. unhashable
        #: options or coalescing disabled).
        self.uncoalesced = 0

    @property
    def in_flight(self) -> int:
        return len(self._flights)

    async def run(
        self,
        key: Optional[Hashable],
        supplier: Callable[[], Awaitable],
    ) -> Tuple[object, bool]:
        """Run ``supplier`` once per key; returns ``(result, coalesced)``.

        A ``None`` key opts out (always executes).  The leader's
        failure fans out to every follower — they asked the exact same
        question, so they get the exact same answer, including a
        rejection by admission control.
        """
        if key is None:
            self.uncoalesced += 1
            return await supplier(), False
        flight = self._flights.get(key)
        if flight is not None:
            self.coalesced_hits += 1
            flight.followers += 1
            # shield(): a cancelled follower must not cancel the shared
            # execution other followers (and the leader) still want.
            return await asyncio.shield(flight.future), True
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        flight = _Flight(future)
        self._flights[key] = flight
        self.flights_started += 1
        try:
            result = await supplier()
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
                if flight.followers == 0:
                    # Nobody will await it; mark the exception retrieved
                    # so the loop never logs a phantom "never retrieved".
                    future.exception()
            raise
        else:
            if not future.done():
                future.set_result(result)
            return result, False
        finally:
            # Popped before the leader returns: later arrivals start a
            # fresh flight instead of reading a completed one.  That
            # window is the service's answer cache's: the leader's
            # ``execute`` files its answer under the same key unless a
            # write raced it, and the front door looks there before it
            # asks for a flight.
            self._flights.pop(key, None)

    def describe(self) -> dict[str, object]:
        return {
            "in_flight": len(self._flights),
            "flights_started": self.flights_started,
            "coalesced_hits": self.coalesced_hits,
            "uncoalesced": self.uncoalesced,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SingleFlight(in_flight={len(self._flights)}, "
            f"started={self.flights_started}, "
            f"coalesced={self.coalesced_hits})"
        )
