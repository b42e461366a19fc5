"""The one sanctioned wall-clock source of the serving stack.

Every wall-time measurement inside ``src/`` routes through
:func:`now` — the serving layers, the query engine's measurement core
and the bench harness alike — so there is exactly one place to swap
the clock (tests inject deterministic clocks through the
:class:`~repro.obs.telemetry.Telemetry` and
:class:`~repro.obs.trace.Tracer` constructors) and one place
``repro-lint``'s RPR006 checker whitelists: ad-hoc ``time.time()`` /
``time.perf_counter()`` calls anywhere else in ``src/`` are flagged,
because scattered raw clock reads are exactly the untraceable timing
the observability layer exists to replace (see
``docs/OBSERVABILITY.md``).

``time.monotonic`` for cache TTL deadlines and ``time.sleep`` for
fault injection are not timing *measurements* and stay where they are.
"""

from __future__ import annotations

import time

__all__ = ["now"]

#: Monotonic high-resolution timestamp in seconds.  An alias, not a
#: wrapper: callers pay no extra frame per read, which matters on the
#: per-query hot path the overhead bench pins in microseconds.
now = time.perf_counter
