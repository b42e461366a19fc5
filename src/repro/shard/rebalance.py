"""Rebalance records and the self-driving rebalance trigger.

:class:`RebalanceMove` and :class:`RebalanceReport` are what
:meth:`~repro.shard.service.ShardedQueryService.plan_rebalance` and
:meth:`~repro.shard.service.ShardedQueryService.rebalance` return;
:class:`AutoRebalancer` watches the tier's placement skew between
queries and fires ``rebalance(policy)`` through a hysteresis band.
"""

from __future__ import annotations

import dataclasses
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .placement import PlacementPolicy, make_placement
from .topology import DocumentPlacement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import ShardedQueryService


@dataclass(frozen=True)
class RebalanceMove:
    """One planned document move: which placement goes to which shard."""

    placement: DocumentPlacement
    target_shard: int


@dataclass(frozen=True)
class RebalanceReport:
    """What one :meth:`~repro.shard.service.ShardedQueryService.rebalance` call did and cost."""

    policy: str
    planned: int
    documents_moved: int
    nodes_moved: int
    spans_pruned: int
    #: Write-side cost of the whole rebalance in the shared maintenance
    #: currency (:func:`~repro.storage.stats.maintenance_cost`): the
    #: incremental deletes on every source shard plus the incremental
    #: inserts on every target shard.
    maintenance_cost: int


# ----------------------------------------------------------------------
# Self-driving rebalance: watermark trigger with a hysteresis band
# ----------------------------------------------------------------------
class AutoRebalancer:
    """Watermark-triggered background rebalancing over one sharded tier.

    The sharded query service calls :meth:`tick` between queries; every
    ``check_interval``-th tick measures the topology's placement skew
    (:meth:`~repro.shard.topology.ShardTopology.skew`, the
    max-weight-over-mean ratio across shards).  When the ratio reaches
    ``high_watermark`` while the trigger is armed, one
    ``rebalance(policy)`` fires — in a single background worker by
    default, so queries keep flowing while documents move (a rebalance
    is online by construction) — and the trigger **disarms**.  It
    re-arms only once a later check measures skew below
    ``low_watermark``: the hysteresis band ``[low, high]`` guarantees
    exactly one rebalance per sustained skew episode, instead of
    thrashing move traffic while a corpus hovers at the threshold.

    Everything is deterministic: no timers, no wall clock — ticks are
    queries, checks are counted ticks, and the skew measure is a pure
    function of the routing table.  Activity lands in the tier's
    ``stats`` (``auto_rebalances``, read back through its counter totals)
    and a bounded episode log surfaced by :meth:`describe` under the
    service's ``operations`` key.  A rebalance that *fails* is recorded
    the same way (``auto_rebalance_failures`` / ``last_error`` /
    the episode's ``error`` field) and never raises into the query
    path that happened to tick afterwards — background operations
    failures are status, not answers.
    """

    #: Bound on the episode log kept for ``describe()``.
    MAX_EPISODES = 16

    def __init__(
        self,
        tier: ShardedQueryService,
        policy: Union[str, PlacementPolicy, None] = None,
        high_watermark: float = 2.0,
        low_watermark: float = 1.25,
        check_interval: int = 8,
        min_documents: Optional[int] = None,
        background: bool = True,
        enabled: bool = False,
    ) -> None:
        if not 1.0 <= low_watermark < high_watermark:
            raise ValueError(
                f"need 1.0 <= low_watermark < high_watermark, got "
                f"{low_watermark} / {high_watermark}"
            )
        if check_interval < 1:
            raise ValueError(f"check_interval must be positive: {check_interval}")
        self.tier = tier
        self.policy = make_placement(policy or "size_balanced")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.check_interval = check_interval
        #: Below this corpus size a skewed ratio is noise (two documents
        #: on one shard of four already read as ratio 4.0), so the
        #: trigger holds fire.  Defaults to two documents per shard.
        self.min_documents = (
            min_documents if min_documents is not None else 2 * tier.num_shards
        )
        self.enabled = enabled
        #: The tier's hub, so trigger/completion/failure events land in
        #: the same ops log as the replica transitions they interleave with.
        self.telemetry = tier.telemetry
        #: The tier's collector: ``auto_rebalances`` counts there.
        self.stats = tier.stats
        self.last_report: Optional[RebalanceReport] = None
        #: ``repr`` of the most recent run's exception, ``None`` after a
        #: success — the status surface for background failures.
        self.last_error: Optional[str] = None
        self._failures = 0
        self._lock = threading.Lock()
        self._armed = True
        self._ticks = 0
        self._checks = 0
        self._last_skew: Optional[dict[str, object]] = None
        self._episodes: list[dict[str, object]] = []
        self._episodes_total = 0
        self._pending: Optional[Future] = None
        self._executor = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="auto-rebalance")
            if background
            else None
        )

    # ------------------------------------------------------------------
    def tick(self) -> Optional[dict[str, object]]:
        """One between-queries heartbeat; runs a skew check every
        ``check_interval`` ticks.  Returns the check record when one
        ran, else ``None``.  Cheap when disabled or off-interval (one
        lock, one counter)."""
        if not self.enabled:
            return None
        with self._lock:
            self._ticks += 1
            due = self._ticks % self.check_interval == 0
        if not due:
            return None
        return self.check()

    def check(self) -> dict[str, object]:
        """Measure skew and apply the watermark policy right now.

        Public so tests (and operators) can force a check without
        queueing ``check_interval`` queries.  Also reaps a finished
        background run (its outcome — success or failure — was already
        recorded by the run itself; nothing raises here).
        """
        self._reap()
        skew = self.tier.topology.skew()
        ratio = float(skew["ratio"])
        fired = False
        run_inline = False
        with self._lock:
            self._checks += 1
            self._last_skew = skew
            if not self._armed and ratio < self.low_watermark:
                # The episode's skew has drained; re-arm for the next one.
                self._armed = True
            if (
                self._armed
                and self._pending is None
                and ratio >= self.high_watermark
                and self.tier.topology.document_count >= self.min_documents
            ):
                self._armed = False
                fired = True
                self._episodes_total += 1
                self._episodes.append(
                    {"episode": self._episodes_total, "trigger_ratio": ratio}
                )
                del self._episodes[: -self.MAX_EPISODES]
                self.telemetry.event(
                    "auto-rebalance",
                    phase="triggered",
                    episode=self._episodes_total,
                    ratio=ratio,
                )
                if self._executor is not None:
                    # Submitted inside the same locked section that
                    # disarmed the trigger: the future is published
                    # atomically with the firing decision, so a
                    # drain()/close() racing this check either sees no
                    # fire or sees the in-flight run — never a
                    # fired-but-unpublished window it could return
                    # through with stale state.
                    # repro-lint: ignore[RPR005] -- published to self._pending; _reap/drain()/close() consume it
                    self._pending = self._executor.submit(self._run)
                else:
                    run_inline = True
        if run_inline:
            self._run()
        return {"ratio": ratio, "fired": fired, "armed_after": not fired}

    def _run(self) -> None:
        """One triggered rebalance; records its own outcome, never raises.

        A failure must not escape: in background mode it would land in
        a future whose ``result()`` is called from a later query's tick
        path, failing an unrelated caller whose answer was already
        gathered.  Instead both outcomes are recorded under the lock
        and surfaced through :meth:`describe` (``auto_rebalances`` /
        ``auto_rebalance_failures`` / ``last_error`` and the episode
        log).
        """
        try:
            report = self.tier.rebalance(self.policy)
        except Exception as error:  # repro-lint: ignore[RPR005] -- recorded and surfaced via describe(); a background operations failure must not fail an unrelated query caller
            with self._lock:
                self._failures += 1
                self.last_error = repr(error)
                if self._episodes:
                    self._episodes[-1]["error"] = repr(error)
                episode = self._episodes_total
            self.telemetry.event(
                "auto-rebalance",
                phase="failed",
                episode=episode,
                error=repr(error),
            )
            return
        with self._lock:
            self.stats.auto_rebalances += 1
            self.last_report = report
            self.last_error = None
            if self._episodes:
                self._episodes[-1]["report"] = dataclasses.asdict(report)
            episode = self._episodes_total
        self.telemetry.event(
            "auto-rebalance",
            phase="completed",
            episode=episode,
            documents_moved=report.documents_moved,
            nodes_moved=report.nodes_moved,
        )

    def _reap(self) -> None:
        """Clear a finished background run so the firing gate re-opens.

        Pure bookkeeping: :meth:`_run` records its own success or
        failure, so there is no exception to propagate — a background
        failure surfaces through :meth:`describe`, never through the
        query whose tick happened to reap it.
        """
        with self._lock:
            if self._pending is not None and self._pending.done():
                self._pending = None

    def drain(self) -> Optional[RebalanceReport]:
        """Block until any in-flight background rebalance completes.

        Returns the latest completed report (tests call this to make
        'the rebalance has happened' deterministic before asserting).
        Never raises: a failed run records itself and shows up in
        :meth:`describe` instead.
        """
        with self._lock:
            future = self._pending
            self._pending = None
        if future is not None:
            future.result()  # waits only; _run never raises
        with self._lock:
            return self.last_report

    def close(self) -> None:
        """Drain and shut the background worker down."""
        self.drain()
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Trigger configuration and activity (JSON-serializable)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "policy": self.policy.name,
                "high_watermark": self.high_watermark,
                "low_watermark": self.low_watermark,
                "check_interval": self.check_interval,
                "min_documents": self.min_documents,
                "background": self._executor is not None,
                "armed": self._armed,
                "in_flight": self._pending is not None,
                "ticks": self._ticks,
                "checks": self._checks,
                "auto_rebalances": self.stats.auto_rebalances,
                "auto_rebalance_failures": self._failures,
                "last_error": self.last_error,
                "episodes_total": self._episodes_total,
                "last_skew": self._last_skew,
                "episodes": [dict(episode) for episode in self._episodes],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AutoRebalancer(enabled={self.enabled}, "
            f"policy={self.policy.name!r}, "
            f"band=[{self.low_watermark}, {self.high_watermark}])"
        )
