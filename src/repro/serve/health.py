"""Health-based admission: the daemon's own resource watchdog.

Overload shedding (:mod:`repro.serve.jobs`) protects the queue from
*traffic*; this monitor protects it from the *machine*.  A background
task samples three signals every couple of seconds:

1. **disk headroom** — free bytes on the state directory's filesystem
   (via :func:`shutil.disk_usage`, injectable for tests) against the
   configured floor;
2. **journal write errors** — fresh append/rewrite failures since the
   last sample (an ``ENOSPC`` journal means accepted work is no longer
   durable);
3. **disk-cache breaker** — the write breaker of the engine's disk
   tier sitting open means results are not being persisted.

Any firing signal flips the queue into *degraded mode*: submissions
are still admitted, but they stop journaling their payload detail
(nothing more is written to a disk that is failing or full), and
``GET /healthz`` reports ``"status": "degraded"`` with the reasons so
an operator — or a load balancer — can see *why* before the disk
actually runs out.  When every signal clears, the next sample lifts
degraded mode; recovery needs no restart.

The ``serve.degraded`` gauge (0/1) and per-reason
``serve.degraded.reasons`` counters make the transitions visible in
``/metrics`` history.
"""

from __future__ import annotations

import asyncio
import shutil

from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.resilience.breaker import CircuitBreaker
from repro.serve.jobs import JobQueue

__all__ = ["DEFAULT_INTERVAL_SECONDS", "HealthMonitor"]

DEFAULT_INTERVAL_SECONDS = 2.0


class HealthMonitor:
    """Samples resource signals and drives the queue's degraded mode."""

    def __init__(self, queue: JobQueue, *,
                 state_dir: str | None = None,
                 min_free_bytes: int | None = None,
                 breaker: CircuitBreaker | None = None,
                 interval_seconds: float = DEFAULT_INTERVAL_SECONDS,
                 disk_usage=shutil.disk_usage):
        self.queue = queue
        self.state_dir = state_dir
        self.min_free_bytes = min_free_bytes
        self.breaker = breaker
        self.interval_seconds = interval_seconds
        self.disk_usage = disk_usage
        self.checks = 0
        self._journal_errors_seen = (
            queue.journal.write_errors if queue.journal is not None else 0
        )
        self._task: asyncio.Task | None = None
        self._last_reasons: tuple[str, ...] = ()

    # -- one sample --------------------------------------------------------

    def check(self) -> list[str]:
        """Sample every signal once; returns the active reasons."""
        self.checks += 1
        reasons: list[str] = []
        reasons.extend(self._check_disk_headroom())
        reasons.extend(self._check_journal())
        reasons.extend(self._check_breaker())
        if tuple(reasons) != self._last_reasons:
            registry = get_metrics_registry()
            for reason in reasons:
                if reason not in self._last_reasons:
                    registry.counter(
                        "serve.degraded.reasons",
                        "times a degradation reason became active",
                        labels={"reason": reason.split(":", 1)[0]},
                    ).inc()
            log_event("serve.health.transition",
                      reasons=reasons, previous=list(self._last_reasons))
            self._last_reasons = tuple(reasons)
        self.queue.set_degraded(reasons)
        return reasons

    def _check_disk_headroom(self) -> list[str]:
        if self.state_dir is None or not self.min_free_bytes:
            return []
        try:
            free = self.disk_usage(self.state_dir).free
        except OSError:
            # The state dir vanished: that *is* a degradation, and it is
            # worse than low headroom.
            return ["state-dir-missing"]
        if free < self.min_free_bytes:
            return [f"low-disk:{free // (1024 * 1024)}mb-free"]
        return []

    def _check_journal(self) -> list[str]:
        journal = self.queue.journal
        if journal is None:
            return []
        fresh = journal.write_errors - self._journal_errors_seen
        self._journal_errors_seen = journal.write_errors
        if fresh > 0:
            return ["journal-write-errors"]
        # No new failures since the last sample: appends either succeed
        # again or are not happening — lift the flag optimistically; the
        # next failed append re-raises it within one interval.
        return []

    def _check_breaker(self) -> list[str]:
        if self.breaker is None:
            return []
        if self.breaker.state == CircuitBreaker.OPEN:
            return ["cache-breaker-open"]
        return []

    # -- background task ---------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-health")

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            self.check()
            await asyncio.sleep(self.interval_seconds)
