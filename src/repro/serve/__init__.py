"""repro-serve: synthesis as a long-lived, durable service.

A stdlib-only asyncio daemon in front of the
:class:`~repro.engine.SynthesisEngine`: jobs go into a FIFO async
queue, identical in-flight requests are deduplicated on their content
digest (N submissions, one synthesis, N responses), multi-output jobs
are batched into the crash-isolated process pool, and results land in
the shared disk-backed cache so a restarted daemon — or a plain
``repro-synth`` run pointed at the same ``--cache-dir`` — is warm from
the first request.

With a ``--state-dir`` the queue itself is durable: accepted jobs are
written to an append-only journal (:mod:`repro.serve.journal`) before
their 202 goes out, replayed on the next boot, and the journal is then
rewritten down to that backlog.  A state directory belongs to one
daemon, which holds a lock on it; several daemons may share one cache
directory.  A bounded queue sheds overload with 503 +
``Retry-After`` (``--max-queue-depth``), and a health monitor
(:mod:`repro.serve.health`) flips the daemon to degraded mode — stop
journaling payload detail — when disk headroom, journal writes or the
disk-cache breaker go bad.  ``python -m repro.serve.gauntlet``
exercises the crash paths, including phase C's injected disk faults.

See ``docs/SERVICE.md`` for the architecture and the ops runbook.
"""

from repro.serve.health import HealthMonitor
from repro.serve.jobs import Job, JobQueue, JobState, options_from_json
from repro.serve.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    PendingJob,
    ReplayReport,
)
from repro.serve.server import ReproServer, resolve_state_dir

__all__ = [
    "HealthMonitor",
    "JOURNAL_SCHEMA_VERSION",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobState",
    "PendingJob",
    "ReplayReport",
    "ReproServer",
    "options_from_json",
    "resolve_state_dir",
]
