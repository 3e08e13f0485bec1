"""Durable job journal: one append-only JSONL file.

The in-memory :class:`~repro.serve.jobs.JobQueue` is fast but mortal —
before this journal existed, a daemon restart dropped every queued
request.  The journal makes the queue durable with the same discipline
the run-history store uses (single ``O_APPEND`` writes of whole lines,
torn-tail healing, torn lines skipped on read): every state transition
of a job is one appended event, keyed by the engine's ``request_key``.

Event lifecycle per key::

    queued  ->  running  ->  done | failed

A ``queued`` event carries everything needed to *reconstruct* the job
(the PLA text, the circuit name and the raw JSON options overrides);
the later transitions are skeletal.  Replay ignores the ``priority``
and ``client`` fields that ``queued`` records written by older daemons
still carry.  On boot, :meth:`JobJournal.replay` folds the log per
key: any key whose *last* event is ``queued`` or ``running`` is
unfinished business — the daemon that accepted it crashed before
finishing — and is re-enqueued.  Because results are content-addressed
(same key ⇒ same answer) and the disk cache is persistent, a replayed
job whose result reached the cache costs one cache lookup, and a
replayed job nobody finished synthesizes bit-identically to what the
dead daemon would have produced.

Boot rewrite
============

Right after replay, before any replayed job runs, the daemon calls
:meth:`JobJournal.rewrite` to shrink the file to its backlog: the last
``queued`` line of every pending key (submission order), then every
record with a *newer* schema verbatim — an old daemon must never
destroy a new daemon's records.  Finished, malformed and torn lines go.
The write is atomic (temp + fsync + rename through
:mod:`repro.resilience.faultfs`), and a file that already is its
backlog is left untouched, so a boot with nothing new changes nothing.
The journal therefore never holds more than one run of the daemon's
history.  A journal has a single writer: one daemon per state
directory, which the daemon enforces with a lock (the rewrite would
orphan a second writer's appends).

Write faults (``ENOSPC``, a vanished state dir) are *absorbed*, not
raised: the daemon keeps serving, ``write_errors``/``last_write_error``
record the loss of durability, and the health monitor reports the
degradation.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

from repro.obs.history.store import append_jsonl
from repro.resilience import faultfs

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JobJournal",
    "PendingJob",
    "ReplayReport",
]

JOURNAL_SCHEMA_VERSION = 1

#: Events that end a key's lifecycle.
_TERMINAL = ("done", "failed")
_EVENTS = ("queued", "running") + _TERMINAL


@dataclass
class PendingJob:
    """One unfinished job reconstructed from the journal."""

    request_key: str
    circuit: str
    pla: str
    options: dict
    submitted_unix: float


@dataclass
class ReplayReport:
    """What :meth:`JobJournal.replay` saw (metrics feed off this)."""

    pending: list[PendingJob] = field(default_factory=list)
    finished: int = 0
    #: Records skipped for an unknown (newer) schema version.
    skipped_schema: int = 0
    #: Lines skipped as malformed (torn or unparsable, missing
    #: event/key, bad payload).
    skipped_malformed: int = 0
    #: What :meth:`JobJournal.rewrite` leaves in the file: the last
    #: ``queued`` line of each pending key, then the newer-schema lines,
    #: each exactly as it was read.
    backlog: str = ""


class JobJournal:
    """Append/replay interface over one append-only journal file."""

    def __init__(self, path: str, *, clock=time.time):
        self.path = path
        self.clock = clock
        #: Writes that failed at the OS level; durability is degraded
        #: but the daemon keeps serving (health reports it).
        self.write_errors = 0
        self.last_write_error: str | None = None
        self._lock = threading.Lock()

    # -- writing -----------------------------------------------------------

    def record_queued(self, *, request_key: str, circuit: str, pla: str,
                      options: dict) -> None:
        """Journal a new submission — called *before* the 202 goes out,
        so an accepted job is always durable (disk permitting)."""
        self._append({
            "schema": JOURNAL_SCHEMA_VERSION,
            "event": "queued",
            "request_key": request_key,
            "circuit": circuit,
            "pla": pla,
            "options": options,
            "ts": self.clock(),
        })

    def record_event(self, event: str, request_key: str,
                     error: str | None = None) -> None:
        """Journal a ``running``/``done``/``failed`` transition."""
        if event not in _EVENTS:
            raise ValueError(f"unknown journal event {event!r}")
        record = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "event": event,
            "request_key": request_key,
            "ts": self.clock(),
        }
        if error is not None:
            record["error"] = error
        self._append(record)

    def _append(self, record: dict) -> None:
        """One durable append; OS faults are absorbed and counted."""
        with self._lock:
            try:
                append_jsonl(self.path, record)
            except OSError as exc:
                self._write_failed(exc)

    def _write_failed(self, exc: OSError) -> None:
        self.write_errors += 1
        self.last_write_error = str(exc)
        from repro.obs.metrics import get_metrics_registry

        get_metrics_registry().counter(
            "journal.write.errors",
            "journal writes lost to OS-level faults",
        ).inc()

    # -- replay ------------------------------------------------------------

    def _read_text(self) -> str | None:
        try:
            with open(self.path, encoding="utf-8", errors="replace",
                      newline="") as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    def replay(self) -> ReplayReport:
        """Fold the journal; unfinished jobs oldest first.

        Torn or unparsable lines are skipped, as is anything missing
        its event or key (all counted as malformed), and a record with
        a schema version newer than this code understands (an old
        daemon must not half-parse a new daemon's records).
        """
        report = ReplayReport()
        last_event: dict[str, str] = {}
        payloads: dict[str, tuple[PendingJob, str]] = {}
        order: list[str] = []
        foreign: list[str] = []
        for line in (self._read_text() or "").split("\n"):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not isinstance(record, dict):
                report.skipped_malformed += 1
                continue
            schema = record.get("schema")
            if not isinstance(schema, int) or schema > JOURNAL_SCHEMA_VERSION:
                report.skipped_schema += 1
                foreign.append(line)
                continue
            event = record.get("event")
            key = record.get("request_key")
            if event not in _EVENTS or not isinstance(key, str) or not key:
                report.skipped_malformed += 1
                continue
            if event == "queued":
                pla = record.get("pla")
                circuit = record.get("circuit")
                options = record.get("options")
                if not isinstance(pla, str) or not isinstance(circuit, str) \
                        or not isinstance(options, dict):
                    report.skipped_malformed += 1
                    continue
                ts = record.get("ts")
                if key not in payloads:
                    order.append(key)
                payloads[key] = (PendingJob(
                    request_key=key,
                    circuit=circuit,
                    pla=pla,
                    options=options,
                    submitted_unix=(
                        float(ts) if isinstance(ts, (int, float)) else 0.0
                    ),
                ), line)
            elif key not in payloads and key not in last_event:
                # A key seen only through later events (its queued
                # record was lost) still counts once when finished.
                order.append(key)
            last_event[key] = event
        kept: list[str] = []
        for key in order:
            if last_event.get(key) in _TERMINAL:
                report.finished += 1
            elif key in payloads:
                job, line = payloads[key]
                report.pending.append(job)
                kept.append(line)
        report.backlog = "".join(line + "\n" for line in kept + foreign)
        return report

    def rewrite(self, report: ReplayReport) -> bool:
        """Shrink the file to ``report.backlog``; ``True`` if rewritten.

        Only safe while nothing appends: the daemon calls it after
        :meth:`replay` and before it re-enqueues a single job.  A
        missing file, or one that already holds exactly its backlog,
        is left alone.  A failed write is absorbed like a failed append
        (the old file stays whole, so replay is unaffected).
        """
        with self._lock:
            current = self._read_text()
            if current is None or current == report.backlog:
                return False
            try:
                faultfs.atomic_write_text(self.path, report.backlog)
            except OSError as exc:
                self._write_failed(exc)
                return False
            return True
