"""Durable job journal: a segmented, compactable JSONL write-ahead log.

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
still carry.  On
boot, :meth:`JobJournal.replay` folds the log per key: any key whose
*last* event is ``queued`` or ``running`` is unfinished business — the
daemon that accepted it crashed before finishing — and is re-enqueued.
Because results are content-addressed (same key ⇒ same answer) and the
disk cache is persistent, a replayed job whose result reached the cache
costs one cache lookup, and a replayed job nobody finished synthesizes
bit-identically to what the dead daemon would have produced.

Rotation and compaction (new in the resource-exhaustion hardening)
==================================================================

An append-only log grows forever; a long-lived daemon must not fill its
disk with ``done`` events for jobs nobody will ever replay.  With
``max_bytes`` set, the journal is *segmented*:

``journal.jsonl``
    The active tail — always the append target, so tools (and the
    service smoke) that read the legacy single-file path keep working.
``journal.0001.jsonl`` …
    Sealed segments: when the tail crosses ``max_bytes`` it is atomically
    renamed to the next segment number and appends continue into a fresh
    tail.  Sealed segments are never appended to again.
``journal.checkpoint.jsonl``
    The compacted prefix.  When more than ``keep_segments`` sealed
    segments exist, the oldest are *folded* into the checkpoint: keys
    whose last event is ``done`` are dropped (counted in the cumulative
    ``retired`` header field), ``failed`` keys keep a skeletal failed
    record with their error (post-mortems survive compaction), and
    unfinished keys keep their full ``queued`` payload so replay can
    still reconstruct them.  Records with a *newer* schema than this
    code understands are preserved verbatim — an old compactor must
    never destroy a new daemon's records.  The checkpoint is written
    atomically (temp + fsync + rename through :mod:`repro.resilience.
    faultfs`) with a header line carrying the SHA-256 of the body, so a
    torn or bit-rotted checkpoint is *detected* on replay rather than
    silently mis-folded.

Replay reads checkpoint → sealed segments (ascending) → active tail.
A crash between "checkpoint written" and "old segments unlinked" leaves
both on disk; folding the same records twice is harmless because the
fold is last-event-per-key.  A crash between "tail renamed" and "first
append to the new tail" leaves no tail file; the next append recreates
it.  There is no crash point that loses an acknowledged event.

A journal has a single writer: one daemon per state directory.
Rotation relies on that (two writers could seal the tail to the same
segment number).

Write faults (``ENOSPC``, a vanished state dir) are *absorbed*, not
raised: the daemon keeps serving, ``write_errors``/``last_write_error``
record the loss of durability, and the health monitor reports the
degradation.  ``python -m repro.serve.journalctl`` inspects, compacts
and verifies all of the above from the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field

from repro.obs.history.store import append_jsonl, read_jsonl
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

#: Default sealed segments kept un-compacted for inspection.
DEFAULT_KEEP_SEGMENTS = 4


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
    #: Records skipped as malformed (missing event/key, bad payload).
    skipped_malformed: int = 0
    #: The compaction checkpoint failed its checksum (body still folded
    #: best-effort; ``journalctl verify`` exits non-zero on this).
    checkpoint_corrupt: bool = False


@dataclass
class _Fold:
    """Per-key folding state shared by replay and compaction."""

    last_event: dict[str, str] = field(default_factory=dict)
    last_error: dict[str, str | None] = field(default_factory=dict)
    last_ts: dict[str, float] = field(default_factory=dict)
    payloads: dict[str, PendingJob] = field(default_factory=dict)
    raw_queued: dict[str, dict] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    foreign: list[dict] = field(default_factory=list)
    skipped_schema: int = 0
    skipped_malformed: int = 0

    def feed(self, record: dict) -> None:
        schema = record.get("schema")
        if not isinstance(schema, int) or schema > JOURNAL_SCHEMA_VERSION:
            # Preserved, not destroyed: a newer daemon's records survive
            # an older daemon's compaction verbatim.
            self.skipped_schema += 1
            self.foreign.append(record)
            return
        event = record.get("event")
        key = record.get("request_key")
        if event not in _EVENTS or not isinstance(key, str) or not key:
            self.skipped_malformed += 1
            return
        if event == "queued":
            pla = record.get("pla")
            circuit = record.get("circuit")
            options = record.get("options")
            if not isinstance(pla, str) or not isinstance(circuit, str) \
                    or not isinstance(options, dict):
                self.skipped_malformed += 1
                return
            if key not in self.payloads:
                self.order.append(key)
            self.payloads[key] = PendingJob(
                request_key=key,
                circuit=circuit,
                pla=pla,
                options=options,
                submitted_unix=float(record.get("ts", 0.0) or 0.0),
            )
            self.raw_queued[key] = record
        elif key not in self.last_event and key not in self.payloads:
            # First sighting of a key via a non-queued event (its queued
            # record was compacted away or lost): keep terminal events
            # so failed post-mortems survive, order them by appearance.
            self.order.append(key)
        self.last_event[key] = event
        error = record.get("error")
        self.last_error[key] = error if isinstance(error, str) else None
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            self.last_ts[key] = float(ts)


class JobJournal:
    """Append/replay/compact interface over one segmented journal.

    With the default ``max_bytes=None`` the journal is a single
    append-only file at ``path`` — exactly the legacy behavior.
    """

    def __init__(self, path: str, *, max_bytes: int | None = None,
                 keep_segments: int = DEFAULT_KEEP_SEGMENTS,
                 clock=time.time):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None)")
        if keep_segments < 0:
            raise ValueError("keep_segments must be >= 0")
        self.path = path
        self.max_bytes = max_bytes
        self.keep_segments = keep_segments
        self.clock = clock
        #: Appends/rotations that failed at the OS level; durability is
        #: degraded but the daemon keeps serving (health reports it).
        self.write_errors = 0
        self.last_write_error: str | None = None
        self.rotations = 0
        self.compactions = 0
        self._lock = threading.Lock()

    # -- layout ------------------------------------------------------------

    @property
    def _stem(self) -> str:
        name = os.path.basename(self.path)
        return name[: -len(".jsonl")] if name.endswith(".jsonl") else name

    @property
    def directory(self) -> str:
        return os.path.dirname(os.path.abspath(self.path))

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, f"{self._stem}.checkpoint.jsonl")

    def segment_paths(self) -> list[str]:
        """Sealed segments, oldest first (by segment number)."""
        pattern = re.compile(
            rf"^{re.escape(self._stem)}\.(\d{{4,}})\.jsonl$")
        found: list[tuple[int, str]] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            match = pattern.match(name)
            if match:
                found.append((int(match.group(1)),
                              os.path.join(self.directory, name)))
        return [path for _, path in sorted(found)]

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
        """One durable append: rotate if due, write, absorb OS faults."""
        with self._lock:
            try:
                self._maybe_rotate_locked()
                append_jsonl(self.path, record)
            except OSError as exc:
                self.write_errors += 1
                self.last_write_error = str(exc)
                self._metric(
                    "journal.write.errors",
                    "journal appends/rotations lost to OS-level faults",
                ).inc()

    # -- rotation and compaction -------------------------------------------

    def _maybe_rotate_locked(self) -> None:
        if self.max_bytes is None:
            return
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return
        if size < self.max_bytes:
            return
        self._rotate_locked()
        if len(self.segment_paths()) > self.keep_segments:
            self._compact_locked(keep=self.keep_segments)

    def _rotate_locked(self) -> None:
        """Seal the active tail as the next numbered segment (atomic)."""
        segments = self.segment_paths()
        number = 1
        if segments:
            last = os.path.basename(segments[-1])
            number = int(last[len(self._stem) + 1:-len(".jsonl")]) + 1
        segment = os.path.join(
            self.directory, f"{self._stem}.{number:04d}.jsonl")
        faultfs.fs_replace(self.path, segment)
        self.rotations += 1
        self._metric("journal.rotations", "journal tail rotations").inc()

    def rotate(self) -> str | None:
        """Seal the current tail now (CLI/compaction entry point)."""
        with self._lock:
            try:
                if os.path.getsize(self.path) == 0:
                    return None
            except OSError:
                return None
            before = self.rotations
            try:
                self._rotate_locked()
            except OSError as exc:
                self.write_errors += 1
                self.last_write_error = str(exc)
                return None
            if self.rotations == before:
                return None
            return self.segment_paths()[-1]

    def compact(self, *, keep: int | None = None) -> dict:
        """Fold sealed segments into the checkpoint; returns stats.

        ``keep`` bounds how many of the *newest* sealed segments stay
        un-compacted (default: this journal's ``keep_segments``).  Pass
        ``keep=0`` to fold every sealed segment.
        """
        with self._lock:
            return self._compact_locked(
                keep=self.keep_segments if keep is None else keep)

    def _compact_locked(self, *, keep: int) -> dict:
        segments = self.segment_paths()
        victims = segments[: max(0, len(segments) - keep)]
        header, body, corrupt = self._read_checkpoint()
        if not victims and not corrupt:
            return {"compacted_segments": 0, "retired": 0,
                    "kept": len(segments)}
        fold = _Fold()
        for record in body:
            fold.feed(record)
        for path in victims:
            for record in read_jsonl(path):
                fold.feed(record)
        retired_before = int((header or {}).get("retired", 0) or 0)
        dropped_before = int((header or {}).get("dropped_malformed", 0) or 0)
        retired = 0
        lines: list[str] = []
        for key in fold.order:
            last = fold.last_event.get(key)
            if last == "done":
                retired += 1
                continue
            if last == "failed":
                record = {
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "event": "failed",
                    "request_key": key,
                    "ts": fold.last_ts.get(key, 0.0),
                }
                if fold.last_error.get(key):
                    record["error"] = fold.last_error[key]
                lines.append(json.dumps(record, sort_keys=True))
                continue
            raw = fold.raw_queued.get(key)
            if raw is None:
                # An unfinished key whose queued payload never made it
                # to disk cannot be reconstructed; drop and count it.
                fold.skipped_malformed += 1
                continue
            lines.append(json.dumps(raw, sort_keys=True))
            if last == "running":
                lines.append(json.dumps({
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "event": "running",
                    "request_key": key,
                    "ts": fold.last_ts.get(key, 0.0),
                }, sort_keys=True))
        for record in fold.foreign:
            lines.append(json.dumps(record, sort_keys=True))
        body_text = "".join(line + "\n" for line in lines)
        header_record = {
            "schema": JOURNAL_SCHEMA_VERSION,
            "kind": "checkpoint",
            "created_unix": self.clock(),
            "compactions": self.compactions + 1,
            "retired": retired_before + retired,
            "dropped_malformed": dropped_before + fold.skipped_malformed,
            "body_sha256": hashlib.sha256(
                body_text.encode("utf-8")).hexdigest(),
        }
        text = json.dumps(header_record, sort_keys=True) + "\n" + body_text
        try:
            faultfs.atomic_write_text(self.checkpoint_path, text)
        except OSError as exc:
            self.write_errors += 1
            self.last_write_error = str(exc)
            self._metric(
                "journal.write.errors",
                "journal appends/rotations lost to OS-level faults",
            ).inc()
            return {"compacted_segments": 0, "retired": 0,
                    "kept": len(segments), "error": str(exc)}
        # Unlink only after the checkpoint is durably in place.  A crash
        # here leaves segments whose content is already folded — replay
        # folds them again idempotently.
        for path in victims:
            try:
                os.unlink(path)
            except OSError:
                pass
        self.compactions += 1
        self._metric("journal.compactions", "journal compactions run").inc()
        if retired:
            self._metric(
                "journal.retired",
                "finished keys dropped from the journal by compaction",
            ).inc(retired)
        return {"compacted_segments": len(victims), "retired": retired,
                "kept": len(segments) - len(victims)}

    # -- checkpoint I/O ----------------------------------------------------

    def _read_checkpoint(self) -> tuple[dict | None, list[dict], bool]:
        """``(header, body_records, corrupt)`` for the checkpoint file.

        Absent checkpoint → ``(None, [], False)``.  A checksum mismatch
        or unparsable header flags ``corrupt`` but still yields every
        parseable body record — replay recovers best-effort and the
        corruption is surfaced, not hidden.
        """
        try:
            with open(self.checkpoint_path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None, [], False
        newline = raw.find(b"\n")
        if newline < 0:
            return None, [], True
        header_bytes, body_bytes = raw[: newline + 1], raw[newline + 1:]
        header: dict | None = None
        corrupt = False
        try:
            parsed = json.loads(header_bytes.decode("utf-8"))
            if isinstance(parsed, dict) and parsed.get("kind") == "checkpoint":
                header = parsed
        except (ValueError, UnicodeDecodeError):
            pass
        if header is None:
            corrupt = True
        else:
            expected = header.get("body_sha256")
            actual = hashlib.sha256(body_bytes).hexdigest()
            if expected != actual:
                corrupt = True
        records: list[dict] = []
        for line in body_bytes.decode("utf-8", errors="replace").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                corrupt = True
                continue
            if isinstance(record, dict):
                records.append(record)
        return header, records, corrupt

    # -- replay ------------------------------------------------------------

    def replay(self) -> ReplayReport:
        """Fold checkpoint + segments + tail; unfinished jobs oldest first.

        Torn lines were already dropped by the reader; additionally a
        record with a schema version newer than this code understands is
        skipped (an old daemon must not half-parse a new daemon's
        records), as is anything missing its event or key.
        """
        report = ReplayReport()
        fold = _Fold()
        _, checkpoint_body, corrupt = self._read_checkpoint()
        report.checkpoint_corrupt = corrupt
        for record in checkpoint_body:
            fold.feed(record)
        for path in self.segment_paths():
            for record in read_jsonl(path):
                fold.feed(record)
        for record in read_jsonl(self.path):
            fold.feed(record)
        report.skipped_schema = fold.skipped_schema
        report.skipped_malformed = fold.skipped_malformed
        for key in fold.order:
            if fold.last_event.get(key) in _TERMINAL:
                report.finished += 1
            elif key in fold.payloads:
                report.pending.append(fold.payloads[key])
        return report

    # -- inspection (journalctl) -------------------------------------------

    def scan(self) -> dict:
        """Per-file shape of the journal, for ``journalctl inspect``."""
        files = []
        header, _, corrupt = self._read_checkpoint()
        for path in self.segment_paths() + [self.path]:
            files.append(self._scan_file(path))
        report = self.replay()
        return {
            "directory": self.directory,
            "checkpoint": {
                "path": self.checkpoint_path,
                "present": os.path.exists(self.checkpoint_path),
                "corrupt": corrupt,
                "retired": int((header or {}).get("retired", 0) or 0),
                "compactions": int(
                    (header or {}).get("compactions", 0) or 0),
            },
            "files": files,
            "pending": len(report.pending),
            "finished": report.finished,
            "skipped_schema": report.skipped_schema,
            "skipped_malformed": report.skipped_malformed,
        }

    @staticmethod
    def _scan_file(path: str) -> dict:
        info: dict = {"path": path, "bytes": 0, "records": 0,
                      "blank": 0, "torn_tail": False, "unparsable_mid": 0}
        try:
            info["bytes"] = os.path.getsize(path)
            with open(path, encoding="utf-8", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            info["missing"] = True
            return info
        bad_indices = []
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                info["blank"] += 1
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad_indices.append(index)
                continue
            if isinstance(record, dict):
                info["records"] += 1
            else:
                bad_indices.append(index)
        # One unparsable *final* line is the documented crash shape (a
        # torn append, healed by the next write); anything else is real
        # corruption.
        if bad_indices and bad_indices[-1] == len(lines) - 1:
            info["torn_tail"] = True
            bad_indices = bad_indices[:-1]
        info["unparsable_mid"] = len(bad_indices)
        return info

    def verify(self) -> list[str]:
        """Integrity problems, empty when the journal is sound.

        What counts as corruption is what the write discipline promises
        can never happen: the checkpoint is written atomically and
        checksummed, so a header/checksum failure or an unparsable body
        line there is a hard problem.  The append-only segments and
        tail promise less — a crash legitimately leaves a torn line,
        which healing then strands mid-file — so unparsable lines there
        are reported by :meth:`scan` but are *not* corruption (readers
        skip them by contract).
        """
        problems: list[str] = []
        _, _, corrupt = self._read_checkpoint()
        if corrupt:
            problems.append(
                f"checkpoint {self.checkpoint_path}: checksum/header "
                "verification failed")
        return problems

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def _metric(name: str, help_text: str):
        from repro.obs.metrics import get_metrics_registry

        return get_metrics_registry().counter(name, help_text)
