"""The repro-serve HTTP daemon: stdlib asyncio, no framework.

HTTP/1.1 is hand-rolled on ``asyncio.start_server`` — request line,
headers, ``Content-Length`` body, one request per connection — because
the container bakes in only the standard library.  Endpoints:

==========================  =============================================
``POST /synthesize``        submit a PLA (JSON body: ``pla``, optional
                            ``name``/``options``/``wait``; other keys
                            are ignored); 200 with the finished job
                            when ``wait`` is true, else 202 with the
                            job id and request key.  Identical
                            in-flight requests join the same job
                            (``deduplicated`` in the response); a shed
                            submission (queue past its high-water
                            mark) is a 503 with a ``Retry-After``
                            header.
``GET /jobs``               summaries of every job this process has seen
``GET /jobs/<id>``          full job document, run manifest included
``GET /jobs/<id>/trace``    the request's span tree (full FlowTrace
                            document; 404 until the job is done)
``GET /metrics``            the process metrics registry in Prometheus
                            text exposition format
``GET /healthz``            liveness + job-state counts + durability info
==========================  =============================================

With a state directory configured the daemon is *durable*: every
submission is journaled before its 202 goes out, and on boot the
journal is replayed — jobs a previous (possibly SIGKILL'd) daemon never
finished are re-enqueued and complete bit-identically via the shared
result cache — and then rewritten down to that backlog.  A state
directory belongs to one daemon: the daemon holds an exclusive
``flock`` on ``daemon.lock`` there from construction until its drain
ends, and a second daemon on the same directory fails with
:class:`~repro.errors.StateDirBusyError` before it listens.  Several
daemons may share one cache directory.

SIGTERM/SIGINT trigger a graceful drain: the listener closes (new
connections are refused by the OS), queued and running jobs finish,
and the process exits 0.  A second signal cancels the drain and exits
immediately.
"""

from __future__ import annotations

import asyncio
import fcntl
import json
import os
import signal

from repro.engine import EngineConfig, SynthesisEngine
from repro.errors import OverloadedError, ReproError, StateDirBusyError
from repro.network.to_expr import spec_from_pla_text
from repro.obs.logs import log_event
from repro.obs.metrics import get_metrics_registry
from repro.serve.health import HealthMonitor
from repro.serve.jobs import JobQueue, options_from_json
from repro.serve.journal import JobJournal

__all__ = ["ReproServer", "resolve_state_dir"]

_MAX_BODY = 8 * 1024 * 1024  # a PLA bigger than 8 MiB is not a request

#: Environment default for the serve state directory (the job journal).
#: Unlike ``REPRO_CACHE_DIR``, a state directory belongs to one daemon.
STATE_DIR_ENV = "REPRO_SERVE_STATE_DIR"

JOURNAL_FILENAME = "journal.jsonl"
LOCK_FILENAME = "daemon.lock"

#: Lock fds held by daemons in this process.  A forked child (a process
#: pool worker) shares each fd's open file description, and with it the
#: lock; closing its copies makes the lock die with the daemon rather
#: than with its last worker.  Closing, never unlocking: ``LOCK_UN`` in
#: the child would drop the parent's lock too.
_HELD_LOCK_FDS: set[int] = set()


def _close_lock_fds_in_child() -> None:
    for fd in _HELD_LOCK_FDS:
        try:
            os.close(fd)
        except OSError:
            pass
    _HELD_LOCK_FDS.clear()


os.register_at_fork(after_in_child=_close_lock_fds_in_child)


def _lock_state_dir(state_dir: str) -> int:
    """Take the state directory's daemon lock, or raise
    :class:`StateDirBusyError` naming the holder's pid."""
    fd = os.open(os.path.join(state_dir, LOCK_FILENAME),
                 os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        holder = os.pread(fd, 32, 0).decode("ascii", "replace").strip()
        os.close(fd)
        raise StateDirBusyError(state_dir, holder) from None
    except BaseException:
        os.close(fd)
        raise
    os.ftruncate(fd, 0)
    os.pwrite(fd, f"{os.getpid()}\n".encode("ascii"), 0)
    _HELD_LOCK_FDS.add(fd)
    return fd


def resolve_state_dir(explicit: str | None = None) -> str | None:
    """Effective serve state directory: explicit wins, else the env var."""
    if explicit is not None:
        return explicit
    return os.environ.get(STATE_DIR_ENV) or None


def _count_replay_error(request_key: str, error: str) -> None:
    """Count and log one journal entry that failed to re-enqueue."""
    get_metrics_registry().counter(
        "serve.journal.replay_errors",
        "journal entries that failed to re-enqueue",
    ).inc()
    log_event("serve.journal.replay_error", request_key=request_key,
              error=error)


class _BadRequest(Exception):
    """Client error with a message that goes into the 400 body."""


class ReproServer:
    """One engine, one job queue, one asyncio listener."""

    def __init__(self, config: EngineConfig | None = None,
                 host: str = "127.0.0.1", port: int = 8348,
                 workers: int = 1,
                 state_dir: str | None = None,
                 max_queue_depth: int | None = None,
                 min_free_mb: int | None = None):
        self.state_dir = resolve_state_dir(state_dir)
        self._lock_fd: int | None = None
        journal = None
        if self.state_dir is not None:
            os.makedirs(self.state_dir, exist_ok=True)
            # First, before anything is built: a refused daemon leaves
            # nothing behind to clean up.
            self._lock_fd = _lock_state_dir(self.state_dir)
            journal = JobJournal(
                os.path.join(self.state_dir, JOURNAL_FILENAME))
        try:
            self.engine = SynthesisEngine(config)
        except BaseException:
            self._release_lock()
            raise
        self.queue = JobQueue(self.engine, workers=workers,
                              journal=journal, max_depth=max_queue_depth)
        self.health = HealthMonitor(
            self.queue,
            state_dir=self.state_dir,
            min_free_bytes=(min_free_mb * 1024 * 1024
                            if min_free_mb else None),
            breaker=(self.engine.disk_tier.breaker
                     if self.engine.disk_tier is not None else None),
        )
        self.host = host
        self.port = port
        self.replayed = 0
        self._server: asyncio.Server | None = None
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self.queue.start()
        self._replay_journal()
        self.health.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one" — publish what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    def _replay_journal(self) -> None:
        """Re-enqueue the unfinished backlog a dead daemon left behind.

        The journal is rewritten down to that backlog first, while no
        job is queued and so nothing can append: every boot bounds the
        file to the work it is about to replay.
        """
        if self.queue.journal is None:
            return
        registry = get_metrics_registry()
        report = self.queue.journal.replay()
        self.queue.journal.rewrite(report)
        for skipped, counter, help_text in (
            (report.skipped_schema, "serve.journal.skipped_schema",
             "journal records with an unknown (newer) schema version"),
            (report.skipped_malformed, "serve.journal.skipped_malformed",
             "journal records dropped as malformed"),
        ):
            if skipped:
                registry.counter(counter, help_text).inc(skipped)
        for pending in report.pending:
            try:
                spec = spec_from_pla_text(pending.pla, name=pending.circuit)
            except ReproError as exc:
                # No option changes how a PLA parses, so no daemon will
                # ever run this entry: retire it, and the next boot's
                # rewrite drops it instead of re-failing it forever.
                error = f"{type(exc).__name__}: {exc}"
                self.queue.journal.record_event(
                    "failed", pending.request_key, error=error
                )
                _count_replay_error(pending.request_key, error)
                continue
            try:
                overrides = options_from_json(pending.options)
                job, _ = self.queue.submit(spec, overrides, replayed=True)
                if job.key != pending.request_key:
                    # The recomputed key differs (e.g. the journal came
                    # from a daemon with different default options).
                    # Re-journal the work under the key its lifecycle
                    # events will actually use and retire the old entry,
                    # or every future boot replays it again.
                    self.queue.journal.record_queued(
                        request_key=job.key, circuit=pending.circuit,
                        pla=pending.pla, options=pending.options,
                    )
                    self.queue.journal.record_event(
                        "done", pending.request_key
                    )
            except Exception as exc:  # noqa: BLE001 — a poisoned journal
                # entry must not take the whole boot down with it.  It
                # stays pending: an option this daemon rejects may be one
                # a newer daemon knows.
                _count_replay_error(pending.request_key,
                                    f"{type(exc).__name__}: {exc}")
                continue
            self.replayed += 1
            registry.counter(
                "serve.journal.replayed",
                "unfinished journal entries re-enqueued on boot",
            ).inc()
            log_event("serve.journal.replayed",
                      request_key=pending.request_key,
                      circuit=pending.circuit)

    async def serve_forever(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT, then drain and return."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._shutdown.set)
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        """Stop accepting, drain the queue, release engine and lock."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.health.stop()
        await self.queue.drain()
        self.engine.close()
        self._release_lock()

    def _release_lock(self) -> None:
        if self._lock_fd is not None:
            _HELD_LOCK_FDS.discard(self._lock_fd)
            os.close(self._lock_fd)  # closing drops the flock
            self._lock_fd = None

    # -- http plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        headers: dict[str, str] = {}
        try:
            response = await self._handle_request(reader)
            status, body = response[0], response[1]
            if len(response) > 2:
                headers = response[2]
        except _BadRequest as exc:
            status, body = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — never kill the listener
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        try:
            if isinstance(body, str):
                payload = body.encode("utf-8")
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                payload = json.dumps(body).encode("utf-8")
                ctype = "application/json"
            reason = {200: "OK", 202: "Accepted", 400: "Bad Request",
                      404: "Not Found", 500: "Internal Server Error",
                      503: "Service Unavailable"}
            extra = "".join(
                f"{name}: {value}\r\n" for name, value in headers.items()
            )
            writer.write(
                f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n".encode("ascii")
            )
            writer.write(payload)
            await writer.drain()
        finally:
            writer.close()

    async def _handle_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("ascii",
                                                        "replace").strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("ascii",
                                                    "replace").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError as exc:
                    raise _BadRequest("bad Content-Length") from exc
        if length > _MAX_BODY:
            raise _BadRequest(f"body too large ({length} bytes)")
        body = await reader.readexactly(length) if length else b""
        return await self._dispatch(method, path, body)

    # -- endpoints ---------------------------------------------------------

    async def _dispatch(self, method: str, path: str, body: bytes):
        if method == "POST" and path == "/synthesize":
            return await self._post_synthesize(body)
        if method == "GET" and path == "/jobs":
            return 200, {
                "jobs": [job.summary() for job in self.queue.jobs.values()]
            }
        if method == "GET" and path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            job_id, _, sub = rest.partition("/")
            job = self.queue.get(job_id)
            if job is None:
                return 404, {"error": "no such job"}
            if sub == "trace":
                if job.trace is None:
                    return 404, {"error": f"no trace for {job_id} "
                                          f"(state: {job.state.value})"}
                return 200, {
                    "id": job.id,
                    "correlation_id": job.correlation_id,
                    "key": job.key,
                    "trace": job.trace,
                }
            if sub:
                return 404, {"error": f"no route for {method} {path}"}
            return 200, job.as_dict()
        if method == "GET" and path == "/metrics":
            return 200, get_metrics_registry().to_prometheus_text()
        if method == "GET" and path == "/healthz":
            reasons = list(self.queue.degraded_reasons)
            return 200, {
                "status": "degraded" if reasons else "ok",
                "degraded": bool(reasons),
                "reasons": reasons,
                "jobs": self.queue.counts(),
                "queue_depth": self.queue.depth(),
                "durable": self.queue.journal is not None,
                "replayed": self.replayed,
            }
        return 404, {"error": f"no route for {method} {path}"}

    async def _post_synthesize(self, body: bytes):
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not JSON: {exc}") from exc
        if not isinstance(doc, dict) or "pla" not in doc:
            raise _BadRequest('body must be a JSON object with a "pla" key')
        try:
            spec = spec_from_pla_text(
                doc["pla"], name=str(doc.get("name", "request"))
            )
        except Exception as exc:  # parser raises its own taxonomy
            raise _BadRequest(f"bad PLA: {exc}") from exc
        options_doc = doc.get("options") or {}
        try:
            overrides = options_from_json(options_doc)
        except ValueError as exc:
            raise _BadRequest(str(exc)) from exc
        try:
            job, deduplicated = self.queue.submit(
                spec, overrides,
                pla=str(doc["pla"]),
                options_doc=options_doc,
            )
        except OverloadedError as exc:
            # Shed, not queued: the backlog means accepting this job
            # would make every other job slower.
            retry_after = max(1, int(exc.retry_after))
            return (
                503,
                {"error": str(exc), "reason": exc.reason,
                 "retry_after": retry_after},
                {"Retry-After": str(retry_after)},
            )
        if doc.get("wait"):
            await job.done.wait()
            response = job.as_dict()
            response["deduplicated"] = deduplicated
            return 200, response
        return 202, {
            "id": job.id,
            "key": job.key,
            "state": job.state.value,
            "deduplicated": deduplicated,
        }
