"""``serve-mix``: a ``repro-serve`` daemon on loopback under a closed loop.

One daemon per repetition, started with its default options (result
cache on, ``--jobs 0``, verify on) plus a fresh ``--cache-dir`` and
``--state-dir`` under the benchmark's work directory, on port 0.  Two
client threads (a closed loop: each sends its next request only after
the previous reply) submit PLA text through
``ServeClient.synthesize(wait=True)``.  Every reply is checked after the
timed loop: it must be ``done``, its BLIF must parse and match the
circuit's specification, and all replies for one circuit must be
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import inputs
from layers import FlowTotals, median

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0


class Daemon:
    """A ``repro-serve`` process with its own cache and state directories."""

    def __init__(self, workdir: str):
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        self.state_dir = os.path.join(self.dir, "state")
        self.log_path = os.path.join(self.dir, "daemon.log")
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the set-up seconds."""
        from repro.serve.client import ServeClient

        argv = [sys.executable, "-m", "repro.serve.cli", "--port", "0",
                "--cache-dir", os.path.join(self.dir, "cache"),
                "--state-dir", self.state_dir]
        spawn_ts = time.monotonic()
        # The daemon inherits the worker's environment, which run.py set
        # up: PYTHONPATH at the checkout's src, no REPRO_* settings.
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                                         stderr=log)
        deadline = spawn_ts + START_TIMEOUT_S
        port = None
        while port is None:
            with open(self.log_path, encoding="utf-8") as log:
                for line in log:
                    # A line still being written has no newline yet.
                    if "listening on http://" in line and line.endswith("\n"):
                        port = line.split("listening on http://")[1] \
                            .split()[0].rsplit(":", 1)[1]
            if port is None:
                if self.proc.poll() is not None:
                    raise RuntimeError("repro-serve exited before listening")
                if time.monotonic() > deadline:
                    raise TimeoutError("repro-serve did not start")
                time.sleep(0.005)
        self.url = f"http://127.0.0.1:{port}"
        ServeClient(self.url).wait_ready(timeout=START_TIMEOUT_S, poll=0.005)
        return time.monotonic() - spawn_ts

    def stop(self) -> int:
        """SIGTERM (graceful drain); returns the exit code."""
        if self.proc is None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9

    def state_bytes(self) -> int:
        total = 0
        for folder, _, files in os.walk(self.state_dir):
            for name in files:
                total += os.path.getsize(os.path.join(folder, name))
        return total

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_only(workdir: str) -> float:
    daemon = Daemon(workdir)
    try:
        return daemon.start()
    finally:
        daemon.stop()
        daemon.remove()


def _scrape(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            try:
                values[name] = float(value)
            except ValueError:
                pass
    return values


def run(seed: int, workdir: str, tracer) -> dict:
    """One repetition; ``tracer`` is the active tracer of a traced one."""
    from repro.circuits import get
    from repro.expr.pla import pla_from_spec, write_pla
    from repro.flow.trace import FlowTrace
    from repro.mapping import map_network, mcnc_lite_library
    from repro.network.blif import parse_blif
    from repro.network.verify import equivalent_to_spec
    from repro.obs.spans import Span, span
    from repro.power.mapped import estimate_mapped_power
    from repro.serve.client import ServeClient

    requests = inputs.serve_requests(seed)
    plas = {name: write_pla(pla_from_spec(get(name)))
            for name in sorted(set(requests))}
    daemon = Daemon(workdir)
    replies: list[dict | None] = [None] * len(requests)
    failures: list[str] = []
    lock = threading.Lock()
    completed: set[str] = set()
    cursor = [0]
    clock = time.perf_counter
    wall_offset = time.time() - clock()  # server stamps -> our clock

    def client_loop() -> None:
        client = ServeClient(daemon.url, timeout=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests):
                    return
                cursor[0] += 1
                name = requests[index]
                warm = name in completed
            start = clock()
            try:
                doc = client.synthesize(plas[name], name=name, wait=True)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                replies[index] = {"item": name, "error": repr(exc)}
                continue
            end = clock()
            if doc.get("state") == "done":
                with lock:
                    completed.add(name)
            replies[index] = {"item": name, "doc": doc, "warm": warm,
                              "start": start, "end": end,
                              "bytes": len(json.dumps(doc).encode())}

    try:
        setup_s = daemon.start()
        threads = [threading.Thread(target=client_loop)
                   for _ in range(inputs.SERVE_CLIENTS)]
        with span("serve-batch", category="bench") as batch:
            batch_start = clock()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sweep_s = clock() - batch_start
        admin = ServeClient(daemon.url, timeout=REQUEST_TIMEOUT_S)
        scraped = _scrape(admin.metrics())
        traces = {}
        if tracer is not None:
            for reply in replies:
                job = reply and reply.get("doc", {}).get("id")
                if job and job not in traces:
                    traces[job] = admin.trace(job).get("trace")
        journal_bytes = daemon.state_bytes()
    finally:
        code = daemon.stop()
        daemon.remove()
    failed = 0
    if code != 0:
        failed += 1
        failures.append(f"repro-serve exited {code} on SIGTERM")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # Checks, outside the timed loop.
    library = mcnc_lite_library()
    first_blif: dict[str, str] = {}
    lits = power = 0.0
    fingerprint: dict[str, list[str]] = {}
    for reply in replies:
        name = reply["item"]
        doc = reply.get("doc")
        if doc is None or doc.get("state") != "done":
            failed += 1
            failures.append(f"{name}: " + (reply.get("error") or
                            f"job {doc.get('state')}: {doc.get('error')}"))
            continue
        blif = doc["result"]["blif"]
        if name not in first_blif:
            first_blif[name] = blif
            with span("check", category="bench", item=name):
                network = parse_blif(blif)
                verdict = equivalent_to_spec(network, get(name))
                mapped = map_network(network, library)
            fingerprint[name] = [hashlib.sha256(blif.encode())
                                 .hexdigest()[:16], verdict.method]
            if not verdict:
                failures.append(f"{name}: served network differs from spec "
                                f"({verdict.detail})")
                reply["failed"] = True
            lits += mapped.literal_count
            power += estimate_mapped_power(mapped).microwatts
        elif blif != first_blif[name]:
            failures.append(f"{name}: reply BLIF differs from an earlier one")
            reply["failed"] = True
        failed += bool(reply.get("failed"))

    done = [r for r in replies if r.get("doc") and not r.get("failed")]
    latencies = [(r["end"] - r["start"]) * 1e3 for r in done]
    jobs: dict[str, dict] = {}
    for r in done:
        jobs.setdefault(r["doc"]["id"], r["doc"])
    run_s = [d["finished_unix"] - d["started_unix"] for d in jobs.values()]
    wait_s = [d["started_unix"] - d["submitted_unix"] for d in jobs.values()]
    own = [r for r in done if not r["doc"].get("deduplicated")]
    http_ms = [(r["end"] - r["start"] - (r["doc"]["finished_unix"]
                                         - r["doc"]["submitted_unix"])) * 1e3
               for r in own]
    totals = {
        "sweep_s": sweep_s,
        "fprm_s": sum(run_s),
        "fprm_mapped_lits": lits,
        "fprm_power_uw": power,
        "req_per_s": len(done) / sweep_s,
        "peak_rss_mb": rss,
        "warm_p50_ms": median([(r["end"] - r["start"]) * 1e3
                               for r in done if r["warm"]]),
    }
    result = {"setup_s": setup_s, "totals": totals, "latencies_ms": latencies,
              "failures": failures, "failed": failed,
              "attempted": len(requests), "fingerprint": fingerprint}
    if tracer is None:
        return result

    # Requests and the server's stamps, measured on other clocks, go
    # under the batch span; ``to_span`` maps our clock to the tracer's.
    def to_span(at: float) -> float:
        return batch.start + at - batch_start

    flow = FlowTotals()
    for r in done:
        doc = r["doc"]
        request = Span("request", category="serve", start=to_span(r["start"]),
                       seconds=r["end"] - r["start"],
                       attrs={"item": f"{doc['id']}:{r['item']}",
                              "warm": r["warm"]})
        for label, a, b in (("serve.queue_wait", "submitted_unix",
                             "started_unix"),
                            ("serve.run", "started_unix", "finished_unix")):
            request.children.append(Span(
                label, category="serve",
                start=to_span(doc[a] - wall_offset), seconds=doc[b] - doc[a]))
        batch.children.append(request)
        trace_doc = traces.pop(doc["id"], None)
        if trace_doc:
            # The job's own span tree, under the request that ran it.
            trace = FlowTrace.from_dict(trace_doc)
            flow.add(trace, trace.seconds)
            if trace.root is not None:
                tracer.adopt(trace.root, at=request.children[-1].start,
                             parent=request)
    layers = flow.metrics()
    hits = scraped.get("flow_cache_hits", 0)
    lookups = hits + scraped.get("flow_cache_misses", 0)
    cold = [(r["end"] - r["start"]) * 1e3 for r in done if not r["warm"]]
    layers.update({
        "serve.queue_wait.p50_ms": median(wait_s) * 1e3,
        "serve.run.p50_ms": median(run_s) * 1e3,
        "serve.http.p50_ms": median(http_ms),
        "serve.cold.p50_ms": median(cold),
        "serve.dedup_share": (len(done) - len(own)) / len(done) if done else 0,
        "serve.response_bytes.mean": (sum(r["bytes"] for r in done)
                                      / len(done) if done else 0),
        "serve.journal.bytes": journal_bytes,
        "flow.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "engine.requests.fresh": scraped.get("engine_requests_fresh", 0),
        "engine.requests.cached": scraped.get("engine_requests_cached", 0),
        "workload.repeat_share": inputs.repeat_share(requests),
    })
    result["layers"] = layers
    return result
