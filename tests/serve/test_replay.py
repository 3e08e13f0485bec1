"""Journal replay through the real server: boot-time re-enqueue."""

import asyncio
import json
import os
import time

import pytest

from repro.circuits import get
from repro.engine import SynthesisEngine
from repro.expr.pla import pla_from_spec, write_pla
from repro.flow.cache import get_result_cache
from repro.network.to_expr import spec_from_pla_text
from repro.obs.metrics import get_metrics_registry
from repro.serve.client import ServeClient
from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JobJournal
from repro.serve.server import (
    JOURNAL_FILENAME,
    STATE_DIR_ENV,
    ReproServer,
    resolve_state_dir,
)


@pytest.fixture(autouse=True)
def clean_cache():
    get_result_cache().clear()
    get_result_cache().detach_disk()
    yield
    get_result_cache().clear()
    get_result_cache().detach_disk()


def pla_text(name: str) -> str:
    return write_pla(pla_from_spec(get(name)))


def boot_and_wait(state_dir: str, expect_done: int):
    """Start a server on ``state_dir``, wait for the backlog, stop."""
    async def driver():
        server = ReproServer(port=0, state_dir=state_dir)
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()

        def wait_done():
            end = time.monotonic() + 60
            jobs = []
            while time.monotonic() < end:
                jobs = client.jobs()["jobs"]
                done = [job for job in jobs if job["state"] == "done"]
                if len(done) >= expect_done:
                    return [client.job(job["id"]) for job in done]
                time.sleep(0.05)
            raise TimeoutError(f"backlog never drained: {jobs}")

        try:
            jobs = await loop.run_in_executor(None, wait_done)
            return server.replayed, jobs
        finally:
            await server.stop()
    return asyncio.run(driver())


def test_boot_replays_unfinished_jobs(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    journal = JobJournal(os.path.join(state_dir, JOURNAL_FILENAME))
    # The crash shape: one job accepted, one accepted + started, one
    # finished — only the first two are unfinished business.
    journal.record_queued(request_key="a", circuit="rd53",
                          pla=pla_text("rd53"), options={})
    journal.record_queued(request_key="b", circuit="z4ml",
                          pla=pla_text("z4ml"), options={})
    journal.record_event("running", "b")
    journal.record_queued(request_key="c", circuit="radd",
                          pla=pla_text("radd"), options={})
    journal.record_event("running", "c")
    journal.record_event("done", "c")

    replayed, jobs = boot_and_wait(state_dir, expect_done=2)
    assert replayed == 2
    by_circuit = {job["circuit"]: job for job in jobs}
    assert set(by_circuit) == {"rd53", "z4ml"}
    for job in jobs:
        assert job["replayed"] is True
        assert job["state"] == "done"
        assert job["result"]["blif"]
    # The finished jobs got journaled as done again, so a second boot
    # has nothing left to replay.
    replayed_again, _ = boot_and_wait(state_dir, expect_done=0)
    assert replayed_again == 0


def test_legacy_priority_and_client_fields_replay(tmp_path):
    """State dirs written before priority classes and client ids were
    dropped carry both fields on every ``queued`` record; replay ignores
    them and rebuilds each job under its journaled request key."""
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    path = os.path.join(state_dir, JOURNAL_FILENAME)
    engine = SynthesisEngine()
    try:
        keys = {name: engine.request_key(spec_from_pla_text(
                    pla_text(name), name=name))
                for name in ("rd53", "z4ml")}
    finally:
        engine.close()
    with open(path, "a", encoding="utf-8") as handle:
        for (name, key), priority in zip(keys.items(), ("high", "low")):
            handle.write(json.dumps({
                "schema": JOURNAL_SCHEMA_VERSION, "event": "queued",
                "request_key": key, "circuit": name,
                "pla": pla_text(name), "options": {},
                "priority": priority, "client": "batch", "ts": 1.0,
            }) + "\n")

    replayed, jobs = boot_and_wait(state_dir, expect_done=2)
    assert replayed == 2
    assert {job["circuit"]: job["key"] for job in jobs} == keys
    assert all(job["state"] == "done" and job["replayed"] for job in jobs)
    # Same keys, so no job was re-journaled under a new one: the done
    # events retire both records and a second boot replays nothing.
    replayed_again, _ = boot_and_wait(state_dir, expect_done=0)
    assert replayed_again == 0


def test_boot_rewrites_journal_to_its_backlog(tmp_path):
    """A restart with unfinished work leaves exactly the pending
    ``queued`` lines plus newer-schema lines; once that backlog is done
    the next boot drops it, and a boot with nothing new leaves the file
    byte-identical (not even rewritten)."""
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    path = os.path.join(state_dir, JOURNAL_FILENAME)
    engine = SynthesisEngine()
    try:
        keys = {name: engine.request_key(spec_from_pla_text(
                    pla_text(name), name=name))
                for name in ("rd53", "z4ml", "radd")}
    finally:
        engine.close()
    journal = JobJournal(path)
    for name in ("rd53", "radd", "z4ml"):
        journal.record_queued(request_key=keys[name], circuit=name,
                              pla=pla_text(name), options={})
    journal.record_event("running", keys["radd"])
    journal.record_event("done", keys["radd"])
    journal.record_event("running", keys["z4ml"])
    foreign = json.dumps({"schema": JOURNAL_SCHEMA_VERSION + 1,
                          "event": "warp", "request_key": "theirs"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(foreign + "\n" + '{"schema": 1, "event": "do')
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    expected = [lines[0], lines[2], foreign]  # queued rd53, queued z4ml

    async def first_boot():
        server = ReproServer(port=0, state_dir=state_dir)
        # The boot path minus the queue workers: nothing can append.
        server._replay_journal()
        with open(path, encoding="utf-8") as handle:
            rewritten = handle.read().splitlines()
        server.queue.start()
        await server.stop()  # drains the replayed backlog
        return server.replayed, rewritten

    replayed, rewritten = asyncio.run(first_boot())
    assert replayed == 2
    assert rewritten == expected

    replayed_again, _ = boot_and_wait(state_dir, expect_done=0)
    assert replayed_again == 0
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == foreign + "\n"
    stat = os.stat(path)
    boot_and_wait(state_dir, expect_done=0)
    assert os.stat(path).st_ino == stat.st_ino
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == foreign + "\n"


def _replay_errors() -> float:
    return get_metrics_registry().counter(
        "serve.journal.replay_errors", "test probe").value


def _journal_keys(path: str) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        return {json.loads(line)["request_key"] for line in handle}


def test_poisoned_journal_entry_does_not_block_boot(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    path = os.path.join(state_dir, JOURNAL_FILENAME)
    journal = JobJournal(path)
    journal.record_queued(request_key="good", circuit="rd53",
                          pla=pla_text("rd53"), options={})
    with open(path, "a", encoding="utf-8") as handle:
        # Parseable JSONL, valid schema, but the PLA is garbage: the
        # re-enqueue must fail for this entry only.
        handle.write(json.dumps({
            "schema": JOURNAL_SCHEMA_VERSION, "event": "queued",
            "request_key": "poison", "circuit": "bad",
            "pla": "not a pla at all", "options": {},
            "priority": "normal", "client": "ci",
        }) + "\n")

    before = _replay_errors()
    replayed, jobs = boot_and_wait(state_dir, expect_done=1)
    assert replayed == 1
    assert jobs[0]["circuit"] == "rd53"
    assert _replay_errors() == before + 1
    # The unparsable entry was retired, not left to fail on every boot:
    # the second boot's rewrite drops it and the third has nothing to do.
    for _ in range(2):
        replayed, _ = boot_and_wait(state_dir, expect_done=0)
        assert replayed == 0
        assert "poison" not in _journal_keys(path)
    assert _replay_errors() == before + 1


def test_entry_with_unknown_option_stays_pending(tmp_path):
    state_dir = str(tmp_path / "state")
    os.makedirs(state_dir)
    path = os.path.join(state_dir, JOURNAL_FILENAME)
    # An option only a newer daemon knows: this daemon cannot run the
    # entry, but must keep it for one that can.
    JobJournal(path).record_queued(
        request_key="future", circuit="rd53", pla=pla_text("rd53"),
        options={"option_from_the_future": 1},
    )
    before = _replay_errors()
    for _ in range(2):
        replayed, _ = boot_and_wait(state_dir, expect_done=0)
        assert replayed == 0
    assert _replay_errors() == before + 2
    pending = JobJournal(path).replay().pending
    assert [job.request_key for job in pending] == ["future"]


def test_resolve_state_dir_precedence(monkeypatch):
    monkeypatch.delenv(STATE_DIR_ENV, raising=False)
    assert resolve_state_dir(None) is None
    assert resolve_state_dir("/explicit") == "/explicit"
    monkeypatch.setenv(STATE_DIR_ENV, "/from-env")
    assert resolve_state_dir(None) == "/from-env"
    assert resolve_state_dir("/explicit") == "/explicit"
    monkeypatch.setenv(STATE_DIR_ENV, "")
    assert resolve_state_dir(None) is None


def test_healthz_reports_durability(tmp_path):
    async def driver():
        server = ReproServer(port=0, state_dir=str(tmp_path / "state"))
        await server.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        loop = asyncio.get_running_loop()
        try:
            health = await loop.run_in_executor(None, client.health)
            assert health["durable"] is True
            assert health["replayed"] == 0
        finally:
            await server.stop()

        ephemeral = ReproServer(port=0, state_dir=None)
        # Explicit None and no env var: not durable.
        os.environ.pop(STATE_DIR_ENV, None)
        await ephemeral.start()
        client = ServeClient(f"http://127.0.0.1:{ephemeral.port}")
        try:
            health = await loop.run_in_executor(None, client.health)
            assert health["durable"] is False
        finally:
            await ephemeral.stop()
    asyncio.run(driver())
