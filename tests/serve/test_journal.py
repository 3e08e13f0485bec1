"""Job journal: append/replay, torn tails, schema skew, idempotence,
write faults and the boot rewrite."""

import json
import os
import random

import pytest

from repro.resilience import faultfs
from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JobJournal


@pytest.fixture(autouse=True)
def no_faults():
    faultfs.clear()
    yield
    faultfs.clear()


@pytest.fixture()
def journal(tmp_path):
    return JobJournal(str(tmp_path / "journal.jsonl"))


def queue_job(journal, key="k1", circuit="rd53", pla=".i 1\n.o 1\n",
              options=None):
    journal.record_queued(request_key=key, circuit=circuit, pla=pla,
                          options=options or {})


# -- lifecycle folding -------------------------------------------------------


def test_roundtrip_queued_is_pending(journal):
    queue_job(journal, key="a/1", options={"verify": True})
    report = journal.replay()
    assert len(report.pending) == 1
    job = report.pending[0]
    assert job.request_key == "a/1"
    assert job.circuit == "rd53"
    assert job.options == {"verify": True}
    assert report.finished == 0


def test_terminal_event_clears_pending(journal):
    queue_job(journal, key="a/1")
    journal.record_event("running", "a/1")
    journal.record_event("done", "a/1")
    report = journal.replay()
    assert report.pending == []
    assert report.finished == 1


def test_failed_is_terminal_too(journal):
    queue_job(journal, key="a/1")
    journal.record_event("running", "a/1")
    journal.record_event("failed", "a/1", error="BudgetExceeded: boom")
    report = journal.replay()
    assert report.pending == []
    assert report.finished == 1


def test_running_without_terminal_stays_pending(journal):
    """The SIGKILL-mid-synthesis shape: queued + running, no done."""
    queue_job(journal, key="a/1")
    journal.record_event("running", "a/1")
    report = journal.replay()
    assert [job.request_key for job in report.pending] == ["a/1"]


def test_pending_keeps_submission_order(journal):
    for key in ("c/3", "a/1", "b/2"):
        queue_job(journal, key=key)
    journal.record_event("done", "a/1")
    report = journal.replay()
    assert [job.request_key for job in report.pending] == ["c/3", "b/2"]


def test_duplicate_queued_entries_fold_to_one_pending(journal):
    """One key journaled twice (dedup is per-process, so a restarted
    daemon can accept a key its predecessor left unfinished)."""
    queue_job(journal, key="a/1", circuit="first")
    queue_job(journal, key="a/1", circuit="second")
    report = journal.replay()
    assert len(report.pending) == 1
    assert report.pending[0].circuit == "second"  # latest payload wins


def test_requeue_after_done_reopens_key(journal):
    queue_job(journal, key="a/1")
    journal.record_event("done", "a/1")
    queue_job(journal, key="a/1")
    report = journal.replay()
    assert [job.request_key for job in report.pending] == ["a/1"]


def test_unknown_event_rejected(journal):
    with pytest.raises(ValueError, match="unknown journal event"):
        journal.record_event("paused", "a/1")


# -- durability and skew -----------------------------------------------------


def test_missing_file_replays_empty(tmp_path):
    report = JobJournal(str(tmp_path / "absent.jsonl")).replay()
    assert report.pending == [] and report.finished == 0


def test_torn_tail_is_skipped_and_healed(journal):
    queue_job(journal, key="a/1")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "event": "done", "request_ke')
    report = journal.replay()
    # The torn line never parsed, so the key is still pending ...
    assert [job.request_key for job in report.pending] == ["a/1"]
    assert report.skipped_malformed == 1
    # ... and the next append heals the tail (prefix newline) instead of
    # gluing onto the torn line, so the new record parses.
    journal.record_event("done", "a/1")
    assert journal.replay().pending == []


def test_newer_schema_records_skipped(journal):
    queue_job(journal, key="a/1")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "schema": JOURNAL_SCHEMA_VERSION + 1,
            "event": "done", "request_key": "a/1",
        }) + "\n")
    report = journal.replay()
    assert report.skipped_schema == 1
    # The new-schema "done" was ignored: a/1 is conservatively pending.
    assert [job.request_key for job in report.pending] == ["a/1"]


def test_malformed_records_counted_not_fatal(journal):
    queue_job(journal, key="a/1")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": 1, "event": "queued",
                                 "request_key": "bad", "pla": 7,
                                 "circuit": "x", "options": {}}) + "\n")
        handle.write(json.dumps({"schema": 1, "event": "nope",
                                 "request_key": "a/1"}) + "\n")
        handle.write(json.dumps({"schema": 1, "event": "done"}) + "\n")
        handle.write(json.dumps({"schema": "one", "event": "done",
                                 "request_key": "a/1"}) + "\n")
        # A bad timestamp costs the timestamp, not the job (or the boot).
        handle.write(json.dumps({"schema": 1, "event": "queued",
                                 "request_key": "b/2", "pla": "",
                                 "circuit": "x", "options": {},
                                 "ts": "soon"}) + "\n")
    report = journal.replay()
    assert report.skipped_malformed == 3
    assert report.skipped_schema == 1
    assert [job.request_key for job in report.pending] == ["a/1", "b/2"]
    assert report.pending[1].submitted_unix == 0.0


def test_replay_is_idempotent(journal):
    queue_job(journal, key="a/1")
    queue_job(journal, key="b/2")
    journal.record_event("done", "b/2")
    first = journal.replay()
    second = journal.replay()
    assert [j.request_key for j in first.pending] \
        == [j.request_key for j in second.pending] == ["a/1"]


def test_appends_create_parent_directory(tmp_path):
    nested = JobJournal(str(tmp_path / "deep" / "dir" / "journal.jsonl"))
    queue_job(nested, key="a/1")
    assert os.path.exists(nested.path)
    assert len(nested.replay().pending) == 1


def test_write_faults_absorbed_not_raised(journal):
    faultfs.install(faultfs.parse_plan("write:enospc:path=journal:count=2"))
    queue_job(journal, key="lost/1")  # absorbed
    journal.record_event("running", "lost/1")  # absorbed
    queue_job(journal, key="kept/1")  # plan exhausted: lands on disk
    assert journal.write_errors == 2
    assert "No space left" in journal.last_write_error
    assert [job.request_key for job in journal.replay().pending] \
        == ["kept/1"]


# -- boot rewrite ------------------------------------------------------------


def read_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def test_rewrite_keeps_only_pending_queued_records(journal):
    queue_job(journal, key="done/1")
    journal.record_event("running", "done/1")
    journal.record_event("done", "done/1")
    queue_job(journal, key="failed/1")
    journal.record_event("failed", "failed/1", error="ValueError: bad")
    queue_job(journal, key="pending/1", options={"verify": True})
    queue_job(journal, key="running/1")
    journal.record_event("running", "running/1")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"schema": 1, "event": "done"}) + "\n")
    report = journal.replay()
    assert journal.rewrite(report) is True
    records = [json.loads(line)
               for line in read_bytes(journal.path).decode().splitlines()]
    assert [(r["event"], r["request_key"]) for r in records] \
        == [("queued", "pending/1"), ("queued", "running/1")]
    after = journal.replay()
    assert after.finished == after.skipped_malformed == 0
    assert [job.options for job in after.pending] == [{"verify": True}, {}]


def test_rewrite_of_missing_file_writes_nothing(tmp_path):
    journal = JobJournal(str(tmp_path / "journal.jsonl"))
    assert journal.rewrite(journal.replay()) is False
    assert not os.path.exists(journal.path)


def test_rewrite_write_fault_absorbed_and_file_kept(journal):
    queue_job(journal, key="a/1")
    journal.record_event("done", "a/1")
    before = read_bytes(journal.path)
    faultfs.install(faultfs.parse_plan("replace:eio:path=journal"))
    assert journal.rewrite(journal.replay()) is False
    assert journal.write_errors == 1
    assert read_bytes(journal.path) == before
    assert [name for name in os.listdir(os.path.dirname(journal.path))] \
        == ["journal.jsonl"]  # the temp file was cleaned up


def random_stream(journal, rng, foreign_line):
    """A seeded event stream with the crash shapes replay must handle:
    requeued keys, a newer-schema record midway, a torn tail."""
    keys = [f"k/{n}" for n in range(rng.randrange(20, 60))]
    for index, key in enumerate(keys):
        options = {"verify": rng.random() < 0.5} if rng.random() < 0.3 \
            else {}
        queue_job(journal, key=key, circuit=f"c{index}",
                  pla="x" * rng.randrange(1, 40), options=options)
        fate = rng.random()
        if fate < 0.4:
            journal.record_event("running", key)
            journal.record_event("done", key)
        elif fate < 0.55:
            journal.record_event("failed", key, error="boom")
        elif fate < 0.7:
            journal.record_event("running", key)
        if index == len(keys) // 2:
            with open(journal.path, "a", encoding="utf-8") as handle:
                handle.write(foreign_line + "\n")
    for key in rng.sample(keys, 3):  # accepted again after finishing
        queue_job(journal, key=key, circuit="again", pla="y", options={})
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "event": "done", "request_key": "k/')


def pending_view(report):
    return [(job.request_key, job.pla, job.circuit, job.options)
            for job in report.pending]


@pytest.mark.parametrize("seed", [1, 7, 42, 1996])
def test_boot_rewrite_round_trip(tmp_path, seed):
    journal = JobJournal(str(tmp_path / "journal.jsonl"))
    foreign_line = json.dumps({
        "schema": JOURNAL_SCHEMA_VERSION + 1, "event": "warp",
        "request_key": "theirs/1", "payload": {"new": "field"},
    }, separators=(",", ":"))  # not this code's json.dumps layout
    random_stream(journal, random.Random(seed), foreign_line)
    before = journal.replay()
    assert before.skipped_schema == 1 and before.skipped_malformed == 1

    assert journal.rewrite(before) is True
    rewritten = read_bytes(journal.path)
    after = journal.replay()
    assert pending_view(after) == pending_view(before)
    assert after.skipped_schema == 1
    assert after.finished == after.skipped_malformed == 0
    # The newer daemon's record survives byte-for-byte.
    assert foreign_line.encode() in rewritten.splitlines()

    # A second boot with nothing new is a byte-identical no-op.
    assert journal.rewrite(after) is False
    assert read_bytes(journal.path) == rewritten
