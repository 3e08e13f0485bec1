"""Job journal: append/replay, torn tails, schema skew, idempotence."""

import json
import os

import pytest

from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JobJournal


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
    report = journal.replay()
    assert report.skipped_malformed == 3
    assert report.skipped_schema == 1
    assert [job.request_key for job in report.pending] == ["a/1"]


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
