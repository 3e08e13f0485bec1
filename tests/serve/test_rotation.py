"""Journal rotation/compaction: segments, checkpoint, journalctl CLI."""

import json
import os

import pytest

from repro.obs.history.store import append_jsonl
from repro.resilience import faultfs
from repro.serve import journalctl
from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JobJournal


@pytest.fixture(autouse=True)
def no_faults():
    faultfs.clear()
    yield
    faultfs.clear()


def make_journal(tmp_path, **kwargs) -> JobJournal:
    return JobJournal(str(tmp_path / "journal.jsonl"), **kwargs)


def queue_job(journal, key, pla=".i 1\n.o 1\n", **kwargs):
    journal.record_queued(
        request_key=key, circuit=kwargs.pop("circuit", "rd53"), pla=pla,
        options=kwargs.pop("options", {}))


def finish_job(journal, key, error=None):
    journal.record_event("running", key)
    if error is None:
        journal.record_event("done", key)
    else:
        journal.record_event("failed", key, error=error)


# -- rotation -----------------------------------------------------------------


def test_default_is_legacy_single_file(tmp_path):
    journal = make_journal(tmp_path)
    for n in range(50):
        queue_job(journal, key=f"k/{n}")
    assert journal.segment_paths() == []
    assert not os.path.exists(journal.checkpoint_path)
    assert len(journal.replay().pending) == 50


def test_tail_rotates_into_numbered_segments(tmp_path):
    journal = make_journal(tmp_path, max_bytes=400, keep_segments=100)
    for n in range(20):
        queue_job(journal, key=f"k/{n}", pla="x" * 64)
    segments = journal.segment_paths()
    assert segments, "the tail never rotated"
    names = [os.path.basename(path) for path in segments]
    assert names[0] == "journal.0001.jsonl"
    assert names == sorted(names)
    assert journal.rotations == len(segments)
    # The active tail is still the legacy path, and stays small.
    assert os.path.exists(journal.path)
    assert os.path.getsize(journal.path) < 400 + 200
    # Nothing acknowledged is lost across any number of rotations.
    report = journal.replay()
    assert {job.request_key for job in report.pending} \
        == {f"k/{n}" for n in range(20)}


def test_segmented_replay_matches_single_file_replay(tmp_path):
    plain = JobJournal(str(tmp_path / "plain" / "journal.jsonl"))
    rotated = JobJournal(str(tmp_path / "rot" / "journal.jsonl"),
                         max_bytes=300, keep_segments=1)
    for journal in (plain, rotated):
        for n in range(12):
            queue_job(journal, key=f"k/{n}", pla="y" * 48)
            if n % 3 == 0:
                finish_job(journal, f"k/{n}")
            elif n % 3 == 1:
                finish_job(journal, f"k/{n}", error="boom")
    reports = {j: j.replay() for j in (plain, rotated)}
    assert rotated.compactions >= 1  # the comparison is not vacuous
    assert [job.request_key for job in reports[rotated].pending] \
        == [job.request_key for job in reports[plain].pending]
    # Compaction retires keys whose last event is done; every other
    # finished key (the failed post-mortems) is still accounted for.
    with open(rotated.checkpoint_path, encoding="utf-8") as handle:
        retired = json.loads(handle.readline())["retired"]
    assert reports[rotated].finished + retired == reports[plain].finished


def test_explicit_rotate(tmp_path):
    journal = make_journal(tmp_path)
    assert journal.rotate() is None  # nothing to seal
    queue_job(journal, key="a")
    sealed = journal.rotate()
    assert sealed is not None and sealed.endswith("journal.0001.jsonl")
    assert not os.path.exists(journal.path)  # recreated by the next append
    queue_job(journal, key="b")
    assert {job.request_key for job in journal.replay().pending} \
        == {"a", "b"}


# -- compaction ---------------------------------------------------------------


def test_compaction_retention_classes(tmp_path):
    journal = make_journal(tmp_path)
    queue_job(journal, key="done/1")
    finish_job(journal, "done/1")
    queue_job(journal, key="failed/1")
    finish_job(journal, "failed/1", error="ValueError: bad cover")
    queue_job(journal, key="pending/1", options={"verify": True})
    queue_job(journal, key="running/1")
    journal.record_event("running", "running/1")
    journal.rotate()
    stats = journal.compact(keep=0)
    assert stats == {"compacted_segments": 1, "retired": 1, "kept": 0}

    with open(journal.checkpoint_path, encoding="utf-8") as handle:
        header, *body = [json.loads(line) for line in handle]
    assert header["kind"] == "checkpoint"
    assert header["retired"] == 1
    by_key: dict = {}
    for record in body:
        by_key.setdefault(record["request_key"], []).append(record)
    # done: dropped outright; failed: skeletal post-mortem with error;
    # pending/running: full queued payload survives.
    assert "done/1" not in by_key
    assert [r["event"] for r in by_key["failed/1"]] == ["failed"]
    assert by_key["failed/1"][0]["error"] == "ValueError: bad cover"
    assert "pla" not in by_key["failed/1"][0]
    assert by_key["pending/1"][0]["options"] == {"verify": True}
    assert [r["event"] for r in by_key["running/1"]] \
        == ["queued", "running"]

    report = journal.replay()
    assert {job.request_key for job in report.pending} \
        == {"pending/1", "running/1"}
    assert report.finished == 1  # the failed post-mortem


def test_compaction_counters_accumulate(tmp_path):
    journal = make_journal(tmp_path)
    for round_no in range(3):
        key = f"k/{round_no}"
        queue_job(journal, key=key)
        finish_job(journal, key)
        journal.rotate()
        journal.compact(keep=0)
    with open(journal.checkpoint_path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header["retired"] == 3
    assert header["compactions"] == 3
    assert journal.compactions == 3


def test_compaction_idempotent_with_leftover_victim(tmp_path):
    """A crash between 'checkpoint written' and 'victims unlinked'
    leaves both; folding the same records twice must change nothing."""
    journal = make_journal(tmp_path)
    queue_job(journal, key="pend/1")
    queue_job(journal, key="done/1")
    finish_job(journal, "done/1")
    journal.rotate()
    victim = journal.segment_paths()[0]
    saved = open(victim, encoding="utf-8").read()
    journal.compact(keep=0)
    # Resurrect the already-folded victim, as the crash would leave it.
    with open(victim, "w", encoding="utf-8") as handle:
        handle.write(saved)
    report = journal.replay()
    assert [job.request_key for job in report.pending] == ["pend/1"]
    # A second compaction folds the leftover away.  Replay state is
    # exactly what it would have been without the crash; only the
    # cumulative ``retired`` estimate counts the re-folded key twice
    # (an acceptable cost of crash recovery — it is telemetry, not
    # truth the fold depends on).
    journal.compact(keep=0)
    with open(journal.checkpoint_path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header["retired"] == 2
    assert [job.request_key for job in journal.replay().pending] \
        == ["pend/1"]


def test_foreign_schema_records_survive_compaction(tmp_path):
    journal = make_journal(tmp_path)
    queue_job(journal, key="mine/1")
    alien = {"schema": JOURNAL_SCHEMA_VERSION + 1, "event": "warp",
             "request_key": "theirs/1", "payload": {"new": "field"}}
    append_jsonl(journal.path, alien)
    journal.rotate()
    journal.compact(keep=0)
    with open(journal.checkpoint_path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle][1:]
    assert alien in records  # preserved verbatim, not destroyed
    report = journal.replay()
    assert report.skipped_schema == 1
    assert [job.request_key for job in report.pending] == ["mine/1"]


def test_nothing_to_compact_is_a_noop(tmp_path):
    journal = make_journal(tmp_path)
    queue_job(journal, key="a")  # tail only, no sealed segments
    stats = journal.compact(keep=0)
    assert stats["compacted_segments"] == 0
    assert not os.path.exists(journal.checkpoint_path)


# -- corruption detection ------------------------------------------------------


def test_checkpoint_checksum_detects_corruption(tmp_path):
    journal = make_journal(tmp_path)
    queue_job(journal, key="pend/1", options={"verify": True})
    journal.rotate()
    journal.compact(keep=0)
    assert journal.verify() == []

    raw = open(journal.checkpoint_path, encoding="utf-8").read()
    with open(journal.checkpoint_path, "w", encoding="utf-8") as handle:
        handle.write(raw.replace('"verify": true', '"verify": null')
                     if '"verify": true' in raw
                     else raw.replace("pend/1", "pend/2"))
    report = journal.replay()
    assert report.checkpoint_corrupt
    # Best-effort recovery: the tampered body still folds.
    assert len(report.pending) == 1
    problems = journal.verify()
    assert problems and "checkpoint" in problems[0]


def test_torn_tail_is_not_corruption(tmp_path):
    journal = make_journal(tmp_path)
    queue_job(journal, key="a")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"schema": 1, "event": "queu')  # the crash shape
    info = journal.scan()
    tail = info["files"][-1]
    assert tail["torn_tail"] is True
    assert tail["unparsable_mid"] == 0
    assert journal.verify() == []  # documented crash shape, not corruption
    # Healing: the next append strands the fragment mid-file; readers
    # skip it and verify still passes.
    queue_job(journal, key="b")
    info = journal.scan()
    assert info["files"][-1]["unparsable_mid"] == 1
    assert journal.verify() == []
    assert {job.request_key for job in journal.replay().pending} \
        == {"a", "b"}


def test_write_faults_absorbed_not_raised(tmp_path):
    journal = make_journal(tmp_path)
    faultfs.install(faultfs.parse_plan("write:enospc:path=journal:count=2"))
    queue_job(journal, key="lost/1")  # absorbed
    journal.record_event("running", "lost/1")  # absorbed
    queue_job(journal, key="kept/1")  # plan exhausted: lands on disk
    assert journal.write_errors == 2
    assert "No space left" in journal.last_write_error
    assert [job.request_key for job in journal.replay().pending] \
        == ["kept/1"]


# -- journalctl ----------------------------------------------------------------


def seeded_state_dir(tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    journal = JobJournal(str(state / "journal.jsonl"))
    queue_job(journal, key="done/1")
    finish_job(journal, "done/1")
    queue_job(journal, key="pend/1")
    return state, journal


def test_journalctl_requires_state_dir(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_STATE_DIR", raising=False)
    with pytest.raises(SystemExit, match="state dir"):
        journalctl.main(["inspect"])


def test_journalctl_inspect(tmp_path, capsys):
    state, _ = seeded_state_dir(tmp_path)
    assert journalctl.main(["inspect", "--state-dir", str(state)]) == 0
    out = capsys.readouterr().out
    assert "journal.jsonl" in out
    assert "1 pending" in out and "1 finished" in out
    assert "checkpoint: none" in out


def test_journalctl_inspect_json(tmp_path, capsys):
    state, _ = seeded_state_dir(tmp_path)
    assert journalctl.main(
        ["inspect", "--state-dir", str(state), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pending"] == 1
    assert doc["finished"] == 1
    assert doc["checkpoint"]["present"] is False


def test_journalctl_compact_then_verify(tmp_path, capsys):
    state, journal = seeded_state_dir(tmp_path)
    assert journalctl.main(
        ["compact", "--state-dir", str(state), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["rotated"] is True
    assert stats["retired"] == 1
    assert os.path.exists(journal.checkpoint_path)

    assert journalctl.main(["verify", "--state-dir", str(state)]) == 0
    assert "sound" in capsys.readouterr().out

    # Same post-compaction state via the env var instead of the flag.
    os.environ["REPRO_SERVE_STATE_DIR"] = str(state)
    try:
        assert journalctl.main(["inspect", "--json"]) == 0
    finally:
        del os.environ["REPRO_SERVE_STATE_DIR"]
    doc = json.loads(capsys.readouterr().out)
    assert doc["checkpoint"]["present"] is True
    assert doc["pending"] == 1


def test_journalctl_verify_fails_on_corrupt_checkpoint(tmp_path, capsys):
    state, journal = seeded_state_dir(tmp_path)
    journalctl.main(["compact", "--state-dir", str(state)])
    capsys.readouterr()
    raw = open(journal.checkpoint_path, encoding="utf-8").read()
    with open(journal.checkpoint_path, "w", encoding="utf-8") as handle:
        handle.write(raw.replace("pend/1", "pend/9"))
    assert journalctl.main(["verify", "--state-dir", str(state)]) == 1
    assert "checkpoint" in capsys.readouterr().err
    assert journalctl.main(
        ["verify", "--state-dir", str(state), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
