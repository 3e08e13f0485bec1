"""Run-history store and bench-snapshot comparison semantics."""

import copy
import json
import threading
from pathlib import Path

from repro.circuits import get
from repro.engine import EngineConfig, SynthesisEngine
from repro.obs.history import (
    HISTORY_FILE_ENV,
    RunHistoryStore,
    compare_snapshots,
    record_snapshot,
    resolve_history_path,
    snapshot_history_records,
)


# -- the store ---------------------------------------------------------------


def test_append_stamps_schema_sha_and_time(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_GIT_SHA", "abc123def456")
    store = RunHistoryStore(str(tmp_path / "history.jsonl"))
    stamped = store.append({"kind": "engine", "request_key": "k1",
                            "seconds": 0.5})
    assert stamped["schema"] == 1
    assert stamped["git_sha"] == "abc123def456"
    assert stamped["created_unix"] > 0
    records = store.records()
    assert len(records) == 1
    assert records[0] == stamped


def test_records_filter_by_kind_and_key(tmp_path):
    store = RunHistoryStore(str(tmp_path / "h.jsonl"))
    store.append({"kind": "engine", "request_key": "a"})
    store.append({"kind": "bench", "request_key": "a"})
    store.append({"kind": "bench", "request_key": "b"})
    assert len(store.records()) == 3
    assert len(store.records(kind="bench")) == 2
    assert len(store.records(kind="bench", request_key="a")) == 1
    latest = store.latest_by_key(kind="bench")
    assert set(latest) == {"a", "b"}


def test_torn_lines_are_skipped_not_fatal(tmp_path):
    path = tmp_path / "h.jsonl"
    store = RunHistoryStore(str(path))
    store.append({"kind": "engine", "request_key": "good"})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "engine", "request_')  # crash mid-write
    store2 = RunHistoryStore(str(path))
    records = store2.records()
    assert len(records) == 1
    assert records[0]["request_key"] == "good"
    # And the file keeps accepting appends after the torn line.
    store2.append({"kind": "engine", "request_key": "later"})
    assert len(store2.records()) == 2


def test_concurrent_appends_interleave_whole_lines(tmp_path):
    store = RunHistoryStore(str(tmp_path / "h.jsonl"))

    def writer(tag):
        for i in range(50):
            store.append({"kind": "engine", "request_key": f"{tag}-{i}"})

    threads = [threading.Thread(target=writer, args=(t,)) for t in "abcd"]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    records = store.records()
    assert len(records) == 200  # every line parsed — no fragments


def test_resolve_history_path_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(HISTORY_FILE_ENV, raising=False)
    assert resolve_history_path(None) is None
    monkeypatch.setenv(HISTORY_FILE_ENV, str(tmp_path / "env.jsonl"))
    assert resolve_history_path(None) == str(tmp_path / "env.jsonl")
    assert resolve_history_path("explicit.jsonl") == "explicit.jsonl"
    monkeypatch.setenv(HISTORY_FILE_ENV, "")
    assert resolve_history_path(None) is None


# -- engine integration ------------------------------------------------------


def test_engine_records_every_request(tmp_path):
    path = str(tmp_path / "engine-history.jsonl")
    spec = get("z4ml")
    with SynthesisEngine(EngineConfig(history_path=path)) as engine:
        engine.synthesize(spec, verify=False)
        expected_key = engine.request_key(spec, verify=False)
    records = RunHistoryStore(path).records(kind="engine")
    assert len(records) == 1
    record = records[0]
    assert record["circuit"] == "z4ml"
    assert record["request_key"] == expected_key
    assert record["gates"] > 0
    assert record["seconds"] >= 0.0
    assert record["verified"] is None and record["verify_method"] is None


# -- snapshots and the regression gate ---------------------------------------


def make_snapshot(**entries) -> dict:
    return {
        "schema": 1,
        "kind": "bench-snapshot",
        "label": "t",
        "entries": dict(entries),
        "totals": {},
    }


def entry(key="k", seconds=1.0, gates=100, literals=200) -> dict:
    return {"request_key": key, "seconds": seconds, "gates": gates,
            "literals": literals, "verified": True}


def test_identical_snapshots_never_flag():
    snap = make_snapshot(z4ml=entry(), rd53=entry(key="k2", seconds=0.01))
    regressions, notes = compare_snapshots(snap, json.loads(json.dumps(snap)))
    assert regressions == []
    assert notes == []


def test_seeded_slowdown_is_detected():
    old = make_snapshot(z4ml=entry(seconds=1.0))
    new = make_snapshot(z4ml=entry(seconds=1.5))
    regressions, _ = compare_snapshots(old, new, threshold=0.25,
                                       min_seconds=0.05)
    assert len(regressions) == 1
    assert "z4ml" in regressions[0] and "+50.0%" in regressions[0]


def test_small_absolute_slowdowns_are_noise():
    # +100% relative but only 20ms absolute: under the floor, no flag.
    old = make_snapshot(z4ml=entry(seconds=0.02))
    new = make_snapshot(z4ml=entry(seconds=0.04))
    regressions, _ = compare_snapshots(old, new, threshold=0.25,
                                       min_seconds=0.05)
    assert regressions == []


def test_any_gate_or_literal_increase_flags():
    old = make_snapshot(z4ml=entry(gates=100, literals=200))
    new = make_snapshot(z4ml=entry(gates=101, literals=200))
    regressions, _ = compare_snapshots(old, new)
    assert regressions == ["z4ml: gates 100 -> 101 (+1)"]
    new2 = make_snapshot(z4ml=entry(gates=100, literals=202))
    regressions2, _ = compare_snapshots(old, new2)
    assert regressions2 == ["z4ml: literals 200 -> 202 (+2)"]


def test_request_key_mismatch_is_incomparable_not_a_regression():
    old = make_snapshot(z4ml=entry(key="old-key", gates=100))
    new = make_snapshot(z4ml=entry(key="new-key", gates=999))
    regressions, notes = compare_snapshots(old, new)
    assert regressions == []
    assert any("incomparable" in note for note in notes)


def test_one_sided_entries_become_notes():
    old = make_snapshot(z4ml=entry())
    new = make_snapshot(rd53=entry(key="k2"))
    regressions, notes = compare_snapshots(old, new)
    assert regressions == []
    assert sorted(notes) == ["only in new snapshot: rd53",
                             "only in old snapshot: z4ml"]


def test_improvements_are_notes_not_regressions():
    old = make_snapshot(z4ml=entry(seconds=2.0, gates=100))
    new = make_snapshot(z4ml=entry(seconds=1.0, gates=90))
    regressions, notes = compare_snapshots(old, new)
    assert regressions == []
    assert len([n for n in notes if n.startswith("improved")]) == 2


def test_record_snapshot_runs_the_engine(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_GIT_SHA", "feedbeef0000")
    snapshot = record_snapshot(["z4ml"], label="unit")
    assert snapshot["kind"] == "bench-snapshot"
    assert snapshot["git_sha"] == "feedbeef0000"
    z4ml = snapshot["entries"]["z4ml"]
    assert z4ml["gates"] > 0 and z4ml["verified"] is True
    assert z4ml["verify_method"] == "exhaustive"
    assert "/" in z4ml["request_key"]
    assert snapshot["totals"]["circuits"] == 1
    # And the history projection carries the same numbers.
    records = snapshot_history_records(snapshot)
    assert len(records) == 1
    assert records[0]["kind"] == "bench"
    assert records[0]["gates"] == z4ml["gates"]


def test_committed_snapshot_without_verify_method_still_compares():
    """Snapshots recorded before ``verify_method`` load and diff as before."""
    path = (Path(__file__).resolve().parents[2]
            / "results" / "BENCH_table2_baseline.json")
    baseline = json.loads(path.read_text())
    assert all("verify_method" not in e for e in baseline["entries"].values())
    assert compare_snapshots(baseline, baseline) == ([], [])
    # A newer snapshot that carries the field diffs the same way.
    newer = copy.deepcopy(baseline)
    for entry in newer["entries"].values():
        entry["verify_method"] = "exhaustive"
    assert compare_snapshots(baseline, newer) == ([], [])
    assert compare_snapshots(newer, baseline) == ([], [])


def test_compare_tolerates_empty_snapshots():
    regressions, notes = compare_snapshots({}, make_snapshot(z4ml=entry()))
    assert regressions == []
    assert notes == ["only in new snapshot: z4ml"]
