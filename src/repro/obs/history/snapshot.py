"""Bench snapshots: record a perf/quality picture, diff two of them.

A *snapshot* is one JSON document (``results/BENCH_*.json``) holding,
per circuit, the numbers a perf PR is judged on — wall seconds, strashed
2-input gate count, literal count, and whether and how the result was
verified (``verify_method``, e.g. ``exhaustive`` or ``bdd``; ``None``
with verify off) — keyed by the engine's ``request_key`` so diffs
refuse to compare apples to oranges.  Snapshots recorded before
``verify_method`` existed simply lack it; comparison never reads it.  The
``repro-bench`` CLI records snapshots, appends each entry to the
run-history JSONL, and :func:`compare_snapshots` is the regression gate
CI runs against the committed baseline.

Comparison semantics, tuned for CI sanity:

* identical snapshots never flag (the no-false-positives contract);
* wall-time is noisy, so a slowdown must exceed *both* a relative
  ``threshold`` and an absolute ``min_seconds`` floor to flag;
* gate/literal counts are deterministic for a given request_key, so
  *any* increase flags (size regressions have no noise excuse);
* entries whose ``request_key`` differs between the snapshots are
  incomparable (the circuit or options changed) and become notes.
"""

from __future__ import annotations

import time

from repro.obs.history.store import HISTORY_SCHEMA_VERSION, current_git_sha

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "compare_snapshots",
    "record_snapshot",
    "snapshot_history_records",
]

SNAPSHOT_SCHEMA_VERSION = 1


def record_snapshot(
    circuits: list[str],
    label: str,
    options=None,
    engine=None,
    progress=None,
    include_smoke: bool = False,
) -> dict:
    """Synthesize ``circuits`` through the engine and collect the numbers.

    One shared :class:`~repro.engine.SynthesisEngine` runs every
    circuit (the caller's, or a fresh default one), so the snapshot
    reflects the same code path ``repro-synth`` and ``repro-serve``
    take.  ``include_smoke`` adds the ``bench_perf_smoke`` numbers
    (disabled-span cost, traced vs untraced wall) to the document.
    """
    from repro.circuits import get
    from repro.engine import SynthesisEngine

    owned = engine is None
    if owned:
        engine = SynthesisEngine()
    entries: dict[str, dict] = {}
    try:
        for name in circuits:
            if progress is not None:
                progress(name)
            spec = get(name)
            result = engine.synthesize(spec, options)
            entries[name] = {
                "request_key": engine.request_key(spec, options),
                "seconds": round(result.seconds, 6),
                "gates": result.two_input_gates,
                "literals": result.literals,
                "verified": (
                    bool(result.verify) if result.verify is not None else None
                ),
                "verify_method": (
                    result.verify.method if result.verify is not None else None
                ),
            }
    finally:
        if owned:
            engine.close()

    snapshot = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": "bench-snapshot",
        "label": label,
        "created_unix": time.time(),
        "git_sha": current_git_sha(),
        "entries": entries,
        "totals": {
            "seconds": round(
                sum(e["seconds"] for e in entries.values()), 6),
            "gates": sum(e["gates"] for e in entries.values()),
            "literals": sum(e["literals"] for e in entries.values()),
            "circuits": len(entries),
        },
    }
    if include_smoke:
        snapshot["perf_smoke"] = perf_smoke_numbers()
    return snapshot


def perf_smoke_numbers(circuit: str = "z4ml", rounds: int = 3) -> dict:
    """The ``bench_perf_smoke.py`` headline numbers, as data.

    Best-of-N wall time with tracing off and on, plus the per-call cost
    of a disabled ambient span — the overhead contract the CI perf job
    enforces, recorded here so the trajectory keeps its history.
    """
    import time as _time

    from repro.circuits import get
    from repro.core.options import SynthesisOptions
    from repro.core.synthesis import synthesize_fprm
    from repro.obs.spans import span

    def best_wall(options) -> float:
        spec = get(circuit)
        best = float("inf")
        for _ in range(rounds):
            start = _time.perf_counter()
            synthesize_fprm(spec, options)
            best = min(best, _time.perf_counter() - start)
        return best

    calls = 100_000
    start = _time.perf_counter()
    for _ in range(calls):
        with span("bench-smoke", category="algo") as node:
            if node is not None:
                node.set(x=1)
    disabled_ns = (_time.perf_counter() - start) / calls * 1e9
    return {
        "circuit": circuit,
        "span_disabled_ns_per_call": round(disabled_ns, 1),
        "trace_off_seconds": round(
            best_wall(SynthesisOptions(verify=False, trace=False)), 6),
        "trace_on_seconds": round(
            best_wall(SynthesisOptions(verify=False, trace=True)), 6),
    }


def snapshot_history_records(snapshot: dict) -> list[dict]:
    """One history record per snapshot entry (for the JSONL trajectory)."""
    records = []
    for name, entry in snapshot.get("entries", {}).items():
        records.append({
            "schema": HISTORY_SCHEMA_VERSION,
            "kind": "bench",
            "label": snapshot.get("label", ""),
            "circuit": name,
            "request_key": entry.get("request_key", ""),
            "seconds": entry.get("seconds", 0.0),
            "gates": entry.get("gates", 0),
            "literals": entry.get("literals", 0),
            "git_sha": snapshot.get("git_sha", current_git_sha()),
            "created_unix": snapshot.get("created_unix", time.time()),
        })
    return records


def compare_snapshots(
    old: dict,
    new: dict,
    threshold: float = 0.25,
    min_seconds: float = 0.05,
) -> tuple[list[str], list[str]]:
    """Diff two snapshots; returns ``(regressions, notes)``.

    A wall-time regression needs ``threshold`` relative *and*
    ``min_seconds`` absolute slowdown; any gate or literal increase on a
    matching ``request_key`` is a regression outright.  Improvements and
    one-sided/incomparable entries come back as notes.
    """
    regressions: list[str] = []
    notes: list[str] = []
    old_entries = old.get("entries", {})
    new_entries = new.get("entries", {})

    for name in sorted(set(old_entries) | set(new_entries)):
        before, after = old_entries.get(name), new_entries.get(name)
        if before is None:
            notes.append(f"only in new snapshot: {name}")
            continue
        if after is None:
            notes.append(f"only in old snapshot: {name}")
            continue
        if before.get("request_key") != after.get("request_key"):
            notes.append(
                f"incomparable (request_key changed): {name}"
            )
            continue
        for field in ("gates", "literals"):
            b, a = before.get(field, 0), after.get(field, 0)
            if a > b:
                regressions.append(
                    f"{name}: {field} {b} -> {a} (+{a - b})"
                )
            elif a < b:
                notes.append(
                    f"improved: {name}: {field} {b} -> {a} ({a - b})"
                )
        b_secs = float(before.get("seconds", 0.0))
        a_secs = float(after.get("seconds", 0.0))
        delta = a_secs - b_secs
        if b_secs > 0.0 and delta / b_secs >= threshold \
                and delta >= min_seconds:
            regressions.append(
                f"{name}: wall {b_secs:.4f}s -> {a_secs:.4f}s "
                f"(+{100.0 * delta / b_secs:.1f}%)"
            )
        elif b_secs > 0.0 and -delta / b_secs >= threshold \
                and -delta >= min_seconds:
            notes.append(
                f"improved: {name}: wall {b_secs:.4f}s -> {a_secs:.4f}s "
                f"({100.0 * delta / b_secs:.1f}%)"
            )
    return regressions, notes
