"""``repro-bench`` — record, compare and chart perf snapshots.

Subcommands::

    repro-bench record [--suite table2|quick|smoke] [--circuits a,b,c]
                       [--label L] [-o OUT.json] [--history FILE]
                       [--no-verify] [--jobs N] [--smoke]
        Run the suite through the engine, write a bench snapshot JSON
        (``results/BENCH_<label>.json`` by default) and append one
        history record per circuit to the run-history JSONL (when a
        history file is configured).

    repro-bench compare OLD.json NEW.json [--threshold 0.25]
                        [--min-seconds 0.05]
        Diff two snapshots.  Exits 1 when any circuit's wall-time
        slowed beyond the threshold (relative AND --min-seconds
        absolute) or any gate/literal count grew; identical snapshots
        always pass.

    repro-bench regressions [--history FILE] [--threshold 0.25]
                            [--min-seconds 0.05] [--kind bench]
        Scan the run-history trajectory: for every request_key, compare
        the newest record against the previous one.  Exits 1 when any
        key regressed.

Exit codes: 0 clean; 1 regression; 2 unreadable input or usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.obs.history.snapshot import (
    compare_snapshots,
    record_snapshot,
    snapshot_history_records,
)
from repro.obs.history.store import RunHistoryStore, resolve_history_path

__all__ = ["main"]

#: The perf-smoke suite: one small circuit per interesting family.
SMOKE_CIRCUITS = ["z4ml", "rd53", "adr4"]


def _load(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(f"repro-bench: cannot read {path}: {err}") from err


def _suite_circuits(args: argparse.Namespace) -> list[str]:
    if args.circuits:
        return [name.strip() for name in args.circuits.split(",")
                if name.strip()]
    if args.suite == "table2":
        from repro.circuits import all_names

        return all_names()
    if args.suite == "quick":
        from repro.harness.table2 import QUICK_CIRCUITS

        return list(QUICK_CIRCUITS)
    return list(SMOKE_CIRCUITS)


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.engine import resolve_options

    circuits = _suite_circuits(args)
    options = resolve_options(
        verify=not args.no_verify,
        jobs=args.jobs,
    )
    snapshot = record_snapshot(
        circuits,
        label=args.label,
        options=options,
        progress=(None if args.quiet
                  else lambda name: print(f"  {name}", file=sys.stderr)),
        include_smoke=args.smoke,
    )
    out = args.output or os.path.join("results", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    history_path = resolve_history_path(args.history)
    if history_path is not None:
        store = RunHistoryStore(history_path)
        for record in snapshot_history_records(snapshot):
            store.append(record)
        print(f"recorded {len(snapshot['entries'])} circuit(s) to {out} "
              f"(+history {history_path})")
    else:
        print(f"recorded {len(snapshot['entries'])} circuit(s) to {out}")
    totals = snapshot["totals"]
    print(f"totals: {totals['seconds']:.2f}s wall, {totals['gates']} gates, "
          f"{totals['literals']} literals over {totals['circuits']} circuits")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    old, new = _load(args.old), _load(args.new)
    regressions, notes = compare_snapshots(
        old, new, threshold=args.threshold, min_seconds=args.min_seconds
    )
    for line in notes:
        print(line)
    if regressions:
        print(f"{len(regressions)} regression(s) "
              f"(threshold {100.0 * args.threshold:.0f}%, "
              f"floor {args.min_seconds}s):")
        for line in regressions:
            print(f"  {line}")
        return 1
    old_totals = old.get("totals", {})
    new_totals = new.get("totals", {})
    print(f"no regression: {old_totals.get('seconds', 0):.2f}s -> "
          f"{new_totals.get('seconds', 0):.2f}s wall, "
          f"{old_totals.get('gates', 0)} -> {new_totals.get('gates', 0)} "
          f"gates")
    return 0


def _cmd_regressions(args: argparse.Namespace) -> int:
    history_path = resolve_history_path(args.history)
    if history_path is None:
        raise SystemExit(
            "repro-bench regressions: pass --history or set "
            "REPRO_HISTORY_FILE"
        )
    store = RunHistoryStore(history_path)
    by_key: dict[str, list[dict]] = {}
    for record in store.records(kind=args.kind or None):
        key = record.get("request_key")
        if key:
            by_key.setdefault(key, []).append(record)

    regressions: list[str] = []
    compared = 0
    for key, records in sorted(by_key.items()):
        if len(records) < 2:
            continue
        prev, last = records[-2], records[-1]
        compared += 1
        name = last.get("circuit") or key[:16]
        for field in ("gates", "literals"):
            b, a = prev.get(field, 0), last.get(field, 0)
            if a > b:
                regressions.append(f"{name}: {field} {b} -> {a}")
        b_secs = float(prev.get("seconds", 0.0))
        a_secs = float(last.get("seconds", 0.0))
        delta = a_secs - b_secs
        if b_secs > 0.0 and delta / b_secs >= args.threshold \
                and delta >= args.min_seconds:
            regressions.append(
                f"{name}: wall {b_secs:.4f}s -> {a_secs:.4f}s "
                f"(+{100.0 * delta / b_secs:.1f}%)"
            )
    if regressions:
        print(f"{len(regressions)} regression(s) across {compared} "
              f"tracked key(s):")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"no regressions across {compared} tracked key(s) "
          f"({len(by_key)} total, {history_path})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Record, compare and chart synthesis perf snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_record = sub.add_parser("record", help="run a suite, write a snapshot")
    p_record.add_argument("--suite", default="quick",
                          choices=("table2", "quick", "smoke"),
                          help="circuit suite (default: quick)")
    p_record.add_argument("--circuits", default=None,
                          help="comma-separated circuit names "
                               "(overrides --suite)")
    p_record.add_argument("--label", default="snapshot",
                          help="snapshot label (default: snapshot)")
    p_record.add_argument("-o", "--output", default=None,
                          help="snapshot file "
                               "(default results/BENCH_<label>.json)")
    p_record.add_argument("--history", default=None, metavar="FILE",
                          help="run-history JSONL to append to "
                               "(default: REPRO_HISTORY_FILE)")
    p_record.add_argument("--no-verify", action="store_true",
                          help="skip equivalence checking per circuit")
    p_record.add_argument("--jobs", type=int, default=None, metavar="N",
                          help="pool processes per circuit")
    p_record.add_argument("--smoke", action="store_true",
                          help="include bench_perf_smoke overhead numbers")
    p_record.add_argument("--quiet", action="store_true",
                          help="no per-circuit progress on stderr")
    p_record.set_defaults(func=_cmd_record)

    p_compare = sub.add_parser("compare",
                               help="diff two snapshots for regressions")
    p_compare.add_argument("old", help="baseline snapshot JSON")
    p_compare.add_argument("new", help="candidate snapshot JSON")
    p_compare.add_argument("--threshold", type=float, default=0.25,
                           help="relative wall-time slowdown that fails "
                                "(default 0.25)")
    p_compare.add_argument("--min-seconds", type=float, default=0.05,
                           help="absolute wall-time floor for a regression "
                                "(default 0.05)")
    p_compare.set_defaults(func=_cmd_compare)

    p_regr = sub.add_parser("regressions",
                            help="scan the run-history trajectory")
    p_regr.add_argument("--history", default=None, metavar="FILE",
                        help="run-history JSONL "
                             "(default: REPRO_HISTORY_FILE)")
    p_regr.add_argument("--threshold", type=float, default=0.25)
    p_regr.add_argument("--min-seconds", type=float, default=0.05)
    p_regr.add_argument("--kind", default="bench",
                        help="record kind to scan ('' = all; "
                             "default bench)")
    p_regr.set_defaults(func=_cmd_regressions)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
