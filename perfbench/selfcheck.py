"""Determinism self-check of the benchmark's counts.

    python3 perfbench/selfcheck.py

For each workload, runs two traced repetitions with seed SEED and checks
that every count repeats exactly: mapped literals and power, BLIF
digests, verify-method counts, pass ``gates_after``, ``ofdd.apply_calls``
and ``sislite.fast_extract.divisors``.  On ``table2`` a third repetition
with OTHER_SEED must give the same counts too, because the seed only
shuffles the circuit order; every ``table2`` repetition is also held to
the committed totals of ``results/table2.txt`` (as in every run).

On ``serve-mix`` only the replies are compared (BLIF digests, mapped
literals and power): which request of a circuit runs cold, and so how
much flow work a run does, depends on thread timing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402

SEED = 1
OTHER_SEED = 2
TOTALS = ("fprm_mapped_lits", "fprm_power_uw", "baseline_mapped_lits",
          "baseline_power_uw")
LAYER_COUNTS = (
    "network.verify.exhaustive", "network.verify.bdd",
    "network.verify.random-simulation", "flow.outputs", "flow.fprm_cubes",
    "flow.redundancy-removal.gates_after",
    "flow.inverter-cleanup.gates_after", "ofdd.apply_calls", "ofdd.nodes",
    "sislite.fast_extract.cubes_in", "sislite.fast_extract.divisors",
    "sislite.red_removal.gates_removed", "mapping.cells",
)


def counts(workload: str, rep: dict) -> dict:
    found = {key: rep["totals"].get(key) for key in TOTALS}
    # Item names carry no seed, so digests compare across seeds too.
    found.update({f"blif:{item}": digest
                  for item, digest in rep["fingerprint"].items()})
    if workload != "serve-mix":
        found.update({key: rep["layers"][key] for key in LAYER_COUNTS})
    return found


def compare(label: str, want: dict, got: dict) -> list[str]:
    return [f"{label}: {key} {want.get(key)!r} != {got.get(key)!r}"
            for key in sorted(set(want) | set(got))
            if want.get(key) != got.get(key)]


def main() -> int:
    if not os.path.isfile(os.path.join(bench.SRC, "repro", "__init__.py")):
        print(f"selfcheck: no program source at {bench.SRC}", file=sys.stderr)
        return 2
    os.makedirs(bench.TMPDIR, exist_ok=True)
    bench.build()
    problems: list[str] = []
    for workload in bench.WORKLOADS:
        runs = [(SEED, "same seed"), (SEED, "same seed")]
        if workload == "table2":
            runs.append((OTHER_SEED, "other seed"))
        reference = None
        for seed, label in runs:
            # Each repetition gets a run of its own, so the wall-clock
            # ceiling applies per repetition.
            run = bench.Run(workload, seed)
            rep = run.repetition(trace=True)
            if rep is not None:
                bench.check_determinism(run, [rep])
            problems += [f"{workload}: {f}" for f in run.failures]
            if rep is None:
                break
            found = counts(workload, rep)
            if reference is None:
                reference = found
            else:
                problems += compare(f"{workload} ({label})", reference, found)
        print(f"selfcheck {workload}: {len(runs)} repetitions, "
              f"{len(reference or {})} counts compared", flush=True)
    for problem in problems:
        print(f"  FAIL {problem}")
    print("selfcheck: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
