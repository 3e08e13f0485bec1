"""The repository benchmark: Table 2, generated arithmetic and a serve mix.

    python3 perfbench/run.py --workload {table2,arith-gen,serve-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The program is imported from the
checkout's ``src``; nothing is installed.  Each repetition is a fresh
interpreter (``perfbench/worker.py``) in its own process group, killed if
it passes its wall-clock ceiling.  Whole repetitions run until the next
one would pass ``--seconds`` (at least one always runs, so a Table 2
sweep that is longer than the window still completes).

``--trace 0`` prints the end-to-end metrics: medians over repetitions,
latency percentiles over every item of every repetition.  ``--trace 1``
runs one untraced and one traced repetition and prints the per-layer
metrics of the traced one, plus the tracing overhead; its spans are
written to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every output check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
TMPDIR = os.path.join(WORKDIR, "tmp")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from layers import VERIFY_METHODS, median, percentile  # noqa: E402

WORKLOADS = ("table2", "arith-gen", "serve-mix")
#: Workload figures printed beside the end-to-end metrics.  They are not
#: defined on every workload, are 0 on a good run (``fail_ratio``) or too
#: noisy to gate (per-item latency percentiles over 41 unlike circuits),
#: so the JSON line carries them only in the traced run, as per-layer
#: metrics.
TABLE2_EXTRAS = (
    "baseline_s", "baseline_mapped_lits", "baseline_power_uw",
    "improve_lits_arith_pct", "improve_lits_all_pct",
)
#: Wall-clock ceiling of one repetition; a run as a whole must end within
#: 180 s, so it also stops starting repetitions after RUN_CEILING_S.
REP_CEILING_S = {"table2": 150.0, "arith-gen": 90.0, "serve-mix": 120.0}
RUN_CEILING_S = 170.0
SETUP_SAMPLES = 5
TABLE2_CIRCUITS = 41


class Run:
    """One benchmark run: repetitions, failures and set-up samples."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []

    def remaining(self) -> float:
        return RUN_CEILING_S - (time.monotonic() - self.started)

    def spawn(self, mode: str, trace: bool = False) -> dict | None:
        """Run one worker; None if it failed or was killed at its ceiling."""
        tag = f"{mode}-{self.seed}-{os.getpid()}"
        result_path = os.path.join(WORKDIR, f"result-{tag}.json")
        log_path = os.path.join(WORKDIR, f"worker-{tag}.log")
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--mode", mode, "--seed", str(self.seed),
                "--result", result_path, "--workdir", WORKDIR]
        if trace:
            argv += ["--spans", os.path.join(
                WORKDIR, f"spans-{self.workload}-{self.seed}.json")]
        ceiling = min(REP_CEILING_S[self.workload], self.remaining())
        # No REPRO_* settings, and no proxy: serve-mix talks to a daemon
        # on loopback, which urllib would otherwise send to the proxy.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")
               and not k.lower().endswith("_proxy")}
        env["PYTHONPATH"] = SRC
        # Temporary files of the program (and of multiprocessing) stay in
        # the checkout too.
        env["TMPDIR"] = TMPDIR
        with open(log_path, "w", encoding="utf-8") as log:
            spawn_ts = time.monotonic()
            proc = subprocess.Popen(
                argv + ["--spawn-ts", repr(spawn_ts)], cwd=ROOT, env=env,
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, ceiling))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The whole group: a serve daemon and pool workers too.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if code is None:
            self.failures.append(
                f"{mode}: killed at its {ceiling:.0f} s wall-clock ceiling")
            return None
        if code != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-2000:]
            self.failures.append(f"{mode}: worker exited {code}: {tail}")
            return None
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(result_path)
        os.remove(log_path)
        if "setup_s" in result:
            self.setup.append(result["setup_s"])
        return result

    def repetition(self, trace: bool = False) -> dict | None:
        result = self.spawn(self.workload, trace)
        expected = {"table2": TABLE2_CIRCUITS,
                    "arith-gen": len(inputs.arith_instances(self.seed)),
                    "serve-mix": inputs.SERVE_REQUESTS}[self.workload]
        if result is None:
            self.attempted += expected
            self.failed += expected
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]
        return result

    def setup_samples(self) -> None:
        """Fresh set-ups until there are SETUP_SAMPLES of them."""
        while len(self.setup) < SETUP_SAMPLES and self.remaining() > 20:
            if self.spawn(f"setup-{self.workload}") is None:
                break


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def committed_totals() -> dict[str, float]:
    """Summary rows of the committed ``results/table2.txt``."""
    rows = {}
    with open(os.path.join(ROOT, "results", "table2.txt"),
              encoding="utf-8") as handle:
        for line in handle:
            for label in ("Total arith.", "Total all"):
                if line.startswith(label):
                    rows[label] = line[len(label):].split()
    arith, every = rows["Total arith."], rows["Total all"]
    return {
        "baseline_mapped_gates": int(every[4]),
        "baseline_mapped_lits": int(every[5]),
        "fprm_mapped_gates": int(every[6]),
        "fprm_mapped_lits": int(every[7]),
        "improve_lits_arith_pct": float(arith[8]),
        "improve_lits_all_pct": float(every[8]),
    }


def check_determinism(run: Run, reps: list[dict]) -> None:
    """Every repetition of one seed must produce the same outputs."""
    first = reps[0]
    for other in reps[1:]:
        for item, digest in first["fingerprint"].items():
            if other["fingerprint"].get(item) != digest:
                run.failed += 1
                run.failures.append(f"{item}: output differs between "
                                    "repetitions of one seed")
        for key in ("fprm_mapped_lits", "fprm_power_uw",
                    "baseline_mapped_lits", "baseline_power_uw"):
            if first["totals"].get(key) != other["totals"].get(key):
                run.failed += 1
                run.failures.append(f"{key} differs between repetitions")
    if run.workload != "table2":
        return
    try:
        committed = committed_totals()
    except (OSError, KeyError, IndexError, ValueError) as exc:
        run.failed += 1
        run.failures.append(f"cannot read results/table2.txt totals: {exc}")
        return
    for rep in reps:
        for key, want in committed.items():
            got = rep["totals"][key]
            if isinstance(want, float):
                got = round(got, 1)
            if got != want:
                run.failed += 1
                run.failures.append(f"{key} = {got}, results/table2.txt "
                                    f"has {want}")


def build() -> None:
    """Byte-compile the program, so no repetition pays for it."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)


def end_to_end(names: dict[str, str], run: Run,
               reps: list[dict]) -> dict[str, float]:
    values = {"setup_s": median(run.setup)}
    for name in names:
        if name != "setup_s":
            values[name] = median([rep["totals"][name] for rep in reps])
    return values


def workload_extras(run: Run, reps: list[dict]) -> dict[str, float]:
    """Figures printed beside the end-to-end block."""
    latencies = [ms for rep in reps for ms in rep["latencies_ms"]]
    extras = {name: median([rep["totals"].get(name, 0.0) for rep in reps])
              for name in TABLE2_EXTRAS + ("warm_p50_ms",)}
    extras["latency_p50_ms"] = percentile(latencies, 50)
    extras["latency_p90_ms"] = percentile(latencies, 90)
    extras["fail_ratio"] = run.failed / run.attempted if run.attempted else 1.0
    return extras


def traced_layers(workload: str, run: Run,
                  reps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced repetition (the second one)."""
    plain, traced = reps
    layers = dict(traced.get("layers", {}))
    layers.update(workload_extras(run, [traced]))
    totals = traced["totals"]
    if workload != "serve-mix":
        layers["trace.layer_coverage"] = totals["layer_s"] / totals["sweep_s"]
    layers["trace.overhead_ratio"] = (totals["sweep_s"]
                                      / plain["totals"]["sweep_s"])
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    declared, per_layer = declared_metrics()
    os.makedirs(TMPDIR, exist_ok=True)
    build()

    run = Run(args.workload, args.seed)
    reps: list[dict] = []
    if args.trace:
        plain = run.repetition()
        traced = run.repetition(trace=True) if plain is not None else None
        reps = [rep for rep in (plain, traced) if rep is not None]
    else:
        while run.remaining() > 0:
            begun = time.monotonic()
            rep = run.repetition()
            if rep is None:
                break
            reps.append(rep)
            spent = time.monotonic() - run.started
            if spent + (time.monotonic() - begun) > args.seconds:
                break
        run.setup_samples()
    if reps:
        check_determinism(run, reps)
    else:
        run.failures.append("no repetition completed")
    values: dict[str, float] = {}
    if reps and not args.trace:
        missing = sorted(set(declared) - {"setup_s"} - set(reps[0]["totals"]))
        if missing:
            run.failures.append(f"end-to-end metrics not computed: {missing}")
        else:
            values = end_to_end(declared, run, reps)
    elif len(reps) == 2:
        values = traced_layers(args.workload, run, reps)
        # A layer the workload never reaches reads 0.
        undeclared = sorted(set(values) - set(per_layer))
        if undeclared:
            run.failures.append("per-layer metrics missing from "
                                f"BENCHMARK.json: {undeclared}")
        values = {name: values.get(name, 0.0) for name in per_layer}
    correct = bool(reps) and run.failed == 0 and not run.failures \
        and (not args.trace or len(reps) == 2)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"repetitions={len(reps)} trace={args.trace}")
    for failure in run.failures:
        print(f"  FAIL {failure}")
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    units = per_layer if args.trace else declared
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    if reps and not args.trace:
        samples = sum(len(rep["latencies_ms"]) for rep in reps)
        extras = workload_extras(run, reps)
        shown = {"table2": list(TABLE2_EXTRAS),
                 "serve-mix": ["warm_p50_ms"]}.get(args.workload, [])
        for name in shown + ["latency_p50_ms", "latency_p90_ms",
                             "fail_ratio"]:
            print(f"  ({name:<24} {extras[name]:.6g} {per_layer[name]})")
        checks = [entry for value in reps[0]["fingerprint"].values()
                  for entry in value if entry in VERIFY_METHODS]
        print("  output checks by method: " + ", ".join(
            f"{method} {checks.count(method)}" for method in VERIFY_METHODS))
        print(f"  latency samples: {samples}; set-up samples: "
              f"{len(run.setup)}")
    elif len(reps) == 2:
        for circuit, seconds in sorted(reps[1].get("losing_s", {}).items()):
            if seconds > 0.05:
                print(f"  (losing script {circuit:<10} {seconds:.3f} s)")
        print(f"  spans: .perfbench/spans-{args.workload}-{args.seed}.json")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
