"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --mode MODE --seed N --spawn-ts T
        --result FILE --workdir DIR [--spans FILE]

``MODE`` is a workload (``table2``, ``arith-gen``, ``serve-mix``) or
``setup-<workload>``, which only sets up and reports ``setup_s``.

``run.py`` starts one of these per repetition, so process-wide caches
start cold as they do for a ``repro-table2`` or ``repro-synth`` call.
``--spawn-ts`` is the ``time.monotonic()`` reading taken just before the
spawn; set-up time runs from there to the end of spec and library
construction.  The result is written as JSON to ``--result``.  With
``--spans`` the repetition is traced, and its span tree is written there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from typing import TYPE_CHECKING

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402
from layers import SISLITE_SECONDS, FlowTotals  # noqa: E402
from spans import wrap_sislite  # noqa: E402

if TYPE_CHECKING:
    from repro.obs.spans import SpanTracer


def _import_repro():
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blif_digest(network) -> str:
    from repro.network.blif import write_blif

    return hashlib.sha256(write_blif(network).encode()).hexdigest()[:16]


# -- table2 / arith-gen -------------------------------------------------


def build_specs(mode: str, seed: int) -> list[tuple[str, object]]:
    if mode == "table2":
        from repro.circuits import all_names, get

        return [(name, get(name))
                for name in inputs.table2_order(all_names(), seed)]
    from repro.circuits import generators

    makers = {
        "adder": generators.make_adder,
        "multiplier": generators.make_multiplier,
        "comparator": generators.make_comparator,
        "weight": generators.make_weight,
        "parity": generators.make_parity,
    }
    return [(f"{family}{width}", makers[family](width))
            for family, width in inputs.arith_instances(seed)]


def run_sweep(mode: str, seed: int, spawn_ts: float,
              tracer: SpanTracer | None) -> dict:
    from repro.engine import SynthesisEngine
    from repro.mapping import map_network, mcnc_lite_library
    from repro.network.verify import equivalent_to_spec
    from repro.obs.spans import span
    from repro.power.mapped import estimate_mapped_power

    specs = build_specs(mode, seed)
    library = mcnc_lite_library()
    engine = SynthesisEngine()
    setup_s = time.monotonic() - spawn_ts

    with_baseline = mode == "table2"
    overrides = {} if with_baseline else {"jobs": inputs.ARITH_JOBS}
    flow = FlowTotals()
    counts: dict[str, int] = {}
    items: list[dict] = []
    failures: list[str] = []
    outputs: dict[str, tuple] = {}
    # ``main`` activates the tracer of a traced repetition; with none
    # active, ``span`` is the program's shared no-op.
    sislite = wrap_sislite(counts) if tracer is not None and \
        with_baseline else nullcontext()
    clock = time.perf_counter
    sweep_start = clock()
    with sislite:
        for name, spec in specs:
            item: dict = {"item": name, "arith": spec.is_arithmetic}
            start = clock()
            try:
                with span("item", category="bench", item=name):
                    with span("fprm", category="bench") as fprm_node:
                        ours = engine.synthesize(spec, **overrides)
                    t1 = clock()
                    with span("mapping.map_network", category="bench"):
                        ours_mapped = map_network(ours.network, library)
                    t2 = clock()
                    with span("power.estimate_mapped_power",
                              category="bench"):
                        ours_power = estimate_mapped_power(ours_mapped)
                    t3 = clock()
                    item.update(fprm_s=t1 - start, map_s=t2 - t1,
                                power_s=t3 - t2)
                    base = None
                    if with_baseline:
                        with span("baseline", category="bench"):
                            base, script = engine.baseline(spec)
                        t4 = clock()
                        with span("mapping.map_network", category="bench"):
                            base_mapped = map_network(base.network, library)
                        t5 = clock()
                        with span("power.estimate_mapped_power",
                                  category="bench"):
                            base_power = estimate_mapped_power(base_mapped)
                        t6 = clock()
                        item.update(baseline_s=t4 - t3,
                                    map_s=item["map_s"] + t5 - t4,
                                    power_s=item["power_s"] + t6 - t5)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            item["latency_s"] = clock() - start
            item.update(
                fprm_lits=ours_mapped.literal_count,
                fprm_power_uw=ours_power.microwatts,
                fprm_gates=ours_mapped.gate_count,
            )
            if base is not None:
                item.update(
                    base_lits=base_mapped.literal_count,
                    base_power_uw=base_power.microwatts,
                    base_gates=base_mapped.gate_count,
                    base_reported_s=base.seconds,
                    script=script,
                    base_verify=base.verify.method if base.verify else None,
                )
            if tracer is not None and ours.trace is not None:
                flow.add(ours.trace, item["fprm_s"])
                if ours.trace.root is not None:
                    # The engine's own span tree, under the span around it.
                    tracer.adopt(ours.trace.root, at=fprm_node.start,
                                 parent=fprm_node)
            outputs[name] = (spec, ours.network,
                             base.network if base is not None else None)
            items.append(item)
    sweep_s = clock() - sweep_start
    rss = peak_rss_mb()

    # Output checks, outside the timed sweep.
    for item in items:
        spec, ours_net, base_net = outputs[item["item"]]
        item["blif"] = []
        item["check"] = []
        for label, net in (("fprm", ours_net), ("baseline", base_net)):
            if net is None:
                continue
            with span("check", category="bench", item=item["item"],
                      flow=label):
                verdict = equivalent_to_spec(net, spec)
            item["check"].append(verdict.method)
            item["blif"].append(blif_digest(net))
            if not verdict:
                failures.append(f"{item['item']}: {label} network differs "
                                f"from spec ({verdict.detail})")
                item["failed"] = True

    done = [item for item in items if not item.get("failed")]
    totals = {
        "sweep_s": sweep_s,
        "fprm_s": sum(item["fprm_s"] for item in items),
        "fprm_mapped_lits": sum(item["fprm_lits"] for item in items),
        "fprm_power_uw": sum(item["fprm_power_uw"] for item in items),
        "req_per_s": len(done) / sweep_s,
        "peak_rss_mb": rss,
        "layer_s": sum(item["fprm_s"] + item.get("baseline_s", 0.0)
                       + item["map_s"] + item["power_s"] for item in items),
    }
    if with_baseline:
        improve = {item["item"]: 100.0 * (item["base_lits"] - item["fprm_lits"])
                   / item["base_lits"] if item["base_lits"] else 0.0
                   for item in items}
        arith = [improve[item["item"]] for item in items if item["arith"]]
        totals.update(
            baseline_s=sum(item["baseline_s"] for item in items),
            baseline_mapped_lits=sum(item["base_lits"] for item in items),
            baseline_power_uw=sum(item["base_power_uw"] for item in items),
            fprm_mapped_gates=sum(item["fprm_gates"] for item in items),
            baseline_mapped_gates=sum(item["base_gates"] for item in items),
            improve_lits_arith_pct=sum(arith) / len(arith) if arith else 0.0,
            improve_lits_all_pct=(sum(improve.values()) / len(improve)
                                  if improve else 0.0),
        )
    result = {
        "setup_s": setup_s, "totals": totals,
        "latencies_ms": [item["latency_s"] * 1e3 for item in done],
        "failures": failures, "attempted": len(specs),
        "failed": len(specs) - len(done),
        "fingerprint": {item["item"]: item["blif"] + item["check"]
                        for item in items},
    }
    if tracer is not None:
        result["layers"] = sweep_layers(tracer.root, counts, flow, items)
        result["losing_s"] = {item["item"]: item["losing_s"]
                              for item in items if "losing_s" in item}
    return result


def sweep_layers(root, counts: dict[str, int], flow: FlowTotals,
                 items: list[dict]) -> dict:
    layers = flow.metrics()
    for name in SISLITE_SECONDS:
        layers[f"sislite.{name}.s"] = spans.seconds(root, f"sislite.{name}")
    for name in ("sislite.fast_extract.cubes_in",
                 "sislite.fast_extract.divisors",
                 "sislite.red_removal.gates_removed"):
        layers[name] = counts.get(name, 0)
    # Losing-script seconds: what Table 2's time column leaves out.
    by_item = {item["item"]: item for item in items}
    all_scripts = winner = 0.0
    for node in root.children:
        item = by_item.get(node.attrs.get("item"))
        if node.name != "item" or item is None or "script" not in item:
            continue
        script_s = {script: spans.seconds(node, f"sislite.{script}")
                    for script in ("rugged_lite", "structural")}
        won = script_s.get(item["script"], 0.0)
        item["losing_s"] = sum(script_s.values()) - won
        all_scripts += sum(script_s.values())
        winner += won
    layers["sislite.winner_share"] = winner / all_scripts if all_scripts else 0.0
    layers["sislite.reported_s"] = sum(
        item.get("base_reported_s", 0.0) for item in items)
    layers["sislite.losing_s"] = sum(
        item.get("losing_s", 0.0) for item in items)
    # The FPRM verify methods come from the flow's verify pass records.
    for item in items:
        key = f"network.verify.{item.get('base_verify')}"
        if key in layers:
            layers[key] += 1
    layers["mapping.map_network.s"] = spans.seconds(root, "mapping.map_network")
    layers["mapping.cells"] = sum(item["fprm_gates"] + item.get("base_gates", 0)
                                  for item in items)
    layers["power.estimate_mapped_power.s"] = spans.seconds(
        root, "power.estimate_mapped_power")
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ts", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if args.mode.startswith("setup-"):
        workload = args.mode.removeprefix("setup-")
        if workload == "serve-mix":
            import serve_load

            _import_repro()
            result = {"setup_s": serve_load.setup_only(args.workdir)}
        else:
            _import_repro()
            from repro.engine import SynthesisEngine
            from repro.mapping import mcnc_lite_library

            build_specs(workload, args.seed)
            mcnc_lite_library()
            SynthesisEngine()
            result = {"setup_s": time.monotonic() - args.spawn_ts}
    else:
        _import_repro()
        from repro.obs.spans import SpanTracer

        tracer = (SpanTracer(root_name=f"perfbench:{args.mode}",
                             category="bench") if args.spans else None)
        with tracer.activate() if tracer is not None else nullcontext():
            if args.mode == "serve-mix":
                import serve_load

                result = serve_load.run(args.seed, args.workdir, tracer)
            else:
                result = run_sweep(args.mode, args.seed, args.spawn_ts,
                                   tracer)
        if tracer is not None:
            spans.write(tracer, args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
