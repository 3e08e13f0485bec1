"""Per-layer metrics, aggregated from the program's own records.

Names and units are declared in ``BENCHMARK.json``; ``run.py`` checks
every name computed here against it.

The ``flow`` and ``ofdd`` numbers come from the :class:`FlowTrace` the
engine returns (or ``GET /jobs/<id>/trace`` serves); the benchmark reads
them and adds nothing to the program.
"""

from __future__ import annotations

import statistics

FLOW_PASSES = (
    "derive-fprm", "factor-cube", "factor-ofdd", "factor-xorfx",
    "redundancy-removal", "inverter-cleanup", "resub-merge", "verify",
)
FACTOR_CANDIDATES = ("cube", "ofdd", "xor-fx")
SISLITE_SECONDS = (
    "rugged_lite", "structural", "isop", "espresso", "fast_extract",
    "factor", "red_removal", "verify",
)
VERIFY_METHODS = ("exhaustive", "bdd", "random-simulation")


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), linear between order statistics."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class FlowTotals:
    """Sums over every :class:`FlowTrace` of a repetition."""

    def __init__(self) -> None:
        self.pass_seconds = {name: 0.0 for name in FLOW_PASSES}
        self.output_seconds = 0.0  # per-output pass time (pool work)
        self.outputs = 0
        self.fprm_cubes = 0
        self.rr_gates_before = 0
        self.rr_gates_after = 0
        self.rr_rule_fires = 0
        self.ic_gates_after = 0
        self.winners = {name: 0 for name in FACTOR_CANDIDATES}
        self.ofdd = {"apply_calls": 0, "hits": 0, "misses": 0, "nodes": 0}
        self.jobs_wall = 0.0  # jobs x synthesize wall, summed
        self.verify = {name: 0 for name in VERIFY_METHODS}

    def add(self, trace, wall: float) -> None:
        self.jobs_wall += max(1, trace.jobs) * wall
        for record in trace.records:
            name = record.pass_name
            if name in self.pass_seconds:
                self.pass_seconds[name] += record.seconds
            if record.output is not None:
                self.output_seconds += record.seconds
            details = record.details or {}
            if name == "derive-fprm":
                self.fprm_cubes += int(details.get("num_fprm_cubes") or 0)
            elif name == "redundancy-removal":
                self.rr_gates_before += record.gates_before or 0
                self.rr_gates_after += record.gates_after or 0
                self.rr_rule_fires += int(details.get("rule_fires") or 0)
            elif name == "verify" and details.get("method") in self.verify:
                self.verify[details["method"]] += 1
            elif name == "inverter-cleanup":
                self.outputs += 1
                self.ic_gates_after += record.gates_after or 0
                winner = str(details.get("method", "")).split("+")[0]
                if winner in self.winners:
                    self.winners[winner] += 1
        metrics = trace.metrics or {}
        self.ofdd["apply_calls"] += int(metrics.get("ofdd.apply.calls", 0))
        self.ofdd["hits"] += int(metrics.get("ofdd.computed.hits", 0))
        self.ofdd["misses"] += int(metrics.get("ofdd.computed.misses", 0))
        self.ofdd["nodes"] += int(metrics.get("ofdd.nodes", 0))

    def metrics(self) -> dict[str, float]:
        out = {f"flow.{name}.s": secs
               for name, secs in self.pass_seconds.items()}
        out.update({
            "flow.outputs": self.outputs,
            "flow.fprm_cubes": self.fprm_cubes,
            "flow.redundancy-removal.gates_before": self.rr_gates_before,
            "flow.redundancy-removal.gates_after": self.rr_gates_after,
            "flow.redundancy-removal.rule_fires": self.rr_rule_fires,
            "flow.inverter-cleanup.gates_after": self.ic_gates_after,
        })
        for name, won in self.winners.items():
            out[f"flow.winner.{name}"] = won / self.outputs if self.outputs else 0.0
        out["flow.parallel.efficiency"] = (
            self.output_seconds / self.jobs_wall if self.jobs_wall else 0.0)
        lookups = self.ofdd["hits"] + self.ofdd["misses"]
        out["ofdd.apply_calls"] = self.ofdd["apply_calls"]
        out["ofdd.computed_hit_rate"] = (
            self.ofdd["hits"] / lookups if lookups else 0.0)
        out["ofdd.nodes"] = self.ofdd["nodes"]
        for name, count in self.verify.items():
            out[f"network.verify.{name}"] = count
        return out
