"""Seeded inputs of the three workloads.

Everything here is a pure function of the seed, so the same seed gives
the same inputs on every machine.  Only names and parameters are drawn;
the worker builds the specifications from them.
"""

from __future__ import annotations

import random

#: Circuits of the ``serve-mix`` workload: multi-output arithmetic plus
#: control logic.  All of them export to PLA text and synthesize cold in
#: well under a second, so the mix is dominated by repeats, as intended.
SERVE_CIRCUITS = (
    "z4ml", "adr4", "radd", "rd53", "rd73", "rd84", "mlp4", "sqr6",
    "squar5", "5xp1", "f51m", "cm82a", "m181", "pm1", "tcon", "pcle",
)
SERVE_REQUESTS = 200
SERVE_CLIENTS = 2
#: Zipf exponent of the request draw.  It and the popularity order of
#: SERVE_CIRCUITS are assumptions: no observed traffic stands behind
#: them.  The exponent decides which circuits run warm; the repeat share
#: does not depend on it, since every circuit is inserted once:
#: 1 - 16/200 = 0.92.
SERVE_ZIPF_S = 1.1

#: ``arith-gen`` instances: (generator family, width).  The set is fixed
#: so that every seed costs the same work; the seed draws their order.
ARITH_FAMILIES = (
    ("adder", (6, 7, 8, 9)),
    ("multiplier", (4, 5)),
    ("comparator", (6, 7, 8)),
    ("weight", (8, 9, 10)),
    ("parity", (10, 11, 12, 13, 14, 15, 16)),
)
ARITH_JOBS = 2


def table2_order(names: list[str], seed: int) -> list[str]:
    """All Table 2 circuits in a seed-shuffled order."""
    order = sorted(names)
    random.Random(f"table2:{seed}").shuffle(order)
    return order


def arith_instances(seed: int) -> list[tuple[str, int]]:
    """The ``arith-gen`` instances in a seed-shuffled order."""
    instances = [(family, width)
                 for family, widths in ARITH_FAMILIES for width in widths]
    random.Random(f"arith-gen:{seed}").shuffle(instances)
    return instances


def serve_requests(seed: int) -> list[str]:
    """A Zipf draw of circuit names; every circuit appears at least once.

    Popularity follows the order of :data:`SERVE_CIRCUITS` for every
    seed: which circuit is hot sets the warm latency, so permuting it
    would make runs with different seeds measure different mixes.
    Forcing each circuit in once keeps the cold work of a run the same.
    """
    rng = random.Random(f"serve-mix:{seed}")
    ranked = list(SERVE_CIRCUITS)
    weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(ranked))]
    draw = rng.choices(ranked, weights=weights,
                       k=SERVE_REQUESTS - len(ranked))
    for name in ranked:
        draw.insert(rng.randrange(len(draw) + 1), name)
    return draw


def repeat_share(requests: list[str]) -> float:
    """Share of requests whose circuit was already requested before."""
    return 1.0 - len(set(requests)) / len(requests) if requests else 0.0
