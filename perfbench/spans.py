"""Spans of the traced run, recorded with the program's own tracer.

A traced repetition activates a :class:`repro.obs.spans.SpanTracer`
around its sweep.  The benchmark opens a span around each layer call it
makes and puts the circuit or request in ``attrs['item']`` of the
outermost one.  Deep layers (``tech-map``, ``equivalence-check``,
``espresso-minimize``) add their own spans to the same tree, and the
engine's ``FlowTrace`` tree of each synthesis is adopted under its
``fprm`` span.  For the baseline, the public functions
:mod:`repro.sislite.scripts` calls are wrapped by module attribute for
the length of the repetition.  The tree is written when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

#: ``repro.sislite.scripts`` attribute -> span name.
SISLITE_WRAPPED = {
    "script_rugged_lite": "sislite.rugged_lite",
    "script_structural": "sislite.structural",
    "isop_cover": "sislite.isop",
    "minimize_cover": "sislite.espresso",
    "fast_extract": "sislite.fast_extract",
    "factor_cover": "sislite.factor",
    "remove_redundant_wires": "sislite.red_removal",
    "equivalent_to_spec": "sislite.verify",
}


def seconds(root, name: str) -> float:
    """Total duration of the spans called ``name`` under ``root``."""
    return sum(node.seconds for node in root.walk() if node.name == name)


def write(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.finish().as_dict(), handle)


@contextmanager
def wrap_sislite(counts: dict[str, int]):
    """Wrap the functions the baseline scripts call, by module attribute.

    Each call opens a span on the ambient tracer; ``counts`` collects
    the fast-extract and redundancy-removal counts.
    """
    from repro.obs.spans import span
    from repro.sislite import scripts

    saved = {attr: getattr(scripts, attr) for attr in SISLITE_WRAPPED}

    def add(name: str, value: int) -> None:
        counts[name] = counts.get(name, 0) + value

    def wrapper(attr: str, inner):
        name = SISLITE_WRAPPED[attr]

        def call(*args, **kwargs):
            # Counts are taken before the call in case the callee
            # rewrites its argument.
            if attr == "fast_extract":
                add("sislite.fast_extract.cubes_in",
                    sum(len(f) for f in args[0]))
            elif attr == "remove_redundant_wires":
                gates_in = args[0].two_input_gate_count()
            with span(name, category="sislite"):
                result = inner(*args, **kwargs)
            if attr == "fast_extract":
                add("sislite.fast_extract.divisors",
                    len(result.functions) - result.num_roots)
            elif attr == "remove_redundant_wires":
                add("sislite.red_removal.gates_removed",
                    gates_in - result.two_input_gate_count())
            return result

        return call

    try:
        for attr, inner in saved.items():
            setattr(scripts, attr, wrapper(attr, inner))
        yield
    finally:
        for attr, inner in saved.items():
            setattr(scripts, attr, inner)
