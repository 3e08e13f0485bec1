"""Differential oracles hold on known-good circuits and report crashes."""

from __future__ import annotations

import pytest

from repro.circuits.generators import make_adder, make_parity
from repro.expr.pla import pla_from_spec, write_pla
from repro.fuzz.generators import generate_case
from repro.fuzz.oracles import ORACLES, run_oracle
from repro.network.to_expr import spec_from_pla_text


def _as_fuzz_spec(spec):
    """Route a circuit through the same PLA carrier the fuzzer uses."""
    return spec_from_pla_text(write_pla(pla_from_spec(spec)), name=spec.name)


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_passes_on_parity(oracle):
    assert run_oracle(oracle, _as_fuzz_spec(make_parity(4))) == []


@pytest.mark.parametrize("oracle", sorted(set(ORACLES) - {"serial-vs-parallel"}))
def test_oracle_passes_on_adder_and_random(oracle):
    assert run_oracle(oracle, _as_fuzz_spec(make_adder(2))) == []
    for index in (0, 1, 2):
        case = generate_case(11, index, families=("pla",))
        assert run_oracle(oracle, case.spec()) == []


def test_crash_becomes_finding(monkeypatch):
    def boom(spec):
        raise RuntimeError("injected crash")

    monkeypatch.setitem(ORACLES, "cube-vs-ofdd", boom)
    findings = run_oracle("cube-vs-ofdd", _as_fuzz_spec(make_parity(3)))
    assert len(findings) == 1
    assert "crash" in findings[0].detail
    assert "injected crash" in findings[0].detail


def test_finding_format_mentions_witness():
    from repro.fuzz.oracles import Finding

    finding = Finding(check="x", detail="d", witness=5)
    assert "0x5" in finding.format()

