"""Shared fixtures for the repro test suite, plus the hang watchdog."""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.core.options import SynthesisOptions
from repro.truth.table import TruthTable

_WATCHDOG_SECONDS = pytest.StashKey[float]()

#: How long past the ceiling the watchdog waits before ending the run,
#: so pytest's own faulthandler dump finishes first and stays readable.
_DUMP_GRACE_SECONDS = 1.0


def pytest_configure(config: pytest.Config) -> None:
    """Arm the watchdog when pytest-timeout is not there to do its job.

    The ceiling is pytest's own ``faulthandler_timeout``: that option
    only dumps every thread's stack, so without pytest-timeout a hung
    test would wedge the run forever after the dump.
    """
    seconds = 0.0
    if not (config.pluginmanager.hasplugin("timeout")
            or config.pluginmanager.hasplugin("pytest_timeout")):
        try:
            seconds = float(config.getini("faulthandler_timeout") or 0)
        except ValueError:  # pytest's faulthandler plugin is disabled
            seconds = 0.0
    config.stash[_WATCHDOG_SECONDS] = seconds


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item: pytest.Item, nextitem):
    seconds = item.config.stash.get(_WATCHDOG_SECONDS, 0.0)
    if seconds <= 0:
        yield
        return
    timer = threading.Timer(seconds + _DUMP_GRACE_SECONDS, _expire,
                            args=(item, seconds))
    timer.daemon = True
    timer.start()
    yield
    timer.cancel()


def _expire(item: pytest.Item, seconds: float) -> None:
    """End the run with a failure after the faulthandler stack dump."""
    capman = item.config.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        capman.suspend_global_capture(in_=True)
    sys.stderr.write(f"\nwatchdog: {item.nodeid} ran past {seconds:g} s "
                     "(stacks of every thread above); failing the run\n")
    sys.stderr.flush()
    os._exit(1)


@pytest.fixture
def fast_options() -> SynthesisOptions:
    """Synthesis options tuned for test speed (no verify; callers verify)."""
    return SynthesisOptions(verify=False)


@pytest.fixture
def maj3_table() -> TruthTable:
    """3-input majority — small, non-trivial, XOR-reducible."""
    return TruthTable.from_function(3, lambda m: int(m.bit_count() >= 2))


@pytest.fixture
def parity4_table() -> TruthTable:
    return TruthTable.from_function(4, lambda m: m.bit_count() & 1)
