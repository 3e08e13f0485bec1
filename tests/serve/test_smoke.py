"""The end-to-end service smoke driver (what CI's service-smoke runs).

Running it under pytest keeps the whole contract — real daemon
processes, double-submit dedup, /metrics, SIGTERM drain, restart-warm
disk cache — inside tier-1, not just in a separate CI lane.
"""

import pytest

from repro.serve import cli, smoke


def test_smoke_driver_end_to_end(tmp_path):
    assert smoke.main(["--keep-cache", str(tmp_path / "cache")]) == 0


def test_smoke_check_raises():
    with pytest.raises(smoke.SmokeFailure, match="boom"):
        smoke._check(False, "boom")
    smoke._check(True, "fine")


def test_smoke_metric_parser():
    text = "# HELP x\nserve_jobs_submitted 2\ncache_disk_hits 3.0\n"
    assert smoke._metric(text, "serve_jobs_submitted") == 2.0
    assert smoke._metric(text, "cache_disk_hits") == 3.0
    assert smoke._metric(text, "absent") == 0.0


def test_serve_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--cache-dir" in out and "--workers" in out


@pytest.mark.parametrize("argv, message", [
    (["--max-queue-depth", "0"], "--max-queue-depth must be positive"),
    (["--max-queue-depth", "-3"], "--max-queue-depth must be positive"),
    (["--min-free-mb", "-5"], "--min-free-mb must not be negative"),
], ids=["depth-zero", "depth-negative", "free-mb-negative"])
def test_serve_cli_rejects_bad_limits(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
