"""One daemon per ``--state-dir``: the ``daemon.lock`` flock."""

import asyncio
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import StateDirBusyError
from repro.serve import cli
from repro.serve.server import ReproServer


def stop(server: ReproServer) -> None:
    asyncio.run(server.stop())


def test_second_server_on_held_state_dir_is_refused(tmp_path):
    state_dir = str(tmp_path / "state")
    first = ReproServer(port=0, state_dir=state_dir)
    try:
        with pytest.raises(StateDirBusyError,
                           match=f"pid {os.getpid()}") as excinfo:
            ReproServer(port=0, state_dir=state_dir)
        assert excinfo.value.state_dir == state_dir
    finally:
        stop(first)


def test_state_dir_is_reusable_after_stop(tmp_path):
    state_dir = str(tmp_path / "state")
    stop(ReproServer(port=0, state_dir=state_dir))
    stop(ReproServer(port=0, state_dir=state_dir))


def test_cli_exits_1_on_held_state_dir(tmp_path, capsys):
    state_dir = str(tmp_path / "state")
    holder = ReproServer(port=0, state_dir=state_dir)
    try:
        code = cli.main(["--port", "0", "--state-dir", state_dir])
    finally:
        stop(holder)
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "held by another repro-serve daemon" in err
    assert "listening" not in err


def test_pool_workers_do_not_keep_the_lock(tmp_path):
    """A forked pool worker shares the lock's open file description; it
    closes its copy, so a daemon that dies with its pool still running
    does not lock its successor out."""
    state_dir = str(tmp_path / "state")
    dead = ReproServer(port=0, state_dir=state_dir)
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            worker_pids = set(pool.map(_getpid, range(4)))
            assert os.getpid() not in worker_pids
            # The daemon "dies" (its own fd closes) while the workers it
            # forked live on.
            dead._release_lock()
            stop(ReproServer(port=0, state_dir=state_dir))
    finally:
        dead.engine.close()


def _getpid(_):
    return os.getpid()
