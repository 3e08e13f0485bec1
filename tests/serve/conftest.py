"""Fixtures shared by the serve tests."""

import contextlib
import threading

import pytest

from repro.circuits import get
from repro.serve.server import ReproServer


@pytest.fixture()
def parked_job():
    """Return a context manager that holds one job in a server's single
    worker until the block exits, so the queue stays at depth 1 and
    ``max_queue_depth=1`` sheds the rest.  It yields the release event."""

    @contextlib.contextmanager
    def park(server: ReproServer):
        release = threading.Event()
        run_job = server.queue._run_job
        parked: list = []

        def parked_run(job):
            if job in parked:
                release.wait(60)
            return run_job(job)

        server.queue._run_job = parked_run
        # Called on the event-loop thread: no worker can take the job
        # before it is marked.
        parked.append(server.queue.submit(get("z4ml"))[0])
        try:
            yield release
        finally:
            release.set()

    return park
