"""The conftest hang watchdog: a test past the ceiling fails the run."""

import os
import shutil
import subprocess
import sys


def test_hung_test_dumps_stacks_and_fails_the_run(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copy(os.path.join(here, "conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfaulthandler_timeout = 1\n")
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n"
        "def test_hangs():\n"
        "    time.sleep(120)\n")
    # ``-p no:timeout`` keeps pytest-timeout out of the child where it
    # is installed, so the watchdog is the one that ends the hang.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "no:timeout", "test_hang.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode != 0
    watchdog = proc.stderr.index(
        "watchdog: test_hang.py::test_hangs ran past 1 s")
    # pytest's faulthandler dump reaches the hung frame and is complete
    # before the watchdog ends the run.
    assert -1 < proc.stderr.find("line 4 in test_hangs") < watchdog
