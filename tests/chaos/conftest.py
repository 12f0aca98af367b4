"""Fixtures for the chaos tests."""

import subprocess
import sys

import pytest


@pytest.fixture
def cpu_hogs():
    """Two busy-loop subprocesses competing for the CPU while the test
    runs (live determinism claims must hold on a loaded box, not only on
    an idle one)."""
    hogs = [
        subprocess.Popen([sys.executable, "-c", "while True: pass"])
        for _ in range(2)
    ]
    try:
        yield hogs
    finally:
        for hog in hogs:
            hog.kill()
            hog.wait()
