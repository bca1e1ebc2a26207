"""Every test ends with no child process of the test process left: the
helpers it made are stopped, and anything else still running or unreaped
fails it."""

from __future__ import annotations

import os

import pytest

from subtune.model import stop_helpers


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    stop_helpers()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
