import os
import sys
import threading
from types import SimpleNamespace

import pytest

from lbi import engine


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread it started still running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate()
            if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {left}")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left behind")


@pytest.fixture
def overlap(monkeypatch):
    """Every one-cell MLP run overlaps (from 0 activations, on two CPUs).
    Returns what the runs made so far: the workspaces, as (rows, hidden),
    and the number of stage-1 submissions."""
    made = SimpleNamespace(workspaces=[], submits=0)

    class Counted(engine._Workspace):
        def __init__(self, rows, hidden):
            made.workspaces.append((rows, hidden))
            super().__init__(rows, hidden)

        def submit(self, fn):
            made.submits += 1
            return super().submit(fn)

    monkeypatch.setattr(engine, "OVERLAP_MIN_ACTIVATIONS", 0)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine, "_Workspace", Counted)
    return made


@pytest.fixture
def split(monkeypatch):
    """Every stack of 4 or more cells splits (from 0 cell x row x
    iterations, on two CPUs).  Returns the pids of the forked children."""
    forks = []
    true_fork = os.fork

    def counted():
        pid = true_fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(engine, "SPLIT_MIN_CELL_ROW_ITERATIONS", 0)
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criteria verdict lines after the test summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
