import os

import pytest

import scalewave.lanes
import scalewave.solver


@pytest.fixture
def forced_lanes(monkeypatch):
    """A run's lanes fork at the first chance, at its second row.

    The run's rule weighs the wall time of samples against steps, and the
    run's own against ``lanes.LANE_START_S``, so it is replaced by one that
    always holds.  A sweep forks its lanes before its first cell anyway.
    """
    monkeypatch.setattr(scalewave.solver, "_lanes_pay", lambda *times: True)


@pytest.fixture
def forks(monkeypatch):
    """Record how many lanes each fork-out starts; the lanes are real."""
    counts = []
    plain_fork = scalewave.lanes.Lanes.fork

    def recording_fork(self, count, body):
        forked = plain_fork(self, count, body)
        counts.append(forked)
        return forked

    monkeypatch.setattr(scalewave.lanes.Lanes, "fork", recording_fork)
    return counts


@pytest.fixture
def no_child_left():
    """A check that this process has no child process left, running or unreaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
