import os

import pytest

import scalewave.lanes
import scalewave.solver


@pytest.fixture
def forced_lanes(monkeypatch):
    """Lanes fork at the first chance: a sweep at its first sample, a run at its second row.

    The sweep's rule then always holds with a zero lane-start threshold; the
    run's rule also weighs the wall time of samples against steps, so it is
    replaced by one that always holds.
    """
    monkeypatch.setattr(scalewave.lanes, "LANE_START_S", 0.0)
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
