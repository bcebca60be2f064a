import os
import pickle
import sys
import time

import pytest

from scalewave.lanes import Lanes, forks


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


def lane_number(lanes: Lanes) -> int:
    """The number, from 1, of the lane this runs in, in a body forked by ``lanes``.

    A lane inherits the list of the lanes forked before it, and nothing
    appends to that list in the lane.
    """
    return len(lanes._open) + 1


pytestmark = pytest.mark.skipif(not forks(), reason="lanes fork only on Linux")


def test_payloads_come_back_in_lane_order(no_child_left):
    with Lanes() as lanes:
        assert lanes.fork(3, lambda: bytes([lane_number(lanes)]) * lane_number(lanes)) == 3
        assert lanes.collect() == [b"\x01", b"\x02\x02", b"\x03\x03\x03"]
    no_child_left()


def test_payload_larger_than_a_pipe_arrives_whole(no_child_left):
    # a pipe holds 64 KiB; the lane blocks writing until the payload is read
    payload = bytes(range(256)) * 8192
    with Lanes() as lanes:
        lanes.fork(2, lambda: payload[lane_number(lanes):])
        assert lanes.collect() == [payload[1:], payload[2:]]
    no_child_left()


def test_a_lane_error_is_raised_here(no_child_left):
    def body():
        if lane_number(lanes) == 2:
            raise ValueError("lane 2 failed")
        return b""

    with Lanes() as lanes:
        lanes.fork(3, body)
        with pytest.raises(ValueError, match="lane 2 failed"):
            lanes.collect()
    no_child_left()


def test_an_error_that_does_not_pickle_still_ends_the_lane(no_child_left):
    class Local(Exception):  # a local class cannot be pickled
        pass

    def body():
        raise Local("not sent as such")

    with Lanes() as lanes:
        lanes.fork(1, body)
        with pytest.raises(RuntimeError, match="not sent as such"):
            lanes.collect()
    no_child_left()


def test_a_value_that_does_not_pickle_is_raised_here(no_child_left):
    # a lambda returned by a lane cannot be pickled; the lane sends why instead
    with Lanes() as lanes:
        lanes.fork(1, lambda: lambda: None)
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            lanes.collect()
    no_child_left()


def test_a_lane_that_dies_without_sending(no_child_left):
    with Lanes() as lanes:
        lanes.fork(1, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="without sending"):
            lanes.collect()
    no_child_left()


def test_a_lane_that_exits_cleanly_without_sending(no_child_left):
    with Lanes() as lanes:
        lanes.fork(1, lambda: os._exit(0))
        with pytest.raises(RuntimeError, match="without sending"):
            lanes.collect()
    no_child_left()


def test_lanes_never_unwind_into_the_caller(tmp_path, no_child_left):
    # a lane that raises SystemExit leaves through os._exit all the same: only
    # this process runs the caller's finally block
    log = tmp_path / "finally.log"

    def body():
        raise SystemExit(0)

    try:
        with Lanes() as lanes:
            lanes.fork(2, body)
            with pytest.raises(SystemExit):
                lanes.collect()
    finally:
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
    assert log.read_text().split() == [str(os.getpid())]
    no_child_left()


def test_leaving_the_context_kills_the_lanes_not_collected(no_child_left):
    start = time.perf_counter()
    with Lanes() as lanes:
        lanes.fork(2, lambda: time.sleep(60))
    no_child_left()
    assert time.perf_counter() - start < 30.0


def test_a_refused_fork_forks_nothing_and_leaks_nothing(monkeypatch, no_child_left):
    def refused():
        raise BlockingIOError("no more processes")

    before = open_fds()
    monkeypatch.setattr(os, "fork", refused)
    with Lanes() as lanes:
        assert lanes.fork(2, lambda: b"") == 0
        assert lanes.collect() == []
    assert open_fds() == before
    no_child_left()


@pytest.mark.parametrize("platform, expected", [("linux", True), ("darwin", False),
                                                ("win32", False)])
def test_lanes_fork_only_on_linux(platform, expected, monkeypatch):
    monkeypatch.setattr(sys, "platform", platform)
    assert forks() is expected
