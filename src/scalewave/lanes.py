"""Forked lanes: the one parallel mechanism, shared by ``solver.run`` and ``analysis.run_all``.

A lane is a child process forked from this one: by ``run_all`` before its
first task, by a run in the middle of its steps.  It inherits the whole
state of the computation at that point, runs a body and sends back the
value the body returns, pickled, through a pipe of its own.  Every child
leaves through ``os._exit`` in a ``finally``, so it never unwinds into the
stack it was forked from: it runs none of its caller's ``finally`` blocks
or exit handlers and flushes none of its inherited output buffers.  A body
that raises, or returns a value that does not pickle, sends the pickled
exception instead, which ``Lanes.collect`` raises here.  The owner uses
``Lanes`` as a context manager, whose exit kills and reaps every lane not
yet collected, so no lane outlives the call that forked it, whether that
call returns or raises (an interrupt included).

Work reaches the lanes as 4-byte indices through an ``IndexPipe``.
``run_all``'s lanes take run indices from one, as this process does, and
send back their values.  A run's lanes never step and send back nothing:
they record the sample rows of ring slots in place, taking the slots from
a ready pipe (see the ``solver`` module notes).

Lanes fork only on Linux (``forks``): CPython calls fork unsafe on macOS,
and Windows has none.  Elsewhere ``run`` and ``run_all`` run serially,
with the same outputs.
"""

from __future__ import annotations

import os
import pickle
import sys

#: Measured cost of forking one lane and merging what it sends: a bare fork,
#: pipe and join of a 40 MB process took 3.5-3.7 ms on a 2-core Linux VM
#: (Python 3.11, numpy 2.4), against 8.6 ms to start a one-worker process
#: pool plus 24.5 ms to import it.  Only ``run`` reads it: a run forks lanes
#: once it has lasted longer than this (``run_all`` forks before its first task).
LANE_START_S = 0.004

# the signal number of SIGKILL on Linux, the only platform that forks lanes;
# importing ``signal`` for it would cost every command about 2 ms
_SIGKILL = 9
# bytes read from a lane's pipe at a time: the size of a Linux pipe's buffer
_READ_BYTES = 1 << 16
# bytes of one index in an IndexPipe
_INDEX_BYTES = 4


def forks() -> bool:
    """Whether lanes fork on this platform (Linux only; see the module notes)."""
    return sys.platform.startswith("linux")


def write_all(fd: int, data) -> None:
    """Write every byte of ``data`` (a bytes-like object) to the file descriptor ``fd``."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _result(body) -> bytes:
    """The pickled ``(True, body())``, or ``(False, the exception it raised)``."""
    try:
        return pickle.dumps((True, body()))
    except BaseException as exc:
        try:
            return pickle.dumps((False, exc))
        except Exception:  # an exception that does not pickle still ends its lane with a message
            return pickle.dumps((False, RuntimeError(f"a lane raised {exc!r}")))


class IndexPipe:
    """A pipe of 4-byte indices that several processes may put into and take from.

    Every write holds whole indices and every read takes one, so no read
    splits an index, whatever the number of readers.  A process closes the
    ends it does not use: a reader sees the end of the pipe only once every
    write end is closed, and a writer a ``BrokenPipeError`` only once every
    read end is.
    """

    def __init__(self) -> None:
        self.read_end, self.write_end = os.pipe()

    def put(self, indices) -> None:
        """Write the ints ``indices``, in order."""
        write_all(self.write_end, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in indices))

    def take(self) -> int | None:
        """The next index, or None once the pipe is empty and every write end closed.

        On a non-blocking read end with nothing to read, raises BlockingIOError.
        """
        index = os.read(self.read_end, _INDEX_BYTES)
        return int.from_bytes(index, "little") if index else None

    def close(self, read: bool = True, write: bool = True) -> None:
        """Close this process's read end, write end or both; each end closes once."""
        if read and self.read_end >= 0:
            os.close(self.read_end)
            self.read_end = -1
        if write and self.write_end >= 0:
            os.close(self.write_end)
            self.write_end = -1


class Lanes:
    """Lanes forked from this process, each sending back the value its body returns."""

    def __init__(self) -> None:
        self._open: list[tuple[int, int]] = []  # (pid, pipe read end) of each lane not collected

    def __enter__(self) -> Lanes:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def fork(self, count: int, body) -> int:
        """Fork up to ``count`` lanes; each sends back ``body()``, a value that pickles.

        Returns how many lanes forked: fewer than ``count`` when the OS
        refuses a pipe or a fork, in which case the lanes already forked run
        on.  The body runs in the child right after the fork, so it sees this
        process's state as it is at the call.
        """
        for forked in range(count):
            try:
                read_end, write_end = os.pipe()
            except OSError:
                return forked
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                return forked
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    write_all(write_end, _result(body))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            self._open.append((pid, read_end))
        return count

    def collect(self) -> list:
        """Wait for every lane to end; return the value each sent, in lane order.

        Raises the exception a lane sent, or RuntimeError for a lane that
        ended with a nonzero status or sent nothing; the lanes not collected
        then are killed when the context exits.
        """
        values = []
        while self._open:
            pid, read_end = self._open[0]
            # the lane may block writing until this end is read, so read to its end first
            sent = bytearray()
            while chunk := os.read(read_end, _READ_BYTES):
                sent += chunk
            status = os.waitpid(pid, 0)[1]
            del self._open[0]
            os.close(read_end)
            if not sent or status != 0:
                raise RuntimeError(f"lane {len(values) + 1} ended (wait status {status}) "
                                   "without sending its result")
            returned, value = pickle.loads(sent)
            if not returned:
                raise value
            values.append(value)
        return values

    def close(self) -> None:
        """Kill and reap every lane not collected."""
        while self._open:
            pid, read_end = self._open.pop()
            try:
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped by an interrupted collect
                pass
            os.close(read_end)
