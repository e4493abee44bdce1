"""Shared fixtures for the test suite."""

import gc
import multiprocessing
import os
import threading
import time

import pytest

#: What a test may leave behind because a process-lifetime owner keeps
#: it on purpose: ``(kind, name prefix)`` pairs.  Besides these, the fd
#: of multiprocessing's resource tracker pipe, opened by the first
#: SharedMemory segment of the interpreter and kept until exit.
LONG_LIVED = (
    # repro.mp.arena.attach_handle's segment cache: a worker process's
    # attachments, kept until exit; the master attaches only in the
    # arena's own handle tests.
    ("fd", "/dev/shm/repro-mp-"),
)
#: Seconds a test's threads, children and sockets get to wind down.
GRACE = 1.0


def _allowed(kind: str, name: str) -> bool:
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker._fd
    if kind == "fd" and tracker is not None and name == _fd_target(tracker):
        return True
    return any(kind == k and name.startswith(prefix)
               for k, prefix in LONG_LIVED)


def _fd_target(fd: str) -> str:
    try:
        return os.readlink(f"/proc/self/fd/{fd}")
    except OSError:  # closed since the listing
        return ""


def _holdings() -> dict:
    """What this process holds now, by kind."""

    from repro.mp import leaked_segment_files

    return {
        "thread": {t for t in threading.enumerate() if t.is_alive()},
        "child process": set(multiprocessing.active_children()),
        "fd": set(os.listdir("/proc/self/fd")),
        "shared-memory segment": set(leaked_segment_files()),
    }


def _leaks(before: dict) -> list:
    leaks = []
    for kind, now in _holdings().items():
        for item in now - before[kind]:
            if kind == "thread":
                name = item.name
            elif kind == "fd":
                name = _fd_target(item)
                if not name:
                    continue
            else:
                name = str(item)
            if not _allowed(kind, name):
                leaks.append(f"{kind} {name}")
    return sorted(leaks)


@pytest.fixture(autouse=True)
def _leaves_the_process_as_it_found_it():
    """Every test must leave no thread, child process, file descriptor
    (socket, pipe, file) or ``/dev/shm`` segment behind that it did not
    find; what a test started gets :data:`GRACE` seconds to wind down.

    A leaked ``repro-arena-*`` segment means a SharedArena was dropped
    without ``close(unlink=True)`` — a host-level leak that outlives the
    interpreter.  Holdings that already existed before the test (a
    module-scoped fixture's agents, a crashed unrelated process's
    segment) are not attributed to it.
    """

    before = _holdings()
    yield
    deadline = time.monotonic() + GRACE
    while (leaks := _leaks(before)) and time.monotonic() < deadline:
        gc.collect()  # a dropped socket held by a reference cycle
        time.sleep(0.02)
    assert not leaks, f"test leaked: {leaks}"
