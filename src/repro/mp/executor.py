"""Master-side process pool: worker processes behind the backend contract.

The master's :class:`~repro.core.runtime.SmpssRuntime` still owns the
dependency tracker, the scheduler, renaming and the memory limit; only
*where a task body runs* changes.  The worker loop's one dispatcher
thread pops tasks for each worker exactly as a worker thread would
(with the few more ready tasks a frame may carry), sends them as one
pipe message to that worker's long-lived process, and completes each
as its reply is read.  Arrays reach the workers through shared memory
(:mod:`repro.mp.residency`).

The dispatch / death / one-redispatch policy is
:class:`~repro.core.backend.RemoteBackend`'s.  This module's own is
:class:`WorkerProcess` — fork + ready handshake + send/read + kill of
one :func:`~repro.mp.worker.worker_main` child (also behind a
``--processes`` slot of a :mod:`repro.dist` agent) — and the pipe
transport: each pipe is polled beside its worker's ``Process.sentinel``,
so a SIGKILL wakes the dispatcher at once, and one read of a pipe
parses every reply it completed (:class:`~repro.net.frames.MessageReader`,
the parser of a cluster dispatch socket too).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Optional

from ..core.backend import Link, RemoteBackend
from ..net.codec import PROTOCOL, WorkerLostError
from ..net.frames import MessageReader
from .encoding import apply_writebacks, encode_values, writeback_specs
from .residency import ArenaResidency
from .worker import MSG_STOP, task_record, worker_main

__all__ = ["ProcessBackend", "WorkerDied", "WorkerProcess"]

#: Seconds to wait for a freshly forked worker's ready handshake.
_HANDSHAKE_TIMEOUT = 30.0
#: Seconds a stopped worker gets to exit before it is terminated.
_STOP_TIMEOUT = 5.0


class WorkerDied(Exception):
    """The pipe/sentinel says the worker process is gone."""


class WorkerProcess:
    """One forked :func:`worker_main` child and the master end of its pipe.

    Forked from a quiet image when the owner can arrange it (a respawn
    forks from a threaded master, so the worker first neutralises all
    inherited runtime state).  *relayed*: a ``--processes`` agent slot
    owns it, and its store resolves the worker's values.
    """

    def __init__(self, slot: int, trace: bool, ring_capacity: int,
                 relayed: bool = False):
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main, name=f"repro-mp-worker-{slot}", daemon=True,
            args=(child_conn, slot, trace, ring_capacity, relayed))
        self.proc.start()
        self.sentinel = self.proc.sentinel
        child_conn.close()  # our copy; the child keeps its end open
        try:
            if not self.conn.poll(_HANDSHAKE_TIMEOUT):
                raise TimeoutError(f"silent for {_HANDSHAKE_TIMEOUT:.0f}s")
            self.conn.recv_bytes()  # the ready message
        except (EOFError, OSError) as exc:
            pid = self.pid
            self.kill()
            lost = WorkerLostError(
                f"worker {slot} (pid {pid}) never completed its ready "
                f"handshake ({exc!r})")
            lost.slot = slot
            raise lost from exc
        fd = self.conn.fileno()
        self._replies = MessageReader(lambda n: os.read(fd, n))

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    @property
    def fds(self) -> tuple:
        """What to poll: the pipe and the sentinel (none once killed)."""

        return () if self.conn is None else (self.conn.fileno(),
                                             self.sentinel)

    def send(self, records: list) -> None:
        """One frame, one write: :func:`~repro.mp.worker.task_record` s
        back to back.  :class:`WorkerDied` when the worker is gone."""

        conn = self.conn
        if conn is None:  # a respawn failed and left the slot killed
            raise WorkerDied
        try:
            conn.send_bytes(b"".join(records))
        except OSError as exc:  # died between tasks: nobody reads the pipe
            raise WorkerDied from exc

    def read(self, fd=None) -> list:
        """Every message one read of the pipe completes (*fd* polled
        readable; the sentinel: the worker exited).  :class:`WorkerDied`
        when the worker is gone, after every message it wrote is read."""

        conn = self.conn
        if conn is None or (fd == self.sentinel and not conn.poll(0)):
            raise WorkerDied
        try:
            return list(map(pickle.loads, self._replies.messages()))
        except Exception as exc:  # EOF (perhaps mid-message), a bad read
            raise WorkerDied from exc

    def kill(self) -> None:
        """Leave the child dead and the pipe closed; never raises."""

        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass
            self.conn = None
        proc = self.proc
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=2.0)


class ProcessBackend(RemoteBackend):
    """Executes task bodies in forked worker processes.

    The owner calls :meth:`start` (which forks) *before* its dispatcher
    thread exists, so children start from a quiet interpreter.
    """

    link_errors = (WorkerDied,)
    max_batch = 8

    def __init__(self, num_workers: int, **wiring):
        super().__init__("mp.worker_deaths", "mp.redispatched_tasks", **wiring)
        self.num_workers = num_workers
        self._stopped = False
        self._residency = ArenaResidency()

    def start(self) -> int:
        self._stopped = False
        self.links = []
        for slot in range(1, self.num_workers + 1):
            self.links.append(Link(slot, process=self._spawn(slot)))
        return self.num_workers

    def _spawn(self, slot: int) -> WorkerProcess:
        return WorkerProcess(
            slot, self._tracer is not None, self._ring_capacity)

    def stop(self) -> None:
        """Send every worker the stop message and join it.  Always
        leaves every child dead and every pipe closed, whatever state
        the workers were in; never raises.  (A worker's trace ring is
        drained into each reply, so there is nothing left to collect.)
        """

        if self._stopped:
            return
        self._stopped = True
        workers = [link.process for link in self.links]
        self.links = []
        for worker in workers:
            try:
                worker.send([pickle.dumps((MSG_STOP,), protocol=PROTOCOL)])
            except WorkerDied:
                pass
        for worker in workers:
            worker.proc.join(timeout=_STOP_TIMEOUT)
            worker.kill()
        # Data a failed run's tasks wrote is still the program's to read.
        self._residency.close()

    def _encode(self, task, values: list, link: Link, seq: int):
        specs, inline = encode_values(values, self._residency)
        writebacks = writeback_specs(task, values, specs) if inline else []
        return (task_record(task, link, seq, specs, writebacks),
                writebacks or None)

    def _send(self, link: Link, records: list) -> None:
        link.process.send(records)

    def fds(self, thread: int) -> tuple:
        return self.links[thread - 1].process.fds

    def _read(self, link: Link, fd) -> list:
        return link.process.read(fd)

    def _land(self, link: Link, values: list, writebacks, wb_values) -> None:
        apply_writebacks(writebacks, wb_values, values)

    def barrier_sync(self, objs=None) -> None:
        self._residency.sync(objs)

    def fetch_version(self, version) -> None:
        if version.is_materialised:
            self._residency.fetch(version.resolve_storage())

    def _revive(self, link: Link) -> None:
        link.process.kill()
        link.renewed()
        link.process = self._spawn(link.slot)

    def _describe(self, link: Link) -> str:
        return f"worker {link.slot} (pid {link.process.pid})"

    def liveness(self) -> list[dict]:
        """``generation`` > 1: the slot was respawned after a death;
        ``alive`` is the OS-level :meth:`Process.is_alive` (a dead
        worker shows until the dispatcher has respawned it)."""

        return [{"slot": link.slot, "pid": link.process.pid,
                 "alive": link.process.proc.is_alive(),
                 "generation": link.generation} for link in self.links]
