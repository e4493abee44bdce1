"""Master-side process pool: worker processes behind the backend contract.

The process backend keeps the paper's master/worker split intact: the
master's :class:`~repro.core.runtime.SmpssRuntime` still owns the
dependency tracker, the scheduler, renaming, and the memory limit.
What changes is only *where a task body runs*: each master worker
thread becomes a **proxy thread** that pops tasks exactly as before
but forwards the body — with the few more ready tasks the worker loop
popped beside it, as one frame — to a dedicated long-lived worker
process over a pipe, blocking (GIL released) for each reply.  Completion
bookkeeping then proceeds on the proxy thread unchanged, reply by reply,
so every structural feature of the runtime works identically under both
backends.  Arrays reach the workers through shared memory
(:mod:`repro.mp.residency`).

The dispatch / death / one-redispatch policy is
:class:`~repro.core.backend.RemoteBackend`'s.  This module's own is
:class:`WorkerProcess` — fork + ready handshake + send/recv + kill of
one :func:`~repro.mp.worker.worker_main` child (also what backs a
``--processes`` slot of a :mod:`repro.dist` agent) — and the pipe
transport: death is detected via ``Process.sentinel``, registered at
spawn in one ``select.poll`` together with the pipe, so a SIGKILL
mid-task wakes the proxy immediately instead of hanging a recv.
"""

from __future__ import annotations

import multiprocessing
import pickle
import select
import threading
from typing import Optional

from ..core.backend import Link, RemoteBackend
from ..net.codec import PROTOCOL, WorkerLostError
from .encoding import apply_writebacks, encode_values, writeback_specs
from .residency import ArenaResidency
from .worker import MSG_BYE, MSG_STOP, task_record, worker_main

__all__ = ["ProcessBackend", "WorkerDied", "WorkerProcess"]

#: Seconds to wait for a freshly forked worker's ready handshake.
_HANDSHAKE_TIMEOUT = 30.0
#: Seconds to wait for a worker's goodbye message at shutdown.
_GOODBYE_TIMEOUT = 5.0


class WorkerDied(Exception):
    """The pipe/sentinel says the worker process is gone."""


class WorkerProcess:
    """One forked :func:`worker_main` child and the master end of its pipe.

    Forked from a quiet single-threaded image when the owner can arrange
    it; respawns after a death necessarily fork from a threaded master,
    so the worker entry point neutralises all inherited runtime state
    first thing.  *relayed*: a ``--processes`` agent slot owns it, and
    its store resolves the worker's values (:meth:`recv`'s *serve*).
    """

    def __init__(self, slot: int, trace: bool, ring_capacity: int,
                 relayed: bool = False):
        ctx = multiprocessing.get_context("fork")
        self.slot = slot
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, slot, trace, ring_capacity, relayed),
            name=f"repro-mp-worker-{slot}",
            daemon=True,
        )
        self.proc.start()
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
        self._poll = select.poll()
        self._poll.register(self.conn, select.POLLIN)
        self._poll.register(self.proc.sentinel, select.POLLIN)

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    def send(self, records: list) -> None:
        """One frame: :func:`~repro.mp.worker.task_record` s back to
        back.  Raises :class:`WorkerDied` when the worker is gone."""

        conn = self.conn
        if conn is None:  # a respawn failed and left the slot killed
            raise WorkerDied
        try:
            conn.send_bytes(b"".join(records))
        except OSError as exc:  # died between tasks: nobody reads the pipe
            raise WorkerDied from exc

    def recv(self, seq: int, serve=None) -> tuple:
        """Block for record *seq*'s reply; ``(err, duration, events,
        writebacks)``.  A relayed worker's store requests on the way go
        to *serve*.  Raises :class:`WorkerDied` when the worker is gone
        (after every reply it had written has been read)."""

        conn = self.conn
        while True:
            if (self._poll.poll()[0][0] != conn.fileno()
                    and not conn.poll(0)):
                # Only the sentinel fired, and no bytes raced the death.
                raise WorkerDied
            try:
                msg = pickle.loads(conn.recv_bytes())
            except Exception as exc:  # EOF, or a torn final message
                raise WorkerDied from exc
            if msg[0] == seq:
                return msg[1:]
            if serve is not None:
                serve(msg)
            # otherwise an unexpected/stale message: keep waiting

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

    The owner calls :meth:`start` (which forks) *before* its proxy
    threads exist, so children start from a quiet interpreter.
    """

    link_errors = (WorkerDied,)
    max_batch = 8

    def __init__(self, num_workers: int, **wiring):
        super().__init__("mp.worker_deaths", "mp.redispatched_tasks", **wiring)
        self.num_workers = num_workers
        self._spawn_lock = threading.Lock()
        self._stopped = False
        self._residency = ArenaResidency()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> int:
        self._stopped = False
        self._links = []
        for slot in range(1, self.num_workers + 1):
            self._links.append(Link(slot, process=self._spawn(slot)))
        return self.num_workers

    def _spawn(self, slot: int) -> WorkerProcess:
        return WorkerProcess(
            slot, self._tracer is not None, self._ring_capacity)

    def stop(self) -> None:
        """Graceful shutdown: stop message, goodbye trace flush, join.

        Always leaves every child dead and every pipe closed, whatever
        state the workers were in; never raises.
        """

        if self._stopped:
            return
        self._stopped = True
        workers = [link.process for link in self._links]
        self._links = []
        for worker in workers:
            try:
                worker.send([pickle.dumps((MSG_STOP,), protocol=PROTOCOL)])
            except WorkerDied:
                pass
        for worker in workers:
            try:
                if worker.conn is not None and worker.conn.poll(_GOODBYE_TIMEOUT):
                    msg = pickle.loads(worker.conn.recv_bytes())
                    if msg[0] == MSG_BYE and msg[1] and self._tracer is not None:
                        self._tracer.ingest(msg[1])
            except Exception:
                pass
            worker.proc.join(timeout=2.0)
            worker.kill()
        # Data a failed run's tasks wrote is still the program's to read.
        self._residency.close()

    # ------------------------------------------------------------------
    # the transport half of RemoteBackend's dispatch policy
    # ------------------------------------------------------------------
    def _encode(self, task, values: list, link: Link, seq: int):
        encoded = encode_values(values, self._residency)
        wb_specs = writeback_specs(task, values, encoded)
        return task_record(task, link, seq, encoded, wb_specs), wb_specs

    def _send(self, link: Link, requests: list) -> None:
        link.process.send([record for record, _wb_specs in requests])

    def _recv(self, link: Link, seq: int):
        return link.process.recv(seq)

    def _land(self, link: Link, values: list, request, wb_values) -> None:
        apply_writebacks(request[1], wb_values, values)

    def barrier_sync(self, objs=None) -> None:
        self._residency.sync(objs)

    def fetch_version(self, version) -> None:
        if version.is_materialised:
            self._residency.fetch(version.resolve_storage())

    def _revive(self, link: Link) -> None:
        with self._spawn_lock:
            link.process.kill()
            link.process = self._spawn(link.slot)
        link.renewed()

    def _describe(self, link: Link) -> str:
        return f"worker {link.slot} (pid {link.process.pid})"

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def liveness(self) -> list[dict]:
        """``generation`` > 1: the slot was respawned after a death;
        ``alive`` is the OS-level :meth:`Process.is_alive` (a dead, not
        yet respawned worker shows up here before the next dispatch to
        its slot notices).  Lock-free snapshot."""

        return [
            {
                "slot": link.slot,
                "pid": link.process.pid,
                "alive": link.process.proc.is_alive(),
                "generation": link.generation,
            }
            for link in self._links
        ]
