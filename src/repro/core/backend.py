"""The execution-backend contract: where a ready task's body runs.

Everything above "a worker runs one ready task and reports completion"
(tracker, renaming, scheduler, blocking conditions) is the same for
every backend; everything below it is an :class:`ExecutionBackend`,
built by :func:`make_backend`.  ``docs/execution_backends.md``
("Backend contract") specifies the members, the never-raises rule and
the one-redispatch policy.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Optional

from ..net.codec import RemoteTaskError, SerializationError, WorkerLostError
from .invocation import resolve_call_values

__all__ = ["ExecutionBackend", "Link", "RemoteBackend", "ThreadBackend",
           "make_backend"]


class ExecutionBackend:
    """What the runtime needs from the thing that runs task bodies."""

    #: ``True``: bodies run off the master, one dispatcher drives every
    #: worker (``send``/``receive``, not ``run``), the main thread waits
    #: instead of helping, and the remote end emits the trace events.
    remote = False
    #: Workers lost / tasks re-dispatched so far.
    deaths = 0
    redispatched = 0
    #: Scheduler placement hook ``task -> thread index or None``;
    #: ``None`` keeps the scheduler's default placement.
    placement: Optional[Callable] = None
    #: Most ready tasks one dispatch hands over at once; above 1 the
    #: backend has ``expected(task, thread)``, the body's last seconds.
    max_batch = 1

    def start(self) -> int:
        """Bring the workers up; returns how many worker slots (thread
        indices ``1..n``) the owner must drive."""

        raise NotImplementedError

    def stop(self) -> None:
        """Release every worker and channel.  Never raises; safe on a
        backend whose :meth:`start` failed half-way."""

    def run(self, task, thread: int) -> tuple[Optional[BaseException], float]:
        """Execute *task* on the calling worker *thread*; ``(cause,
        duration)``, ``cause`` ``None`` or what to wrap.  Never raises."""

        raise NotImplementedError

    def liveness(self) -> list[dict]:
        """One ``{"slot", "alive", ...}`` row per worker: display data
        only (health watchdog, serve ``/health``)."""

        return []

    @property
    def worker_pids(self) -> list[Optional[int]]:
        return [row.get("pid") for row in self.liveness()]

    # Residency seams: only a backend that leaves data remote cares.
    def barrier_sync(self, objs=None) -> None:
        """Bring every datum (or a served graph's *objs*) home first."""

    def fetch_version(self, version) -> None:
        """Make the master copy of *version*'s storage current."""


class ThreadBackend(ExecutionBackend):
    """Bodies run right on the calling worker thread (the paper's layout)."""

    def __init__(self, num_workers: int, tracer=None, sanitizer=None,
                 tls=None):
        self.num_workers = num_workers
        self._trace = tracer
        self._sanitizer = sanitizer
        #: ``tls.in_task`` is set while a body runs on that thread, so
        #: task calls made from inside tasks execute inline.
        self._tls = tls if tls is not None else threading.local()

    def start(self) -> int:
        return self.num_workers

    def run(self, task, thread: int) -> tuple[Optional[BaseException], float]:
        if self._trace is not None:
            self._trace.task_start(task, thread)
        t0 = perf_counter()
        sanitizer = self._sanitizer
        cause = None
        tls = self._tls
        tls.in_task = True
        try:
            values = resolve_call_values(task, sanitizer)
            task.definition.func(*values)
        except BaseException as exc:  # noqa: BLE001 - reported at barrier
            cause = exc
            if sanitizer is not None:
                cause = sanitizer.translate(task, exc, thread) or exc
        else:
            if sanitizer is not None:
                sanitizer.finish(task, thread)
        finally:
            tls.in_task = False
        return cause, perf_counter() - t0

    def liveness(self) -> list[dict]:
        return [{"slot": slot, "alive": True}
                for slot in range(1, self.num_workers + 1)]


class Link:
    """The master half of one worker's channel to its remote end (only
    the dispatcher thread touches it, so it needs no lock)."""

    def __init__(self, slot: int, **ends):
        self.slot = slot
        #: Request counter; a reply is matched to its request by it.
        self.seq = 0
        #: Definition keys the remote end has already been taught.
        self.sent_defs: set = set()
        #: Definition key -> the body duration its last reply reported.
        self.durations: dict = {}
        #: 1 + how many times the remote end has been torn down.
        self.generation = 1
        #: Unanswered ``[task, values, attempts, seq, landing]`` records.
        self.pending: list = []
        #: The transport's own attributes (a process, a socket, ...).
        self.__dict__.update(ends)

    def renewed(self) -> None:
        """The remote end is gone; a fresh one (if any) knows nothing."""

        self.generation += 1
        self.sent_defs = set()


class RemoteBackend(ExecutionBackend):
    """Dispatch / death / one-redispatch, written once, as per-link
    state the dispatcher advances (:meth:`send`, :meth:`receive`).

    A subclass owns its transport: it sets ``link_errors`` (what
    ``_send`` and ``_read`` raise for a gone remote end), may widen
    ``refusals`` (a task that cannot be shipped: its cause), and
    implements ``fds(thread)`` (empty while the link has no remote
    end), ``_encode(task, values, link, seq) -> (record, landing)``
    (the definition rides until ``link.sent_defs`` has its ``id``;
    ``_land(link, values, landing, result)`` only if ``landing``),
    ``_send(link, records)`` (one frame), ``_read(link, fd)`` (one
    read: every ``(seq, err, duration, events, result)`` reply it
    completed), ``_revive(link)`` (``link.renewed()`` once the old end
    is gone; a fresh one or ``lost_error``) and ``_describe``.
    """

    remote = True
    lost_error: type = WorkerLostError
    remote_error: type = RemoteTaskError
    refusals: tuple = (SerializationError,)
    link_errors: tuple = ()

    def __init__(self, deaths_metric: str, redispatch_metric: str, *,
                 metrics, tracer=None, ring_capacity: int = 1 << 16,
                 on_dispatch: Optional[Callable] = None):
        #: Merged-timeline sink for the remote ends' piggy-backed trace
        #: events; ``None``: tracing is off and they record nothing.
        self._tracer = tracer
        self._ring_capacity = ring_capacity
        #: ``on_dispatch(task, thread)`` as a task leaves: its remote
        #: task_start only ships back *with* the reply, too late for a
        #: live dashboard.
        self._on_dispatch = on_dispatch
        self._metrics = metrics
        self._m_deaths = metrics.counter(deaths_metric)
        self._m_redispatch = metrics.counter(redispatch_metric)
        #: ``links[thread - 1]`` is worker *thread*'s link.
        self.links: list = []

    @property
    def deaths(self) -> int:
        return self._m_deaths.value

    @property
    def redispatched(self) -> int:
        return self._m_redispatch.value

    def expected(self, task, thread: int) -> Optional[float]:
        return self.links[thread - 1].durations.get(id(task.definition))

    def send(self, thread: int, tasks) -> list:
        """Ship *tasks* to worker *thread*'s idle link as one frame;
        the entry of each task settled at once (refused, or lost for
        good).  Never raises."""

        out: list = []
        pending = [[task, None, 0, None, None] for task in tasks]
        try:
            link = self.links[thread - 1]
            for record in pending:
                if self._on_dispatch is not None:
                    self._on_dispatch(record[0], thread)
                record[1] = resolve_call_values(record[0])
            link.pending = pending
            self._flush(link, out)
        except Exception as exc:  # noqa: BLE001 - reported at barrier
            self._abandon(pending, exc, out, thread)
        return out

    def receive(self, thread: int, fd) -> list:
        """Read worker *thread*'s link once (*fd* polled readable); the
        entry of each record that read answered, in order, and of each
        a lost link settles.  Never raises."""

        out: list = []
        pending: list = []
        try:
            link = self.links[thread - 1]
            pending = link.pending
            try:
                replies = self._read(link, fd)
            except self.link_errors as exc:
                self._link_lost(link, exc, out)
                return out
            for seq, err, duration, events, result in replies:
                if not pending or pending[0][3] != seq:
                    continue  # stale: no longer in flight
                task, values, _, _, landing = pending[0]
                link.sent_defs.add(id(task.definition))
                if events and self._tracer is not None:
                    self._tracer.ingest(events)  # merged by timestamp
                if err is None:
                    link.durations[id(task.definition)] = duration
                    if landing is not None:
                        self._land(link, values, landing, result)
                del pending[0]
                out.append((task, thread, err and self.remote_error(*err),
                            duration, True))
        except Exception as exc:  # noqa: BLE001 - reported at barrier
            self._abandon(pending, exc, out, thread)
        return out

    @staticmethod
    def _abandon(pending: list, exc, out: list, thread: int) -> None:
        """Settle every record left with *exc* — also a master-side
        bug: a record left unsettled would hang the barrier."""

        out += [(record[0], thread, exc, 0.0, True) for record in pending]
        pending.clear()

    def _flush(self, link: Link, out: list) -> None:
        """Number, encode and send *link*'s records as one frame; a
        refused record is settled at once."""

        frame = []
        try:
            for record in link.pending[:]:
                try:
                    encoded, landing = self._encode(
                        record[0], record[1], link, link.seq + 1)
                except self.refusals as exc:
                    link.pending.remove(record)
                    out.append((record[0], link.slot,
                                self._stamp(exc, link), 0.0, True))
                else:
                    link.seq += 1
                    record[3:] = link.seq, landing
                    frame.append(encoded)
            if frame:
                self._send(link, frame)
        except self.link_errors as exc:
            self._link_lost(link, exc, out)

    def _link_lost(self, link: Link, exc, out: list) -> None:
        """Count the death; charge the first unanswered record (the one
        that was running: the replies before it were read and
        honoured); revive the link and send the records behind it
        again, uncharged (they never started)."""

        who = self._describe(link)
        self._link_died(link, exc)
        charged = link.pending[0] if link.pending else None
        if charged is not None:
            charged[2] += 1
            if charged[2] > 1:
                del link.pending[0]
                task = charged[0]
                out.append((task, link.slot, self._stamp(self.lost_error(
                    f"{who} died while running task #{task.task_id} "
                    f"{task.name!r}, which had already been "
                    f"re-dispatched once; giving up"
                ), link), 0.0, True))
        try:
            # Also after giving up, and on an idle link: the rest of
            # the frame and later tasks need a live remote end.
            self._revive(link)
        except self.lost_error as unrevivable:
            self._abandon(link.pending, self._stamp(unrevivable, link),
                          out, link.slot)
            return
        if charged is not None and charged[2] == 1:
            self._m_redispatch.inc()
        self._flush(link, out)

    @staticmethod
    def _stamp(exc: BaseException, link: Link) -> BaseException:
        """*exc*, naming *link*'s slot and node unless its raiser did."""

        if getattr(exc, "slot", 0) is None:
            node = getattr(link, "node", None)
            exc.slot, exc.node = link.slot, node and node.name
        return exc

    def _link_died(self, link: Link, exc: BaseException) -> None:
        self._m_deaths.inc()  # one lost remote end


def make_backend(config, *, metrics, tracer=None, on_dispatch=None,
                 sanitizer=None, tls=None) -> ExecutionBackend:
    """The (unstarted) backend ``config.backend`` names: the one name ->
    factory table (mp and dist sit above core, so they import lazily).
    *tracer* is ``None`` when tracing is off; the other arguments are
    what the backends take instead of a reference to their owner."""

    remote = {"metrics": metrics, "tracer": tracer, "ring_capacity":
              config.trace_buffer_size, "on_dispatch": on_dispatch}

    def threads():
        return ThreadBackend(
            config.num_workers, tracer=tracer, sanitizer=sanitizer, tls=tls)

    def processes():
        from ..mp.executor import ProcessBackend

        return ProcessBackend(config.num_workers, **remote)

    def cluster():
        from ..dist.manager import ClusterBackend

        return ClusterBackend(
            config.nodes, write_through=config.dist_write_through, **remote)

    return {"threads": threads, "processes": processes,
            "cluster": cluster}[config.backend]()
