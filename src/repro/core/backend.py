"""The execution-backend contract: where a ready task's body runs.

Everything above "a worker runs one ready task and reports completion"
(tracker, renaming, scheduler, blocking conditions) is
:class:`~repro.core.runtime.SmpssRuntime` and the same for every
backend; everything below it is an :class:`ExecutionBackend`, built by
:func:`make_backend`.  The member table, the never-raises rule and the
one-redispatch policy are specified in ``docs/execution_backends.md``
("Backend contract").
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Optional

from ..net.codec import RemoteTaskError, SerializationError, WorkerLostError
from .invocation import resolve_call_values

__all__ = [
    "ExecutionBackend",
    "Link",
    "RemoteBackend",
    "ThreadBackend",
    "make_backend",
]


class ExecutionBackend:
    """What the runtime needs from the thing that runs task bodies."""

    #: ``True``: bodies run outside the calling thread.  The main thread
    #: then *waits* at blocking conditions instead of helping (a body on
    #: the master would hold the GIL the proxy threads' bookkeeping
    #: needs), and the remote end — not the runtime — emits the task's
    #: start/end trace events.
    remote = False
    #: Workers lost / tasks re-dispatched so far.
    deaths = 0
    redispatched = 0
    #: Scheduler placement hook ``task -> thread index or None``;
    #: ``None`` keeps the scheduler's default placement.
    placement: Optional[Callable] = None
    #: Most ready tasks the worker loop hands over at once.  Above 1 the
    #: backend also has ``run_frame(tasks, thread)``, yielding ``(task,
    #: cause, duration)`` as each finishes and never raising, and
    #: ``expected(task, thread)``: seconds its body last took, or None.
    max_batch = 1

    def start(self) -> int:
        """Bring the workers up; returns how many worker threads
        (indices ``1..n``) the owner must drive."""

        raise NotImplementedError

    def stop(self) -> None:
        """Release every worker and channel.  Never raises; safe on a
        backend whose :meth:`start` failed half-way."""

    def run(self, task, thread: int) -> tuple[Optional[BaseException], float]:
        """Execute *task* for worker *thread*; ``(cause, duration)``.
        Never raises: ``cause`` is ``None`` or the exception to wrap in
        a ``TaskExecutionError``."""

        raise NotImplementedError

    def liveness(self) -> list[dict]:
        """One ``{"slot", "alive", ...}`` row per worker: display data
        (health watchdog, serve ``/health``), never control flow."""

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
    """The master half of one proxy thread's channel to its remote end
    (driven by that one thread, so it needs no lock)."""

    def __init__(self, slot: int, **ends):
        self.slot = slot
        #: Request counter; a reply is matched to its request by it.
        self.seq = 0
        #: Definition keys the remote end has already been taught.
        self.sent_defs: set = set()
        #: Definition key -> the body duration its last reply reported.
        self.durations: dict = {}
        #: 1 + how many times the remote end has been replaced.
        self.generation = 1
        #: The transport's own attributes (a process, a socket, ...).
        self.__dict__.update(ends)

    def renewed(self) -> None:
        """A fresh remote end is behind this link: it knows nothing."""

        self.generation += 1
        self.sent_defs = set()


class RemoteBackend(ExecutionBackend):
    """Dispatch / death / one-redispatch, written once.

    A subclass owns its transport.  It sets ``link_errors`` (what
    ``_send`` and ``_recv`` raise when the remote end is gone) and may
    widen ``refusals`` (what its hooks raise for a task that cannot be
    shipped — returned as the ``cause``, link untouched); ``lost_error``
    and ``remote_error`` are the structured errors of every remote end.
    A refusal or loss that names no slot yet is stamped with the link's
    slot and node.  The subclass implements
    ``_encode(task, values, link, seq) -> request`` (the task's whole
    wire record, with what finds its definition's function until
    ``link.sent_defs`` has the definition's ``id``), ``_send(link,
    requests)`` (one frame), ``_recv(link, seq) -> (err, duration,
    events, result)``, ``_land(link, values, request, result)``,
    ``_revive(link)`` (fresh remote end + ``link.renewed()``, or raise
    ``lost_error``) and ``_describe(link) -> str``.
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
        #: ``on_dispatch(task, thread)`` as a task leaves: the remote
        #: task_start event only ships back *with* the reply, so a live
        #: dashboard would otherwise see the task leave the queue only
        #: once it was already done.
        self._on_dispatch = on_dispatch
        self._metrics = metrics
        self._m_deaths = metrics.counter(deaths_metric)
        self._m_redispatch = metrics.counter(redispatch_metric)
        #: ``_links[thread - 1]`` is worker *thread*'s link.
        self._links: list = []

    @property
    def deaths(self) -> int:
        return self._m_deaths.value

    @property
    def redispatched(self) -> int:
        return self._m_redispatch.value

    def run(self, task, thread: int) -> tuple[Optional[BaseException], float]:
        ((_task, cause, duration),) = self._dispatch((task,), thread)
        return cause, duration

    def expected(self, task, thread: int) -> Optional[float]:
        return self._links[thread - 1].durations.get(id(task.definition))

    def _dispatch(self, tasks, thread: int):
        """Ship *tasks* to worker *thread*'s remote end as one frame;
        yield ``(task, cause, duration)`` as each one's reply arrives.
        A dead link charges the attempt to the first unacknowledged
        task, the one that was running (the replies before it were read
        and honoured); the records behind it never started and are sent
        again with it, uncharged."""

        pending = [[task, None, 0] for task in tasks]  # [.., values, attempts]
        try:
            link = self._links[thread - 1]
            for record in pending:
                if self._on_dispatch is not None:
                    self._on_dispatch(record[0], link.slot)
                record[1] = resolve_call_values(record[0])
            while pending:  # the unacknowledged records, in order
                frame = []  # (seq, request) of each one this round sends
                try:
                    for record in pending[:]:
                        task, values, _ = record
                        try:
                            request = self._encode(
                                task, values, link, link.seq + 1)
                        except self.refusals as exc:
                            pending.remove(record)
                            yield task, self._stamp(exc, link), 0.0
                        else:
                            link.seq += 1
                            frame.append((link.seq, request))
                    if frame:
                        self._send(link, [request for _, request in frame])
                    for seq, request in frame:
                        err, duration, events, result = self._recv(link, seq)
                        task, values, _ = pending[0]
                        link.sent_defs.add(id(task.definition))
                        if events and self._tracer is not None:
                            # Proxy-thread context: events land in this
                            # thread's ring buffer and merge by
                            # timestamp with everyone else.
                            self._tracer.ingest(events)
                        if err is None:
                            link.durations[id(task.definition)] = duration
                            self._land(link, values, request, result)
                        del pending[0]
                        yield task, err and self.remote_error(*err), duration
                except self.link_errors as exc:
                    yield from self._link_lost(link, exc, pending)
        except Exception as exc:  # noqa: BLE001 - reported at barrier
            # Not an expected failure but a master-side bug; it must
            # still surface at the barrier — a proxy thread dying
            # silently would leave the runtime's running count stuck
            # and hang the main thread forever.
            for task, _, _ in pending:
                yield task, exc, 0.0

    run_frame = _dispatch

    def _link_lost(self, link: Link, exc, pending: list):
        """Count the death, charge ``pending[0]``, revive the link."""

        who = self._describe(link)
        self._link_died(link, exc)
        record = pending[0]
        record[2] += 1
        if record[2] > 1:
            del pending[0]
            task = record[0]
            yield task, self._stamp(self.lost_error(
                f"{who} died while running task #{task.task_id} "
                f"{task.name!r}, which had already been "
                f"re-dispatched once; giving up"
            ), link), 0.0
        try:
            # Also after giving up: the rest of the frame and later
            # tasks on this proxy thread need a live remote end.
            self._revive(link)
        except self.lost_error as unrevivable:
            self._stamp(unrevivable, link)
            while pending:
                yield pending.pop(0)[0], unrevivable, 0.0
        else:
            if record[2] == 1:
                self._m_redispatch.inc()

    @staticmethod
    def _stamp(exc: BaseException, link: Link) -> BaseException:
        """*exc*, naming *link*'s slot and node unless its raiser did."""

        if getattr(exc, "slot", 0) is None:
            node = getattr(link, "node", None)
            exc.slot, exc.node = link.slot, node and node.name
        return exc

    def _link_died(self, link: Link, exc: BaseException) -> None:
        """Count one lost remote end."""

        self._m_deaths.inc()


def make_backend(config, *, metrics, tracer=None, on_dispatch=None,
                 sanitizer=None, tls=None) -> ExecutionBackend:
    """The (unstarted) backend ``config.backend`` names.

    This is the one name -> factory table: nothing else in core (or
    serve) names a backend module.  mp and dist sit above core in the
    layering, so their entries import lazily.  *tracer* is the
    merged-timeline tracer, or ``None`` when tracing is off; the other
    arguments are what the individual backends take instead of a
    reference to their owner.
    """

    remote = {
        "metrics": metrics, "tracer": tracer, "on_dispatch": on_dispatch,
        "ring_capacity": config.trace_buffer_size,
    }

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
