"""Tracing-enabled runtime support.

Section VII.A: "SMPSs is composed of a set of tools focused on the
programmer consisting of a compiler, a standard runtime and a
tracing-enabled runtime.  The tracing-enabled version records events
related to task creation and execution for post-mortem analysis with
the Paraver tool."

This module is the Python analogue: a :class:`Tracer` collects typed
events with timestamps (wall-clock in the threaded runtime, virtual
time in the simulator) into per-thread rings and offers the raw
queries — task intervals, event counts — plus a Paraver-like ASCII
timeline and a ``.prv``-style record dump.  Busy time, makespan and
per-type statistics are :func:`repro.obs.analyze.analyze_events`'s.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = [
    "TraceEvent",
    "Tracer",
    "EventKind",
    "task_intervals",
]


class EventKind:
    TASK_ADDED = "task_added"
    TASK_READY = "task_ready"
    TASK_START = "task_start"
    TASK_END = "task_end"
    #: A dependency edge entered the graph: ``task_id`` is the successor,
    #: ``extra`` is ``(pred_id, kind)``.  Emitted by the graph while the
    #: main thread analyses a submission, so a live consumer sees the
    #: DAG grow edge by edge (the TEMANEJO-style feed ``repro.live``
    #: streams as graph deltas).
    EDGE_ADDED = "edge_added"
    STEAL = "steal"
    RENAME = "rename"
    BARRIER_ENTER = "barrier_enter"
    BARRIER_EXIT = "barrier_exit"
    #: ``wait_on(obj)`` partial barrier: the main thread blocks on one
    #: datum's producer (only emitted when it actually has to wait).
    WAIT_ON_ENTER = "wait_on_enter"
    WAIT_ON_EXIT = "wait_on_exit"
    WRITE_BACK = "write_back"
    #: sanitizer diagnostic (repro.check): rule + parameter in extra
    VIOLATION = "violation"


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    task_id: int = -1
    task_name: str = ""
    thread: int = -1
    extra: tuple = ()


def task_intervals(events: Iterable[TraceEvent]):
    """Yield ``(task_id, name, start, end, thread)`` for each completed
    task of *events* — the one place a ``TASK_END`` meets its
    ``TASK_START``.

    Events are walked in timestamp order, not list order: a list put
    together from several sources (worker rings shipped with mp
    replies, a hand-built list) can place a task's START *after* its
    END, which would silently drop the interval.  *thread* is the one
    the task ended on.
    """

    starts: dict[int, float] = {}
    for event in sorted(events, key=lambda e: e.time):
        if event.kind == EventKind.TASK_START:
            starts[event.task_id] = event.time
        elif event.kind == EventKind.TASK_END:
            begin = starts.pop(event.task_id, None)
            if begin is not None:
                yield (event.task_id, event.task_name, begin, event.time,
                       event.thread)


class _RingBuffer:
    """One thread's bounded event buffer (oldest events dropped)."""

    __slots__ = ("events", "dropped")

    def __init__(self, capacity: int):
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0


class Tracer:
    """Event recorder over per-thread ring buffers; one per runtime.

    Each OS thread appends to its own bounded ring (registered on first
    use), so emission takes no shared lock — Álvarez et al. show
    contention in exactly this kind of runtime bookkeeping is a
    first-order scaling cost.  The rings are merged, stably sorted by
    timestamp, only when :attr:`events` is read.  *clock* defaults to
    :func:`time.perf_counter`; the simulator injects its virtual clock
    (single-threaded emission: one ring, emission order kept among
    equal timestamps).  On overflow of *capacity* a ring drops its
    oldest events, counted in :attr:`dropped_events`, so tracing can
    stay on in long-running services.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = 1 << 16):
        self.clock = clock or time.perf_counter
        self.capacity = capacity
        #: Optional per-event callback ``fn(event)`` invoked on the
        #: emitting thread right after the event is recorded.  This is
        #: the live event plane's tap (:mod:`repro.live`); ``None`` (the
        #: default) costs one attribute load + identity check per event.
        #: The callback must be fast and must not take runtime locks.
        self.listener: Optional[Callable[[TraceEvent], None]] = None
        self._tls = threading.local()
        self._buffers: list[_RingBuffer] = []
        self._register_lock = threading.Lock()

    def _register(self) -> _RingBuffer:
        ring = _RingBuffer(self.capacity)
        with self._register_lock:
            self._buffers.append(ring)
        self._tls.ring = ring
        return ring

    @property
    def events(self) -> list[TraceEvent]:
        """All events, merged across threads in timestamp order."""

        with self._register_lock:
            buffers = [list(ring.events) for ring in self._buffers]
        merged = [event for buf in buffers for event in buf]
        merged.sort(key=lambda e: e.time)  # stable: ties keep buffer order
        return merged

    @property
    def dropped_events(self) -> int:
        with self._register_lock:
            return sum(ring.dropped for ring in self._buffers)

    # -- emit helpers ------------------------------------------------------
    def _emit(self, kind: str, task=None, thread: int = -1, extra: tuple = ()):
        try:
            ring = self._tls.ring
        except AttributeError:
            ring = self._register()
        buf = ring.events
        if len(buf) == buf.maxlen:
            ring.dropped += 1
        event = TraceEvent(
            time=self.clock(),
            kind=kind,
            task_id=task.task_id if task is not None else -1,
            task_name=task.name if task is not None else "",
            thread=thread,
            extra=extra,
        )
        buf.append(event)
        listener = self.listener
        if listener is not None:
            listener(event)

    def task_added(self, task) -> None:
        self._emit(EventKind.TASK_ADDED, task)

    def task_ready(self, task, thread: int = -1) -> None:
        """*thread* is the one whose completion released the last input
        dependency (-1: released at submission, no unlocking thread).
        Recording it is what makes the locality hit-rate of section III
        — "tasks whose last input dependency has been removed by that
        thread" — computable post mortem."""

        self._emit(EventKind.TASK_READY, task, thread)

    def task_start(self, task, thread: int) -> None:
        self._emit(EventKind.TASK_START, task, thread)

    def task_end(self, task, thread: int) -> None:
        self._emit(EventKind.TASK_END, task, thread)

    def edge(self, pred, succ, kind: str) -> None:
        """A dependency edge *pred* -> *succ* entered the graph."""

        self._emit(EventKind.EDGE_ADDED, succ, extra=(pred.task_id, kind))

    def steal(self, task, thief: int, victim: int) -> None:
        self._emit(EventKind.STEAL, task, thief, extra=("victim", victim))

    def rename(self, task, datum, kind) -> None:
        self._emit(
            EventKind.RENAME,
            task,
            extra=(type(datum.base).__name__, getattr(kind, "value", str(kind))),
        )

    def barrier_enter(self, thread: int = 0) -> None:
        self._emit(EventKind.BARRIER_ENTER, thread=thread)

    def barrier_exit(self, thread: int = 0) -> None:
        self._emit(EventKind.BARRIER_EXIT, thread=thread)

    def wait_on_enter(self, thread: int = 0) -> None:
        self._emit(EventKind.WAIT_ON_ENTER, thread=thread)

    def wait_on_exit(self, thread: int = 0) -> None:
        self._emit(EventKind.WAIT_ON_EXIT, thread=thread)

    def write_back(self, count: int) -> None:
        self._emit(EventKind.WRITE_BACK, extra=(count,))

    def violation(self, task, thread: int, rule: str, param: str) -> None:
        self._emit(EventKind.VIOLATION, task, thread, extra=(rule, param))

    def ingest(self, events: Iterable[TraceEvent]) -> None:
        """Merge externally recorded events into this tracer's stream.

        The process backend uses this to land worker-side ring buffers
        (timestamped with the same monotonic clock) in the master's
        timeline, so every consumer — reports, Perfetto export, trace
        diffing — sees worker processes as ordinary threads.  The events
        land in the *calling thread's* ring as :meth:`_emit` would put
        them; the merge in :attr:`events` puts them in time order.
        """

        try:
            ring = self._tls.ring
        except AttributeError:
            ring = self._register()
        buf = ring.events
        listener = self.listener
        for event in events:
            if len(buf) == buf.maxlen:
                ring.dropped += 1
            buf.append(event)
            if listener is not None:
                listener(event)

    # -- post-mortem queries ----------------------------------------------
    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Counter:
        return Counter(e.kind for e in self.events)

    def task_intervals(self) -> dict[int, tuple[float, float, int, str]]:
        """task_id -> (start, end, thread, name) for completed tasks."""

        return {
            task_id: (start, end, thread, name)
            for task_id, name, start, end, thread in task_intervals(self.events)
        }

    # -- exports -------------------------------------------------------------
    def to_records(self) -> Iterable[str]:
        """Paraver-like one-line-per-event textual records."""

        for event in self.events:
            extra = ":".join(str(x) for x in event.extra)
            yield (
                f"{event.time:.9f}:{event.kind}:{event.thread}:"
                f"{event.task_id}:{event.task_name}:{extra}"
            )

    def to_paraver(self) -> str:
        """A Paraver-style trace file (``.prv`` dialect).

        Header line ``#Paraver (...)`` followed by state records
        (``1:cpu:appl:task:thread:begin:end:state``) for task
        executions and event records (``2:cpu:...:time:type:value``)
        for the point events (ready, steal, rename, barrier).  Event
        type codes are listed in the trailer comment.
        """

        events = self.events  # one merge of the rings
        end_time = max((e.time for e in events), default=0.0)
        lines = [
            f"#Paraver (01/01/2008 at 00:00):{_us(end_time)}"
            ":1(1):1:1(1:1)"
        ]
        for task_id, _name, start, end, thread in sorted(task_intervals(events)):
            cpu = thread + 1
            lines.append(
                f"1:{cpu}:1:1:{cpu}:{_us(start)}:{_us(end)}:{task_id}"
            )
        type_codes = {
            EventKind.TASK_ADDED: 90000001,
            EventKind.TASK_READY: 90000002,
            EventKind.STEAL: 90000003,
            EventKind.RENAME: 90000004,
            EventKind.BARRIER_ENTER: 90000005,
            EventKind.BARRIER_EXIT: 90000006,
            EventKind.WRITE_BACK: 90000007,
            EventKind.VIOLATION: 90000008,
        }
        for event in events:
            code = type_codes.get(event.kind)
            if code is None:
                continue
            cpu = max(event.thread, 0) + 1
            value = event.task_id if event.task_id >= 0 else 0
            lines.append(f"2:{cpu}:1:1:{cpu}:{_us(event.time)}:{code}:{value}")
        lines.append("# event types: " + ", ".join(
            f"{code}={kind}" for kind, code in type_codes.items()
        ))
        return "\n".join(lines)

    def ascii_timeline(self, width: int = 72) -> str:
        """A tiny Paraver-style Gantt: one row per thread."""

        intervals = self.task_intervals()
        if not intervals:
            return "(no task intervals recorded)"
        t0 = min(s for s, _e, _t, _n in intervals.values())
        t1 = max(e for _s, e, _t, _n in intervals.values())
        span = max(t1 - t0, 1e-12)
        rows: dict[int, list[str]] = defaultdict(lambda: [" "] * width)
        for start, end, thread, name in intervals.values():
            lo = int((start - t0) / span * (width - 1))
            hi = max(lo, int((end - t0) / span * (width - 1)))
            glyph = name[0] if name else "#"
            for i in range(lo, hi + 1):
                rows[thread][i] = glyph
        lines = [
            f"thr {thread:2d} |{''.join(cells)}|"
            for thread, cells in sorted(rows.items())
        ]
        return "\n".join(lines)


def _us(seconds: float) -> int:
    """Paraver timestamps are integer microseconds."""

    return int(round(seconds * 1e6))
