"""Tests for the tracing-enabled runtime (section VII.A)."""

import threading

import numpy as np
import pytest

from repro import SmpssRuntime, css_task
from repro.core.tracing import EventKind, Tracer
from repro.obs import analyze_tracer

pytestmark = pytest.mark.obs


@css_task("inout(a)")
def bump(a):
    a += 1


class TestTracer:
    def _run_traced(self, tasks=3, workers=2):
        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=workers, trace=True)
        with rt:
            for _ in range(tasks):
                bump(a)
            rt.barrier()
        return rt.tracer

    def test_event_stream_structure(self):
        tracer = self._run_traced(tasks=4)
        counts = tracer.counts()
        assert counts[EventKind.TASK_ADDED] == 4
        assert counts[EventKind.TASK_START] == 4
        assert counts[EventKind.TASK_END] == 4
        assert counts[EventKind.BARRIER_ENTER] == counts[EventKind.BARRIER_EXIT]

    def test_intervals_and_makespan(self):
        tracer = self._run_traced(tasks=5)
        intervals = tracer.task_intervals()
        assert len(intervals) == 5
        for start, end, thread, name in intervals.values():
            assert end >= start
            assert thread >= 0
            assert name == "bump"
        assert analyze_tracer(tracer).makespan >= 0

    def test_busy_time_by_thread(self):
        report = analyze_tracer(self._run_traced(tasks=6))
        assert sum(u.busy for u in report.threads.values()) > 0
        assert sum(u.tasks for u in report.threads.values()) == 6

    def test_records_export(self):
        tracer = self._run_traced()
        records = list(tracer.to_records())
        assert len(records) == len(tracer.events)
        assert all(":" in r for r in records)

    def test_ascii_timeline(self):
        tracer = self._run_traced(tasks=4)
        art = tracer.ascii_timeline(width=40)
        assert "thr" in art
        assert "b" in art  # glyph = first letter of task name

    def test_ascii_timeline_empty(self):
        assert "no task intervals" in Tracer().ascii_timeline()

    def test_virtual_clock_injection(self):
        times = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(times)))
        tracer.barrier_enter()
        tracer.barrier_exit()
        assert [e.time for e in tracer.events] == [0.0, 1.0]


class TestUntraced:
    def test_untraced_runtime_has_no_tracer(self):
        """Tracing off is ``None`` everywhere: on the runtime and on
        every layer it hands a tracer to."""

        rt = SmpssRuntime(num_workers=1)
        assert rt.tracer is None
        with rt:
            assert rt.graph.tracer is rt.tracker.tracer is None
            assert rt.scheduler.tracer is None


class TestRenameAndWaitOnEvents:
    def test_war_rename_and_blocking_wait_on_are_traced(self):
        """A traced run with a WAR rename and a ``wait_on`` that really
        blocks: the three event kinds no other traced test produces."""

        from repro import wait_on
        from repro.obs.analyze import analyze_events

        main_is_waiting = threading.Event()

        @css_task("input(src) output(dst)")
        def slow_copy(src, dst):
            assert main_is_waiting.wait(30)
            dst[...] = src

        @css_task("output(a)")
        def overwrite(a):
            a[...] = 7.0

        def listener(event):
            if event.kind == EventKind.WAIT_ON_ENTER:
                main_is_waiting.set()

        src, dst = np.ones(4), np.zeros(4)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            rt.tracer.listener = listener
            slow_copy(src, dst)     # a reader of src, pending until ...
            overwrite(src)          # ... after this WAR write: renamed
            latest = wait_on(dst)   # blocks: slow_copy waits for *us*
            assert (np.asarray(latest) == 1.0).all()
            rt.barrier()
        assert (src == 7.0).all()
        counts = rt.tracer.counts()
        assert counts[EventKind.RENAME] == 1
        assert counts[EventKind.WAIT_ON_ENTER] == 1
        assert counts[EventKind.WAIT_ON_EXIT] == 1
        rename = rt.tracer.of_kind(EventKind.RENAME)[0]
        assert rename.task_name == "overwrite"
        assert rename.extra == ("ndarray", "fresh")
        assert analyze_events(rt.tracer.events).renames == 1


class TestTaskReadyThread:
    def test_task_ready_records_releasing_thread(self):
        class _Task:
            task_id, name = 7, "t"

        tracer = Tracer(clock=lambda: 0.0)
        tracer.task_ready(_Task())
        tracer.task_ready(_Task(), 2)
        ready = tracer.of_kind(EventKind.TASK_READY)
        assert [e.thread for e in ready] == [-1, 2]


class TestThreadLocalTracer:
    """The ring recorder: one ring per emitting thread, merged on read."""

    def test_same_interface_and_queries(self):

        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for _ in range(5):
                bump(a)
            rt.barrier()
        tracer = rt.tracer
        assert type(tracer) is Tracer
        counts = tracer.counts()
        assert counts[EventKind.TASK_START] == 5
        assert counts[EventKind.TASK_END] == 5
        assert len(tracer.task_intervals()) == 5
        report = analyze_tracer(tracer)
        assert report.total_busy > 0 and report.makespan >= 0
        assert tracer.to_paraver().startswith("#Paraver")

    def test_merge_is_time_ordered(self):
        tracer = Tracer()
        barrier = threading.Barrier(3)

        class _Task:
            task_id, name = 1, "t"

        def emit(thread_id):
            barrier.wait()
            for _ in range(200):
                tracer.task_start(_Task(), thread_id)
        threads = [
            threading.Thread(target=emit, args=(i,)) for i in (1, 2, 3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = tracer.events
        assert len(events) == 600
        times = [e.time for e in events]
        assert times == sorted(times)
        # All three buffers contributed.
        assert {e.thread for e in events} == {1, 2, 3}

    def test_ring_buffer_drops_oldest_and_counts(self):
        tracer = Tracer(clock=lambda: 0.0, capacity=4)

        class _Task:
            name = "t"

            def __init__(self, i):
                self.task_id = i

        for i in range(10):
            tracer.task_start(_Task(i), 0)
        assert len(tracer.events) == 4
        assert tracer.dropped_events == 6
        # The survivors are the *newest* events.
        assert [e.task_id for e in tracer.events] == [6, 7, 8, 9]

    def test_virtual_clock_injection(self):
        times = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(times)))
        tracer.barrier_enter()
        tracer.barrier_exit()
        assert [e.time for e in tracer.events] == [0.0, 1.0]
        # Swapping the clock afterwards (VirtualMachine.wire_tracer
        # style) affects subsequent events only.
        tracer.clock = lambda: 50.0
        tracer.write_back(1)
        assert tracer.events[-1].time == 50.0

    def test_per_thread_buffers_registered_lazily(self):
        tracer = Tracer()
        assert len(tracer._buffers) == 0
        tracer.barrier_enter()
        assert len(tracer._buffers) == 1

        def other():
            tracer.barrier_enter()

        t = threading.Thread(target=other)
        t.start()
        t.join()
        assert len(tracer._buffers) == 2


class TestIngestOutOfOrder:
    """Worker-ring batches land *after* the fact (mp replies ship them
    with the result), so their timestamps may predate events already in
    the stream.  Every time-ordered consumer must sort, not trust list
    order — a regression here silently drops Chrome-trace slices."""

    @staticmethod
    def _interval_events(task_id, name, start, end, thread):
        from repro.core.tracing import TraceEvent

        return [
            TraceEvent(time=start, kind=EventKind.TASK_START,
                       task_id=task_id, task_name=name, thread=thread),
            TraceEvent(time=end, kind=EventKind.TASK_END,
                       task_id=task_id, task_name=name, thread=thread),
        ]

    def _tracer_with_interleaved_rings(self, tracer):
        """Two worker rings ingested late, timestamps interleaved with
        (and preceding) an event the master already recorded."""

        tracer.clock = lambda: 10.0

        class _Task:
            task_id, name = 99, "master"

        tracer.task_start(_Task(), 0)
        tracer.clock = lambda: 11.0
        tracer.task_end(_Task(), 0)
        # Ring batches arrive afterwards but happened *earlier*; ring
        # two's interval nests inside ring one's wall-clock span.
        tracer.ingest(self._interval_events(1, "w1", 2.0, 6.0, 1))
        tracer.ingest(self._interval_events(2, "w2", 3.0, 5.0, 2))
        return tracer

    # Bounded rings (a runtime's) and unbounded ones (the replay's).
    _FACTORIES = pytest.mark.parametrize(
        "factory", [Tracer, lambda: Tracer(capacity=None)],
        ids=["Tracer", "unbounded"],
    )

    @_FACTORIES
    def test_task_intervals_survive_late_batches(self, factory):
        tracer = self._tracer_with_interleaved_rings(factory())
        intervals = tracer.task_intervals()
        assert intervals[1] == (2.0, 6.0, 1, "w1")
        assert intervals[2] == (3.0, 5.0, 2, "w2")
        assert intervals[99] == (10.0, 11.0, 0, "master")

    @_FACTORIES
    def test_chrome_export_is_time_ordered(self, factory):
        from repro.obs.export import to_chrome_trace

        tracer = self._tracer_with_interleaved_rings(factory())
        # The list order a late batch lands in, not the merged order.
        events = [e for ring in tracer._buffers for e in ring.events]
        doc = to_chrome_trace(events)
        slices = [r for r in doc["traceEvents"] if r["ph"] in ("B", "E")]
        # Globally time-sorted, so each tid's sub-sequence is too and
        # Chrome's B/E matching never sees an E before its B.
        assert [r["ts"] for r in slices] == sorted(r["ts"] for r in slices)
        opened = {}
        for record in slices:
            key = record["args"]["task_id"]
            if record["ph"] == "B":
                opened[key] = record["ts"]
            else:
                assert key in opened, "E before B would drop the slice"
                assert record["ts"] >= opened.pop(key)
        assert not opened
        # All three intervals survived as slices (2 records each).
        assert len(slices) == 6
