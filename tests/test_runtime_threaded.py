"""End-to-end tests of the threaded runtime (sections II-III)."""

import threading
import time

import numpy as np
import pytest
import scipy.linalg as sla

from repro import (
    SmpssRuntime,
    TaskExecutionError,
    css_task,
    current_runtime,
    wait_on,
)
from repro.core.scheduler import CentralQueueScheduler
from repro.obs import analyze_tracer


@css_task("input(a, b) output(c)")
def add_t(a, b, c):
    np.add(a, b, out=c)


@css_task("inout(a)")
def incr_t(a):
    a += 1


@css_task("input(a) inout(acc)")
def accum_t(a, acc):
    acc += a


@css_task("inout(data{lo..hi}) input(lo, hi)")
def slow_fill_t(data, lo, hi):
    time.sleep(0.2)
    data[lo:hi + 1] = 7


class TestBasics:
    def test_single_task(self):
        a = np.ones(8)
        b = np.full(8, 2.0)
        c = np.zeros(8)
        with SmpssRuntime(num_workers=2) as rt:
            add_t(a, b, c)
            rt.barrier()
        assert (c == 3.0).all()

    def test_sequential_fallback_without_runtime(self):
        a = np.ones(4)
        incr_t(a)  # no runtime active: plain call
        assert (a == 2.0).all()

    def test_chain_order_preserved(self):
        a = np.zeros(1)
        with SmpssRuntime(num_workers=3) as rt:
            for _ in range(50):
                incr_t(a)
            rt.barrier()
        assert a[0] == 50

    def test_runtime_visible_inside_context(self):
        with SmpssRuntime(num_workers=1) as rt:
            assert current_runtime() is rt
        assert current_runtime() is None

    def test_barrier_then_more_work(self):
        a = np.zeros(1)
        with SmpssRuntime(num_workers=2) as rt:
            incr_t(a)
            rt.barrier()
            assert a[0] == 1
            incr_t(a)
            rt.barrier()
            assert a[0] == 2

    def test_stats_exposed(self):
        a = np.zeros(1)
        with SmpssRuntime(num_workers=1) as rt:
            incr_t(a)
            rt.barrier()
            stats = rt.stats()
        assert stats["tasks_executed"] == 1
        # After the barrier the graph holds no live task (keep_graph is
        # off), which makes it falsy — its stats must still be there.
        assert stats["graph"].total_tasks == 1
        assert stats["scheduler"].pushed_new == 1


class TestRenamingSemantics:
    def test_war_renaming_preserves_reader_value(self):
        """A reader pending when the datum is overwritten must still see
        the old value — the core renaming guarantee."""

        src = np.zeros(64)
        sink = [np.zeros(64) for _ in range(20)]
        zero = np.zeros(64)
        with SmpssRuntime(num_workers=3) as rt:
            for i in range(20):
                # read src into sink[i], then immediately clobber src.
                add_t(src, zero, sink[i])
                incr_t(src)
            rt.barrier()
        # sink[i] must have captured src after exactly i increments.
        for i, out in enumerate(sink):
            assert (out == float(i)).all(), f"reader {i} saw {out[0]}"
        assert (src == 20.0).all()  # write-back restored the final value

    def test_inout_accumulation_correct_under_parallelism(self):
        acc = np.zeros(4)
        ones = np.ones(4)
        with SmpssRuntime(num_workers=3) as rt:
            for _ in range(30):
                accum_t(ones, acc)
            rt.barrier()
        assert (acc == 30.0).all()


class TestNumericalApps:
    def test_threaded_cholesky_matches_scipy(self):
        from repro.apps.cholesky import cholesky_flat

        size, m = 128, 32
        rng = np.random.default_rng(3)
        x = rng.standard_normal((size, size))
        spd = (x @ x.T + size * np.eye(size)).astype(np.float64)
        work = np.array(spd)
        with SmpssRuntime(num_workers=3) as rt:
            cholesky_flat(work, m)
            rt.barrier()
        expected = sla.cholesky(spd, lower=True)
        assert np.allclose(np.tril(work), expected, atol=1e-8)

    def test_threaded_strassen_matches_numpy(self):
        from repro.apps.strassen import strassen_multiply
        from repro.blas.hypermatrix import HyperMatrix

        a = HyperMatrix.random(4, 8, np.float64, seed=1)
        b = HyperMatrix.random(4, 8, np.float64, seed=2)
        c = HyperMatrix.zeros(4, 8, np.float64)
        with SmpssRuntime(num_workers=2) as rt:
            strassen_multiply(a, b, c)
            rt.barrier()
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense(), atol=1e-9)

    def test_threaded_multisort(self):
        from repro.apps.multisort import multisort

        rng = np.random.default_rng(7)
        data = rng.standard_normal(4096).astype(np.float32)
        expected = np.sort(data)
        with SmpssRuntime(num_workers=3):
            multisort(data, quicksize=128)
        assert (data == expected).all()

    def test_threaded_nqueens(self):
        from repro.apps.nqueens import KNOWN_SOLUTIONS, nqueens_smpss_count

        with SmpssRuntime(num_workers=3):
            count = nqueens_smpss_count(8)
        assert count == KNOWN_SOLUTIONS[8]

    def test_threaded_lu_regions(self):
        from repro.apps.lu import lu_blocked, lu_reconstruct

        rng = np.random.default_rng(11)
        original = rng.standard_normal((48, 48))
        work = np.array(original)
        with SmpssRuntime(num_workers=2):
            ipiv = lu_blocked(work, 12)
        assert np.allclose(lu_reconstruct(work, ipiv), original, atol=1e-9)


class TestErrorHandling:
    def test_task_exception_raised_at_barrier(self):
        @css_task("inout(a)")
        def boom(a):  # noqa: ARG001
            raise ValueError("kaput")

        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=2)
        rt.start()
        try:
            boom(a)
            with pytest.raises(TaskExecutionError, match="boom"):
                rt.barrier()
        finally:
            with pytest.raises(TaskExecutionError):
                rt.shutdown()

    def test_submit_after_failure_raises(self):
        @css_task("inout(a)")
        def boom(a):  # noqa: ARG001
            raise RuntimeError("no")

        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=1)
        rt.start()
        try:
            boom(a)
            with pytest.raises(TaskExecutionError):
                rt.barrier()
        finally:
            try:
                rt.shutdown()
            except TaskExecutionError:
                pass

    def test_workers_joined_after_shutdown(self):
        before = threading.active_count()
        rt = SmpssRuntime(num_workers=3)
        rt.start()
        rt.shutdown()
        assert threading.active_count() == before


class TestBlockingConditions:
    def test_graph_size_window(self):
        """The main thread helps when the graph exceeds the limit."""

        a = np.zeros(1)
        with SmpssRuntime(num_workers=1, max_pending_tasks=5) as rt:
            for _ in range(100):
                incr_t(a)
            assert rt.graph.pending_count <= 6
            rt.barrier()
        assert a[0] == 100

    def test_wait_for_single_task(self):
        a = np.zeros(1)
        with SmpssRuntime(num_workers=2) as rt:
            t = incr_t(a)
            rt.wait_for(t)
            assert t.state.value == "finished"
            rt.barrier()

    def test_acquire_returns_latest_storage(self):
        a = np.zeros(4)
        with SmpssRuntime(num_workers=2) as rt:
            incr_t(a)
            latest = rt.acquire(a)
            assert (latest == 1.0).all()
            rt.barrier()

    def test_wait_on_waits_for_every_region_writer(self):
        # Data only ever accessed by region has no whole-object chain.
        a = np.zeros(8)
        with SmpssRuntime(num_workers=2):
            slow_fill_t(a, 0, 3)
            slow_fill_t(a, 4, 7)
            assert wait_on(a) is a
            assert (a == 7).all()

    def test_acquire_untracked_object(self):
        with SmpssRuntime(num_workers=1) as rt:
            obj = np.zeros(2)
            assert rt.acquire(obj) is obj


class TestSchedulerSwap:
    def test_central_queue_ablation_still_correct(self):
        a = np.zeros(1)
        with SmpssRuntime(
            num_workers=2, scheduler_factory=CentralQueueScheduler
        ) as rt:
            for _ in range(20):
                incr_t(a)
            rt.barrier()
        assert a[0] == 20

    def test_renaming_disabled_still_correct(self):
        src = np.zeros(8)
        sinks = [np.zeros(8) for _ in range(10)]
        zero = np.zeros(8)
        with SmpssRuntime(num_workers=2, enable_renaming=False) as rt:
            for i in range(10):
                add_t(src, zero, sinks[i])
                incr_t(src)
            rt.barrier()
        for i, out in enumerate(sinks):
            assert (out == float(i)).all()


class TestTracing:
    def test_trace_events_recorded(self):
        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=1, trace=True)
        with rt:
            incr_t(a)
            incr_t(a)
            rt.barrier()
        counts = rt.tracer.counts()
        assert counts["task_added"] == 2
        assert counts["task_start"] == 2
        assert counts["task_end"] == 2
        assert counts["barrier_enter"] >= 1
        intervals = rt.tracer.task_intervals()
        assert len(intervals) == 2
        assert analyze_tracer(rt.tracer).makespan > 0

    def test_end_event_and_count_land_before_completion(self, monkeypatch):
        """A task's task_end is written and the task counted before the
        completion that can let a barrier return."""

        from repro.core.execution import GraphDomain
        from repro.core.tracing import EventKind

        seen = []
        complete = GraphDomain.complete

        def probing(domain, task, *args):
            ended = {event.task_id for event in rt.tracer.events
                     if event.kind == EventKind.TASK_END}
            seen.append((task.task_id in ended, rt.tasks_executed))
            return complete(domain, task, *args)

        monkeypatch.setattr(GraphDomain, "complete", probing)
        a = np.zeros(1)
        rt = SmpssRuntime(num_workers=1, trace=True)
        with rt:
            for _ in range(5):
                incr_t(a)
            rt.barrier()
        assert seen == [(True, k) for k in range(1, 6)]


@css_task("output(a)")
def fill_one_t(a):
    a[0] = 1.0


def test_submit_call_pin():
    """1 000 whole-data submits of independent tasks, each ready at
    submission, make exactly 3 000 Python-level calls from
    ``SmpssRuntime.submit`` itself: the plan's ``instantiate``, the
    domain's ``analyze`` and the worker loop's ``release``.  The
    analysis histogram is written inline and the graph's pending count
    read as a field; barrier, ``wait_on`` and ``wait_for`` live in
    ``repro.core.frontend``, and the hot path pays nothing for them.
    A count, not a timing (CI's bench-gate job).
    """

    import gc
    import sys

    submit = SmpssRuntime.submit.__code__
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_back is not None \
                and frame.f_back.f_code is submit:
            calls.append(frame.f_code.co_name)

    arrays = [np.zeros(1) for _ in range(1000)]
    outer = sys.getprofile()    # a coverage tool's hook, say: put back
    collecting = gc.isenabled()
    with SmpssRuntime(num_workers=1) as rt:
        fill_one_t(np.zeros(1))     # the invocation plan is built once
        # A collection inside the loop finalises garbage (a suspended
        # generator's close is a "call") on submit's frame: none there.
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            for a in arrays:
                fill_one_t(a)
        finally:
            sys.setprofile(outer)
            if collecting:
                gc.enable()
        rt.barrier()
    assert len(calls) == 3000, sorted(set(calls))
    assert all((a == 1.0).all() for a in arrays)


#: Lets ``hold_t`` return (a module global: the body sleeps on it
#: without a Python call, so a profile sees nothing while it waits).
_HOLD: list = []


@css_task("inout(a)")
def hold_t(a):
    while not _HOLD:
        time.sleep(0.001)


def _held(rt, a) -> None:
    """Submit a ``hold_t`` on *a* and return once a worker runs it."""

    _HOLD.clear()
    hold_t(a)
    while not any(task is not None and task.name == "hold_t"
                  for task in rt._current):
        time.sleep(0.001)


def test_task_call_pin():
    """1 000 whole-data tasks, each ready at submission, cost exactly 25
    Python-level calls each over both threads on ``num_workers=1``.
    17 on the main thread: the ``@css_task`` wrapper, ``in_task_body``,
    ``submit``, ``instantiate``, ``TaskInstance.__init__``, the domain's
    and the tracker's ``analyze``, ``add_task``, ``_analyze_whole``, a
    new datum's ``TrackedDatum.__init__``, ``adapter_for``,
    ``whole_chain``, ``_Chain.__init__`` and two ``Version.__init__``,
    ``release`` and ``push_new``.  8 on the worker: ``_execute``, the
    backend's ``run``, ``resolve_call_values``, the body, the domain's
    and the graph's ``complete``, and the fused ``pop`` with its
    ``_select``.  The per-task histograms are written inline, no
    notify goes out (nobody sleeps), and the worker takes each next
    task in the section that publishes the last.  The worker is held in
    a body while the main thread submits, then runs the 1 000 back to
    back and parks: the count ends at its ``Condition.wait``.  A count,
    not a timing (CI's bench-gate job); it may only fall.
    """

    import gc
    import sys

    wait = threading.Condition.wait.__code__
    calls = []
    counting = [False]

    def profile(frame, event, _arg):
        if event == "call" and counting[0]:
            calls.append(frame.f_code.co_name)
            if frame.f_code is wait:
                counting[0] = False  # the worker parks: the run is over

    arrays = [np.zeros(1) for _ in range(1000)]
    outer = sys.getprofile()
    outer_threads = threading.getprofile()
    collecting = gc.isenabled()
    threading.setprofile(profile)   # the worker thread starts with it
    try:
        with SmpssRuntime(num_workers=1) as rt:
            # Plans and per-task histograms are built once, before.
            _HOLD.append(True)
            fill_one_t(np.zeros(1))
            hold_t(np.zeros(1))
            rt.barrier()
            _held(rt, np.zeros(1))
            gc.collect()
            gc.disable()
            counting[0] = True
            sys.setprofile(profile)
            try:
                for a in arrays:
                    fill_one_t(a)
            finally:
                sys.setprofile(outer)
            _HOLD.append(True)
            while counting[0]:
                time.sleep(0.001)
            rt.barrier()
    finally:
        threading.setprofile(outer_threads)
        counting[0] = False
        if collecting:
            gc.enable()
    # Outside the 1 000: the held task's completion (the domain's and
    # the graph's complete, a reader prune), the last task's pop that
    # finds none, and the park (the condition's enter, a pop, its wait).
    assert len(calls) == 25 * 1000 + 7, sorted(set(calls))
    assert all((a == 1.0).all() for a in arrays)


def _gate(rt):
    """A paused dispatch gate installed on *rt*'s scheduler."""

    from repro.core.scheduler import DispatchGate

    gate = DispatchGate()
    gate.bind(rt._sched_lock, rt._sched_cv, rt._main_cv)
    gate.install(rt.scheduler)
    return gate


#: What the bodies below ran, in order (untracked: no edge between them).
_ORDER: list = []


@css_task("inout(a) highpriority")
def urgent_t(a):
    _ORDER.append("urgent")


@css_task("inout(a)")
def next_t(a):
    _ORDER.append("next")


@css_task("input(a) output(b)")
def slow_copy_t(a, b):
    time.sleep(0.2)
    b[:] = a


def _wait_until(predicate, timeout=10.0):
    limit = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < limit, "timed out"
        time.sleep(0.001)


class TestFusedPop:
    """A worker publishes a completion and pops its next task in one
    scheduler-lock section; the pop is the scheduler's, gate included."""

    def test_paused_gate_keeps_the_released_successor(self):
        a = np.zeros(1)
        with SmpssRuntime(num_workers=1) as rt:
            _held(rt, a)
            incr_t(a)                   # released by the held task
            gate = _gate(rt)
            gate.pause()
            _HOLD.append(True)
            _wait_until(lambda: rt._loop._parked == 1)
            assert rt.tasks_executed == 1
            assert rt.scheduler.queue_depths()["locals"][1] == 1
            gate.resume()
            rt.barrier()
            assert rt.tasks_executed == 2
        assert a[0] == 1

    def test_high_priority_before_own_lifo_successor(self):
        a, b = np.zeros(1), np.zeros(1)
        _ORDER.clear()
        with SmpssRuntime(num_workers=1) as rt:
            _held(rt, a)
            follow = next_t(a)      # the held task releases it: own list
            urgent = urgent_t(b)    # released by the main thread: high
            _HOLD.append(True)
            # The main thread stays out of it until the worker is done.
            _wait_until(lambda: rt.tasks_executed == 3)
            rt.barrier()
        assert _ORDER == ["urgent", "next"]
        assert urgent.executed_by == follow.executed_by == 1

    def test_a_released_task_not_taken_wakes_a_parked_worker(self):
        a, b, c = np.zeros(1), np.zeros(1), np.zeros(1)
        with SmpssRuntime(num_workers=2) as rt:
            _held(rt, a)
            _wait_until(lambda: rt._loop._parked == 1)
            first, second = slow_copy_t(a, b), slow_copy_t(a, c)
            _HOLD.append(True)   # releases both: one taken, one woken for
            _wait_until(lambda: rt.tasks_executed == 3)
            assert {first.executed_by, second.executed_by} == {1, 2}
            rt.barrier()

    def test_stop_workers_leaves_queued_tasks_queued(self):
        a, b = np.zeros(1), np.zeros(1)
        with SmpssRuntime(num_workers=1) as rt:
            _held(rt, a)
            incr_t(a)        # released to the worker by the held task
            incr_t(b)        # ready now, in the main list
            stopper = threading.Thread(target=rt._loop.stop_workers)
            stopper.start()
            _wait_until(lambda: rt._loop._stop)
            _HOLD.append(True)
            stopper.join()
            assert rt.tasks_executed == 1
            assert rt.scheduler.ready_count == 2
            rt.barrier()     # the main thread runs what stayed queued
            assert rt.tasks_executed == 3
        assert a[0] == 1 and b[0] == 1
