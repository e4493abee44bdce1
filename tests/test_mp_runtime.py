"""End-to-end tests of the process backend (repro.mp).

Everything the threaded runtime guarantees must hold bit-for-bit under
``backend="processes"``: dependency order, renaming, regions, error
propagation, tracing.  On top of that the backend adds its own
contracts — transparent arena shipping, heap arrays resident in the
arena from their first dispatch to the barrier, pickle+write-back for
lists, one automatic re-dispatch after a worker death, and clean
shared-memory teardown — which are what this module pins down.
"""

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro import (
    RuntimeConfig,
    SharedArena,
    SmpssRuntime,
    TaskExecutionError,
    arena_array,
    css_task,
    wait_on,
)
from repro.apps.cholesky import cholesky_hyper
from repro.apps.matmul import matmul_dense
from repro.blas.hypermatrix import HyperMatrix
from repro.core.config import resolve_config
from repro.core.scheduler import DispatchGate
from repro.mp import (
    RemoteTaskError,
    WorkerLostError,
    leaked_segment_files,
)

pytestmark = pytest.mark.mp


# ---------------------------------------------------------------------------
# task definitions (module level so workers resolve them by name)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def gemm_t(a, b, c):
    c += a @ b


@css_task("inout(a)")
def incr_t(a):
    a += 1


@css_task("input(a, b) output(c)")
def add_t(a, b, c):
    np.add(a, b, out=c)


@css_task("input(c) inout(acc)")
def accum_t(c, acc):
    acc += c


@css_task("inout(a)")
def potrf_t(a):
    n = a.shape[0]
    for j in range(n):
        a[j, j] = np.sqrt(a[j, j] - a[j, :j] @ a[j, :j])
        for i in range(j + 1, n):
            a[i, j] = (a[i, j] - a[i, :j] @ a[j, :j]) / a[j, j]
    a[np.triu_indices(n, 1)] = 0.0


@css_task("inout(data{i..j}) input(i, j, v)")
def fill_region_t(data, i, j, v):
    data[i:j + 1] = v


@css_task("inout(data{lo..hi}) input(lo, hi)")
def slow_fill_t(data, lo, hi):
    time.sleep(0.2)
    data[lo:hi + 1] = 7


@css_task("inout(xs)")
def double_list_t(xs):
    for k in range(len(xs)):
        xs[k] *= 2


@css_task("input(x)")
def boom_t(x):
    raise ValueError(f"kaboom {x}")


@css_task("opaque(p) input(n)")
def opaque_write_t(p, n):
    p[:n] = 1.0


@css_task("inout(flag{k..k}, out{k..k}) input(k)")
def die_once_t(flag, out, k):
    if flag[k] == 0:
        flag[k] = 1
        os.kill(os.getpid(), signal.SIGKILL)
    out[k] = 2 * k


@css_task("input(x)")
def always_die_t(x):
    os.kill(os.getpid(), signal.SIGKILL)


@css_task("input(c, k) inout(acc, flag{k..k})")
def accum_or_die_t(c, acc, flag, k):
    """Not idempotent.  ``flag[k]`` 0: kill the worker once, before
    accumulating; 2: kill it every time; 1: just accumulate."""

    state = flag[k]
    if state == 0:
        flag[k] = 1
    if state != 1:
        os.kill(os.getpid(), signal.SIGKILL)
    acc += c


@css_task("inout(a) highpriority")
def urgent_incr_t(a):
    a += 1


@css_task("inout(a)")
def slow_incr_t(a):
    start = time.perf_counter()
    while time.perf_counter() - start < 1e-3:
        pass
    a += 1


@css_task("input(x) inout(a)")
def incr_or_boom_t(x, a):
    if x < 0:
        raise ValueError(f"kaboom {x}")
    a += x


def _sequential_gemm_chain(a, b, c, rounds):
    for _ in range(rounds):
        c += a @ b


# ---------------------------------------------------------------------------
# configuration surface
# ---------------------------------------------------------------------------

class TestConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            resolve_config(None, {"backend": "fibers"})

    def test_sanitize_plus_processes_rejected_with_hint(self):
        with pytest.raises(
            TypeError, match="sanitizer guards thread-backend views only"
        ):
            resolve_config(None, {"backend": "processes", "sanitize": True})

    def test_sanitize_plus_processes_rejected_via_runtime(self):
        with pytest.raises(TypeError, match="thread-backend"):
            SmpssRuntime(num_workers=2, backend="processes", sanitize=True)

    def test_config_object_path_also_validated(self):
        cfg = RuntimeConfig(backend="processes", sanitize=True)
        with pytest.raises(TypeError, match="sanitize"):
            resolve_config(cfg, {})


# ---------------------------------------------------------------------------
# backend parity: bitwise-identical results
# ---------------------------------------------------------------------------

def _run_gemm(backend, a_src, b_src, rounds=4):
    with SharedArena() as arena:
        a = arena.array(a_src)
        b = arena.array(b_src)
        c = arena.zeros(a_src.shape)
        with SmpssRuntime(num_workers=2, backend=backend) as rt:
            for _ in range(rounds):
                gemm_t(a, b, c)
            rt.barrier()
        return np.array(c)


def _run_cholesky(backend, spd):
    with SharedArena() as arena:
        w = arena.array(spd)
        with SmpssRuntime(num_workers=2, backend=backend) as rt:
            potrf_t(w)
            rt.barrier()
        return np.array(w)


def _run_blocked(backend, program, *matrices):
    """A multi-tile app on copies of *matrices*; returns the last one's
    dense image (the app's output operand)."""

    work = [hm.copy() for hm in matrices]
    with SmpssRuntime(num_workers=2, backend=backend) as rt:
        program(*work)
        rt.barrier()
    return work[-1].to_dense()


class TestBackendParity:
    def test_matmul_bitwise_identical(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        threads = _run_gemm("threads", a, b)
        processes = _run_gemm("processes", a, b)
        assert np.array_equal(threads, processes)
        expect = np.zeros_like(a)
        _sequential_gemm_chain(a, b, expect, 4)
        assert np.allclose(processes, expect)
        # blocked: 27 gemm tiles, nine 3-deep accumulation chains
        hms = (HyperMatrix.random(3, 8, seed=1), HyperMatrix.random(3, 8, seed=2),
               HyperMatrix.zeros(3, 8))
        blocked = _run_blocked("processes", matmul_dense, *hms)
        assert np.array_equal(_run_blocked("threads", matmul_dense, *hms), blocked)
        assert np.allclose(blocked, hms[0].to_dense() @ hms[1].to_dense(), atol=1e-4)

    def test_cholesky_bitwise_identical(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((16, 16))
        spd = g @ g.T + 16 * np.eye(16)
        threads = _run_cholesky("threads", spd)
        processes = _run_cholesky("processes", spd)
        assert np.array_equal(threads, processes)
        assert np.allclose(processes @ processes.T, spd)
        # blocked: the Fig. 4 graph (potrf / trsm / syrk / gemm tiles)
        hm = HyperMatrix.random_spd(4, 8, seed=3)
        blocked = _run_blocked("processes", cholesky_hyper, hm)
        assert np.array_equal(_run_blocked("threads", cholesky_hyper, hm), blocked)
        factor = np.tril(blocked)
        assert np.allclose(factor @ factor.T, hm.to_dense(), atol=1e-3)

    def test_dependency_chain_order(self):
        with SharedArena() as arena:
            a = arena.zeros((1,))
            with SmpssRuntime(num_workers=3, backend="processes") as rt:
                for _ in range(25):
                    incr_t(a)
                rt.barrier()
            assert a[0] == 25

    def test_wait_for_under_processes(self):
        with SharedArena() as arena:
            a = arena.zeros((4,))
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                t = incr_t(a)
                rt.wait_for(t)
                assert (np.array(a) == 1.0).all()
                rt.barrier()

    def test_wait_for_brings_a_heap_array_home(self):
        a = np.zeros(4)
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            rt.wait_for(incr_t(a))
            assert (a == 1.0).all()
            a[:] = 5.0                      # the program's turn to write
            rt.wait_for(incr_t(a))
            assert (a == 6.0).all()
            rt.barrier()
        assert (a == 6.0).all()


# ---------------------------------------------------------------------------
# heap storage: arrays copied into the arena once, lists by write-back
# ---------------------------------------------------------------------------

class TestWriteBack:
    def test_plain_ndarrays_round_trip(self):
        # No arena in the program: the backend's own holds the copies.
        a = np.ones((8, 8))
        b = np.full((8, 8), 2.0)
        c = np.zeros((8, 8))
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            add_t(a, b, c)
            rt.barrier()
        assert (c == 3.0).all()

    def test_war_renaming_with_pickled_buffers(self):
        # The core renaming guarantee under the process backend: a
        # reader pending when the datum is overwritten must still see
        # the old value.  Renamed buffers are master-allocated plain
        # arrays, so each generation is copied into the arena when its
        # producer ships, and cloned from its predecessor's copy.
        src = np.zeros(16)
        sink = [np.zeros(16) for _ in range(12)]
        zero = np.zeros(16)
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            for i in range(12):
                add_t(src, zero, sink[i])
                incr_t(src)
            rt.barrier()
        for i, out in enumerate(sink):
            assert (out == float(i)).all(), f"reader {i} saw {out[0]}"
        assert (src == 12.0).all()

    def test_region_writeback_merges_disjoint_writes(self):
        data = np.zeros(32)
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            fill_region_t(data, 0, 15, 3.0)
            fill_region_t(data, 16, 31, 5.0)
            rt.barrier()
        assert (data[:16] == 3.0).all()
        assert (data[16:] == 5.0).all()

    def test_list_writeback(self):
        xs = [1, 2, 3, 4]
        with SmpssRuntime(num_workers=1, backend="processes") as rt:
            double_list_t(xs)
            rt.barrier()
        assert xs == [2, 4, 6, 8]

    def test_scalars_ship_by_pickle(self):
        data = np.zeros(8)
        with SmpssRuntime(num_workers=1, backend="processes") as rt:
            fill_region_t(data, 2, 5, 9.0)
            rt.barrier()
        assert (data[2:6] == 9.0).all()
        assert data[0] == 0.0 and data[6] == 0.0


@css_task("input(a) output(b)")
def copy_t(a, b):
    b[...] = a


def _bytes_sent(monkeypatch) -> list:
    """The size of each ``Connection.send_bytes`` message from now on."""

    sizes = []
    send_bytes = Connection.send_bytes

    def counting(self, buf, *args, **kwargs):
        sizes.append(len(buf))
        return send_bytes(self, buf, *args, **kwargs)

    monkeypatch.setattr(Connection, "send_bytes", counting)
    return sizes


@css_task("inout(token) input(a) inout(b)")
def ordered_accum_t(token, a, b):
    b += a


def _views_program(backend):
    """Tasks on overlapping and reversed views of one heap buffer and
    of one arena block, put in order by one shared datum: every view
    must see the writes made through the others."""

    with SharedArena() as arena:
        heap = np.arange(24.0)
        block = arena.array(np.arange(24.0))
        token, one = np.zeros(1), np.ones(24)
        with SmpssRuntime(num_workers=2, backend=backend) as rt:
            for data in (heap, block):
                ordered_accum_t(token, one[:12], data[:12])
                ordered_accum_t(token, one, data[::-1])
                ordered_accum_t(token, data[:12], data[12:])
                ordered_accum_t(token, data[12:], data[6:18])
            rt.barrier()
        return heap.copy(), np.array(block)


class TestResidency:
    """A heap array is copied into the arena at its first dispatch and
    travels by handle until the barrier copies it home."""

    def test_views_of_one_buffer_share_one_copy(self):
        want = _views_program("threads")
        got = _views_program("processes")
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_heap_records_are_as_small_as_arena_ones(self, monkeypatch):
        """A 32x32 float64 tile pickled would be an 8 KiB record; as a
        handle into its arena copy it is the size of an arena tile's."""

        def sent(make):
            src = make(np.ones((32, 32)))
            accs = [make(np.zeros((32, 32))) for _ in range(8)]
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                accum_t(src, accs[0])
                rt.barrier()
                sizes = _bytes_sent(monkeypatch)
                for _ in range(4):
                    for acc in accs:
                        accum_t(src, acc)
                rt.barrier()
                monkeypatch.undo()
            assert all((acc == 4 + (acc is accs[0])).all() for acc in accs)
            return sum(sizes)

        with SharedArena() as arena:
            shared = sent(arena.array)
        heap = sent(np.array)
        assert heap <= 1.1 * shared, (heap, shared)
        assert heap < 32 * 8 * 1024  # not one tile's bytes per task

    def test_wait_on_reads_and_hands_back_a_heap_array(self):
        a = np.zeros(4)
        out = np.zeros(4)
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            incr_t(a)
            assert (wait_on(a) == 1.0).all()
            a[:] = 10.0                     # the program's turn to write
            incr_t(a)
            copy_t(a, out)
            rt.barrier()
        assert (a == 11.0).all() and (out == 11.0).all()

    def test_wait_on_waits_for_region_writers_and_copies_home(self):
        a = np.zeros(8)
        with SmpssRuntime(num_workers=2, backend="processes"):
            slow_fill_t(a, 0, 3)
            slow_fill_t(a, 4, 7)
            assert wait_on(a) is a
            assert (a == 7).all()

    def test_barrier_frees_the_copies_for_reuse(self):
        # 30 rounds of 1 MiB would fill two 16 MiB segments unreused.
        with SmpssRuntime(num_workers=1, backend="processes") as rt:
            residency = rt.backend._residency
            for k in range(30):
                tile = np.full((128, 1024), float(k))
                incr_t(tile)
                rt.barrier()
                assert tile[0, 0] == k + 1
                assert residency._copies == {}
            assert len(residency._arena.segment_names) == 1
        assert residency._arena is None


# ---------------------------------------------------------------------------
# failure propagation
# ---------------------------------------------------------------------------

class TestErrors:
    def test_remote_exception_becomes_task_execution_error(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                boom_t(3)
                rt.barrier()
        cause = excinfo.value.__cause__
        assert isinstance(cause, RemoteTaskError)
        assert cause.exc_type == "ValueError"
        assert "kaboom 3" in str(cause)
        assert "remote traceback" in str(cause)

    def test_opaque_heap_ndarray_writes_through(self):
        # The paper's void* idiom on a plain array: the tracker ignores
        # the parameter, and the write still reaches the program.
        p = np.zeros(8)
        with SmpssRuntime(num_workers=1, backend="processes") as rt:
            opaque_write_t(p, 4)
            rt.barrier()
        assert (p[:4] == 1.0).all() and (p[4:] == 0.0).all()

    def test_opaque_arena_ndarray_writes_through(self):
        with SharedArena() as arena:
            p = arena.zeros((8,))
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                opaque_write_t(p, 4)
                rt.barrier()
            assert (np.array(p[:4]) == 1.0).all()
            assert (np.array(p[4:]) == 0.0).all()


# ---------------------------------------------------------------------------
# dead-worker recovery
# ---------------------------------------------------------------------------

class TestWorkerLoss:
    def test_killed_worker_task_redispatched_once(self):
        with SharedArena() as arena:
            flag = arena.zeros((1,), np.int64)
            out = arena.zeros((1,), np.int64)
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                die_once_t(flag, out, 0)
                rt.barrier()
                deaths = rt.metrics.counter("mp.worker_deaths").value
                redispatched = rt.metrics.counter(
                    "mp.redispatched_tasks"
                ).value
            assert out[0] == 0
            assert flag[0] == 1
            assert deaths == 1
            assert redispatched == 1

    def test_second_loss_raises_naming_task_and_worker(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                always_die_t(1)
                rt.barrier()
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerLostError)
        assert "always_die_t" in str(cause)
        assert "worker" in str(cause)

    def test_runtime_survives_a_loss_and_keeps_working(self):
        with SharedArena() as arena:
            flag = arena.zeros((1,), np.int64)
            out = arena.zeros((1,), np.int64)
            a = arena.zeros((1,))
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                die_once_t(flag, out, 0)
                rt.barrier()
                for _ in range(10):
                    incr_t(a)
                rt.barrier()
            assert a[0] == 10

    def test_stress_loop_with_sporadic_kills(self):
        # One runtime, 100 tasks, every 10th killed once mid-task.
        # Deterministic: the kill decision lives in arena memory, so the
        # re-dispatched attempt sees flag==1 and completes.
        n = 100
        with SharedArena() as arena:
            flag = arena.zeros((n,), np.int64)
            out = arena.zeros((n,), np.int64)
            flag[:] = 1
            flag[::10] = 0
            names = list(arena.segment_names)
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                for k in range(n):
                    die_once_t(flag, out, k)
                rt.barrier()
                deaths = rt.metrics.counter("mp.worker_deaths").value
            # Killed tasks re-ran with the flag already set in shared
            # memory, so every slot holds its final value.
            assert np.array_equal(np.array(out), 2 * np.arange(n))
            assert deaths == 10
        leaked = leaked_segment_files()
        assert not any(name in leaked for name in names)


def _dispatcher_fault(monkeypatch):
    """Make the dispatcher's next completion raise, once: an exception
    escaping its loop, as a master-side bug would."""

    from repro.core.execution import WorkerLoop

    retire = WorkerLoop._retire
    raised = []

    def once(loop, done):
        if not raised:
            raised.append(done)
            raise RuntimeError("injected dispatcher fault")
        return retire(loop, done)

    monkeypatch.setattr(WorkerLoop, "_retire", once)


def _barrier_within(rt, seconds=10.0):
    """``rt.barrier()``, failed with :class:`TimeoutError` rather than
    hung when it has not returned within *seconds*."""

    def expire():
        rt.domain.fail(TimeoutError(f"barrier still waiting after {seconds}s"))
        with rt._sched_lock:
            rt._main_cv.notify_all()

    watchdog = threading.Timer(seconds, expire)
    watchdog.start()
    try:
        rt.barrier()
    finally:
        watchdog.cancel()
        watchdog.join()


class TestDispatcherDeath:
    def test_a_dying_dispatcher_fails_the_barrier(self, monkeypatch):
        _dispatcher_fault(monkeypatch)
        cells = [np.zeros(2) for _ in range(6)]
        with pytest.raises(RuntimeError, match="injected dispatcher fault"):
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                for cell in cells:
                    incr_t(cell)
                _barrier_within(rt)
        assert not rt._loop._threads[0].is_alive()
        assert all(not link.pending for link in rt.backend.links)

    def test_a_turn_serves_own_lists_before_stealing(self):
        # The one ready task is on worker 2's list: worker 1, idle in the
        # same turn, must not steal it.
        with SharedArena() as arena:
            cell = arena.zeros((1,))
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                rt.scheduler.placement = lambda task: 2
                with _hold(rt):
                    incr_t(cell)
                rt.barrier()
                assert rt.scheduler.stats.steals == 0
            assert cell[0] == 1


# ---------------------------------------------------------------------------
# frames: several ready tasks per pipe message, one reply each
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _hold(rt):
    """A dispatch gate on *rt*, paused inside the block: what is
    submitted there is all ready at once when the block ends."""

    gate = DispatchGate()
    gate.bind(rt._sched_lock, rt._sched_cv, rt._main_cv)
    gate.install(rt.scheduler)
    gate.pause()
    try:
        yield gate
    finally:
        gate.resume()


def _record_frames(rt, known=True) -> list:
    """The task ids of every frame the dispatcher sends to *rt*'s
    backend from now on (a single task is the frame of one).  *known*:
    call every body's expected time zero, so that only the fair share
    sizes a frame and the frames below do not depend on this host's
    clock."""

    frames: list = []
    send = rt.backend.send

    def recording(thread, tasks):
        frames.append([task.task_id for task in tasks])
        return send(thread, tasks)

    rt.backend.send = recording
    if known:
        rt.backend.expected = lambda task, thread: 0.0
    return frames


@pytest.fixture
def master_sends(monkeypatch):
    """Counts this process's ``Connection.send_bytes`` calls."""

    calls = []
    send_bytes = Connection.send_bytes

    def counting(self, *args, **kwargs):
        calls.append(1)
        return send_bytes(self, *args, **kwargs)

    monkeypatch.setattr(Connection, "send_bytes", counting)
    return calls


def _await(condition, what):
    deadline = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


class TestFrames:
    N = 32

    def _accumulate(self, arena, states, backend="processes", workers=1):
        """N independent non-idempotent accumulates released at once;
        ``(accumulators, frames, deaths, redispatched, error)``."""

        n = self.N
        flag = arena.zeros((n,), np.int64)
        flag[:] = 1
        for k, state in states.items():
            flag[k] = state
        srcs = [arena.array(np.full(4, float(k + 1))) for k in range(n)]
        accs = [arena.array(np.full(4, 100.0 * k)) for k in range(n)]
        error = None
        try:
            with SmpssRuntime(num_workers=workers, backend=backend) as rt:
                frames = _record_frames(rt) if backend == "processes" else []
                first = None
                with _hold(rt):
                    for k in range(n):
                        task = accum_or_die_t(srcs[k], accs[k], flag, k)
                        first = first or task.task_id
                rt.barrier()
        except TaskExecutionError as exc:
            error = exc
            error.index = exc.task.task_id - first
        frames = [[tid - first for tid in frame] for frame in frames]
        return ([np.array(a) for a in accs], frames, rt.backend.deaths,
                rt.backend.redispatched, error)

    @pytest.mark.parametrize("killers", [(8,), (12,), (23,), (8, 12, 23)])
    def test_death_inside_a_frame_lands_every_record_once(self, killers):
        # Frames are tasks 0-7, 8-15, 16-23, 24-31: the killers sit
        # first, in the middle and last of one.
        with SharedArena() as arena:
            want, _, _, _, _ = self._accumulate(arena, {}, backend="threads")
            got, frames, deaths, redispatched, error = self._accumulate(
                arena, dict.fromkeys(killers, 0))
        assert error is None
        for k in range(self.N):
            assert np.array_equal(got[k], want[k]), k
            assert np.array_equal(got[k], np.full(4, 100.0 * k + k + 1))
        assert deaths == len(killers) and redispatched == len(killers)
        assert frames == [list(range(lo, lo + 8)) for lo in range(0, 32, 8)]

    def test_a_task_that_always_dies_fails_alone(self):
        with SharedArena() as arena:
            got, _, deaths, redispatched, error = self._accumulate(
                arena, {3: 2})
        cause = error.__cause__
        assert isinstance(cause, WorkerLostError)
        assert "accum_or_die_t" in str(cause) and "re-dispatched once" in str(cause)
        assert error.index == 3
        assert (deaths, redispatched) == (2, 1)
        # The rest of its frame completed, each record exactly once.
        for k in (0, 1, 2, 4, 5, 6, 7):
            assert np.array_equal(got[k], np.full(4, 100.0 * k + k + 1)), k
        assert np.array_equal(got[3], np.full(4, 300.0))

    def _mixed(self, backend, arena, poison):
        """One frame with an arena-handle, a pickled-ndarray, a
        region-slice and a list write-back, and a body that raises in
        their middle when *poison*."""

        shared = arena.array(np.arange(6.0))
        plain = np.arange(6.0)
        tiles = np.zeros(12)
        xs = [1, 2, 3]
        hit = np.zeros(1)
        tail = np.arange(4.0)
        one = np.ones(6)
        error = None
        try:
            with SmpssRuntime(num_workers=1, backend=backend) as rt:
                frames = _record_frames(rt) if backend == "processes" else []
                with _hold(rt):
                    accum_t(one, shared)
                    accum_t(one, plain)
                    boom = incr_or_boom_t(-1.0 if poison else 1.0, hit)
                    fill_region_t(tiles, 4, 7, 9.0)
                    double_list_t(xs)
                    incr_t(tail)
                rt.barrier()
        except TaskExecutionError as exc:
            error = exc
        data = [np.array(shared), plain, tiles, np.array(xs), tail]
        return data, hit, frames, boom, error

    def test_mixed_write_backs_in_one_frame_equal_threads(self):
        with SharedArena() as arena:
            want, want_hit, _, _, _ = self._mixed("threads", arena, False)
            got, hit, frames, _, error = self._mixed("processes", arena, False)
        assert error is None and len(frames) == 1 and len(frames[0]) == 6
        for a, b in zip(got + [hit], want + [want_hit]):
            assert np.array_equal(a, b)

    def test_a_body_that_raises_mid_frame_fails_only_its_task(self):
        with SharedArena() as arena:
            want, _, _, _, _ = self._mixed("threads", arena, False)
            _, _, _, _, threads_error = self._mixed("threads", arena, True)
            got, hit, frames, boom, error = self._mixed("processes", arena, True)
        assert len(frames) == 1 and len(frames[0]) == 6
        # The barrier reports the first failure, as under threads ...
        assert error.task is boom and threads_error.task.name == boom.name
        assert isinstance(error.__cause__, RemoteTaskError)
        assert "kaboom" in str(error.__cause__)
        # ... its datum is untouched, and the records around it — shipped
        # before it failed — all landed, bitwise as under threads.
        assert hit[0] == 0.0
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_chains_and_long_bodies_ship_one_task_per_frame(self, master_sends):
        with SharedArena() as arena:
            chain = arena.zeros((1,))
            cells = [arena.zeros((1,)) for _ in range(12)]
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                frames = _record_frames(rt, known=False)
                for _ in range(40):
                    incr_t(chain)
                rt.barrier()
                assert len(master_sends) == 40
                with _hold(rt):
                    for cell in cells:
                        slow_incr_t(cell)
                rt.barrier()
                assert len(master_sends) == 40 + 12
            assert all(len(frame) == 1 for frame in frames)
            assert chain[0] == 40 and all(cell[0] == 1 for cell in cells)

    def test_high_priority_task_is_the_next_record_shipped(self):
        with SharedArena() as arena:
            cells = [arena.zeros((1,)) for _ in range(12)]
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                frames = _record_frames(rt)
                with _hold(rt) as gate:
                    for cell in cells[:10]:
                        incr_t(cell)
                    gate.step(8)  # one ticket per task: a frame of eight
                    _await(lambda: frames, "the first frame to leave")
                    urgent = urgent_incr_t(cells[10])
                    late = incr_t(cells[11])
                rt.barrier()
            assert len(frames[0]) == 8
            assert frames[1][0] == urgent.task_id
            assert late.task_id in frames[1][1:] + sum(frames[2:], [])
            assert all(cell[0] == 1 for cell in cells)

    def test_a_step_ticket_still_dispatches_one_task(self):
        with SharedArena() as arena:
            cells = [arena.zeros((1,)) for _ in range(6)]
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                frames = _record_frames(rt)
                with _hold(rt) as gate:
                    for cell in cells:
                        incr_t(cell)
                    for done in (1, 2, 3):
                        gate.step()
                        _await(lambda: rt.tasks_executed == done,
                               f"step {done}")
                    assert [len(frame) for frame in frames] == [1, 1, 1]
                rt.barrier()

    def test_frames_pin(self, master_sends):
        """The counted pin CI's bench-gate runs: 64 independent arena
        tasks released at once to 2 workers cross the pipe in at most
        16 messages (8 if every frame were full; each link sends a
        definition alone until a reply has told it how long the body
        takes), and the same 64 as one chain in exactly 64."""

        with SharedArena() as arena:
            one = arena.array(np.ones(4))
            cells = [arena.zeros((4,)) for _ in range(64)]
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                for cell in cells[:8]:  # both links learn the body's time
                    accum_t(one, cell)
                rt.barrier()
                with _hold(rt):
                    for cell in cells:
                        accum_t(one, cell)
                    before = len(master_sends)
                rt.barrier()
                independent = len(master_sends) - before
                for _ in range(64):
                    accum_t(one, cells[0])
                rt.barrier()
                chained = len(master_sends) - before - independent
            assert chained == 64
            assert independent <= 16, independent
            assert cells[0][0] == 2 + 64 and cells[63][0] == 1

    def test_reads_pin(self, monkeypatch):
        """The counted pin CI's bench-gate runs: 64 independent arena
        tasks released at once to 2 workers cost the master fewer reads
        of the workers' pipes than replies — one read per link per
        wake-up parses every reply it completed (a reply per
        ``recv_bytes`` took two reads each: 128)."""

        reads = []
        read = os.read
        with SharedArena() as arena:
            one = arena.array(np.ones(4))
            cells = [arena.zeros((4,)) for _ in range(64)]
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                for cell in cells[:8]:  # both links learn the body's time
                    accum_t(one, cell)
                rt.barrier()
                pipes = {link.process.conn.fileno()
                         for link in rt.backend.links}
                monkeypatch.setattr(os, "read", lambda fd, n: (
                    reads.append(fd) if fd in pipes else None, read(fd, n))[1])
                with _hold(rt):
                    for cell in cells:
                        accum_t(one, cell)
                rt.barrier()
                monkeypatch.undo()
            assert all(cell[0] == 1 for cell in cells[8:])
        assert 0 < len(reads) < 64, len(reads)

    def test_master_threads_pin(self):
        """The counted pin CI's bench-gate runs: four worker processes
        are driven by the main thread and one dispatcher, not a thread
        each."""

        before = set(threading.enumerate())
        with SharedArena() as arena:
            cells = [arena.zeros((1,)) for _ in range(16)]
            with SmpssRuntime(num_workers=4, backend="processes") as rt:
                for cell in cells:
                    slow_incr_t(cell)
                started = [t.name for t in threading.enumerate()
                           if t not in before]
                rt.barrier()
                assert [row["slot"] for row in rt._loop.liveness()] == [
                    1, 2, 3, 4]
            assert all(cell[0] == 1 for cell in cells)
        assert started == ["smpss-worker-dispatch"]


class TestCompletionOrder:
    def test_end_event_and_count_land_before_completion(self, monkeypatch):
        """A task's remote task_end is ingested and the task counted
        before the completion that can let a barrier return."""

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
        with SharedArena() as arena:
            cell = arena.zeros((1,))
            with SmpssRuntime(num_workers=1, backend="processes",
                              trace=True) as rt:
                for _ in range(5):
                    incr_t(cell)
                rt.barrier()
        assert seen == [(True, k) for k in range(1, 6)]


class TestHandshake:
    """A worker that dies before its ready message is a structured
    loss, with the pipe closed and the child reaped."""

    @staticmethod
    def _stillborn(monkeypatch):
        monkeypatch.setattr(
            "repro.mp.executor.worker_main", lambda *args: os._exit(3))

    def test_start_raises_worker_lost_naming_slot_and_pid(self, monkeypatch):
        self._stillborn(monkeypatch)
        with pytest.raises(WorkerLostError, match=r"worker 1 \(pid \d+\) never completed"):
            with SmpssRuntime(num_workers=2, backend="processes"):
                pass
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-mp-worker")]

    def test_respawn_failure_reaches_the_barrier_as_worker_lost(
            self, monkeypatch):
        with SharedArena() as arena:
            flag = arena.zeros((1,), np.int64)
            out = arena.zeros((1,), np.int64)
            with pytest.raises(TaskExecutionError) as excinfo:
                with SmpssRuntime(num_workers=1, backend="processes") as rt:
                    self._stillborn(monkeypatch)
                    die_once_t(flag, out, 0)
                    rt.barrier()
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerLostError)
        assert "worker 1 (pid" in str(cause) and "handshake" in str(cause)
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("repro-mp-worker")]


# ---------------------------------------------------------------------------
# observability across the process boundary
# ---------------------------------------------------------------------------

class TestTraceMerge:
    def test_worker_events_merge_into_master_timeline(self):
        with SharedArena() as arena:
            a = arena.zeros((1,))
            with SmpssRuntime(
                num_workers=2, backend="processes", trace=True
            ) as rt:
                for _ in range(8):
                    incr_t(a)
                rt.barrier()
                intervals = rt.tracer.task_intervals()
        assert len(intervals) == 8
        threads = {thread for _s, _e, thread, _n in intervals.values()}
        # Worker processes appear as worker-thread indices (>= 1); the
        # main thread never runs bodies under the process backend.
        assert threads <= {1, 2}
        assert threads
        for start, end, _thread, name in intervals.values():
            assert end >= start
            assert name == "incr_t"

    def test_report_renders_with_remote_events(self):
        with SharedArena() as arena:
            a = arena.zeros((1,))
            with SmpssRuntime(
                num_workers=2, backend="processes", trace=True
            ) as rt:
                incr_t(a)
                rt.barrier()
                report = rt.report()
        assert "report" in report


# ---------------------------------------------------------------------------
# teardown hygiene
# ---------------------------------------------------------------------------

class TestShutdown:
    def test_no_worker_processes_leak(self):
        with SmpssRuntime(num_workers=2, backend="processes") as rt:
            pids = list(rt.backend.worker_pids)
            assert len(pids) == 2
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_exit_on_exception_still_stops_workers(self):
        pids = []
        with pytest.raises(RuntimeError, match="boom"):
            with SmpssRuntime(num_workers=2, backend="processes") as rt:
                pids = list(rt.backend.worker_pids)
                raise RuntimeError("boom")
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)
