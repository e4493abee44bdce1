"""End-to-end tests of the process backend (repro.mp).

Everything the threaded runtime guarantees must hold bit-for-bit under
``backend="processes"``: dependency order, renaming, regions, error
propagation, tracing.  On top of that the backend adds its own
contracts — transparent arena shipping, pickle+write-back for non-arena
storage, one automatic re-dispatch after a worker death, and clean
shared-memory teardown — which are what this module pins down.
"""

import os
import signal

import numpy as np
import pytest

from repro import (
    RuntimeConfig,
    SharedArena,
    SmpssRuntime,
    TaskExecutionError,
    arena_array,
    css_task,
)
from repro.apps.cholesky import cholesky_hyper
from repro.apps.matmul import matmul_dense
from repro.blas.hypermatrix import HyperMatrix
from repro.core.config import resolve_config
from repro.mp import (
    MpSerializationError,
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


# ---------------------------------------------------------------------------
# the pickle + write-back path (non-arena storage)
# ---------------------------------------------------------------------------

class TestWriteBack:
    def test_plain_ndarrays_round_trip(self):
        # No arena anywhere: inputs pickle out, outputs copy back.
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
        # arrays, so every generation ships out by pickle and the final
        # value returns through write-back.
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

    def test_opaque_ndarray_must_be_arena_backed(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                opaque_write_t(np.zeros(8), 4)
                rt.barrier()
        assert isinstance(excinfo.value.__cause__, MpSerializationError)
        assert "arena" in str(excinfo.value.__cause__)

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
