"""The task-graph service: domains, wire codecs, sessions, admission.

PR 9's tentpole is ``repro.serve`` — a daemon owning one worker fleet
that serves whole-graph submissions from many concurrent tenants.
These tests pin, bottom-up:

* the per-graph dependency domain (``repro.core.execution``);
* the wire codecs (bitwise datum round trips, definition refs);
* the session↔daemon loop: ``connect()`` mirroring the local runtime
  with bitwise-identical results on the bundled apps;
* the api-stack redesign that makes concurrent sessions legal while
  keeping in-process runtimes exclusive;
* admission-control edges: graph-size cap mid-submission, per-tenant
  memory cap, queue-full backpressure, a graph the tracker refuses,
  and client disconnect with tasks in flight (the rest of the graph
  never runs, accounting released, fleet not stalled);
* the per-tenant ``/metrics`` and ``/health`` HTTP surface.
"""

import json
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import InvocationError, SmpssRuntime, css_task, wait_on
from repro.apps.cholesky import cholesky_hyper
from repro.apps.multisort import multisort, sequential_sort
from repro.blas.hypermatrix import HyperMatrix
from repro.core.execution import GraphDomain
from repro.core.invocation import plan_for
from repro.net import NetClosed
from repro.net.frames import (
    MAX_HEADER_BYTES,
    RecordReader,
    encode_record,
    send_record,
)
from repro.net.protocol import connect as raw_connect
from repro.net.protocol import encode as wire_encode
from repro.serve import (
    GraphRejected,
    RemoteGraphError,
    ServeDaemon,
    ServeEngine,
    ServeError,
    ServiceLimits,
    connect,
)
from repro.serve import protocol as sp

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# tasks used over the wire (must be module-level: resolved by qualname)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def gemm_t(a, b, c):
    c += a @ b


@css_task("inout(a)")
def bump_t(a):
    a += 1.0


@css_task("input(src) output(dst)")
def copy_t(src, dst):
    dst[...] = src


@css_task("inout(a)")
def boom_t(a):
    raise ValueError("deliberate task failure")


@css_task("inout(rec)")
def scale_records_t(rec):
    rec["w"] *= 2.0
    rec["n"] += 1


@css_task("input(a)")
def read_t(a):
    pass


@css_task("output(a)")
def fill_t(a):
    a[...] = 2.0


@css_task("inout(a{0..1})")
def region_bump_t(a):
    a[0:2] += 1.0


#: One in-place mutation per datum kind the wire carries; a task body
#: and the sequential oracle both go through this table.
_MUTATIONS = {
    "add": lambda x: x.__iadd__(1),
    "records": lambda x: x.__setitem__("w", x["w"] * 2.0),
    "objects": lambda x: x.__setitem__(0, ("changed", None)),
    "list": lambda x: x.append([1, "two"]),
    "bytearray": lambda x: x.extend(b"\x00\xff!"),
    "dict": lambda x: x.update(k=(1, 2)),
}


@css_task("inout(x)")
def mutate_t(x, how):
    _MUTATIONS[how](x)


@css_task("inout(seen)")
def note_t(seen, value):
    seen.append(value)


@css_task("input(a, r{0..1}) inout(c) output(o) opaque(p)")
def mixed_t(a, r, c, o, p, u):
    c += a.sum() + r[0:2].sum() + p.sum() + u.sum()
    o[...] = c * 2.0


@css_task("input(a) inout(c)")
def axpy_t(a, c, alpha=2.0, beta=1.0):
    c *= beta
    c += alpha * a


#: Gate for in-flight tests: tasks park here until the test opens it.
_GATE = threading.Event()
#: How many gated bodies have started (incremented under the GIL).
_GATED_STARTED = []


@css_task("inout(a)")
def gated_bump_t(a):
    _GATED_STARTED.append(1)
    _GATE.wait(10.0)
    a += 1.0


def _run_record(data, tasks=()):
    """The one place these tests build a ``run`` record by hand, in the
    form the transport hands the daemon (``frames`` is the list of
    blobs the line's indices point into).  *data* maps datum id ->
    object; *tasks* is ``(task, [datum id, ...])`` pairs."""

    frames = []
    return {
        "tasks": [
            {"def": sp.definition_ref(fn.definition),
             "args": [{"d": datum_id} for datum_id in ids]}
            for fn, ids in tasks
        ],
        "data": {
            datum_id: sp.attach(frames, sp.encode_datum(obj))
            for datum_id, obj in data.items()
        },
        "frames": frames,
    }


def _graph_spec(arr, *task_fns):
    """One datum, *arr*, and one single-argument task per *task_fns*
    over it, in order."""

    return _run_record({"d0": arr}, [(fn, ["d0"]) for fn in task_fns])


def _through_a_socket(record):
    """*record* as the peer's reader decodes it off a real socket."""

    a, b = socket.socketpair()
    with a, b:
        writer = threading.Thread(
            target=send_record, args=(a, *encode_record(record)))
        writer.start()
        got = RecordReader(b).read(timeout=10.0)
        writer.join(10.0)
    assert not writer.is_alive()
    return got


@pytest.fixture
def daemon():
    d = ServeDaemon("tcp:127.0.0.1:0", workers=2)
    yield d
    d.close()


def _raw_ack(sock, record):
    """Send one command on a raw socket; return its ack."""

    send_record(sock, *encode_record(record))
    reader = RecordReader(sock)
    while True:
        reply = reader.read(timeout=10.0)
        if reply.get("ev") == "ack":
            return reply


def _serve_threads():
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith("repro-serve-") and t.is_alive()
    ]


def _drain_tenant(engine, name, timeout=10.0):
    """Wait until *name* has nothing in flight and no bytes held."""

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        t = engine.state()["tenants"].get(name)
        if t is not None and t["inflight"] == 0 and t["bytes_held"] == 0:
            return t
        time.sleep(0.01)
    raise AssertionError(f"tenant {name!r} never drained")


# ---------------------------------------------------------------------------
# the per-graph dependency domain
# ---------------------------------------------------------------------------

class TestGraphDomain:
    def test_domains_over_the_same_array_share_nothing(self):
        arr = np.zeros(4)
        d1, d2 = GraphDomain(), GraphDomain()
        plan = plan_for(bump_t.definition)
        first = [plan.instantiate((arr,), {}, {}) for _ in range(2)]
        other = plan.instantiate((arr,), {}, {})
        # Within one domain the second writer waits for the first ...
        assert [d1.analyze(t) for t in first] == [True, False]
        # ... but version chains never leak between domains: another
        # domain's writer of the very same array is ready at once,
        assert d2.analyze(other) is True
        assert other.domain is d2 and first[0].domain is d1
        assert d2.graph.pending_count == 1 and d1.graph.pending_count == 2
        # and so are the locks: holding one never blocks the other.
        assert d1.lock is not d2.lock
        with d1.lock:
            assert d2.complete(other) == ([], True)

    def test_lock_is_released_between_calls(self):
        arr = np.zeros(4)
        domain = GraphDomain()
        plan = plan_for(bump_t.definition)
        tasks = [plan.instantiate((arr,), {}, {}) for _ in range(2)]
        for task in tasks:
            domain.analyze(task)
            assert not domain.lock.locked()
        assert domain.complete(tasks[0]) == ([tasks[1]], False)
        assert not domain.lock.locked()
        domain.fail(RuntimeError("stop"))
        assert not domain.lock.locked()
        assert domain.complete(tasks[1]) == ([], True)
        domain.write_back()
        assert not domain.lock.locked()


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------

class TestWireCodecs:
    def test_ndarray_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(7)
        for arr in (
            rng.standard_normal((5, 3)),
            np.arange(6, dtype=np.int16).reshape(2, 3),
            np.array([np.nan, np.inf, -0.0]),
            np.zeros(0, dtype=np.float32),
            # dtype.str cannot describe these two: they must pickle.
            np.array([(1, 2.5), (3, -0.0)], dtype=[("n", "<i4"), ("w", "<f8")]),
            np.array([1, "two", None, (3, 4)], dtype=object),
            rng.standard_normal((6, 4))[::2, 1::2],  # non-contiguous view
            np.array(2.5),                           # 0-d
        ):
            record = _through_a_socket(_run_record({"d0": arr}))
            blob = sp.attachment(record["frames"], record["data"]["d0"])
            back = sp.decode_datum(blob)
            target = np.empty_like(arr)
            sp.write_back_into(target, blob)
            for got in (back, target):
                assert got.dtype == arr.dtype and got.shape == arr.shape
                if arr.dtype.hasobject:  # raw bytes are pointers
                    assert got.tolist() == arr.tolist()
                else:
                    assert got.tobytes() == arr.tobytes()
            assert back.flags.writeable

    def test_container_roundtrip_and_in_place_write_back(self):
        record = _through_a_socket(_run_record(
            {"l": [9, 8], "d": {"b": 2}, "b": bytearray(b"yo")}))
        for key, target in (
            ("l", [1, 2, 3]), ("d", {"a": 1}), ("b", bytearray(b"xxxx")),
        ):
            before = id(target)
            sp.write_back_into(
                target, sp.attachment(record["frames"], record["data"][key]))
            assert id(target) == before
            assert target == {"l": [9, 8], "d": {"b": 2},
                              "b": bytearray(b"yo")}[key]

    def test_value_specs(self):
        frames = []
        for value in (1, 2.5, float("inf"), "s", None, True):
            assert sp.decode_value(sp.encode_value(value, frames), frames) == value
        assert frames == []  # JSON-exact scalars ride the line
        spec = sp.encode_value((1, 2), frames)  # tuple: by-value, not JSON
        assert spec == {"p": 0} and sp.decode_value(spec, frames) == (1, 2)
        with pytest.raises(ServeError, match="attachment 1"):
            sp.decode_value({"p": 1}, frames)

    def test_is_datum_mirrors_tracker_rule(self):
        assert sp.is_datum(np.zeros(2)) and sp.is_datum([1])
        assert not sp.is_datum(3) and not sp.is_datum("s")
        assert not sp.is_datum((1, 2))

    def test_definition_ref_rejects_closures(self):
        @css_task("inout(a)")
        def local_task(a):
            a += 1

        with pytest.raises(Exception, match="module-level"):
            sp.definition_ref(local_task.definition)
        ref = sp.definition_ref(gemm_t.definition)
        assert ref[1] == "gemm_t"
        assert sp.resolve_definition(ref) is gemm_t.definition


# ---------------------------------------------------------------------------
# the served session: one-line switch, bitwise parity
# ---------------------------------------------------------------------------

class TestServedParity:
    def test_gemm_parity_and_wait_on(self, daemon):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        c_local, c_served = np.zeros((16, 16)), np.zeros((16, 16))
        gemm_t(a, b, c_local)  # sequential reference
        gemm_t(a, b, c_local)
        with connect(daemon.address) as rt:
            gemm_t(a, b, c_served)
            gemm_t(a, b, c_served)
            latest = wait_on(c_served)
            assert latest is c_served  # post-flush the base IS current
            assert rt.graphs_submitted == 1
        assert c_served.tobytes() == c_local.tobytes()

    def test_cholesky_parity(self, daemon):
        hm_local = HyperMatrix.random_spd(4, 8, seed=1)
        hm_served = hm_local.copy()
        cholesky_hyper(hm_local)  # no runtime: the sequential oracle
        with connect(daemon.address, tenant="chol") as rt:
            cholesky_hyper(hm_served)
            rt.barrier()
        for i in range(4):
            for j in range(i + 1):
                assert (
                    hm_local[i][j].tobytes() == hm_served[i][j].tobytes()
                ), (i, j)

    @pytest.mark.mp
    def test_cholesky_parity_on_process_workers(self):
        """The same fleet behind ``backend="processes"``: bodies run in
        forked workers, results stay bitwise, and ``/health`` reports
        each slot's worker pid through the shared backend contract."""

        hm_local = HyperMatrix.random_spd(4, 8, seed=3)
        hm_served = hm_local.copy()
        cholesky_hyper(hm_local)  # no runtime: the sequential oracle
        d = ServeDaemon("tcp:127.0.0.1:0", workers=2, backend="processes")
        try:
            with connect(d.address, tenant="procs") as rt:
                cholesky_hyper(hm_served)
                rt.barrier()
            host = d.address.split(":", 1)[1]
            health = json.loads(urllib.request.urlopen(
                f"http://{host}/health", timeout=10
            ).read())
        finally:
            d.close()
        for i in range(4):
            for j in range(i + 1):
                assert (
                    hm_local[i][j].tobytes() == hm_served[i][j].tobytes()
                ), (i, j)
        rows = health["worker_liveness"]
        assert [w["slot"] for w in rows] == [1, 2]
        assert all(w["alive"] and w["pid"] > 0 for w in rows)
        assert len({w["pid"] for w in rows}) == 2
        assert health["workers_alive"] == 2

    @pytest.mark.mp
    def test_renamed_versions_on_process_workers(self):
        """Each reader of a datum a later task overwrites keeps its own
        version: renamed buffers are cloned from what worker processes
        wrote, and the graph's result is the last version.  A drained
        graph lets go of every arena copy it made, so graph after graph
        of different sizes leaves no copy behind and maps no second
        segment."""

        d = ServeDaemon("tcp:127.0.0.1:0", workers=2, backend="processes")
        residency = d.engine._loop.backend._residency
        try:
            with connect(d.address, tenant="war") as rt:
                for n in (8, 1000, 24, 3000, 8, 500):
                    src = np.zeros(n)
                    sinks = [np.full(n, -1.0) for _ in range(6)]
                    for sink in sinks:
                        copy_t(src, sink)
                        bump_t(src)
                    rt.barrier()
                    for i, sink in enumerate(sinks):
                        assert (sink == float(i)).all(), (n, i, sink)
                    assert (src == 6.0).all()
                    assert residency._copies == {}, n
                    assert len(residency._arena.segment_names) == 1
        finally:
            d.close()

    def test_multisort_parity(self, daemon):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(2048)
        ref = sequential_sort(data.copy())
        served = data.copy()
        with connect(daemon.address, tenant="sort"):
            multisort(served, np.empty_like(served), quicksize=256)
        assert served.tobytes() == ref.tobytes()

    def test_output_only_write_crosses_back(self, daemon):
        src = np.arange(8, dtype=np.float64)
        dst = np.zeros(8)
        with connect(daemon.address) as rt:
            copy_t(src, dst)
            rt.barrier()
        assert (dst == src).all()

    def test_structured_array_crosses_and_lands_in_place(self, daemon):
        dtype = np.dtype([("n", "<i4"), ("w", "<f8")])
        served = np.array([(1, 0.5), (2, -0.0), (3, np.nan)], dtype=dtype)
        oracle = served.copy()
        scale_records_t(oracle)  # no runtime active: the sequential call
        with connect(daemon.address, tenant="records") as rt:
            scale_records_t(served)
            rt.barrier()
        assert served.tobytes() == oracle.tobytes()

    def test_exit_flushes_pending_batch(self, daemon):
        a = np.zeros(4)
        with connect(daemon.address):
            bump_t(a)
            # no explicit barrier: __exit__ owes the final flush
        assert (a == 1.0).all()

    def test_multiple_graphs_per_session(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address) as rt:
            for _ in range(3):
                bump_t(a)
                rt.barrier()
            assert rt.graphs_submitted == 3
        assert (a == 3.0).all()


class TestAckCarriesOnlyWrites:
    """The ack leaves out a datum that every task of the graph declares
    ``input`` (whole or region): the graph never writes it, so nothing
    of it crosses back.  Opaque, undeclared, ``inout`` and ``output``
    uses bring it home."""

    @staticmethod
    def _graph(x):
        mixed_t(x["a"], x["r"], x["c"], x["o"], x["p"], x["u"])
        read_t(x["a"])
        copy_t(x["c"], x["d"])  # c is an input here, inout above

    @staticmethod
    def _arrays():
        rng = np.random.default_rng(11)
        return {name: rng.standard_normal(4) for name in "arcopud"}

    @pytest.mark.parametrize(
        "backend", ["threads", pytest.param("processes", marks=pytest.mark.mp)])
    def test_results_are_what_the_graph_may_write(self, backend):
        local, served, shipped = self._arrays(), self._arrays(), []
        with SmpssRuntime(num_workers=2):
            self._graph(local)
        d = ServeDaemon("tcp:127.0.0.1:0", workers=2, backend=backend)
        try:
            with connect(d.address, tenant="acked") as rt:
                rpc = rt._transport.rpc

                def recording(cmd, **fields):
                    ack = rpc(cmd, **fields)
                    names = {datum_id: name
                             for datum_id, obj in rt._datums.values()
                             for name, arr in served.items() if arr is obj}
                    shipped.extend(
                        names[datum_id] for datum_id in ack["data"]["results"])
                    return ack

                rt._transport.rpc = recording
                self._graph(served)
                rt.barrier()
        finally:
            d.close()
        assert sorted(shipped) == sorted("copud")
        for name, want in local.items():
            assert served[name].tobytes() == want.tobytes(), name


class TestServedBinding:
    """A served call binds through the task's invocation plan, exactly
    as a local one: same values, same errors."""

    @staticmethod
    def _calls(a, cs):
        axpy_t(a, cs[0])
        axpy_t(a, cs[1], 2.0, 1.0)
        axpy_t(c=cs[2], a=a)
        axpy_t(a, cs[3], beta=1.0)
        axpy_t(a, cs[4], 0.5)

    def test_keywords_and_defaults_bind_as_locally(self, daemon):
        a = np.arange(4.0) / 3.0
        local = [np.full(4, 0.1) for _ in range(5)]
        served = [np.full(4, 0.1) for _ in range(5)]
        with SmpssRuntime(num_workers=2):
            self._calls(a, local)
        with connect(daemon.address, tenant="binder"):
            self._calls(a, served)
        assert [c.tobytes() for c in served] == [c.tobytes() for c in local]
        assert len({c.tobytes() for c in served[:4]}) == 1

    def test_a_bad_call_names_its_task(self, daemon):
        a, c = np.zeros(2), np.zeros(2)
        bad = (lambda: axpy_t(a), lambda: axpy_t(a, c, 1.0, 1.0, 1.0),
               lambda: axpy_t(a, c, gamma=1.0))

        def messages():
            out = []
            for call in bad:
                with pytest.raises(InvocationError) as info:
                    call()
                out.append(str(info.value))
            return out

        with SmpssRuntime(num_workers=1):
            local = messages()
        with connect(daemon.address, tenant="bad") as rt:
            served = messages()
            assert rt._batch == []
        assert served == local
        assert all(m.startswith("task 'axpy_t': ") for m in local), local


class TestConcurrentSessions:
    def test_two_tenants_in_parallel_threads(self, daemon):
        results = {}
        errors = []

        def run_chol():
            try:
                hm = HyperMatrix.random_spd(4, 8, seed=3)
                ref = hm.copy()
                cholesky_hyper(ref)
                with connect(daemon.address, tenant="t-chol") as rt:
                    cholesky_hyper(hm)
                    rt.barrier()
                results["chol"] = all(
                    hm[i][j].tobytes() == ref[i][j].tobytes()
                    for i in range(4) for j in range(i + 1)
                )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def run_sort():
            try:
                rng = np.random.default_rng(4)
                data = rng.standard_normal(2048)
                ref = sequential_sort(data.copy())
                with connect(daemon.address, tenant="t-sort"):
                    multisort(data, np.empty_like(data), quicksize=256)
                results["sort"] = data.tobytes() == ref.tobytes()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=f) for f in (run_chol, run_sort)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert results == {"chol": True, "sort": True}
        state = daemon.engine.state()
        assert {"t-chol", "t-sort"} <= set(state["tenants"])

    def test_smpss_runtime_stays_exclusive_across_threads(self):
        """The api redesign keeps the historical guard for in-process
        runtimes: one exclusive runtime, one main thread."""

        raised = []
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with SmpssRuntime(num_workers=1):
                entered.set()
                release.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10.0)
            with pytest.raises(RuntimeError, match="another thread"):
                with SmpssRuntime(num_workers=1):
                    pass  # pragma: no cover
            raised.append(True)
        finally:
            release.set()
            holder.join(timeout=10)
        assert raised


# ---------------------------------------------------------------------------
# admission control (satellite: the §III limits as backpressure)
# ---------------------------------------------------------------------------

class TestAdmissionControl:
    def test_graph_size_cap_hit_mid_submission(self):
        with ServeDaemon(
            "tcp:127.0.0.1:0", workers=1,
            limits=ServiceLimits(max_graph_tasks=3),
        ) as daemon:
            a = np.zeros(4)
            with connect(daemon.address, tenant="big") as rt:
                for _ in range(5):
                    bump_t(a)  # accumulates past the cap client-side
                with pytest.raises(GraphRejected) as exc_info:
                    rt.barrier()
                assert exc_info.value.code == "graph_too_large"
                assert exc_info.value.status == 429
                assert exc_info.value.detail["limit"] == 3
                # The shed batch is gone; the session stays usable and
                # a conforming graph goes through on the same socket.
                bump_t(a)
                rt.barrier()
            assert (a == 1.0).all()
            tenants = daemon.engine.state()["tenants"]
            assert tenants["big"]["rejections"] == 1
            assert tenants["big"]["bytes_held"] == 0

    def test_per_tenant_memory_cap(self):
        with ServeDaemon(
            "tcp:127.0.0.1:0", workers=1,
            limits=ServiceLimits(max_tenant_bytes=1024),
        ) as daemon:
            big = np.zeros(4096)
            with connect(daemon.address, tenant="hog") as rt:
                bump_t(big)
                with pytest.raises(GraphRejected) as exc_info:
                    rt.barrier()
            assert exc_info.value.code == "memory_limit"
            assert exc_info.value.detail["limit"] == 1024
            assert exc_info.value.detail["bytes"] >= big.nbytes

    def test_byte_cap_is_exact(self):
        """32 768 bytes is not a multiple of three: sized from base64
        text it came to 32 769 and a graph exactly at the cap was shed."""

        cap = 32768
        with ServeDaemon(
            "tcp:127.0.0.1:0", workers=1,
            limits=ServiceLimits(max_tenant_bytes=cap),
        ) as daemon:
            at_cap = np.zeros(cap, dtype=np.uint8)
            over = np.zeros(cap + 1, dtype=np.uint8)
            with connect(daemon.address, tenant="exact") as rt:
                mutate_t(at_cap, "add")
                rt.barrier()
                assert (at_cap == 1).all()
                mutate_t(over, "add")
                with pytest.raises(GraphRejected) as exc_info:
                    rt.barrier()
                assert exc_info.value.code == "memory_limit"
                assert exc_info.value.detail["bytes"] == cap + 1
                # The slot came back both times: the cap still admits.
                tenant = _drain_tenant(daemon.engine, "exact")
                assert tenant["inflight"] == 0 and tenant["rejections"] == 1
                mutate_t(at_cap, "add")
                rt.barrier()
            assert (at_cap == 2).all()

    def test_queue_full_backpressure_and_other_tenant_unaffected(self):
        engine = ServeEngine(workers=1, limits=ServiceLimits(max_inflight=1))
        _GATE.clear()
        spec = _graph_spec(np.zeros(2), gated_bump_t)
        try:
            job = engine.submit_graph("full", spec)
            with pytest.raises(GraphRejected) as exc_info:
                engine.submit_graph("full", dict(spec))
            assert exc_info.value.code == "queue_full"
            # Backpressure is PER TENANT: a different tenant's
            # submission is admitted while "full" is saturated.
            other_job = engine.submit_graph(
                "light", _graph_spec(np.zeros(2), bump_t)
            )
            _GATE.set()
            assert job.done.wait(10.0)
            assert other_job.done.wait(10.0)
            assert other_job.error is None
            # After draining, the saturated tenant is admitted again.
            job2 = engine.submit_graph("full", dict(spec))
            assert job2.done.wait(10.0) and job2.error is None
        finally:
            _GATE.set()
            engine.shutdown()

    def test_refused_graph_gives_its_admission_slot_back(self):
        """A graph the tracker refuses *after* admission (a region
        access to an array whose current version was renamed) must not
        leak the tenant's in-flight slot or its bytes."""

        limits = ServiceLimits(max_inflight=2)
        engine = ServeEngine(workers=1, limits=limits)
        refused = _graph_spec(np.zeros(4), read_t, fill_t, region_bump_t)
        try:
            for _ in range(limits.max_inflight + 1):
                with pytest.raises(Exception, match="renamed buffer"):
                    engine.submit_graph("sloppy", refused)
            state = engine.state()
            assert state["tenants"]["sloppy"]["inflight"] == 0
            assert state["tenants"]["sloppy"]["bytes_held"] == 0
            assert state["live_graphs"] == 0
            good = engine.submit_graph("sloppy", _graph_spec(np.zeros(4), bump_t))
            assert good.done.wait(10.0) and good.error is None
            landed = sp.decode_datum(good.frames[good.results["d0"]])
            assert landed.tolist() == [1.0] * 4
        finally:
            engine.shutdown()

    def test_abandon_with_tasks_in_flight_releases_state(self):
        engine = ServeEngine(workers=1)
        _GATE.clear()
        try:
            job = engine.submit_graph(
                "ghost", _graph_spec(np.zeros(2), *[gated_bump_t] * 3)
            )
            engine.abandon(job)  # client disconnected mid-graph
            _GATE.set()
            assert job.done.wait(10.0)
            assert job.results is None  # discarded, never encoded
            assert job.error["code"] == "cancelled"
            tenant = _drain_tenant(engine, "ghost")
            assert tenant["inflight"] == 0
            assert engine.state()["live_graphs"] == 0
            # The fleet is alive: a fresh tenant's graph completes.
            ok_job = engine.submit_graph(
                "alive", _graph_spec(np.zeros(2), bump_t)
            )
            assert ok_job.done.wait(10.0) and ok_job.error is None
        finally:
            _GATE.set()
            engine.shutdown()

    def test_client_disconnect_over_the_wire(self, daemon):
        """Drop the socket with tasks in flight: the rest of the graph
        never runs, the job ends cancelled and counts as failed, and
        the daemon keeps serving everyone else."""

        _GATE.clear()
        del _GATED_STARTED[:]
        registry = daemon.engine.metrics
        sock = raw_connect(daemon.address, timeout=10.0)
        try:
            assert _raw_ack(sock, {
                "cmd": "open", "seq": 1, "tenant": "dropper",
                "version": sp.SERVE_PROTOCOL_VERSION,
            })["ok"]
            send_record(sock, *encode_record({
                "cmd": "run", "seq": 2,
                **_graph_spec(np.zeros(2), *[gated_bump_t] * 5),
            }))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not _GATED_STARTED:
                time.sleep(0.01)
            assert _GATED_STARTED, "the graph never started running"
        finally:
            sock.close()  # gone, with the first task gated mid-body
        # The daemon notices on its own, while the body is still
        # blocked: nothing the test does below tells it.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not daemon.engine._jobs:
            time.sleep(0.01)
        (job,) = daemon.engine._jobs.values()
        while time.monotonic() < deadline and job.domain.failure is None:
            time.sleep(0.01)
        assert job.domain.failure, "disconnect mid-graph was not noticed"
        _GATE.set()
        _drain_tenant(daemon.engine, "dropper")
        assert job.error["code"] == "cancelled" and job.results is None
        # Only the body that was already running ever ran.
        assert len(_GATED_STARTED) == 1
        assert registry.counter(
            "serve.graphs_failed", tenant="dropper").value == 1
        assert registry.counter(
            "serve.graphs_completed", tenant="dropper").value == 0
        # ... and it is counted, though its graph never completed.
        assert registry.counter(
            "serve.tasks_executed", tenant="dropper").value == 1
        # The fleet serves the next tenant as if nothing happened.
        a = np.zeros(2)
        with connect(daemon.address, tenant="survivor") as rt:
            bump_t(a)
            rt.barrier()
        assert (a == 1.0).all()


# ---------------------------------------------------------------------------
# every datum kind, through connect() -> daemon -> back, over a real socket
# ---------------------------------------------------------------------------

def _datum_kinds():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((6, 4))
    return {
        "c_contiguous": (rng.standard_normal((5, 3)), "add"),
        "strided_view": (base[::2, 1::2], "add"),
        "zero_d": (np.array(2.5), "add"),
        "zero_size": (np.zeros((0, 3), dtype=np.float32), "add"),
        "structured": (np.array(
            [(1, 0.5), (2, -0.0), (3, np.nan)],
            dtype=[("n", "<i4"), ("w", "<f8")]), "records"),
        "object_dtype": (np.array([1, "two", None, (3, 4)], dtype=object),
                         "objects"),
        "list": ([1, 2.5, "three"], "list"),
        "bytearray": (bytearray(b"abc"), "bytearray"),
        "dict": ({"a": 1}, "dict"),
    }


class TestDatumKindsOverASocket:
    @pytest.mark.parametrize("kind", sorted(_datum_kinds()))
    def test_lands_bitwise_and_in_place(self, daemon, kind):
        import copy

        served, how = _datum_kinds()[kind]
        # A view's oracle must be a view of a copied base, so that what
        # lies between the strides is compared too.
        owner = served.base if kind == "strided_view" else served
        oracle_owner = copy.deepcopy(owner)
        oracle = oracle_owner[::2, 1::2] if kind == "strided_view" \
            else oracle_owner
        _MUTATIONS[how](oracle)  # the sequential program
        with connect(daemon.address, tenant=kind) as rt:
            mutate_t(served, how)
            assert rt.gather(served) is served
        if isinstance(owner, np.ndarray) and not owner.dtype.hasobject:
            assert owner.dtype == oracle_owner.dtype
            assert owner.shape == oracle_owner.shape
            assert owner.tobytes() == oracle_owner.tobytes()
        elif isinstance(owner, np.ndarray):
            assert owner.tolist() == oracle_owner.tolist()
        else:
            assert owner == oracle_owner and type(owner) is type(oracle_owner)

    def test_gather_synchronises_and_hands_back_the_same_objects(self, daemon):
        a, b = np.zeros(3), [0]
        with connect(daemon.address, tenant="gather") as rt:
            bump_t(a)
            mutate_t(b, "list")
            got = rt.gather(a, b)
            assert rt.graphs_submitted == 1
            assert got[0] is a and got[1] is b
            assert rt.gather() == () and rt.graphs_submitted == 1
        assert a.tolist() == [1.0] * 3 and b == [0, [1, "two"]]

    def test_by_value_arguments_arrive_exact(self, daemon):
        values = [
            (1, (2.5, "x")), 3 - 4j, np.complex128(1 - 2j), np.float64(0.1),
            b"\x00raw", frozenset({1, 2}), float("-inf"), 7, None, True, "s",
        ]
        seen = []
        with connect(daemon.address, tenant="byvalue") as rt:
            for value in values:
                note_t(seen, value)
            rt.barrier()
        assert seen == values
        # Pickled ones keep their type; JSON-exact ones are plain python.
        assert [type(v) for v in seen[:3]] == [tuple, complex, np.complex128]
        assert type(seen[4]) is bytes and type(seen[5]) is frozenset


# ---------------------------------------------------------------------------
# the attachment input path against a hostile or dying peer
# ---------------------------------------------------------------------------

@pytest.fixture(params=["tcp", "unix"])
def any_daemon(request, tmp_path_factory):
    address = "tcp:127.0.0.1:0"
    if request.param == "unix":
        address = str(tmp_path_factory.mktemp("s") / "d.sock")
    d = ServeDaemon(address, workers=1)
    yield d
    d.close()


def _open_raw(daemon, tenant):
    sock = raw_connect(daemon.address, timeout=10.0)
    assert _raw_ack(sock, {
        "cmd": "open", "seq": 1, "tenant": tenant,
        "version": sp.SERVE_PROTOCOL_VERSION,
    })["ok"]
    return sock


def _frame(meta, payload, declared=None):
    """One frame packed by hand (not by the code under test); *declared*
    overrides the payload length the prefix announces."""

    head = json.dumps(meta).encode()
    size = len(payload) if declared is None else declared
    return struct.pack("!II", len(head), size) + head + payload


def _run_line(**fields):
    ref = sp.definition_ref(bump_t.definition)
    record = {"cmd": "run", "seq": 2, "data": {"d0": 0},
              "tasks": [{"def": ref, "args": [{"d": "d0"}]}]}
    record.update(fields)
    return wire_encode(record)


def _await_hang_up(sock, timeout=5.0):
    """Return once the daemon has ended the connection (EOF or reset);
    a daemon still holding it after *timeout* raises ``TimeoutError``."""

    sock.settimeout(timeout)
    try:
        while sock.recv(65536):
            pass
    except ConnectionError:
        pass


def _assert_nothing_leaked(daemon, tenant):
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline and "repro-serve-client" in _serve_threads():
        time.sleep(0.01)
    assert "repro-serve-client" not in _serve_threads()
    state = daemon.engine.state()
    assert state["tenants"][tenant]["inflight"] == 0
    assert state["tenants"][tenant]["bytes_held"] == 0
    assert state["live_graphs"] == 0
    # The fleet and the front door still serve the next tenant.
    a = np.zeros(2)
    with connect(daemon.address, tenant="next") as rt:
        bump_t(a)
        rt.barrier()
    assert (a == 1.0).all()


_F8 = {"t": "nd", "dtype": "<f8", "shape": [4]}


class TestAttachmentRobustness:
    @pytest.mark.parametrize("stream", [
        _run_line(frames=MAX_HEADER_BYTES // 8 + 1),
        _run_line(frames=-1),
        _run_line(frames="1"),
        _run_line(frames=True),
        _run_line(frames=1)
        + struct.pack("!II", MAX_HEADER_BYTES + 1, 32),
        _run_line(frames=1) + struct.pack("!II", 9, 0) + b"not json!",
    ], ids=["count-huge", "count-negative", "count-text", "count-bool",
            "header-huge", "header-garbage"])
    def test_implausible_declarations_drop_the_connection(
            self, any_daemon, stream):
        """Checked before anything is allocated or awaited: the daemon
        hangs up at once instead of sitting on a 4 GiB promise."""

        sock = _open_raw(any_daemon, "liar")
        try:
            sock.sendall(stream)
            _await_hang_up(sock)
        finally:
            sock.close()
        _assert_nothing_leaked(any_daemon, "liar")

    @pytest.mark.parametrize("how", ["eof", "reset"])
    @pytest.mark.parametrize("declared", [32, 0xFFFFFFFF])
    def test_stream_cut_mid_attachment(self, any_daemon, how, declared):
        """Whatever a prefix promises, only bytes that arrive are held."""

        sock = _open_raw(any_daemon, "cut")
        try:
            sock.sendall(_run_line(frames=1)
                         + _frame(_F8, b"only ten b", declared=declared))
            if how == "eof":
                sock.shutdown(socket.SHUT_WR)
                _await_hang_up(sock)
            else:  # close with data unsent and no linger: RST on TCP
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
        finally:
            sock.close()
        _assert_nothing_leaked(any_daemon, "cut")

    @pytest.mark.parametrize("line,frames", [
        (_run_line(frames=1), [_frame(_F8, b"\0" * 31)]),
        (_run_line(frames=1), [_frame(dict(_F8, shape=[5]), b"\0" * 32)]),
        (_run_line(frames=1), [_frame({"t": "nd"}, b"\0" * 32)]),
        (_run_line(frames=1), [_frame({"t": "what"}, b"")]),
        (_run_line(frames=1, data={"d0": 1}), [_frame(_F8, b"\0" * 32)]),
        (_run_line(frames=1, data={"d0": "0"}), [_frame(_F8, b"\0" * 32)]),
        (_run_line(data={"d0": 0}), []),
        (_run_line(frames=1, constants={"k": {"p": 9}}),
         [_frame(_F8, b"\0" * 32)]),
    ], ids=["length-vs-dtype", "length-vs-shape", "meta-incomplete",
            "meta-unknown", "index-missing", "index-text", "no-frames",
            "pickled-arg-missing"])
    def test_bad_attachment_is_a_structured_error(
            self, any_daemon, line, frames):
        """The stream is still in step, so the connection survives: the
        ack names the problem, the slot comes back, the next run runs."""

        sock = _open_raw(any_daemon, "sloppy")
        try:
            sock.sendall(line + b"".join(frames))
            ack = RecordReader(sock).read(timeout=10.0)
            assert ack["ev"] == "ack" and ack["seq"] == 2 and not ack["ok"]
            assert ack["error"]["code"] == "bad_attachment"
            tenant = any_daemon.engine.state()["tenants"]["sloppy"]
            assert tenant["inflight"] == 0 and tenant["bytes_held"] == 0
            good = _raw_ack(sock, {
                "cmd": "run", "seq": 3, **_graph_spec(np.zeros(2), bump_t)})
            assert good["ok"], good
            blob = sp.attachment(good["frames"], good["data"]["results"]["d0"])
            assert sp.decode_datum(blob).tolist() == [1.0, 1.0]
        finally:
            sock.close()
        _assert_nothing_leaked(any_daemon, "sloppy")


# ---------------------------------------------------------------------------
# the wire carries a datum's bytes once (counted, not timed)
# ---------------------------------------------------------------------------

class _CountingSocket:
    """Counts what crosses a socket in each direction."""

    def __init__(self, sock):
        self._sock, self.sent, self.received = sock, 0, 0

    def sendall(self, data):
        self.sent += len(data)
        return self._sock.sendall(data)

    def sendmsg(self, buffers):
        done = self._sock.sendmsg(buffers)
        self.sent += done
        return done

    def recv(self, n):
        chunk = self._sock.recv(n)
        self.received += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _noting(writers, write):
    """*write* (a ``socket.socket`` method) noting each caller socket."""

    def noted(sock, *args):
        writers.append(sock)
        return write(sock, *args)

    return noted


class TestWireBytes:
    def test_wire_bytes_pin(self, daemon, monkeypatch):
        """Three 64x64 float64 datums: the run moves their bytes plus a
        small envelope, the ack the one the graph writes — text-encoded
        content (4/3 of it) would be 32 KiB over — and each is one
        socket write."""

        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 64, 64))
        c = np.zeros((64, 64))
        payload = a.nbytes + b.nbytes + c.nbytes
        writers = []
        with connect(daemon.address, tenant="counted") as rt:
            transport = rt._transport
            counting = _CountingSocket(transport._sock)
            transport._sock = transport._reader._sock = counting
            gemm_t(a, b, c)
            with monkeypatch.context() as m:
                for name in ("send", "sendall", "sendmsg"):
                    m.setattr(socket.socket, name, _noting(
                        writers, getattr(socket.socket, name)))
                rt.barrier()
            sent, received = counting.sent, counting.received
        assert c.tobytes() == (a @ b).tobytes()
        assert payload <= sent <= payload + 2048
        # Only c is written (a and b are inputs): only c comes back.
        assert c.nbytes <= received <= c.nbytes + 2048
        # One gather write each way: the run, then its ack.
        assert writers == [counting._sock, writers[-1]] \
            and writers[-1] is not counting._sock, writers


def test_served_submit_call_pin(daemon):
    """1 000 positional submits on a served session make exactly 0
    Python-level calls from ``ServeSession.submit`` itself: the plan
    binds the call and each datum is registered inline, with C builtins
    only (the ``inspect.Signature`` binder made 12 000).  Keyword calls
    go through ``bind_dict`` as on the local runtime.  A count, not a
    timing (CI's bench-gate job); it may only fall."""

    import gc
    import sys

    from repro.serve.session import ServeSession

    submit = ServeSession.submit.__code__
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_back is not None \
                and frame.f_back.f_code is submit:
            calls.append(frame.f_code.co_name)

    a, b = np.ones((2, 2)), np.ones((2, 2))
    cs = [np.zeros((2, 2)) for _ in range(1000)]
    outer = sys.getprofile()
    collecting = gc.isenabled()
    with connect(daemon.address, tenant="pinned") as rt:
        gemm_t(a, b, np.zeros((2, 2)))  # the invocation plan is built once
        gc.collect()
        gc.disable()
        sys.setprofile(profile)
        try:
            for c in cs:
                gemm_t(a, b, c)
        finally:
            sys.setprofile(outer)
            if collecting:
                gc.enable()
        rt.barrier()
    assert len(calls) == 0, sorted(set(calls))
    assert all((c == 2.0).all() for c in cs)


class TestEngineStartIsAllOrNothing:
    """An engine or daemon that fails to start leaves no worker thread,
    process, socket or segment behind (the conftest leak fixture)."""

    @pytest.mark.parametrize(
        "backend", ["threads", pytest.param("processes", marks=pytest.mark.mp)])
    def test_a_failed_worker_start_stops_the_fleet(self, backend, monkeypatch):
        start = threading.Thread.start

        def failing(thread):
            # The loop's last thread: under threads, worker 1 is running.
            if thread.name in ("repro-serve-worker-2",
                               "repro-serve-worker-dispatch"):
                monkeypatch.setattr(threading.Thread, "start", start)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            ServeEngine(workers=2, backend=backend)
        assert _serve_threads() == []

    def test_a_daemon_on_a_taken_address_leaves_nothing(self):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        try:
            with pytest.raises(OSError):
                ServeDaemon(f"tcp:127.0.0.1:{taken.getsockname()[1]}",
                            workers=2)
        finally:
            taken.close()
        assert _serve_threads() == []


# ---------------------------------------------------------------------------
# failures cross the wire structured
# ---------------------------------------------------------------------------

class TestErrors:
    def test_task_failure_carries_remote_traceback(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address, tenant="boom") as rt:
            boom_t(a)
            with pytest.raises(RemoteGraphError) as exc_info:
                rt.barrier()
        assert "deliberate task failure" in str(exc_info.value)
        assert "ValueError" in exc_info.value.remote_traceback

    def test_run_before_open_is_rejected(self, daemon):
        sock = raw_connect(daemon.address, timeout=10.0)
        try:
            ack = _raw_ack(
                sock, {"cmd": "run", "seq": 1, "tasks": [], "data": {}}
            )
            assert not ack["ok"]
            assert "open" in ack["error"]["message"]
        finally:
            sock.close()

    def test_other_protocol_version_is_rejected_at_open(self, daemon):
        sock = raw_connect(daemon.address, timeout=10.0)
        try:
            # 2 is the base64-in-JSON wire: no shim speaks it any more.
            for version in (2, None):
                ack = _raw_ack(sock, {
                    "cmd": "open", "seq": 1, "tenant": "old",
                    "version": version,
                })
                assert not ack["ok"]
                assert ack["error"]["code"] == "version_mismatch"
                assert ack["error"]["client"] == version
                assert ack["error"]["server"] == 3 == sp.SERVE_PROTOCOL_VERSION
                assert f"protocol {version!r}" in ack["error"]["message"]
            # Nothing was bound: the connection still has no tenant.
            ack = _raw_ack(sock, {"cmd": "run", "seq": 2, "tasks": []})
            assert "open" in ack["error"]["message"]
        finally:
            sock.close()

    def test_close_with_a_graph_in_flight_fails_the_session_fast(self):
        """The session blocked in barrier() must see the stream end at
        once — not sit out its 120 s read timeout — and nothing of the
        daemon may outlive close()."""

        daemon = ServeDaemon("tcp:127.0.0.1:0", workers=1)
        _GATE.clear()
        outcome = []

        def session():
            a = np.zeros(2)
            try:
                with connect(daemon.address, tenant="closer") as rt:
                    gated_bump_t(a)
                    rt.barrier()
            except Exception as exc:  # noqa: BLE001 - the assertion below
                outcome.append(exc)

        client = threading.Thread(target=session, daemon=True)
        closer = threading.Thread(target=daemon.close)
        try:
            client.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                t = daemon.engine.state()["tenants"].get("closer")
                if t is not None and t["inflight"] == 1:
                    break
                time.sleep(0.01)
            closer.start()  # blocks in the fleet join until the gate opens
            client.join(2.0)
            assert not client.is_alive(), "session hung on a closed daemon"
            assert isinstance(outcome[0], (NetClosed, ServeError))
        finally:
            _GATE.set()
        closer.join(10.0)
        assert not closer.is_alive()
        tenant = daemon.engine.state()["tenants"]["closer"]
        assert tenant["inflight"] == 0 and tenant["bytes_held"] == 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline and _serve_threads():
            time.sleep(0.01)
        assert _serve_threads() == []

    def test_empty_barrier_is_local_noop(self, daemon):
        with connect(daemon.address) as rt:
            rt.barrier()  # nothing batched: no graph crosses the wire
            assert rt.graphs_submitted == 0


# ---------------------------------------------------------------------------
# the HTTP surface: per-tenant metrics and health on the session port
# ---------------------------------------------------------------------------

class TestHttpSurface:
    def test_metrics_health_and_tenant_filter(self, daemon):
        a = np.zeros(2)
        with connect(daemon.address, tenant="alice") as rt:
            bump_t(a)
            rt.barrier()
        with connect(daemon.address, tenant="bob") as rt:
            bump_t(a)
            rt.barrier()
        host = daemon.address.split(":", 1)[1]
        page = urllib.request.urlopen(
            f"http://{host}/metrics", timeout=10
        ).read().decode()
        assert 'tenant="alice"' in page and 'tenant="bob"' in page
        assert "repro_serve_graphs_completed" in page
        alice = urllib.request.urlopen(
            f"http://{host}/metrics/alice", timeout=10
        ).read().decode()
        assert 'tenant="alice"' in alice
        assert 'tenant="bob"' not in alice
        assert "# TYPE repro_serve_graphs_completed" in alice
        health = json.loads(urllib.request.urlopen(
            f"http://{host}/health", timeout=10
        ).read())
        assert health["service"] == "repro.serve"
        assert health["tenants"]["alice"]["graphs"] == 1
        # Worker liveness: one record per worker slot, all alive.
        assert len(health["worker_liveness"]) == health["workers"]
        assert all(w["alive"] for w in health["worker_liveness"])
        assert health["workers_alive"] == health["workers"]
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"http://{host}/nope", timeout=10)
        assert exc_info.value.code == 404

    def test_queue_depth_is_sampled_by_the_scrape(self, daemon):
        """Four independent gated tasks on two workers: two run, two
        wait — and /metrics says so although no graph has been
        submitted or finalized since the workers popped."""

        def depth():
            host = daemon.address.split(":", 1)[1]
            page = urllib.request.urlopen(
                f"http://{host}/metrics", timeout=10
            ).read().decode()
            (line,) = [
                ln for ln in page.splitlines()
                if ln.startswith("repro_serve_queue_depth")
            ]
            return float(line.split()[-1])

        _GATE.clear()
        del _GATED_STARTED[:]
        try:
            job = daemon.engine.submit_graph("deep", _run_record(
                {f"d{i}": np.zeros(2) for i in range(4)},
                [(gated_bump_t, [f"d{i}"]) for i in range(4)],
            ))
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and len(_GATED_STARTED) < 2:
                time.sleep(0.01)
            assert depth() == 2
        finally:
            _GATE.set()
        assert job.done.wait(10.0) and job.error is None
        assert depth() == 0

    def test_health_command_over_session(self, daemon):
        with connect(daemon.address, tenant="probe") as rt:
            state = rt.service_state()
            assert state["workers"] == 2
            assert "probe" in state["tenants"]
            assert rt.ping()["tenant"] == "probe"
