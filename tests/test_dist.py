"""End-to-end tests of the distributed backend (repro.dist).

Everything the threaded runtime guarantees must hold bit-for-bit under
``backend="cluster"`` with all agents on localhost: dependency order,
renaming, regions, error propagation.  On top the backend adds its own
contracts — datum residency (repeat submissions ship fewer bytes),
locality-aware placement, one automatic re-dispatch after an agent
death, structured data-loss errors in lazy mode — pinned down here.
"""

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dist.manager as manager_module
from repro import SmpssRuntime, TaskExecutionError, css_task, wait_on
from repro.apps.cholesky import HyperMatrix, cholesky_hyper
from repro.apps.multisort import multisort
from repro.dist import (
    AgentServer,
    DistDataLossError,
    RemoteTaskError,
    SerializationError,
)
from repro.net import connect, recv_frame, send_frame
from repro.obs.exposition import render_registry

from .test_mp_runtime import _hold as hold  # a paused DispatchGate on rt
from .test_mp_runtime import (
    _barrier_within,
    _Counted,
    _dispatcher_fault,
    _record_frames,
    slow_fill_t,
)

pytestmark = pytest.mark.dist


# ---------------------------------------------------------------------------
# task definitions (module level so agents resolve them by name)
# ---------------------------------------------------------------------------

@css_task("input(a, b) inout(c)")
def axpy_t(a, b, c):
    c += a * b


@css_task("input(a, b) output(c)")
def mul_t(a, b, c):
    np.multiply(a, b, out=c)


@css_task("input(c) inout(acc)")
def accum_t(c, acc):
    acc += c


@css_task("inout(a)")
def incr_t(a):
    a += 1


@css_task("inout(a)")
def slow_incr_t(a):
    time.sleep(0.05)
    a += 1


#: A gated body's start signal and go-ahead (the agents run in process).
STARTED, GO = threading.Event(), threading.Event()


@css_task("inout(a)")
def gated_incr_t(a):
    STARTED.set()
    GO.wait(10.0)
    a += 1


@css_task("inout(a)")
def boom_t(a):
    raise ValueError("remote kaboom")


@css_task("opaque(ctx) inout(a)")
def opaque_t(ctx, a):
    a += 1


@css_task("inout(buf)")
def bump_bytes_t(buf):
    buf[0] += 1


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture()
def agents():
    """Two in-process localhost agents, two slots each."""

    started = [
        AgentServer("tcp:127.0.0.1:0", slots=2).start() for _ in range(2)
    ]
    try:
        yield started
    finally:
        for agent in started:
            agent.close()


def cluster(agents, **kwargs):
    return SmpssRuntime(
        backend="cluster", nodes=[a.address for a in agents], **kwargs
    )


@pytest.fixture()
def pair():
    """Two in-process localhost agents, one slot each."""

    started = [
        AgentServer("tcp:127.0.0.1:0", slots=1).start() for _ in range(2)
    ]
    try:
        yield started
    finally:
        for agent in started:
            agent.close()


def pin(rt, where):
    """Fix the schedule: each task runs on node ``where(k)``, *k* its
    submission number since this call, and nothing is stolen — so the
    counts below are the protocol's, not of who won a race for a list.
    For two one-slot agents: the one dispatcher pops for every idle
    slot on each wake-up, so a task left on a slot's list is never
    stranded there."""

    scheduler = rt.scheduler
    slots = [node.slot_ids[0] for node in rt.backend._nodes]
    first = []

    def placement(task):
        if not first:
            first.append(task.task_id)
        return slots[where(task.task_id - first[0])]

    def select(thread):
        own = scheduler.locals[thread]
        return own.pop() if own else None

    scheduler.placement, scheduler._select = placement, select


def count_traffic(rt, monkeypatch):
    """``(control, frames)``: the kind of every control-channel request,
    and one entry per message the master sends or parses from now on —
    ``"record"`` and ``"reply"`` on the dispatch sockets' record streams,
    ``"send_frame"`` and ``"recv_frame"`` on the control channels."""

    control, frames = [], []
    backend = rt.backend
    request = backend._control
    backend._control = lambda name, req, **kw: (
        control.append(req["k"]), request(name, req, **kw))[1]
    for name in ("send_frame", "recv_frame"):
        plain = getattr(manager_module, name)
        monkeypatch.setattr(manager_module, name, lambda *a, _f=plain, **kw: (
            frames.append(_f.__name__), _f(*a, **kw))[1])
    send = manager_module.send_messages
    monkeypatch.setattr(manager_module, "send_messages", lambda sock, msgs: (
        msgs := list(msgs), frames.extend(["record"] * len(msgs)),
        send(sock, msgs))[2])
    # The dispatcher parses every reply of one read in one call.
    for link in backend.links:
        link.replies.messages = lambda _parse=link.replies.messages: (
            got := _parse(), frames.extend(["reply"] * len(got)))[0]
    return control, frames


def moved(rt):
    return rt.metrics.counter("dist.bytes_moved").value


def _await(what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not what():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


# ---------------------------------------------------------------------------
# bitwise parity with the threads backend
# ---------------------------------------------------------------------------

class TestParity:
    def test_cholesky_bitwise_identical_to_threads(self, agents):
        h_ref = HyperMatrix.random_spd(6, 24, seed=7)
        h_dist = h_ref.copy()
        with SmpssRuntime(num_workers=4) as rt:
            cholesky_hyper(h_ref)
            rt.barrier()
        with cluster(agents) as rt:
            cholesky_hyper(h_dist)
            rt.barrier()
            snap = rt.metrics.snapshot()
        assert np.array_equal(h_ref.lower_to_dense(), h_dist.lower_to_dense())
        # Both nodes did real work (placement did not serialise).
        per_node = snap["dist.node_tasks"]
        assert sum(bool(v) for v in per_node.values()) >= 1

    def test_multisort_bitwise_identical_to_threads(self, agents):
        rng = np.random.default_rng(11)
        data = rng.random(4096)
        ref = data.copy()
        with SmpssRuntime(num_workers=4) as rt:
            multisort(ref, quicksize=256)
            rt.barrier()
        got = data.copy()
        with cluster(agents) as rt:
            multisort(got, quicksize=256)
            rt.barrier()
        assert np.array_equal(ref, got)

    def test_war_waw_renaming_matches_threads(self, agents):
        # incr chains + cross-reads: exercises CLONE (inout rename)
        # and FRESH (output rename) across the wire.
        rng = np.random.default_rng(3)
        a0 = rng.random((16, 16))
        b0 = rng.random((16, 16))

        def program(rt, a, b):
            c = np.empty((16, 16))
            for _ in range(3):
                incr_t(a)
                mul_t(a, b, c)
                accum_t(c, b)
            rt.barrier()
            return c

        a_ref, b_ref = a0.copy(), b0.copy()
        with SmpssRuntime(num_workers=2) as rt:
            c_ref = program(rt, a_ref, b_ref)
        a_d, b_d = a0.copy(), b0.copy()
        with cluster(agents) as rt:
            c_d = program(rt, a_d, b_d)
        assert np.array_equal(a_ref, a_d)
        assert np.array_equal(b_ref, b_d)
        assert np.array_equal(c_ref, c_d)

    def test_processes_agent_mode(self):
        # One program, three remote ends: process workers, threads-agent
        # slots and --processes agent slots must give bitwise-equal data
        # (region writes, renaming and bytearrays included).
        rng = np.random.default_rng(5)
        a = rng.random((16, 16))
        b = rng.random((16, 16))
        c0 = rng.random((16, 16))
        expect = c0 + a * b
        data0, buf0 = rng.random(2048), bytearray(b"ab")
        ref, ref_buf = data0.copy(), bytearray(buf0)
        multisort(ref, quicksize=128)
        bump_bytes_t(ref_buf)

        def program(**where):
            c, data, buf = c0.copy(), data0.copy(), bytearray(buf0)
            with SmpssRuntime(**where) as rt:
                axpy_t(a, b, c)
                rt.barrier()
            assert np.array_equal(expect, c)
            with SmpssRuntime(**where) as rt:
                multisort(data, quicksize=128)
                bump_bytes_t(buf)
                rt.barrier()
            assert np.array_equal(ref, data) and buf == ref_buf

        program(backend="processes", num_workers=2)
        for processes in (False, True):
            agent = AgentServer(
                "tcp:127.0.0.1:0", slots=2, processes=processes).start()
            try:
                program(backend="cluster", nodes=[agent.address])
            finally:
                agent.close()


# ---------------------------------------------------------------------------
# residency cache
# ---------------------------------------------------------------------------

class TestResidencyCache:
    @pytest.mark.parametrize("backend", ["threads", "processes", "cluster"])
    def test_a_write_after_wait_on_is_dispatched(self, pair, backend):
        # The program writes the master copy wait_on handed it: the next
        # task must read that, not a node's copy from before it.
        kwargs = ({"nodes": [pair[0].address]} if backend == "cluster"
                  else {"num_workers": 1})
        a = np.zeros(4)
        with SmpssRuntime(backend=backend, **kwargs) as rt:
            incr_t(a)
            x = wait_on(a)
            x[...] = 100
            incr_t(a)
            rt.barrier()
        assert np.array_equal(a, np.full(4, 101.0))

    def test_second_submission_ships_fewer_bytes(self, agents):
        rng = np.random.default_rng(13)
        A = [rng.random((64, 64)) for _ in range(6)]
        B = [rng.random((64, 64)) for _ in range(6)]
        with cluster(agents) as rt:
            m = rt.metrics

            def submit():
                acc = np.zeros((64, 64))
                for a, b in zip(A, B):
                    c = np.empty((64, 64))
                    mul_t(a, b, c)
                    accum_t(c, acc)
                rt.barrier()
                return acc

            r1 = submit()
            first = m.counter("dist.bytes_moved").value
            hits1 = m.counter("dist.cache_hits").value
            r2 = submit()
            second = m.counter("dist.bytes_moved").value - first
            hits2 = m.counter("dist.cache_hits").value - hits1
        assert np.array_equal(r1, r2)
        assert np.allclose(r1, sum(a * b for a, b in zip(A, B)))
        assert second < first      # A/B resident from the first round
        assert hits2 > 0

    def test_mutation_between_barriers_invalidates_cache(self, agents):
        rng = np.random.default_rng(17)
        a = rng.random((32, 32))
        b = rng.random((32, 32))
        with cluster(agents) as rt:
            c = np.empty((32, 32))
            mul_t(a, b, c)
            rt.barrier()
            a[0, 0] = 123.456  # out-of-band mutation
            c2 = np.empty((32, 32))
            mul_t(a, b, c2)
            rt.barrier()
            assert np.array_equal(c2, a * b)

    def test_barrier_evicts_everything_but_base_arrays(self, agents):
        a = np.random.default_rng(19).random((16, 16))
        with cluster(agents) as rt:
            for _ in range(3):
                incr_t(a)  # renamed clones come and go
            rt.barrier()
            residency = rt.backend._residency
            for entry in residency.entries():
                assert entry.is_base
                assert entry.obj is a

    def test_dropped_array_is_evicted_here_and_on_its_holder(self, agents):
        rng = np.random.default_rng(23)
        a, b, c = rng.random((48, 48)), rng.random((48, 48)), np.empty((48, 48))
        with cluster(agents) as rt:
            backend, residency = rt.backend, rt.backend._residency
            mul_t(a, b, c)
            rt.barrier()
            assert len(residency) == 3          # the user holds all three
            key, (holder,) = residency.get(a).key, residency.get(a).copies
            store = agents[int(holder[1:])].store
            assert key in store._data
            sent = []
            control = backend._control
            backend._control = lambda name, request, **kw: (
                sent.append((name, request)), control(name, request, **kw))[1]
            del a
            rt.barrier()
            assert (holder, {"k": "evict", "keys": [key]}) in sent
            backend._control(holder, {"k": "ping"})   # evict has no reply
            assert key not in store._data
            assert len(residency) == 2
            # The gauge that makes a residency leak visible.
            assert "dist.residency_entries: 2" in rt.report()
            assert "repro_dist_residency_entries 2" in render_registry(
                rt.metrics)
            assert np.array_equal(c, residency.get(c).obj)

    def test_fresh_arrays_every_round_leave_map_and_stores_flat(self, agents):
        rng = np.random.default_rng(29)
        fixed = [rng.random((48, 48)) for _ in range(4)]
        per_round = 2 + 4 + 1                   # fresh inputs, outputs, acc
        sizes = []
        with cluster(agents) as rt:
            backend = rt.backend
            for _ in range(50):
                fresh = [rng.random((48, 48)) for _ in range(2)]
                outs = [np.empty((48, 48)) for _ in range(4)]
                acc = np.zeros((48, 48))
                for a, b, c in zip(fixed, (fresh + fresh), outs):
                    mul_t(a, b, c)
                    accum_t(c, acc)
                rt.barrier()
                assert np.allclose(acc, sum(
                    a * b for a, b in zip(fixed, fresh + fresh)))
                del fresh, outs, acc, a, b, c
                sizes.append((len(backend._residency), [
                    backend._control(n, {"k": "ping"})[0]["store"]["entries"]
                    for n in ("n0", "n1")
                ]))
        (first, first_stores), (last, last_stores) = sizes[4], sizes[-1]
        assert abs(last - first) <= per_round, sizes
        assert last <= len(fixed) + 2 * per_round, sizes
        for before, after in zip(first_stores, last_stores):
            assert abs(after - before) <= per_round, sizes

    def test_kept_arrays_stay_resident_while_dropped_ones_go(self, agents):
        rng = np.random.default_rng(31)
        A = [rng.random((32, 32)) for _ in range(4)]
        B = [rng.random((32, 32)) for _ in range(4)]
        with cluster(agents) as rt:
            hits = rt.metrics.counter("dist.cache_hits")
            keys, gained = [], []
            for _ in range(4):
                before = hits.value
                acc = np.zeros((32, 32))
                for a, b in zip(A, B):
                    c = np.empty((32, 32))
                    mul_t(a, b, c)
                    accum_t(c, acc)
                rt.barrier()
                del acc, c
                gained.append(hits.value - before)
                keys.append([rt.backend._residency.get(x).key for x in A + B])
        assert keys[0] == keys[1] == keys[2] == keys[3]   # never re-registered
        # Round 1 ships A and B; every later round finds them resident.
        assert all(later > gained[0] for later in gained[1:]), gained

    def test_unweakrefable_base_objects_are_evicted_at_the_barrier(self, agents):
        buf = bytearray(16)
        with cluster(agents) as rt:
            for expected in (1, 2):
                bump_bytes_t(buf)
                rt.barrier()
                assert buf[0] == expected
                assert len(rt.backend._residency) == 0
        for agent in agents:
            assert agent.store.stats()["entries"] == 0

    def test_acquire_fetches_lazy_output_home(self, agents):
        a = np.zeros((8, 8))
        with cluster(agents) as rt:
            incr_t(a)
            # wait_on/acquire must see the remote write without a
            # barrier.
            got = rt.acquire(a)
            assert np.array_equal(got, np.ones((8, 8)))

    def test_wait_on_waits_for_every_region_writer(self, agents):
        a = np.zeros(8)
        with cluster(agents):
            slow_fill_t(a, 0, 3)
            slow_fill_t(a, 4, 7)
            assert wait_on(a) is a
            assert (a == 7).all()


# ---------------------------------------------------------------------------
# the home rule: a written datum's newest version rides the done frame
# ---------------------------------------------------------------------------

TILE = 48 * 48 * 8

#: One step of a random program over three arrays: the task and which
#: arrays it names, or a ``wait_on``.
_steps = st.one_of(
    st.tuples(st.just("incr"), st.permutations(range(3))),
    st.tuples(st.just("mul"), st.permutations(range(3))),   # output: WAW
    st.tuples(st.just("accum"), st.permutations(range(3))),
    st.tuples(st.just("wait"), st.permutations(range(3))),
)


def _run_program(rt, steps, seed):
    """Submit the tasks between two waits all at once, then wait; the
    final arrays and what every wait saw."""

    data = list(np.random.default_rng(seed).random((3, 6, 6)))
    calls = {"incr": lambda i, j, k: incr_t(data[i]),
             "mul": lambda i, j, k: mul_t(data[i], data[j], data[k]),
             "accum": lambda i, j, k: accum_t(data[i], data[j])}
    segment, seen = [], []
    for kind, (i, j, k) in steps + [("wait", (0, 1, 2))]:
        if kind != "wait":
            segment.append((calls[kind], i, j, k))
            continue
        with hold(rt):
            for call, *names in segment:
                call(*names)
        segment = []
        seen.append(np.array(rt.acquire(data[i])))
        # Drain before the next segment is analysed: whether an output
        # rides home depends on its successor having been submitted, and
        # a task still in flight here makes the byte counts a race.
        _await(lambda: rt.graph.pending_count == 0)
    rt.barrier()
    return data + seen


class TestOutputsRideHome:
    def _chain(self, agents, stepwise, monkeypatch, **config):
        a = np.arange(36.0).reshape(6, 6)
        with cluster(agents[:1], **config) as rt:   # one slot: one order
            control, _ = count_traffic(rt, monkeypatch)
            if stepwise:
                for _ in range(8):
                    rt.wait_for(incr_t(a))
            else:
                with hold(rt):
                    for _ in range(8):
                        incr_t(a)
            rt.barrier()
            return a, moved(rt), control.count("fetch")

    def test_a_chain_submitted_at_once_comes_home_once(
            self, pair, monkeypatch):
        a, bytes_moved, fetches = self._chain(pair, False, monkeypatch)
        assert np.array_equal(a, np.arange(36.0).reshape(6, 6) + 8)
        # Out with the first task, home with the last: what the barrier's
        # fetch used to move, and not a superseded version more.
        assert bytes_moved == 2 * a.nbytes and fetches == 0

    def test_a_throttled_submitter_moves_what_write_through_does(
            self, pair, monkeypatch):
        a, lazy, fetches = self._chain(pair, True, monkeypatch)
        b, through, _ = self._chain(pair, True, monkeypatch,
                                    dist_write_through=True)
        assert np.array_equal(a, b)
        # Every version was the newest when its task left: each came
        # home, as under write-through, and never more than that.
        assert lazy == through == 9 * a.nbytes and fetches == 0

    def test_a_consumer_elsewhere_and_the_barrier_fetch_nothing(
            self, pair, monkeypatch):
        rng = np.random.default_rng(37)
        a, b = rng.random((48, 48)), rng.random((48, 48))
        c, acc = np.empty((48, 48)), np.ones((48, 48))
        with cluster(pair) as rt:
            pin(rt, lambda k: k)            # mul on n0, accum on n1
            control, _ = count_traffic(rt, monkeypatch)
            with hold(rt):
                mul_t(a, b, c)
                accum_t(c, acc)
            rt.barrier()
            assert control.count("fetch") == 0
            # a, b out; c home, c out to n1; acc out, acc home.
            assert moved(rt) == 6 * TILE
            assert all(e.master_current()
                       for e in rt.backend._residency.entries())
            assert rt.backend._residency.get(c).holders() == ["n0", "n1"]
        assert np.array_equal(c, a * b) and np.array_equal(acc, 1 + a * b)

    def test_lazy_never_moves_more_than_write_through(self, pair):
        def run(steps, seed, **config):
            with cluster(pair, **config) as rt:
                pin(rt, lambda k: k % 2)
                data = _run_program(rt, steps, seed)
                assert all(e.master_current()
                           for e in rt.backend._residency.entries())
                return data, moved(rt)

        @settings(max_examples=25, deadline=None)
        @given(steps=st.lists(_steps, min_size=1, max_size=10),
               seed=st.integers(0, 99))
        def check(steps, seed):
            with SmpssRuntime(num_workers=2) as rt:
                want = _run_program(rt, steps, seed)
            lazy, lazy_bytes = run(steps, seed)
            through, through_bytes = run(steps, seed, dist_write_through=True)
            for x, y, z in zip(want, lazy, through):
                assert np.array_equal(x, y) and np.array_equal(x, z)
            assert lazy_bytes <= through_bytes

        check()

    def test_a_renamed_away_array_reads_right_next_round(self, pair):
        # WAW: the second output renames, so the user's array holds the
        # first one's content remotely and is overwritten by the
        # barrier's write-back on the master.  The barrier fetches the
        # stale entry home first, which is what lets the checksum guard
        # see that write-back as a mutation and re-ship next round.
        rng = np.random.default_rng(41)
        a, b, d = (rng.random((16, 16)) for _ in range(3))
        x, y = np.empty((16, 16)), np.empty((16, 16))
        with cluster(pair[:1]) as rt:
            with hold(rt):
                mul_t(a, b, x)
                mul_t(a, d, x)
            rt.barrier()
            assert np.array_equal(x, a * d)
            mul_t(x, b, y)
            rt.barrier()
        assert np.array_equal(y, a * d * b)

    def test_many_readers_of_one_stale_datum_share_one_fetch(
            self, pair, monkeypatch):
        a = np.zeros((8, 8))
        switch = sys.getswitchinterval()
        with cluster(pair[:1]) as rt:
            control, _ = count_traffic(rt, monkeypatch)
            with hold(rt) as gate:
                incr_t(a)
                incr_t(a)       # supersedes the first: that one stays put
                gate.step()
                _await(lambda: rt.tasks_executed == 1)
                entry = rt.backend._residency.get(a)
                assert not entry.master_current()
                start = threading.Barrier(8)
                readers = [threading.Thread(target=lambda: (
                    start.wait(5.0), rt.backend._fetch_home(entry)))
                    for _ in range(8)]
                sys.setswitchinterval(1e-5)
                try:
                    for reader in readers:
                        reader.start()
                    for reader in readers:
                        reader.join(10.0)
                finally:
                    sys.setswitchinterval(switch)
                assert not any(reader.is_alive() for reader in readers)
                assert control.count("fetch") == 1
                assert entry.master_current() and np.array_equal(
                    a, np.ones((8, 8)))
            rt.barrier()
        assert np.array_equal(a, np.full((8, 8), 2.0))

    @staticmethod
    def _tile_round(rt, rng, fixed, batch=None):
        """One ``cluster_tiles`` round: the 16-task mul -> accum tile
        round on a fixed schedule (mul k on node k % 2, the accumulate
        chain on node 0), submitted held (in *batch*, if given)."""

        a, b = (part + list(rng.random((2, 48, 48))) for part in fixed)
        c = [np.empty((48, 48)) for _ in range(8)]
        acc = np.zeros((48, 48))
        # Submission numbers 2k (mul k) and 2k + 1 (accum k).
        pin(rt, lambda n: 0 if n % 2 else (n // 2) % 2)
        with batch or hold(rt):
            for x, y, z in zip(a, b, c):
                mul_t(x, y, z)
                accum_t(z, acc)
        rt.barrier()
        assert np.array_equal(acc, sum(x * y for x, y in zip(a, b)))
        assert all(np.array_equal(z, x * y) for x, y, z in zip(a, b, c))

    def test_frames_pin(self, pair, monkeypatch):
        """The counted pin CI's bench-gate runs: the warmed tile round
        (:meth:`_tile_round`) sends no ``fetch``, one record and one
        reply per task plus the 2 evicts, and moves exactly 18 tiles."""

        rng = np.random.default_rng(43)
        fixed = [list(rng.random((6, 48, 48))) for _ in range(2)]
        with cluster(pair) as rt:
            self._tile_round(rt, rng, fixed)
            control, frames = count_traffic(rt, monkeypatch)
            before = moved(rt)
            self._tile_round(rt, rng, fixed)
            # 4 fresh inputs out, 8 products home, 4 of them out again
            # to the accumulator's node, the accumulator out and home.
            assert moved(rt) - before == 18 * TILE
            assert control.count("fetch") == 0
            assert frames.count("record") == frames.count("reply") == 16
            assert len(frames) <= 34, frames   # + 2 evict

    def test_cluster_task_call_pin(self, pair, monkeypatch):
        """The counted pin CI's bench-gate runs: the warmed tile round
        (:meth:`_tile_round`) costs the master — the main thread from
        the first submission to the barrier's return, and the
        dispatcher — exactly 1 275 Python-level calls (79.7 a task;
        1 827 before the remote path was fused: a task's residency
        lookups in one lock section, ``ResidencyMap.lookup``, inline
        counters, held gauge handles at the barrier).  Frames are sized by the fair share
        alone (every body's expected time zero), so the count depends on
        the program only.  A count, not a timing; it may only fall."""

        rng = np.random.default_rng(43)
        fixed = [list(rng.random((6, 48, 48))) for _ in range(2)]
        counted = _Counted(monkeypatch, owner=True)
        try:
            with cluster(pair) as rt:
                _record_frames(rt)
                self._tile_round(rt, rng, fixed)
                self._tile_round(rt, rng, fixed, counted.batch(rt, main=True))
        finally:
            counted.close()
        assert counted.total == 1275, counted.per_task(16)

    def test_reads_pin(self, pair, monkeypatch):
        """The counted pin CI's bench-gate runs: 64 independent tasks
        released at once to two one-slot agents cost the master fewer
        reads of the dispatch sockets than replies — one read per link
        per wake-up parses every reply it completed."""

        recvs = []
        recv = socket.socket.recv
        monkeypatch.setattr(socket.socket, "recv", lambda sock, *args: (
            recvs.append(sock), recv(sock, *args))[1])
        one = np.ones(4)
        cells = [np.zeros(4) for _ in range(64)]
        with cluster(pair) as rt:
            for cell in cells[:8]:  # both links learn the body's time
                accum_t(one, cell)
            rt.barrier()
            links = {link.conn for link in rt.backend.links}
            recvs.clear()
            with hold(rt):
                for cell in cells:
                    accum_t(one, cell)
            rt.barrier()
            reads = sum(sock in links for sock in recvs)
        assert all(cell[0] == 1 for cell in cells[8:])
        assert 0 < reads < 64, reads

    def test_master_threads_pin(self, agents):
        """The counted pin CI's bench-gate runs: two 2-slot agents are
        driven by the main thread and one dispatcher, not a thread per
        slot."""

        before = set(threading.enumerate())
        arrays = [np.zeros(4) for _ in range(8)]
        with cluster(agents) as rt:
            for a in arrays:
                slow_incr_t(a)
            started = [t.name for t in threading.enumerate()
                       if t not in before
                       and not t.name.startswith("repro-dist-agent")]
            rt.barrier()
            assert [row["slot"] for row in rt._loop.liveness()] == [
                1, 2, 3, 4]
        assert started == ["smpss-worker-dispatch"]
        assert all(np.array_equal(a, np.ones(4)) for a in arrays)


# ---------------------------------------------------------------------------
# failure semantics
# ---------------------------------------------------------------------------

class TestFailures:
    def test_agent_death_recovers_with_one_redispatch(self, pair):
        # The first task runs on node 1 and holds there; node 1 dies
        # between its start and its go-ahead.  Every other even task
        # waits behind it on node 1's slot, the odd ones run on node 0.
        rng = np.random.default_rng(23)
        arrays = [rng.random((8, 8)) for _ in range(8)]
        expect = [a + 1 for a in arrays]
        STARTED.clear()
        GO.clear()
        try:
            with cluster(pair, dist_write_through=True) as rt:
                pin(rt, lambda k: 1 - k % 2)
                with hold(rt):
                    gated_incr_t(arrays[0])
                    for a in arrays[1:]:
                        incr_t(a)
                assert STARTED.wait(10.0)
                pair[1].kill()
                GO.set()
                rt.barrier()
                deaths = rt.metrics.counter("dist.agent_deaths").value
                redispatched = rt.metrics.counter(
                    "dist.redispatched_tasks").value
                text = render_registry(rt.metrics)
        finally:
            GO.set()
        assert all(np.array_equal(e, a) for e, a in zip(expect, arrays))
        assert deaths == 1
        assert redispatched == 1
        # Prometheus exposition carries the death counters and the
        # per-node gauges.
        assert "repro_dist_agent_deaths" in text
        assert 'node="n1"' in text

    def test_lazy_mode_sole_copy_loss_is_structured(self, agents):
        # What lazy mode can still lose: a version a later writer has
        # superseded, whose successor has not run.  Two chained tasks
        # behind a paused gate, one ticket, and the first one's node dies.
        a = np.zeros((8, 8))
        with pytest.raises(TaskExecutionError) as exc:
            with cluster(agents) as rt:
                with hold(rt) as gate:
                    incr_t(a)
                    incr_t(a)
                    gate.step()
                    _await(lambda: rt.tasks_executed == 1)
                    entry = rt.backend._residency.get(a)
                    key, writer = entry.key, entry.last_writer
                    assert not entry.master_current()
                    agents[int(writer[1:])].kill()
                rt.barrier()
        root = exc.value
        while root.__cause__ is not None:
            root = root.__cause__
        assert type(root) is DistDataLossError
        assert f"datum {key}" in str(root)
        assert f"last writer {writer}" in str(root)
        assert rt.metrics.counter("dist.agent_deaths").value == 1
        assert np.array_equal(a, np.zeros((8, 8)))  # the stale master copy

    def test_a_dying_dispatcher_fails_the_barrier(self, pair, monkeypatch):
        _dispatcher_fault(monkeypatch)
        arrays = [np.zeros(4) for _ in range(6)]
        with pytest.raises(RuntimeError, match="injected dispatcher fault"):
            with cluster(pair) as rt:
                for a in arrays:
                    incr_t(a)
                _barrier_within(rt)
        assert not rt._loop._threads[0].is_alive()

    @pytest.mark.parametrize("stream", [None, 1])
    def test_an_agent_refuses_another_record_stream(self, pair, stream):
        hello = {"k": "hello", "sid": "s", "role": "dispatch", "slot": 1}
        if stream is not None:
            hello["stream"] = stream
        with connect(pair[0].address, timeout=5.0) as sock:
            send_frame(sock, hello)
            reply, _ = recv_frame(sock, timeout=5.0)
        assert reply["k"] == "error"
        assert f"record stream version {stream!r}" in reply["error"]

    def test_a_master_of_another_stream_version_raises(
            self, pair, monkeypatch):
        monkeypatch.setattr(manager_module, "STREAM_VERSION", 99)
        with pytest.raises(ConnectionError) as exc:
            cluster(pair).start()
        assert pair[0].address in str(exc.value)
        assert "record stream version 99" in str(exc.value)

    def test_remote_error_carries_traceback(self, agents):
        a = np.zeros(4)
        with pytest.raises(TaskExecutionError) as exc:
            with cluster(agents) as rt:
                boom_t(a)
                rt.barrier()
        cause = exc.value.__cause__
        assert isinstance(cause, RemoteTaskError)
        assert "remote kaboom" in str(cause)
        assert "boom_t" in str(cause)

    def test_opaque_nonscalar_is_rejected(self, agents):
        a = np.zeros(4)
        ctx = np.ones(4)  # writes through it would be lost silently
        with pytest.raises(TaskExecutionError) as exc:
            with cluster(agents) as rt:
                opaque_t(ctx, a)
                rt.barrier()
        assert isinstance(exc.value.__cause__, SerializationError)


# ---------------------------------------------------------------------------
# lifecycle / configuration
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_agents_are_reusable_across_sessions(self, agents):
        for _ in range(2):
            a = np.zeros((8, 8))
            with cluster(agents) as rt:
                incr_t(a)
                rt.barrier()
            assert np.array_equal(a, np.ones((8, 8)))
        # Session release dropped the store: nothing left behind.
        for agent in agents:
            assert agent.store.stats()["entries"] == 0

    def test_release_drops_the_sessions_definitions(self, agents):
        for _ in range(3):
            a = np.zeros((8, 8))
            with cluster(agents) as rt:
                incr_t(a)
                rt.barrier()
                assert sum(len(agent._funcs) for agent in agents) == 1
        # `release` answers before `stop()` returns: nothing is pending.
        assert [len(agent._funcs) for agent in agents] == [0, 0]

    def test_num_workers_derived_from_agent_slots(self, agents):
        with cluster(agents) as rt:
            assert rt.config.num_workers == 4  # 2 agents x 2 slots

    def test_config_validation(self):
        with pytest.raises(TypeError):
            SmpssRuntime(backend="cluster")  # no nodes
        with pytest.raises(TypeError):
            SmpssRuntime(backend="cluster", nodes=["tcp:x:1"], num_workers=2)
        with pytest.raises(TypeError):
            SmpssRuntime(num_workers=2, nodes=["tcp:x:1"])  # threads + nodes

    def test_liveness_surface(self, agents):
        with cluster(agents) as rt:
            live = rt.backend.liveness()
            assert len(live) == 4
            assert all(w["alive"] for w in live)
            assert {w["node"] for w in live} == {"n0", "n1"}


class TestControlCli:
    """``python -m repro dist ping|stop`` against an in-process agent."""

    def test_ping_prints_the_pong(self, agents, capsys):
        from repro.__main__ import main

        assert main(["dist", "ping", agents[0].address]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["k"] == "pong" and reply["slots"] == 2
        assert reply["store"]["entries"] == 0

    def test_stop_closes_the_agent(self):
        from repro.__main__ import main

        agent = AgentServer("tcp:127.0.0.1:0", slots=1).start()
        try:
            assert main(["dist", "stop", agent.address]) == 0
            deadline = time.monotonic() + 5.0
            while not agent.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert agent.closed
        finally:
            agent.close()
