"""One remote task record, one reply, one runner and one error pair.

A process worker and a node agent slot run the same positional record
(``repro.mp.worker.task_record``) through the same runner
(``run_record``), each with its own resolver; a resolver given a value
spec it does not serve refuses it with the one ``SerializationError``.
A lost remote end is the one ``WorkerLostError``; both name their slot
(and node).  ``SmpssRuntime.start()`` is all or nothing.
"""

import multiprocessing
import pickle
import socket
import threading

import numpy as np
import pytest

from repro import SmpssRuntime, TaskExecutionError, css_task
from repro.dist.agent import _AgentStore
from repro.mp.encoding import definition_payload
from repro.mp.executor import WorkerProcess
from repro.mp.worker import _Attachments, run_record
from repro.net.codec import (
    FRESH,
    HANDLE,
    INLINE,
    SerializationError,
    WorkerLostError,
)

from .test_dist import cluster, opaque_t
from .test_dist import agents  # noqa: F401 - fixture
from .test_mp_runtime import always_die_t


@css_task("inout(a)")
def incr_t(a):
    a += 1


def _record(*specs, writebacks=(), puts=()):
    return (1, "k", definition_payload(incr_t.definition), 7, "incr_t",
            list(specs), list(writebacks), list(puts))


class TestOneRunner:
    def test_a_worker_refuses_a_node_store_spec(self):
        reply = run_record(_record((FRESH, {"t": "nd"})), _Attachments(),
                           {}, 1, None)
        seq, err, _duration, events, writebacks = reply
        assert seq == 1 and events == [] and writebacks == []
        assert err[0] == "SerializationError"
        assert "process worker does not serve value spec 'f'" in err[1]

    def test_an_agent_refuses_an_arena_handle_and_an_unknown_tag(self):
        for tag in (HANDLE, "x"):
            err = run_record(_record((tag, None)), _AgentStore(), {}, 1,
                             None)[1]
            assert err[0] == "SerializationError"
            assert f"node agent does not serve value spec {tag!r}" in err[1]

    @pytest.mark.mp
    def test_a_worker_process_refuses_on_its_own_end(self):
        worker = WorkerProcess(1, False, 16)
        try:
            record = _record((INLINE, np.zeros(2)), ("r", "s:1", 0))
            worker.send([pickle.dumps(record)])
            (reply,) = worker.read()
            err = reply[1]
        finally:
            worker.kill()
        assert err[0] == "SerializationError"
        assert "does not serve value spec 'r'" in err[1]


class TestOneErrorPair:
    @pytest.mark.mp
    def test_a_lost_worker_names_its_slot(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            with SmpssRuntime(num_workers=1, backend="processes") as rt:
                always_die_t(1)
                rt.barrier()
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerLostError)
        assert (cause.slot, cause.node) == (1, None)

    @pytest.mark.dist
    def test_a_refused_cluster_task_names_its_slot_and_node(self, agents):
        with pytest.raises(TaskExecutionError) as excinfo:
            with cluster(agents) as rt:
                opaque_t(np.ones(4), np.zeros(4))
                rt.barrier()
        cause = excinfo.value.__cause__
        assert isinstance(cause, SerializationError)
        assert cause.node in ("n0", "n1") and cause.slot in (1, 2, 3, 4)
        assert pickle.loads(pickle.dumps(cause)).node == cause.node


def _worker_children():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-mp-worker")]


def _runtime_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("smpss-worker")]


@pytest.mark.mp
class TestStartIsAllOrNothing:
    def test_a_refused_start_starts_nothing(self):
        active, release = threading.Event(), threading.Event()

        def other_main():
            with SmpssRuntime(num_workers=1):
                active.set()
                release.wait(10)

        owner = threading.Thread(target=other_main)
        owner.start()
        try:
            assert active.wait(10)
            before = (_worker_children(), _runtime_threads())
            rt = SmpssRuntime(num_workers=2, backend="processes")
            with pytest.raises(RuntimeError, match="already active"):
                rt.start()
            assert (_worker_children(), _runtime_threads()) == before
        finally:
            release.set()
            owner.join(10)
        assert not owner.is_alive()
        # The slot was never taken: this thread can start one now.
        with SmpssRuntime(num_workers=1) as rt:
            rt.barrier()

    @pytest.mark.parametrize("backend,last", [
        ("threads", "smpss-worker-2"), ("processes", "smpss-worker-dispatch")])
    def test_a_loop_thread_that_fails_to_start_stops_the_rest(
            self, backend, last, monkeypatch):
        start = threading.Thread.start

        def failing(thread):
            if thread.name == last:
                monkeypatch.setattr(threading.Thread, "start", start)
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            SmpssRuntime(num_workers=2, backend=backend).start()
        assert _worker_children() == [] and _runtime_threads() == []

    @pytest.mark.parametrize("address", ["tcp:127.0.0.1:0", "unix"])
    def test_an_agent_whose_accept_thread_fails_closes_its_socket(
            self, address, tmp_path, monkeypatch):
        from repro.dist.agent import AgentServer

        if address == "unix":
            address = str(tmp_path / "agent.sock")
        start = threading.Thread.start

        def failing(thread):
            monkeypatch.setattr(threading.Thread, "start", start)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", failing)
        agent = AgentServer(address, slots=1)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            with agent:
                pass
        assert agent._listener is None and agent._accept_thread is None
        assert list(tmp_path.iterdir()) == []
        # The address is free again, and a started agent closes whole.
        with AgentServer(agent.address, slots=1) as again:
            accept = again._accept_thread
            assert accept.is_alive()
        assert not accept.is_alive()  # close() joined it

    def test_a_failed_endpoint_bind_stops_the_workers(self):
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        try:
            rt = SmpssRuntime(num_workers=2, backend="processes",
                              address=f"tcp:127.0.0.1:{port}")
            with pytest.raises(OSError):
                rt.start()
            assert _worker_children() == [] and _runtime_threads() == []
        finally:
            taken.close()
        with SmpssRuntime(num_workers=1) as rt:
            rt.barrier()
