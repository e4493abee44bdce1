"""repro.live unit layer: wire format, dashboard state, replay engine."""

import json
import threading

import pytest

from repro.core.recorder import load_recording, record_program
from repro.core.tracing import EventKind, TraceEvent
from repro.live import DashboardState, ReplayEngine, render
from repro.live.protocol import event_to_delta
from repro.net.protocol import decode, encode, format_address, parse_address

pytestmark = pytest.mark.live


class TestWireFormat:
    def test_encode_decode_roundtrip(self):
        record = {"ev": "task", "id": 3, "name": "sgemm_t", "state": "done"}
        line = encode(record)
        assert line.endswith(b"\n")
        assert decode(line[:-1]) == record

    def test_decode_rejects_garbage(self):
        assert decode(b"") is None
        assert decode(b"not json") is None
        assert decode(b"[1,2]") is None  # non-object JSON

    def test_parse_address_tcp(self):
        assert parse_address("tcp:127.0.0.1:4242") == ("tcp", "127.0.0.1", 4242)
        assert parse_address("tcp:localhost:0") == ("tcp", "localhost", 0)
        with pytest.raises(ValueError):
            parse_address("tcp:9999")

    def test_parse_address_unix(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_format_address_roundtrip(self):
        for spec in ("tcp:127.0.0.1:4242", "/tmp/x.sock"):
            assert format_address(parse_address(spec)) == spec


class TestEventToDelta:
    def _task(self):
        class T:
            task_id = 7
            name = "spotrf_t"
        return T()

    def test_task_lifecycle_kinds(self):
        expected = {
            EventKind.TASK_ADDED: "submitted",
            EventKind.TASK_READY: "ready",
            EventKind.TASK_START: "running",
            EventKind.TASK_END: "done",
        }
        for kind, state in expected.items():
            event = TraceEvent(time=1.5, kind=kind, task_id=7,
                               task_name="spotrf_t", thread=2)
            delta = event_to_delta(event)
            assert delta == {"ev": "task", "id": 7, "name": "spotrf_t",
                             "state": state, "t": 1.5, "thread": 2}

    def test_edge_event(self):
        event = TraceEvent(time=0.0, kind=EventKind.EDGE_ADDED,
                           task_id=9, extra=(4, "true"))
        assert event_to_delta(event) == {
            "ev": "edge", "src": 4, "dst": 9, "kind": "true",
        }

    def test_steal_and_marks(self):
        steal = TraceEvent(time=0.0, kind=EventKind.STEAL, task_id=3,
                           thread=1, extra=("victim", 2))
        assert event_to_delta(steal) == {
            "ev": "steal", "id": 3, "thief": 1, "victim": 2,
        }
        mark = TraceEvent(time=2.0, kind=EventKind.BARRIER_ENTER, thread=0)
        assert event_to_delta(mark) == {
            "ev": "mark", "what": "barrier_enter", "t": 2.0, "thread": 0,
        }

    def test_deltas_are_json_serialisable(self):
        event = TraceEvent(time=0.25, kind=EventKind.RENAME, task_id=1,
                           extra=("ndarray", "output"))
        json.dumps(event_to_delta(event))


class TestDashboardState:
    def _feed(self, state, records):
        for record in records:
            state.apply(record)

    def test_task_lifecycle_and_counts(self):
        state = DashboardState()
        self._feed(state, [
            {"ev": "task", "id": 1, "name": "a", "state": "submitted",
             "t": 0.0, "thread": -1},
            {"ev": "task", "id": 1, "name": "a", "state": "ready",
             "t": 0.1, "thread": -1},
            {"ev": "task", "id": 1, "name": "a", "state": "running",
             "t": 0.2, "thread": 1},
            {"ev": "task", "id": 1, "name": "a", "state": "done",
             "t": 0.7, "thread": 1},
        ])
        assert state.counts() == {"done": 1}
        info = state.tasks[1]
        assert info["start"] == 0.2 and info["end"] == 0.7
        assert info["thread"] == 1

    def test_out_of_order_state_never_regresses(self):
        state = DashboardState()
        self._feed(state, [
            {"ev": "task", "id": 1, "name": "a", "state": "done",
             "t": 1.0, "thread": 0},
            # mp master can see `done` before the worker's `running`
            # ships back with the reply.
            {"ev": "task", "id": 1, "name": "a", "state": "running",
             "t": 0.5, "thread": 0},
        ])
        assert state.tasks[1]["state"] == "done"

    def test_edge_before_submission_materialises_placeholders(self):
        state = DashboardState()
        state.apply({"ev": "edge", "src": 1, "dst": 2, "kind": "true"})
        assert set(state.tasks) == {1, 2}
        assert len(state.edges) == 1
        # A later submitted delta fills in the name.
        state.apply({"ev": "task", "id": 2, "name": "b",
                     "state": "submitted", "t": 0.0, "thread": -1})
        assert state.tasks[2]["name"] == "b"

    def test_duplicate_edges_collapse(self):
        state = DashboardState()
        state.apply({"ev": "edge", "src": 1, "dst": 2, "kind": "true"})
        state.apply({"ev": "edge", "src": 1, "dst": 2, "kind": "true"})
        assert len(state.edges) == 1

    def test_critical_path_depth_chain(self):
        state = DashboardState()
        for i in (1, 2, 3):
            state.apply({"ev": "task", "id": i, "name": "t",
                         "state": "submitted", "t": 0.0, "thread": -1})
        state.apply({"ev": "edge", "src": 1, "dst": 2, "kind": "true"})
        state.apply({"ev": "edge", "src": 2, "dst": 3, "kind": "true"})
        assert state.critical_path_depth() == 3
        # An independent task does not deepen the chain.
        state.apply({"ev": "task", "id": 4, "name": "t",
                     "state": "submitted", "t": 0.0, "thread": -1})
        assert state.critical_path_depth() == 3

    def test_report_over_completed_work(self):
        state = DashboardState()
        for i, (start, end, thread) in enumerate(
            [(0.0, 1.0, 0), (1.0, 2.0, 1)], start=1
        ):
            state.apply({"ev": "task", "id": i, "name": "w",
                         "state": "running", "t": start, "thread": thread})
            state.apply({"ev": "task", "id": i, "name": "w",
                         "state": "done", "t": end, "thread": thread})
        report = state.report(num_threads=2)
        assert report.total_tasks == 2
        assert report.makespan == pytest.approx(2.0)

    def test_report_critical_path_over_received_edges(self):
        """The dashboard's timed view is ``analyze_events`` over the
        received intervals and edges: the heavier way into task 3."""

        state = DashboardState()
        for i, (ready, start, end) in enumerate(
            [(0.0, 0.0, 1.0), (0.0, 0.0, 3.0), (3.5, 4.0, 5.0)], start=1
        ):
            for what, t in (("ready", ready), ("running", start),
                            ("done", end)):
                state.apply({"ev": "task", "id": i, "name": f"w{i}",
                             "state": what, "t": t, "thread": 0})
        state.apply({"ev": "edge", "src": 1, "dst": 3, "kind": "true"})
        state.apply({"ev": "edge", "src": 2, "dst": 3, "kind": "true"})
        report = state.report()
        assert [link.task_id for link in report.critical_path] == [2, 3]
        assert report.span == pytest.approx(4.0)
        last = report.critical_path[-1]
        assert last.dependency_wait == pytest.approx(0.5)
        assert last.queue_wait == pytest.approx(0.5)
        assert "weighted≈4" in render(state)

    def test_render_smoke(self):
        state = DashboardState()
        state.apply({"ev": "hello", "backend": "threads", "threads": 4})
        state.apply({"ev": "task", "id": 1, "name": "a",
                     "state": "running", "t": 0.0, "thread": 0})
        state.apply({"ev": "note", "text": "paused"})
        state.apply({"ev": "snapshot", "paused": True, "ready": 0,
                     "running": 1, "parked": 3, "pending": 1,
                     "break_names": ["a"], "break_ids": [],
                     "workers": [{"id": 1, "name": "a"}, None],
                     "depths": {"high": 0, "main": 0, "locals": [0, 0]}})
        text = render(state)
        assert "PAUSED" in text
        assert "breaks=a" in text
        assert "(idle)" in text


def _diamond_program():
    import numpy as np

    from repro import css_task

    @css_task("inout(x)")
    def root(x):
        x += 1

    @css_task("input(x) output(y)")
    def branch(x, y):
        y[...] = x + 1

    @css_task("input(a, b) output(c)")
    def join(a, b, c):
        c[...] = a + b

    x = np.zeros(4)
    a, b, c = np.zeros(4), np.zeros(4), np.zeros(4)
    root(x)
    branch(x, a)
    branch(x, b)
    join(a, b, c)


class TestServerFraming:
    def test_concurrent_acks_and_deltas_keep_line_framing(self):
        """Publisher deltas and reader-thread acks write to the same
        socket; without the per-client write lock two ``sendall`` calls
        can interleave partial writes and corrupt the framing (lost
        acks hang commands, lost deltas leave gaps)."""

        from repro.live.client import LiveClient
        from repro.net import Server

        server = Server(
            "tcp:127.0.0.1:0",
            lambda command, conn: {"cmd": command.get("cmd")},
            http_responder=lambda path: b"",
            hello={"version": 1},
        )
        total = 3000
        try:
            with LiveClient(server.address, timeout=10.0) as client:
                assert client.hello["version"] == 1

                def flood():
                    for i in range(total):
                        server.publish(
                            {"ev": "note", "i": i}, retain=False
                        )

                publisher = threading.Thread(target=flood)
                publisher.start()
                # Commands race the flood: each one writes an ack from
                # the server's reader thread mid-stream.
                acks = [client.ping() for _ in range(150)]
                publisher.join(timeout=30.0)
                assert not publisher.is_alive()
                assert len(acks) == 150

                notes = [
                    r["i"]
                    for r in client.drain(idle=0.2, limit=2 * total)
                    if r.get("ev") == "note"
                ]
                # Every published line must arrive exactly once, in
                # order — any framing corruption shows up as a gap.
                assert notes == list(range(total))
        finally:
            server.close()


class TestRecordingPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        program = record_program(_diamond_program)
        path = tmp_path / "diamond.recording.json"
        program.save(str(path))
        loaded = load_recording(str(path))
        assert loaded == program.to_json_dict()
        assert len(loaded["tasks"]) == program.task_count == 4
        assert len(loaded["edges"]) == program.graph.stats.total_edges
        kinds = {tuple(e[:2]): e[2] for e in loaded["edges"]}
        for pred, succ, kind in program.graph.edges():
            assert kinds[(pred, succ)] == kind
        # The stream's shape survives too (4 tasks, one barrier absent —
        # record_program has no explicit barrier here).
        assert [e[0] for e in loaded["stream"]].count("task") == 4

    def test_load_accepts_dict_and_program(self):
        program = record_program(_diamond_program)
        from_dict = load_recording(program.to_json_dict())
        from_prog = load_recording(program)
        wrapped = load_recording({"findings": [],
                                  "graph": program.to_json_dict()})
        assert from_dict == from_prog == wrapped

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="not a repro recording"):
            load_recording(str(path))


def _wide_program():
    import numpy as np

    from repro import css_task

    @css_task("input(src) output(o)")
    def copy(src, o):
        o[...] = src

    src = np.ones(2)
    for _ in range(8):
        copy(src, np.zeros(2))


def _synchronised_program():
    """Two chains around a barrier, then a ``wait_on`` in mid-stream."""

    import numpy as np

    from repro import barrier, css_task, wait_on

    @css_task("inout(x)")
    def bump(x):
        x += 1

    x, y, z, w = (np.zeros(2) for _ in range(4))
    for _ in range(3):
        bump(x)
    bump(y)
    barrier()
    bump(z)
    bump(w)
    bump(w)
    wait_on(w)
    bump(y)
    bump(z)


def _assert_dependencies_hold(dashboard):
    for src, dst in dashboard.edges:
        assert dashboard.tasks[dst]["start"] >= dashboard.tasks[src]["end"]


def _assert_inside_greedy_bounds(dashboard, threads):
    report = dashboard.report(num_threads=threads)
    assert report.bound_lower <= report.makespan <= report.bound_upper
    return report


class TestReplayEngine:
    """Replay is one unit-cost simulator run of the recording (section
    III policy, every task one unit); ``step`` counts virtual units."""

    def _engine(self, program=_diamond_program, **kwargs):
        return ReplayEngine(record_program(program).to_json_dict(), **kwargs)

    def test_reset_submits_everything(self):
        engine = self._engine()
        sig = engine.dashboard.signature()
        assert sig["tasks"] == 4
        assert sig["done"] == 0
        # Unit 0: only the root had no dependency, and it is running.
        assert engine.dashboard.counts() == {"running": 1, "submitted": 3}
        assert engine.dashboard.snapshot["ready"] == 0

    def test_step_respects_dependencies(self):
        engine = self._engine()
        assert engine.step(1) == 1
        # Root done; both branches released and running on two threads,
        # the join still blocked.
        assert engine.dashboard.counts() == {
            "done": 1, "running": 2, "submitted": 1}
        assert engine.step(10) == 3  # only 3 tasks remain
        assert engine.units == 3    # root, branches, join
        assert engine.dashboard.snapshot["pending"] == 0
        _assert_dependencies_hold(engine.dashboard)

    def test_time_travel_back_is_deterministic(self):
        engine = self._engine()
        engine.step(3)
        forward = {
            tid: dict(info) for tid, info in engine.dashboard.tasks.items()
        }
        engine.back(2)
        assert engine.units == 1
        assert engine.dashboard.counts()["done"] == 1
        engine.step(2)
        again = {
            tid: dict(info) for tid, info in engine.dashboard.tasks.items()
        }
        assert forward == again

    def test_back_to_zero(self):
        engine = self._engine()
        engine.run()
        assert engine.dashboard.snapshot["pending"] == 0
        engine.back(10_000)
        assert engine.units == 0
        assert engine.dashboard.counts().get("done", 0) == 0

    def test_run_completes_and_snapshot_reflects_it(self):
        engine = self._engine(num_threads=2)
        assert engine.run() == 4
        snap = engine.dashboard.snapshot
        assert snap["pending"] == 0
        assert snap["executed"] == 4
        assert engine.dashboard.signature()["done"] == 4
        _assert_dependencies_hold(engine.dashboard)
        _assert_inside_greedy_bounds(engine.dashboard, 2)

    def test_a_recording_that_never_drains_is_refused(self):
        recording = {"format": "repro.recording", "version": 1,
                     "tasks": [[1, "a", 0], [2, "b", 0]],
                     "edges": [[1, 2, "true"], [2, 1, "true"]],  # a cycle
                     "stream": [["task", 1], ["task", 2]]}
        with pytest.raises(ValueError, match="2 tasks never become ready"):
            ReplayEngine(recording)

    def test_eight_independent_tasks_take_two_units_on_four_threads(self):
        engine = self._engine(_wide_program, num_threads=4)
        assert engine.run() == 8
        assert engine.units == 2
        report = _assert_inside_greedy_bounds(engine.dashboard, 4)
        assert report.makespan == 2.0
        assert (report.bound_lower, report.bound_upper) == (2.0, 3.0)
        assert report.utilisation == 1.0

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_cholesky_replays_inside_greedy_bounds(self, threads):
        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix

        engine = self._engine(
            lambda: cholesky_hyper(HyperMatrix.random_spd(6, 8, seed=3)),
            num_threads=threads)
        assert engine.run() == 56
        _assert_dependencies_hold(engine.dashboard)
        _assert_inside_greedy_bounds(engine.dashboard, threads)

    def test_barrier_and_wait_on_block_later_tasks(self):
        seen = []

        class Seen(DashboardState):
            def apply(self, record):
                seen.append(record)
                super().apply(record)

        recording = record_program(_synchronised_program).to_json_dict()
        engine = ReplayEngine(recording, num_threads=2, dashboard=Seen())
        engine.run()
        tasks = engine.dashboard.tasks
        assert len(tasks) == 9 and engine.dashboard.counts()["done"] == 9
        marks = {record["what"]: record["t"]
                 for record in seen if record["ev"] == "mark"}
        # The x chain (three units) holds the barrier; the w chain then
        # ends two units later, where the main thread's wait returns.
        assert marks == {"barrier_enter": 0.0, "barrier_exit": 3.0,
                         "wait_on_enter": 3.0, "wait_on_exit": 5.0}
        stream = recording["stream"]
        cut = stream.index(["barrier"])
        waited = next(entry[1] for entry in stream if entry[0] == "wait")
        after_wait = stream.index(["wait", waited])
        for index, entry in enumerate(stream):
            if entry[0] != "task":
                continue
            if index < cut:
                assert tasks[entry[1]]["end"] <= marks["barrier_exit"]
            else:
                assert tasks[entry[1]]["start"] >= marks["barrier_exit"]
            if index > after_wait:
                assert tasks[entry[1]]["start"] >= tasks[waited]["end"]
        assert tasks[waited]["end"] == marks["wait_on_exit"]
        _assert_dependencies_hold(engine.dashboard)
