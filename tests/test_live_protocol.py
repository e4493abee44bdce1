"""repro.live unit layer: wire format, dashboard state, replay engine."""

import json
import threading

import pytest

from repro.core.recorder import load_recording, record_program
from repro.core.tracing import EventKind, TraceEvent
from repro.live import DashboardState, ReplayEngine, render
from repro.obs.export import chrome_record
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


def _trace(kind, task_id=-1, name="", t=0.0, thread=-1, extra=()):
    """One trace event as the live stream carries it."""

    event = TraceEvent(t, kind, task_id, name, thread, extra)
    return {"ev": "trace", **chrome_record(event)}


def _edge(src, dst):
    return _trace(EventKind.EDGE_ADDED, dst, extra=(src, "true"))


class TestDashboardState:
    def _feed(self, state, records):
        for record in records:
            state.apply(json.loads(json.dumps(record)))

    def test_task_lifecycle_and_counts(self):
        state = DashboardState()
        self._feed(state, [
            _trace(EventKind.TASK_ADDED, 1, "a", 0.0),
            _trace(EventKind.TASK_READY, 1, "a", 0.1),
            _trace(EventKind.TASK_START, 1, "a", 0.2, 1),
            _trace(EventKind.TASK_END, 1, "a", 0.7, 1),
        ])
        assert state.counts() == {"done": 1}
        info = state.tasks[1]
        assert info["start"] == pytest.approx(0.2)
        assert info["end"] == pytest.approx(0.7)
        assert info["thread"] == 1
        assert [e.kind for e in state.events] == [
            "task_added", "task_ready", "task_start", "task_end"]

    def test_out_of_order_state_never_regresses(self):
        state = DashboardState()
        self._feed(state, [
            _trace(EventKind.TASK_END, 1, "a", 1.0, 0),
            # mp master can see `done` before the worker's `running`
            # ships back with the reply.
            _trace(EventKind.TASK_START, 1, "a", 0.5, 0),
        ])
        assert state.tasks[1]["state"] == "done"

    def test_dispatched_sits_between_ready_and_running(self):
        state = DashboardState()
        self._feed(state, [
            _trace(EventKind.TASK_READY, 1, "a", 0.1),
            {"ev": "dispatched", "id": 1, "name": "a", "thread": 1},
        ])
        assert state.tasks[1]["state"] == "dispatched"
        self._feed(state, [_trace(EventKind.TASK_START, 1, "a", 0.2, 1),
                           {"ev": "dispatched", "id": 1, "name": "a",
                            "thread": 1}])
        assert state.tasks[1]["state"] == "running"
        assert len(state.events) == 2  # a hand-off note is no trace event

    def test_edge_before_submission_materialises_placeholders(self):
        state = DashboardState()
        state.apply(_edge(1, 2))
        assert set(state.tasks) == {1, 2}
        assert len(state.edges) == 1
        # A later task_added fills in the name.
        state.apply(_trace(EventKind.TASK_ADDED, 2, "b"))
        assert state.tasks[2]["name"] == "b"

    def test_duplicate_edges_collapse(self):
        state = DashboardState()
        state.apply(_edge(1, 2))
        state.apply(_edge(1, 2))
        assert len(state.edges) == 1

    def test_critical_path_depth_chain(self):
        state = DashboardState()
        for i in (1, 2, 3):
            state.apply(_trace(EventKind.TASK_ADDED, i, "t"))
        state.apply(_edge(1, 2))
        state.apply(_edge(2, 3))
        assert state.critical_path_depth() == 3
        # An independent task does not deepen the chain.
        state.apply(_trace(EventKind.TASK_ADDED, 4, "t"))
        assert state.critical_path_depth() == 3

    def test_report_over_completed_work(self):
        state = DashboardState()
        for i, (start, end, thread) in enumerate(
            [(0.0, 1.0, 0), (1.0, 2.0, 1)], start=1
        ):
            state.apply(_trace(EventKind.TASK_START, i, "w", start, thread))
            state.apply(_trace(EventKind.TASK_END, i, "w", end, thread))
        report = state.report(num_threads=2)
        assert report.total_tasks == 2
        assert report.makespan == pytest.approx(2.0)

    def test_report_counts_threads_from_the_hello(self):
        """An attach's report counts every thread the runtime has, not
        only those that ran a task: the hello's ``threads``."""

        state = DashboardState()
        state.apply({"ev": "hello", "backend": "threads", "threads": 4})
        state.apply(_trace(EventKind.TASK_START, 1, "w", 0.0, 0))
        state.apply(_trace(EventKind.TASK_END, 1, "w", 1.0, 0))
        report = state.report()
        assert sorted(report.threads) == [0, 1, 2, 3]
        assert report.bound_upper == pytest.approx(1.0 / 4 + 1.0)

    def test_report_critical_path_over_received_edges(self):
        """The dashboard's timed view is ``analyze_events`` over the
        received events: the heavier way into task 3."""

        state = DashboardState()
        for i, (ready, start, end) in enumerate(
            [(0.0, 0.0, 1.0), (0.0, 0.0, 3.0), (3.5, 4.0, 5.0)], start=1
        ):
            for kind, t in ((EventKind.TASK_READY, ready),
                            (EventKind.TASK_START, start),
                            (EventKind.TASK_END, end)):
                state.apply(_trace(kind, i, f"w{i}", t, 0))
        state.apply(_edge(1, 3))
        state.apply(_edge(2, 3))
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
        state.apply(_trace(EventKind.TASK_START, 1, "a", 0.0, 0))
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
        recording = record_program(_synchronised_program).to_json_dict()
        engine = ReplayEngine(recording, num_threads=2)
        engine.run()
        tasks = engine.dashboard.tasks
        assert len(tasks) == 9 and engine.dashboard.counts()["done"] == 9
        marks = {event.kind: event.time for event in engine.dashboard.events
                 if event.kind.startswith(("barrier", "wait_on"))}
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

    def test_report_counts_barrier_time(self):
        """The replay's report is the post-mortem pass over its events,
        barriers included: 3 units behind the x chain, 2 behind y."""

        import numpy as np

        from repro import barrier, css_task

        @css_task("inout(x)")
        def inc(x):
            x += 1

        def program():
            x, y = np.zeros(1), np.zeros(1)
            for _ in range(3):
                inc(x)
            barrier()
            for _ in range(2):
                inc(y)
            barrier()

        engine = self._engine(program, num_threads=2)
        engine.run()
        report = engine.dashboard.report()
        assert report.barrier_time == 5.0
        assert report.makespan == 5.0
        assert sorted(report.threads) == [0, 1]
