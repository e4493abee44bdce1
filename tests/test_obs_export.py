"""Tests for the exporters: Chrome trace JSON, DOT, and .prv format."""

import json
import threading
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SmpssRuntime, css_task, record_program, wait_on
from repro.core.tracing import EventKind, TraceEvent, Tracer
from repro.obs import (
    graph_to_dot,
    load_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_dot,
)

pytestmark = pytest.mark.obs

_INSTANTS = sorted(
    value for name, value in vars(EventKind).items()
    if name.isupper() and name not in ("TASK_START", "TASK_END"))


@st.composite
def _event_lists(draw):
    """Instants of every kind plus START/END pairs, in any list order."""

    times = st.floats(0.0, 1e3, allow_nan=False)
    extras = st.lists(st.one_of(
        st.integers(-2**40, 2**40),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    ), max_size=3).map(tuple)
    events = [
        TraceEvent(draw(times), kind, draw(st.integers(-1, 40)),
                   draw(st.sampled_from(["", "spotrf_t", "sgemm_t"])),
                   draw(st.integers(-1, 8)), draw(extras))
        for kind in draw(st.lists(st.sampled_from(_INSTANTS), max_size=40))
    ]
    for task_id in range(100, 100 + draw(st.integers(0, 8))):
        start = draw(times)
        end = start + draw(st.floats(0.0, 10.0))
        name = draw(st.sampled_from(["spotrf_t", "sgemm_t"]))
        thread = draw(st.integers(0, 8))
        events.append(TraceEvent(start, EventKind.TASK_START, task_id, name, thread))
        events.append(TraceEvent(end, EventKind.TASK_END, task_id, name, thread))
    return draw(st.permutations(events))


@css_task("inout(a)")
def bump(a):
    a += 1


@css_task("input(a) inout(b)")
def add_into(a, b):
    b += a


def _traced_run(tasks=6, workers=2):
    arr = np.zeros(1)
    rt = SmpssRuntime(num_workers=workers, trace=True)
    with rt:
        for _ in range(tasks):
            bump(arr)
        rt.barrier()
    return rt


class TestChromeTrace:
    def test_document_shape(self):
        doc = to_chrome_trace(_traced_run().tracer.events)
        assert "traceEvents" in doc
        assert doc["displayTimeUnit"] == "ms"
        phases = {r["ph"] for r in doc["traceEvents"]}
        assert {"B", "E", "i", "M"} <= phases

    def test_required_fields_and_pairing(self):
        """The satellite round-trip: validate ph/ts/tid and B/E pairing."""

        tracer = _traced_run(tasks=5).tracer
        doc = json.loads(json.dumps(to_chrome_trace(tracer.events)))  # via JSON
        open_stack = defaultdict(list)  # tid -> stack of task ids
        begins = ends = 0
        for rec in doc["traceEvents"]:
            if rec["ph"] == "M":
                continue
            assert isinstance(rec["ts"], (int, float)) and rec["ts"] >= 0
            assert isinstance(rec["tid"], int) and rec["tid"] >= 0
            assert rec["pid"] == 1
            if rec["ph"] == "B":
                begins += 1
                open_stack[rec["tid"]].append(rec["args"]["task_id"])
            elif rec["ph"] == "E":
                ends += 1
                assert open_stack[rec["tid"]], "E without matching B on tid"
                assert open_stack[rec["tid"]].pop() == rec["args"]["task_id"]
        assert begins == ends == 5
        assert all(not stack for stack in open_stack.values())

    def test_timestamps_sorted_and_zero_based(self):
        doc = to_chrome_trace(_traced_run().tracer.events)
        ts = [r["ts"] for r in doc["traceEvents"] if r["ph"] != "M"]
        assert ts == sorted(ts)
        assert ts[0] == pytest.approx(0.0)

    def test_round_trip_preserves_intervals(self, tmp_path):
        tracer = _traced_run(tasks=4).tracer
        path = write_chrome_trace(tracer, str(tmp_path / "trace.json"))
        events = load_chrome_trace(path)
        original = tracer.task_intervals()
        starts = {e.task_id: e for e in events if e.kind == EventKind.TASK_START}
        ends = {e.task_id: e for e in events if e.kind == EventKind.TASK_END}
        assert set(starts) == set(original)
        for task_id, (begin, end, thread, _name) in original.items():
            # Shifted origin, same durations (to ~us resolution).
            duration = ends[task_id].time - starts[task_id].time
            assert duration == pytest.approx(end - begin, abs=5e-6)
            assert ends[task_id].thread == thread

    def test_round_trip_preserves_releasing_thread(self, tmp_path):
        """task_ready instants carry the unlocking thread for locality."""

        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for _ in range(4):
                bump(arr)  # a chain: later tasks released by workers
            rt.barrier()
        path = write_chrome_trace(rt.tracer, str(tmp_path / "t.json"))
        loaded = [
            e for e in load_chrome_trace(path) if e.kind == EventKind.TASK_READY
        ]
        original = [
            e for e in rt.tracer.events if e.kind == EventKind.TASK_READY
        ]
        assert sorted(e.thread for e in loaded) == sorted(
            e.thread for e in original
        )
        assert any(e.thread == -1 for e in loaded)  # the root submission

    def test_round_trip_keeps_wait_on_rename_extra_and_names(self):
        """Regression: the loader dropped ``wait_on_enter/exit``, the
        rename's ``extra`` came back as ``()`` and every instant lost its
        task name."""

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
            slow_copy(src, dst)
            overwrite(src)          # WAR: renamed
            wait_on(dst)            # blocks until slow_copy ran
            rt.barrier()
        loaded = load_chrome_trace(
            json.loads(json.dumps(to_chrome_trace(rt.tracer.events))))
        kinds = Counter(e.kind for e in loaded)
        assert kinds[EventKind.WAIT_ON_ENTER] == kinds[EventKind.WAIT_ON_EXIT] == 1
        (rename,) = [e for e in loaded if e.kind == EventKind.RENAME]
        assert (rename.task_name, rename.extra) == ("overwrite", ("ndarray", "fresh"))
        assert {e.task_name for e in loaded
                if e.kind == EventKind.TASK_ADDED} == {"slow_copy", "overwrite"}

    @settings(max_examples=60, deadline=None)
    @given(events=_event_lists())
    def test_round_trip_is_lossless(self, events):
        """Every kind comes back: same ``(kind, task_id, task_name,
        thread, extra)`` multiset, times within 1 ns of the originals
        shifted to the first event."""

        doc = json.loads(json.dumps(to_chrome_trace(events)))
        loaded = load_chrome_trace(doc)

        def fields(e):
            return (e.kind, e.task_id, e.task_name, e.thread, e.extra)

        assert Counter(map(fields, loaded)) == Counter(map(fields, events))
        t0 = min((e.time for e in events), default=0.0)
        for got, want in zip(sorted(e.time for e in loaded),
                             sorted(e.time - t0 for e in events)):
            assert got == pytest.approx(want, abs=1e-9)

    def test_virtual_time_trace_exports(self):
        times = iter(float(i) for i in range(100))
        tracer = Tracer(clock=lambda: next(times))
        tracer.barrier_enter()
        tracer.barrier_exit()
        doc = to_chrome_trace(tracer.events)
        instants = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert [r["name"] for r in instants] == ["barrier_enter", "barrier_exit"]
        assert instants[1]["ts"] == pytest.approx(1e6)  # 1 virtual second


class TestDotExport:
    def _recorded_chain(self):
        def program():
            a = np.zeros(1)
            b = np.zeros(1)
            bump(a)
            add_into(a, b)
            bump(b)

        return record_program(program, execute="skip")

    def test_critical_path_highlighted(self):
        prog = self._recorded_chain()
        dot = graph_to_dot(prog.graph)
        assert dot.startswith("digraph")
        # The three-task chain is all critical: every node bold red.
        assert dot.count(", color=red, penwidth=3]") == 3  # nodes
        assert dot.count("[color=red, penwidth=3]") == 2  # both edges

    def test_no_highlight_option(self):
        prog = self._recorded_chain()
        dot = graph_to_dot(prog.graph, highlight_critical=False)
        assert "color=red" not in dot

    def test_label_names(self):
        # Nodes always read "id\nname" (Figure 5's view).
        dot = graph_to_dot(self._recorded_chain().graph)
        assert 'label="1\\nbump"' in dot and "peripheries" not in dot

    def test_high_priority_double_border(self):
        from repro.core.graph import TaskGraph
        from repro.core.task import TaskInstance
        from repro.sim.baselines import synthetic_definition

        graph = TaskGraph()
        for tid, prio in ((1, True), (2, False)):
            graph.add_task(TaskInstance(synthetic_definition("t"), [], {},
                                        tid, prio))
        lines = graph_to_dot(graph, highlight_critical=False).splitlines()
        assert [line for line in lines if "peripheries=2" in line] == \
            ['  t1 [label="1\\nt", fillcolor=lightblue, peripheries=2];']

    def test_write_dot(self, tmp_path):
        prog = self._recorded_chain()
        path = write_dot(prog.graph, str(tmp_path / "g.dot"))
        text = open(path).read()
        assert text.startswith("digraph") and text.endswith("}\n")

    def test_recorded_program_to_dot_delegates(self):
        prog = self._recorded_chain()
        assert prog.to_dot() == graph_to_dot(prog.graph)


class TestParaverFormat:
    """Satellite: pin down the .prv record format of Tracer.to_paraver."""

    def test_header_and_record_structure(self):
        tracer = _traced_run(tasks=3).tracer
        lines = tracer.to_paraver().splitlines()
        assert lines[0].startswith("#Paraver (")
        state_records = [l for l in lines if l.startswith("1:")]
        event_records = [l for l in lines if l.startswith("2:")]
        # One state record per executed task.
        assert len(state_records) == 3
        for record in state_records:
            fields = record.split(":")
            # 1:cpu:appl:task:thread:begin:end:state
            assert len(fields) == 8
            cpu, appl, task, thread = fields[1:5]
            assert int(cpu) >= 1 and int(thread) >= 1
            assert (appl, task) == ("1", "1")
            begin, end = int(fields[5]), int(fields[6])
            assert end >= begin >= 0  # integer microseconds
        for record in event_records:
            fields = record.split(":")
            # 2:cpu:appl:task:thread:time:type:value
            assert len(fields) == 8
            assert int(fields[6]) >= 90000001  # event type code space
        # Trailer documents the type codes.
        assert lines[-1].startswith("# event types:")

    def test_event_type_codes_cover_point_events(self):
        tracer = _traced_run(tasks=2).tracer
        text = tracer.to_paraver()
        counts = tracer.counts()
        # task_added events (code 90000001) appear once per task.
        added_records = [
            l for l in text.splitlines()
            if l.startswith("2:") and l.split(":")[6] == "90000001"
        ]
        assert len(added_records) == counts[EventKind.TASK_ADDED] == 2
