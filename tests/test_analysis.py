"""Tests for post-mortem analysis and simulated-trace integration."""

import numpy as np
import pytest

from repro import SmpssRuntime, css_task
from repro.core.analysis import greedy_bounds, parallelism_profile
from repro.core.tracing import EventKind, TraceEvent
from repro.obs import analyze_events, analyze_tracer


@css_task("inout(a)")
def bump(a):
    a += 1


@css_task("input(a) output(b)")
def copy_t(a, b):
    b[...] = a


def synthetic_events(intervals):
    """An event list with hand-built task intervals."""

    events = []
    for task_id, (start, end, thread, name) in enumerate(intervals, 1):
        events.append(TraceEvent(start, EventKind.TASK_START, task_id, name, thread))
        events.append(TraceEvent(end, EventKind.TASK_END, task_id, name, thread))
    return events


class TestSummaries:
    """The per-interval arithmetic, read off :class:`TraceReport`."""

    def test_task_type_summary(self):
        report = analyze_events(synthetic_events([
            (0.0, 1.0, 0, "a"),
            (0.0, 3.0, 1, "a"),
            (1.0, 2.0, 0, "b"),
        ]))
        summary = report.task_types
        assert summary["a"]["count"] == 2
        assert summary["a"]["total"] == pytest.approx(4.0)
        assert summary["a"]["mean"] == pytest.approx(2.0)
        assert summary["a"]["min"] == 1.0 and summary["a"]["max"] == 3.0
        assert summary["b"]["count"] == 1

    def test_average_parallelism(self):
        report = analyze_events(synthetic_events([
            (0.0, 2.0, 0, "a"),
            (0.0, 2.0, 1, "a"),
        ]))
        assert report.average_parallelism == pytest.approx(2.0)

    def test_load_balance_perfect(self):
        report = analyze_events(synthetic_events([
            (0.0, 2.0, 0, "a"),
            (0.0, 2.0, 1, "a"),
        ]))
        assert report.load_balance == pytest.approx(1.0)

    def test_load_balance_skewed(self):
        report = analyze_events(synthetic_events([
            (0.0, 3.0, 0, "a"),
            (0.0, 1.0, 1, "a"),
        ]))
        assert report.load_balance == pytest.approx((2.0) / 3.0)

    def test_empty_tracer(self):
        report = analyze_events(synthetic_events([]))
        assert report.average_parallelism == 0.0
        assert report.load_balance == 1.0
        assert parallelism_profile([]) == []


class TestParallelismProfile:
    def test_profile_counts(self):
        events = synthetic_events([
            (0.0, 4.0, 0, "a"),
            (1.0, 3.0, 1, "a"),
        ])
        profile = parallelism_profile(events, samples=4)
        times = [t for t, _ in profile]
        counts = [c for _t, c in profile]
        assert times[0] == 0.0 and times[-1] == 4.0
        assert counts[0] == 1  # only the first task at t=0
        assert counts[2] == 2  # both at t=2
        assert counts[-1] == 0  # everything ended by t=4 (closed ends)


class TestWorkSpan:
    def test_work_span_on_recorded_graph(self):
        from repro.core.recorder import record_program

        data = np.zeros(4)

        def program():
            for _ in range(5):
                bump(data)  # a serial chain

        prog = record_program(program, execute="skip")
        assert len(prog.graph) == 5  # work: 5 tasks x 2.0
        span = prog.graph.weighted_critical_path(lambda t: 2.0)
        assert span == pytest.approx(10.0)  # chain: span == work

    def test_work_span_parallel_graph(self):
        from repro.core.recorder import record_program

        def program():
            for _ in range(6):
                bump(np.zeros(1))  # independent tasks

        prog = record_program(program, execute="skip")
        assert len(prog.graph) == 6  # work: 6 tasks x 1.0
        assert prog.graph.weighted_critical_path(lambda t: 1.0) == 1.0

    def test_greedy_bounds(self):
        lower, upper = greedy_bounds(work=100.0, span=10.0, cores=8)
        assert lower == pytest.approx(12.5)
        assert upper == pytest.approx(22.5)
        with pytest.raises(ValueError):
            greedy_bounds(1.0, 1.0, 0)

    def test_simulated_makespan_within_greedy_bounds(self):
        """The section III policy is greedy: check Brent's bounds."""

        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix
        from repro.core.recorder import record_program
        from repro.sim import ALTIX_32, CostModel, simulate_program

        def sym(n):
            hm = HyperMatrix(n, 1, np.float32)
            for i in range(n):
                for j in range(n):
                    hm[i, j] = np.zeros((1, 1), np.float32)
            return hm

        cores = 8
        machine = ALTIX_32.with_cores(cores)
        cost = CostModel(machine, block_size=256)
        res = simulate_program(
            cholesky_hyper, sym(10), machine=machine,
            cost_model=CostModel(machine, block_size=256),
        )
        prog = record_program(cholesky_hyper, sym(10), execute="skip")
        work = sum(cost.duration(t, None) for t in prog.graph)
        span = prog.graph.weighted_critical_path(
            lambda t: cost.duration(t, None)
        )
        lower, upper = greedy_bounds(work, span, cores)
        # Allow a margin: the simulator adds main-thread generation and
        # cache effects the plain weights don't include.
        assert res.makespan >= lower * 0.8
        assert res.makespan <= upper * 1.5


class TestSimulatedTracing:
    def test_virtual_time_trace(self):
        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix
        from repro.sim import ALTIX_32, CostModel, SimulatedRuntime

        hm = HyperMatrix(4, 1, np.float32)
        for i in range(4):
            for j in range(4):
                hm[i, j] = np.zeros((1, 1), np.float32)
        machine = ALTIX_32.with_cores(4)
        runtime = SimulatedRuntime(
            machine=machine,
            cost_model=CostModel(machine, block_size=128),
            trace=True,
        )
        with runtime:
            cholesky_hyper(hm)
            runtime.barrier()
        tracer = runtime.tracer
        intervals = tracer.task_intervals()
        assert len(intervals) == 20  # hyper_task_count(4)["total"]
        # Virtual timestamps are consistent with the simulated makespan.
        result = runtime.result()
        assert max(e for _s, e, *_ in intervals.values()) == pytest.approx(
            result.makespan, rel=1e-9
        )
        # Analyses work on virtual traces too.
        report = analyze_tracer(tracer)
        assert report.average_parallelism > 1.0
        assert 0 < report.load_balance <= 1.0
        prv = tracer.to_paraver()
        assert prv.startswith("#Paraver")

    def test_threaded_trace_analysis_end_to_end(self):
        data = np.zeros(8)
        outs = [np.zeros(8) for _ in range(12)]
        rt = SmpssRuntime(num_workers=2, trace=True)
        with rt:
            for out in outs:
                copy_t(data, out)
            rt.barrier()
        summary = analyze_tracer(rt.tracer).task_types
        assert summary["copy_t"]["count"] == 12
        profile = parallelism_profile(rt.tracer.events, samples=10)
        assert len(profile) == 11
