"""A retired task graph dies by reference count.

A task leaves the versions it touched when it retires (``TaskGraph.
complete``), a version that owns its storage does not point at itself,
and a barrier's ``DependencyTracker.reset`` lets each datum drop its
chains.  So nothing a finished graph made is a reference cycle: with
the cycle collector off, ``gc.collect()`` finds nothing after a
barrier, on threads and on worker processes, and a program that makes
fresh arrays every round does not grow.
"""

import gc
from time import perf_counter

import numpy as np
import pytest

from repro import SmpssRuntime, css_task, wait_on
from repro.core.dependencies import DependencyTracker
from repro.core.graph import TaskGraph
from repro.core.task import Direction, ParamAccess, TaskDefinition, TaskInstance
from repro.serve import ServeEngine
from repro.serve import protocol as sp


# Module level: worker processes resolve task bodies by name.
@css_task("inout(a)")
def chain_t(a):
    a += 1.0


@css_task("input(src) output(dst)")
def fanout_t(src, dst):
    dst[...] = src


@css_task("input(a, b) inout(c)")
def indep_t(a, b, c):
    c += a * b


@css_task("inout(data{lo..hi})")
def tile_t(data, lo, hi):
    data[lo:hi + 1] += 1.0


@css_task("input(data{lo..hi}) output(dest{lo..hi})")
def window_t(data, dest, lo, hi):
    dest[lo:hi + 1] = data[lo:hi + 1]


def chain(rt):
    a = np.zeros(8)
    for _ in range(40):
        chain_t(a)
    rt.barrier()
    assert (a == 40.0).all()


def fanout(rt):
    src, dsts = np.arange(8.0), [np.empty(8) for _ in range(4)]
    for i in range(40):
        fanout_t(src, dsts[i % 4])  # renamed: each write a FRESH version
    rt.barrier()
    assert all((d == src).all() for d in dsts)


def indep(rt):
    triples = [(np.ones(8), np.full(8, 2.0), np.zeros(8)) for _ in range(4)]
    for i in range(40):
        indep_t(*triples[i % 4])
    rt.barrier()
    assert all((c == 20.0).all() for _, _, c in triples)


def regions(rt):
    data, dest = np.zeros(256), np.zeros(256)
    for i in range(32):
        lo = (i % 8) * 32
        tile_t(data, lo, lo + 31)
    for i in range(32):
        lo = (i * 24) % 200
        window_t(data, dest, lo, lo + 47)
    rt.barrier()
    assert (data == 4.0).all() and set(dest[:232]) == {4.0}


def waited(rt):
    a = np.zeros(8)
    for _ in range(10):
        chain_t(a)
    assert (wait_on(a) == 10.0).all()
    chain_t(a)
    rt.barrier()
    assert (a == 11.0).all()


PROGRAMS = [chain, fanout, indep, regions, waited]
BACKENDS = [
    pytest.param({}, id="threads"),
    pytest.param({"backend": "processes"}, id="processes",
                 marks=pytest.mark.mp),
]


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("options", BACKENDS)
class TestNoGarbageAfterABarrier:
    @pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.__name__)
    def test_program(self, options, program):
        with SmpssRuntime(num_workers=2, **options) as rt:
            program(rt)  # warm-up: plans, caches, the fleet
            gc.collect()
            program(rt)
            assert gc.collect() == 0

    def test_memory_limit_releases_eagerly(self, options):
        # Three renamed buffers' worth: completions free dead ones.
        with SmpssRuntime(num_workers=2, memory_limit_bytes=3 * 64 * 8,
                          **options) as rt:
            fanout(rt)
            gc.collect()
            data, outs = np.zeros(64), [np.zeros(64) for _ in range(20)]
            for out in outs:
                fanout_t(data, out)
                chain_t(data)
            rt.barrier()
            assert gc.collect() == 0
            assert all((out == i).all() for i, out in enumerate(outs))

    def test_served_graph_drained_in_process(self, options):
        engine = ServeEngine(workers=2, **options)
        try:
            def serve():
                frames = []
                job = engine.submit_graph("t", {
                    "tasks": [{"def": sp.definition_ref(fn.definition),
                               "args": [{"d": "a"}]}
                              for fn in [chain_t] * 20],
                    "data": {"a": sp.attach(frames, sp.encode_datum(
                        np.zeros(8)))},
                    "frames": frames,
                })
                assert job.done.wait(10.0) and job.error is None

            serve()
            gc.collect()
            serve()
            assert gc.collect() == 0
        finally:
            engine.shutdown()


@pytest.mark.usefixtures("collector_off")
@pytest.mark.parametrize("options", BACKENDS)
def test_fresh_tiles_every_round_leave_the_heap_flat(options):
    """Round 300 holds as many GC-tracked objects as round 30."""

    rng = np.random.default_rng(5)
    counts = {}
    with SmpssRuntime(num_workers=2, **options) as rt:
        for rnd in range(1, 301):
            a, b = rng.random((8, 8)), rng.random((8, 8))
            c = np.zeros((8, 8))
            indep_t(a, b, c)
            fanout_t(a, b)
            indep_t(a, b, c)
            rt.barrier()
            del a, b, c
            if rnd in (30, 300):
                counts[rnd] = len(gc.get_objects())
    assert abs(counts[300] - counts[30]) <= 50, counts


_READ = TaskDefinition(func=lambda a: None, params=(), name="read")


def _retire_readers(targets, order) -> float:
    """Analyse one input task per target, retire them in *order*;
    returns the seconds retirement took."""

    graph = TaskGraph(keep_finished=False)
    tracker = DependencyTracker(graph)
    tasks = [TaskInstance(_READ, [ParamAccess("a", Direction.INPUT, t)], {})
             for t in targets]
    for task in tasks:
        tracker.analyze(task)
    t0 = perf_counter()
    for task in order(tasks):
        graph.complete(task)
    took = perf_counter() - t0
    assert all(v.readers == [] for task in tasks for _, v in task.reads)
    return took


def test_a_wide_fan_in_retires_in_linear_time():
    """20 000 readers of one version leave it in either order as fast
    as 20 000 readers of a version each (a scan per unlink would make
    the fan-in quadratic)."""

    def best(targets, order):
        return min(_retire_readers(targets, order) for _ in range(3))

    n = 20_000
    stream = best([np.zeros(1) for _ in range(n)], list)
    shared = [np.zeros(1)] * n
    for order in (list, lambda tasks: tasks[::-1]):
        assert best(shared, order) <= 1.5 * stream
