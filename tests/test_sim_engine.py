"""Tests for the discrete-event engine and virtual machine."""

import pytest

from repro.core.scheduler import SmpssScheduler
from repro.sim import ALTIX_32, CostModel, MachineConfig, run_static
from repro.sim.baselines import DagTemplate
from repro.sim.cache import CoreCache, ResidencyIndex


def template_chain(durations):
    dag = DagTemplate()
    prev = None
    for d in durations:
        node = dag.add_node("work", d)
        if prev is not None:
            dag.add_edge(prev, node)
        prev = node
    return dag


def template_fan(duration, width):
    dag = DagTemplate()
    for _ in range(width):
        dag.add_node("work", duration)
    return dag


def quiet_machine(cores):
    """A machine with zero overheads for exact makespan arithmetic."""

    return MachineConfig(
        cores=cores,
        task_add_overhead=0.0,
        task_dispatch_overhead=0.0,
        steal_overhead=0.0,
        rename_alloc_overhead=0.0,
    )


def run(dag, cores):
    machine = quiet_machine(cores)
    return run_static(
        dag.build(), machine, CostModel(machine, block_size=1), SmpssScheduler
    )


class TestExactSchedules:
    def test_serial_chain_sums(self):
        res = run(template_chain([1.0, 2.0, 3.0]), cores=4)
        assert res.makespan == pytest.approx(6.0)
        assert res.tasks_executed == 3

    def test_independent_tasks_parallelise(self):
        res = run(template_fan(1.0, 8), cores=8)
        assert res.makespan == pytest.approx(1.0)

    def test_more_tasks_than_cores_waves(self):
        res = run(template_fan(1.0, 10), cores=4)
        # 10 unit tasks on 4 cores: ceil(10/4) = 3 waves.
        assert res.makespan == pytest.approx(3.0)

    def test_single_core(self):
        res = run(template_fan(1.0, 5), cores=1)
        assert res.makespan == pytest.approx(5.0)

    def test_diamond_critical_path(self):
        dag = DagTemplate()
        a = dag.add_node("a", 1.0)
        b = dag.add_node("b", 5.0)
        c = dag.add_node("c", 1.0)
        d = dag.add_node("d", 1.0)
        dag.add_edge(a, b)
        dag.add_edge(a, c)
        dag.add_edge(b, d)
        dag.add_edge(c, d)
        res = run(dag, cores=2)
        assert res.makespan == pytest.approx(7.0)

    def test_busy_time_conservation(self):
        res = run(template_fan(2.0, 6), cores=3)
        assert sum(res.busy_time) == pytest.approx(12.0)
        assert res.utilisation == pytest.approx(1.0)

    def test_tracer_records_virtual_times(self):
        """A tracer handed to ``run_static`` runs on the virtual clock:
        each ``task_end`` is the task's virtual finish time."""

        from repro.core.tracing import EventKind, Tracer

        dag = DagTemplate()
        a = dag.add_node("a", 1.0)
        b = dag.add_node("b", 5.0)
        dag.add_edge(a, b)
        dag.add_node("c", 2.0)
        machine = quiet_machine(2)
        tracer = Tracer()
        res = run_static(dag.build(), machine,
                         CostModel(machine, block_size=1), SmpssScheduler,
                         tracer=tracer)
        ends = {e.task_name: e.time
                for e in tracer.of_kind(EventKind.TASK_END)}
        assert ends == {"a": 1.0, "c": 2.0, "b": 6.0}
        assert res.makespan == max(ends.values())

    def test_determinism(self):
        dag = template_fan(1.0, 16)
        first = run(dag, cores=5)
        second = run(dag, cores=5)
        assert first.makespan == second.makespan
        assert first.busy_time == second.busy_time


class TestSimResult:
    def test_gflops_and_speedup(self):
        res = run(template_fan(1.0, 4), cores=4)
        assert res.gflops(2e9) == pytest.approx(2.0)
        assert res.speedup(4.0) == pytest.approx(4.0)


class TestCoreCache:
    def test_hit_miss_lru(self):
        cache = CoreCache(capacity=100)
        assert not cache.touch(1, 60)  # miss, inserted
        assert cache.touch(1, 60)  # hit
        assert not cache.touch(2, 60)  # miss, evicts 1
        assert not cache.touch(1, 60)  # 1 was evicted
        assert cache.misses == 3 and cache.hits == 1

    def test_lru_order_respected(self):
        cache = CoreCache(capacity=100)
        cache.touch(1, 40)
        cache.touch(2, 40)
        cache.touch(1, 40)  # refresh 1
        cache.touch(3, 40)  # evicts 2 (LRU), not 1
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_oversized_object_never_cached(self):
        cache = CoreCache(capacity=10)
        assert not cache.touch(1, 100)
        assert 1 not in cache
        assert cache.used_bytes == 0

    def test_invalidate(self):
        cache = CoreCache(capacity=100)
        cache.touch(1, 50)
        cache.invalidate(1)
        assert 1 not in cache
        assert cache.used_bytes == 0
        cache.invalidate(99)  # absent: no-op

    def test_residency_index(self):
        index = ResidencyIndex()
        a = CoreCache(100, core_id=0, residency=index)
        b = CoreCache(100, core_id=1, residency=index)
        a.touch(7, 10)
        b.touch(7, 10)
        assert index.holders(7) == {0, 1}
        a.invalidate(7)
        assert index.holders(7) == {1}
        b.invalidate(7)
        assert index.holders(7) == frozenset()


class TestCoherency:
    def test_writer_invalidates_other_cores(self):
        """A task writing a datum evicts it from other cores' caches,
        so the next reader there pays the traffic again."""

        import numpy as np

        from repro import record_program
        from repro.apps.tasks import sgemm_t
        from repro.core.graph import TaskGraph
        from repro.core.scheduler import SmpssScheduler
        from repro.sim.engine import VirtualMachine

        a = np.zeros((1, 1), np.float32)
        b = np.zeros((1, 1), np.float32)
        c = np.zeros((1, 1), np.float32)
        prog = record_program(lambda: sgemm_t(a, b, c), execute="skip")
        machine = quiet_machine(2)
        cost = CostModel(machine, block_size=64)
        scheduler = SmpssScheduler(2)
        vm = VirtualMachine(machine, prog.graph, scheduler, cost)
        # Preload c into core 1's cache, then run the writer on core 0.
        vm.caches[1].touch(id(c), 4)
        task = prog.tasks[0]
        vm.start_task(0, task, 0.0)
        assert id(c) not in vm.caches[1]
