"""Tests for the simulated SMPSs runtime and baselines."""

import numpy as np
import pytest

from repro import css_task, wait_on
from repro.apps import cholesky, matmul
from repro.apps.nqueens import nqueens_smpss_count
from repro.blas.hypermatrix import HyperMatrix
from repro.core.scheduler import CentralQueueScheduler
from repro.core.task import TaskState
from repro.sim import (
    ALTIX_32,
    CostModel,
    MachineConfig,
    SimulatedRuntime,
    forkjoin_cholesky_time,
    forkjoin_matmul_time,
    run_static,
    simulate_program,
)
from repro.sim.baselines import (
    build_multisort_dag,
    build_nqueens_dag,
    nqueens_prefix_stats,
    queens_node_cost_for_granularity,
    scheduler_for_model,
    sequential_nqueens_time,
)


def sym_hyper(n):
    hm = HyperMatrix(n, 1, np.float32)
    for i in range(n):
        for j in range(n):
            hm[i, j] = np.zeros((1, 1), np.float32)
    return hm


def simulate_cholesky(n_blocks, block_size, cores, **kwargs):
    machine = ALTIX_32.with_cores(cores)
    cost = CostModel(machine, block_size=block_size)
    return simulate_program(
        cholesky.cholesky_hyper,
        sym_hyper(n_blocks),
        machine=machine,
        cost_model=cost,
        **kwargs,
    )


class TestSimulatedRuntime:
    def test_all_tasks_execute(self):
        res = simulate_cholesky(6, 128, cores=4)
        assert res.tasks_executed == 56

    def test_monotone_speedup(self):
        times = [simulate_cholesky(12, 128, cores=c).makespan for c in (1, 2, 4, 8)]
        assert times[0] > times[1] > times[2] > times[3]

    def test_speedup_bounded_by_cores(self):
        t1 = simulate_cholesky(12, 128, cores=1).makespan
        t8 = simulate_cholesky(12, 128, cores=8).makespan
        assert 1.0 < t1 / t8 <= 8.0

    def test_single_core_executes_serially(self):
        res = simulate_cholesky(6, 128, cores=1)
        assert res.tasks_executed == 56
        assert res.busy_time[0] == pytest.approx(res.makespan, rel=0.05)

    def test_determinism(self):
        a = simulate_cholesky(8, 128, cores=4)
        b = simulate_cholesky(8, 128, cores=4)
        assert a.makespan == b.makespan
        assert a.steals == b.steals

    def test_graph_window_blocks_main(self):
        machine = MachineConfig(cores=2, max_pending_tasks=10)
        cost = CostModel(machine, block_size=64)
        res = simulate_program(
            cholesky.cholesky_hyper, sym_hyper(8),
            machine=machine, cost_model=cost,
        )
        assert res.tasks_executed == cholesky.hyper_task_count(8)["total"]

    def test_execute_bodies_produces_values(self):
        machine = ALTIX_32.with_cores(4)
        runtime = SimulatedRuntime(
            machine=machine,
            cost_model=CostModel(machine, block_size=1, queens_node_cost=1e-6),
            execute_bodies=True,
        )
        with runtime:
            count = nqueens_smpss_count(6)
            runtime.barrier()
        assert count == 4  # known n=6 solution count

    def test_locality_scheduler_beats_central_queue(self):
        """Section III's locality lists should not lose to the central
        queue ablation on a cache-sensitive chain workload."""

        def run(factory):
            machine = ALTIX_32.with_cores(4)
            cost = CostModel(machine, block_size=256)
            a, b, c = sym_hyper(6), sym_hyper(6), sym_hyper(6)
            return simulate_program(
                matmul.matmul_dense, a, b, c,
                machine=machine, cost_model=cost,
                scheduler_factory=factory,
            ).makespan

        from repro.core.scheduler import SmpssScheduler

        assert run(SmpssScheduler) <= run(CentralQueueScheduler) * 1.02

    def test_renaming_off_not_faster(self):
        """Renaming removes WAR/WAW constraints; disabling it can only
        serialise more (Strassen's reused scratch grids)."""

        from repro.apps.strassen import strassen_multiply

        def run(renaming):
            machine = ALTIX_32.with_cores(8)
            cost = CostModel(machine, block_size=256)
            a, b, c = sym_hyper(4), sym_hyper(4), sym_hyper(4)
            return simulate_program(
                strassen_multiply, a, b, c,
                machine=machine, cost_model=cost,
                enable_renaming=renaming,
            ).makespan

        assert run(True) < run(False)


@css_task("inout(a{lo..hi}) input(lo, hi)")
def fill_region_t(a, lo, hi):
    a[lo:hi + 1] = 7


@css_task("inout(a)")
def fill_whole_t(a):
    a[:] = 7


@css_task("output(a) input(v)")
def fill_t(a, v):
    a[:] = v


@css_task("input(a) output(b)")
def copy_t(a, b):
    b[:] = a


class TestSynchronisation:
    def test_barrier_writes_back_renamed_results(self):
        """200 pending readers make the second fill of ``a`` rename; the
        barrier must copy that version home, as on threads."""

        a, sinks = np.zeros(4), [np.zeros(4) for _ in range(200)]
        with SimulatedRuntime(execute_bodies=True) as rt:
            fill_t(a, 1)
            for b in sinks:
                copy_t(a, b)
            fill_t(a, 7)
            rt.barrier()
            assert rt.graph.stats.renames == 1
        assert (a == 7).all()
        assert all((b == 1).all() for b in sinks)

    def test_region_only_wait_on_advances_the_main_clock(self):
        clocks = []
        for submit in (lambda a: fill_region_t(a, 0, 3), fill_whole_t):
            a = np.zeros(8)
            with SimulatedRuntime(execute_bodies=True) as rt:
                task = submit(a)
                submitted = rt.main_clock
                wait_on(a)
                assert task.state is TaskState.FINISHED
                assert rt.main_clock > submitted
                clocks.append(rt.main_clock)
        assert clocks[0] == clocks[1]


class TestForkJoinModels:
    def test_mkl_plateaus_before_goto(self):
        def speedup(lib, t):
            one = forkjoin_cholesky_time(4096, 1, lib, ALTIX_32.with_cores(1))
            return one / forkjoin_cholesky_time(4096, t, lib, ALTIX_32.with_cores(t))

        # MKL gains little beyond 4 threads...
        assert speedup("mkl", 32) < speedup("mkl", 4) * 1.25
        # ...Goto keeps gaining until ~10...
        assert speedup("goto", 12) > speedup("goto", 4) * 1.5
        # ...then flattens.
        assert speedup("goto", 32) < speedup("goto", 12) * 1.1

    def test_matmul_scales_smoothly(self):
        def gflops(lib, t):
            flops = 2.0 * 8192 ** 3
            return flops / forkjoin_matmul_time(8192, t, lib, ALTIX_32.with_cores(t))

        assert gflops("goto", 32) > 0.8 * 32 * gflops("goto", 1)

    def test_single_thread_sanity(self):
        t = forkjoin_cholesky_time(2048, 1, "goto", ALTIX_32.with_cores(1))
        flops = 2048 ** 3 / 3
        rate = flops / t
        # Within the core's peak and above half of it.
        assert 0.5 * ALTIX_32.core_peak_flops < rate < ALTIX_32.core_peak_flops


class TestBaselineDags:
    def test_multisort_work_close_to_sequential_plus_merges(self):
        n, qs = 1 << 16, 1 << 12
        seq = build_multisort_dag(n, qs, "seq")
        cilk = build_multisort_dag(n, qs, "cilk")
        assert cilk.total_work > seq.total_work  # spawn overheads
        assert cilk.total_work < seq.total_work * 1.2

    def test_multisort_span_much_smaller_than_work(self):
        dag = build_multisort_dag(1 << 18, 1 << 12, "cilk")
        assert dag.critical_path() < dag.total_work / 8

    def test_template_rebuilds_fresh_graphs(self):
        dag = build_multisort_dag(1 << 14, 1 << 12, "omp")
        g1, g2 = dag.build(), dag.build()
        machine = ALTIX_32.with_cores(4)
        r1 = run_static(g1, machine, CostModel(machine, block_size=1),
                        scheduler_for_model("omp"))
        r2 = run_static(g2, machine, CostModel(machine, block_size=1),
                        scheduler_for_model("omp"))
        assert r1.makespan == pytest.approx(r2.makespan)

    def test_nqueens_dag_counts_match_stats(self):
        stats = nqueens_prefix_stats(8, 4)
        dag = build_nqueens_dag(8, 4, "cilk")
        leaf_nodes = [n for n, _d in dag.nodes if n == "nqueens_leaf"]
        assert len(leaf_nodes) == stats["leaf_tasks"]

    def test_queens_granularity_derivation(self):
        node_cost = queens_node_cost_for_granularity(8, 4, granularity=100e-6)
        stats = nqueens_prefix_stats(8, 4)
        mean = stats["leaf_nodes"] / stats["leaf_tasks"]
        assert node_cost * mean == pytest.approx(100e-6)

    def test_sequential_time_includes_penalty(self):
        base = sequential_nqueens_time(6, node_cost=1e-6)
        from repro.sim.calibration import QUEENS_SEQUENTIAL_PENALTY
        from repro.apps.tasks import count_completions_cached

        _s, nodes = count_completions_cached(6, 0, ())
        assert base == pytest.approx(nodes * 1e-6 * QUEENS_SEQUENTIAL_PENALTY)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            scheduler_for_model("tbb")
        with pytest.raises(ValueError):
            build_multisort_dag(1024, 128, "tbb")
