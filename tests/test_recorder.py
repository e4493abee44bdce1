"""Tests for the recording runtime and Figure 5 reproduction."""

import numpy as np
import pytest

from repro import RecordingRuntime, barrier, css_task, record_program, wait_on
from repro.apps import cholesky, matmul
from repro.apps.tasks import sgemm_t
from repro.blas.hypermatrix import HyperMatrix


def sym_hyper(n):
    hm = HyperMatrix(n, 1, np.float32)
    for i in range(n):
        for j in range(n):
            hm[i, j] = np.zeros((1, 1), np.float32)
    return hm


class TestFigure5:
    """The 6x6-block Cholesky graph of Figure 5."""

    @pytest.fixture(scope="class")
    def prog(self):
        return record_program(cholesky.cholesky_hyper, sym_hyper(6), execute="skip")

    def test_exactly_56_tasks(self, prog):
        assert prog.task_count == 56

    def test_task_type_counts(self, prog):
        counts = prog.graph.stats.tasks_by_name
        assert counts["sgemm_nt_t"] == 20
        assert counts["ssyrk_t"] == 15
        assert counts["strsm_t"] == 15
        assert counts["spotrf_t"] == 6

    def test_task_ids_follow_invocation_order(self, prog):
        assert [t.task_id for t in prog.graph] == list(range(1, 57))
        assert prog.graph.get(1).name == "spotrf_t"

    def test_task_51_unlocked_by_1_and_6(self, prog):
        """'After running tasks 1 and 6, the runtime is able to start
        executing task 51, yet the algorithm generates only 56 tasks.'"""

        t51 = prog.graph.get(51)
        direct = {p.task_id for p in t51.predecessors}
        assert direct == {6}
        t6 = prog.graph.get(6)
        assert {p.task_id for p in t6.predecessors} == {1}

    def test_only_true_dependencies(self, prog):
        """'Due to renaming, the graph only contains true dependencies.'"""

        kinds = {kind for _p, _s, kind in prog.graph.edges()}
        assert kinds == {"true"}

    def test_graph_is_a_dag(self, prog):
        import networkx as nx

        assert nx.is_directed_acyclic_graph(prog.graph.to_networkx())

    def test_dot_contains_all_nodes(self, prog):
        dot = prog.graph.to_dot()
        assert all(f'label="{i}\\n' in dot for i in range(1, 57))


class TestTaskCountFormulas:
    @pytest.mark.parametrize("n_blocks", [2, 4, 6, 8])
    def test_hyper_formula_matches_recording(self, n_blocks):
        prog = record_program(
            cholesky.cholesky_hyper, sym_hyper(n_blocks), execute="skip"
        )
        assert prog.task_count == cholesky.hyper_task_count(n_blocks)["total"]

    @pytest.mark.parametrize("n_blocks", [2, 4, 8])
    def test_flat_formula_matches_recording(self, n_blocks):
        m = 4
        flat = np.empty((n_blocks * m, n_blocks * m), np.float32)
        prog = record_program(cholesky.cholesky_flat, flat, m, execute="skip")
        assert prog.task_count == cholesky.flat_task_count(n_blocks)["total"]

    def test_paper_quoted_counts(self):
        """'374,272 tasks for Cholesky with 32x32 element blocks,
        49,920 with 64x64 blocks' — both match T(N) at N=128 / N=64."""

        assert cholesky.flat_task_count(128)["total"] == 374_272
        assert cholesky.flat_task_count(64)["total"] == 49_920

    def test_matmul_n_cubed(self):
        """'The code generates N^3 tasks arranged as N^2 chains of N
        tasks.'"""

        n = 4
        a, b, c = sym_hyper(n), sym_hyper(n), sym_hyper(n)
        prog = record_program(matmul.matmul_dense, a, b, c, execute="skip")
        assert prog.task_count == n ** 3 == matmul.dense_task_count(n)
        # N^2 chains: each C block's tasks form a chain of length N.
        graph = prog.graph
        roots = graph.roots()
        assert len(roots) == n * n
        assert graph.critical_path_length() == n

    def test_matmul_loop_order_same_graph_size(self):
        n = 3
        counts = []
        for order in ("ijk", "kji", "jik"):
            a, b, c = sym_hyper(n), sym_hyper(n), sym_hyper(n)
            prog = record_program(
                matmul.matmul_dense, a, b, c, order, execute="skip"
            )
            counts.append(
                (prog.task_count, prog.graph.stats.total_edges)
            )
        assert len(set(counts)) == 1


class TestEagerMode:
    def test_eager_computes_results(self):
        a = np.full((2, 2), 2.0)
        b = np.full((2, 2), 3.0)
        c = np.zeros((2, 2))

        def main():
            sgemm_t(a, b, c)

        recorder = RecordingRuntime(execute="eager")
        with recorder:
            main()
            recorder.barrier()
        assert (c == 12.0).all()

    def test_eager_write_back_after_renaming(self):
        from repro.apps.tasks import place_t

        a = np.zeros(4, np.int32)

        recorder = RecordingRuntime(execute="eager")
        with recorder:
            place_t(a, 0, 3)
            place_t(a, 1, 1)
            recorder.barrier()
        assert list(a[:2]) == [3, 1]

    def test_skip_mode_does_not_execute(self):
        c = np.zeros((2, 2))
        prog = record_program(
            lambda: sgemm_t(np.ones((2, 2)), np.ones((2, 2)), c),
            execute="skip",
        )
        assert (c == 0.0).all()
        assert prog.task_count == 1

    def test_events_stream(self):
        recorder = RecordingRuntime(execute="skip")
        with recorder:
            t = sgemm_t(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))
            recorder.wait_for(t)
            recorder.barrier()
        prog = recorder.finish()
        kinds = [e[0] for e in prog.events]
        assert kinds == ["task", "wait", "barrier"]


@css_task("inout(a{lo..hi}) input(lo, hi)")
def fill_region_t(a, lo, hi):
    a[lo:hi + 1] = 7


@css_task("output(a) input(v)")
def fill_t(a, v):
    a[:] = v


@css_task("input(a) output(b)")
def copy_t(a, b):
    b[:] = a


@css_task("inout(a)")
def inc_t(a):
    a += 1


class TestSynchronisation:
    """The recorder blocks where the threaded runtime does, and finishes
    what the main thread waited for, as that runtime has by then."""

    def test_region_only_wait_on_is_recorded(self):
        a = np.zeros(8)

        def main():
            fill_region_t(a, 0, 3)
            wait_on(a)

        prog = record_program(main)
        assert [e[0] for e in prog.events] == ["task", "wait"]
        assert (a == [7, 7, 7, 7, 0, 0, 0, 0]).all()

    def test_wait_on_finishes_what_it_waited_for(self):
        a = np.zeros(4)

        def main():
            fill_t(a, 1)
            wait_on(a)
            fill_t(a, 2)        # the writer before it finished: no rename
            wait_on(a)
            wait_on(a)          # nothing left to wait for: no event

        prog = record_program(main)
        assert [e[0] for e in prog.events] == ["task", "wait", "task", "wait"]
        assert prog.graph.stats.renames == 0
        assert all(t.state.name == "FINISHED" for t in prog.tasks)

    @pytest.mark.parametrize("execute", ["eager", "skip"])
    def test_barrier_forgets_every_chain(self, execute):
        a, b = np.zeros(4), np.zeros(4)

        def main():
            for _ in range(2):
                fill_t(a, 1)
                copy_t(a, b)
                barrier()

        prog = record_program(main, execute=execute)
        assert prog.graph.stats.renames == 0
        assert prog.graph.stats.total_edges == 2


class TestSavedDocument:
    def test_explicit_config_saves_the_whole_graph(self):
        """A recorder built from a config keeps every task it waited
        for: the saved document names the tasks its stream does, and
        it replays."""

        from repro.core.config import RuntimeConfig
        from repro.live.replay import ReplayEngine

        a, b = np.zeros(1), np.zeros(1)
        recorder = RecordingRuntime(config=RuntimeConfig())
        with recorder:
            inc_t(a)
            inc_t(a)
            wait_on(a)
            inc_t(b)
            inc_t(a)
        prog = recorder.finish()
        doc = prog.to_json_dict()
        assert prog.task_count == len(doc["tasks"]) == 4
        # Task 2 finished at the wait, so task 4 depends on nothing.
        assert doc["edges"] == [[1, 2, "true"]]
        assert doc["stream"] == [["task", 1], ["task", 2], ["wait", 2],
                                 ["task", 3], ["task", 4]]
        assert ReplayEngine(doc, num_threads=2).run() == 4
