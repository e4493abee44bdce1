"""Tests for the dynamic task graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.graph import EdgeKind, TaskGraph
from repro.core.task import TaskDefinition, TaskInstance, TaskState, reset_task_ids


def new_task(name="t", defn_cache={}):
    defn = defn_cache.get(name)
    if defn is None:
        defn = TaskDefinition(func=lambda: None, params=(), name=name)
        defn_cache[name] = defn
    return TaskInstance(definition=defn, accesses=[], arguments={})


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_task_ids()


class TestConstruction:
    def test_add_and_count(self):
        g = TaskGraph()
        a, b = new_task("a"), new_task("b")
        g.add_task(a)
        g.add_task(b)
        assert len(g) == 2
        assert g.stats.tasks_by_name["a"] == 1

    def test_duplicate_id_rejected(self):
        g = TaskGraph()
        a = new_task()
        g.add_task(a)
        with pytest.raises(ValueError):
            g.add_task(a)

    def test_edge_bookkeeping(self):
        g = TaskGraph()
        a, b = new_task(), new_task()
        g.add_task(a)
        g.add_task(b)
        assert g.add_dependency(a, b, EdgeKind.TRUE)
        assert b.num_pending_deps == 1
        assert not g.add_dependency(a, b)  # duplicate edge collapsed
        assert b.num_pending_deps == 1

    def test_self_edge_ignored(self):
        g = TaskGraph()
        a = new_task()
        g.add_task(a)
        assert not g.add_dependency(a, a)

    def test_edge_to_finished_pred_skipped(self):
        g = TaskGraph()
        a, b = new_task(), new_task()
        g.add_task(a)
        g.complete(a)
        g.add_task(b)
        assert not g.add_dependency(a, b)
        assert b.num_pending_deps == 0


class TestCompletion:
    def test_complete_releases_successors(self):
        g = TaskGraph()
        a, b, c = new_task(), new_task(), new_task()
        for t in (a, b, c):
            g.add_task(t)
        g.add_dependency(a, c)
        g.add_dependency(b, c)
        assert g.complete(a) == []
        assert g.complete(b) == [c]

    def test_double_complete_rejected(self):
        g = TaskGraph()
        a = new_task()
        g.add_task(a)
        g.complete(a)
        with pytest.raises(ValueError):
            g.complete(a)

    def test_pending_count(self):
        g = TaskGraph()
        a, b = new_task(), new_task()
        g.add_task(a)
        g.add_task(b)
        assert g.pending_count == 2
        g.complete(a)
        assert g.pending_count == 1

    def test_retire_frees_memory_when_not_keeping(self):
        g = TaskGraph(keep_finished=False)
        a, b = new_task(), new_task()
        g.add_task(a)
        g.add_task(b)
        g.add_dependency(a, b)
        g.complete(a)
        assert len(g) == 1
        assert not b.predecessors

    def test_newly_ready_in_id_order(self):
        g = TaskGraph()
        root = new_task("root")
        g.add_task(root)
        followers = [new_task(f"f{i}") for i in range(5)]
        for f in reversed(followers):
            g.add_task(f)
            g.add_dependency(root, f)
        ready = g.complete(root)
        assert [t.task_id for t in ready] == sorted(t.task_id for t in followers)


class TestAnalysis:
    def _diamond(self):
        g = TaskGraph()
        a, b, c, d = (new_task(x) for x in "abcd")
        for t in (a, b, c, d):
            g.add_task(t)
        g.add_dependency(a, b)
        g.add_dependency(a, c)
        g.add_dependency(b, d)
        g.add_dependency(c, d)
        return g, (a, b, c, d)

    def test_roots(self):
        g, (a, *_rest) = self._diamond()
        assert g.roots() == [a]

    def test_critical_path(self):
        g, _ = self._diamond()
        assert g.critical_path_length() == 3

    def test_weighted_critical_path(self):
        g, (a, b, c, d) = self._diamond()
        weights = {a.task_id: 1.0, b.task_id: 5.0, c.task_id: 1.0, d.task_id: 1.0}
        assert g.weighted_critical_path(lambda t: weights[t.task_id]) == 7.0

    def test_networkx_export(self):
        g, _ = self._diamond()
        nx_graph = g.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        import networkx as nx

        assert nx.is_directed_acyclic_graph(nx_graph)

    def test_dot_export(self):
        g, _ = self._diamond()
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "t1 -> t2" in dot

    def test_ascii_levels(self):
        g, (a, b, c, d) = self._diamond()
        art = g.to_ascii_levels()
        lines = art.splitlines()
        assert lines[0].endswith(str(a.task_id))
        assert "(  2)" in lines[1]  # b and c share level 1
        assert lines[2].endswith(str(d.task_id))

    def test_ascii_levels_truncates_wide_rows(self):
        g = TaskGraph()
        for _ in range(200):
            g.add_task(new_task())
        art = g.to_ascii_levels(width=40)
        assert all(len(line) <= 45 for line in art.splitlines())
        assert "..." in art

    def test_edges_carry_kind(self):
        g = TaskGraph()
        a, b = new_task(), new_task()
        g.add_task(a)
        g.add_task(b)
        g.add_dependency(a, b, EdgeKind.ANTI)
        assert list(g.edges()) == [(a.task_id, b.task_id, EdgeKind.ANTI)]
        assert g.stats.edges_by_kind[EdgeKind.ANTI] == 1


class TestReaderPrune:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_inline_prune_equals_the_list_prune(self, data):
        """``complete`` leaves a version's reader list as the list prune
        (``Version.pending_readers``) would — also where it skips the
        prune because the retiring task is every reader left — after
        every retire, over random reader lists (a task reading the
        version twice included) and retire orders."""

        from repro.core.renaming import StorageKind, Version

        reads = data.draw(st.lists(st.integers(0, 5), min_size=1,
                                   max_size=12))
        g = TaskGraph()
        version = Version(None, 0, StorageKind.INITIAL)
        tasks = [new_task("reader") for _ in range(6)]
        for k in reads:
            tasks[k].reads.append(("x", version))
        version.readers = [tasks[k] for k in reads]
        used = [task for task in tasks if task.reads]
        for task in used:
            g.add_task(task)
        model, gone = list(version.readers), 0
        for task in data.draw(st.permutations(used)):
            g.complete(task)
            for _ in task.reads:
                gone += 1
                if 2 * gone > len(model):
                    model = [t for t in model
                             if t.state is not TaskState.FINISHED]
                    gone = 0
            assert version.readers == model
            assert version._gone == gone
