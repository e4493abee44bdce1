"""Tests for the run-time dependency analysis + renaming (section II)."""

import numpy as np
import pytest

from repro.core.dependencies import (
    DependencyError,
    DependencyTracker,
    TrackerConfig,
)
from repro.core.graph import EdgeKind, TaskGraph
from repro.core.invocation import instantiate
from repro.core.pragma import parse_pragma
from repro.core.regions import Region
from repro.core.renaming import StorageKind
from repro.core.representants import Representant
from repro.core.task import TaskDefinition, TaskState, reset_task_ids


def make_def(pragma: str, func):
    return TaskDefinition(func=func, params=parse_pragma(pragma).params)


def reader(a):  # noqa: ARG001
    pass


def writer(a):  # noqa: ARG001
    pass


def update(a):  # noqa: ARG001
    pass


READ = make_def("input(a)", reader)
WRITE = make_def("output(a)", writer)
UPDATE = make_def("inout(a)", update)


class Harness:
    """A tracker plus helpers to submit accesses to one datum."""

    def __init__(self, **config):
        reset_task_ids()
        self.graph = TaskGraph(keep_finished=True)
        self.tracker = DependencyTracker(
            self.graph, config=TrackerConfig(**config)
        )

    def submit(self, definition, value):
        task = instantiate(definition, (value,), {})
        self.tracker.analyze(task)
        return task

    def finish(self, task):
        for t in self.graph.complete(task):
            pass

    def edges(self):
        return {(p, s): k for p, s, k in self.graph.edges()}


@pytest.fixture
def data():
    return np.zeros(4, dtype=np.float32)


class TestTrueDependencies:
    def test_read_after_write(self, data):
        h = Harness()
        w = h.submit(UPDATE, data)
        r = h.submit(READ, data)
        assert h.edges() == {(w.task_id, r.task_id): EdgeKind.TRUE}
        assert r.num_pending_deps == 1

    def test_chain_of_inouts(self, data):
        h = Harness()
        tasks = [h.submit(UPDATE, data) for _ in range(4)]
        for prev, nxt in zip(tasks, tasks[1:]):
            assert (prev.task_id, nxt.task_id) in h.edges()
        assert h.graph.stats.total_edges == 3

    def test_no_dep_on_finished_producer(self, data):
        h = Harness()
        w = h.submit(UPDATE, data)
        h.finish(w)
        r = h.submit(READ, data)
        assert r.num_pending_deps == 0
        assert h.graph.stats.total_edges == 0

    def test_parallel_readers_share_producer(self, data):
        h = Harness()
        w = h.submit(UPDATE, data)
        readers = [h.submit(READ, data) for _ in range(3)]
        for r in readers:
            assert (w.task_id, r.task_id) in h.edges()
        # Readers are mutually independent.
        assert h.graph.stats.total_edges == 3

    def test_duplicate_access_single_edge(self, data):
        two = make_def("input(a) input(b)", lambda a, b: None)
        h = Harness()
        w = h.submit(UPDATE, data)
        task = instantiate(two, (data, data), {})
        h.tracker.analyze(task)
        assert h.graph.stats.total_edges == 1  # deduplicated


class TestRenaming:
    def test_war_on_output_renames(self, data):
        """WAR: pending reader + new writer -> fresh buffer, no edge."""

        h = Harness()
        w0 = h.submit(UPDATE, data)
        r = h.submit(READ, data)
        w1 = h.submit(WRITE, data)
        assert w1.num_pending_deps == 0  # renamed: independent of reader
        assert (r.task_id, w1.task_id) not in h.edges()
        assert h.graph.stats.renames == 1
        (_name, version), = w1.writes
        assert version.kind is StorageKind.FRESH

    def test_waw_on_output_renames(self, data):
        h = Harness()
        w0 = h.submit(WRITE, data)
        w1 = h.submit(WRITE, data)
        assert w1.num_pending_deps == 0
        assert h.graph.stats.renames == 1

    def test_output_without_hazard_reuses_storage(self, data):
        h = Harness()
        w0 = h.submit(WRITE, data)
        h.finish(w0)
        w1 = h.submit(WRITE, data)
        assert h.graph.stats.renames == 0
        (_n, version), = w1.writes
        assert version.kind is StorageKind.SAME

    def test_inout_with_pending_reader_clones(self, data):
        """The N Queens pattern: sibling placements get private copies."""

        h = Harness()
        w0 = h.submit(UPDATE, data)
        r = h.submit(READ, data)
        w1 = h.submit(UPDATE, data)
        # True dep on w0 (reads the value) but NOT on the reader.
        edges = h.edges()
        assert (w0.task_id, w1.task_id) in edges
        assert (r.task_id, w1.task_id) not in edges
        (_n, version), = w1.writes
        assert version.kind is StorageKind.CLONE

    def test_renaming_disabled_gives_anti_edges(self, data):
        h = Harness(enable_renaming=False)
        w0 = h.submit(UPDATE, data)
        r = h.submit(READ, data)
        w1 = h.submit(WRITE, data)
        edges = h.edges()
        assert edges[(r.task_id, w1.task_id)] == EdgeKind.ANTI
        assert edges[(w0.task_id, w1.task_id)] == EdgeKind.OUTPUT
        assert h.graph.stats.renames == 0

    def test_clone_storage_contains_previous_value(self, data):
        h = Harness()
        w0 = h.submit(UPDATE, data)
        # Simulate w0 running: write through its version storage.
        (_n, v0), = w0.writes
        v0.resolve_storage()[...] = 7.0
        h.finish(w0)
        r = h.submit(READ, data)
        w1 = h.submit(UPDATE, data)
        (_n, v1), = w1.writes
        if v1.kind is StorageKind.CLONE:
            assert (v1.resolve_storage() == 7.0).all()

    def test_representant_never_renamed(self):
        rep = Representant("blk")
        h = Harness()
        h.submit(UPDATE, rep)
        r = h.submit(READ, rep)
        w = h.submit(WRITE, rep)
        assert h.edges()[(r.task_id, w.task_id)] == EdgeKind.ANTI
        assert h.graph.stats.renames == 0


class TestOpaqueAndScalars:
    def test_opaque_skipped(self, data):
        opq = make_def("opaque(a)", lambda a: None)
        h = Harness()
        h.submit(opq, data)
        h.submit(opq, data)
        assert h.graph.stats.total_edges == 0
        assert h.tracker.tracked_count == 0

    def test_scalars_by_value(self):
        scal = make_def("input(a)", lambda a: None)
        h = Harness()
        h.submit(scal, 42)
        h.submit(scal, "text")
        h.submit(scal, (1, 2))
        assert h.tracker.tracked_count == 0


class TestRegionDependencies:
    def region_def(self, pragma):
        return make_def(pragma, lambda data, i, j: None)

    def submit_region(self, h, pragma, data, i, j):
        d = self.region_def(pragma)
        task = instantiate(d, (data, i, j), {})
        h.tracker.analyze(task)
        return task

    def test_disjoint_regions_independent(self):
        data = np.zeros(100, np.float32)
        h = Harness()
        a = self.submit_region(h, "inout(data{i..j}) input(i, j)", data, 0, 49)
        b = self.submit_region(h, "inout(data{i..j}) input(i, j)", data, 50, 99)
        assert h.graph.stats.total_edges == 0

    def test_overlapping_regions_ordered(self):
        data = np.zeros(100, np.float32)
        h = Harness()
        a = self.submit_region(h, "inout(data{i..j}) input(i, j)", data, 0, 60)
        b = self.submit_region(h, "inout(data{i..j}) input(i, j)", data, 40, 99)
        assert (a.task_id, b.task_id) in h.edges()

    def test_read_read_no_edge(self):
        data = np.zeros(100, np.float32)
        h = Harness()
        self.submit_region(h, "input(data{i..j}, i, j)", data, 0, 60)
        self.submit_region(h, "input(data{i..j}, i, j)", data, 40, 99)
        assert h.graph.stats.total_edges == 0

    def test_figure7_merge_pattern(self):
        """Quarter sorts -> pair merges -> final merge, as in Figure 7."""

        reset_task_ids()
        data = np.zeros(64, np.float32)
        tmp = np.zeros(64, np.float32)
        h = Harness()
        quick = make_def("inout(data{i..j}) input(i, j)", lambda data, i, j: None)
        merge = make_def(
            "input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) output(dest{i1..j2})",
            lambda data, i1, j1, i2, j2, dest: None,
        )
        sorts = []
        for lo, hi in ((0, 15), (16, 31), (32, 47), (48, 63)):
            task = instantiate(quick, (data, lo, hi), {})
            h.tracker.analyze(task)
            sorts.append(task)
        m1 = instantiate(merge, (data, 0, 15, 16, 31, tmp), {})
        h.tracker.analyze(m1)
        m2 = instantiate(merge, (data, 32, 47, 48, 63, tmp), {})
        h.tracker.analyze(m2)
        m3 = instantiate(merge, (tmp, 0, 31, 32, 63, data), {})
        h.tracker.analyze(m3)
        edges = h.edges()
        # m1 depends on exactly the first two sorts.
        assert (sorts[0].task_id, m1.task_id) in edges
        assert (sorts[1].task_id, m1.task_id) in edges
        assert (sorts[2].task_id, m1.task_id) not in edges
        # m2 on the last two.
        assert (sorts[2].task_id, m2.task_id) in edges
        assert (sorts[0].task_id, m2.task_id) not in edges
        # m3 reads tmp (from m1 and m2) and overwrites data (anti deps
        # on the sorts' regions are satisfied transitively or directly).
        assert (m1.task_id, m3.task_id) in edges
        assert (m2.task_id, m3.task_id) in edges
        # m1 and m2 are independent of each other.
        assert (m1.task_id, m2.task_id) not in edges
        assert (m2.task_id, m1.task_id) not in edges

    def test_mixing_region_after_rename_raises(self, data):
        h = Harness()
        h.submit(WRITE, data)
        h.submit(WRITE, data)  # renamed: current version off-base
        region = self.region_def("input(data{i..j}, i, j)")
        task = instantiate(region, (data, 0, 1), {})
        with pytest.raises(DependencyError, match="barrier"):
            h.tracker.analyze(task)

    def test_whole_object_access_in_region_mode(self, data):
        h = Harness()
        region = self.region_def("inout(data{i..j}) input(i, j)")
        t_region = instantiate(region, (data, 0, 3), {})
        h.tracker.analyze(t_region)
        t_whole = h.submit(READ, data)
        assert (t_region.task_id, t_whole.task_id) in h.edges()
        # No renaming in region mode.
        assert h.graph.stats.renames == 0


class TestWriteBack:
    def test_write_back_restores_user_object(self, data):
        h = Harness()
        w0 = h.submit(UPDATE, data)
        r = h.submit(READ, data)
        w1 = h.submit(UPDATE, data)  # cloned
        (_n, v1), = w1.writes
        v1.resolve_storage()[...] = 9.0
        for t in (w0, r, w1):
            h.finish(t)
        count = h.tracker.write_back_all()
        assert count == 1
        assert (data == 9.0).all()

    def test_no_write_back_needed_when_in_place(self, data):
        h = Harness()
        w = h.submit(UPDATE, data)
        h.finish(w)
        assert h.tracker.write_back_all() == 0

    def test_reset_clears_tracking(self, data):
        h = Harness()
        h.submit(UPDATE, data)
        h.tracker.reset()
        assert h.tracker.tracked_count == 0
