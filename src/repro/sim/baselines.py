"""Cilk 5 and OpenMP 3.0 baseline DAG builders (Figures 14-16).

Both models are *dependency-unaware*: parallelism comes from strict
spawn/sync trees (Cilk) or task pools with taskwait barriers (OpenMP),
so their DAGs contain explicit join nodes where SMPSs would have only
data edges.  The builders construct those DAGs as reusable
:class:`DagTemplate` objects (a simulation consumes its graph, so
thread-count sweeps re-materialise from the template); they are then
scheduled by :func:`repro.sim.engine.run_static` under the matching
discipline — per-core deques with FIFO stealing for Cilk (its actual
policy, which section VII.D notes SMPSs shares), a central queue for
the OpenMP tied-task pool.

Costs come from :mod:`repro.sim.calibration`, including the per-spawn
partial-solution duplication the paper calls out for N Queens: "at each
nested task entrance the OpenMP tasking version requires allocating a
copy of the partial solution array ... Cilk has exactly the same
problem."
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..apps.tasks import _legal, count_completions_cached
from ..core.graph import TaskGraph, longest_path
from ..core.scheduler import CentralQueueScheduler, SmpssScheduler
from ..core.task import TaskDefinition, TaskInstance, reset_task_ids
from . import calibration as cal

__all__ = [
    "DagTemplate",
    "build_multisort_dag",
    "build_nqueens_dag",
    "scheduler_for_model",
    "sequential_nqueens_time",
]


def scheduler_for_model(model: str):
    """Scheduler discipline matching each programming model."""

    if model == "cilk":
        return SmpssScheduler  # per-core deques + FIFO steal (section VII.D)
    if model == "omp":
        return CentralQueueScheduler
    raise ValueError(f"unknown baseline model {model!r}")


def _noop():  # synthetic task body, never called
    return None


_SYNTH_DEFS: dict[str, TaskDefinition] = {}


def synthetic_definition(name: str) -> TaskDefinition:
    """The one body-less definition named *name*."""

    defn = _SYNTH_DEFS.get(name)
    if defn is None:
        defn = TaskDefinition(func=_noop, params=(), name=name)
        _SYNTH_DEFS[name] = defn
    return defn


@dataclass
class DagTemplate:
    """A reusable DAG description: build() yields a fresh TaskGraph."""

    nodes: list[tuple[str, float]] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)

    def add_node(self, name: str, duration: float) -> int:
        self.nodes.append((name, duration))
        return len(self.nodes) - 1

    def add_edge(self, pred: int, succ: int) -> None:
        self.edges.append((pred, succ))

    @property
    def total_work(self) -> float:
        return sum(duration for _name, duration in self.nodes)

    def critical_path(self) -> float:
        # Topological by construction: parents are created before
        # children in every builder here, so index order suffices.
        incoming: dict[int, list[int]] = {}
        for pred, succ in self.edges:
            incoming.setdefault(succ, []).append(pred)
        finish, _ = longest_path(
            range(len(self.nodes)),
            lambda idx: incoming.get(idx, ()),
            lambda idx: self.nodes[idx][1],
        )
        return max(finish.values(), default=0.0)

    def build(self) -> TaskGraph:
        reset_task_ids()
        graph = TaskGraph(keep_finished=False)
        instances = []
        for name, duration in self.nodes:
            task = TaskInstance(
                definition=synthetic_definition(name),
                accesses=[],
                arguments={"_duration": duration},
            )
            graph.add_task(task)
            instances.append(task)
        for pred, succ in self.edges:
            graph.add_dependency(instances[pred], instances[succ])
        return graph


def _spawn_overhead(model: str) -> float:
    if model == "cilk":
        return cal.CILK_SPAWN_OVERHEAD
    if model == "omp":
        return cal.OMP_TASK_OVERHEAD
    if model == "seq":
        return 0.0  # overhead-free work/span accounting
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# Multisort (Figure 14)
# ---------------------------------------------------------------------------

def _sort_cost(n: int) -> float:
    return cal.SORT_COST_PER_NLOGN * n * max(1.0, math.log2(max(n, 2)))


def _merge_cost(n: int) -> float:
    return cal.MERGE_COST_PER_ELEMENT * n


def build_multisort_dag(
    n: int, quicksize: int, model: str, merge_leaf: int | None = None
) -> DagTemplate:
    """Spawn/sync DAG of the Cilk-style multisort on *n* elements."""

    if merge_leaf is None:
        merge_leaf = quicksize
    overhead = _spawn_overhead(model)
    dag = DagTemplate()

    def merge(total: int, after: list[int]) -> int:
        if total <= merge_leaf:
            leaf = dag.add_node("seqmerge", _merge_cost(total) + overhead)
            for dep in after:
                dag.add_edge(dep, leaf)
            return leaf
        split = dag.add_node("merge_split", overhead + 1e-7 * math.log2(total))
        for dep in after:
            dag.add_edge(dep, split)
        left = merge(total // 2, [split])
        right = merge(total - total // 2, [split])
        sync = dag.add_node("sync", 0.0)
        dag.add_edge(left, sync)
        dag.add_edge(right, sync)
        return sync

    def sort(size: int, after: list[int]) -> int:
        if size <= quicksize:
            leaf = dag.add_node("seqquick", _sort_cost(size) + overhead)
            for dep in after:
                dag.add_edge(dep, leaf)
            return leaf
        entry = dag.add_node("spawn", 4 * overhead)
        for dep in after:
            dag.add_edge(dep, entry)
        quarter = size // 4
        parts = [quarter, quarter, quarter, size - 3 * quarter]
        exits = [sort(p, [entry]) for p in parts]
        # Cilk/OMP are dependency-unaware: "the programmer must place
        # barriers before exiting a task in order to wait for the
        # results of its sibling tasks" — the merges start only after a
        # sync over ALL four sorts, where SMPSs starts each merge as
        # soon as its own two inputs are ready.
        sync = dag.add_node("sync", 0.0)
        for e in exits:
            dag.add_edge(e, sync)
        m1 = merge(parts[0] + parts[1], [sync])
        m2 = merge(parts[2] + parts[3], [sync])
        sync2 = dag.add_node("sync", 0.0)
        dag.add_edge(m1, sync2)
        dag.add_edge(m2, sync2)
        return merge(size, [sync2])

    sort(n, [])
    return dag


# ---------------------------------------------------------------------------
# N Queens (Figures 15 and 16)
# ---------------------------------------------------------------------------

def sequential_nqueens_time(n: int, node_cost: float | None = None) -> float:
    """The artifact-free sequential program's modelled time.

    Includes the calibrated locality penalty relative to SMPSs tasks
    (see :data:`repro.sim.calibration.QUEENS_SEQUENTIAL_PENALTY`).
    """

    if node_cost is None:
        node_cost = cal.QUEENS_COST_PER_NODE
    _solutions, nodes = count_completions_cached(n, 0, ())
    return nodes * node_cost * cal.QUEENS_SEQUENTIAL_PENALTY


def nqueens_prefix_stats(n: int, task_levels: int) -> dict[str, int]:
    """Counts for the decomposed search: leaves, interior spawns, nodes."""

    cutoff = min(task_levels, n)
    stats = {"leaf_tasks": 0, "interior": 0, "total_nodes": 0, "leaf_nodes": 0}

    def explore(j: int, placed: list[int]) -> None:
        if j == cutoff:
            _s, nodes = count_completions_cached(n, j, tuple(placed))
            stats["leaf_tasks"] += 1
            stats["leaf_nodes"] += nodes
            return
        stats["interior"] += 1
        for col in range(n):
            if _legal(placed, col):
                placed.append(col)
                explore(j + 1, placed)
                placed.pop()

    explore(0, [])
    stats["total_nodes"] = stats["interior"] + stats["leaf_nodes"]
    return stats


def queens_node_cost_for_granularity(
    n: int, task_levels: int, granularity: float | None = None
) -> float:
    """Per-node cost such that a mean leaf task hits *granularity*.

    The paper's runtime "requires tasks of a certain granularity
    (e.i. 250 us)" (section I); its N Queens decomposition picks the
    cutoff so leaves land there.  Deriving the virtual node cost from
    that target keeps the overhead-to-work ratio faithful at any board
    size we can afford to search in Python.
    """

    if granularity is None:
        granularity = cal.TARGET_TASK_GRANULARITY
    stats = nqueens_prefix_stats(n, task_levels)
    mean_leaf_nodes = max(1.0, stats["leaf_nodes"] / max(stats["leaf_tasks"], 1))
    return granularity / mean_leaf_nodes


def build_nqueens_dag(
    n: int, task_levels: int, model: str, node_cost: float | None = None
) -> DagTemplate:
    """Spawn tree of the duplicating (Cilk/OMP) N Queens.

    Interior nodes carry the per-spawn array-duplication artifact;
    leaves carry the sequential sub-search, inflated by the per-node
    duplication fraction (the fully recursive Cilk version pays a spawn
    and an array copy at every explored node — section VI.E), which
    preserves total work while keeping the simulated DAG tractable.
    """

    if node_cost is None:
        node_cost = cal.QUEENS_COST_PER_NODE
    cutoff = min(task_levels, n)
    overhead = _spawn_overhead(model)
    dup_fraction = cal.QUEENS_DUP_FRACTION[model]
    dag = DagTemplate()
    root = dag.add_node("spawn_root", overhead)

    def explore(j: int, placed: list[int], parent: int) -> None:
        if j == cutoff:
            _solutions, nodes = count_completions_cached(n, j, tuple(placed))
            duration = nodes * node_cost * (1.0 + dup_fraction)
            leaf = dag.add_node("nqueens_leaf", duration)
            dag.add_edge(parent, leaf)
            return
        for col in range(n):
            if _legal(placed, col):
                spawn = dag.add_node(
                    "spawn_dup",
                    overhead + node_cost * (1.0 + dup_fraction),
                )
                dag.add_edge(parent, spawn)
                placed.append(col)
                explore(j + 1, placed, spawn)
                placed.pop()

    explore(0, [], root)
    return dag
