"""The dynamic task graph (section II).

"Whenever the application calls a task, a node in a task graph is added
for each task instance and a series of edges indicating their
dependencies."  Thanks to renaming the graph contains only *true*
dependencies (read-after-write); anti and output dependencies are
removed by the renaming engine — except where renaming is disabled
(region accesses, the ``rename=False`` ablation), in which case the
corresponding edges are inserted explicitly and the graph remains a
correct (if more constrained) execution order.

The graph is not thread-safe by itself: the owning runtime serialises
mutations (the main thread adds nodes, workers retire them under the
runtime lock).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .task import NO_EDGES, TaskInstance, TaskState

__all__ = ["TaskGraph", "EdgeKind", "GraphStats", "longest_path"]


def longest_path(order, preds, weight) -> tuple[dict, dict]:
    """The forward longest-path pass every critical-path figure uses.

    *order* iterates the nodes of a DAG topologically, ``preds(node)``
    its predecessors (ones missing from *order* — already retired —
    count as finished at 0) and ``weight(node)`` its cost.  Returns
    ``(finish, best_pred)``: the weight of the heaviest path ending at,
    and including, each node, and the predecessor that path comes
    through (``None`` at a root; the first one *preds* yields among
    equals).
    """

    finish: dict = {}
    best_pred: dict = {}
    for node in order:
        start, chosen = 0, None
        for pred in preds(node):
            pred_finish = finish.get(pred, 0)
            if pred_finish > start:
                start, chosen = pred_finish, pred
        finish[node] = start + weight(node)
        best_pred[node] = chosen
    return finish, best_pred


_PREDS = attrgetter("predecessors")
_TASK_ID = attrgetter("task_id")


class EdgeKind:
    """Why an edge exists; useful for analysis and tracing."""

    TRUE = "true"  # read-after-write (flow)
    ANTI = "anti"  # write-after-read (only when renaming is off)
    OUTPUT = "output"  # write-after-write (only when renaming is off)


@dataclass
class GraphStats:
    """Aggregate information about a (possibly still growing) graph."""

    total_tasks: int = 0
    total_edges: int = 0
    edges_by_kind: Counter = field(default_factory=Counter)
    tasks_by_name: Counter = field(default_factory=Counter)
    renames: int = 0


class TaskGraph:
    """Holds task instances and their dependency edges.

    ``keep_finished`` retains retired nodes so the full DAG can be
    exported afterwards (Figure 5); production-sized runs turn it off so
    memory stays proportional to the in-flight window, as the real
    SMPSs runtime does with its graph-size blocking condition.
    """

    def __init__(self, keep_finished: bool = True, tracer=None):
        self.keep_finished = keep_finished
        #: Optional tracer whose :meth:`~repro.core.tracing.Tracer.edge`
        #: is called once per *new* edge — how the live event plane sees
        #: the DAG grow while the main thread is still analysing.
        self.tracer = tracer
        self._tasks: dict[int, TaskInstance] = {}
        #: (pred_id, succ_id) -> kind; only populated when keep_finished
        self._edges: dict[tuple[int, int], str] = {}
        self.stats = GraphStats()
        self._pending = 0  # tasks not yet FINISHED

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: TaskInstance) -> None:
        task_id = task.task_id
        tasks = self._tasks
        if task_id in tasks:
            raise ValueError(f"task id {task_id} added twice")
        tasks[task_id] = task
        self._pending += 1
        stats = self.stats
        stats.total_tasks += 1
        stats.tasks_by_name[task.definition.name] += 1

    def add_dependency(
        self, pred: TaskInstance, succ: TaskInstance, kind: str = EdgeKind.TRUE
    ) -> bool:
        """Add an edge *pred* -> *succ*.

        Returns ``True`` if a new edge was created (duplicate accesses
        to the same datum produce a single edge).  Edges to already
        finished predecessors are ignored — the dependency is satisfied.
        """

        if pred is succ:
            return False
        if pred.state is TaskState.FINISHED:
            return False
        successors = pred.successors
        if succ in successors:
            return False
        if successors is NO_EDGES:
            successors = pred.successors = set()
        successors.add(succ)
        if succ.predecessors is NO_EDGES:
            succ.predecessors = set()
        succ.predecessors.add(pred)
        succ.num_pending_deps += 1
        stats = self.stats
        stats.total_edges += 1
        stats.edges_by_kind[kind] += 1
        if self.keep_finished:
            self._edges[(pred.task_id, succ.task_id)] = kind
        if self.tracer is not None:
            self.tracer.edge(pred, succ, kind)
        return True

    def note_rename(self) -> None:
        self.stats.renames += 1

    # ------------------------------------------------------------------
    # execution-side updates
    # ------------------------------------------------------------------
    def complete(self, task: TaskInstance) -> list[TaskInstance]:
        """Retire *task*; return successors that became ready.

        "Whenever a thread has finished running a task, it updates the
        graph and moves all tasks that have become ready to that thread
        ready list" (section III) — the move itself is the scheduler's
        job; we return the newly ready instances.
        """

        if task.state is TaskState.FINISHED:
            raise ValueError(f"{task!r} completed twice")
        task.state = TaskState.FINISHED
        self._pending -= 1
        newly_ready: list[TaskInstance] = []
        keep = self.keep_finished
        blocked = TaskState.BLOCKED
        for succ in task.successors:
            succ.num_pending_deps -= 1
            if succ.num_pending_deps == 0 and succ.state is blocked:
                newly_ready.append(succ)
            if not keep:
                succ.predecessors.discard(task)
        if not keep:
            task.successors = NO_EDGES
            del self._tasks[task.task_id]
        # Leave the versions it touched: a retired graph is acyclic and
        # dies by reference count (wait_for still reads ``task.writes``).
        for _name, version in task.reads:
            version.unlink_reader()
        for _name, version in task.writes:
            version.producer = None
        # Deterministic order: invocation order, like the runtime's
        # sequential dependency analysis would release them.
        if len(newly_ready) > 1:
            newly_ready.sort(key=lambda t: t.task_id)
        return newly_ready

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Tasks added but not yet finished (the graph-size condition)."""

        return self._pending

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskInstance]:
        return iter(sorted(self._tasks.values(), key=lambda t: t.task_id))

    def get(self, task_id: int) -> Optional[TaskInstance]:
        return self._tasks.get(task_id)

    def edges(self) -> Iterable[tuple[int, int, str]]:
        """All recorded edges as ``(pred_id, succ_id, kind)`` triples."""

        for (pred, succ), kind in self._edges.items():
            yield pred, succ, kind

    def roots(self) -> list[TaskInstance]:
        return [t for t in self if not t.predecessors]

    def critical_path_length(self) -> int:
        """Longest chain of tasks (unit weights); requires keep_finished."""

        finish, _ = longest_path(self, _PREDS, lambda _task: 1)
        return max(finish.values(), default=0)

    def weighted_critical_path(self, weight) -> float:
        """Longest path with per-task weights ``weight(task) -> float``."""

        finish, _ = longest_path(self, _PREDS, weight)
        return max(finish.values(), default=0.0)

    def critical_path_tasks(self, weight=None) -> list[TaskInstance]:
        """The tasks on (one) longest path, in execution order.

        *weight* maps a task to its cost (default: unit weights, so the
        path realises :meth:`critical_path_length`).  Ties are broken by
        lowest predecessor id, making the result deterministic.
        Requires ``keep_finished`` — a retired graph has no nodes left
        to walk.
        """

        if weight is None:
            weight = lambda _task: 1.0  # noqa: E731
        finish, best_pred = longest_path(
            self, lambda t: sorted(t.predecessors, key=_TASK_ID), weight
        )
        tail = max(finish, key=finish.get, default=None)
        path: list[TaskInstance] = []
        while tail is not None:
            path.append(tail)
            tail = best_pred[tail]
        path.reverse()
        return path

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (Figure 5 style)."""

        import networkx as nx

        g = nx.DiGraph()
        for task in self:
            g.add_node(task.task_id, name=task.name, state=task.state.value)
        for pred, succ, kind in self.edges():
            g.add_edge(pred, succ, kind=kind)
        return g

    def to_ascii_levels(self, width: int = 72) -> str:
        """Terminal rendering of the DAG by dependency depth.

        One row per level (all tasks whose longest incoming path has
        that length), Figure 5 style: the width of a row is the
        parallelism available once the level above retires.
        """

        finish, _ = longest_path(self, _PREDS, lambda _task: 1)
        levels: dict[int, list[TaskInstance]] = {}
        for task, depth in finish.items():
            levels.setdefault(depth - 1, []).append(task)
        lines = []
        for level in sorted(levels):
            tasks = levels[level]
            ids = " ".join(str(t.task_id) for t in tasks)
            if len(ids) > width - 12:
                ids = ids[: width - 15] + "..."
            lines.append(f"L{level:>3} ({len(tasks):>3}): {ids}")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """GraphViz dot text with one colour per task type (Figure 5)."""

        from ..obs.export import graph_to_dot

        return graph_to_dot(self, highlight_critical=False)
