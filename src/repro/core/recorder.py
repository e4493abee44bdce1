"""Recording runtime: build graphs + submission streams without threads.

A recording keeps the full graph of an annotated program (Figure 5's
6x6 Cholesky DAG is one) and its submission stream, which ``python -m
repro live replay`` steps through once saved.  ``check.flow``'s static
skeleton is a :class:`RecordedProgram` too, so both write one
``repro.recording`` document and :func:`load_recording` is the one
reader behind ``obs diff`` and ``live replay``.

Dependency analysis assumes the worst-case (and, for a fast main
thread, typical) race: no task completes on its own, so every hazard
is live — all true edges are recorded and every WAR/WAW is renamed,
exactly the graph the real runtime converges to when the submission
front runs ahead of execution.  Only the main thread's blocking
finishes tasks: ``wait_on``/``wait_for`` record one ``("wait", task)``
event and finish the waited producers and everything they depend on,
as the real runtime (and ``check.flow``) has by then.

``execute="eager"`` additionally runs every task body immediately at
submission (sequential execution with full dependency bookkeeping) so
programs whose control flow reads task results (e.g. LU pivoting)
record correctly — and so recording doubles as a correctness oracle.
``execute="skip"`` records topology only, allowing hundred-thousand-task
graphs (the paper's 374,272-task Cholesky) to be built in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Literal, Optional

from .config import RuntimeConfig
from .frontend import ActiveRuntime
from .graph import TaskGraph
from .invocation import instantiate
from .task import TaskInstance, TaskState

__all__ = [
    "RecordedProgram",
    "RecordingRuntime",
    "record_program",
    "load_recording",
]


@dataclass
class RecordedProgram:
    """One program's task graph and submission stream: recorded, or
    extracted statically by ``check.flow``."""

    graph: TaskGraph
    #: Submission stream: ("task", TaskInstance) | ("barrier",) |
    #: ("wait", TaskInstance)
    events: list[tuple] = field(default_factory=list)
    #: Analysis-side aggregates (per-task analysis time, renames);
    #: populated by :meth:`RecordingRuntime.finish`.
    metrics: object = None
    #: Set by ``check.flow`` when its interpreter hit a budget (a loop
    #: folded, or too many tasks or steps): the graph is approximate.
    truncated: bool = False

    @property
    def tasks(self) -> list[TaskInstance]:
        return [e[1] for e in self.events if e[0] == "task"]

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def critical_path(self, weight=None) -> list[TaskInstance]:
        """Tasks on the longest path (unit weights by default)."""

        return self.graph.critical_path_tasks(weight)

    def to_dot(self, weight=None, highlight_critical: bool = True) -> str:
        """Graphviz text with the critical path highlighted — the
        TEMANEJO-style debugging view of the recorded DAG."""

        from ..obs.export import graph_to_dot

        return graph_to_dot(
            self.graph, weight=weight, highlight_critical=highlight_critical
        )

    # -- persistence (time-travel replay input) -------------------------
    def to_json_dict(self) -> dict:
        """Topology + submission stream as plain data: the one
        ``repro.recording`` document, written for a recording and for
        ``check.flow``'s static skeleton alike.

        Task bodies and argument values are *not* serialised — a saved
        recording replays scheduling (``python -m repro live replay``),
        it does not re-execute computation.
        """

        tasks = [
            [task.task_id, task.name, int(task.high_priority)]
            for task in self.graph
        ]
        stream = [[kind, *(t.task_id for t in rest)]
                  for kind, *rest in self.events]
        return {
            "format": "repro.recording",
            "version": 1,
            "tasks": tasks,
            "edges": [list(edge) for edge in self.graph.edges()],
            "stream": stream,
            "renames": self.graph.stats.renames,
            "truncated": self.truncated,
        }

    def save(self, path: str) -> None:
        """Write :meth:`to_json_dict` as JSON to *path*."""

        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)


def load_recording(source) -> dict:
    """The one reader of task-graph documents: a path, a parsed dict,
    a :class:`RecordedProgram`, or ``python -m repro flow --format
    json``'s ``{"findings", "graph"}`` wrapper becomes the validated
    :meth:`RecordedProgram.to_json_dict` document (older documents
    without ``renames``/``truncated`` get ``0``/``False``)."""

    import json

    if isinstance(source, RecordedProgram):
        return source.to_json_dict()
    if not isinstance(source, dict):
        with open(source, "r", encoding="utf-8") as handle:
            source = json.load(handle)
    doc = source.get("graph", source) if isinstance(source, dict) else None
    if not isinstance(doc, dict) or doc.get("format") != "repro.recording":
        raise ValueError(
            "not a repro recording (missing format tag); save one with "
            "RecordedProgram.save(path)"
        )
    return {"renames": 0, "truncated": False, **doc}


class RecordingRuntime(ActiveRuntime):
    """Implements the active-runtime protocol; see module docstring."""

    def __init__(
        self,
        execute: Literal["eager", "skip"] = "eager",
        config: Optional[RuntimeConfig] = None,
        **knobs,
    ):
        super().__init__(config, knobs, runs_bodies=execute == "eager")
        # Recording exists to save the DAG afterwards, and no task
        # finishes on its own, so the graph is always kept.
        self._open_domain(keep_graph=True)
        self.events: list[tuple] = []
        self._m_analysis = self.metrics.histogram("analysis_seconds")

    def submit(self, definition, args: tuple, kwargs: dict) -> TaskInstance:
        task = instantiate(definition, args, kwargs, self._constants)
        t0 = perf_counter()
        self.tracker.analyze(task)
        self._m_analysis.observe(perf_counter() - t0)
        self.events.append(("task", task))
        if self._runs_bodies:
            # Graph state is deliberately NOT retired: the recorded DAG
            # keeps the worst-case hazard picture described in the
            # module docstring, and stays replayable.
            self._run_inline(task)
        return task

    def _block(self, waited) -> None:
        """The replayer must block the main thread here: record it.  A
        wait finishes the waited producers and everything they depend
        on, as the real runtime has by then (and ``check.flow``)."""

        if waited is None:
            self.events.append(("barrier",))
            return
        self.events.append(("wait", max(waited, key=lambda t: t.task_id)))
        stack = list(waited)
        while stack:
            task = stack.pop()
            if task.state is not TaskState.FINISHED:
                stack.extend(task.predecessors)  # any order: all finish
                self.graph.complete(task)

    def finish(self) -> RecordedProgram:
        """Close the recording and return the program description."""

        stats = self.graph.stats
        for name in ("total_tasks", "total_edges", "renames"):
            self.metrics.gauge(f"graph.{name}").set(getattr(stats, name))
        return RecordedProgram(
            graph=self.graph, events=list(self.events), metrics=self.metrics
        )


def record_program(
    main, *args, execute: Literal["eager", "skip"] = "eager", **kwargs
) -> RecordedProgram:
    """Record ``main(*args, **kwargs)`` under a recording runtime."""

    recorder = RecordingRuntime(execute=execute)
    with recorder:
        main(*args, **kwargs)
    return recorder.finish()
