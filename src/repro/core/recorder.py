"""Recording runtime: build graphs + submission traces without threads.

Two uses:

* **Graph inspection** — reproduce Figure 5 (the 6x6 Cholesky DAG) by
  recording the task stream of the annotated program and keeping the
  full graph.
* **Simulation input** — the discrete-event simulator replays the
  recorded submission sequence, charging the main thread the per-task
  analysis overhead and releasing nodes into the live scheduler at the
  right virtual time (this is what produces the small-block runtime-
  overhead wall in Figure 8).

Dependency analysis here assumes the worst-case (and, for a fast main
thread, typical) race: no task has completed when a later task is
analysed, so every hazard is live — all true edges are recorded and
every WAR/WAW is renamed, exactly the graph the real runtime converges
to when the submission front runs ahead of execution.

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

from . import api as _api
from .config import RuntimeConfig, resolve_config
from .dependencies import DependencyTracker, TrackerConfig
from .graph import TaskGraph
from .invocation import instantiate, resolve_call_values
from .task import TaskInstance, reset_task_ids
from .tracing import NullTracer

__all__ = [
    "RecordedProgram",
    "RecordingRuntime",
    "record_program",
    "LoadedRecording",
    "load_recording",
]


@dataclass
class RecordedProgram:
    """The outcome of recording one annotated program."""

    graph: TaskGraph
    #: Submission stream: ("task", TaskInstance) | ("barrier",) |
    #: ("wait", TaskInstance)
    events: list[tuple] = field(default_factory=list)
    #: Analysis-side aggregates (per-task analysis time, renames);
    #: populated by :meth:`RecordingRuntime.finish`.
    metrics: object = None

    @property
    def tasks(self) -> list[TaskInstance]:
        return [e[1] for e in self.events if e[0] == "task"]

    @property
    def task_count(self) -> int:
        return sum(1 for e in self.events if e[0] == "task")

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
        """Topology + submission stream as plain data.

        Task bodies and argument values are *not* serialised — a saved
        recording replays scheduling (``python -m repro live replay``),
        it does not re-execute computation.  Requires ``keep_graph``
        (the default for recordings): a retired graph has no edges left
        to save.
        """

        tasks = [
            [task.task_id, task.name, int(task.high_priority)]
            for task in self.graph
        ]
        stream: list[list] = []
        for event in self.events:
            if event[0] == "barrier":
                stream.append(["barrier"])
            else:  # ("task", t) | ("wait", t)
                stream.append([event[0], event[1].task_id])
        return {
            "format": "repro.recording",
            "version": 1,
            "tasks": tasks,
            "edges": [list(edge) for edge in self.graph.edges()],
            "stream": stream,
        }

    def save(self, path: str) -> None:
        """Write :meth:`to_json_dict` as JSON to *path*."""

        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle)


@dataclass
class LoadedRecording:
    """A recording read back from disk (topology only; see
    :meth:`RecordedProgram.to_json_dict`)."""

    #: ``[task_id, name, high_priority]`` in submission order.
    tasks: list
    #: ``[pred_id, succ_id, kind]`` triples.
    edges: list
    #: ``["task", id] | ["barrier"] | ["wait", id]`` in program order.
    stream: list

    @property
    def task_count(self) -> int:
        return len(self.tasks)


def load_recording(source) -> LoadedRecording:
    """Load a saved recording from a path, a parsed dict, or a
    :class:`RecordedProgram` (uniform input for the replayer)."""

    import json

    if isinstance(source, RecordedProgram):
        doc = source.to_json_dict()
    elif isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    if doc.get("format") != "repro.recording":
        raise ValueError(
            "not a repro recording (missing format tag); save one with "
            "RecordedProgram.save(path)"
        )
    return LoadedRecording(
        tasks=[list(t) for t in doc["tasks"]],
        edges=[list(e) for e in doc["edges"]],
        stream=[list(e) for e in doc["stream"]],
    )


class RecordingRuntime:
    """Implements the active-runtime protocol; see module docstring."""

    def __init__(
        self,
        execute: Literal["eager", "skip"] = "eager",
        config: Optional[RuntimeConfig] = None,
        **knobs,
    ):
        # *execute* is the one backend-specific argument; every shared
        # knob goes through the same validated path as SmpssRuntime.
        # Recording exists to inspect the DAG afterwards, so the
        # backend default for keep_graph flips to True.
        if config is None:
            knobs.setdefault("keep_graph", True)
        self.config = resolve_config(config, knobs, runtime="RecordingRuntime")
        self.execute = execute
        reset_task_ids()
        self.graph = TaskGraph(keep_finished=self.config.keep_graph)
        self.tracker = DependencyTracker(
            self.graph,
            config=TrackerConfig(
                enable_renaming=self.config.enable_renaming,
                rename_inout=self.config.rename_inout,
            ),
            tracer=NullTracer(),
        )
        self.constants = self.config.constants
        self.events: list[tuple] = []
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self._m_analysis = self.metrics.histogram("analysis_seconds")
        self._entered = False
        self._in_task = False

    def in_task_body(self) -> bool:
        return self._in_task

    # -- active-runtime protocol ------------------------------------------
    def submit(self, definition, args: tuple, kwargs: dict) -> TaskInstance:
        task = instantiate(definition, args, kwargs, self.constants)
        t0 = perf_counter()
        self.tracker.analyze(task)
        self._m_analysis.observe(perf_counter() - t0)
        self.events.append(("task", task))
        if self.execute == "eager":
            # Run the body now: every predecessor already ran its body
            # (program order), so the data is valid.  Graph state is
            # deliberately NOT retired — the recorded DAG keeps the
            # worst-case hazard picture described in the module
            # docstring, and stays replayable.
            values = resolve_call_values(task)
            self._in_task = True
            try:
                task.definition.func(*values)
            finally:
                self._in_task = False
        return task

    def barrier(self) -> None:
        self.events.append(("barrier",))
        if self.execute == "eager":
            self.tracker.write_back_all()
            self.tracker.reset()

    wait_all = barrier

    def wait_for(self, task: TaskInstance) -> None:
        self.events.append(("wait", task))

    def acquire(self, obj):
        """Latest storage of *obj* (eager mode already produced it)."""

        version = self.tracker.current_version(obj)
        if self.execute != "eager" or version is None:
            return obj
        if version.producer is not None:
            # The replayer must block the main thread here.
            self.events.append(("wait", version.producer))
        return version.resolve_storage()

    # -- recording session --------------------------------------------------
    def __enter__(self) -> "RecordingRuntime":
        _api.push_runtime(self)
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._entered:
            self._entered = False
            # Defensive pop: never leaves a stale stack entry (or a
            # stale owner) behind, even after a mid-``with`` exception.
            _api.discard_runtime(self)

    def finish(self) -> RecordedProgram:
        """Close the recording and return the program description."""

        self.metrics.gauge("graph.total_tasks").set(
            self.graph.stats.total_tasks
        )
        self.metrics.gauge("graph.total_edges").set(
            self.graph.stats.total_edges
        )
        self.metrics.gauge("graph.renames").set(self.graph.stats.renames)
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
