"""Trace and graph exporters: Chrome trace-event JSON and Graphviz DOT.

The paper's tracing-enabled runtime emits Paraver ``.prv`` traces
(section VII.A); :meth:`repro.core.tracing.Tracer.to_paraver` keeps
that dialect.  This module adds the two formats today's tooling reads:

* **Chrome trace-event JSON** — loadable in Perfetto (ui.perfetto.dev)
  or ``chrome://tracing``.  Task executions become paired ``B``/``E``
  duration events on the executing thread's track; steals, renames,
  barriers and write-backs become instant events; ready-queue depth is
  derivable from the ready/start pairs.
* **Graphviz DOT** — the recorded :class:`~repro.core.graph.TaskGraph`
  with one colour per task type (Figure 5 style) and the critical path
  highlighted, the TEMANEJO-style task-graph debugging surface.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Optional

from ..core.graph import EdgeKind, TaskGraph
from ..core.tracing import EventKind, TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "graph_to_dot",
    "write_dot",
]

def to_chrome_trace(events: Iterable[TraceEvent], *, pid: int = 1) -> dict:
    """Convert an event list to a Chrome trace-event document.

    Timestamps are microseconds (the format's unit); the trace is
    shifted so the first event sits at ``ts == 0``, which keeps virtual
    simulator clocks and wall-clock ``perf_counter`` origins equally
    readable.  Task executions are ``B``/``E`` pairs; everything else is
    an instant (``ph == "i"``) with thread scope, named by its
    :class:`~repro.core.tracing.EventKind` value and carrying the
    event's task name and ``extra`` (as JSON, unknown types as ``str``)
    so :func:`repro.obs.analyze.load_chrome_trace` gets every event back.
    """

    # Timestamp order, not list order: Chrome's B/E matching requires
    # per-tid time order — unsorted (a list assembled from worker rings
    # after the fact), a task's E could precede its B and the slice
    # vanishes.
    events = sorted(events, key=lambda e: e.time)
    t0 = min((e.time for e in events), default=0.0)
    records = []
    for event in events:
        ts = (event.time - t0) * 1e6
        tid = max(event.thread, 0)
        if event.kind == EventKind.TASK_START:
            records.append({
                "name": event.task_name or f"task {event.task_id}",
                "cat": "task",
                "ph": "B",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": {"task_id": event.task_id},
            })
        elif event.kind == EventKind.TASK_END:
            records.append({
                "name": event.task_name or f"task {event.task_id}",
                "cat": "task",
                "ph": "E",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": {"task_id": event.task_id},
            })
        else:
            # The raw thread (-1 means "no unlocking thread") so the
            # locality analysis round-trips through the JSON.
            args = {"task_id": event.task_id, "thread": event.thread,
                    "task_name": event.task_name}
            if event.extra:
                args["extra"] = json.loads(json.dumps(event.extra, default=str))
            records.append({
                "name": event.kind,
                "cat": "runtime",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": "repro-smpss"},
        }
    ]
    for tid in sorted({r["tid"] for r in records}):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
        })
    return {
        "traceEvents": metadata + records,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "events": len(records)},
    }


def write_chrome_trace(tracer, path: str, *, pid: int = 1) -> str:
    """Write *tracer*'s events as Perfetto-loadable JSON to *path*;
    returns *path*."""

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome_trace(tracer.events, pid=pid), handle)
    return path


# ---------------------------------------------------------------------------
# DOT export with critical path
# ---------------------------------------------------------------------------

_PALETTE = [
    "lightblue", "lightgreen", "salmon", "gold", "plum",
    "lightgrey", "orange", "cyan",
]


def graph_to_dot(
    graph: TaskGraph,
    weight: Optional[Callable] = None,
    highlight_critical: bool = True,
) -> str:
    """Graphviz text of *graph*, critical path drawn bold red.

    Nodes read "id, task-type name" (Figure 5's view), high-priority
    tasks get a double border.  *weight* feeds
    :meth:`TaskGraph.critical_path_tasks` (default unit weights — the
    T∞ chain in task counts).
    """

    critical_ids: set[int] = set()
    critical_edges: set[tuple[int, int]] = set()
    if highlight_critical:
        path = graph.critical_path_tasks(weight)
        critical_ids = {t.task_id for t in path}
        critical_edges = {
            (a.task_id, b.task_id) for a, b in zip(path, path[1:])
        }
    colours: dict[str, str] = {}
    lines = ["digraph tasks {", "  node [style=filled];"]
    for task in graph:
        colour = colours.setdefault(
            task.name, _PALETTE[len(colours) % len(_PALETTE)]
        )
        attrs = f'label="{task.task_id}\\n{task.name}", fillcolor={colour}'
        if task.high_priority:
            attrs += ", peripheries=2"
        if task.task_id in critical_ids:
            attrs += ", color=red, penwidth=3"
        lines.append(f"  t{task.task_id} [{attrs}];")
    for pred, succ, kind in sorted(graph.edges()):
        attrs = []
        if kind != EdgeKind.TRUE:
            attrs.append("style=dashed")
        if (pred, succ) in critical_edges:
            attrs.append("color=red")
            attrs.append("penwidth=3")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  t{pred} -> t{succ}{suffix};")
    lines.append("}")
    return "\n".join(lines)


def write_dot(graph: TaskGraph, path: str, **kwargs) -> str:
    """Write :func:`graph_to_dot` output to *path*; returns *path*."""

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(graph_to_dot(graph, **kwargs))
        handle.write("\n")
    return path
