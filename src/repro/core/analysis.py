"""Post-mortem analysis of traces and graphs (the Paraver role).

Section VII.A: the tracing-enabled runtime "records events related to
task creation and execution for post-mortem analysis with the Paraver
tool".  This module provides the analyses a Paraver user would run on
an SMPSs trace: parallelism profiles, per-task-type summaries,
work/span bounds, and load-balance metrics — over either a
:class:`~repro.core.tracing.Tracer` (threaded or virtual time) or a
recorded :class:`~repro.core.graph.TaskGraph`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from .graph import TaskGraph
from .tracing import Tracer, task_intervals

__all__ = [
    "TaskTypeSummary",
    "task_type_summary",
    "parallelism_profile",
    "average_parallelism",
    "load_balance",
    "work_and_span",
    "greedy_bounds",
]


@dataclass
class TaskTypeSummary:
    """Aggregate execution statistics for one task type."""

    name: str
    count: int
    total_time: float
    min_time: float
    max_time: float

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0


def task_type_summary(tracer) -> dict[str, TaskTypeSummary]:
    """Per-task-type counts and execution-time statistics of a
    :class:`Tracer` (or of a plain event list)."""

    buckets: dict[str, list[float]] = defaultdict(list)
    for _id, name, start, end, _thread in task_intervals(
            getattr(tracer, "events", tracer)):
        buckets[name].append(end - start)
    return {
        name: TaskTypeSummary(
            name=name,
            count=len(times),
            total_time=sum(times),
            min_time=min(times),
            max_time=max(times),
        )
        for name, times in buckets.items()
    }


def parallelism_profile(
    tracer: Tracer, samples: int = 50
) -> list[tuple[float, int]]:
    """Number of concurrently running tasks at evenly spaced times.

    The time-sliced "parallelism view" a Paraver user inspects first.
    """

    intervals = list(tracer.task_intervals().values())
    if not intervals or samples < 1:
        return []
    t0 = min(start for start, *_ in intervals)
    t1 = max(end for _s, end, *_ in intervals)
    if t1 <= t0:
        return [(t0, len(intervals))]
    step = (t1 - t0) / samples
    # Sweep-line: +1 at each start, -1 at each end.
    events: list[tuple[float, int]] = []
    for start, end, _thread, _name in intervals:
        events.append((start, +1))
        events.append((end, -1))
    events.sort()
    profile = []
    running = 0
    event_idx = 0
    for i in range(samples + 1):
        t = t0 + i * step
        while event_idx < len(events) and events[event_idx][0] <= t:
            running += events[event_idx][1]
            event_idx += 1
        profile.append((t, running))
    return profile


def average_parallelism(tracer: Tracer) -> float:
    """Busy time divided by elapsed time: mean concurrency achieved."""

    intervals = list(tracer.task_intervals().values())
    if not intervals:
        return 0.0
    busy = sum(end - start for start, end, *_ in intervals)
    t0 = min(start for start, *_ in intervals)
    t1 = max(end for _s, end, *_ in intervals)
    span = t1 - t0
    return busy / span if span > 0 else float(len(intervals))


def load_balance(tracer: Tracer) -> float:
    """Mean busy time across threads divided by the max (1.0 = perfect)."""

    busy = tracer.busy_time_by_thread()
    if not busy:
        return 1.0
    values = list(busy.values())
    peak = max(values)
    return (sum(values) / len(values)) / peak if peak > 0 else 1.0


def work_and_span(
    graph: TaskGraph, weight: Callable[[object], float]
) -> tuple[float, float, float]:
    """(total work, critical-path span, inherent avg parallelism).

    The Brent/work-span quantities of the recorded DAG under the given
    per-task *weight* function (e.g. a cost model's duration).  Requires
    a graph recorded with ``keep_finished=True``.
    """

    work = sum(weight(task) for task in graph)
    span = graph.weighted_critical_path(weight)
    return work, span, (work / span if span > 0 else 0.0)


def greedy_bounds(
    work: float, span: float, cores: int
) -> tuple[float, float]:
    """Classic greedy-scheduler makespan bounds (lower, upper).

    Any greedy schedule (the section III policy is one) satisfies
    ``max(work/P, span) <= makespan <= work/P + span`` — useful to
    sanity-check simulated makespans.
    """

    if cores < 1:
        raise ValueError("need at least one core")
    lower = max(work / cores, span)
    upper = work / cores + span
    return lower, upper
