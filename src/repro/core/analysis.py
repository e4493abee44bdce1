"""Post-mortem analysis of traces and graphs (the Paraver role).

Section VII.A: the tracing-enabled runtime "records events related to
task creation and execution for post-mortem analysis with the Paraver
tool".  This module holds the parallelism profile of a trace's event
list and the greedy-scheduler bounds on work and span.  Busy time,
makespan, work, span, the critical path, average parallelism, load
balance and per-type statistics come from
:func:`repro.obs.analyze.analyze_events`.
"""

from __future__ import annotations

from typing import Iterable

from .tracing import TraceEvent, task_intervals

__all__ = ["parallelism_profile", "greedy_bounds"]


def parallelism_profile(
    events: Iterable[TraceEvent], samples: int = 50
) -> list[tuple[float, int]]:
    """Number of concurrently running tasks at evenly spaced times.

    The time-sliced "parallelism view" a Paraver user inspects first.
    """

    intervals = [(start, end) for _id, _name, start, end, _thread
                 in task_intervals(events)]
    if not intervals or samples < 1:
        return []
    t0 = min(start for start, _end in intervals)
    t1 = max(end for _start, end in intervals)
    if t1 <= t0:
        return [(t0, len(intervals))]
    step = (t1 - t0) / samples
    # Sweep-line: +1 at each start, -1 at each end.
    sweep: list[tuple[float, int]] = []
    for start, end in intervals:
        sweep.append((start, +1))
        sweep.append((end, -1))
    sweep.sort()
    profile = []
    running = 0
    index = 0
    for i in range(samples + 1):
        t = t0 + i * step
        while index < len(sweep) and sweep[index][0] <= t:
            running += sweep[index][1]
            index += 1
        profile.append((t, running))
    return profile


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
