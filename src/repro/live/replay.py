"""Time-travel replay: a saved recording run once on the simulator.

:class:`ReplayEngine` runs a ``repro.recording`` document — a
:meth:`RecordedProgram.save <repro.core.recorder.RecordedProgram.save>`
file, or the static skeleton ``python -m repro flow --format json``
prints, both read by :func:`~repro.core.recorder.load_recording` —
through the section III policy on
:class:`~repro.sim.engine.VirtualMachine`, one virtual unit per task; a
``barrier`` drains the machine, a ``wait`` runs it to the waited task's
end.  Its tracer events go straight to
:meth:`~repro.live.dashboard.DashboardState.apply_event`, where a live
session's decoded ``trace`` records land too.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from ..core.graph import TaskGraph
from ..core.recorder import load_recording
from ..core.scheduler import SmpssScheduler
from ..core.task import TaskInstance, TaskState
from ..core.tracing import EventKind, Tracer
from ..sim.baselines import synthetic_definition
from ..sim.engine import VirtualMachine
from ..sim.machine import MachineConfig
from .dashboard import DashboardState

__all__ = ["ReplayEngine"]


def _simulate(recording: dict, threads: int) -> list:
    """The trace events of one unit-cost run of *recording*."""

    tracer = Tracer(capacity=None)  # unbounded: the replay is every event
    graph = TaskGraph(keep_finished=False, tracer=tracer)
    scheduler = SmpssScheduler(threads, tracer=tracer)
    # One unit per task, overheads included: steals cost nothing more.
    unit_cost = SimpleNamespace(duration=lambda _task, _cache: 1.0)
    vm = VirtualMachine(MachineConfig(cores=threads, steal_overhead=0.0),
                        graph, scheduler, unit_cost, tracer,
                        main_is_worker=True)
    tasks = {tid: TaskInstance(synthetic_definition(name), [], {}, tid, prio)
             for tid, name, prio in recording["tasks"]}
    in_edges: dict[int, list] = {}
    for src, dst, kind in recording["edges"]:
        in_edges.setdefault(dst, []).append((tasks[src], kind))
    for kind, *ids in recording["stream"]:
        if kind == "task":
            task = tasks[ids[0]]
            graph.add_task(task)
            for pred, edge_kind in in_edges.get(task.task_id, ()):
                graph.add_dependency(pred, task, edge_kind)
            tracer.task_added(task)
            if task.num_pending_deps == 0:
                scheduler.push_new(task)
                vm.dispatch_idle(vm.now)
        elif kind == "barrier":
            tracer.barrier_enter()
            vm.drain()
            tracer.barrier_exit()
        else:
            tracer.wait_on_enter()
            while tasks[ids[0]].state is not TaskState.FINISHED and vm.running:
                vm.process_until(vm.next_event_time())
            tracer.wait_on_exit()
    vm.drain()
    if graph.pending_count:
        raise ValueError(f"{graph.pending_count} tasks never become ready")
    return tracer.events


class ReplayEngine:
    """Deterministic stepping over anything :func:`load_recording`
    reads."""

    def __init__(self, recording, num_threads: int = 4,
                 dashboard: Optional[DashboardState] = None):
        self.recording = load_recording(recording)
        self.num_threads = max(1, num_threads)
        self.dashboard = dashboard or DashboardState()
        self._events = _simulate(self.recording, self.num_threads)
        self.end = int(self._events[-1].time) if self._events else 0  # makespan
        self.units = 0
        self.back(0)

    def step(self, n: int = 1) -> int:
        """Advance *n* units; returns how many tasks finished in them."""

        self.units = min(self.units + max(n, 0), self.end)
        finished, events, state = 0, self._events, self.dashboard
        while self._cursor < len(events) \
                and events[self._cursor].time <= self.units:
            event = events[self._cursor]
            state.apply_event(event)
            finished += event.kind == EventKind.TASK_END
            self._cursor += 1
        counts = state.counts()
        done, running = counts["done"], counts["running"]
        state.apply(dict(
            ev="snapshot", paused=True, unit=self.units, running=running,
            ready=counts["ready"], parked=self.num_threads - running,
            pending=len(self.recording["tasks"]) - done, executed=done))
        return finished

    def back(self, n: int = 1) -> int:
        """Rewind *n* units (floor 0), re-applied to a fresh dashboard."""

        target = max(0, self.units - n)
        self.dashboard.__init__()
        self.dashboard.apply({"ev": "hello", "backend": "replay",
                              "threads": self.num_threads, "version": 1})
        self.units = self._cursor = 0
        self.step(target)
        return self.units

    def run(self) -> int:
        """Apply everything; returns how many tasks finished."""

        return self.step(self.end - self.units)
