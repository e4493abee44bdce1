"""Simulated SMPSs runtime: the paper's execution model in virtual time.

Implements the same active-runtime protocol as the threaded backend, so
the *unmodified* annotated programs of :mod:`repro.apps` run under it:
the main program executes natively (its control flow is real), but each
task submission costs virtual main-thread time (dependency analysis +
graph insertion), workers consume the graph concurrently in virtual
time, and the main thread helps when it hits the graph-size window or a
barrier — the full section III execution model.

Because the tracker sees tasks *finish* as virtual time advances,
renaming decisions (rename vs no hazard) happen with the same
timing-dependence the real runtime exhibits.

Memory stays bounded: the graph retires finished nodes, so simulating a
374,272-task Cholesky holds only the in-flight window.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core import api as _api
from ..core.config import RuntimeConfig, resolve_config
from ..core.dependencies import DependencyTracker, TrackerConfig
from ..core.graph import TaskGraph
from ..core.invocation import instantiate
from ..core.task import TaskInstance, TaskState, reset_task_ids
from .cost import CostModel
from .engine import SimResult, VirtualMachine
from .machine import ALTIX_32, MachineConfig

__all__ = ["SimulatedRuntime", "simulate_program"]


class SimulatedRuntime:
    """Active-runtime protocol over the discrete-event engine."""

    def __init__(
        self,
        machine: MachineConfig = ALTIX_32,
        cost_model: Optional[CostModel] = None,
        execute_bodies: bool = False,
        tracer=None,
        config: Optional[RuntimeConfig] = None,
        **knobs,
    ):
        # *machine*, *cost_model*, *execute_bodies* and *tracer* are the
        # simulator-specific arguments; every shared knob (scheduler
        # factory, renaming switches, trace, constants, ...) goes
        # through the same validated path as SmpssRuntime.
        self.config = resolve_config(config, knobs, runtime="SimulatedRuntime")
        self.machine = machine
        self.cost = cost_model or CostModel(machine)
        reset_task_ids()
        if self.config.trace and tracer is None:
            from ..core.tracing import Tracer

            # Same tracer as the threaded backend; the virtual clock is
            # injected unchanged below (emission is single-threaded
            # here, so one ring, stable order).
            tracer = Tracer(capacity=self.config.trace_buffer_size)
        self.tracer = tracer
        self.graph = TaskGraph(keep_finished=self.config.keep_graph,
                               tracer=tracer)
        self.tracker = DependencyTracker(
            self.graph,
            config=TrackerConfig(
                enable_renaming=self.config.enable_renaming,
                rename_inout=self.config.rename_inout,
            ),
        )
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.scheduler = self.config.scheduler_factory(
            machine.cores, tracer=tracer
        )
        self.vm = VirtualMachine(machine, self.graph, self.scheduler, self.cost, tracer)
        if tracer is not None:
            self.vm.wire_tracer(tracer)
        self.execute_bodies = execute_bodies
        self.constants = self.config.constants
        self.main_clock = 0.0
        self.tasks_submitted = 0
        self._entered = False
        self._in_task = False

    def in_task_body(self) -> bool:
        return self._in_task

    # ------------------------------------------------------------------
    # active-runtime protocol
    # ------------------------------------------------------------------
    def submit(self, definition, args: tuple, kwargs: dict) -> TaskInstance:
        task = instantiate(definition, args, kwargs, self.constants)
        # Let workers catch up to the main thread's clock first, so
        # hazard checks see what has genuinely finished by now.
        self.vm.process_until(self.main_clock)
        self.tracker.analyze(task)
        if self.execute_bodies:
            # Data-dependent control flow (e.g. LU pivoting) needs real
            # values; program order makes immediate execution valid.
            from ..core.invocation import resolve_call_values

            values = resolve_call_values(task)
            self._in_task = True
            try:
                task.definition.func(*values)
            finally:
                self._in_task = False
        self.main_clock += self.machine.task_add_overhead
        self.tasks_submitted += 1
        if self.tracer:
            self.vm.now = self.main_clock
            self.tracer.task_added(task)
        if task.num_pending_deps == 0:
            self.scheduler.push_new(task)
            self.vm.dispatch_idle(self.main_clock)
        if self.graph.pending_count > self.machine.max_pending_tasks:
            self._help_while(
                lambda: self.graph.pending_count > self.machine.max_pending_tasks
            )
        return task

    def barrier(self) -> None:
        self._help_while(lambda: self.graph.pending_count > 0)
        self.main_clock = max(self.main_clock, self.vm.last_finish)
        self.tracker.reset()

    wait_all = barrier

    def wait_for(self, task: TaskInstance) -> None:
        self._help_while(lambda: task.state is not TaskState.FINISHED)

    def acquire(self, obj):
        version = self.tracker.current_version(obj)
        if version is None or version.producer is None:
            return obj
        if version.producer.state is not TaskState.FINISHED:
            self.wait_for(version.producer)
        return version.resolve_storage() if self.execute_bodies else obj

    # ------------------------------------------------------------------
    # main-thread helping (the section III blocking conditions)
    # ------------------------------------------------------------------
    def _help_while(self, predicate: Callable[[], bool]) -> None:
        while predicate():
            self.vm.process_until(self.main_clock)
            if not predicate():
                return
            task, stolen = self.vm.pop_for(0)
            if task is not None:
                finish = self.vm.start_task(0, task, self.main_clock, stolen)
                self.vm.process_until(finish)
                self.main_clock = finish
                continue
            next_event = self.vm.next_event_time()
            if next_event is None:
                if self.graph.pending_count > 0:
                    raise RuntimeError(
                        "simulation stalled: pending tasks but no events"
                    )
                return
            self.main_clock = max(self.main_clock, next_event)
            self.vm.process_until(self.main_clock)

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def __enter__(self) -> "SimulatedRuntime":
        _api.push_runtime(self)
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._entered:
            self._entered = False
            # Defensive pop: never leaves a stale stack entry (or a
            # stale owner) behind, even after a mid-``with`` exception.
            _api.discard_runtime(self)
            from ..obs.metrics import default_metrics

            self._sync_metrics()
            default_metrics().absorb(self.metrics)

    def _sync_metrics(self) -> None:
        """Mirror simulator aggregates into the metrics registry."""

        m = self.metrics
        m.gauge("sim.makespan_virtual_seconds").set(
            max(self.main_clock, self.vm.last_finish)
        )
        m.gauge("sim.tasks_submitted").set(self.tasks_submitted)
        m.gauge("tasks_executed").set(self.vm.tasks_executed)
        m.gauge("graph.renames").set(self.graph.stats.renames)
        for core, busy in enumerate(self.vm.busy_time):
            m.gauge("sim.busy_virtual_seconds", thread=core).set(busy)
        for core, steal in enumerate(self.vm.steal_time):
            if steal:
                m.gauge("sim.steal_virtual_seconds", thread=core).set(steal)
        m.ingest_scheduler_stats(self.scheduler.stats)

    @property
    def num_threads(self) -> int:
        return self.machine.cores

    def report(self, title: str = "simulated runtime report") -> str:
        """Text summary over the virtual-time trace (needs
        ``trace=True``); mirrors ``SmpssRuntime.report()``."""

        from ..obs.analyze import runtime_report

        self._sync_metrics()
        return runtime_report(self, title=title)

    def result(self) -> SimResult:
        res = self.vm.result(self.main_clock)
        res.extras["tasks_submitted"] = self.tasks_submitted
        res.extras["renames"] = self.graph.stats.renames
        self._sync_metrics()
        return res


def simulate_program(
    main: Callable,
    *args,
    machine: MachineConfig = ALTIX_32,
    cost_model: Optional[CostModel] = None,
    scheduler_factory: Optional[Callable] = None,
    enable_renaming: bool = True,
    execute_bodies: bool = False,
    **kwargs,
) -> SimResult:
    """Simulate ``main(*args, **kwargs)`` and return the result.

    A trailing barrier is implied (every program of the paper ends in
    one before its timing is read).
    """

    knobs = {"enable_renaming": enable_renaming}
    if scheduler_factory is not None:
        knobs["scheduler_factory"] = scheduler_factory
    runtime = SimulatedRuntime(
        machine=machine,
        cost_model=cost_model,
        execute_bodies=execute_bodies,
        **knobs,
    )
    with runtime:
        main(*args, **kwargs)
        runtime.barrier()
    return runtime.result()
