"""Simulated SMPSs runtime: the paper's execution model in virtual time.

Implements the active-runtime protocol (:mod:`repro.core.frontend`),
so the *unmodified* annotated programs of :mod:`repro.apps` run under
it: the main program executes natively (its control flow is real), but
each task submission costs virtual main-thread time (dependency
analysis + graph insertion), workers consume the graph concurrently in
virtual time, and the main thread helps when it hits the graph-size
window, a barrier or a ``wait_on``/``wait_for`` — advancing the virtual
main clock until what it waits for has finished.  With
``execute_bodies`` a barrier writes renamed results back, as on
threads; without bodies there is nothing to write back.

Because the tracker sees tasks *finish* as virtual time advances,
renaming decisions (rename vs no hazard) happen with the same
timing-dependence the real runtime exhibits.  Memory stays bounded:
the graph retires finished nodes, so simulating a 374,272-task
Cholesky holds only the in-flight window.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import RuntimeConfig
from ..core.frontend import ActiveRuntime
from ..core.invocation import instantiate
from ..core.task import TaskInstance
from .cost import CostModel
from .engine import SimResult, VirtualMachine
from .machine import ALTIX_32, MachineConfig

__all__ = ["SimulatedRuntime", "simulate_program"]


class SimulatedRuntime(ActiveRuntime):
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
        # Every shared knob goes through the same validated path as
        # SmpssRuntime's; the other arguments are the simulator's own.
        super().__init__(config, knobs, runs_bodies=execute_bodies)
        self.machine = machine
        self.cost = cost_model or CostModel(machine)
        if self.config.trace and tracer is None:
            from ..core.tracing import Tracer

            # The threaded backend's tracer, on the virtual clock.
            tracer = Tracer(capacity=self.config.trace_buffer_size)
        self.tracer = tracer
        self._open_domain(tracer)
        self.scheduler = self.config.scheduler_factory(
            machine.cores, tracer=tracer
        )
        self.vm = VirtualMachine(machine, self.graph, self.scheduler, self.cost, tracer)
        self.main_clock = 0.0
        self.tasks_submitted = 0

    def submit(self, definition, args: tuple, kwargs: dict) -> TaskInstance:
        task = instantiate(definition, args, kwargs, self._constants)
        # Let workers catch up to the main thread's clock first, so
        # hazard checks see what has genuinely finished by now.
        self.vm.process_until(self.main_clock)
        self.tracker.analyze(task)
        if self._runs_bodies:
            self._run_inline(task)
        self.main_clock += self.machine.task_add_overhead
        self.tasks_submitted += 1
        if self.tracer:
            self.vm.now = self.main_clock
            self.tracer.task_added(task)
        if task.num_pending_deps == 0:
            self.scheduler.push_new(task)
            self.vm.dispatch_idle(self.main_clock)
        if self.graph.pending_count > self.machine.max_pending_tasks:
            self._main_help(
                lambda: self.graph.pending_count > self.machine.max_pending_tasks
            )
        return task

    def _main_help(self, predicate: Callable[[], bool]) -> None:
        """Advance the virtual main clock while *predicate* holds (the
        section III blocking conditions), running tasks on core 0."""

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

    def shutdown(self) -> None:
        super().shutdown()
        self._publish_metrics()

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

    knobs = {} if scheduler_factory is None else {
        "scheduler_factory": scheduler_factory}
    runtime = SimulatedRuntime(machine, cost_model, execute_bodies,
                               enable_renaming=enable_renaming, **knobs)
    with runtime:
        main(*args, **kwargs)
        runtime.barrier()
    return runtime.result()
