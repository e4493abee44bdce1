"""The threaded SMPSs runtime (sections II and III).

"The main code runs on the main thread and the runtime creates as many
worker threads as necessary to fill out the rest of the cores.  The
main thread analyzes task dependencies as it reaches them and adds them
to the task graph. [...] The main thread also contributes to run tasks.
Whenever it reaches a blocking condition (a barrier, a memory limit, or
a graph size limit), it behaves as a worker thread until an unblocking
condition is reached."

This backend executes real Python task bodies on real
:class:`threading.Thread` workers under the exact section III policy.
Numerical kernels (numpy) release the GIL, so the backend is also a
practical parallel runtime for array-heavy tasks; the performance
*figures* of the paper are regenerated by the cost-model simulator in
:mod:`repro.sim`, which drives the same scheduler code over virtual
cores.

*Where* a ready task's body runs is an
:class:`~repro.core.backend.ExecutionBackend`'s business, chosen by the
``backend`` knob through :func:`~repro.core.backend.make_backend`; this
module knows no backend by name.  Under a *remote* backend the worker
threads become *proxy threads*: each forwards its task's body to a
worker elsewhere (a forked process, a node agent) and blocks, GIL
released, for the reply; the rest of the runtime is unchanged.

The execute/complete path — pop, run, complete in the task's domain,
release successors, targeted wake-ups — lives in
:mod:`repro.core.execution`, and barrier, ``wait_on`` and ``wait_for``
in :mod:`repro.core.frontend`, shared with the recorder and the
simulator.  This class drives one worker loop and adds submission and
the main thread's helping.
"""

from __future__ import annotations

import os
from contextlib import suppress
from time import perf_counter
from typing import Callable, Optional

from . import api as _api
from .backend import make_backend
from .config import RuntimeConfig
from .execution import TaskExecutionError, WorkerLoop
from .frontend import ActiveRuntime
from .invocation import plan_for
from .scheduler import SmpssScheduler  # noqa: F401  (re-export convenience)
from .task import TaskInstance
from .tracing import Tracer

__all__ = ["SmpssRuntime", "TaskExecutionError"]


def _loop_tap(name: str) -> property:
    """One of the worker loop's counters or flags, readable on the
    runtime where the health and live observers look for it."""

    return property(lambda self: getattr(self._loop, name))


class SmpssRuntime(ActiveRuntime):
    """The master: task graph, scheduler, worker threads; also the
    user-facing entry point.

    Usage::

        rt = SmpssRuntime(num_workers=3)
        with rt:
            for ...:
                some_css_task(...)      # submitted, runs asynchronously
            rt.barrier()                # sequential semantics restored

    Construction takes keyword knobs, an explicit
    :class:`~repro.core.config.RuntimeConfig`, or both (see that module).
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        config: Optional[RuntimeConfig] = None,
        **overrides,
    ):
        if num_workers is not None:
            if "num_workers" in overrides:
                raise TypeError(
                    "SmpssRuntime: conflicting runtime option 'num_workers': "
                    "given both positionally and as a keyword"
                )
            overrides["num_workers"] = num_workers
        super().__init__(config, overrides)
        self.config.fill_num_workers()

        self.tracer = (Tracer(capacity=self.config.trace_buffer_size)
                       if self.config.trace else None)
        self._metrics_on = self.config.metrics
        loop = self._loop = WorkerLoop(
            metrics=self.metrics if self._metrics_on else None,
            tracer=self.tracer,
        )
        self._sched_lock = loop._sched_lock
        self._sched_cv = loop._sched_cv
        self._main_cv = loop._main_cv
        #: Set by start(): the ready lists and the per-thread running
        #: task (``backend``, where task bodies run, too).
        self.scheduler = self._current = None
        self._m_analysis = self.metrics.histogram("analysis_seconds")
        self._m_barrier = self.metrics.histogram("barrier_wait_seconds")
        #: repro.live.LiveSession when config.live, else None.
        self.live = None
        #: repro.obs.health.HealthMonitor when config.health, else None.
        self.health = None
        #: Where the observation endpoint listens (start() binds one
        #: when config.address is set or config.live is on), else None.
        self.address: Optional[str] = None
        self._endpoint = None
        self._started = False
        #: repro.check.Sanitizer when config.sanitize, else None.
        self.sanitizer = None

    _running = _loop_tap("_running")
    _parked = _loop_tap("_parked")
    _main_parked = _loop_tap("_main_parked")
    tasks_executed = _loop_tap("tasks_executed")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SmpssRuntime":
        if self._started:
            raise RuntimeError("runtime already started")
        # Only a memory limit needs buffers back before the barrier.
        self._open_domain(
            self.tracer,
            release_eagerly=self.config.memory_limit_bytes is not None,
        )
        if self.config.sanitize:
            # Imported here, not at module level: check sits above core.
            from ..check.sanitize import Sanitizer

            self.sanitizer = Sanitizer(
                tracer=self.tracer,
                metrics=self.metrics if self._metrics_on else None,
            )
        # Started (forked, connected) *before* the proxy threads exist
        # and before the runtime goes on the api stack, so a failed dial
        # aborts start() cleanly; and before the scheduler exists,
        # because a fleet's size is only known once it is up.
        loop = self._loop
        self.config.num_workers = loop.start_backend(
            make_backend(
                self.config, metrics=self.metrics, tracer=self.tracer,
                on_dispatch=self._notify_dispatch if self.config.live else None,
                sanitizer=self.sanitizer, tls=self._tls,
            ),
            # Workers + the main thread.
            lambda n: self.config.scheduler_factory(n, tracer=self.tracer),
        )
        self.backend = loop.backend
        self.scheduler = loop.scheduler
        self._current = loop._current
        self.tracker.residency_fetch = self.backend.fetch_version
        self.scheduler.placement = self.backend.placement
        # Per-submission constants, hoisted out of the hot loop.
        self._max_pending = self.config.max_pending_tasks
        self._mem_limit = self.config.memory_limit_bytes
        if self.config.address is not None or self.config.live:
            # Imported here, not at module level: obs and live sit above
            # core.  Bound after the backend (the server threads must not
            # be duplicated into forked workers) and before the proxy /
            # worker threads, so no dispatch escapes a paused start.
            from ..obs.exposition import open_endpoint

            self._endpoint = open_endpoint(self, self.config.address)
            self.address = self._endpoint.address
        if self.config.live:
            from ..live.session import LiveSession

            self.live = LiveSession(self, self._endpoint)
        if self.config.health:
            # Imported here, not at module level: obs sits above core.
            # Started after the backend (the watchdog thread must not
            # be duplicated into forked workers) and before the worker
            # threads, so the first sample sees a live runtime.
            from ..obs.health import HealthMonitor

            self.health = HealthMonitor(self)
            loop.flight = self.health.recorder
            self.health.start()
        self._started = True
        loop.start_workers("smpss-worker")
        return super().start()

    def shutdown(self, *, run_barrier: bool = True) -> None:
        if not self._started:
            return
        if self.live is not None:
            # A detached (or absent) client must not be able to hang
            # program exit: lift any pause/breakpoints before the final
            # barrier.  An attached client sees a "releasing" note and
            # then the normal end-of-stream.
            self.live.release_for_shutdown()
        try:
            if run_barrier:
                self.barrier()
        finally:
            self._loop.stop_workers()
            if self.health is not None:
                # Stopped only after workers have joined: the watchdog
                # keeps observing through the final barrier — the very
                # window where a wedged program needs it.
                self.health.stop()
                self.health = None
                self._loop.flight = None
            if self.live is not None:
                self.live.close()
                self.live = None
            if self._endpoint is not None:
                self._endpoint.close()
                self._endpoint = None
                if self.config.address is None:
                    # open_endpoint's temp directory (the socket is gone).
                    with suppress(OSError):
                        os.rmdir(os.path.dirname(self.address))
            self._started = False
            _api.pop_runtime(self)
            if self._metrics_on:
                self._publish_metrics()

    # ------------------------------------------------------------------
    # submission (main thread only)
    # ------------------------------------------------------------------
    def submit(self, definition, args: tuple, kwargs: dict) -> TaskInstance:
        if not self._started:
            raise RuntimeError("runtime is not started")
        if self.domain.failure is not None:
            raise self.domain.failure
        plan = definition._invocation_plan
        if plan is None:
            plan = plan_for(definition)
        task = plan.instantiate(args, kwargs, self._constants)
        metrics_on = self._metrics_on
        t0 = perf_counter() if metrics_on else 0.0
        ready_now = self.domain.analyze(task)
        if metrics_on:
            self._m_analysis.observe(perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.task_added(task)
        if ready_now:
            self._loop.release((task,))
        if self.graph.pending_count > self._max_pending:
            # Graph-size blocking condition: behave as a worker.
            self._main_help(
                lambda: self.graph.pending_count > self._max_pending
            )
        limit = self._mem_limit
        if limit is not None and self.tracker.renamed_bytes > limit:
            # Memory-limit blocking condition: help until completions
            # garbage-collect enough renamed buffers (or nothing is
            # left in flight that could).
            self._main_help(
                lambda: self.tracker.renamed_bytes > limit
                and self.graph.pending_count > 0
            )
        return task

    # ------------------------------------------------------------------
    # execution machinery
    # ------------------------------------------------------------------
    def _main_help(self, predicate: Callable[[], bool]) -> None:
        """Run tasks on the main thread while *predicate* holds.

        Under a remote backend the main thread waits instead of
        helping: running a pure-Python body here would hold the master
        GIL and starve the proxy threads' completion bookkeeping, which
        is exactly the serial overhead such a backend exists to remove.
        """

        loop = self._loop
        helps = not self.backend.remote
        while True:
            task = None
            with self._sched_lock:
                while True:
                    if self.domain.failure is not None or not predicate():
                        return
                    if helps:
                        task = self.scheduler.pop(0)
                        if task is not None:
                            loop._running += 1
                            break
                    if loop._running == 0 and not self.scheduler.has_ready():
                        # Workers update the graph (tracker lock) before
                        # the scheduler (this lock), so running == 0
                        # here means every completion is fully visible:
                        # pending tasks with nothing ready or running is
                        # a genuine stall (repro.obs.health enriches the
                        # error with wait chains and the flight recorder).
                        if self.graph.pending_count > 0:
                            from ..obs.health import stalled_error

                            raise stalled_error(self)
                        return
                    loop._main_parked = True
                    try:
                        self._main_cv.wait()
                    finally:
                        loop._main_parked = False
            loop._execute(task, 0)

    def _notify_dispatch(self, task: TaskInstance, thread: int) -> None:
        """A remote backend's ``on_dispatch`` hook (``live=True`` only);
        late-bound because the live session starts after the backend."""

        self.live.notify_dispatch(task, thread)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        """Total execution slots (workers + the main thread)."""

        return self.config.num_workers + 1

    def _sync_metrics(self) -> None:
        """Mirror runtime-owned aggregates into the metrics registry."""

        m = self.metrics
        m.gauge("tasks_executed").set(self.tasks_executed)
        m.ingest_scheduler_stats(self.scheduler.stats)
        # Instantaneous control/occupancy gauges — the same numbers the
        # live dashboard snapshots, so `repro.obs report` and an attached
        # client read one source of truth.
        depths = self.scheduler.queue_depths()
        m.gauge("scheduler.high_depth").set(depths["high"])
        m.gauge("scheduler.main_depth").set(depths["main"])
        for idx, depth in enumerate(depths["locals"]):
            m.gauge("scheduler.ready_depth", thread=idx).set(depth)
        m.gauge("scheduler.parked_workers").set(self._parked)
        gate = self.scheduler.gate
        m.gauge("scheduler.paused").set(
            int(gate.paused) if gate is not None else 0)
        m.gauge("scheduler.step_budget").set(
            gate.step_budget if gate is not None else 0)
        m.gauge("renaming.live_bytes").set(self.tracker.renamed_bytes)
        m.gauge("renaming.total_buffers").set(
            self.tracker.total_renamed_buffers)
        stats = self.graph.stats
        for name in ("total_tasks", "total_edges", "renames"):
            m.gauge(f"graph.{name}").set(getattr(stats, name))
        dropped = self.tracer.dropped_events if self.tracer is not None else 0
        if dropped:
            m.gauge("trace.dropped_events").set(dropped)

    def stats(self) -> dict:
        if self._metrics_on and self.scheduler is not None:
            self._sync_metrics()
        # getattr, not truthiness: a graph with no live task is falsy.
        return {
            "tasks_executed": self.tasks_executed,
            "graph": getattr(self.graph, "stats", None),
            "scheduler": getattr(self.scheduler, "stats", None),
            "renamed_buffers": getattr(
                self.tracker, "total_renamed_buffers", 0),
            "metrics": self.metrics.snapshot(),
        }

    def report(self, title: str = "threaded runtime report") -> str:
        """Text summary: makespan breakdown, per-thread busy/idle time,
        locality hit-rate, T₁/T∞ bounds (needs ``trace=True``; a kept
        graph adds the work/span section)."""

        from ..obs.analyze import runtime_report

        return runtime_report(self, title=title)
