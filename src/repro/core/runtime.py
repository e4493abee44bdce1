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
module knows no backend by name.  Under a *remote* backend the same
worker threads become *proxy threads*: they pop tasks from the same
scheduler under the same locks, but each forwards the task body to a
worker elsewhere (a forked process, a node agent) and blocks — GIL
released — for the reply.  Dependency analysis, renaming, regions, the
memory limit, and all completion bookkeeping are untouched.  In that
mode the main thread never runs task bodies itself (its help would
serialise the proxies on the master GIL); at a blocking condition it
simply waits for completions, keeping the paper's blocking/unblocking
semantics.

The execute/complete path itself — pop, run, complete in the task's
dependency domain, release successors, targeted wake-ups — and its
locking discipline live in :mod:`repro.core.execution`; this class
drives one :class:`~repro.core.execution.WorkerLoop` over a single
:class:`~repro.core.execution.GraphDomain`, and adds what only a
program's main thread does: submission, the blocking conditions,
helping.
"""

from __future__ import annotations

import os
import threading
from contextlib import suppress
from time import perf_counter
from typing import Callable, Optional

from . import api as _api
from .backend import make_backend
from .config import RuntimeConfig, resolve_config
from .dependencies import DependencyTracker, TrackerConfig
from .execution import GraphDomain, TaskExecutionError, WorkerLoop
from .graph import TaskGraph
from .invocation import plan_for
from .scheduler import SmpssScheduler  # noqa: F401  (re-export convenience)
from .task import TaskInstance, TaskState, reset_task_ids
from .tracing import NullTracer, Tracer

__all__ = ["SmpssRuntime", "TaskExecutionError"]


def _loop_tap(name: str) -> property:
    """One of the worker loop's counters or flags, readable on the
    runtime where the health and live observers look for it."""

    return property(lambda self: getattr(self._loop, name))


class SmpssRuntime:
    """The master: task graph, scheduler, worker threads; also the
    user-facing entry point.

    Usage::

        rt = SmpssRuntime(num_workers=3)
        with rt:
            for ...:
                some_css_task(...)      # submitted, runs asynchronously
            rt.barrier()                # sequential semantics restored

    Construction accepts either keyword knobs or an explicit
    :class:`~repro.core.config.RuntimeConfig` (see that module for the
    validation rules); the two may be mixed as long as no knob is set
    in both places.
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
        self.config = resolve_config(config, overrides, runtime="SmpssRuntime")
        self.config.fill_num_workers()

        self.tracer = (
            Tracer(capacity=self.config.trace_buffer_size)
            if self.config.trace
            else NullTracer()
        )
        # Imported here, not at module level: obs sits above core in the
        # layering (it imports core.tracing/core.analysis).
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self._metrics_on = self.config.metrics
        # Falsy tracers (NullTracer) normalised to None: hot paths pay
        # a plain ``is not None`` check, not a ``__bool__`` call.
        self._trace = self.tracer if self.tracer else None
        loop = self._loop = WorkerLoop(
            metrics=self.metrics if self._metrics_on else None,
            tracer=self._trace,
        )
        self._sched_lock = loop._sched_lock
        self._sched_cv = loop._sched_cv
        self._main_cv = loop._main_cv
        #: Set by start(): where task bodies run (repro.core.backend),
        #: the ready lists, and the per-thread running task.
        self.backend = self.scheduler = self._current = None
        self._m_analysis = self.metrics.histogram("analysis_seconds")
        self._m_barrier = self.metrics.histogram("barrier_wait_seconds")
        #: The program's one dependency domain (built by start());
        #: ``graph``, ``tracker`` and ``_tracker_lock`` are its members,
        #: kept under the names observers read.
        self.domain: GraphDomain = None  # type: ignore[assignment]
        self.graph: TaskGraph = None  # type: ignore[assignment]
        self.tracker: DependencyTracker = None  # type: ignore[assignment]
        self._tracker_lock: threading.Lock = None  # type: ignore[assignment]
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
        #: Per-thread flag: set while a task body runs on that thread,
        #: so task calls made from inside tasks execute inline ("SMPSs
        #: treats task calls inside tasks as normal function calls").
        self._tls = threading.local()

    _running = _loop_tap("_running")
    _parked = _loop_tap("_parked")
    _main_parked = _loop_tap("_main_parked")
    tasks_executed = _loop_tap("tasks_executed")

    def in_task_body(self) -> bool:
        try:
            return self._tls.in_task
        except AttributeError:
            return False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SmpssRuntime":
        if self._started:
            raise RuntimeError("runtime already started")
        reset_task_ids()
        self.domain = GraphDomain(
            tracker_config=TrackerConfig(
                enable_renaming=self.config.enable_renaming,
                rename_inout=self.config.rename_inout,
            ),
            tracer=self.tracer,
            keep_finished=self.config.keep_graph,
            # Only a memory limit needs buffers back before the barrier.
            release_eagerly=self.config.memory_limit_bytes is not None,
        )
        self.graph = self.domain.graph
        self.tracker = self.domain.tracker
        self._tracker_lock = self.domain.lock
        if self.config.sanitize:
            # Imported here, not at module level: check sits above core.
            from ..check.sanitize import Sanitizer

            self.sanitizer = Sanitizer(
                tracer=self.tracer or None,
                metrics=self.metrics if self._metrics_on else None,
            )
        # Started (forked, connected) *before* the proxy threads exist
        # and before the runtime goes on the api stack, so a failed dial
        # aborts start() cleanly; and before the scheduler exists,
        # because a fleet's size is only known once it is up.
        loop = self._loop
        self.config.num_workers = loop.start_backend(
            make_backend(
                self.config, metrics=self.metrics, tracer=self._trace,
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
        self._constants = self.config.constants
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
        _api.push_runtime(self)
        return self

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
                self._sync_metrics()
                from ..obs.metrics import default_metrics

                default_metrics().absorb(self.metrics)

    def __enter__(self) -> "SmpssRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception inside the block, still drain and join, but do
        # not let a barrier failure mask the original error.
        try:
            if exc_type is None:
                self.shutdown()
            else:
                try:
                    self.shutdown()
                except Exception:
                    pass
        finally:
            # Defensive pop: if shutdown died before (or during) its own
            # pop_runtime, the stack would keep a dead entry and a stale
            # owner thread, wedging every later runtime ("a runtime is
            # already active on another thread").  Discarding is
            # idempotent, so the normal path pays only a lock + lookup.
            _api.discard_runtime(self)

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
        if self._trace is not None:
            self._trace.task_added(task)
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
    # synchronisation
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Wait for every submitted task; restore user-visible data."""

        if self.tracer:
            self.tracer.barrier_enter()
        t0 = perf_counter() if self._metrics_on else 0.0
        self._main_help(lambda: self.graph.pending_count > 0)
        if self._metrics_on:
            self._m_barrier.observe(perf_counter() - t0)
        if self.domain.failure is not None:
            raise self.domain.failure
        # Pull every master-stale datum home *before* write_back_all
        # copies renamed buffers into user objects — the runtime is
        # quiescent here (nothing pending), so no dispatch races this.
        self.backend.barrier_sync()
        count = self.domain.write_back()
        if self.tracer:
            self.tracer.write_back(count)
            self.tracer.barrier_exit()
        if self._metrics_on:
            self._sync_metrics()

    wait_all = barrier

    def wait_for(self, task: TaskInstance) -> None:
        """Block (helping) until one specific task instance finishes."""

        self._main_help(lambda: task.state is not TaskState.FINISHED)
        if self.domain.failure is not None:
            raise self.domain.failure
        # As acquire does: the task's whole-object outputs may be
        # resident elsewhere (a node, a process backend's arena).
        for _name, version in task.writes:
            if not version.datum.region_mode:
                self.backend.fetch_version(version)

    def acquire(self, obj):
        """Wait for the latest version of *obj* and return its storage.

        The engine behind :func:`repro.wait_on` (the paper's
        ``#pragma css wait on``): a partial barrier on one datum that
        lets the main program read e.g. a pivot index in LU while other
        tasks keep running.
        """

        with self._tracker_lock:
            versions = self.tracker.current_versions(obj)
        if not versions:
            return obj
        # One chain per region of data accessed by region: wait for the
        # last writer of each.
        producers = [p for v in versions if (p := v.producer) is not None]

        def running() -> bool:
            return any(p.state is not TaskState.FINISHED for p in producers)

        if running():
            if self.tracer:
                self.tracer.wait_on_enter()
            self._main_help(running)
            if self.tracer:
                self.tracer.wait_on_exit()
        if self.domain.failure is not None:
            # A failed domain retires its queued tasks unrun, so a
            # FINISHED producer need not have produced anything.
            raise self.domain.failure
        # wait_on reads on the main program's thread: the finished
        # producer may have left the bytes resident elsewhere (every
        # region chain's version resolves to the one user buffer).
        self.backend.fetch_version(versions[0])
        return versions[0].resolve_storage()

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
                        # a genuine stall.
                        if self.graph.pending_count > 0:
                            raise self._stalled()
                        return
                    loop._main_parked = True
                    try:
                        self._main_cv.wait()
                    finally:
                        loop._main_parked = False
            loop._execute(task, 0)

    def _stalled(self) -> RuntimeError:
        """The unified "runtime stalled" error (see repro.obs.health).

        The main-thread blocking loop detected pending tasks with
        nothing ready and nothing running.  The health module builds
        the enriched error (blocked-task wait chains appended, flight
        recorder dumped when a monitor is attached).
        """

        from ..obs.health import stalled_error

        return stalled_error(self)

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
        if self.scheduler is not None:
            m.ingest_scheduler_stats(self.scheduler.stats)
            # Instantaneous control/occupancy gauges — the same numbers
            # the live dashboard snapshots, so `repro.obs report` and an
            # attached client read one source of truth.
            depths = self.scheduler.queue_depths()
            m.gauge("scheduler.high_depth").set(depths["high"])
            m.gauge("scheduler.main_depth").set(depths["main"])
            for idx, depth in enumerate(depths["locals"]):
                m.gauge("scheduler.ready_depth", thread=idx).set(depth)
            m.gauge("scheduler.parked_workers").set(self._parked)
            gate = self.scheduler.gate
            m.gauge("scheduler.paused").set(
                int(gate.paused) if gate is not None else 0
            )
            m.gauge("scheduler.step_budget").set(
                gate.step_budget if gate is not None else 0
            )
        if self.tracker is not None:
            m.gauge("renaming.live_bytes").set(self.tracker.renamed_bytes)
            m.gauge("renaming.total_buffers").set(
                self.tracker.total_renamed_buffers
            )
        if self.graph is not None:
            m.gauge("graph.total_tasks").set(self.graph.stats.total_tasks)
            m.gauge("graph.total_edges").set(self.graph.stats.total_edges)
            m.gauge("graph.renames").set(self.graph.stats.renames)
        # Not getattr(self.tracer, ...): NullTracer answers with a function.
        dropped = self._trace.dropped_events if self._trace is not None else 0
        if dropped:
            m.gauge("trace.dropped_events").set(dropped)

    def stats(self) -> dict:
        if self._metrics_on and self.scheduler is not None:
            self._sync_metrics()
        return {
            "tasks_executed": self.tasks_executed,
            # `is not None`: a graph with no live task is falsy (__len__).
            "graph": self.graph.stats if self.graph is not None else None,
            "scheduler": (
                self.scheduler.stats if self.scheduler is not None else None
            ),
            "renamed_buffers": (
                self.tracker.total_renamed_buffers
                if self.tracker is not None else 0
            ),
            "metrics": self.metrics.snapshot(),
        }

    def report(self, title: str = "threaded runtime report") -> str:
        """Text summary: makespan breakdown, per-thread busy/idle time,
        locality hit-rate, T₁/T∞ bounds (needs ``trace=True``; a kept
        graph adds the work/span section)."""

        from ..obs.analyze import runtime_report

        return runtime_report(self, title=title)
