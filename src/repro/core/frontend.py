"""The active-runtime protocol that :mod:`repro.core.api` drives, once.

``#pragma css barrier`` and ``#pragma css wait on`` mean one thing
however the program runs (section II's dual compilation), so
:class:`ActiveRuntime` writes them once for the threaded
:class:`~repro.core.runtime.SmpssRuntime`, the
:class:`~repro.core.recorder.RecordingRuntime` and the simulator's
:class:`~repro.sim.simruntime.SimulatedRuntime`.  A front end adds only
how a ready task runs (its ``submit``: on a backend, inline, or on a
virtual core) and how the main thread blocks (``_main_help``, or its
own :meth:`~ActiveRuntime._block`).
"""

from __future__ import annotations

import threading
from contextlib import suppress
from time import perf_counter
from typing import Optional

from . import api as _api
from .config import RuntimeConfig, resolve_config
from .dependencies import TrackerConfig
from .execution import GraphDomain
from .invocation import resolve_call_values
from .task import TaskInstance, TaskState, reset_task_ids

__all__ = ["ActiveRuntime"]


class ActiveRuntime:
    """Config, dependency domain, synchronisation and session, shared."""

    #: ``None``: untraced.
    tracer = None
    #: Where task bodies run when not inline (see repro.core.backend).
    backend = None
    #: The program's one dependency domain and its members (observers
    #: read ``graph`` and ``tracker``); ``None`` until the run starts.
    domain = graph = tracker = None
    _metrics_on = False

    def __init__(self, config: Optional[RuntimeConfig], knobs: dict, *,
                 runs_bodies: bool = True):
        self.config = resolve_config(config, knobs,
                                     runtime=type(self).__name__)
        # Without bodies no renamed version ever holds data: a barrier
        # copies nothing home and acquire hands back the object itself.
        self._runs_bodies = runs_bodies
        self._constants = self.config.constants
        # Imported here, not at module level: obs sits above core.
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        #: Per-thread flag: set while a task body runs on that thread,
        #: so task calls made from inside tasks execute inline ("SMPSs
        #: treats task calls inside tasks as normal function calls").
        self._tls = threading.local()

    def _open_domain(self, tracer=None, release_eagerly: bool = False,
                     keep_graph: bool = False) -> None:
        reset_task_ids()
        config = self.config
        self.domain = GraphDomain(
            tracker_config=TrackerConfig(config.enable_renaming,
                                         config.rename_inout),
            tracer=tracer,
            keep_finished=keep_graph or config.keep_graph,
            release_eagerly=release_eagerly,
        )
        self.graph = self.domain.graph
        self.tracker = self.domain.tracker

    def in_task_body(self) -> bool:
        try:
            return self._tls.in_task
        except AttributeError:
            return False

    def _run_inline(self, task: TaskInstance) -> None:
        """Run *task*'s body now: program order already ran every
        predecessor's, so its data is valid."""

        values = resolve_call_values(task)
        self._tls.in_task = True
        try:
            task.definition.func(*values)
        finally:
            self._tls.in_task = False

    def _publish_metrics(self) -> None:
        from ..obs.metrics import default_metrics

        self._sync_metrics()
        default_metrics().absorb(self.metrics)

    def start(self) -> "ActiveRuntime":
        _api.push_runtime(self)
        return self

    def shutdown(self) -> None:
        _api.discard_runtime(self)

    def __enter__(self) -> "ActiveRuntime":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception inside the block, still shut down, but do not
        # let a shutdown failure mask the original error.
        try:
            if exc_type is None:
                self.shutdown()
            else:
                with suppress(Exception):
                    self.shutdown()
        finally:
            # Defensive pop: a shutdown that died before its own pop
            # must not leave a dead stack entry and a stale owner
            # thread, wedging every later runtime.  Idempotent.
            _api.discard_runtime(self)

    def _block(self, waited) -> None:
        """Return once every task of *waited* (``None``: every task
        submitted so far) has finished."""

        if waited is None:
            self._main_help(lambda: self.graph.pending_count > 0)
        else:
            self._main_help(lambda: any(
                t.state is not TaskState.FINISHED for t in waited))

    def barrier(self) -> None:
        """Wait for every submitted task; restore user-visible data."""

        tracer = self.tracer
        if tracer:
            tracer.barrier_enter()
        t0 = perf_counter() if self._metrics_on else 0.0
        self._block(None)
        if self._metrics_on:
            self._m_barrier.observe(perf_counter() - t0)
        if self.domain.failure is not None:
            raise self.domain.failure
        if self.backend is not None:
            # Pull every master-stale datum home *before* the write-back
            # copies renamed buffers into user objects.
            self.backend.barrier_sync()
        count = self.domain.write_back(copy=self._runs_bodies)
        if tracer:
            tracer.write_back(count)
            tracer.barrier_exit()
        if self._metrics_on:
            self._sync_metrics()

    wait_all = barrier

    def wait_for(self, task: TaskInstance) -> None:
        """Block until one specific task instance finishes."""

        if task.state is not TaskState.FINISHED:
            self._block((task,))
        if self.domain.failure is not None:
            raise self.domain.failure
        # As acquire does: the task's whole-object outputs may be
        # resident elsewhere (a node, a process backend's arena).
        for _name, version in task.writes:
            if not version.datum.region_mode:
                self.tracker.residency_fetch(version)

    def acquire(self, obj):
        """Wait for the latest version of *obj* and return its storage.

        The engine behind :func:`repro.wait_on` (the paper's
        ``#pragma css wait on``): a partial barrier on one datum that
        lets the main program read e.g. a pivot index in LU while other
        tasks keep running.
        """

        with self.domain.lock:
            versions = self.tracker.current_versions(obj)
        # Data accessed by region has one chain per region: wait for the
        # last writer of each (completion unlinks a producer).
        waited = [p for v in versions if (p := v.producer) is not None
                  and p.state is not TaskState.FINISHED]
        if waited:
            if self.tracer:
                self.tracer.wait_on_enter()
            self._block(waited)
            if self.tracer:
                self.tracer.wait_on_exit()
        if self.domain.failure is not None:
            # A failed domain retires its queued tasks unrun, so a
            # FINISHED producer need not have produced anything.
            raise self.domain.failure
        if not versions or not self._runs_bodies:
            return obj
        # The finished producer may have left the bytes resident
        # elsewhere (every region chain resolves to the user buffer).
        self.tracker.residency_fetch(versions[0])
        return versions[0].resolve_storage()
