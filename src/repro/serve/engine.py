"""The shared worker fleet behind the task-graph service.

One engine admits *jobs* — whole task-graph submissions — decodes each
into a private :class:`~repro.core.execution.GraphDomain` (its own
graph, tracker and lock, so no two submissions ever contend on
dependency state) and hands the ready tasks to a
:class:`~repro.core.execution.WorkerLoop`: the same W-worker
execute/complete path, behind the same
:class:`~repro.core.backend.ExecutionBackend` contract (threads or mp
processes), that the in-process runtime runs on.  The engine itself
creates no thread and owns no ready queue; the loop tells it when a
job's domain has drained, which is where the job finalizes.

Admission control implements the paper's §III blocking conditions as
per-tenant backpressure: where the in-process runtime *blocks* the
main thread on graph-size or renamed-memory limits, a service must
not block one tenant's connection on another tenant's debt — so
over-limit submissions are rejected immediately with a structured,
retryable error (:class:`~repro.serve.errors.GraphRejected`) instead
of growing without bound.

Every counter the engine keeps is labelled by tenant in the ordinary
metrics registry, so the exposition endpoint serves per-tenant pages
with no extra bookkeeping.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Optional

from ..core.backend import make_backend
from ..core.config import RuntimeConfig
from ..core.execution import GraphDomain, TaskExecutionError, WorkerLoop
from ..core.invocation import plan_for
from ..core.scheduler import CentralQueueScheduler
from ..net.codec import format_remote_error
from ..obs.metrics import MetricsRegistry
from . import protocol as sp
from .errors import GraphRejected, ServeError

__all__ = ["ServiceLimits", "GraphJob", "ServeEngine"]


@dataclass(frozen=True)
class ServiceLimits:
    """Per-tenant admission-control caps (§III turned into backpressure)."""

    #: Largest accepted graph, in tasks (§III graph-size condition).
    max_graph_tasks: int = 4096
    #: Cap on one tenant's resident submission bytes (§III memory
    #: condition); ``None`` disables the check.
    max_tenant_bytes: Optional[int] = 256 * 1024 * 1024
    #: Graphs one tenant may have queued-or-running at once.
    max_inflight: int = 8


class _TenantState:
    """Admission counters + metric handles for one tenant."""

    __slots__ = (
        "name", "inflight", "bytes_held", "graphs", "rejections",
        "m_submitted", "m_completed", "m_failed", "m_tasks",
        "m_inflight", "m_bytes", "m_seconds",
    )

    def __init__(self, name: str, metrics: MetricsRegistry):
        self.name = name
        self.inflight = 0
        self.bytes_held = 0
        self.graphs = 0
        self.rejections = 0
        self.m_submitted = metrics.counter(
            "serve.graphs_submitted", tenant=name)
        self.m_completed = metrics.counter(
            "serve.graphs_completed", tenant=name)
        self.m_failed = metrics.counter("serve.graphs_failed", tenant=name)
        self.m_tasks = metrics.counter("serve.tasks_executed", tenant=name)
        self.m_inflight = metrics.gauge("serve.inflight_graphs", tenant=name)
        self.m_bytes = metrics.gauge("serve.bytes_held", tenant=name)
        self.m_seconds = metrics.histogram("serve.graph_seconds", tenant=name)


class GraphJob:
    """One accepted submission, from analysis to write-back."""

    __slots__ = (
        "tenant", "domain", "data", "written", "nbytes", "task_count",
        "error", "results", "frames", "seconds", "done", "_t0",
    )

    def __init__(self, tenant: _TenantState, domain: GraphDomain,
                 data: dict, written: set, nbytes: int, task_count: int):
        self.tenant = tenant
        self.domain = domain
        self.data = data          # datum_id -> server-side object
        self.written = written    # the datum_ids the ack ships home
        self.nbytes = nbytes
        self.task_count = task_count
        self.error: Optional[dict] = None
        #: datum_id -> index into ``frames``: result blobs, the ack's attachments
        self.results: Optional[dict] = None
        self.frames: list[tuple] = []
        self.seconds = 0.0
        #: Set at finalize; a submitter blocks on it for the outcome.
        self.done = threading.Event()
        self._t0 = perf_counter()


class ServeEngine:
    """Admission control and per-job bookkeeping over one worker loop."""

    def __init__(
        self,
        workers: int = 4,
        backend: str = "threads",
        limits: Optional[ServiceLimits] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if backend not in ("threads", "processes"):
            raise ValueError(f"unknown backend {backend!r}")
        self.limits = limits or ServiceLimits()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.backend = backend
        self.num_workers = workers
        self._definitions: dict[tuple, tuple] = {}  # (def, plan, reads_only)
        self._tenants: dict[str, _TenantState] = {}
        #: Jobs admitted and not yet finalized, by domain; leaving this
        #: map (under the lock) is what makes a finalize happen once.
        self._jobs: dict[GraphDomain, GraphJob] = {}
        self._lock = threading.Lock()
        self._stop = False
        self._m_queue_depth = self.metrics.gauge("serve.queue_depth")
        self.metrics.gauge("serve.workers").set(workers)
        self._loop = WorkerLoop()
        # One FIFO for the whole fleet: graphs are served in arrival
        # order, whichever tenant sent them.
        self._loop.start_backend(
            make_backend(
                RuntimeConfig(backend=backend, num_workers=workers),
                metrics=self.metrics,
            ),
            CentralQueueScheduler,
        )
        try:
            self._loop.start_workers("repro-serve-worker")
        except BaseException:
            self._loop.stop_workers()  # a processes fleet is already up
            raise

    def tenant(self, name: str) -> _TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = _TenantState(name, self.metrics)
                self._tenants[name] = state
            return state

    def reject(self, tenant_name: str, exc: GraphRejected) -> GraphRejected:
        """Record one shed submission in the tenant's metrics."""

        state = self.tenant(tenant_name)
        with self._lock:
            state.rejections += 1
        self.metrics.counter(
            "serve.graphs_rejected", tenant=tenant_name, reason=exc.code
        ).inc()
        return exc

    def submit_graph(self, tenant_name: str, spec: dict) -> GraphJob:
        """Admit, analyse, and enqueue one graph; returns its job.

        *spec* is a ``run`` record as the transport hands it over: the
        line's fields plus ``frames``, the attached blobs its ``data``
        and pickled argspecs index.  Raises :class:`GraphRejected`
        (structured, retryable) when the tenant is over a cap,
        :class:`ServeError` on malformed specs.
        """

        tenant = self.tenant(tenant_name)
        task_specs = spec.get("tasks") or []
        data_specs = spec.get("data") or {}
        frames = spec.get("frames") or ()
        limits = self.limits

        if len(task_specs) > limits.max_graph_tasks:
            raise self.reject(tenant_name, GraphRejected(
                "graph_too_large",
                f"graph has {len(task_specs)} tasks; tenant cap is "
                f"{limits.max_graph_tasks}",
                tasks=len(task_specs), limit=limits.max_graph_tasks,
            ))

        # Admission sizes a submission by its attachments' own lengths:
        # exact, and an over-budget one is shed before the server
        # decodes a single datum of it.
        blobs = {d: sp.attachment(frames, i) for d, i in data_specs.items()}
        nbytes = sum(len(payload) for _meta, payload in blobs.values())
        with self._lock:
            if tenant.inflight >= limits.max_inflight:
                over = GraphRejected(
                    "queue_full",
                    f"tenant {tenant_name!r} already has "
                    f"{tenant.inflight} graphs in flight (cap "
                    f"{limits.max_inflight}); retry after one drains",
                    inflight=tenant.inflight, limit=limits.max_inflight,
                )
            elif (limits.max_tenant_bytes is not None
                    and tenant.bytes_held + nbytes > limits.max_tenant_bytes):
                over = GraphRejected(
                    "memory_limit",
                    f"submission of {nbytes} bytes would put tenant "
                    f"{tenant_name!r} over its {limits.max_tenant_bytes}"
                    f"-byte cap ({tenant.bytes_held} held); retry after "
                    f"in-flight graphs complete",
                    bytes=nbytes, held=tenant.bytes_held,
                    limit=limits.max_tenant_bytes,
                )
            else:
                over = None
                tenant.inflight += 1
                tenant.bytes_held += nbytes
                tenant.graphs += 1
                tenant.m_inflight.set(tenant.inflight)
                tenant.m_bytes.set(tenant.bytes_held)
        if over is not None:
            raise self.reject(tenant_name, over)

        try:
            data = {datum_id: sp.decode_datum(blob)
                    for datum_id, blob in blobs.items()}
            constants = {
                key: sp.decode_value(value, frames)
                for key, value in (spec.get("constants") or {}).items()
            }
            written: set = set()
            tasks = [self._instantiate(t, data, constants, frames, written)
                     for t in task_specs]
            domain = GraphDomain(on_drained=self._finalize)
            domain.tracker.residency_fetch = self._loop.backend.fetch_version
            job = GraphJob(tenant, domain, data, written, nbytes, len(tasks))
            # Nothing of this domain runs until release() below, so a
            # task ready at its own analysis is still ready after the
            # whole batch.
            ready = [task for task in tasks if domain.analyze(task)]
            with self._lock:
                if self._stop:
                    raise ServeError("engine is shut down")
                self._jobs[domain] = job
        except Exception:
            # Anything between admit and enqueue — a malformed spec, an
            # access pattern the tracker refuses — gives the slot back.
            self._release_admission(tenant, nbytes)
            raise
        tenant.m_submitted.inc()
        if tasks:
            self._loop.release(ready)
        else:
            self._finalize(domain)
        return job

    def _instantiate(self, task_spec: dict, data: dict, constants: dict,
                     frames, written: set):
        # A datum passed anywhere but a declared input (opaque,
        # undeclared, inout, output) joins *written*: the ack ships it.
        ref = task_spec.get("def")
        if not isinstance(ref, (list, tuple)) or len(ref) != 2:
            raise ServeError(f"malformed task definition ref {ref!r}")
        key = (ref[0], ref[1])
        entry = self._definitions.get(key)
        if entry is None:
            definition = sp.resolve_definition(ref)
            plan = plan_for(definition)
            reads_only = {pos for _n, d, pos in plan.access_specs if d.reads}
            entry = self._definitions[key] = (definition, plan, reads_only
                                              - {p for p, _ in plan.written})
        definition, plan, reads_only = entry
        args = []
        for pos, argspec in enumerate(task_spec.get("args") or []):
            if "d" in argspec:
                datum_id = argspec["d"]
                if datum_id not in data:
                    raise ServeError(
                        f"task {definition.name!r} references unknown "
                        f"datum {datum_id!r}"
                    )
                args.append(data[datum_id])
                if pos not in reads_only:
                    written.add(datum_id)
            else:
                args.append(sp.decode_value(argspec, frames))
        merged = dict(getattr(definition, "constants", None) or {})
        merged.update(constants)
        return plan.instantiate(tuple(args), {}, merged)

    def _release_admission(self, tenant: _TenantState, nbytes: int) -> None:
        with self._lock:
            tenant.inflight -= 1
            tenant.bytes_held -= nbytes
            tenant.m_inflight.set(tenant.inflight)
            tenant.m_bytes.set(tenant.bytes_held)

    def _finalize(self, domain: GraphDomain) -> None:
        """The domain has drained (or will never run): publish its job's
        outcome once and give the tenant its admission slot back."""

        with self._lock:
            job = self._jobs.pop(domain, None)
        if job is None:
            return
        tenant = job.tenant
        failure = domain.failure
        # Bodies that ran, whatever became of the graph.
        tenant.m_tasks.inc(domain.executed)
        # A process backend keeps an arena copy of every array a task
        # touched until told otherwise: bring the graph's data and their
        # final versions home, and let the copies go, whatever the outcome.
        finals = [domain.tracker.current_version(obj)
                  for obj in job.data.values()]
        self._loop.backend.barrier_sync([*job.data.values(), *(
            version.resolve_storage() for version in finals
            if version is not None and version.is_materialised)])
        if failure is None:
            domain.write_back()
            job.results = {
                datum_id: sp.attach(job.frames, sp.encode_datum(obj))
                for datum_id, obj in job.data.items()
                if datum_id in job.written
            }
            tenant.m_completed.inc()
        else:
            if isinstance(failure, TaskExecutionError):
                name = failure.task.definition.name
                exc_type, message, remote_traceback = format_remote_error(
                    failure.__cause__
                )
                job.error = {
                    "code": "task_failed",
                    "message": f"task {name!r} raised {exc_type}: {message}",
                    "task": name,
                    "traceback": remote_traceback,
                }
            else:  # a ServeError, or the fleet failed (a dead dispatcher)
                job.error = (failure if isinstance(failure, ServeError) else
                             ServeError(f"the worker fleet failed: {failure!r}",
                                        code="internal")).to_wire()
            tenant.m_failed.inc()
        job.seconds = perf_counter() - job._t0
        tenant.m_seconds.observe(job.seconds)
        self._release_admission(tenant, job.nbytes)
        job.done.set()

    def abandon(self, job: GraphJob) -> None:
        """The submitting client is gone: stop the job's graph and
        release its tenant accounting without stalling the fleet.

        Tasks already running finish (their effects stay private to
        the job's domain); queued ones are retired unrun, and the job
        finalizes as ``cancelled`` — no results are encoded — when the
        last of them has been.
        """

        job.domain.fail(ServeError(
            "submission abandoned before completion", code="cancelled"
        ))

    def shutdown(self) -> None:
        with self._lock:
            self._stop = True
        self._loop.stop_workers(timeout=10.0)
        # Fail whatever never ran so no waiter hangs on a dead fleet.
        with self._lock:
            leftovers = list(self._jobs)
        for domain in leftovers:
            domain.fail(ServeError(
                "engine shut down before the graph ran", code="shutdown"
            ))
            self._finalize(domain)

    def queue_depth(self) -> int:
        """Ready tasks not yet popped, sampled now (every reader of the
        ``serve.queue_depth`` gauge samples through here first)."""

        depth = self._loop.scheduler.ready_count
        self._m_queue_depth.set(depth)
        return depth

    def state(self) -> dict:
        with self._lock:
            tenants = {
                name: {
                    "inflight": t.inflight,
                    "bytes_held": t.bytes_held,
                    "graphs": t.graphs,
                    "rejections": t.rejections,
                }
                for name, t in sorted(self._tenants.items())
            }
        return {
            "workers": self.num_workers,
            "backend": self.backend,
            "queue_depth": self.queue_depth(),
            "live_graphs": len(self._jobs),
            "worker_liveness": self._loop.liveness(),
            "limits": asdict(self.limits),
            "tenants": tenants,
        }
