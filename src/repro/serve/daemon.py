"""The front door of the task-graph service.

One daemon owns one :class:`~repro.serve.engine.ServeEngine` (the
worker fleet) and one :class:`repro.net.Server` (the socket, the
JSON-lines framing, the first-bytes HTTP sniff, the acks) and accepts
any number of concurrent client sessions.  The transport gives every
connection its own reader thread, so a ``run`` simply submits its graph
and blocks that thread until the job is done — a session waiting on a
long graph never delays another tenant's submissions, and there is one
concurrency model (threads) from the socket to the task body.  While it
waits, the thread keeps an eye on its peer: a client that hangs up
mid-graph has the graph abandoned at once, not when it would have
finished.

The wire surface is the shared JSON-lines protocol plus plain HTTP on
the same port, routed by :func:`repro.obs.exposition.http_response`:
``curl http://host:port/metrics`` (all tenants), ``/metrics/<tenant>``
(one tenant's series), and ``/health`` (fleet + tenant state as JSON).

Admission control is per tenant and rejection-based (429-style): the
engine's caps turn the paper's §III blocking conditions into
backpressure, and the structured error crosses the wire in the ack so
clients can branch on ``code`` and retry.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from typing import Optional

from ..net.protocol import PROTOCOL_VERSION
from ..net.server import Server
from ..obs.exposition import CONTENT_TYPE, http_response, render_registry
from .engine import ServeEngine, ServiceLimits
from .errors import ServeError
from .protocol import SERVE_PROTOCOL_VERSION

__all__ = ["ServeDaemon"]

#: How often a connection blocked on its running graph looks for EOF.
PEER_CHECK_SECONDS = 0.05


class ServeDaemon:
    """Admit, execute, expose; one fleet, many tenants."""

    def __init__(
        self,
        address: str,
        *,
        workers: int = 4,
        backend: str = "threads",
        limits: Optional[ServiceLimits] = None,
        metrics=None,
    ):
        self.engine = ServeEngine(
            workers=workers, backend=backend, limits=limits,
            metrics=metrics,
        )
        self._t0 = time.monotonic()
        self._closed = threading.Event()
        try:
            self._server = Server(
                address,
                self._handle,
                hello={
                    "service": "repro.serve",
                    "version": PROTOCOL_VERSION,
                    "workers": self.engine.num_workers,
                    "backend": self.engine.backend,
                },
                http_responder=lambda path: http_response(
                    path, self._metrics_page, self._health),
                name="repro-serve",
            )
        except BaseException:
            self.engine.shutdown()
            raise
        self.address = self._server.address

    # ------------------------------------------------------------------
    # commands (each runs on its connection's reader thread)
    # ------------------------------------------------------------------
    def _handle(self, record: dict, conn) -> dict:
        try:
            return self._dispatch(record, conn)
        except ServeError:
            raise
        except Exception as exc:  # noqa: BLE001 - reported to the client
            raise ServeError(
                f"{type(exc).__name__}: {exc}", code="internal"
            ) from exc

    def _dispatch(self, record: dict, conn) -> dict:
        cmd = record.get("cmd")
        if cmd == "open":
            tenant = record.get("tenant")
            if not tenant or not isinstance(tenant, str):
                raise ServeError("open requires a tenant name")
            version = record.get("version")
            if version != SERVE_PROTOCOL_VERSION:
                raise ServeError(
                    f"client speaks serve protocol {version!r}; this "
                    f"daemon speaks {SERVE_PROTOCOL_VERSION}",
                    code="version_mismatch",
                    client=version, server=SERVE_PROTOCOL_VERSION,
                )
            conn.tenant = tenant
            self.engine.tenant(tenant)
            return {
                "tenant": tenant,
                "limits": asdict(self.engine.limits),
                "workers": self.engine.num_workers,
                "backend": self.engine.backend,
            }
        tenant = getattr(conn, "tenant", None)
        if cmd == "run":
            if tenant is None:
                raise ServeError("run before open: no tenant bound")
            return self._run_graph(tenant, record, conn)
        if cmd == "metrics":
            return {
                "content_type": CONTENT_TYPE,
                "text": self._metrics_page(record.get("tenant")),
            }
        if cmd == "health":
            return self._health()
        if cmd == "ping":
            return {"service": "repro.serve", "tenant": tenant}
        raise ServeError(f"unknown command {cmd!r}")

    def _run_graph(self, tenant: str, record: dict, conn) -> dict:
        # The run record *is* the graph spec (tasks/data/constants, and
        # the attached blobs under "frames").
        job = self.engine.submit_graph(tenant, record)
        # A connection has one graph in flight: its reader thread is
        # parked right here until the job finalizes, waking only to
        # check that somebody is still there to read the results.  A
        # client gone mid-graph must not keep the fleet busy or hold
        # its tenant's accounting: the rest of its graph is abandoned.
        while not job.done.wait(PEER_CHECK_SECONDS):
            if conn.peer_gone():
                self.engine.abandon(job)
                raise ServeError("client disconnected mid-graph")
        if job.error is not None:
            raise ServeError(**job.error)
        return {
            "results": job.results or {},
            "tasks": job.task_count,
            "seconds": job.seconds,
            "frames": job.frames,
        }

    def _health(self) -> dict:
        state = self.engine.state()
        state["uptime_seconds"] = time.monotonic() - self._t0
        state["service"] = "repro.serve"
        state["workers_alive"] = sum(
            1 for w in state["worker_liveness"] if w.get("alive")
        )
        return state

    def _metrics_page(self, tenant) -> str:
        self.engine.queue_depth()
        series = self.engine.metrics
        if tenant:  # one tenant's page: the series that carry its label
            series = [m for m in series if ("tenant", str(tenant)) in m.labels]
        return render_registry(series)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (CLI mode)."""

        try:
            self._closed.wait()
        except KeyboardInterrupt:
            self.close()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        # Sockets first: every session — including one blocked on a
        # graph still running — sees the stream end now, not after the
        # fleet has drained.
        self._server.close()
        self.engine.shutdown()

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
