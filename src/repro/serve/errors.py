"""Exception surface of the task-graph service.

Structured errors cross the wire as dicts (``code`` + ``status`` +
human message + detail fields) so a client can branch on the *kind* of
failure — admission-control rejections carry HTTP-style ``429`` and
are retryable; task failures carry the remote traceback and are not.
"""

from __future__ import annotations

__all__ = ["ServeError", "GraphRejected", "RemoteGraphError"]


class ServeError(RuntimeError):
    """Any failure of the serve surface (protocol, session, daemon).

    ``code`` is machine-readable; *detail* fields cross the wire beside
    it, so :meth:`to_wire` and ``ServeError(**error)`` are inverses."""

    def __init__(self, message: str, code: str = "error", **detail):
        super().__init__(message)
        self.code = code
        self.detail = detail

    def to_wire(self) -> dict:
        """The dict this error crosses the wire as (the transport puts
        it in the ack's ``error``)."""

        return {"code": self.code, "message": str(self), **self.detail}


class GraphRejected(ServeError):
    """Admission control shed this submission (429-style; retryable).

    ``code`` is ``graph_too_large`` (per-tenant graph size cap, the
    paper's §III graph-size blocking condition turned into
    backpressure), ``memory_limit`` (per-tenant bytes cap, §III's
    memory condition), or ``queue_full`` (per-tenant in-flight cap).
    """

    status = 429

    def __init__(self, code: str, message: str, **detail):
        super().__init__(message, code, **detail)

    def to_wire(self) -> dict:
        return {**super().to_wire(), "status": self.status}


class RemoteGraphError(ServeError):
    """A task body raised on the server; carries the remote rendering."""

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback
