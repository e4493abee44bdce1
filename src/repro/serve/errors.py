"""Exception surface of the task-graph service.

Structured errors cross the wire as dicts (``code`` + ``status`` +
human message + detail fields) so a client can branch on the *kind* of
failure — admission-control rejections carry HTTP-style ``429`` and
are retryable; task failures carry the remote traceback and are not.
"""

from __future__ import annotations

__all__ = ["ServeError", "GraphRejected", "RemoteGraphError"]


class ServeError(RuntimeError):
    """Any failure of the serve surface (protocol, session, daemon)."""

    def __init__(self, message: str, code: str = "error"):
        super().__init__(message)
        self.code = code

    def to_wire(self) -> dict:
        """The dict this error crosses the wire as (the transport puts
        it in the ack's ``error``); subclasses add their own fields."""

        return {"code": self.code, "message": str(self)}


class GraphRejected(ServeError):
    """Admission control shed this submission (429-style; retryable).

    ``code`` is machine-readable: ``graph_too_large`` (per-tenant graph
    size cap, the paper's §III graph-size blocking condition turned
    into backpressure), ``memory_limit`` (per-tenant bytes cap, §III's
    memory condition), or ``queue_full`` (per-tenant in-flight cap).
    """

    def __init__(self, code: str, message: str, **detail):
        super().__init__(message, code)
        self.status = 429
        self.detail = detail

    def to_wire(self) -> dict:
        return {
            "code": self.code,
            "status": self.status,
            "message": str(self),
            **self.detail,
        }

    @classmethod
    def from_wire(cls, error: dict) -> "GraphRejected":
        detail = {
            k: v for k, v in error.items()
            if k not in ("code", "status", "message")
        }
        return cls(
            error.get("code", "rejected"),
            error.get("message", "graph rejected"),
            **detail,
        )


class RemoteGraphError(ServeError):
    """A task body raised on the server; carries the remote rendering."""

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback
