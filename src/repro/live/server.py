"""The live session's socket server — a thin wrapper over
:class:`repro.net.Server`.

Serves the JSON-lines stream described in :mod:`repro.live.protocol`:
every accepted client first receives the ``hello`` record and the full
retained delta history (so a late attacher reconstructs the in-flight
graph exactly), then rides the live stream.  A per-client reader
thread parses command lines and hands them to the session's handler;
the resulting ``ack`` goes only to that client.

Publishing happens on the *caller's* thread (the session's publisher
drain loop) — a slow or dead client never blocks the runtime itself,
only the publisher, and a client whose socket errors is dropped.

All of that behaviour lives in the shared transport
(:mod:`repro.net.server`); this class only pins the live plane's
thread naming.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.server import Server

__all__ = ["LiveServer"]


class LiveServer(Server):
    """Bind, accept, fan out deltas, and route commands.

    *handler* is ``fn(cmd: dict, conn) -> dict`` returning the ``data``
    for a successful ack (raise ``ValueError`` for a command error; the
    live plane keeps no per-connection state, so *conn* goes unused).
    *hello* is the dict sent (with ``ev: hello`` added) as every
    connection's first record.
    """

    def __init__(
        self,
        address: str,
        handler: Callable[[dict, object], dict],
        hello: Optional[dict] = None,
    ):
        super().__init__(address, handler, hello=hello, name="repro-live")
