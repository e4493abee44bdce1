"""Shared socket transport for every networked repro surface.

One wire format — one JSON object per line, UTF-8, ``\n``-terminated —
served and consumed by one :class:`Server`/:class:`Client` pair.  A
runtime's observation endpoint (live inspection, metrics and health:
:mod:`repro.obs.exposition`) and the task-graph service
(:mod:`repro.serve`) are its two owners; neither owns sockets of its
own: each hands the server one ``handler(command, conn)``, *conn* being
the per-connection context a stateful service (serve) keeps its tenant
on.

The client always speaks first, and the server *sniffs* those first
bytes: a plain HTTP ``GET``/``HEAD`` goes to the owner's
``http_responder``, anything else gets the JSON-lines ``hello``, so one
port serves both the protocol and a browser/Prometheus scrape.

Bulk data rides :mod:`~repro.net.frames`, alone or attached to a JSON
line; what a datum's content looks like inside a frame and how it lands
back in the caller's object is :mod:`~repro.net.codec`, the one datum
codec every backend shares.

Addresses take two forms: ``tcp:HOST:PORT`` (PORT ``0`` binds an
ephemeral port; the server reports the real one) or a filesystem path,
which means a unix-domain socket.
"""

from .client import Client, NetClosed, NetTimeout
from .frames import FrameError, recv_frame, send_frame
from .protocol import (
    PROTOCOL_VERSION,
    connect,
    connect_retry,
    decode,
    encode,
    format_address,
    parse_address,
)
from .server import Server

__all__ = [
    "PROTOCOL_VERSION",
    "Client",
    "FrameError",
    "NetClosed",
    "NetTimeout",
    "Server",
    "connect",
    "connect_retry",
    "decode",
    "encode",
    "format_address",
    "parse_address",
    "recv_frame",
    "send_frame",
]
