"""Wire helpers shared by every JSON-lines surface.

One JSON object per line, UTF-8, ``\n``-terminated, in both
directions.  Servers stream event records (``ev`` field); clients send
small command objects (``cmd`` field plus a client-chosen ``seq``) and
correlate replies by ``seq``.  Two records are protocol-level rather
than application-level:

``ack``
    Reply to one command: ``seq``, ``cmd``, ``ok``, ``data`` | ``error``.
``bye``
    Orderly end of stream.

Addresses take two forms: ``tcp:HOST:PORT`` (PORT ``0`` binds an
ephemeral port; the server reports the real one) or a filesystem path,
which means a unix-domain socket.
"""

from __future__ import annotations

import json
import os
import socket
import time
from contextlib import suppress
from typing import Callable, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "NetTimeout",
    "NetClosed",
    "encode",
    "decode",
    "parse_address",
    "format_address",
    "tune",
    "listen",
    "hang_up",
    "connect",
    "connect_retry",
    "build_http_response",
]

PROTOCOL_VERSION = 1


class NetTimeout(TimeoutError):
    """No record arrived within the requested window."""


class NetClosed(ConnectionError):
    """The server ended the stream (``bye``) or dropped the socket."""


def encode(record: dict) -> bytes:
    """One wire line for *record* (compact separators, trailing LF)."""

    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


def decode(line) -> Optional[dict]:
    """Parse one wire line; ``None`` for blank/unparseable lines."""

    if not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def parse_address(spec: str) -> tuple:
    """``"tcp:HOST:PORT"`` -> ``("tcp", host, port)``; anything else is
    a unix-socket path -> ``("unix", path)``."""

    if spec.startswith("tcp:"):
        rest = spec[4:]
        host, sep, port = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"bad tcp address {spec!r}; expected tcp:HOST:PORT"
            )
        return ("tcp", host, int(port))
    return ("unix", spec)


def format_address(parsed: tuple) -> str:
    if parsed[0] == "tcp":
        return f"tcp:{parsed[1]}:{parsed[2]}"
    return parsed[1]


def tune(sock: socket.socket) -> socket.socket:
    """The one place a connected or accepted socket is tuned:
    ``TCP_NODELAY`` on TCP (every protocol here is request -> reply, so
    a held-back small write is a stall, never a saving); a unix-domain
    socket has no Nagle and is left alone."""

    if sock.family != socket.AF_UNIX:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def hang_up(sock: Optional[socket.socket],
            unix_path: Optional[str] = None) -> None:
    """Shut down and close *sock*, unlink *unix_path*; never raises
    (teardown paths).  The shutdown is what ends the connection for a
    peer — or a thread blocked in ``accept``/``recv`` — even while a
    forked child still holds a copy of the descriptor."""

    if sock is not None:
        with suppress(OSError):
            sock.shutdown(socket.SHUT_RDWR)
        with suppress(OSError):
            sock.close()
    if unix_path is not None:
        with suppress(OSError):
            os.unlink(unix_path)


def listen(spec: str) -> tuple:
    """Server-side bind + listen on an address spec.

    Returns ``(sock, address, unix_path)``: *address* is the spec
    clients connect to (the real port when the spec asked for ``0``),
    *unix_path* the socket file the owner unlinks on close (``None``
    for TCP).  A stale unix socket file is replaced.
    """

    parsed = parse_address(spec)
    if parsed[0] == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target, unix_path = (parsed[1], parsed[2]), None
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target = unix_path = parsed[1]
        hang_up(None, unix_path)  # a stale socket file, if any
    try:
        sock.bind(target)
        sock.listen()
    except BaseException:
        sock.close()
        raise
    if unix_path is None:
        spec = format_address(("tcp", parsed[1], sock.getsockname()[1]))
    return sock, spec, unix_path


def connect(spec: str, timeout: Optional[float] = None) -> socket.socket:
    """Client-side connect to a server address spec.

    *timeout* bounds the connect itself **and** becomes the socket's
    initial read timeout; ``None`` blocks indefinitely (the historical
    behaviour — prefer :func:`connect_retry` for anything that must
    survive a dead or not-yet-started peer).
    """

    parsed = parse_address(spec)
    if parsed[0] == "tcp":
        sock = tune(socket.create_connection(
            (parsed[1], parsed[2]), timeout=timeout
        ))
    else:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if timeout is not None:
                sock.settimeout(timeout)
            sock.connect(parsed[1])
        except BaseException:
            # create_connection closes its own failed attempts; this
            # socket is ours to close, not the garbage collector's.
            sock.close()
            raise
    return sock


def connect_retry(
    spec: str,
    *,
    timeout: Optional[float] = 10.0,
    attempts: int = 5,
    backoff_base: float = 0.05,
    backoff_max: float = 2.0,
    sleep: Callable[[float], None] = time.sleep,
) -> socket.socket:
    """Bounded exponential-backoff connect.

    Tries up to *attempts* times, sleeping ``backoff_base * 2**k``
    (capped at *backoff_max*) between tries; each individual connect is
    bounded by *timeout* seconds, so the worst case is a known, finite
    wall-clock — never the block-forever of a bare ``connect`` against
    a dead peer.  Raises ``ConnectionError`` naming the address and the
    last underlying error once the budget is spent.

    *sleep* is injectable for tests (deterministic backoff assertions
    without wall-clock waits).
    """

    if attempts < 1:
        raise ValueError("connect_retry needs attempts >= 1")
    delay = backoff_base
    last: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt:
            sleep(min(delay, backoff_max))
            delay *= 2
        try:
            return connect(spec, timeout)
        except (OSError, ConnectionError) as exc:
            last = exc
    raise ConnectionError(
        f"could not connect to {spec!r} after {attempts} attempt(s): {last}"
    )


def build_http_response(status: str, content_type: str, body: bytes) -> bytes:
    """One complete ``Connection: close`` HTTP response (used by every
    surface that serves plain GETs over the shared transport)."""

    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    return head + body
