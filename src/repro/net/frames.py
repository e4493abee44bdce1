"""Length-prefixed binary frames for bulk data transport.

The JSON-lines protocol (:mod:`repro.net.protocol`) is the right wire
for commands and events, but array content must not be base64'd
through it.  A **frame** carries a small JSON header plus an opaque
binary payload::

    +---------------+----------------+------------------+-----------+
    | header length | payload length |  header (JSON)   |  payload  |
    |   u32 big-e   |   u32 big-e    |  UTF-8, compact  | raw bytes |
    +---------------+----------------+------------------+-----------+

The header names what the payload is (``kind``, blob metadata, a task
sequence number); the payload is whatever bytes the two ends agreed on
— ndarray content, a pickled task message.  The distributed backend
(:mod:`repro.dist`) is the first user: every master<->agent hop is one
frame in each direction.

A frame costs **one syscall and no timer**: prefix, header and payload
leave in a single gather write (``sendmsg``), so a small frame is one
TCP segment and a large payload is never copied into a joined buffer.
Two writes per frame would make the request -> reply dist protocol
write-write-read, which Nagle holds back until the peer's delayed ACK
(~40 ms each way); every TCP socket ``repro.net`` makes also carries
``TCP_NODELAY`` (:func:`repro.net.protocol.tune`), so the tail of a
frame larger than the socket buffer does not wait either.

Frames are point-to-point between trusted processes (payloads may be
pickled), the same trust model as :mod:`repro.mp`'s pipes — never
expose an agent port to an untrusted network.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional

from .client import NetClosed, NetTimeout

__all__ = [
    "FrameError",
    "send_frame",
    "recv_frame",
    "recv_exact",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
]

_PREFIX = struct.Struct("!II")

#: Guard rails against a corrupt/foreign peer, not real limits.
MAX_HEADER_BYTES = 16 << 20
MAX_PAYLOAD_BYTES = 4 << 30


class FrameError(ConnectionError):
    """The peer sent bytes that are not a frame."""


def send_frame(sock: socket.socket, header: dict, payload=b"") -> None:
    """Write one frame; raises :class:`NetClosed` on a dead socket.

    *payload* is any contiguous bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``); it is gathered, never copied.
    """

    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    body = memoryview(payload).cast("B")
    pending = [memoryview(_PREFIX.pack(len(head), len(body)) + head), body]
    try:
        while pending:
            # The kernel may take any prefix of the gather list (a
            # payload beyond the socket buffer, a signal): drop what
            # went out whole, trim the buffer it stopped in, go again.
            sent = sock.sendmsg(pending)
            while pending and sent >= len(pending[0]):
                sent -= len(pending.pop(0))
            if pending:
                pending[0] = pending[0][sent:]
    except OSError as exc:
        raise NetClosed(f"peer gone while sending frame: {exc}") from None


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes; :class:`NetClosed` on EOF, preserving
    the socket's current timeout for :class:`NetTimeout`."""

    if n == 0:
        return b""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (TimeoutError, socket.timeout):
            raise NetTimeout(
                f"frame read stalled with {remaining} byte(s) missing"
            ) from None
        except OSError as exc:
            raise NetClosed(str(exc)) from None
        if not chunk:
            raise NetClosed("peer closed mid-frame" if chunks
                            else "peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, timeout: Optional[float] = None
) -> tuple[dict, bytes]:
    """Read one ``(header, payload)`` frame.

    *timeout* (when given) applies to the whole frame via the socket's
    timeout; ``None`` keeps whatever the socket already has.
    """

    if timeout is not None:
        try:
            sock.settimeout(timeout)
        except OSError as exc:  # closed under us (EBADF): same contract
            raise NetClosed(str(exc)) from None
    prefix = recv_exact(sock, _PREFIX.size)
    head_len, payload_len = _PREFIX.unpack(prefix)
    if head_len > MAX_HEADER_BYTES or payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"implausible frame ({head_len} header / {payload_len} payload "
            f"bytes); not a repro frame stream"
        )
    head = recv_exact(sock, head_len)
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise FrameError(f"frame header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    payload = recv_exact(sock, payload_len)
    return header, payload
