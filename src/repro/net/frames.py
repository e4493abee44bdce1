"""Length-prefixed binary frames for bulk data transport.

The JSON-lines protocol (:mod:`repro.net.protocol`) is the right wire
for commands and events, but array content must not be spelled out in
a JSON string.  A **frame** carries a small JSON header plus an opaque
binary payload::

    +---------------+----------------+------------------+-----------+
    | header length | payload length |  header (JSON)   |  payload  |
    |   u32 big-e   |   u32 big-e    |  UTF-8, compact  | raw bytes |
    +---------------+----------------+------------------+-----------+

The header names what the payload is (``kind``, blob metadata, a task
sequence number); the payload is whatever bytes the two ends agreed on
— ndarray content, a pickled task message.  The distributed backend
(:mod:`repro.dist`) makes every master<->agent hop one frame in each
direction.  A JSON-lines surface with bulk data to move (the task-graph
service) **attaches** frames to a record instead: a line that says
``"frames": N`` is followed by N frames, each a datum blob of
:mod:`repro.net.codec` (:func:`send_record`, :class:`RecordReader`).

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
from typing import Optional, Sequence

from .protocol import NetClosed, NetTimeout, decode, encode

__all__ = [
    "FrameError",
    "RecordReader",
    "encode_record",
    "send_record",
    "send_frame",
    "recv_frame",
    "recv_exact",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
]

_PREFIX = struct.Struct("!II")
#: Built once (``json.dumps(..., separators=...)`` would per call).
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_DECODE = json.JSONDecoder().decode

#: Guard rails against a corrupt/foreign peer, not real limits.  A
#: record's line counts as a header.
MAX_HEADER_BYTES = 16 << 20
MAX_PAYLOAD_BYTES = 4 << 30


class FrameError(ConnectionError):
    """The peer sent bytes that are not a frame."""


def send_frame(sock: socket.socket, header: dict, payload=b"") -> None:
    """Write one frame; raises :class:`NetClosed` on a dead socket.

    *payload* is any contiguous bytes-like object (``bytes``,
    ``bytearray``, ``memoryview``); it is gathered, never copied.
    """

    head = _ENCODE(header).encode()
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
    head_len, payload_len = _lengths(recv_exact(sock, _PREFIX.size))
    try:
        header = _DECODE(recv_exact(sock, head_len).decode())
    except ValueError as exc:
        raise FrameError(f"frame header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    return header, recv_exact(sock, payload_len)


def _lengths(prefix: bytes) -> tuple[int, int]:
    head_len, payload_len = _PREFIX.unpack(prefix)
    if head_len > MAX_HEADER_BYTES or payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"implausible frame ({head_len} header / {payload_len} payload "
            f"bytes); not a repro frame stream"
        )
    return head_len, payload_len


def encode_record(record: dict) -> tuple[bytes, Sequence]:
    """``(line, attachments)`` of one record.  In memory a record's
    ``frames`` is a list of ``(meta, payload)`` blobs; on the wire the
    line carries their count and the blobs follow it as frames."""

    frames = record.get("frames")
    if frames is not None:
        record = dict(record, frames=len(frames))
    return encode(record), frames or ()


def send_record(sock: socket.socket, line: bytes, frames: Sequence = ()) -> None:
    """Write one encoded record.  Where several threads write to *sock*
    the caller holds its write lock across the call, so nothing splices
    between a line and the attachments it announced."""

    sock.sendall(line)
    for meta, payload in frames:
        send_frame(sock, meta, payload)


class RecordReader:
    """The buffered inbound half of a connection: JSON lines with their
    attachments (:meth:`read`), or bare frames — :func:`recv_frame`
    parses them from this object exactly as from a socket.  The socket
    is read in gulps, so a small frame costs one ``recv`` syscall, not
    one each for prefix, header and payload."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.settimeout = sock.settimeout
        self._buffer = b""  # everything received and not yet handed on,
        self._pos = 0       # from this offset;
        self._missing = 0   # what the frame there still needs (frames())

    def recv(self, n: int) -> bytes:
        if self._pos == len(self._buffer) and n < 65536:
            self._fill()  # a bigger read goes straight to its caller
        chunk = self._buffer[self._pos:self._pos + n]
        self._pos += len(chunk)
        return chunk or self._sock.recv(n)

    def frames(self) -> list[tuple[dict, bytes]]:
        """One read of the socket, then every frame now whole in the
        buffer (a poll loop's inbound half: one ``recv`` per wake-up)."""

        self._fill(self._missing)
        out = []
        while (have := len(self._buffer) - self._pos) >= _PREFIX.size:
            head_len, payload_len = _lengths(
                self._buffer[self._pos:self._pos + _PREFIX.size])
            self._missing = _PREFIX.size + head_len + payload_len - have
            if self._missing > 0:
                break
            out.append(recv_frame(self))
        return out

    def _fill(self, more: int = 0) -> None:
        sock = self._sock
        try:
            # Gulps; a frame known to need *more* asks for all of it.
            chunk = sock.recv(65536) if more <= 65536 else sock.recv(more)
        except (TimeoutError, socket.timeout):
            raise NetTimeout(
                f"no record within {self._sock.gettimeout()}s") from None
        except OSError as exc:
            raise NetClosed(str(exc)) from None
        if not chunk:
            raise NetClosed("peer closed the connection")
        self._buffer = self._buffer[self._pos:] + chunk
        self._pos = 0

    def peek(self, n: int) -> bytes:
        """The next *n* bytes, left unconsumed (a protocol sniff)."""

        while len(self._buffer) - self._pos < n:
            self._fill()
        return self._buffer[self._pos:self._pos + n]

    def until(self, mark: bytes, limit: int = MAX_HEADER_BYTES) -> bytes:
        """Consume through the next *mark*; the bytes before it.
        :class:`FrameError` once more than *limit* bytes hold none."""

        while True:
            end = self._buffer.find(mark, self._pos)
            if end >= 0:
                found = self._buffer[self._pos:end]
                self._pos = end + len(mark)
                return found
            if len(self._buffer) - self._pos > limit:
                raise FrameError(f"no {mark!r} within {limit} bytes")
            self._fill()

    def read(self, timeout: Optional[float] = None) -> dict:
        """Next record, its ``frames`` count replaced by the blobs that
        followed the line; blank and unparseable lines are skipped.
        :class:`NetTimeout` when no whole line arrives in *timeout*
        (``None``: the socket's own; the call can be repeated);
        :class:`NetClosed` at end of stream or when an attachment stalls
        (the stream is lost); :class:`FrameError` past the guard rails.
        """

        if timeout is not None:
            self.settimeout(timeout)
        record = None
        while record is None:
            record = decode(self.until(b"\n"))
        count = record.get("frames")
        if count is not None:
            # Each frame brings an 8-byte prefix: a count whose prefixes
            # alone outweigh any header is not a record's.
            if type(count) is not int \
                    or not 0 <= count * _PREFIX.size <= MAX_HEADER_BYTES:
                raise FrameError(f"implausible attachment count {count!r}")
            try:
                record["frames"] = [recv_frame(self) for _ in range(count)]
            except NetTimeout as exc:
                raise NetClosed(f"record lost mid-attachment: {exc}") from None
        return record
