"""Length-prefixed binary frames and record streams.

The JSON-lines protocol (:mod:`repro.net.protocol`) is the right wire
for commands and events, but array content must not be spelled out in
a JSON string.  A **frame** carries a small JSON header plus an opaque
binary payload::

    +---------------+----------------+------------------+-----------+
    | header length | payload length |  header (JSON)   |  payload  |
    |   u32 big-e   |   u32 big-e    |  UTF-8, compact  | raw bytes |
    +---------------+----------------+------------------+-----------+

The distributed backend's hellos and control requests are frames.  The
task-graph service **attaches** frames to a JSON line instead: a line
that says ``"frames": N`` is followed by N frames, each a datum blob of
:mod:`repro.net.codec` (:func:`send_record`, :class:`RecordReader`).
A **record stream** — a process worker's pipe, a cluster dispatch
socket — carries task records and replies, each one message behind
``multiprocessing``'s length prefix (``!i``, or ``-1`` then ``!Q`` from
2 GiB up) and no header; :class:`MessageReader` parses both.

A frame, a record with all its attachments (:func:`send_record`), or a
batch of messages (:func:`send_messages`) costs **one syscall and no
timer**: a single gather write (``sendmsg``), so a small one is one TCP
segment and a payload is never copied into a joined buffer.  Two
writes would make request -> reply write-write-read, which Nagle holds
back until the peer's delayed ACK (~40 ms each way); every TCP socket
``repro.net`` makes also carries ``TCP_NODELAY``
(:func:`repro.net.protocol.tune`), so the tail of a large write does
not wait either.  Both are point-to-point between trusted processes
(payloads may be pickled), as :mod:`repro.mp`'s pipes — never expose
an agent port to an untrusted network.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Optional, Sequence

from .protocol import NetClosed, NetTimeout, decode, encode

__all__ = [
    "FrameError",
    "MessageReader",
    "RecordReader",
    "encode_record",
    "send_record",
    "send_frame",
    "send_messages",
    "recv_frame",
    "recv_exact",
    "STREAM_VERSION",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
]

_PREFIX = struct.Struct("!II")
#: A record stream message's length prefix (-1: a 64-bit one follows).
_SIZE = struct.Struct("!i")
_BIG_SIZE = struct.Struct("!Q")
#: The record stream's version, named in a cluster dispatch hello (the
#: JSON-headed task frames it replaces were version 1).
STREAM_VERSION = 2
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

    send_record(sock, b"", ((header, payload),))


def send_messages(sock: socket.socket, messages) -> None:
    """Write *messages* (bytes-like) to a record stream in one gather
    write; :class:`NetClosed` on a dead socket."""

    pending = []
    for message in messages:
        body = memoryview(message).cast("B")
        size = len(body)
        pending += [_SIZE.pack(size) if size <= 0x7fffffff
                    else _SIZE.pack(-1) + _BIG_SIZE.pack(size), body]
    _gather(sock, pending)


def _gather(sock: socket.socket, pending: list) -> None:
    done = 0
    try:
        while done < len(pending):
            # The kernel may take any prefix of the gather list (a
            # payload beyond the socket buffer, a signal): skip what
            # went out whole, trim the buffer it stopped in, go again.
            sent = sock.sendmsg(pending[done:done + 1024])  # IOV_MAX
            while done < len(pending) and sent >= len(pending[done]):
                sent -= len(pending[done])
                done += 1
            if done < len(pending):
                pending[done] = pending[done][sent:]
    except OSError as exc:
        raise NetClosed(f"peer gone while sending: {exc}") from None


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly *n* bytes; :class:`NetClosed` on EOF, preserving
    the socket's current timeout for :class:`NetTimeout`."""

    chunks, remaining = [], n
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
    head_len, payload_len = _PREFIX.unpack(recv_exact(sock, _PREFIX.size))
    if head_len > MAX_HEADER_BYTES or payload_len > MAX_PAYLOAD_BYTES:
        raise FrameError(
            f"implausible frame ({head_len} header / {payload_len} payload "
            f"bytes); not a repro frame stream")
    try:
        header = _DECODE(recv_exact(sock, head_len).decode())
    except ValueError as exc:
        raise FrameError(f"frame header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    return header, recv_exact(sock, payload_len)


def encode_record(record: dict) -> tuple[bytes, Sequence]:
    """``(line, attachments)`` of one record.  In memory a record's
    ``frames`` is a list of ``(meta, payload)`` blobs; on the wire the
    line carries their count and the blobs follow it as frames."""

    frames = record.get("frames")
    if frames is not None:
        record = dict(record, frames=len(frames))
    return encode(record), frames or ()


def send_record(sock: socket.socket, line: bytes, frames: Sequence = ()) -> None:
    """Write one encoded record, line and attachments, in one gather
    write.  Where several threads write to *sock* the caller holds its
    write lock across the call, so nothing splices between a line and
    the attachments it announced."""

    pending = [line]
    for meta, payload in frames:
        head = _ENCODE(meta).encode()
        body = memoryview(payload).cast("B")
        pending += [_PREFIX.pack(len(head), len(body)) + head, body]
    _gather(sock, pending)


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
        self._pos = 0       # from this offset

    def recv(self, n: int) -> bytes:
        if self._pos == len(self._buffer) and n < 65536:
            self._fill()  # a bigger read goes straight to its caller
        chunk = self._buffer[self._pos:self._pos + n]
        self._pos += len(chunk)
        return chunk or self._sock.recv(n)

    def _fill(self) -> None:
        sock = self._sock
        try:
            chunk = sock.recv(65536)
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


class MessageReader:
    """The inbound half of a record stream over ``read(n)`` (up to *n*
    bytes of the channel, ``b""`` at its end)."""

    def __init__(self, read):
        self._read = read
        self._parts: list = []  # bytes read and not yet handed on
        self._missing = 0       # what the first message there lacks

    def messages(self) -> list:
        """Read once; every message that completed, as memoryviews (one
        longer than a read is joined once, when whole).  ``EOFError`` at
        the end of the stream, :class:`FrameError` on a foreign prefix."""

        chunk = self._read(max(65536, self._missing))
        if not chunk:
            raise EOFError("the peer closed the record stream")
        self._parts.append(chunk)
        if len(chunk) < self._missing:
            self._missing -= len(chunk)
            return []
        buf = b"".join(self._parts)
        view = memoryview(buf)
        out, pos, end = [], 0, len(buf)
        self._missing = 0
        while end - pos >= 4:
            size, head = _SIZE.unpack_from(buf, pos)[0], 4
            if size < 0:
                if size != -1:
                    raise FrameError(f"message length {size}; not a record "
                                     f"stream")
                if end - pos < 12:
                    break
                size, head = _BIG_SIZE.unpack_from(buf, pos + 4)[0], 12
            if pos + head + size > end:
                self._missing = pos + head + size - end
                break
            out.append(view[pos + head:pos + head + size])
            pos += head + size
        self._parts = [buf[pos:]] if pos < end else []
        return out
