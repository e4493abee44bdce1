"""Client side of the JSON-lines protocol (used by CLIs and tests).

The client speaks first: a server tells HTTP from JSON lines by a
connection's first bytes, so the server sends nothing, not even its
``hello``, until the client's first command arrives.  The hello then
precedes that command's ack and lands on :attr:`Client.hello`.

Deliberately single-threaded: every byte is read inside :meth:`recv`,
and a command waits for its own ``ack`` by seq while parking any
interleaved event records on an internal buffer that later ``recv``
calls serve first.  That makes scripted sessions deterministic — there
is no background reader racing the assertions.
"""

from __future__ import annotations

import socket
from typing import Callable, Optional

from .frames import RecordReader, encode_record, send_record
from .protocol import NetClosed, NetTimeout, connect_retry, encode, hang_up

__all__ = ["Client", "NetTimeout", "NetClosed"]


class Client:
    """Attach to a JSON-lines server; stream records; send commands.

    Nothing arrives before the first command (see the module
    docstring); its ack is preceded by the server's ``hello``, kept on
    :attr:`hello`, and the retained backlog, buffered for :meth:`recv`.

    Connect and read timeouts are separate knobs: *timeout* bounds
    each read (the historical meaning), *connect_timeout* bounds each
    connect attempt (defaulting to *timeout*), and *connect_attempts*
    retries a refused/unreachable peer with bounded exponential
    backoff (``backoff_base``/``backoff_max``) instead of failing on
    the first ECONNREFUSED — the knob dist agents and served sessions
    use to ride out a daemon that is still binding its port.
    """

    def __init__(
        self,
        address: str,
        timeout: float = 10.0,
        connect_timeout: Optional[float] = None,
        connect_attempts: int = 1,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
    ):
        self.address = address
        self.timeout = timeout
        self._sock: Optional[socket.socket] = connect_retry(
            address,
            timeout=timeout if connect_timeout is None else connect_timeout,
            attempts=connect_attempts,
            backoff_base=backoff_base,
            backoff_max=backoff_max,
        )
        self._reader = RecordReader(self._sock)
        self._pending: list[dict] = []
        self._seq = 0
        self._closed = False
        self.hello: dict = {}

    def recv(self, timeout: Optional[float] = None) -> dict:
        """Next record (buffered events first).  Raises
        :class:`NetTimeout` / :class:`NetClosed`."""

        if self._pending:
            return self._pending.pop(0)
        return self._recv_raw(self.timeout if timeout is None else timeout)

    def _recv_raw(self, timeout: float) -> dict:
        if self._sock is None:
            raise NetClosed("connection already closed")
        try:
            record = self._reader.read(timeout)
        except ConnectionError:
            self.close()
            raise
        if record.get("ev") == "bye":
            self.close()
            raise NetClosed("server ended the stream")
        return record

    def drain(self, idle: float = 0.2, limit: int = 100000) -> list[dict]:
        """Collect records until the stream goes quiet for *idle*
        seconds (or *limit* records arrive).

        *idle* must stay below any periodic record interval the server
        has (the live plane's snapshots default to 0.25s) — periodic
        records would otherwise keep an idle stream "busy" forever.

        A stream that ends mid-drain (the run finished and the server
        said ``bye``) is not an error here: whatever arrived before the
        goodbye is returned, and the next explicit :meth:`recv` or
        :meth:`command` raises :class:`NetClosed`.
        """

        records: list[dict] = []
        while len(records) < limit:
            try:
                records.append(self.recv(timeout=idle))
            except (NetTimeout, NetClosed):
                break
        return records

    def wait_for(
        self, predicate: Callable[[dict], bool], timeout: float = 30.0
    ) -> dict:
        """Consume records until *predicate* matches one; returns it.

        Records consumed on the way are gone — feed them to a dashboard
        inside *predicate* if they matter.
        """

        import time

        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NetTimeout(
                    f"predicate not satisfied within {timeout:.1f}s"
                )
            record = self.recv(timeout=remaining)
            if predicate(record):
                return record

    def request(self, cmd: str, **fields) -> dict:
        """Send a command; block for its ack; return the whole ack
        (``ok`` plus ``data`` or a possibly structured ``error``).

        A ``frames`` field (a list of ``(meta, payload)`` blobs) leaves
        as binary attachments behind the line, and an ack's attachments
        come back under the same key.  Events that arrive before the ack
        are buffered for :meth:`recv`; the server's ``hello`` is kept on
        :attr:`hello` instead.
        """

        sock = self._sock
        if sock is None:
            raise NetClosed("connection already closed")
        self._seq += 1
        seq = self._seq
        record = {"cmd": cmd, "seq": seq}
        record.update(fields)
        send_record(sock, *encode_record(record))
        while True:
            reply = self._recv_raw(self.timeout)
            if reply.get("ev") == "ack" and reply.get("seq") == seq:
                return reply
            if reply.get("ev") == "hello":
                self.hello = reply
            else:
                self._pending.append(reply)

    def command(self, cmd: str, **fields) -> dict:
        """:meth:`request`, returning only the ack's data; a ``not ok``
        ack raises ``RuntimeError`` with the error flattened."""

        reply = self.request(cmd, **fields)
        if not reply.get("ok"):
            raise RuntimeError(
                f"command {cmd!r} failed: {reply.get('error')}"
            )
        return reply.get("data", {})

    def detach(self) -> None:
        """Orderly goodbye (the server drops only this connection)."""

        sock = self._sock
        if sock is not None and not self._closed:
            try:
                sock.sendall(encode({"cmd": "detach"}))
            except OSError:
                pass
        self.close()

    def close(self) -> None:
        self._closed = True
        sock, self._sock = self._sock, None
        hang_up(sock)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()
