"""The shared JSON-lines socket server (one background accept thread).

Every connection speaks first, and its first bytes pick the protocol:
a plain HTTP ``GET``/``HEAD`` gets the owner's ``http_responder`` page
and is closed; anything else is a JSON-lines client, which receives the
``hello`` record and the full retained history (so a late attacher
reconstructs the stream exactly), then rides the live stream.  A
per-client reader thread parses command lines and hands them to the
owner's handler; the resulting ``ack`` goes only to that client.

Publishing happens on the *caller's* thread — a slow or dead client
never blocks the owner, only the publisher, and a client whose socket
errors is dropped.  A connection joins the fan-out only once it has
identified itself as JSON lines, in the same locked step that sends its
hello and backlog, so no published record reaches it before those.

A handler may block for as long as its command takes (the task-graph
service parks a connection's reader on a running graph): only that
connection waits.  Nobody is reading the socket meanwhile, so a handler
that cares whether its peer is still there asks ``conn.peer_gone()``.
"""

from __future__ import annotations

import socket
import threading
from types import SimpleNamespace
from typing import Callable, Optional

from .frames import RecordReader, encode_record, send_record
from .protocol import build_http_response, encode, hang_up, listen, tune

__all__ = ["Server"]


def _peer_gone(client: socket.socket) -> bool:
    """Has the peer closed its end?  A non-blocking peek: bytes waiting
    (a pipelined command) or nothing yet both mean it is still there.
    End-of-stream means gone — a peer that only half-closed
    (``shutdown(SHUT_WR)``) looks the same from here, so a client that
    wants its ack keeps its write side open."""

    try:
        return not client.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
    except BlockingIOError:
        return False
    except OSError:
        return True


class Server:
    """Bind, accept, fan out records, and route commands.

    *handler* is ``fn(cmd: dict, conn) -> dict`` returning the ``data``
    for a successful ack; a command's binary attachments arrive as its
    ``frames`` (a list of ``(meta, payload)`` blobs), and a ``frames``
    entry in the returned data leaves as the ack's.
    *conn* is the connection's context: a blank
    namespace the server creates per accepted connection, on which a
    stateful owner keeps what it learns about the peer (stateless
    owners ignore it); its one preset member is ``peer_gone()``, a
    non-blocking check that the peer has closed its end.  A raised
    exception becomes the ack's ``error``: its ``to_wire()`` dict when
    it has one, else ``str(exc)``.
    *http_responder* is ``fn(path) -> bytes``, the whole response to a
    plain HTTP ``GET``/``HEAD`` of *path* (a raised exception becomes a
    500).  *hello* is the dict sent (with ``ev: hello`` added) as every
    JSON-lines connection's first record.  *name* prefixes the
    accept/reader thread names so the owning subsystem stays
    identifiable in thread dumps.
    """

    def __init__(
        self,
        address: str,
        handler: Callable[[dict, SimpleNamespace], dict],
        *,
        http_responder: Callable[[str], bytes],
        hello: Optional[dict] = None,
        name: str = "repro-net",
    ):
        self._handler = handler
        self._http_responder = http_responder
        self._hello = dict(hello or {})
        self._hello["ev"] = "hello"
        self._name = name
        self._sock, self.address, self._unix_path = listen(address)
        self._lock = threading.Lock()
        #: Every open connection's write lock: the publisher thread
        #: (events) and the client's reader thread (command acks) both
        #: write to the same socket, and two concurrent ``sendall`` calls
        #: may interleave *partial* writes — silently corrupting the line
        #: framing — or splice a line between an ack and its attachments.
        self._wlocks: dict[socket.socket, threading.Lock] = {}
        #: The identified JSON-lines connections publish() writes to.
        self._clients: list[socket.socket] = []
        self._history: list[bytes] = []
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    def publish(self, record: dict, retain: bool = True) -> None:
        """Send *record* to every connected client.

        ``retain`` keeps the line in the history replayed to future
        attachers — structural records retain, periodic snapshots do
        not (a fresh one follows within the snapshot interval anyway).
        """

        line = encode(record)
        with self._lock:
            if self._closed:
                return
            if retain:
                self._history.append(line)
            clients = list(self._clients)
        for client in clients:
            self._send(client, line)

    def _send(self, client: socket.socket, line: bytes, frames=()) -> None:
        lock = self._wlocks.get(client)
        if lock is None:
            return  # concurrently dropped; nothing to write to
        try:
            with lock:
                send_record(client, line, frames)
        except OSError:
            self._drop(client)

    def _drop(self, client: socket.socket) -> None:
        with self._lock:
            if client in self._clients:
                self._clients.remove(client)
            self._wlocks.pop(client, None)
        hang_up(client)

    @property
    def client_count(self) -> int:
        with self._lock:
            return len(self._clients)

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed
            tune(client)
            with self._lock:
                if self._closed:
                    client.close()
                    return
                self._wlocks[client] = threading.Lock()
            threading.Thread(
                target=self._client_loop,
                args=(client,),
                name=f"{self._name}-client",
                daemon=True,
            ).start()

    def _client_loop(self, client: socket.socket) -> None:
        conn = SimpleNamespace(peer_gone=lambda: _peer_gone(client))
        # One reader owns every byte received: what the protocol sniff
        # looks at may already be the client's whole first command, and
        # a recv before processing it would deadlock a request/reply
        # client waiting for its ack.
        reader = RecordReader(client)
        try:
            if reader.peek(5).startswith((b"GET ", b"HEAD ")):
                self._answer_http(client, reader)
                return
            with self._lock:
                # Replay and registration are one step: a record
                # published meanwhile is either in this backlog or sent
                # after it, never before the hello.  Attach is rare and
                # the backlog bounded by the stream size.
                client.sendall(encode(self._hello) + b"".join(self._history))
                self._clients.append(client)
            while True:
                command = reader.read()
                if command.get("cmd") == "detach":
                    self._send(client, encode({"ev": "bye"}))
                    return
                self._send(client, *encode_record(self._run(command, conn)))
        except OSError:
            pass  # peer gone, or bytes that are not this protocol
        finally:
            self._drop(client)

    def _answer_http(self, client: socket.socket, reader: RecordReader) -> None:
        # One request per connection (Connection: close semantics); its
        # head is read to the end so the close cannot reset the socket
        # over unread bytes before the response is delivered.
        head = reader.until(b"\r\n\r\n", 65536)
        parts = head.split(b"\r\n", 1)[0].decode("latin-1", "replace").split()
        try:
            response = self._http_responder(parts[1] if len(parts) > 1 else "/")
        except Exception as exc:  # noqa: BLE001 - report, don't die
            response = build_http_response(
                "500 Internal Server Error", "text/plain",
                str(exc).encode("utf-8", "replace"),
            )
        self._send(client, response)

    def _run(self, command: dict, conn) -> dict:
        ack = {
            "ev": "ack",
            "seq": command.get("seq"),
            "cmd": command.get("cmd"),
        }
        try:
            ack["data"] = data = self._handler(command, conn)
            if isinstance(data, dict) and "frames" in data:
                ack["frames"] = data.pop("frames")
            ack["ok"] = True
        except Exception as exc:  # noqa: BLE001 - reported to the client
            ack["ok"] = False
            to_wire = getattr(exc, "to_wire", None)
            ack["error"] = str(exc) if to_wire is None else to_wire()
        return ack

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients)
            connections = list(self._wlocks)
        bye = encode({"ev": "bye"})
        for client in clients:
            # Reader threads may still be writing acks: _send takes the
            # same per-client write lock, so the goodbye cannot splice
            # into the middle of another record.
            self._send(client, bye)
        for connection in connections:
            self._drop(connection)
        # Closing a listening socket does not interrupt a blocked
        # accept() on Linux; shutting it down does.  Without that the
        # accept thread — and the listening port — outlive close()
        # until a stray connection arrives.
        hang_up(self._sock, self._unix_path)
        self._accept_thread.join(timeout=5.0)
