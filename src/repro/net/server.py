"""The shared JSON-lines socket server (one background accept thread).

Every accepted client first receives the ``hello`` record and the full
retained history (so a late attacher reconstructs the stream exactly),
then rides the live stream.  A per-client reader thread parses command
lines and hands them to the owner's handler; the resulting ``ack``
goes only to that client.

Publishing happens on the *caller's* thread — a slow or dead client
never blocks the owner, only the publisher, and a client whose socket
errors is dropped.

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

from .protocol import build_http_response, decode, encode, hang_up, listen, tune

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
    for a successful ack.  *conn* is the connection's context: a blank
    namespace the server creates per accepted connection, on which a
    stateful owner keeps what it learns about the peer (stateless
    owners ignore it); its one preset member is ``peer_gone()``, a
    non-blocking check that the peer has closed its end.  A raised
    exception becomes the ack's ``error``: its ``to_wire()`` dict when
    it has one, else ``str(exc)``.
    *hello* is the dict sent (with
    ``ev: hello`` added) as every connection's first record.  *name*
    prefixes the accept/reader thread names so the owning subsystem
    stays identifiable in thread dumps.
    """

    def __init__(
        self,
        address: str,
        handler: Callable[[dict, SimpleNamespace], dict],
        hello: Optional[dict] = None,
        http_responder: Optional[Callable[[str], bytes]] = None,
        name: str = "repro-net",
    ):
        self._handler = handler
        self._hello = dict(hello or {})
        self._hello["ev"] = "hello"
        self._name = name
        #: Optional ``fn(path) -> bytes`` serving plain HTTP GETs (the
        #: health exposition endpoint passes its Prometheus router
        #: here).  When set, the hello/backlog replay is
        #: *deferred* until the first client bytes identify the
        #: protocol — an HTTP client must not receive JSON lines ahead
        #: of its response.  ``None`` (every live session) keeps the
        #: original send-hello-on-accept behaviour.
        self._http_responder = http_responder
        self._sock, self.address, self._unix_path = listen(address)
        self._lock = threading.Lock()
        self._clients: list[socket.socket] = []
        #: Per-client write locks: the publisher thread (events) and the
        #: client's reader thread (command acks) both write to the same
        #: socket, and two concurrent ``sendall`` calls may interleave
        #: *partial* writes — silently corrupting the line framing.
        self._wlocks: dict[socket.socket, threading.Lock] = {}
        self._history: list[bytes] = []
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # publishing (called from the owner's publisher thread)
    # ------------------------------------------------------------------
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

    def _send(self, client: socket.socket, line: bytes) -> None:
        lock = self._wlocks.get(client)
        if lock is None:
            return  # concurrently dropped; nothing to write to
        try:
            with lock:
                client.sendall(line)
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

    # ------------------------------------------------------------------
    # accepting / command routing
    # ------------------------------------------------------------------
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
                backlog = list(self._history)
                # Register *before* replay is complete would interleave
                # live lines into the backlog out of order, so replay
                # happens while holding the lock — attach is rare and
                # the backlog bounded by the stream size.  With an HTTP
                # responder the replay is deferred to the reader thread
                # (after protocol sniffing) instead.
                if self._http_responder is None:
                    try:
                        client.sendall(
                            encode(self._hello) + b"".join(backlog)
                        )
                    except OSError:
                        client.close()
                        continue
                self._clients.append(client)
                self._wlocks[client] = threading.Lock()
            threading.Thread(
                target=self._client_loop,
                args=(client,),
                name=f"{self._name}-client",
                daemon=True,
            ).start()

    def _client_loop(self, client: socket.socket) -> None:
        conn = SimpleNamespace(peer_gone=lambda: _peer_gone(client))
        try:
            self._serve_client(client, conn)
        finally:
            self._drop(client)

    def _serve_client(self, client: socket.socket, conn) -> None:
        buffer: Optional[bytes] = b""
        if self._http_responder is not None:
            buffer = self._sniff_http(client)
        while buffer is not None:
            # Drain complete lines first: the protocol sniff may have
            # buffered the client's first command already, and a recv
            # before processing it would deadlock a request/reply
            # client waiting for its ack.
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                command = decode(line)
                if command is None:
                    continue
                if command.get("cmd") == "detach":
                    self._send(client, encode({"ev": "bye"}))
                    return
                self._send(client, encode(self._run(command, conn)))
            try:
                chunk = client.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                return
            buffer += chunk

    def _sniff_http(self, client: socket.socket) -> Optional[bytes]:
        """Identify the client's protocol from its first bytes.

        Returns ``None`` after serving an HTTP ``GET``/``HEAD`` (or when
        the peer is gone); otherwise sends the deferred hello + backlog
        replay and returns the buffered bytes for the JSON loop to
        continue with.
        """

        buffer = b""
        while len(buffer) < 5:
            try:
                chunk = client.recv(65536)
            except OSError:
                chunk = b""
            if not chunk:
                return None
            buffer += chunk
        if buffer.startswith(b"GET ") or buffer.startswith(b"HEAD "):
            # Drain the request head (best effort; one request per
            # connection, Connection: close semantics).
            while b"\r\n\r\n" not in buffer and len(buffer) < 65536:
                try:
                    chunk = client.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                buffer += chunk
            request_line = buffer.split(b"\r\n", 1)[0].decode(
                "latin-1", "replace"
            )
            parts = request_line.split()
            path = parts[1] if len(parts) > 1 else "/"
            try:
                response = self._http_responder(path)
            except Exception as exc:  # noqa: BLE001 - report, don't die
                response = build_http_response(
                    "500 Internal Server Error", "text/plain",
                    str(exc).encode("utf-8", "replace"),
                )
            self._send(client, response)
            return None
        # JSON-lines client: deliver the deferred hello + backlog now.
        with self._lock:
            backlog = list(self._history)
        self._send(client, encode(self._hello) + b"".join(backlog))
        return buffer

    def _run(self, command: dict, conn) -> dict:
        ack = {
            "ev": "ack",
            "seq": command.get("seq"),
            "cmd": command.get("cmd"),
        }
        try:
            ack["data"] = self._handler(command, conn)
            ack["ok"] = True
        except Exception as exc:  # noqa: BLE001 - reported to the client
            ack["ok"] = False
            to_wire = getattr(exc, "to_wire", None)
            ack["error"] = str(exc) if to_wire is None else to_wire()
        return ack

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = list(self._clients)
            self._clients.clear()
        bye = encode({"ev": "bye"})
        for client in clients:
            # Reader threads may still be writing acks: take the same
            # per-client write lock so the goodbye cannot splice into
            # the middle of another line.
            lock = self._wlocks.pop(client, None) or threading.Lock()
            try:
                with lock:
                    client.sendall(bye)
            except OSError:
                pass
            hang_up(client)
        # Closing a listening socket does not interrupt a blocked
        # accept() on Linux; shutting it down does.  Without that the
        # accept thread — and the listening port — outlive close()
        # until a stray connection arrives.
        hang_up(self._sock, self._unix_path)
        self._accept_thread.join(timeout=5.0)
