"""repro.net: the shared transport every networked surface rides on.

The live/health suites already exercise the transport end to end
through their wrappers; this file pins the extraction contract itself —
the wrapper classes ARE the shared ones, the historical import paths
still resolve, and the generic Server/Client pair works standalone
(including deferred-hello servers, which no wrapper exercises
directly).
"""

import gc
import socket
import threading
import time
import warnings

import pytest

import repro.net as net
from repro.net import Client, NetClosed, NetTimeout, Server

pytestmark = pytest.mark.live


class TestExtractionContract:
    def test_live_server_is_a_net_server(self):
        from repro.live.server import LiveServer

        assert issubclass(LiveServer, Server)

    def test_live_client_is_a_net_client(self):
        from repro.live.client import LiveClient

        assert issubclass(LiveClient, Client)

    def test_live_exceptions_are_net_exceptions(self):
        from repro.live.client import LiveClosed, LiveTimeout

        assert LiveTimeout is NetTimeout
        assert LiveClosed is NetClosed

    def test_wire_helpers_are_shared(self):
        import repro.live.protocol as live_protocol
        import repro.net.protocol as net_protocol

        for name in ("encode", "decode", "parse_address",
                     "format_address", "connect"):
            assert getattr(live_protocol, name) is getattr(
                net_protocol, name
            ), name

    def test_exposition_rides_the_shared_server(self):
        from repro.obs.exposition import ExpositionServer

        server = ExpositionServer("tcp:127.0.0.1:0")
        try:
            assert isinstance(server._server, Server)
        finally:
            server.close()


class TestStandaloneServer:
    def _serve(self, **kwargs):
        def handler(command, conn):
            if command.get("cmd") == "echo":
                return {"echo": command.get("value")}
            raise ValueError(f"unknown command {command.get('cmd')!r}")

        return Server(
            "tcp:127.0.0.1:0", handler, hello={"service": "test"}, **kwargs
        )

    def test_hello_then_command_roundtrip(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                assert client.hello.get("service") == "test"
                assert client.command("echo", value=7) == {"echo": 7}
                with pytest.raises(RuntimeError, match="unknown command"):
                    client.command("nope")
        finally:
            server.close()

    def test_publish_reaches_connected_clients(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                server.publish({"ev": "tick", "n": 1})
                record = client.recv(timeout=5.0)
                assert record == {"ev": "tick", "n": 1}
        finally:
            server.close()

    def test_history_replayed_to_late_attacher(self):
        server = self._serve()
        try:
            server.publish({"ev": "tick", "n": 1})
            server.publish({"ev": "tick", "n": 2}, retain=False)
            server.publish({"ev": "tick", "n": 3})
            with Client(server.address, timeout=5.0) as client:
                assert client.recv(timeout=5.0)["n"] == 1
                # n=2 was not retained; next retained line is n=3.
                assert client.recv(timeout=5.0)["n"] == 3
        finally:
            server.close()

    def test_deferred_hello_with_http_responder(self):
        # With an http_responder the hello only lands after the first
        # client bytes identify the protocol — expect_hello=False plus
        # a first command is the JSON-lines handshake.
        def responder(path):
            body = b"hi"
            return (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                    b"Connection: close\r\n\r\n" + body)

        server = self._serve(http_responder=responder)
        try:
            client = Client(server.address, timeout=5.0, expect_hello=False)
            try:
                assert client.command("echo", value="x") == {"echo": "x"}
                # The deferred hello arrived before the ack and was
                # parked on the pending buffer.
                hellos = [r for r in client.drain(idle=0.05)
                          if r.get("ev") == "hello"]
                assert len(hellos) == 1
            finally:
                client.detach()
        finally:
            server.close()

    def test_http_get_served_on_same_port(self):
        import socket as socketmod

        def responder(path):
            body = path.encode()
            head = (f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n").encode()
            return head + body

        server = self._serve(http_responder=responder)
        try:
            host, port = server.address[4:].rsplit(":", 1)
            sock = socketmod.create_connection((host, int(port)), timeout=5.0)
            try:
                sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
                page = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    page += chunk
            finally:
                sock.close()
            assert page.startswith(b"HTTP/1.1 200 OK")
            assert page.endswith(b"/metrics")
        finally:
            server.close()

    def test_close_says_bye(self):
        server = self._serve()
        client = Client(server.address, timeout=5.0)
        barrier = threading.Event()
        try:
            server.close()
            barrier.wait(0.05)
            with pytest.raises(NetClosed):
                # bye (or the dropped socket) surfaces as NetClosed.
                while True:
                    client.recv(timeout=5.0)
        finally:
            client.close()

    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_close_stops_accepting(self, kind, tmp_path):
        """Closing a listening socket does not wake a blocked accept()
        on Linux: without the listener shutdown the accept thread — and
        for tcp the listening port — outlived close()."""

        address = ("tcp:127.0.0.1:0" if kind == "tcp"
                   else str(tmp_path / "net.sock"))
        server = Server(address, lambda cmd, conn: {}, name="repro-closing")
        net.connect(server.address, timeout=5.0).close()  # it listens
        server.close()
        assert not [
            t for t in threading.enumerate()
            if t.name == "repro-closing-accept" and t.is_alive()
        ]
        with pytest.raises(OSError):
            net.connect(server.address, timeout=2.0)

    def test_connection_context_peer_gone_and_wire_shaped_errors(self):
        class Shaped(Exception):
            def to_wire(self):
                return {"code": "shaped", "detail": 7}

        gone = []

        def handler(command, conn):
            if command["cmd"] == "name":
                conn.name = command["value"]
            elif command["cmd"] == "boom":
                raise Shaped("flattened if it crossed as str")
            elif command["cmd"] == "linger":
                # A handler blocked on long work: nobody reads the
                # socket, so it has to ask whether its peer is there.
                deadline = time.monotonic() + 5.0
                while not conn.peer_gone() and time.monotonic() < deadline:
                    time.sleep(0.01)
                gone.append(conn.name)
            return {"name": conn.name, "gone": conn.peer_gone()}

        server = Server("tcp:127.0.0.1:0", handler)
        try:
            a = Client(server.address, timeout=5.0)
            b = Client(server.address, timeout=5.0)
            a.command("name", value="a")
            b.command("name", value="b")
            # Each connection kept its own context across commands.
            assert a.command("recall") == {"name": "a", "gone": False}
            assert b.command("recall") == {"name": "b", "gone": False}
            a._sock.sendall(net.encode({"cmd": "boom", "seq": 99}))
            ack = a.wait_for(lambda r: r.get("seq") == 99, timeout=5.0)
            assert ack["ok"] is False
            assert ack["error"] == {"code": "shaped", "detail": 7}
            b._sock.sendall(net.encode({"cmd": "linger", "seq": 100}))
            time.sleep(0.05)
            assert gone == []  # connected and silent is not gone
            b.close()          # abrupt, mid-command
            deadline = time.monotonic() + 5.0
            while not gone and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gone == ["b"]
            assert a.command("recall") == {"name": "a", "gone": False}
        finally:
            server.close()


# ---------------------------------------------------------------------------
# client hardening: bounded connect retries with exponential backoff
# ---------------------------------------------------------------------------

class TestConnectRetry:
    @pytest.mark.parametrize("kind", ["tcp", "unix"])
    def test_refused_connect_leaks_no_socket(self, kind, tmp_path):
        if kind == "tcp":
            spec = "tcp:127.0.0.1:1"  # reserved port: nothing listens
        else:
            spec = str(tmp_path / "dead.sock")
            dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            dead.bind(spec)  # the path exists, nobody listens on it
            dead.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                net.connect(spec, timeout=1.0)
            gc.collect()  # an unclosed socket warns when collected
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_gives_up_after_bounded_attempts(self):
        from repro.net import connect_retry

        sleeps = []
        with pytest.raises(ConnectionError) as exc:
            connect_retry(
                "tcp:127.0.0.1:1",  # reserved port: nothing listens
                timeout=0.2, attempts=4,
                backoff_base=0.05, backoff_max=0.2,
                sleep=sleeps.append,
            )
        # 3 sleeps between 4 attempts, doubling and capped.
        assert sleeps == [0.05, 0.1, 0.2]
        assert "4 attempt(s)" in str(exc.value)

    def test_backoff_is_capped(self):
        from repro.net import connect_retry

        sleeps = []
        with pytest.raises(ConnectionError):
            connect_retry(
                "tcp:127.0.0.1:1", timeout=0.2, attempts=6,
                backoff_base=0.1, backoff_max=0.25,
                sleep=sleeps.append,
            )
        assert sleeps == [0.1, 0.2, 0.25, 0.25, 0.25]

    def test_attempts_must_be_positive(self):
        from repro.net import connect_retry

        with pytest.raises(ValueError):
            connect_retry("tcp:127.0.0.1:1", attempts=0)

    def test_succeeds_once_server_appears(self):
        import socket as socketmod

        from repro.net import connect_retry

        listener = socketmod.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        spec = f"tcp:127.0.0.1:{port}"

        calls = []

        def late_listen(delay):
            calls.append(delay)
            listener.listen(1)  # only now do connects succeed

        sock = connect_retry(
            spec, timeout=2.0, attempts=5, backoff_base=0.01,
            sleep=late_listen,
        )
        try:
            assert calls  # first attempt failed, retry happened
        finally:
            sock.close()
            listener.close()

    def test_client_exposes_connect_knobs(self):
        server = Server(
            "tcp:127.0.0.1:0", lambda cmd, conn: {"ok": True},
            hello={"service": "test"},
        )
        try:
            client = Client(
                server.address, timeout=5.0,
                connect_timeout=2.0, connect_attempts=3,
                backoff_base=0.01, backoff_max=0.05,
            )
            assert client.hello.get("service") == "test"
            client.close()
        finally:
            server.close()
