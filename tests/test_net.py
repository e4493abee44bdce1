"""repro.net: the shared transport every networked surface rides on.

The live/health suites already exercise the transport end to end
through the runtime's endpoint; this file pins the extraction contract
itself — the live client IS the shared one, the historical import paths
still resolve, and the generic Server/Client pair works standalone
(including the first-bytes sniff: a published record never reaches a
connection before its HTTP answer or its hello) — and the binary frame
layer: what a frame is, that writing
one survives any partial send, and that no socket ``repro.net`` makes
or accepts waits on a Nagle/delayed-ACK timer.
"""

import gc
import json
import socket
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.net as net
from repro.net import Client, NetClosed, NetTimeout, Server
from repro.net.frames import (
    MAX_HEADER_BYTES,
    FrameError,
    RecordReader,
    encode_record,
    recv_frame,
    send_frame,
    send_record,
)
from repro.net.protocol import listen, tune

pytestmark = pytest.mark.live


def _page(path):
    """An ``http_responder`` that answers every GET with its path."""

    body = path.encode()
    return (f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode() + body


class TestExtractionContract:
    def test_live_client_is_a_net_client(self):
        from repro.live.client import LiveClient

        assert issubclass(LiveClient, Client)

    def test_live_exceptions_are_net_exceptions(self):
        from repro.live.client import LiveClosed, LiveTimeout

        assert LiveTimeout is NetTimeout
        assert LiveClosed is NetClosed

    def test_wire_helpers_are_shared(self):
        import repro.live as live
        import repro.live.protocol as live_protocol
        import repro.net.protocol as net_protocol

        # The live plane keeps no wire helpers of its own, not even as
        # re-exports; its package names net's.
        for name in ("encode", "decode", "parse_address",
                     "format_address", "connect"):
            assert not hasattr(live_protocol, name), name
        assert live.parse_address is net_protocol.parse_address
        assert live.PROTOCOL_VERSION is net_protocol.PROTOCOL_VERSION


class TestStandaloneServer:
    def _serve(self, **kwargs):
        def handler(command, conn):
            if command.get("cmd") == "echo":
                return {"echo": command.get("value")}
            raise ValueError(f"unknown command {command.get('cmd')!r}")

        kwargs.setdefault("http_responder", _page)
        return Server(
            "tcp:127.0.0.1:0", handler, hello={"service": "test"}, **kwargs
        )

    def test_hello_then_command_roundtrip(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                assert client.command("echo", value=7) == {"echo": 7}
                assert client.hello.get("service") == "test"
                with pytest.raises(RuntimeError, match="unknown command"):
                    client.command("nope")
        finally:
            server.close()

    def test_publish_reaches_connected_clients(self):
        server = self._serve()
        try:
            with Client(server.address, timeout=5.0) as client:
                client.command("echo")  # speak first: join the stream
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
                client.command("echo")  # the backlog precedes its ack
                assert client.recv(timeout=5.0)["n"] == 1
                # n=2 was not retained; next retained line is n=3.
                assert client.recv(timeout=5.0)["n"] == 3
        finally:
            server.close()

    def test_deferred_hello_with_http_responder(self):
        # The hello only lands after the first client bytes identify
        # the protocol; a first command is the JSON-lines handshake.
        server = self._serve()
        try:
            client = Client(server.address, timeout=5.0)
            try:
                assert client.hello == {}
                assert client.command("echo", value="x") == {"echo": "x"}
                # The deferred hello arrived before the ack and was kept
                # on the client, not parked on the pending buffer.
                assert client.hello == {"service": "test", "ev": "hello"}
                assert client.drain(idle=0.05) == []
            finally:
                client.detach()
        finally:
            server.close()

    def test_http_get_served_on_same_port(self):
        import socket as socketmod

        server = self._serve()
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
        server = Server(address, lambda cmd, conn: {}, http_responder=_page,
                        name="repro-closing")
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

        server = Server("tcp:127.0.0.1:0", handler, http_responder=_page)
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


    def test_attachments_ride_both_ways_and_publish_cannot_splice_in(self):
        """An ack and its frames leave under the client's write lock
        while another thread publishes as fast as it can: every ack
        still parses, with its own attachments behind it."""

        def handler(command, conn):
            (meta, payload), = command["frames"]
            return {"n": meta["n"],
                    "frames": [({"n": meta["n"], "back": True}, payload * 2)]}

        server = Server("tcp:127.0.0.1:0", handler, http_responder=_page)
        stop = threading.Event()

        def publisher():
            while not stop.is_set():
                server.publish({"ev": "tick", "pad": "x" * 512}, retain=False)

        noise = threading.Thread(target=publisher, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Client(server.address, timeout=10.0) as client:
                noise.start()
                for n in range(200):
                    body = bytes([n % 251]) * 3000
                    ack = client.request("double", frames=[({"n": n}, body)])
                    assert ack["ok"] and ack["data"] == {"n": n}
                    assert ack["frames"] == [({"n": n, "back": True}, body * 2)]
                ticks = [r for r in client._pending if r.get("ev") == "tick"]
                assert ticks and all(len(t["pad"]) == 512 for t in ticks)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            noise.join(10.0)
            server.close()
        assert not noise.is_alive()


class TestSniffBeforeFanOut:
    """A connection joins the publish fan-out only once its first bytes
    have identified it, in the step that sends its hello and backlog:
    records published while it is still silent never reach it first."""

    @pytest.fixture
    def publishing(self):
        server = Server(
            "tcp:127.0.0.1:0", lambda cmd, conn: {}, http_responder=_page,
            hello={"service": "test"},
        )
        stop = threading.Event()

        def publish():
            i = 0
            while not stop.wait(0.005):
                i += 1
                server.publish({"ev": "delta", "i": i})

        thread = threading.Thread(target=publish, daemon=True)
        thread.start()
        try:
            sock = net.connect(server.address, timeout=5.0)
            time.sleep(0.1)  # silent while records are published
            with sock:
                yield sock
        finally:
            stop.set()
            thread.join(5.0)
            server.close()

    def test_http_answer_comes_first(self, publishing):
        publishing.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
        page = b""
        while chunk := publishing.recv(65536):
            page += chunk
        assert page.startswith(b"HTTP/1.1 200 OK"), page[:60]
        assert page.endswith(b"/metrics")

    def test_json_client_gets_the_hello_then_the_backlog_in_order(
            self, publishing):
        publishing.sendall(net.encode({"cmd": "ping", "seq": 1}))
        reader = RecordReader(publishing)
        records = [reader.read(5.0)]
        while records[-1].get("ev") != "ack":
            records.append(reader.read(5.0))
        assert records[0] == {"service": "test", "ev": "hello"}
        deltas = [r["i"] for r in records[1:-1]]
        assert deltas and deltas == list(range(1, len(deltas) + 1))


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
            http_responder=_page, hello={"service": "test"},
        )
        try:
            client = Client(
                server.address, timeout=5.0,
                connect_timeout=2.0, connect_attempts=3,
                backoff_base=0.01, backoff_max=0.05,
            )
            client.command("ping")
            assert client.hello.get("service") == "test"
            client.close()
        finally:
            server.close()


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

class _Trickle:
    """A socket whose ``sendmsg`` takes at most *k* bytes per call."""

    def __init__(self, sock, k):
        self.sock, self.k, self.calls = sock, k, 0

    def sendmsg(self, buffers):
        data = b"".join(bytes(b) for b in buffers)[:self.k]
        self.sock.sendall(data)
        self.calls += 1
        return len(data)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


@pytest.mark.dist
class TestFrames:
    def test_roundtrip_header_and_payload(self, pair):
        a, b = pair
        payload = np.arange(1000, dtype=np.float64).tobytes()
        t = threading.Thread(
            target=send_frame, args=(a, {"k": "data", "n": 1}, payload))
        t.start()
        header, got = recv_frame(b, timeout=5.0)
        t.join()
        assert header == {"k": "data", "n": 1}
        assert got == payload

    def test_empty_payload(self, pair):
        a, b = pair
        send_frame(a, {"k": "ping"})
        header, got = recv_frame(b, timeout=5.0)
        assert header == {"k": "ping"} and got == b""

    def test_garbage_prefix_is_a_frame_error(self, pair):
        a, b = pair
        a.sendall(b"\xff" * 8 + b"junk")
        with pytest.raises(FrameError):
            recv_frame(b, timeout=5.0)

    def test_closed_socket_is_net_closed_not_ebadf(self, pair):
        # A connection hung up under its reader (an agent closing while
        # `_serve_conn` loops): the contract is NetClosed, with or
        # without a timeout to set first.
        _a, b = pair
        b.close()
        with pytest.raises(NetClosed):
            recv_frame(b, timeout=5.0)
        with pytest.raises(NetClosed):
            recv_frame(b)

    def test_a_frame_is_one_gather_write(self, pair):
        a, b = pair
        whole = _Trickle(a, 1 << 20)
        send_frame(whole, {"k": "data"}, b"x" * 4096)
        assert whole.calls == 1
        assert recv_frame(b, timeout=5.0) == ({"k": "data"}, b"x" * 4096)

    # 8-byte prefix, 12-byte header, 300-byte payload: a send that
    # stops inside each part, and one that stops on every boundary.
    @pytest.mark.parametrize("k", [3, 8, 13, 20, 150, 319])
    def test_partial_send_continues_where_it_stopped(self, pair, k):
        a, b = pair
        payload = bytes(range(256)) + b"tail" * 11
        slow = _Trickle(a, k)
        send_frame(slow, {"k": "data"}, payload)
        assert slow.calls == -(-(8 + 12 + 300) // k)
        assert recv_frame(b, timeout=5.0) == ({"k": "data"}, payload)
        send_frame(a, {"k": "next"})            # the stream is still framed
        assert recv_frame(b, timeout=5.0) == ({"k": "next"}, b"")

    def test_payload_beyond_the_socket_buffer_against_a_slow_reader(self):
        listener, address, _ = listen("tcp:127.0.0.1:0")
        a = net.connect(address, timeout=5.0)
        b, _addr = listener.accept()
        try:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            payload = np.random.default_rng(0).bytes(3 << 20)
            got = []

            def reader():
                time.sleep(0.2)                 # the sender fills up first
                got.append(recv_frame(b, timeout=10.0))

            t = threading.Thread(target=reader)
            t.start()
            send_frame(a, {"k": "big"}, payload)
            t.join(10.0)
            assert got == [({"k": "big"}, payload)]
        finally:
            for sock in (a, b, listener):
                sock.close()

    @pytest.mark.parametrize("wrap", [
        bytes, bytearray, memoryview,
        lambda raw: memoryview(np.frombuffer(raw).reshape(5, -1)),
    ], ids=["bytes", "bytearray", "memoryview", "memoryview-2d-float64"])
    def test_any_contiguous_bytes_like_payload(self, pair, wrap):
        a, b = pair
        raw = np.arange(100.0).tobytes()
        send_frame(a, {"k": "data"}, wrap(raw))
        assert recv_frame(b, timeout=5.0) == ({"k": "data"}, raw)

    def test_eof_mid_frame_is_net_closed(self, pair):
        a, b = pair
        a.sendall(struct.pack("!II", 2, 100) + b"{}" + b"only ten b")
        a.close()
        with pytest.raises(NetClosed, match="mid-frame"):
            recv_frame(b, timeout=5.0)

    def test_stalled_read_is_net_timeout(self, pair):
        a, b = pair
        a.sendall(struct.pack("!II", 2, 100) + b"{}" + b"only ten b")
        with pytest.raises(NetTimeout, match="90 byte"):
            recv_frame(b, timeout=0.1)

    def test_oversized_prefix_is_a_frame_error(self, pair):
        a, b = pair
        a.sendall(struct.pack("!II", MAX_HEADER_BYTES + 1, 0))
        with pytest.raises(FrameError, match="implausible"):
            recv_frame(b, timeout=5.0)

    def test_send_to_a_closed_peer_is_net_closed(self, pair):
        a, b = pair
        b.close()
        with pytest.raises(NetClosed):
            for _ in range(64):                 # first write may be buffered
                send_frame(a, {"k": "data"}, b"x" * 65536)


class _Drip:
    """A socket whose ``recv`` hands over at most *k* bytes per call."""

    def __init__(self, sock, k):
        self.sock, self.k, self.calls = sock, k, 0
        self.settimeout, self.gettimeout = sock.settimeout, sock.gettimeout

    def recv(self, n):
        self.calls += 1
        return self.sock.recv(min(n, self.k))


@pytest.mark.dist
class TestBufferedFrames:
    """Frames read through ``RecordReader`` (every cluster socket's
    inbound half): the same frames however the bytes arrive, in fewer
    ``recv`` calls."""

    FRAMES = [
        ({"k": "task", "seq": 1}, b"x" * 300),
        ({"k": "done", "seq": 1, "who": "caf\u00e9 \u2603"}, b""),
        ({"k": "data", "meta": {"shape": [2, 3]}}, bytes(range(256)) * 9),
    ]

    def _wire(self, frames):
        out = b""
        for header, payload in frames:
            head = json.dumps(header, separators=(",", ":")).encode()
            out += struct.pack("!II", len(head), len(payload)) + head + payload
        return out

    def test_send_frame_writes_the_bytes_json_dumps_would(self, pair):
        a, b = pair
        for header, payload in self.FRAMES:
            send_frame(a, header, payload)
        wire = self._wire(self.FRAMES)
        assert b"caf\\u00e9" in wire            # ASCII on the wire
        got = b""
        while len(got) < len(wire):
            got += b.recv(1 << 16)
        assert got == wire

    def test_one_byte_at_a_time_returns_the_same_frames(self, pair):
        a, b = pair
        a.sendall(self._wire(self.FRAMES))
        reader = RecordReader(_Drip(b, 1))
        assert [recv_frame(reader, timeout=5.0)
                for _ in self.FRAMES] == self.FRAMES

    def test_three_frames_in_one_segment_cost_one_recv(self, pair):
        a, b = pair
        a.sendall(self._wire(self.FRAMES))
        whole = _Drip(b, 1 << 20)
        reader = RecordReader(whole)
        assert [recv_frame(reader, timeout=5.0)
                for _ in self.FRAMES] == self.FRAMES
        assert whole.calls == 1
        # The bare socket pays prefix, header and payload separately.
        a.sendall(self._wire(self.FRAMES[:1]))
        bare = _Drip(b, 1 << 20)
        assert recv_frame(bare, timeout=5.0) == self.FRAMES[0]
        assert bare.calls == 3

    def test_a_large_payload_is_read_straight_from_the_socket(self, pair):
        a, b = pair
        payload = np.random.default_rng(1).bytes(1 << 20)
        t = threading.Thread(target=lambda: (
            send_frame(a, {"k": "big"}, payload), send_frame(a, {"k": "next"})))
        t.start()
        reader = RecordReader(b)
        assert recv_frame(reader, timeout=5.0) == ({"k": "big"}, payload)
        assert recv_frame(reader, timeout=5.0) == ({"k": "next"}, b"")
        t.join(5.0)

    @pytest.mark.parametrize("k", [1, 1 << 20])
    @pytest.mark.parametrize("eof", [True, False])
    def test_eof_and_timeout_mid_frame(self, pair, k, eof):
        a, b = pair
        a.sendall(struct.pack("!II", 2, 100) + b"{}" + b"only ten b")
        if eof:
            a.close()
        with pytest.raises(NetClosed if eof else NetTimeout):
            recv_frame(RecordReader(_Drip(b, k)), timeout=0.1)


@pytest.mark.dist
class TestRecords:
    """A JSON line plus the frames it announces, off one buffer."""

    def test_over_read_bytes_are_the_attachments(self, pair):
        a, b = pair
        blobs = [({"t": "nd", "i": i}, bytes([i]) * (70000 * i)) for i in range(3)]
        first = {"cmd": "run", "seq": 1, "frames": blobs}
        line, frames = encode_record(first)
        assert b'"frames":3' in line and frames is blobs
        writer = threading.Thread(target=lambda: (
            send_record(a, line, frames),
            send_record(a, *encode_record({"cmd": "next"})),
        ))
        writer.start()
        reader = RecordReader(b)
        assert reader.read(timeout=5.0) == first
        assert reader.read(timeout=5.0) == {"cmd": "next"}
        writer.join(5.0)
        assert not writer.is_alive()

    def test_a_line_timeout_keeps_the_partial_line(self, pair):
        a, b = pair
        reader = RecordReader(b)
        a.sendall(b'\n   \nnot json\n{"ev":')
        with pytest.raises(NetTimeout):
            reader.read(timeout=0.05)
        a.sendall(b'"tick"}\n')
        assert reader.read(timeout=5.0) == {"ev": "tick"}

    def test_an_attachment_timeout_ends_the_stream(self, pair):
        a, b = pair
        a.sendall(b'{"frames":1}\n' + struct.pack("!II", 2, 100) + b"{}")
        with pytest.raises(NetClosed, match="mid-attachment"):
            RecordReader(b).read(timeout=0.05)

    @pytest.mark.parametrize("count", ["2", 1.0, True, -1, MAX_HEADER_BYTES])
    def test_implausible_count_is_a_frame_error(self, pair, count):
        a, b = pair
        a.sendall(net.encode({"frames": count}))
        with pytest.raises(FrameError, match="count"):
            RecordReader(b).read(timeout=5.0)

    def test_a_line_without_end_is_a_frame_error_not_a_buffer(self, pair):
        a, b = pair
        b.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)

        def feed():
            try:
                for _ in range(18):
                    a.sendall(b"x" * (1 << 20))
            except OSError:
                pass  # the reader gave up first, as it should

        feeder = threading.Thread(target=feed, daemon=True)
        feeder.start()
        with pytest.raises(FrameError, match="no b"):
            RecordReader(b).read(timeout=10.0)
        b.close()  # unblocks the feeder, if it is still writing
        feeder.join(10.0)
        assert not feeder.is_alive()


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def _wait_for(what, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not what():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


@pytest.mark.dist
class TestNoTimers:
    def test_request_reply_over_tcp_does_not_stall(self):
        """Header + 16 kB payload each way, 100 times.  Two writes per
        frame without TCP_NODELAY cost a Nagle/delayed-ACK wait (~40 ms)
        per direction: about 8 s here, against milliseconds."""

        listener, address, _ = listen("tcp:127.0.0.1:0")
        payload = b"p" * 16384

        def echo():
            conn, _addr = listener.accept()
            with tune(conn):
                for _ in range(100):
                    header, body = recv_frame(conn, timeout=10.0)
                    send_frame(conn, {"k": "done", "seq": header["seq"]}, body)

        t = threading.Thread(target=echo)
        t.start()
        sock = net.connect(address, timeout=5.0)
        try:
            t0 = time.perf_counter()
            for seq in range(100):
                send_frame(sock, {"k": "task", "seq": seq}, payload)
                header, body = recv_frame(sock, timeout=10.0)
                assert header["seq"] == seq and body == payload
            elapsed = time.perf_counter() - t0
        finally:
            sock.close()
            t.join(10.0)
            listener.close()
        assert elapsed < 1.0, f"100 exchanges took {elapsed:.2f} s"

    def test_server_sets_nodelay_on_both_ends(self):
        server = Server("tcp:127.0.0.1:0", lambda cmd, conn: {},
                        http_responder=_page)
        sock = net.connect(server.address, timeout=5.0)
        try:
            assert _nodelay(sock)
            _wait_for(lambda: server._wlocks)
            assert all(_nodelay(conn) for conn in list(server._wlocks))
        finally:
            sock.close()
            server.close()

    def test_agent_sets_nodelay_on_both_ends(self):
        from repro.dist.agent import AgentServer

        with AgentServer("tcp:127.0.0.1:0", slots=1) as agent:
            sock = net.connect(agent.address, timeout=5.0)
            try:
                assert _nodelay(sock)
                _wait_for(lambda: agent._conns)
                assert all(_nodelay(conn) for conn in agent._conns)
            finally:
                sock.close()

    def test_unix_sockets_are_left_alone(self, tmp_path):
        listener, address, unix_path = listen(str(tmp_path / "n.sock"))
        sock = net.connect(address, timeout=5.0)
        conn, _addr = listener.accept()
        try:
            assert address == unix_path
            assert tune(conn) is conn            # must not raise
            send_frame(sock, {"k": "ping"})
            assert recv_frame(conn, timeout=5.0) == ({"k": "ping"}, b"")
        finally:
            for s in (sock, conn, listener):
                s.close()

    def test_listen_replaces_a_stale_unix_socket_file(self, tmp_path):
        path = tmp_path / "stale.sock"
        path.write_bytes(b"")
        listener, address, _ = listen(str(path))
        try:
            net.connect(address, timeout=5.0).close()
        finally:
            listener.close()
