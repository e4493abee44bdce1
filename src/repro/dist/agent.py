"""The node agent: one process per node, owning that node's executors.

``python -m repro dist agent ADDR`` starts one.  It listens on a single
address and serves one **control** connection per master (frames of
:mod:`repro.net.frames`: fetch a resident datum's bytes, evict keys,
stats, stop) and one **dispatch** connection per execution slot.  After
its hello (refused if it names another stream version) a dispatch
connection is a record stream, as a process worker's pipe: task records
(:func:`repro.mp.worker.task_record`) in, one reply each out.

Each dispatch connection has its own thread: it reads once, runs every
record that read completed and answers them in one write, until the
master hangs up.  By default a record runs on that thread through the
runner a process worker uses (:func:`repro.mp.worker.run_record`; numpy
kernels release the GIL, so slots overlap); with ``--processes`` each
connection lazily forks a :class:`~repro.mp.executor.WorkerProcess` and
relays the records to it unchanged, so pure-Python bodies get real cores.

The **store** is the agent half of the residency protocol and every
slot's resolver: ``key -> (content_version, object)`` plus a condition
variable.  A task naming a resident datum waits until the store holds
at least that version — a sibling slot's consumer record may overtake
the data on this node.  Trace events carry ``thread = global slot
index`` on the master's ``perf_counter`` clock (exact on one host) and
piggy-back on every reply, like mp worker rings.
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import threading
from collections import deque
from time import perf_counter
from typing import Any, Optional

import numpy as np

from ..mp.executor import WorkerDied, WorkerProcess
from ..mp.worker import MSG_PUT, MSG_RESOLVE, reply_bytes, run_record
from ..net.codec import (
    FRESH,
    PARTS,
    PROTOCOL,
    RESIDENT,
    SHIP,
    WorkerLostError,
    apply_blob,
    decode_blob,
    encode_blob,
    format_remote_error,
    unserved,
)
from ..net.frames import (
    STREAM_VERSION,
    MessageReader,
    RecordReader,
    recv_frame,
    send_frame,
    send_messages,
)
from ..net.protocol import hang_up, listen, tune
from .encoding import alloc_from_meta

__all__ = ["AgentServer"]

#: Seconds a task waits for a resident datum to reach its expected
#: version before failing structurally (dependency ordering makes real
#: waits sub-millisecond; this is a protocol-bug backstop).
STORE_WAIT_TIMEOUT = 60.0


class _AgentStore:
    """Versioned resident-datum store shared by all slots of one agent."""

    def __init__(self):
        self._cv = threading.Condition()
        self._data: dict[str, tuple[int, Any]] = {}

    def put(self, key: str, version: int, obj: Any) -> Any:
        """Record *obj* as *key*'s content at *version*; returns the
        canonical object (an equal-or-newer resident copy wins)."""

        with self._cv:
            cur = self._data.get(key)
            if cur is not None and cur[0] >= version:
                return cur[1]
            self._data[key] = (version, obj)
            self._cv.notify_all()
            return obj

    def get_at_least(self, key: str, version: int,
                     timeout: float = STORE_WAIT_TIMEOUT) -> tuple[int, Any]:
        deadline = perf_counter() + timeout
        with self._cv:
            while True:
                cur = self._data.get(key)
                if cur is not None and cur[0] >= version:
                    return cur
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    have = "nothing" if cur is None else f"v{cur[0]}"
                    raise RuntimeError(
                        f"resident datum {key!r} did not reach version "
                        f"{version} within {timeout:.0f}s (store has {have}); "
                        f"master/agent residency state diverged"
                    )
                self._cv.wait(remaining)

    def resolve(self, spec) -> Any:
        """The object a node-store value spec (:mod:`repro.net.codec`)
        names; a data ship is stored first."""

        tag = spec[0]
        if tag == RESIDENT:
            return self.get_at_least(spec[1], spec[2])[1]
        if tag == SHIP:
            _tag, key, version, meta, payload = spec
            return self.put(key, version, decode_blob(meta, payload))
        if tag == FRESH:
            return alloc_from_meta(spec[1])
        if tag == PARTS:
            _tag, meta, parts = spec
            obj = alloc_from_meta(meta)
            for slices, part_meta, part_payload in parts:
                apply_blob(obj, part_meta, part_payload, slices)
            return obj
        unserved(spec, "a node agent")

    def evict(self, keys) -> None:
        with self._cv:
            for key in keys:
                self._data.pop(key, None)

    def release(self, prefix: str) -> int:
        with self._cv:
            doomed = [k for k in self._data if k.startswith(prefix)]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def stats(self) -> dict:
        with self._cv:
            nbytes = 0
            for _version, obj in self._data.values():
                if isinstance(obj, np.ndarray):
                    nbytes += int(obj.nbytes)
                elif isinstance(obj, (bytes, bytearray)):
                    nbytes += len(obj)
            return {"entries": len(self._data), "resident_bytes": nbytes}


class AgentServer:
    """One node's agent (see module docstring).

    ``slots`` is how many dispatch slots the agent advertises (default:
    this machine's cores minus one, at least one); ``processes=True``
    backs each slot with a forked mp worker instead of running bodies
    on the dispatch thread.
    """

    def __init__(self, address: str, slots: Optional[int] = None,
                 processes: bool = False, name: Optional[str] = None):
        if slots is None:
            slots = max(1, (os.cpu_count() or 2) - 1)
        if slots < 1:
            raise ValueError("an agent needs at least one slot")
        self.slots = slots
        self.processes = processes
        self.name = name
        self.requested_address = address
        self.address: Optional[str] = None
        self.store = _AgentStore()
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._closing = threading.Event()
        self._funcs: dict = {}
        #: Tasks completed by this agent (telemetry; racy read is fine).
        self.tasks_run = 0

    def start(self) -> "AgentServer":
        """Listen and accept, all or nothing (a failure closes both)."""

        self._listener, self.address, self._unix_path = listen(
            self.requested_address)
        self._closing.clear()
        thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-agent-accept",
            daemon=True,
        )
        try:
            thread.start()
        except BaseException:
            self.close()
            raise
        self._accept_thread = thread
        return self

    @property
    def closed(self) -> bool:
        """True once a remote ``stop`` op or :meth:`close` tore us down."""

        return self._closing.is_set()

    def close(self) -> None:
        """Shut the agent down: stop accepting, drop every connection."""

        self._closing.set()
        listener, self._listener = self._listener, None
        unix_path, self._unix_path = self._unix_path, None
        hang_up(listener, unix_path)
        thread, self._accept_thread = self._accept_thread, None
        if thread is not None:
            thread.join()
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            hang_up(conn)

    #: Sudden-death alias used by the failure tests: from the master's
    #: point of view an agent whose sockets all vanish at once is
    #: indistinguishable from a SIGKILLed process.
    kill = close

    def __enter__(self) -> "AgentServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._closing.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            tune(conn)
            with self._conn_lock:
                if self._closing.is_set():
                    hang_up(conn)
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="repro-dist-agent-conn", daemon=True,
            ).start()

    def _drop_conn(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._conns.discard(conn)
        hang_up(conn)

    def _serve_conn(self, conn: socket.socket) -> None:
        inbox = RecordReader(conn)  # every inbound frame, in gulps
        try:
            try:
                hello, _ = recv_frame(inbox, timeout=30.0)
            except OSError:  # repro.net errors, a timeout included
                return
            if hello.get("k") != "hello":
                return
            conn.settimeout(None)
            role = hello.get("role")
            if role == "control":
                self._control_loop(conn, inbox)
            elif role == "dispatch":
                self._dispatch_loop(conn, hello)
        finally:
            self._drop_conn(conn)

    def _control_loop(self, conn: socket.socket, inbox) -> None:
        send_frame(conn, {
            "k": "hello", "slots": self.slots, "pid": os.getpid(),
            "name": self.name, "processes": self.processes,
        })
        store = self.store
        while True:
            try:
                header, _payload = recv_frame(inbox)
            except OSError:
                return
            kind = header.get("k")
            try:
                if kind == "fetch":
                    self._handle_fetch(conn, header)
                elif kind == "evict":  # one-way: keys are never reused
                    store.evict(header.get("keys", ()))
                elif kind == "release":
                    sid = str(header.get("sid", ""))
                    dropped = store.release(sid + ":")
                    self._funcs.pop(sid, None)  # its definitions go too
                    send_frame(conn, {"k": "ok", "dropped": dropped})
                elif kind == "ping":
                    send_frame(conn, {
                        "k": "pong", "slots": self.slots,
                        "pid": os.getpid(), "tasks_run": self.tasks_run,
                        "store": store.stats(),
                    })
                elif kind == "stop":
                    send_frame(conn, {"k": "ok"})
                    # Tear down off-thread: close() waits on nothing,
                    # but it closes *this* socket too.
                    threading.Thread(target=self.close, daemon=True).start()
                    return
                elif kind == "bye":
                    return
                else:
                    send_frame(conn, {"k": "error",
                                      "error": f"unknown control op {kind!r}"})
            except OSError:
                return

    def _handle_fetch(self, conn: socket.socket, header: dict) -> None:
        key = header["key"]
        version = int(header.get("version", 0))
        try:
            have_version, obj = self.store.get_at_least(
                key, version, timeout=float(header.get("timeout", 10.0))
            )
        except RuntimeError:
            send_frame(conn, {"k": "data", "found": False, "key": key})
            return
        meta, payload = encode_blob(obj)
        send_frame(conn, {
            "k": "data", "found": True, "key": key,
            "version": have_version, "meta": meta,
        }, payload)

    def _dispatch_loop(self, conn: socket.socket, hello: dict) -> None:
        slot = int(hello.get("slot", 0))
        sid = str(hello.get("sid", ""))
        trace = bool(hello.get("trace"))
        ring = int(hello.get("ring", 1 << 16))
        if hello.get("stream") != STREAM_VERSION:
            send_frame(conn, {"k": "error", "error": (
                f"record stream version {hello.get('stream')!r}; this agent "
                f"speaks version {STREAM_VERSION}")})
            return
        send_frame(conn, {"k": "ok", "slot": slot})
        # The master writes no record before it has read the ok, so the
        # hello's inbox holds nothing more.
        records = MessageReader(conn.recv)
        events = deque(maxlen=max(ring, 2)) if trace else None
        #: This connection's worker process (``--processes`` only):
        #: forked at the first task, replaced after it dies.
        local: list[WorkerProcess] = []
        try:
            while True:
                batch = records.messages()
                if not batch:  # the read ended inside a message
                    continue
                if self.processes:
                    replies = self._relay(batch, slot, trace, ring, local)
                else:
                    # Definitions are cached per session id (def_key is
                    # id()-based on the master, so two masters sharing
                    # one agent could collide); dropped at release.
                    funcs = self._funcs.setdefault(sid, {})
                    replies = [run_record(pickle.loads(record), self.store,
                                          funcs, slot, events)
                               for record in batch]
                self.tasks_run += sum(reply[1] is None for reply in replies)
                send_messages(conn, map(reply_bytes, replies))
        except (EOFError, OSError):
            return  # the master hung up
        finally:
            for worker in local:
                worker.kill()

    def _relay(self, records: list, slot: int, trace: bool, ring: int,
               local: list) -> list:
        """A ``--processes`` slot runs *records* in its worker process:
        they cross unchanged, as one pipe message, and the worker's
        resolver asks this agent's store across the pipe (answered
        here); their replies, in order."""

        def serve(msg) -> None:
            if msg[0] == MSG_PUT:
                self.store.put(*msg[1:])
                return
            try:
                answer = (self.store.resolve(msg[1]), None)
            except Exception as exc:  # noqa: BLE001 - raised in the worker
                answer = (None, exc)
            local[0].conn.send_bytes(pickle.dumps(answer, protocol=PROTOCOL))

        replies: list = []
        try:
            if not local:
                local.append(WorkerProcess(slot, trace, ring, relayed=True))
            worker = local[0]
            worker.send(records)
            poller = select.poll()
            for fd in worker.fds:
                poller.register(fd, select.POLLIN)
            while len(replies) < len(records):  # store requests and replies
                for msg in worker.read(poller.poll()[0][0]):
                    if msg[0] in (MSG_PUT, MSG_RESOLVE):
                        serve(msg)
                    else:
                        replies.append(msg)
        except (WorkerDied, WorkerLostError) as exc:
            if local:  # replaced at the next task
                local.pop().kill()
            lost = format_remote_error(WorkerLostError(
                f"the worker process of agent slot {slot} died ({exc!r})"))
            replies += [(pickle.loads(record)[0], lost, 0.0, [], [])
                        for record in records[len(replies):]]
        return replies
