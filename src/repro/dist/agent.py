"""The node agent: one process per node, owning that node's executors.

``python -m repro dist agent ADDR`` starts one of these.  An agent
listens on a single address and serves two kinds of connection, both
speaking the frame protocol (:mod:`repro.net.frames`):

* one **control** connection per master — fetch a resident datum's
  bytes, evict keys, stats, stop;
* one **dispatch** connection per execution slot — a task-loop mirror
  of the mp backend's pipe: the master's proxy thread sends one task
  frame and blocks for the ``done`` frame.

Every dispatch connection is served by its own thread.  In the default
threads mode the task body runs right on that thread (numpy kernels
release the GIL, so slots genuinely overlap); with ``--processes``
each dispatch connection lazily forks a dedicated
:class:`~repro.mp.executor.WorkerProcess` (the mp backend's own
worker primitive) and relays, so pure-Python bodies get real cores too.

The **store** is the agent half of the residency protocol: a dict of
``key -> (content_version, object)`` plus a condition variable.  A
task referencing a resident datum (``("r", key, version)``) waits
until the store holds at least that version — covering the window
where the producing task's ``done`` frame has landed on the master but
a sibling slot's consumer frame overtakes the data on this node.

Trace events are recorded with ``thread = global slot index`` on the
same ``perf_counter`` clock as the master (one host in tests; on real
multi-host fleets the merged timeline is per-node-accurate only) and
piggy-back on every ``done`` frame, exactly like mp worker rings.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
from collections import deque
from time import perf_counter
from typing import Any, Optional

import numpy as np

from ..mp.encoding import apply_writebacks, resolve_definition_func
from ..mp.executor import WorkerDied, WorkerProcess
from ..mp.worker import run_body, task_record
from ..net.client import NetClosed, NetTimeout
from ..net.codec import (
    PROTOCOL,
    apply_blob,
    decode_blob,
    encode_blob,
    format_remote_error,
    slices_from_spec,
)
from ..net.frames import RecordReader, recv_frame, send_frame
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
        self._func_lock = threading.Lock()
        self._funcs: dict = {}
        #: Tasks completed by this agent (telemetry; racy read is fine).
        self.tasks_run = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AgentServer":
        self._listener, self.address, self._unix_path = listen(
            self.requested_address)
        self._closing.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-dist-agent-accept",
            daemon=True,
        )
        self._accept_thread.start()
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

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
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
            except (NetClosed, NetTimeout, ConnectionError):
                return
            if hello.get("k") != "hello":
                return
            conn.settimeout(None)
            role = hello.get("role")
            if role == "control":
                self._control_loop(conn, inbox)
            elif role == "dispatch":
                self._dispatch_loop(conn, inbox, hello)
        finally:
            self._drop_conn(conn)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def _control_loop(self, conn: socket.socket, inbox) -> None:
        send_frame(conn, {
            "k": "hello", "slots": self.slots, "pid": os.getpid(),
            "name": self.name, "processes": self.processes,
        })
        store = self.store
        while True:
            try:
                header, _payload = recv_frame(inbox)
            except (NetClosed, ConnectionError, OSError):
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
            except (NetClosed, ConnectionError, OSError):
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

    # ------------------------------------------------------------------
    # dispatch plane
    # ------------------------------------------------------------------
    def _dispatch_loop(self, conn: socket.socket, inbox, hello: dict) -> None:
        slot = int(hello.get("slot", 0))
        sid = str(hello.get("sid", ""))
        trace = bool(hello.get("trace"))
        ring = int(hello.get("ring", 1 << 16))
        send_frame(conn, {"k": "ok", "slot": slot})
        events: deque = deque(maxlen=max(ring, 2))
        #: This connection's worker process (``--processes`` only):
        #: forked at the first task, replaced after it dies.
        local: list[WorkerProcess] = []
        try:
            while True:
                try:
                    header, payload = recv_frame(inbox)
                except (NetClosed, ConnectionError, OSError):
                    return
                kind = header.get("k")
                if kind == "bye":
                    return
                if kind != "task":
                    continue
                seq = header.get("seq")
                reply = self._run_task(pickle.loads(payload), sid, slot, seq,
                                       trace, ring, events, local)
                try:
                    send_frame(conn, {"k": "done", "seq": seq},
                               pickle.dumps(reply, protocol=PROTOCOL))
                except (NetClosed, ConnectionError, OSError):
                    return
        finally:
            for worker in local:
                worker.kill()

    def _resolve_func(self, sid: str, def_key, def_payload):
        # Cached per session id: def_key is id()-based on the master, so
        # two masters sharing one agent could collide; dropped at release.
        with self._func_lock:
            funcs = self._funcs.setdefault(sid, {})
            func = funcs.get(def_key)
            if func is None:
                if def_payload is None:
                    raise RuntimeError(
                        f"agent has no cached definition for key {def_key!r} "
                        f"and the master sent no payload"
                    )
                func = funcs[def_key] = resolve_definition_func(def_payload)
            return func

    def _resolve_values(self, specs: list) -> list:
        store = self.store
        values: list = []
        for spec in specs:
            tag = spec[0]
            if tag == "s":
                values.append(spec[1])
            elif tag == "r":
                _tag, key, version = spec
                values.append(store.get_at_least(key, version)[1])
            elif tag == "d":
                _tag, key, version, meta, payload = spec
                values.append(store.put(key, version,
                                        decode_blob(meta, payload)))
            elif tag == "f":
                _tag, _key, meta = spec
                values.append(alloc_from_meta(meta))
            elif tag == "g":
                _tag, meta, parts = spec
                obj = alloc_from_meta(meta)
                for sl_spec, part_meta, part_payload in parts:
                    apply_blob(obj, part_meta, part_payload,
                               slices_from_spec(sl_spec))
                values.append(obj)
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown value spec tag {tag!r}")
        return values

    def _run_task(self, msg: dict, sid: str, slot: int, seq, trace: bool,
                  ring: int, events: deque, local: list) -> dict:
        task_id = msg.get("task_id", -1)
        name = msg.get("name", "")
        err = None
        ret_out: list = []
        duration = 0.0
        try:
            values = self._resolve_values(msg["values"])
            if self.processes:
                # mp-fleet mode: the worker records its own start/end
                # events; relay, then land the written values back into
                # the agent-local objects (store copies / allocations).
                if not local:
                    local.append(WorkerProcess(slot, trace, ring))
                wb_specs = [
                    (pos, None if sl is None else slices_from_spec(sl))
                    for pos, sl in msg.get("writes", ())
                ]
                try:
                    # The master's own per-link sequence number and
                    # define-once payload pass straight through: this
                    # worker is that link's remote end.
                    local[0].send([task_record(
                        seq, msg["def_key"], msg.get("def_payload"),
                        task_id, name, [("v", v) for v in values], wb_specs)])
                    err, duration, wevents, wb_values = local[0].recv(seq)
                except WorkerDied as exc:
                    local.pop().kill()
                    raise RuntimeError(
                        f"agent-local worker for slot {slot} died while "
                        f"running task #{task_id} {name!r}"
                    ) from exc
                if trace and wevents:
                    events.extend(wevents)
                if err is None and wb_values:
                    apply_writebacks(wb_specs, wb_values, values)
            else:
                func = self._resolve_func(sid, msg["def_key"],
                                          msg.get("def_payload"))
                duration = run_body(func, values, task_id, name, slot,
                                    events if trace else None)
            if err is None:
                for pos, key, v_after in msg.get("out", ()):
                    self.store.put(key, v_after, values[pos])
                for pos, sl_spec in msg.get("ret", ()):
                    part = values[pos]
                    if sl_spec is not None:
                        part = part[slices_from_spec(sl_spec)]
                    meta, payload = encode_blob(part)
                    ret_out.append((pos, sl_spec, meta, payload))
                self.tasks_run += 1
        except BaseException as exc:  # noqa: BLE001 - shipped to master
            err = format_remote_error(exc)
            ret_out = []
        drained = list(events)
        events.clear()
        return {
            "err": err,
            "ret": ret_out,
            "duration": duration,
            "events": drained,
        }
