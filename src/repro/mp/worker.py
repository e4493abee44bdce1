"""The remote end of a task record: the one runner, and the worker process.

Every remote body — a process worker's, a node agent slot's — goes
through :func:`run_record`; each caller passes only its resolver.  The
dependency analysis, the scheduler, renaming and all completion
bookkeeping stay in the master: a remote end sees only resolved
argument values, exactly like a worker *thread* does.

A worker is a long-lived forked child running :func:`worker_main`.  It
inherits the master's interpreter state, so it first neutralises the
active-runtime stack (task calls made *inside* a body run inline, the
rule the threaded backend implements via ``in_task_body``) and the
inherited :class:`~repro.mp.arena.SharedArena` objects (a worker exiting
must never close or unlink segments the master still owns).
"""

from __future__ import annotations

import io
import pickle
import threading
from collections import deque
from functools import lru_cache
from time import perf_counter

from ..core.tracing import EventKind, TraceEvent
from ..net.codec import (
    HANDLE,
    INLINE,
    PROTOCOL,
    SerializationError,
    format_remote_error,
    unserved,
)
from .arena import ArenaHandle, attach_handle
from .encoding import (
    collect_writebacks,
    definition_payload,
    resolve_definition_func,
)

__all__ = ["task_record", "run_body", "run_record", "reply_bytes",
           "worker_main"]

#: message tag (master -> worker); every other message is a frame
MSG_STOP = "stop"
#: message tag (worker -> master); every other message is a reply
MSG_READY = "ready"
#: a relayed worker's store requests (worker -> agent slot)
MSG_RESOLVE = "resolve"
MSG_PUT = "put"


def task_record(task, link, seq: int, specs: list, writebacks: list,
                puts: list = ()) -> bytes:
    """*task*'s record for *link*, the one task wire format for every
    remote end: the pickled tuple :func:`run_record` unpacks,

        (seq, def_key, def_payload, task_id, task_name, specs,
         writebacks, puts)

    with *specs* one value spec per call value (:mod:`repro.net.codec`),
    *writebacks* the ``(pos, slices)`` to send home and *puts* (node
    agents only; empty for a process worker) the ``(pos, key, version)``
    a node store keeps once the body ran.  The definition payload rides
    until a reply has confirmed *link* knows it; a task whose values do
    not pickle is refused.  Each record is answered by its own reply; a
    pipe message may hold several back to back (a pickle delimits itself)."""

    key = id(task.definition)  # stable for the master's lifetime
    payload = (None if key in link.sent_defs
               else definition_payload(task.definition))
    try:
        return pickle.dumps((seq, key, payload, task.task_id, task.name,
                             specs, writebacks, puts), protocol=PROTOCOL)
    except Exception as exc:
        raise SerializationError(
            f"task {task.name!r}: arguments are not picklable ({exc!r}); "
            f"pass ndarray/list/bytearray data or use backend='threads'"
        ) from exc


def run_body(func, values, task_id: int, name: str, slot: int, events) -> float:
    """Run one task body off the master; returns its duration.

    The one place a remote body is timed and traced: with *events* not
    ``None`` (tracing on) a ``TASK_START``/``TASK_END`` pair for thread
    *slot* is appended around the call — the end marked ``("error",)``
    when the body raises, which it then does to the caller.
    """

    def mark(kind: str, *extra) -> None:
        if events is not None:
            events.append(tuple.__new__(TraceEvent, (
                perf_counter(), kind, task_id, name, slot, extra)))

    mark(EventKind.TASK_START)
    try:
        t0 = perf_counter()
        func(*values)
        duration = perf_counter() - t0
    except BaseException:
        mark(EventKind.TASK_END, "error")
        raise
    mark(EventKind.TASK_END)
    return duration


def run_record(record: tuple, resolver, funcs: dict, slot: int,
               events) -> tuple:
    """Run one unpickled :func:`task_record`; returns its reply
    ``(seq, err, duration, events, writebacks)``.  Never raises: a
    failure anywhere is the reply's remote-error triple.

    *resolver* has ``resolve(spec)`` for every non-inline value spec
    (refusing, via :func:`repro.net.codec.unserved`, a tag it does not
    serve) and ``put(key, version, obj)`` for the record's puts;
    *funcs* caches definition key -> function; *events* is the trace
    ring (``None``: tracing off), drained into the reply.
    """

    seq, def_key, def_payload, task_id, name, specs, writebacks, puts = record
    err = None
    out: list = []
    duration = 0.0
    try:
        func = funcs.get(def_key)
        if func is None:
            func = funcs[def_key] = resolve_definition_func(def_payload)
        resolve = resolver.resolve
        values = [spec[1] if spec[0] == INLINE else resolve(spec)
                  for spec in specs]
        duration = run_body(func, values, task_id, name, slot, events)
        for pos, key, version in puts:
            resolver.put(key, version, values[pos])
        out = collect_writebacks(writebacks, values)
    except BaseException as exc:  # noqa: BLE001 - shipped to master
        err = format_remote_error(exc)
    drained: list = []
    if events:
        drained = list(events)
        events.clear()
    return seq, err, duration, drained, out


def reply_bytes(reply: tuple) -> bytes:
    """A reply pickled; one whose write-backs do not pickle becomes
    that failure."""

    try:
        return pickle.dumps(reply, protocol=PROTOCOL)
    except Exception as exc:  # e.g. an unpicklable write-back value
        return pickle.dumps(
            (reply[0], format_remote_error(exc), reply[2], [], []),
            protocol=PROTOCOL)


class _Attachments:
    """A process worker's resolver: arena handles, each attached view
    cached (a graph names the same blocks over and over; bounded, so a
    long run over ever-new slices cannot grow it forever)."""

    def __init__(self):
        self._attach = lru_cache(maxsize=4096)(
            lambda handle: attach_handle(ArenaHandle(*handle)))

    def resolve(self, spec):
        if spec[0] != HANDLE:
            unserved(spec, "a process worker")
        return self._attach(spec[1])


class _RelayedStore:
    """The resolver of a worker behind a ``--processes`` agent slot: the
    agent's node store, asked across the pipe (the slot answers in
    :meth:`repro.dist.agent.AgentServer._relay`)."""

    def __init__(self, conn):
        self._conn = conn

    def resolve(self, spec):
        self._conn.send_bytes(
            pickle.dumps((MSG_RESOLVE, spec), protocol=PROTOCOL))
        value, error = pickle.loads(self._conn.recv_bytes())
        if error is not None:
            raise error
        return value

    def put(self, key, version, obj) -> None:
        self._conn.send_bytes(
            pickle.dumps((MSG_PUT, key, version, obj), protocol=PROTOCOL))


def _neutralise_inherited_state() -> None:
    """Disarm master-owned state copied across ``fork``.

    * The api runtime stack: must look sequential in the worker, and
      its lock must be fresh (another master thread could have held it
      at fork time).
    * Arenas: the child's copies must never close/unlink shared
      segments — only the master arena owns them.  Inherited
      ``SharedMemory`` objects are dropped without ``close()`` so the
      ``atexit``/GC paths in the child are no-ops.
    """

    from ..core import api as _api

    _api._neutralise_stack()

    # Workers never own shared-memory segments, so none of their
    # attachments may reach the (fork-shared) resource tracker: a
    # non-owner registration either double-unregisters when the master
    # unlinks or triggers a bogus leaked-resource unlink at exit
    # (bpo-39959).  Suppress shared_memory registration wholesale.
    from multiprocessing import resource_tracker as _rt

    _orig_register = _rt.register

    def _register(name, rtype):  # pragma: no cover - child-process only
        if rtype == "shared_memory":
            return
        _orig_register(name, rtype)

    _rt.register = _register

    from . import arena as _arena

    for _base, _size, owner in list(_arena._SEGMENTS.values()):
        owner._closed = True
        owner._segments = []
    _arena._SEGMENTS = {}
    _arena._registry_lock = threading.Lock()
    _arena._default = None
    _arena._default_lock = threading.Lock()


def worker_main(conn, slot: int, trace: bool, ring_capacity: int,
                relayed: bool = False) -> None:
    """Run the task records of every frame from *conn*, replying after
    each, until a stop message (or EOF/unpickle death).

    *slot* is the worker's thread index on the master, so the merged
    timeline shows worker processes as threads; trace events wait in a
    bounded ring and ride every reply (there is no trace channel to
    flush or lose).  *relayed*: the pipe's other end is a
    ``--processes`` agent slot, whose store resolves the values.
    """

    _neutralise_inherited_state()

    resolver = _RelayedStore(conn) if relayed else _Attachments()
    funcs: dict = {}
    events = deque(maxlen=max(int(ring_capacity), 2)) if trace else None

    def messages():
        """The records of every frame (and the stop message), in order."""

        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                return  # master is gone; nothing to report to
            stream = io.BytesIO(frame)
            while stream.tell() < len(frame):
                yield pickle.load(stream)

    try:
        conn.send_bytes(pickle.dumps((MSG_READY, None), protocol=PROTOCOL))
        for msg in messages():
            if msg[0] == MSG_STOP:
                return
            conn.send_bytes(reply_bytes(
                run_record(msg, resolver, funcs, slot, events)))
    except (BrokenPipeError, OSError):
        return
    finally:
        try:
            conn.close()
        except Exception:
            pass
