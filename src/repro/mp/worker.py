"""Worker-process entry point for the process backend.

Each worker is a long-lived forked child running :func:`worker_main`:
a loop of ``recv a frame of task records -> for each, in order: attach
arena blocks -> run the task function -> send back write-backs (+ trace
events)``.  The dependency analysis,
the scheduler, renaming, and all completion bookkeeping stay in the
master — a worker sees only fully-resolved argument values, exactly
like a worker *thread* does in :mod:`repro.core.runtime`.

Forked children inherit the master's interpreter state, including the
active-runtime stack and the arena registry.  The first thing a worker
does is neutralise both: the api stack is cleared so task calls made
*inside* a task body run inline (sequential semantics, the same rule
the threaded backend implements via ``in_task_body``), and inherited
:class:`~repro.mp.arena.SharedArena` objects are disarmed so a worker
exiting can never close or unlink segments the master still owns.
"""

from __future__ import annotations

import io
import pickle
import threading
from collections import deque
from functools import lru_cache
from time import perf_counter

from ..core.tracing import EventKind, TraceEvent
from ..net.codec import PROTOCOL, format_remote_error
from .arena import ArenaHandle, attach_handle
from .encoding import (
    collect_writebacks,
    decode_values,
    resolve_definition_func,
)

__all__ = ["task_record", "run_body", "worker_main"]

#: message tag (master -> worker); every other message is a frame
MSG_STOP = "stop"
#: message tags (worker -> master)
MSG_READY = "ready"
MSG_DONE = "done"
MSG_BYE = "bye"


def task_record(seq: int, def_key, def_payload, task_id: int,
                task_name: str, enc_values: list, wb_specs: list) -> bytes:
    """One task as :func:`worker_main` unpacks it.  A frame is one pipe
    message of one or more records back to back (a pickle delimits
    itself); each record is answered by its own ``MSG_DONE``."""

    return pickle.dumps(
        (seq, def_key, def_payload, task_id, task_name, enc_values, wb_specs),
        protocol=PROTOCOL,
    )


def run_body(func, values, task_id: int, name: str, slot: int, events) -> float:
    """Run one task body off the master; returns its duration.

    The one place a remote body (an mp worker's, a dist agent slot's)
    is timed and traced: with *events* not ``None`` (tracing on) a
    ``TASK_START``/``TASK_END`` pair for thread *slot* is appended
    around the call — the end marked ``("error",)`` when the body
    raises, which it then does to the caller.
    """

    def mark(kind: str, *extra) -> None:
        if events is not None:
            events.append(TraceEvent(
                time=perf_counter(), kind=kind, task_id=task_id,
                task_name=name, thread=slot, extra=extra,
            ))

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


def worker_main(conn, slot: int, trace: bool, ring_capacity: int) -> None:
    """Run the task records of every frame from *conn*, replying after
    each, until a stop message (or EOF/unpickle death).

    *slot* is the thread index this worker represents in the merged
    timeline (the same index as its master-side proxy thread), so the
    observability stack sees worker processes as threads.  Trace events
    are buffered in a bounded ring and piggy-backed on every reply —
    there is no separate trace channel to flush or lose.
    """

    _neutralise_inherited_state()

    #: The attached view per handle, beside the segment cache: a graph
    #: names the same blocks over and over (bounded: a long run over
    #: ever-new slices must not grow it forever).
    attach = lru_cache(maxsize=4096)(
        lambda handle: attach_handle(ArenaHandle(*handle)))
    func_cache: dict = {}
    events: deque = deque(maxlen=max(int(ring_capacity), 2))

    def send(msg: tuple) -> None:
        conn.send_bytes(pickle.dumps(msg, protocol=PROTOCOL))

    def drain_events() -> list:
        out = list(events)
        events.clear()
        return out

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

    send((MSG_READY, None))
    try:
        for msg in messages():
            if msg[0] == MSG_STOP:
                send((MSG_BYE, drain_events()))
                return
            (seq, def_key, def_payload, task_id, task_name,
             enc_values, wb_specs) = msg
            func = func_cache.get(def_key)
            err = None
            wb_values: list = []
            duration = 0.0
            try:
                if func is None:
                    func = func_cache[def_key] = resolve_definition_func(
                        def_payload
                    )
                values = decode_values(enc_values, attach)
                duration = run_body(func, values, task_id, task_name, slot,
                                    events if trace else None)
                wb_values = collect_writebacks(wb_specs, values)
            except BaseException as exc:  # noqa: BLE001 - shipped to master
                err = format_remote_error(exc)
            try:
                send((MSG_DONE, seq, err, duration, drain_events(), wb_values))
            except (BrokenPipeError, OSError):
                return
            except Exception as exc:  # e.g. unpicklable write-back value
                try:
                    send((MSG_DONE, seq, format_remote_error(exc), duration,
                          [], []))
                except Exception:
                    return
    finally:
        try:
            conn.close()
        except Exception:
            pass
