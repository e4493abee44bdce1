"""The wire format of the live event/control plane.

One JSON object per line, UTF-8, ``\n``-terminated, in both
directions.  The server streams *graph deltas* — the incremental
records a TEMANEJO-style front end needs to mirror the DAG as it grows
and executes — interleaved with periodic ``snapshot`` records; the
client sends small command objects and correlates replies by ``seq``.

Server -> client records (``ev`` field):

``hello``
    First line on every connection, sent once the client's first
    command arrives: ``service``, ``version``, ``threads``,
    ``backend``, ``pid``.
``task``
    A task changed state: ``id``, ``name``, ``state`` in
    ``submitted | ready | running | done | dispatched`` (``dispatched``
    is the process backend's "handed to a worker process" — its
    ``running`` only lands when the worker's events ship back),
    ``t`` (tracer clock), ``thread``.
``edge``
    A dependency edge entered the graph: ``src``, ``dst``, ``kind``.
``rename``
    The renaming engine cut a WAR/WAW hazard for ``id``: ``base``
    (type name of the renamed object), ``kind``.
``steal``
    ``id`` moved from ``victim``'s list to ``thief``.
``mark``
    Point event: ``what`` (barrier_enter/exit, wait_on_enter/exit,
    write_back, violation), ``t``, ``thread``.
``note``
    Human-readable server-side message (breakpoint hit, shutdown
    release, ...).
``snapshot``
    Periodic control/occupancy state (see ``LiveSession.state``).
``ack``
    Reply to one command: ``seq``, ``cmd``, ``ok``, ``data`` | ``error``.
``bye``
    Orderly end of stream.

Client -> server commands (``cmd`` field, plus a client-chosen ``seq``):

``pause`` / ``resume`` / ``step`` (``n``) — drive the dispatch gate;
``break`` (``name`` or ``id``) / ``clear`` — edit breakpoints;
``state`` — one immediate snapshot in the ack (these six are
:data:`COMMANDS`); ``ping`` — liveness; ``detach`` — close this
connection only.  The runtime's endpoint
(:func:`repro.obs.exposition.open_endpoint`) answers the metrics and
health commands on the same connection.

Addresses take two forms: ``tcp:HOST:PORT`` (PORT ``0`` binds an
ephemeral port; the server reports the real one) or a filesystem path,
which means a unix-domain socket.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["COMMANDS", "event_to_delta"]

#: The commands a :class:`~repro.live.session.LiveSession` answers.
COMMANDS = frozenset(("pause", "resume", "step", "break", "clear", "state"))


# ---------------------------------------------------------------------------
# tracer event -> graph delta
# ---------------------------------------------------------------------------

# Imported late to keep this module importable without the core package
# fully initialised (the CLI client only needs encode/decode/connect).
def event_to_delta(event) -> Optional[dict]:
    """Convert one :class:`~repro.core.tracing.TraceEvent` into its
    wire delta, or ``None`` for kinds the stream does not carry."""

    from ..core.tracing import EventKind

    kind = event.kind
    state = _TASK_STATES.get(kind)
    if state is not None:
        return {
            "ev": "task",
            "id": event.task_id,
            "name": event.task_name,
            "state": state,
            "t": event.time,
            "thread": event.thread,
        }
    if kind == EventKind.EDGE_ADDED:
        pred_id, edge_kind = event.extra
        return {
            "ev": "edge",
            "src": pred_id,
            "dst": event.task_id,
            "kind": edge_kind,
        }
    if kind == EventKind.RENAME:
        base, rename_kind = event.extra
        return {
            "ev": "rename",
            "id": event.task_id,
            "base": base,
            "kind": rename_kind,
        }
    if kind == EventKind.STEAL:
        return {
            "ev": "steal",
            "id": event.task_id,
            "thief": event.thread,
            "victim": event.extra[1],
        }
    if kind in _MARK_KINDS:
        return {
            "ev": "mark",
            "what": kind,
            "t": event.time,
            "thread": event.thread,
        }
    return None


def _init_tables():
    from ..core.tracing import EventKind

    task_states = {
        EventKind.TASK_ADDED: "submitted",
        EventKind.TASK_READY: "ready",
        EventKind.TASK_START: "running",
        EventKind.TASK_END: "done",
    }
    mark_kinds = frozenset(
        (
            EventKind.BARRIER_ENTER,
            EventKind.BARRIER_EXIT,
            EventKind.WAIT_ON_ENTER,
            EventKind.WAIT_ON_EXIT,
            EventKind.WRITE_BACK,
            EventKind.VIOLATION,
        )
    )
    return task_states, mark_kinds


_TASK_STATES, _MARK_KINDS = _init_tables()
