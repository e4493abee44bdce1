"""The wire format of the live event/control plane.

One JSON object per line, UTF-8, ``\n``-terminated, in both
directions.  The server streams the run's trace as it is recorded —
each event the Chrome trace record a post-mortem export writes for it —
interleaved with periodic ``snapshot`` records; the client sends small
command objects and correlates replies by ``seq``.

Server -> client records (``ev`` field):

``hello``
    First line on every connection, sent once the client's first
    command arrives: ``service``, ``version``, ``threads``,
    ``backend``, ``pid``.
``trace``
    One tracer event: the fields of
    :func:`repro.obs.export.chrome_record` (``name``, ``cat``, ``ph``,
    ``ts`` in microseconds of the tracer clock, ``pid``, ``tid``,
    ``args``), which :func:`repro.obs.analyze.chrome_event` turns back
    into the event — task lifecycle, dependency edges, renames,
    steals, barriers, waits, write-backs and violations alike.
``dispatched``
    The process backend handed task ``id`` (``name``) to worker
    ``thread``'s process; its ``task_start`` only lands when the
    worker's events ship back.
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

__all__ = ["COMMANDS"]

#: The commands a :class:`~repro.live.session.LiveSession` answers.
COMMANDS = frozenset(("pause", "resume", "step", "break", "clear", "state"))
