"""``repro.serve`` — the task-graph service.

A long-running daemon owns ONE worker fleet (thread or process
backend) and serves task-graph submissions from many concurrent
client sessions.  The programming model is unchanged: a driver swaps
``SmpssRuntime(...)`` for :func:`connect` and every ``@css_task``
call, ``barrier()`` and ``wait_on()`` inside the block is executed by
the service, with results written back bitwise-identically.

Layout:

* :mod:`~repro.serve.daemon` — the front door: one
  :class:`repro.net.Server` (sessions, ``/metrics``,
  ``/metrics/<tenant>``, ``/health`` over one port, a thread per
  connection) in front of the engine;
* :mod:`~repro.serve.engine` — admission control (per-tenant
  graph-size, memory, in-flight caps → 429-style
  :class:`GraphRejected`) and per-graph private dependency domains,
  executed by the worker loop the in-process runtime runs on
  (:mod:`repro.core.execution`);
* :mod:`~repro.serve.session` — the client: deferred-batch submission
  over the JSON-lines wire;
* :mod:`~repro.serve.protocol` — value/task encodings, and datums as
  the shared :mod:`repro.net.codec` blob in a frame behind the JSON line;
* :mod:`~repro.serve.errors` — the structured error taxonomy.

Run a daemon with ``python -m repro serve tcp:127.0.0.1:7070`` and see
``docs/service.md`` for the full tour.
"""

from .daemon import ServeDaemon
from .engine import ServeEngine, ServiceLimits
from .errors import GraphRejected, RemoteGraphError, ServeError
from .session import ServeSession, connect

__all__ = [
    "GraphRejected",
    "RemoteGraphError",
    "ServeDaemon",
    "ServeEngine",
    "ServeError",
    "ServeSession",
    "ServiceLimits",
    "connect",
]
