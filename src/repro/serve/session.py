"""The served session: the local programming model over a socket.

:func:`repro.serve.connect` returns a :class:`ServeSession` whose
surface mirrors the in-process runtime — it sits on the same
:mod:`repro.core.api` stack, so ``@css_task`` calls, ``barrier()``,
``wait_on()`` and the bundled apps all work unchanged.  A driver
moves from local to served execution by changing one line::

    with SmpssRuntime(num_workers=4) as rt:      # local
    with repro.serve.connect(address) as rt:     # served

Submission is deferred-batch: ``@css_task`` calls accumulate client
side, and any synchronisation point (``barrier``, ``wait_on``,
``gather``) ships the whole batch as ONE graph — tasks referenced by
module/qualname (the mp backend's registration rule), tracked data by
value, as binary frames behind the command's line.  The server analyses
dependencies, runs the graph on its fleet, and the ack carries the
post-barrier bytes of only what the graph may write (a datum every task
declares ``input`` is left out), which the session writes back into the
caller's original arrays — results are bitwise identical to local
execution.  Each direction is one gather write (``run`` and its ack).

Unlike :class:`~repro.core.runtime.SmpssRuntime`, a session is not
*exclusive*: many sessions may be active concurrently on different
threads of one process (each thread is the main program of its own
submission stream), which is how one client process drives several
tenants at once.
"""

from __future__ import annotations

import getpass
import itertools
import os
from typing import Optional

from ..core import api as _api
from ..core.dependencies import _SCALAR_TYPES
from ..core.invocation import plan_for
from ..net.client import Client
from . import protocol as sp
from .errors import GraphRejected, RemoteGraphError, ServeError

__all__ = ["ServeSession", "connect"]

_session_serial = itertools.count(1)  # next() is atomic


def _default_tenant() -> str:
    try:
        user = getpass.getuser()
    except Exception:  # noqa: BLE001 - environment without a passwd entry
        user = "client"
    return f"{user}-{os.getpid()}-{next(_session_serial)}"


class _Transport(Client):
    """The session's JSON-lines client.  The serve protocol ships dict
    errors (code/status/detail), so it reads whole acks
    (:meth:`Client.request`) where :meth:`Client.command` would flatten
    the error to a string."""

    def rpc(self, cmd: str, **fields) -> dict:
        if self._sock is None:
            raise ServeError("session transport already closed")
        return self.request(cmd, **fields)


class ServeSession:
    """One tenant's connection to a running task-graph daemon.

    Use as a context manager — the session registers on the api stack
    so every ``@css_task`` call inside the block is served::

        with repro.serve.connect("tcp:127.0.0.1:7070") as rt:
            cholesky_hyper(hm)
            rt.barrier()

    *timeout* bounds each read while a graph runs; *connect_timeout*
    and *connect_attempts* bound the initial dial (with exponential
    backoff between attempts), so connecting to a dead or still-
    starting daemon fails in bounded time instead of hanging.
    """

    #: Served sessions keep no process-global state (no task-id
    #: counter, no forked fleet), so many may be active at once —
    #: see the api stack's exclusivity contract.
    exclusive = False

    def __init__(
        self,
        address: str,
        tenant: Optional[str] = None,
        timeout: float = 120.0,
        constants: Optional[dict] = None,
        connect_timeout: Optional[float] = 10.0,
        connect_attempts: int = 5,
    ):
        self.address = address
        self.tenant = tenant or _default_tenant()
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.connect_attempts = connect_attempts
        self.constants = dict(constants or {})
        self._transport: Optional[_Transport] = None
        self._batch: list[tuple] = []      # (definition, values)
        self._datums: dict[int, tuple] = {}  # id(obj) -> (datum_id, obj)
        self._started = False
        #: Server facts from the open ack (limits, fleet shape).
        self.server_info: dict = {}
        #: Graphs this session has shipped (one per synchronisation).
        self.graphs_submitted = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServeSession":
        if self._started:
            raise ServeError("session already started")
        self._transport = _Transport(
            self.address,
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
            connect_attempts=self.connect_attempts,
        )
        ack = self._transport.rpc(
            "open", tenant=self.tenant, version=sp.SERVE_PROTOCOL_VERSION
        )
        if not ack.get("ok"):
            error = ack.get("error")
            self._transport.close()
            self._transport = None
            raise ServeError(f"open rejected: {self._error_from(error)}")
        self.server_info = ack.get("data", {})
        self._started = True
        _api.push_runtime(self)
        return self

    def close(self) -> None:
        if self._started:
            _api.discard_runtime(self)
            self._started = False
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.detach()
        self._batch.clear()
        self._datums.clear()

    def __enter__(self) -> "ServeSession":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None and self._batch:
                # Mirror the local runtime: leaving the block implies
                # the final barrier.
                self.barrier()
        finally:
            self.close()

    # ------------------------------------------------------------------
    # the runtime surface (what the api stack calls)
    # ------------------------------------------------------------------
    def in_task_body(self) -> bool:
        return False

    def submit(self, definition, args: tuple, kwargs: dict):
        """Record one task call; ships at the next synchronisation.  It
        binds as the local runtime does: a bad call raises here."""

        if not self._started:
            raise ServeError("session is not started")
        plan = definition._invocation_plan or plan_for(definition)
        n = len(args)
        if kwargs or not plan.n_required <= n <= plan.n_params:
            args = tuple(definition.bind_dict(args, kwargs).values())
        elif n < plan.n_params:
            args += plan.defaults_tail[n - plan.n_required:]
        datums = self._datums
        for value in args:  # a tracked datum (sp.is_datum, inline)
            if id(value) not in datums and not isinstance(
                    value, _SCALAR_TYPES):
                datums[id(value)] = (f"d{len(datums)}", value)
        self._batch.append((definition, args))

    def barrier(self) -> None:
        """Ship the batch as one graph; write results back; block."""

        self.flush()

    wait_all = barrier

    def acquire(self, obj):
        """``wait_on`` semantics: synchronise, then read *obj* itself.

        The server has already written every datum back by the time
        the run ack lands, so post-flush the base object IS the latest
        version.
        """

        self.flush()
        return obj

    def gather(self, *objs):
        """Synchronise and return the up-to-date objects."""

        self.flush()
        if len(objs) == 1:
            return objs[0]
        return objs

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def flush(self) -> None:
        if not self._batch:
            return
        if self._transport is None:
            raise ServeError("session is not started")
        # The datums submit registered (each batch value held alive by
        # the batch, so no id is reused meanwhile).
        datums = self._datums
        frames: list[tuple] = []  # the record's attachments, by index
        data = {datum_id: sp.attach(frames, sp.encode_datum(obj))
                for datum_id, obj in datums.values()}
        tasks = [{"def": sp.definition_ref(definition), "args": [
            {"d": datums[id(value)][0]} if sp.is_datum(value)
            else sp.encode_value(value, frames) for value in values]}
            for definition, values in self._batch]
        constants = {key: sp.encode_value(value, frames)
                     for key, value in self.constants.items()}
        ack = self._transport.rpc(
            "run", tasks=tasks, data=data, constants=constants, frames=frames
        )
        if not ack.get("ok"):
            # The batch is gone either way: a rejected graph must not
            # re-ship itself on the next barrier.
            self._batch.clear()
            self._datums.clear()
            raise self._error_from(ack.get("error"))
        by_id, blobs = dict(datums.values()), ack.get("frames", ())
        for datum_id, index in ack.get("data", {}).get("results", {}).items():
            if datum_id in by_id:
                sp.write_back_into(by_id[datum_id],
                                   sp.attachment(blobs, index))
        self.graphs_submitted += 1
        self._batch.clear()
        self._datums.clear()

    # ------------------------------------------------------------------
    # service introspection
    # ------------------------------------------------------------------
    def _query(self, cmd: str) -> dict:
        if self._transport is None:
            raise ServeError("session is not started")
        ack = self._transport.rpc(cmd)
        if not ack.get("ok"):
            raise self._error_from(ack.get("error"))
        return ack.get("data", {})

    def ping(self) -> dict:
        return self._query("ping")

    def service_state(self) -> dict:
        """The daemon's health view (tenants, queue depth, limits)."""

        return self._query("health")

    # ------------------------------------------------------------------
    @staticmethod
    def _error_from(error) -> ServeError:
        if not isinstance(error, dict):
            return ServeError(str(error))
        detail = dict(error)
        code = detail.pop("code", "error")
        message = str(detail.pop("message", error))
        if detail.pop("status", None) == 429:
            return GraphRejected(code, message, **detail)
        if code == "task_failed":
            return RemoteGraphError(message, detail.get("traceback", ""))
        return ServeError(message, code, **detail)


#: ``repro.serve.connect(address, tenant=...)``: the spelling drivers use.
connect = ServeSession
