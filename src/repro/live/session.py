"""In-process side of a live run: gate, event tap, publisher thread.

A :class:`LiveSession` is created by ``SmpssRuntime.start()`` when the
``live`` knob is on.  It owns three pieces:

* the **control plane** — a :class:`~repro.core.scheduler.DispatchGate`
  installed on the runtime's scheduler and bound to the runtime's
  scheduler lock and condition variables, so ``pause()`` parks workers
  on the very cvs they already sleep on when queues run dry;
* the **event tap** — a listener on the runtime's tracer that appends
  each :class:`TraceEvent` to a lock-free deque (one C-level append on
  the emitting thread, which may hold runtime locks — nothing heavier
  is allowed there);
* the **event plane** — a publisher thread that drains the deque and
  publishes each event as a ``trace`` record, its Chrome trace record
  (:func:`repro.obs.export.chrome_record`, tracer clock), through the
  runtime's observation endpoint
  (:func:`repro.obs.exposition.open_endpoint`, which also routes the
  live commands here), interleaving a metrics snapshot every
  :data:`SNAPSHOT_INTERVAL` seconds.

The session is also the in-process debugger handle::

    rt = SmpssRuntime(live=True, live_start_paused=True)
    with rt:
        submit_everything()
        rt.live.add_break(name="spotrf_t")
        rt.live.step(5)
        ...
        rt.live.resume()
        rt.barrier()
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional

from ..core.scheduler import DispatchGate
from ..obs.export import chrome_record

__all__ = ["LiveSession"]

#: Seconds between periodic metrics snapshots on the event stream.  A
#: client's drain window must stay below it (``repro live attach
#: --settle`` defaults to 0.2) or the stream never looks quiet.
SNAPSHOT_INTERVAL = 0.25


class LiveSession:
    """Control + event plane for one running :class:`SmpssRuntime`."""

    def __init__(self, runtime, server):
        self._runtime = runtime
        #: The runtime's endpoint (a :class:`repro.net.Server`): the
        #: session publishes on it and never closes it.
        self.server = server
        self.gate = DispatchGate()
        self.gate.bind(
            runtime._sched_lock, runtime._sched_cv, runtime._main_cv
        )
        self.gate.on_hold = self._on_hold
        if runtime.config.live_start_paused:
            # Direct field writes: workers do not exist yet, nothing to
            # wake, and the gate is visible before the first dispatch.
            self.gate.paused = True
            self.gate.engaged = True
        # The gate occupies scheduler.gate only while engaged, so an
        # idle live session adds zero cost at the dispatch point.
        self.gate.install(runtime.scheduler)

        #: Pending records: TraceEvent objects from the tap plus
        #: ready-made record dicts (dispatch notifications, notes).
        #: deque.append is a single GIL-atomic op — safe from any
        #: thread without a lock.
        self._queue: deque = deque()
        self._closed = threading.Event()
        self._wake = threading.Event()

        runtime.tracer.listener = self._queue.append
        self._publisher = threading.Thread(
            target=self._publish_loop, name="repro-live-publish", daemon=True
        )
        self._publisher.start()

    # ------------------------------------------------------------------
    # control plane (thread-safe; usable in-process or via commands)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self.gate.pause()
        self._note("paused")

    def resume(self) -> None:
        self.gate.resume()
        self._note("resumed")

    def step(self, n: int = 1) -> None:
        self.gate.step(n)

    def add_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> None:
        self.gate.add_break(name=name, task_id=task_id)

    def clear_breaks(self) -> None:
        self.gate.clear_breaks()

    def state(self) -> dict:
        """One control/occupancy snapshot (racy reads of scalar fields
        — self-consistent enough for a dashboard, never blocking the
        runtime)."""

        rt = self._runtime
        scheduler = rt.scheduler
        depths_fn = getattr(scheduler, "queue_depths", None)
        workers = []
        for idx, task in enumerate(rt._current):
            if task is None:
                workers.append(None)
            else:
                workers.append({"id": task.task_id, "name": task.name})
        state = dict(self.gate.state())
        state.update(
            running=rt._running,
            parked=rt._parked,
            main_waiting=rt._main_parked,
            ready=scheduler.ready_count,
            pending=rt.graph.pending_count if rt.graph is not None else 0,
            executed=rt.tasks_executed,
            workers=workers,
            depths=depths_fn() if depths_fn is not None else None,
            clients=self.server.client_count,
        )
        return state

    # ------------------------------------------------------------------
    # hooks (called by the runtime / backends)
    # ------------------------------------------------------------------
    def notify_dispatch(self, task, thread: int) -> None:
        """Process backend: *task* was handed to worker *thread*'s
        process.  Its ``running`` event only arrives with the reply, so
        this is the dashboard's only timely "it left the queue"."""

        self._queue.append({"ev": "dispatched", "id": task.task_id,
                            "name": task.name, "thread": thread})
        self._wake.set()

    def _on_hold(self, task) -> None:
        # Called under the scheduler lock: enqueue only.
        self._queue.append(
            {
                "ev": "note",
                "text": (
                    f"breakpoint: held task #{task.task_id} "
                    f"{task.name!r}; runtime paused"
                ),
                "held": task.task_id,
            }
        )
        self._wake.set()

    def _note(self, text: str) -> None:
        self._queue.append({"ev": "note", "text": text})
        self._wake.set()

    def release_for_shutdown(self) -> None:
        """Lift pause/breakpoints so runtime shutdown cannot hang on a
        detached debugger (called by ``SmpssRuntime.shutdown``)."""

        gate = self.gate
        if gate.paused or gate.break_names or gate.break_ids:
            self._note("shutdown: releasing gate (pause/breakpoints cleared)")
            gate.clear_breaks()
            gate.resume()

    # ------------------------------------------------------------------
    # command routing (the endpoint's reader threads land here)
    # ------------------------------------------------------------------
    def command(self, command: dict) -> dict:
        """Apply one of :data:`~repro.live.protocol.COMMANDS`; the
        answer is the state after it."""

        cmd = command.get("cmd")
        if cmd == "pause":
            self.pause()
        elif cmd == "resume":
            self.resume()
        elif cmd == "step":
            self.step(int(command.get("n", 1)))
        elif cmd == "break":
            self.add_break(name=command.get("name"), task_id=command.get("id"))
        elif cmd == "clear":
            self.clear_breaks()
        return self.state()

    # ------------------------------------------------------------------
    # event plane
    # ------------------------------------------------------------------
    def _publish_loop(self) -> None:
        queue = self._queue
        server = self.server
        last_snapshot = 0.0
        while True:
            closing = self._closed.is_set()
            while queue:
                record = queue.popleft()
                if not isinstance(record, dict):
                    record = {"ev": "trace", **chrome_record(record)}
                server.publish(record)
            if closing:
                # close() detaches the tracer listener before setting
                # the flag, so the drain above saw the final event.
                server.publish(self._snapshot_record(), retain=False)
                return
            now = time.monotonic()
            if now - last_snapshot >= SNAPSHOT_INTERVAL:
                server.publish(self._snapshot_record(), retain=False)
                last_snapshot = now
            # The tap is a bare deque.append (no wakeup — nothing
            # heavier is allowed on the emitting thread), so the drain
            # polls; dispatch/hold/note records set the event to cut
            # their latency.
            if self._wake.wait(0.02):
                self._wake.clear()

    def _snapshot_record(self) -> dict:
        record = {"ev": "snapshot"}
        record.update(self.state())
        return record

    def close(self) -> None:
        runtime = self._runtime
        if runtime.tracer is not None:
            runtime.tracer.listener = None
        self._closed.set()
        self._wake.set()
        self._publisher.join(timeout=5.0)
