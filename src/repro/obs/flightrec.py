"""Flight recorder: bounded recent-history ring, dumped on anomaly.

Long-running programs cannot afford ``trace=True`` (an event object per
scheduler operation, rings sized for whole runs) yet are exactly the
runs where a wedge three hours in must be diagnosable.  The flight
recorder is the always-on middle ground:

* the runtime appends **one plain tuple per completed task** to a
  bounded ``deque`` — ``(task_id, name, thread, end_time, duration)``.
  No ``TraceEvent`` construction and no locking at all: the append is
  GIL-atomic, each worker is the only writer of its ``busy`` slot, and
  the ring discards oldest-first, so memory is O(capacity) regardless
  of run length;
* the health watchdog appends **periodic metrics snapshots** to a
  second, smaller ring on its own thread (off the hot path entirely);
* :meth:`FlightRecorder.dump` reconstructs Chrome-trace ``B``/``E``
  pairs from the completion tuples (via the regular
  :func:`repro.obs.export.to_chrome_trace`) and writes the ring, the
  metrics history, the current wait graph (DOT) and any findings next
  to each other — one directory visit explains the last N seconds of a
  run that never had tracing on.

When the run *does* have tracing on, the dump prefers the real
tracer's events (richer: ready/steal/barrier instants); the completion
ring is still recorded in the metrics JSON either way.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import deque
from typing import Optional

from ..core.tracing import EventKind, TraceEvent

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Bounded rings of recent completions and metrics snapshots.

    *capacity* bounds the completion ring (tuples, so ~100 bytes each);
    *snapshot_capacity* bounds the metrics-snapshot ring the watchdog
    feeds.  ``note_task`` is the only method on the runtime's hot path
    and runs with no lock held: ``deque.append`` is GIL-atomic,
    ``busy[thread]`` has the calling worker as its only writer, and
    the ``last_completion``/``completions`` scalars tolerate the rare
    lost race (they feed telemetry, not scheduling decisions — the
    watchdog detects progress via ``runtime.tasks_executed``).
    Everything else runs on watchdog/exposition threads and tolerates
    racy reads.
    """

    def __init__(self, num_threads: int, capacity: int = 4096,
                 snapshot_capacity: int = 64):
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._snapshots: deque = deque(maxlen=snapshot_capacity)
        #: Cumulative busy seconds per thread index (0 = main), the
        #: source for utilization-since-last-scrape gauges.
        self.busy = [0.0] * num_threads
        #: perf_counter of the most recent completion (0.0 = none yet).
        self.last_completion = 0.0
        #: Total completions noted (monotonic, unlike the bounded ring).
        self.completions = 0
        #: Dump serial number (suffixes filenames so repeated anomalies
        #: in one process never overwrite each other).
        self._dump_seq = 0

    # ------------------------------------------------------------------
    # hot path (called by the runtime's completion path, lock-free)
    # ------------------------------------------------------------------
    def note_task(self, task_id: int, name: str, thread: int,
                  end_time: float, duration: float) -> None:
        self._ring.append((task_id, name, thread, end_time, duration))
        if 0 <= thread < len(self.busy):
            self.busy[thread] += duration
        self.last_completion = end_time
        self.completions += 1

    # ------------------------------------------------------------------
    # watchdog side
    # ------------------------------------------------------------------
    def note_snapshot(self, snapshot: dict) -> None:
        """Record one periodic metrics/health sample (watchdog thread)."""

        self._snapshots.append(snapshot)

    def events(self) -> list[TraceEvent]:
        """Reconstruct ``TASK_START``/``TASK_END`` pairs from the ring.

        Start times are ``end_time - duration`` — exact for the task
        body itself, which is all the completion tuples ever claimed to
        record.
        """

        out = []
        for task_id, name, thread, end, duration in list(self._ring):
            out.append(TraceEvent(time=end - duration,
                                  kind=EventKind.TASK_START,
                                  task_id=task_id, task_name=name,
                                  thread=thread))
            out.append(TraceEvent(time=end, kind=EventKind.TASK_END,
                                  task_id=task_id, task_name=name,
                                  thread=thread))
        return out

    def snapshots(self) -> list[dict]:
        """The retained watchdog snapshots, oldest first."""

        return list(self._snapshots)

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------
    def dump(self, directory: Optional[str] = None, *, runtime=None,
             findings: Optional[list] = None,
             reason: str = "manual") -> dict:
        """Write the flight-recorder state to *directory*; return paths.

        Files (``<stem>`` is ``flight-<pid>-<seq>``):

        * ``<stem>.trace.json``  — Chrome trace (Perfetto-loadable) of
          the completion ring, or of the real tracer when tracing is on;
        * ``<stem>.metrics.json`` — current registry snapshot, the
          watchdog's snapshot history, the raw completion ring, and the
          dump's reason/findings;
        * ``<stem>.waitgraph.dot`` — the current wait graph with blocked
          tasks annotated (only when *runtime* is given and has pending
          tasks).

        *directory* ``None`` falls back to the system temp directory —
        an anomaly dump must never fail because nobody configured a
        path.  Exceptions from individual writers are contained: a dump
        triggered *because* the runtime is wedged must not take the
        watchdog down with it.
        """

        from .export import to_chrome_trace  # local: avoid import cycle

        if directory is None:
            directory = tempfile.gettempdir()
        os.makedirs(directory, exist_ok=True)
        self._dump_seq += 1
        stem = f"flight-{os.getpid()}-{self._dump_seq}"
        paths = {"reason": reason, "directory": directory}

        tracer = getattr(runtime, "tracer", None) if runtime else None
        events = (tracer.events if tracer else None) or self.events()
        # Every file lands via write-to-temp + rename, so a concurrent
        # reader (or a monitoring agent watching the directory) never
        # sees a half-written document.
        trace_path = os.path.join(directory, f"{stem}.trace.json")
        try:
            with open(trace_path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(to_chrome_trace(events), handle)
            os.replace(trace_path + ".tmp", trace_path)
            paths["trace"] = trace_path
        except Exception as exc:  # noqa: BLE001 - diagnostic best effort
            paths["trace_error"] = str(exc)

        metrics_path = os.path.join(directory, f"{stem}.metrics.json")
        payload = {
            "reason": reason,
            "wall_time": time.time(),
            "completions": self.completions,
            "busy_seconds": list(self.busy),
            "ring": [list(item) for item in self._ring],
            "snapshots": list(self._snapshots),
            "findings": [
                f.as_dict() if hasattr(f, "as_dict") else f
                for f in (findings or [])
            ],
        }
        registry = getattr(runtime, "metrics", None) if runtime else None
        if registry is not None:
            try:
                payload["metrics"] = registry.snapshot()
            except Exception as exc:  # noqa: BLE001
                payload["metrics_error"] = str(exc)
        try:
            with open(metrics_path + ".tmp", "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, default=str)
            os.replace(metrics_path + ".tmp", metrics_path)
            paths["metrics"] = metrics_path
        except Exception as exc:  # noqa: BLE001
            paths["metrics_error"] = str(exc)

        if runtime is not None:
            from .health import wait_graph_dot  # local: avoid cycle

            dot_path = os.path.join(directory, f"{stem}.waitgraph.dot")
            try:
                dot = wait_graph_dot(runtime)
                if dot is not None:
                    with open(
                        dot_path + ".tmp", "w", encoding="utf-8"
                    ) as handle:
                        handle.write(dot)
                        handle.write("\n")
                    os.replace(dot_path + ".tmp", dot_path)
                    paths["waitgraph"] = dot_path
            except Exception as exc:  # noqa: BLE001
                paths["waitgraph_error"] = str(exc)
        return paths
