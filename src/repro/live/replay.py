"""Time-travel replay: drive the dashboard from a saved recording.

A :class:`ReplayEngine` takes the topology + submission stream saved by
:meth:`RecordedProgram.save <repro.core.recorder.RecordedProgram.save>`
and synthesises the *same wire deltas* a live session would stream —
submitted / edge / ready / running / done — into a
:class:`~repro.live.dashboard.DashboardState`.  One code path renders
both the living run and the post-mortem one; that is the point.

Execution is in deterministic *units* of virtual time: each unit runs
the lowest-id ready task (the order the runtime's own deterministic
release path favours) on a round-robin virtual thread.  ``step(n)``
advances n units; ``back(n)`` rewinds by rebuilding from the start and
stepping forward again — state is tiny, so time travel is a replay of
a replay.
"""

from __future__ import annotations

from typing import Optional

from ..core.recorder import LoadedRecording, load_recording
from .dashboard import DashboardState

__all__ = ["ReplayEngine"]


class ReplayEngine:
    """Deterministic stepping over a :class:`LoadedRecording`."""

    def __init__(self, recording, num_threads: int = 4,
                 dashboard: Optional[DashboardState] = None):
        if not isinstance(recording, LoadedRecording):
            recording = load_recording(recording)
        self.recording = recording
        self.num_threads = max(1, num_threads)
        self.dashboard = dashboard if dashboard is not None \
            else DashboardState()
        self.units = 0
        self._names: dict[int, str] = {}
        self._ready: list[int] = []
        self._pending_deps: dict[int, int] = {}
        self._succs: dict[int, list] = {}
        self._done: set[int] = set()
        self.reset()

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def _emit(self, record: dict) -> None:
        self.dashboard.apply(record)

    def reset(self) -> None:
        """Rebuild to unit 0: whole stream submitted, nothing run.

        Submissions flush eagerly — exactly the picture a live client
        sees under ``live_start_paused=True``, where the main thread
        races ahead of the (gated) workers and the full worst-case
        hazard graph is on screen before the first dispatch.
        """

        rec = self.recording
        self.units = 0
        self._done = set()
        self._names = {tid: name for tid, name, _prio in rec.tasks}
        in_edges: dict[int, list] = {}
        self._succs = {}
        self._pending_deps = {}
        for src, dst, kind in rec.edges:
            in_edges.setdefault(dst, []).append((src, kind))
            self._succs.setdefault(src, []).append(dst)
            self._pending_deps[dst] = self._pending_deps.get(dst, 0) + 1
        for succs in self._succs.values():
            succs.sort()
        self._ready = []
        self._emit({
            "ev": "hello",
            "backend": "replay",
            "threads": self.num_threads,
            "version": 1,
        })
        for tid, name, _prio in rec.tasks:
            self._emit({
                "ev": "task", "id": tid, "name": name,
                "state": "submitted", "t": 0.0, "thread": -1,
            })
            for src, kind in in_edges.get(tid, ()):
                self._emit({"ev": "edge", "src": src, "dst": tid,
                            "kind": kind})
            if self._pending_deps.get(tid, 0) == 0:
                self._ready.append(tid)
                self._emit({
                    "ev": "task", "id": tid, "name": name,
                    "state": "ready", "t": 0.0, "thread": -1,
                })
        self._ready.sort()
        for entry in rec.stream:
            if entry[0] in ("barrier", "wait"):
                self._emit({"ev": "mark",
                            "what": f"replay_{entry[0]}",
                            "t": 0.0, "thread": 0})
        self._snapshot()

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, n: int = 1) -> int:
        """Advance *n* execution units; returns how many actually ran."""

        ran = 0
        for _ in range(n):
            if not self._ready:
                break
            task_id = self._ready.pop(0)  # lowest id (list kept sorted)
            thread = self.units % self.num_threads
            name = self._names.get(task_id, "")
            self._emit({
                "ev": "task", "id": task_id, "name": name,
                "state": "running", "t": float(self.units),
                "thread": thread,
            })
            self._emit({
                "ev": "task", "id": task_id, "name": name,
                "state": "done", "t": float(self.units + 1),
                "thread": thread,
            })
            self._done.add(task_id)
            released = []
            for succ in self._succs.get(task_id, ()):
                self._pending_deps[succ] -= 1
                if self._pending_deps[succ] == 0:
                    released.append(succ)
            for succ in released:
                self._ready.append(succ)
                self._emit({
                    "ev": "task", "id": succ,
                    "name": self._names.get(succ, ""),
                    "state": "ready", "t": float(self.units + 1),
                    "thread": thread,
                })
            if released:
                self._ready.sort()
            self.units += 1
            ran += 1
        self._snapshot()
        return ran

    def back(self, n: int = 1) -> int:
        """Rewind *n* units (floor 0); returns the new unit index."""

        target = max(0, self.units - n)
        # Keep the same dashboard object but restart its world: a fresh
        # state applied in place, so callers holding a reference see
        # the rewound picture.
        self.dashboard.__init__()
        self.reset()
        if target:
            self.step(target)
        return self.units

    def run(self, limit: int = 10_000_000) -> int:
        """Execute to the end (or *limit* units); returns units run."""

        ran = 0
        while self._ready and ran < limit:
            ran += self.step(min(1024, limit - ran))
        return ran

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        return len(self.recording.tasks) - len(self._done)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def _snapshot(self) -> None:
        self._emit({
            "ev": "snapshot",
            "paused": True,  # replay only moves when stepped
            "step_budget": 0,
            "break_names": [], "break_ids": [],
            "ready": len(self._ready),
            "running": 0,
            "parked": self.num_threads - 1,
            "pending": self.remaining,
            "executed": len(self._done),
            "unit": self.units,
        })
