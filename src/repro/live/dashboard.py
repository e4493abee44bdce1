"""Delta-stream consumer + terminal rendering.

:class:`DashboardState` is the one state machine behind every view of
a run: ``repro.live attach`` feeds it the live socket stream,
``repro.live replay`` feeds it the deltas of a saved recording's
simulated run — the acceptance criterion "live and post-mortem views
are one code path" is this class.

It mirrors the graph (tasks, states, edges), the per-worker current
task, the latest control snapshot, and the start/end times of ``done``
tasks.  The unit-weight depth over the received edges is the
critical-path-so-far count; everything timed — work, span, the
critical path — is :meth:`report`, the same
:func:`repro.obs.analyze.analyze_events` pass a post-mortem trace
gets, over the collected intervals and edges.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..core.graph import longest_path

__all__ = ["DashboardState", "render"]

#: Task-state lattice: a delta may only move a task forward (duplicate
#: or out-of-order records — e.g. mp ``running`` arriving after the
#: master already saw ``done`` — are ignored).
_STATE_ORDER = {
    "submitted": 0,
    "blocked": 0,
    "ready": 1,
    "dispatched": 2,
    "running": 3,
    "done": 4,
}


class DashboardState:
    """Apply graph deltas; answer dashboard questions."""

    def __init__(self):
        self.hello: dict = {}
        #: task_id -> {"name", "state", "start", "end", "thread"}
        self.tasks: dict[int, dict] = {}
        #: (src, dst) -> kind
        self.edges: dict[tuple, str] = {}
        #: dst -> [src, ...] (for depth computation)
        self._preds: dict[int, list] = {}
        self.renames = 0
        self.steals = 0
        self.marks: Counter = Counter()
        self.notes: list[str] = []
        self.snapshot: dict = {}
        self.records_applied = 0
        self._depth_dirty = True
        self._depth = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def apply(self, record: dict) -> None:
        """Fold one wire record into the state (idempotent)."""

        ev = record.get("ev")
        self.records_applied += 1
        if ev == "task":
            self._apply_task(record)
        elif ev == "edge":
            key = (record["src"], record["dst"])
            if key not in self.edges:
                self.edges[key] = record.get("kind", "true")
                self._preds.setdefault(key[1], []).append(key[0])
                self._depth_dirty = True
            # An edge can arrive before its tasks' ``submitted`` deltas
            # (the graph emits during analysis, before the runtime's
            # task_added): materialise placeholders.
            for task_id in key:
                self.tasks.setdefault(
                    task_id,
                    {"name": "", "state": "submitted",
                     "start": None, "end": None, "thread": None},
                )
        elif ev == "rename":
            self.renames += 1
        elif ev == "steal":
            self.steals += 1
        elif ev == "mark":
            self.marks[record.get("what", "?")] += 1
        elif ev == "note":
            self.notes.append(record.get("text", ""))
        elif ev == "snapshot":
            self.snapshot = record
        elif ev == "hello":
            self.hello = record

    def _apply_task(self, record: dict) -> None:
        task_id = record["id"]
        info = self.tasks.get(task_id)
        if info is None:
            info = {"name": "", "state": "submitted",
                    "start": None, "end": None, "thread": None}
            self.tasks[task_id] = info
            self._depth_dirty = True
        if record.get("name"):
            info["name"] = record["name"]
        state = record.get("state", "submitted")
        if _STATE_ORDER.get(state, 0) >= _STATE_ORDER.get(info["state"], 0):
            info["state"] = state
        t = record.get("t")
        thread = record.get("thread")
        if state == "ready":
            info["ready"] = (t, thread)
        elif state == "running":
            info["start"] = t
            info["thread"] = thread
        elif state == "done":
            info["end"] = t
            if info["thread"] is None:
                info["thread"] = thread

    # ------------------------------------------------------------------
    # questions
    # ------------------------------------------------------------------
    def counts(self) -> Counter:
        """Tasks per state."""

        return Counter(info["state"] for info in self.tasks.values())

    def tasks_by_name(self) -> Counter:
        return Counter(
            info["name"] for info in self.tasks.values() if info["name"]
        )

    def workers(self) -> list:
        """Per-thread current task from the latest snapshot (live) or
        from running deltas (replay)."""

        snap_workers = self.snapshot.get("workers")
        if snap_workers is not None:
            return snap_workers
        by_thread: dict[int, dict] = {}
        for task_id, info in self.tasks.items():
            if info["state"] in ("running", "dispatched") \
                    and info["thread"] is not None:
                by_thread[info["thread"]] = {
                    "id": task_id, "name": info["name"]
                }
        if not by_thread:
            return []
        return [
            by_thread.get(idx) for idx in range(max(by_thread) + 1)
        ]

    def _task_preds(self, task_id: int):
        return self._preds.get(task_id, ())

    def critical_path_depth(self) -> int:
        """Unit-weight longest chain over every edge seen so far."""

        if not self._depth_dirty:
            return self._depth
        depth, _ = longest_path(
            sorted(self.tasks), self._task_preds, lambda _task_id: 1
        )
        self._depth = max(depth.values(), default=0)
        self._depth_dirty = False
        return self._depth

    def to_events(self) -> list:
        """Reconstruct the received edges as ``EDGE_ADDED`` and each
        completed task's READY/START/END trace events, for
        :func:`repro.obs.analyze.analyze_events`."""

        from ..core.tracing import EventKind, TraceEvent

        events = [
            TraceEvent(time=0.0, kind=EventKind.EDGE_ADDED, task_id=dst,
                       extra=(src, kind))
            for (src, dst), kind in self.edges.items()
        ]
        for task_id, info in sorted(self.tasks.items()):
            if info["start"] is None or info["end"] is None:
                continue
            thread = info["thread"] if info["thread"] is not None else 0
            if "ready" in info:
                ready_t, releaser = info["ready"]
                events.append(TraceEvent(
                    time=ready_t, kind=EventKind.TASK_READY, task_id=task_id,
                    task_name=info["name"], thread=releaser,
                ))
            events.append(TraceEvent(
                time=info["start"], kind=EventKind.TASK_START,
                task_id=task_id, task_name=info["name"], thread=thread,
            ))
            events.append(TraceEvent(
                time=info["end"], kind=EventKind.TASK_END,
                task_id=task_id, task_name=info["name"], thread=thread,
            ))
        events.sort(key=lambda e: e.time)
        return events

    def report(self, num_threads: Optional[int] = None):
        """Full :class:`~repro.obs.analyze.TraceReport` over the
        completed work (live and replay share this path too)."""

        from ..obs.analyze import analyze_events

        return analyze_events(self.to_events(), num_threads=num_threads)

    def signature(self) -> dict:
        """Order-insensitive digest of the mirrored run — what the
        live-vs-replay equivalence test compares."""

        return {
            "tasks": len(self.tasks),
            "by_name": dict(sorted(self.tasks_by_name().items())),
            "edges": len(self.edges),
            "critical_path": self.critical_path_depth(),
            "done": self.counts().get("done", 0),
        }


def render(state: DashboardState, width: int = 72) -> str:
    """The terminal dashboard: counts, workers, queues, control."""

    counts = state.counts()
    snap = state.snapshot
    lines = []
    backend = state.hello.get("backend", "?")
    threads = state.hello.get("threads", snap.get("threads", "?"))
    lines.append("=" * width)
    lines.append(
        f"repro.live — backend={backend} threads={threads} "
        f"records={state.records_applied}"
    )
    lines.append("-" * width)
    total = len(state.tasks)
    done = counts.get("done", 0)
    bar_w = max(10, width - 30)
    filled = int(bar_w * done / total) if total else 0
    lines.append(
        f"tasks {done:>6}/{total:<6} [{'#' * filled}{'.' * (bar_w - filled)}]"
    )
    lines.append(
        "states  "
        + "  ".join(
            f"{name}={counts.get(name, 0)}"
            for name in ("submitted", "ready", "dispatched", "running", "done")
            if counts.get(name, 0)
        )
    )
    lines.append(
        f"graph   edges={len(state.edges)} renames={state.renames} "
        f"steals={state.steals} critical-path≥{state.critical_path_depth()} "
        f"(weighted≈{state.report().span or 0.0:.4g})"
    )
    if snap:
        gate_bits = []
        if snap.get("paused"):
            gate_bits.append("PAUSED")
        if snap.get("step_budget"):
            gate_bits.append(f"step_budget={snap['step_budget']}")
        breaks = list(snap.get("break_names", ())) + [
            f"#{i}" for i in snap.get("break_ids", ())
        ]
        if breaks:
            gate_bits.append("breaks=" + ",".join(str(b) for b in breaks))
        lines.append(
            f"sched   ready={snap.get('ready', '?')} "
            f"running={snap.get('running', '?')} "
            f"parked={snap.get('parked', '?')} "
            f"pending={snap.get('pending', '?')}"
            + ("  [" + " ".join(gate_bits) + "]" if gate_bits else "")
        )
        depths = snap.get("depths")
        if depths:
            local = ",".join(str(d) for d in depths.get("locals", ()))
            lines.append(
                f"queues  high={depths.get('high')} main={depths.get('main')}"
                + (f" locals=[{local}]" if local else "")
            )
    workers = state.workers()
    for idx, current in enumerate(workers):
        if current is None:
            lines.append(f"  thr {idx:2d}  (idle)")
        else:
            lines.append(
                f"  thr {idx:2d}  #{current['id']} {current['name']}"
            )
    if state.notes:
        lines.append("note    " + state.notes[-1])
    lines.append("=" * width)
    return "\n".join(lines)
