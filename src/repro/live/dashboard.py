"""Trace-stream consumer + terminal rendering.

:class:`DashboardState` is the one state machine behind every view of
a run: ``repro.live attach`` feeds it the live socket stream, whose
events are Chrome trace records (:func:`repro.obs.export.chrome_record`),
and ``repro.live replay`` hands it the trace events of a saved
recording's simulated run — the acceptance criterion "live and
post-mortem views are one code path" is this class.

It keeps every event it is given and mirrors the graph (tasks, states,
edges), the per-worker current task and the latest control snapshot.
The unit-weight depth over the received edges is the
critical-path-so-far count; everything timed — work, span, the
critical path, barrier time — is :meth:`report`, the same
:func:`repro.obs.analyze.analyze_events` pass a post-mortem trace gets,
over the kept events.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from ..core.graph import longest_path
from ..core.tracing import EventKind, TraceEvent
from ..obs.analyze import analyze_events, chrome_event

__all__ = ["DashboardState", "render"]

#: Task-state lattice: an event may only move a task forward (duplicate
#: or out-of-order records — e.g. mp ``running`` arriving after the
#: master already saw ``done`` — are ignored).
_STATE_ORDER = ("submitted", "ready", "dispatched", "running", "done")

#: The task state each lifecycle event moves its task to.
_TASK_STATES = {
    EventKind.TASK_ADDED: "submitted",
    EventKind.TASK_READY: "ready",
    EventKind.TASK_START: "running",
    EventKind.TASK_END: "done",
}


class DashboardState:
    """Apply trace events and stream records; answer dashboard
    questions."""

    def __init__(self):
        self.hello: dict = {}
        #: Every trace event applied, in arrival order.
        self.events: list[TraceEvent] = []
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
        """Fold one wire record into the state."""

        ev = record.get("ev")
        if ev == "trace":
            event = chrome_event(record)
            if event is not None:
                self.apply_event(event)
            return
        self.records_applied += 1
        if ev == "dispatched":
            self._advance(record["id"], record.get("name"), "dispatched")
        elif ev == "note":
            self.notes.append(record.get("text", ""))
        elif ev == "snapshot":
            self.snapshot = record
        elif ev == "hello":
            self.hello = record

    def apply_event(self, event: TraceEvent) -> None:
        """Keep one trace event and fold it into the mirrored graph."""

        self.events.append(event)
        self.records_applied += 1
        kind = event.kind
        state = _TASK_STATES.get(kind)
        if state is not None:
            info = self._advance(event.task_id, event.task_name, state)
            if state == "running":
                info["start"] = event.time
                info["thread"] = event.thread
            elif state == "done":
                info["end"] = event.time
                if info["thread"] is None:
                    info["thread"] = event.thread
        elif kind == EventKind.EDGE_ADDED:
            if len(event.extra) == 2:  # (pred_id, kind)
                self._add_edge(event.extra[0], event.task_id, event.extra[1])
        elif kind == EventKind.RENAME:
            self.renames += 1
        elif kind == EventKind.STEAL:
            self.steals += 1
        else:
            self.marks[kind] += 1

    def _advance(self, task_id: int, name: Optional[str], state: str) -> dict:
        info = self.tasks.get(task_id)
        if info is None:
            info = {"name": "", "state": state,
                    "start": None, "end": None, "thread": None}
            self.tasks[task_id] = info
            self._depth_dirty = True
        if name:
            info["name"] = name
        if _STATE_ORDER.index(state) > _STATE_ORDER.index(info["state"]):
            info["state"] = state
        return info

    def _add_edge(self, src: int, dst: int, kind: str) -> None:
        # The graph emits an edge during analysis, before the runtime's
        # task_added for its successor: materialise placeholders.
        self._advance(src, None, "submitted")
        self._advance(dst, None, "submitted")
        if (src, dst) not in self.edges:
            self.edges[(src, dst)] = kind
            self._preds.setdefault(dst, []).append(src)
            self._depth_dirty = True

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
        from running tasks (replay)."""

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

    def report(self, num_threads: Optional[int] = None):
        """:func:`~repro.obs.analyze.analyze_events` over the kept
        events — the post-mortem pass; *num_threads* defaults to the
        hello's ``threads``."""

        if num_threads is None:
            num_threads = self.hello.get("threads")
        return analyze_events(self.events, num_threads=num_threads)

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
