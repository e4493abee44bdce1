"""Critical-path and utilisation analysis of traces and graphs.

The questions the paper answers by staring at Paraver timelines
(Figures 6-7: scheduler locality; Figure 8: the small-block runtime-
overhead wall) are computed here directly:

* makespan breakdown — per-thread busy/idle time, utilisation;
* locality hit-rate — the fraction of tasks executed by the thread
  that released their last input dependency, i.e. how often the
  section III "own ready list" policy actually captured reuse;
* the critical path — one longest-path pass over the measured task
  intervals along the trace's own ``edge_added`` events, each link
  split into dependency wait, ready-queue wait and body;
* T₁/T∞ — work and span of the traced DAG, with the greedy-scheduler
  bounds that sandwich any achievable makespan;
* per-task-type duration summaries.

Works over a live :class:`~repro.core.tracing.Tracer` (threaded or
virtual time) or over an exported Chrome trace JSON (the
``python -m repro obs report trace.json`` path), so post-mortem
analysis does not need the producing process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..core.analysis import greedy_bounds
from ..core.graph import longest_path
from ..core.tracing import EventKind, TraceEvent, task_intervals

__all__ = [
    "PathLink",
    "ThreadUsage",
    "TraceReport",
    "analyze_tracer",
    "analyze_events",
    "chrome_event",
    "load_chrome_trace",
    "render_report",
    "runtime_report",
]


@dataclass
class ThreadUsage:
    """One thread's share of the makespan."""

    thread: int
    busy: float = 0.0
    tasks: int = 0
    steals: int = 0

    def idle(self, makespan: float) -> float:
        return max(makespan - self.busy, 0.0)


@dataclass(frozen=True)
class PathLink:
    """One critical-path task and where its time went: the three parts
    sum to ``end - pred_end``, the end of its last traced predecessor
    (``None`` parts: the ``task_ready`` or the edge was not traced)."""

    task_id: int
    name: str
    start: float
    end: float
    ready: Optional[float]
    pred_end: Optional[float]

    @property
    def dependency_wait(self) -> Optional[float]:
        if self.ready is None or self.pred_end is None:
            return None
        return self.ready - self.pred_end

    @property
    def queue_wait(self) -> Optional[float]:
        return None if self.ready is None else self.start - self.ready

    @property
    def body(self) -> float:
        return self.end - self.start


@dataclass
class TraceReport:
    """Everything the analyzer derives from one trace."""

    makespan: float = 0.0
    total_tasks: int = 0
    total_busy: float = 0.0
    threads: dict[int, ThreadUsage] = field(default_factory=dict)
    #: Tasks released by a worker completion (locality candidates) and
    #: the subset executed by that same releasing thread.
    locality_candidates: int = 0
    locality_hits: int = 0
    steals: int = 0
    renames: int = 0
    barrier_time: float = 0.0
    dropped_events: int = 0
    #: name -> {count, total, mean, min, max} (seconds)
    task_types: dict[str, dict] = field(default_factory=dict)
    #: name -> per-task durations (seconds), in completion order
    durations: dict[str, list[float]] = field(default_factory=dict)
    #: Work (Σ busy) and span (heaviest traced dependency path) with
    #: the greedy bounds; ``None`` for a trace without tasks.
    work: Optional[float] = None
    span: Optional[float] = None
    bound_lower: Optional[float] = None
    bound_upper: Optional[float] = None
    #: The links of that path, first to last.
    critical_path: list[PathLink] = field(default_factory=list)

    @property
    def utilisation(self) -> float:
        n = len(self.threads)
        if not n or self.makespan <= 0:
            return 0.0
        return self.total_busy / (n * self.makespan)

    @property
    def locality_rate(self) -> float:
        if not self.locality_candidates:
            return 0.0
        return self.locality_hits / self.locality_candidates

    @property
    def average_parallelism(self) -> float:
        """Busy time divided by elapsed time: mean concurrency achieved."""

        if self.makespan > 0:
            return self.total_busy / self.makespan
        return float(self.total_tasks)

    @property
    def load_balance(self) -> float:
        """Mean busy time across threads divided by the max (1.0 =
        perfect, and for a trace with no busy thread)."""

        busy = [usage.busy for usage in self.threads.values()]
        peak = max(busy, default=0.0)
        return sum(busy) / len(busy) / peak if peak > 0 else 1.0


def analyze_events(
    events: list[TraceEvent],
    num_threads: Optional[int] = None,
    dropped_events: int = 0,
) -> TraceReport:
    """Build a :class:`TraceReport` from a normalised event list.

    The one pass that turns task intervals into per-thread busy time
    and task counts, total busy time, makespan and per-type statistics,
    then the one longest-path pass over them along the traced edges.
    """

    report = TraceReport(dropped_events=dropped_events)
    ready: dict[int, TraceEvent] = {}  # task_id -> its task_ready
    preds: dict[int, list[int]] = {}  # task_id -> traced predecessors
    barrier_enter: Optional[float] = None
    for event in events:
        kind = event.kind
        if kind == EventKind.TASK_READY:
            ready[event.task_id] = event
        elif kind == EventKind.EDGE_ADDED:
            preds.setdefault(event.task_id, []).append(int(event.extra[0]))
        elif kind == EventKind.STEAL:
            report.steals += 1
            usage = report.threads.setdefault(
                event.thread, ThreadUsage(event.thread)
            )
            usage.steals += 1
        elif kind == EventKind.RENAME:
            report.renames += 1
        elif kind == EventKind.BARRIER_ENTER:
            barrier_enter = event.time
        elif kind == EventKind.BARRIER_EXIT:
            if barrier_enter is not None:
                report.barrier_time += event.time - barrier_enter
                barrier_enter = None
    intervals: dict[int, tuple[str, float, float]] = {}
    durations: dict[str, list[float]] = {}  # task type -> samples
    for task_id, name, start, end, thread in task_intervals(events):
        duration = end - start
        intervals[task_id] = (name, start, end)
        usage = report.threads.setdefault(thread, ThreadUsage(thread))
        usage.busy += duration
        usage.tasks += 1
        report.total_tasks += 1
        report.total_busy += duration
        durations.setdefault(name, []).append(duration)
        released = ready.get(task_id)
        if released is not None and released.thread >= 0:
            report.locality_candidates += 1
            if released.thread == thread:
                report.locality_hits += 1
    if num_threads is not None:
        for tid in range(num_threads):
            report.threads.setdefault(tid, ThreadUsage(tid))
    report.threads = dict(sorted(report.threads.items()))
    report.durations = dict(sorted(durations.items()))
    report.task_types = {
        name: {"count": len(times), "total": sum(times),
               "mean": sum(times) / len(times),
               "min": min(times), "max": max(times)}
        for name, times in report.durations.items()
    }
    if intervals:
        report.makespan = (max(end for _n, _s, end in intervals.values())
                           - min(start for _n, start, _e in intervals.values()))
        _critical_path(report, intervals, preds, ready, num_threads)
    return report


def _critical_path(report, intervals, preds, ready, num_threads) -> None:
    """Work, span, greedy bounds and critical path, from the intervals.

    Ascending task id is submission order, so topological; predecessors
    go by id, the tie rule of ``TaskGraph.critical_path_tasks``.
    """

    finish, best_pred = longest_path(
        sorted(intervals), lambda task_id: sorted(preds.get(task_id, ())),
        lambda task_id: intervals[task_id][2] - intervals[task_id][1])
    tail = max(finish, key=finish.get)
    report.work, report.span = report.total_busy, finish[tail]
    report.bound_lower, report.bound_upper = greedy_bounds(
        report.work, report.span, num_threads or len(report.threads))
    while tail is not None:
        pred_end = max((intervals[pred][2] for pred in preds.get(tail, ())
                        if pred in intervals), default=None)
        ready_at = ready[tail].time if tail in ready else None
        report.critical_path.append(
            PathLink(tail, *intervals[tail], ready_at, pred_end))
        tail = best_pred[tail]
    report.critical_path.reverse()


def analyze_tracer(tracer, num_threads: Optional[int] = None) -> TraceReport:
    """Analyze a live tracer (its events and dropped-event count)."""

    return analyze_events(
        tracer.events,
        num_threads=num_threads,
        dropped_events=getattr(tracer, "dropped_events", 0),
    )


# ---------------------------------------------------------------------------
# Chrome trace loading (the ``python -m repro obs report`` path)
# ---------------------------------------------------------------------------

#: Every kind a tracer emits; an instant record's name is its kind.
_KINDS = frozenset(
    value for name, value in vars(EventKind).items() if name.isupper())


def chrome_event(record: dict) -> Optional[TraceEvent]:
    """The event one Chrome trace record stands for — the inverse of
    :func:`repro.obs.export.chrome_record`, timestamps back in seconds;
    ``None`` for metadata, counters and unknown instants."""

    ph = record.get("ph")
    if ph not in ("B", "E", "i", "I"):
        return None
    args = record.get("args", {})
    tid = int(record.get("tid", 0))
    if ph in ("B", "E"):
        kind = EventKind.TASK_START if ph == "B" else EventKind.TASK_END
        thread, name = tid, record.get("name", "")
    else:
        kind = record.get("name")
        if kind not in _KINDS:
            return None
        # Instants carry the semantic thread (e.g. the releasing
        # thread of a ready event, -1 for "at submission") in args.
        thread = int(args.get("thread", tid))
        name = args.get("task_name", "")
    return TraceEvent(
        time=float(record.get("ts", 0.0)) / 1e6, kind=kind,
        task_id=int(args.get("task_id", -1)), task_name=name,
        thread=thread, extra=tuple(args.get("extra", ())),
    )


def load_chrome_trace(source) -> list[TraceEvent]:
    """Rebuild normalised events from a Chrome trace JSON.

    *source* is a path, a file object, or an already-parsed dict.
    Inverse of :func:`repro.obs.export.to_chrome_trace`, one
    :func:`chrome_event` per record.
    """

    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    records = doc.get("traceEvents", doc if isinstance(doc, list) else [])
    events = [event for event in map(chrome_event, records)
              if event is not None]
    events.sort(key=lambda e: e.time)
    return events


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_s(seconds: float) -> str:
    sign = "-" if seconds < 0 else ""
    seconds = abs(seconds)
    if seconds >= 1.0:
        return f"{sign}{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{sign}{seconds * 1e3:.2f}ms"
    return f"{sign}{seconds * 1e6:.1f}us"


def _path_lines(path: list[PathLink]) -> list[str]:
    """The critical path, one row per link; past 20 links only the
    first and last 10 are shown."""

    def part(seconds: Optional[float]) -> str:
        return "-" if seconds is None else _fmt_s(seconds)

    lines = [f"critical path: {len(path)} tasks", "      task name"
             "                 dep wait queue wait       body"]
    lines += [
        f"  {link.task_id:8d} {link.name:16s} {part(link.dependency_wait):>10s}"
        f" {part(link.queue_wait):>10s} {_fmt_s(link.body):>10s}"
        for link in path
    ]
    if len(path) > 20:
        lines[12:-10] = [f"  ... ({len(path) - 20} more)"]
    return lines


def render_report(report: TraceReport, title: str = "trace report") -> str:
    """Human-readable text summary of a :class:`TraceReport`."""

    lines = [f"== {title} =="]
    lines.append(
        f"makespan {_fmt_s(report.makespan)}  tasks {report.total_tasks}  "
        f"utilisation {report.utilisation * 100:.1f}%"
    )
    lines.append(
        f"steals {report.steals}  renames {report.renames}  "
        f"barrier time {_fmt_s(report.barrier_time)}"
    )
    if report.locality_candidates:
        lines.append(
            f"locality hit-rate {report.locality_rate * 100:.1f}% "
            f"({report.locality_hits}/{report.locality_candidates} tasks ran "
            "on the thread that released their last input)"
        )
    if report.dropped_events:
        lines.append(
            f"WARNING: {report.dropped_events} events dropped "
            "(ring buffers overflowed; raise trace_buffer_size)"
        )
    if report.span is not None:
        par = report.work / report.span if report.span else 0.0
        lines.append(
            f"T1 (work) {_fmt_s(report.work)}  "
            f"Tinf (span) {_fmt_s(report.span)}  "
            f"inherent parallelism {par:.1f}"
        )
        lines.append(
            f"greedy bounds: {_fmt_s(report.bound_lower)} <= makespan "
            f"<= {_fmt_s(report.bound_upper)}"
        )
    if report.threads:
        lines.append("per-thread:")
        for tid, usage in report.threads.items():
            idle = usage.idle(report.makespan)
            pct = (
                usage.busy / report.makespan * 100 if report.makespan > 0 else 0.0
            )
            lines.append(
                f"  thr {tid:2d}: busy {_fmt_s(usage.busy)} ({pct:5.1f}%)  "
                f"idle {_fmt_s(idle)}  tasks {usage.tasks:5d}  "
                f"steals {usage.steals}"
            )
    if report.task_types:
        lines.append("per task type:")
        for name, summary in report.task_types.items():
            lines.append(
                f"  {name:16s} count {summary['count']:6d}  "
                f"total {_fmt_s(summary['total'])}  "
                f"mean {_fmt_s(summary['mean'])}  "
                f"max {_fmt_s(summary['max'])}"
            )
    if report.critical_path:
        lines.extend(_path_lines(report.critical_path))
    return "\n".join(lines)


def runtime_report(runtime, title: str = "runtime report") -> str:
    """Text summary for a runtime instance (threaded or simulated).

    Uses whatever the runtime has: a truthy tracer yields the full
    per-thread/locality/critical-path analysis; the metrics registry
    contributes analysis/barrier overhead lines.
    """

    tracer = getattr(runtime, "tracer", None)
    cores = getattr(runtime, "num_threads", None)
    if cores is None:
        machine = getattr(runtime, "machine", None)
        cores = machine.cores if machine is not None else None
    if tracer:
        report = analyze_tracer(tracer, num_threads=cores)
        text = render_report(report, title=title)
    else:
        text = f"== {title} ==\n(no trace recorded; run with trace=True)"
    metrics = getattr(runtime, "metrics", None)
    if metrics is not None and len(metrics):
        lines = ["metrics:"]
        snap = metrics.snapshot()
        for name in ("analysis_seconds", "barrier_wait_seconds"):
            value = snap.get(name)
            if isinstance(value, dict) and "count" in value:
                lines.append(
                    f"  {name}: count {value['count']}  "
                    f"mean {_fmt_s(value['mean'])}  max {_fmt_s(value['max'])}"
                )
        depth = snap.get("ready_queue_depth")
        if isinstance(depth, dict) and depth.get("count"):
            lines.append(
                f"  ready_queue_depth: mean {depth['mean']:.1f}  "
                f"max {depth['max']:.0f}"
            )
        for name, value in snap.items():
            if name.startswith(("renaming.", "dist.")):
                lines.append(f"  {name}: {value}")
        scheduler_bits = [
            f"{key.split('.', 1)[1]}={value}"
            for key, value in snap.items()
            if key.startswith("scheduler.") and not isinstance(value, dict)
        ]
        if scheduler_bits:
            lines.append("  scheduler: " + "  ".join(scheduler_bits))
        quantile_lines = _task_duration_quantiles(metrics)
        if quantile_lines:
            lines.append("  task duration p50/p95/p99:")
            lines.extend(quantile_lines)
        if len(lines) > 1:
            text += "\n" + "\n".join(lines)
        backend = _backend_health_lines(runtime)
        if backend:
            text += "\nbackend health:\n" + "\n".join(backend)
    return text


def _task_duration_quantiles(metrics) -> list[str]:
    """Per-task-type p50/p95/p99 lines from the live histogram objects.

    Quantiles need the histogram's raw buffer and bucket tallies, not
    the folded snapshot — so this reads the registry's metric objects
    directly (:meth:`HistogramMetric.quantile`).
    """

    from .metrics import HistogramMetric

    lines = []
    for metric in metrics:
        if (
            not isinstance(metric, HistogramMetric)
            or metric.name != "task_duration_seconds"
        ):
            continue
        labels = dict(metric.labels)
        task = labels.get("task", "<all>")
        p50, p95, p99 = (metric.quantile(q) for q in (0.5, 0.95, 0.99))
        if p50 is None:
            continue
        lines.append(
            f"    {task}: {_fmt_s(p50)} / {_fmt_s(p95)} / {_fmt_s(p99)}"
        )
    return sorted(lines)


def _backend_health_lines(runtime) -> list[str]:
    """The "backend health" report section.

    Surfaces the backend's robustness counters (worker deaths,
    redispatches) and worker liveness, read through the backend
    contract, plus any health-watchdog findings.
    """

    lines = []
    backend = getattr(runtime, "backend", None)
    if backend is not None and backend.remote:
        liveness = backend.liveness()
        alive_bit = ""
        if liveness:
            alive = sum(1 for w in liveness if w["alive"])
            alive_bit = f"  workers alive: {alive}/{len(liveness)}"
        lines.append(
            f"  workers: worker_deaths={backend.deaths}  "
            f"redispatched_tasks={backend.redispatched}{alive_bit}"
        )
    monitor = getattr(runtime, "health", None)
    if monitor is not None:
        sample = monitor.last_sample
        age = sample.get("last_completion_age")
        age_bit = f"  last_completion_age={age:.2f}s" if age is not None else ""
        lines.append(
            f"  watchdog: findings={len(monitor.findings)}"
            f"{age_bit}  interval={monitor.interval}s"
        )
        for finding in monitor.findings[-5:]:
            lines.append(
                f"    [{finding.severity}] {finding.kind}: {finding.message}"
            )
    return lines
