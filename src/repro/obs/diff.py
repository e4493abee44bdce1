"""Differential trace analysis: what got slower between two runs, and why.

The paper's evaluation is entirely comparative — SMPSs against serial
and fork-join baselines, across block sizes and thread counts — and
TEMANEJO-style debugging of these runtimes is comparative too: you
stare at the run that regressed *next to* the run that did not.  This
module is that workflow over the artifacts the repo already produces:

* **trace diff** (`diff_traces`) — two event lists (live tracers or
  exported Chrome trace JSONs) become a makespan-delta attribution:
  per-task-type duration shifts with bootstrap confidence intervals
  over the per-task samples, the critical-path change (which task
  types entered or left each run's critical path), and a
  scheduler-behaviour diff (steals, locality hit-rate, utilisation,
  barrier time);
* **metrics diff** (`diff_metrics`) — two ``*.metrics.json`` snapshots
  become per-series deltas (queue depths, analysis overhead, renames);
* **task-graph diff** (`diff_task_graphs`) — two ``repro.recording``
  documents, typically the static skeleton (``python -m repro flow
  --format json``) and a saved recording, become a task/edge/stream/
  rename delta: the static analyser's predicted graph held against the
  one the recording runtime actually built;
* **side-by-side exports** — one Chrome trace with run A and run B as
  two processes (`write_diff_chrome_trace`), and a DOT rendering of
  both critical paths with entered/left nodes highlighted
  (`write_diff_dot`).

Both sides come from :func:`repro.obs.analyze.analyze_events`: the
per-type samples are its per-task durations and each critical path is
its longest path over the trace's own ``edge_added`` events, so the
diff works on any two exported traces.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.recorder import load_recording
from ..core.tracing import TraceEvent
from .analyze import PathLink, TraceReport, _fmt_s, analyze_events

__all__ = [
    "TypeDelta",
    "BehaviorDelta",
    "CriticalChainDiff",
    "TraceDiff",
    "MetricDelta",
    "GraphDiff",
    "bootstrap_mean_delta",
    "diff_traces",
    "diff_metrics",
    "diff_task_graphs",
    "render_trace_diff",
    "render_metrics_diff",
    "render_graph_diff",
    "diff_chrome_trace",
    "write_diff_chrome_trace",
    "diff_to_dot",
    "write_diff_dot",
]


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def bootstrap_mean_delta(
    samples_a: Sequence[float],
    samples_b: Sequence[float],
    n_boot: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap CI for ``mean(b) - mean(a)``; deterministic given *seed*.

    Resamples each side with replacement ``n_boot`` times and returns
    the percentile interval of the mean differences.
    """

    import numpy as np

    a = np.asarray(list(samples_a), dtype=float)
    b = np.asarray(list(samples_b), dtype=float)
    if not len(a) or not len(b):
        raise ValueError("bootstrap needs non-empty samples on both sides")
    rng = np.random.default_rng(seed)
    means_a = a[rng.integers(0, len(a), size=(n_boot, len(a)))].mean(axis=1)
    means_b = b[rng.integers(0, len(b), size=(n_boot, len(b)))].mean(axis=1)
    deltas = np.sort(means_b - means_a)
    alpha = (1.0 - confidence) / 2.0
    lo = deltas[int(alpha * (n_boot - 1))]
    hi = deltas[int((1.0 - alpha) * (n_boot - 1))]
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# the trace diff
# ---------------------------------------------------------------------------

@dataclass
class TypeDelta:
    """One task type's contribution to the makespan delta."""

    name: str
    count_a: int
    count_b: int
    total_a: float
    total_b: float
    mean_a: float
    mean_b: float
    #: bootstrap CI on mean_b - mean_a (None when a side has no samples)
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None

    @property
    def delta_total(self) -> float:
        return self.total_b - self.total_a

    @property
    def delta_mean(self) -> float:
        return self.mean_b - self.mean_a

    @property
    def significant(self) -> bool:
        """True when the CI excludes zero (or a side is new/gone)."""

        if self.ci_low is None or self.ci_high is None:
            return self.delta_total != 0.0
        return self.ci_low > 0.0 or self.ci_high < 0.0


@dataclass
class BehaviorDelta:
    """One scheduler-behaviour number, before and after."""

    name: str
    a: float
    b: float
    unit: str = ""

    @property
    def delta(self) -> float:
        return self.b - self.a


@dataclass
class CriticalChainDiff:
    """Composition change of the two runs' critical paths."""

    chain_a: list[PathLink]
    chain_b: list[PathLink]

    def __post_init__(self):
        counts_a = Counter(l.name for l in self.chain_a)
        counts_b = Counter(l.name for l in self.chain_b)
        #: task types with more (``left``: fewer) instances on B's path
        #: than on A's, by count delta
        self.entered = dict(counts_b - counts_a)
        self.left = dict(counts_a - counts_b)
        #: per-type time spent on the path, A and B
        self.time_on_chain_a = _time_by_type(self.chain_a)
        self.time_on_chain_b = _time_by_type(self.chain_b)

    @property
    def length_a(self) -> float:
        return sum(l.body for l in self.chain_a)

    @property
    def length_b(self) -> float:
        return sum(l.body for l in self.chain_b)


def _time_by_type(chain: list[PathLink]) -> dict[str, float]:
    time: dict[str, float] = {}
    for link in chain:
        time[link.name] = time.get(link.name, 0.0) + link.body
    return time


@dataclass
class TraceDiff:
    """Everything `diff_traces` derives from two runs."""

    report_a: TraceReport
    report_b: TraceReport
    types: list[TypeDelta]
    chain: CriticalChainDiff
    behavior: list[BehaviorDelta]

    @property
    def makespan_delta(self) -> float:
        return self.report_b.makespan - self.report_a.makespan

    def top_regressors(self, n: int = 3) -> list[TypeDelta]:
        """Task types ranked by total-busy-time growth."""

        return sorted(self.types, key=lambda t: -t.delta_total)[:n]


def diff_traces(
    events_a: Sequence[TraceEvent],
    events_b: Sequence[TraceEvent],
    n_boot: int = 2000,
    seed: int = 0,
) -> TraceDiff:
    """Attribute the makespan delta between two runs' event lists."""

    report_a = analyze_events(list(events_a))
    report_b = analyze_events(list(events_b))
    samples_a, samples_b = report_a.durations, report_b.durations

    types: list[TypeDelta] = []
    for name in sorted(set(samples_a) | set(samples_b)):
        a = samples_a.get(name, [])
        b = samples_b.get(name, [])
        ci_low = ci_high = None
        if a and b and n_boot > 0:
            ci_low, ci_high = bootstrap_mean_delta(
                a, b, n_boot=n_boot, seed=seed
            )
        types.append(TypeDelta(
            name, len(a), len(b), sum(a), sum(b),
            sum(a) / len(a) if a else 0.0, sum(b) / len(b) if b else 0.0,
            ci_low, ci_high,
        ))
    types.sort(key=lambda t: -abs(t.delta_total))

    behavior = [
        BehaviorDelta("utilisation", report_a.utilisation, report_b.utilisation, "%"),
        BehaviorDelta(
            "locality hit-rate", report_a.locality_rate, report_b.locality_rate, "%"
        ),
        BehaviorDelta("steals", report_a.steals, report_b.steals),
        BehaviorDelta("renames", report_a.renames, report_b.renames),
        BehaviorDelta(
            "barrier time", report_a.barrier_time, report_b.barrier_time, "s"
        ),
        BehaviorDelta("tasks", report_a.total_tasks, report_b.total_tasks),
        BehaviorDelta("threads", len(report_a.threads), len(report_b.threads)),
    ]
    return TraceDiff(
        report_a=report_a,
        report_b=report_b,
        types=types,
        chain=CriticalChainDiff(report_a.critical_path,
                                report_b.critical_path),
        behavior=behavior,
    )


# ---------------------------------------------------------------------------
# metrics snapshot diff
# ---------------------------------------------------------------------------

@dataclass
class MetricDelta:
    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a


def _flatten_metrics(snapshot: dict) -> dict[str, float]:
    """Flatten a ``MetricsRegistry.snapshot()`` into scalar series.

    Histogram dicts contribute their ``count``/``mean``/``max``;
    labelled series keep their ``name{label}`` spelling.
    """

    flat: dict[str, float] = {}

    def emit(name: str, value) -> None:
        if isinstance(value, dict):
            if "count" in value and "mean" in value:  # histogram snapshot
                flat[f"{name}.count"] = float(value["count"])
                flat[f"{name}.mean"] = float(value["mean"])
                if value.get("max") is not None:
                    flat[f"{name}.max"] = float(value["max"])
            else:  # labelled series: {label_repr: value-or-histogram}
                for label, sub in value.items():
                    emit(f"{name}{{{label}}}", sub)
        else:
            try:
                flat[name] = float(value)
            except (TypeError, ValueError):
                pass

    for key, value in snapshot.items():
        emit(key, value)
    return flat


def diff_metrics(snapshot_a: dict, snapshot_b: dict) -> list[MetricDelta]:
    """Per-series deltas of two metrics snapshots, biggest movers first."""

    flat_a = _flatten_metrics(snapshot_a)
    flat_b = _flatten_metrics(snapshot_b)
    out = [
        MetricDelta(name, flat_a.get(name), flat_b.get(name))
        for name in sorted(set(flat_a) | set(flat_b))
    ]

    def magnitude(d: MetricDelta) -> float:
        if d.delta is None:
            return float("inf")  # appeared/vanished series first
        base = abs(d.a) if d.a else 1.0
        return abs(d.delta) / base

    out.sort(key=magnitude, reverse=True)
    return out


# ---------------------------------------------------------------------------
# task-graph diff (static skeleton vs recording)
# ---------------------------------------------------------------------------

@dataclass
class GraphDiff:
    """Structural delta between two task-graph documents.

    Task identity is positional: the flow checker's skeleton and a
    recording both number tasks from 1 in submission order, so task *i*
    in A corresponds to task *i* in B and every divergence is
    attributable to a concrete submission.
    """

    tasks_a: int
    tasks_b: int
    #: (task_id, name_in_a, name_in_b) where the same position differs.
    name_mismatches: list[tuple[int, str, str]]
    #: tasks present only in the longer document, as (id, name).
    extra_a: list[tuple[int, str]]
    extra_b: list[tuple[int, str]]
    #: edges as (pred, succ, kind) present on one side only.
    edges_only_a: list[tuple[int, int, str]]
    edges_only_b: list[tuple[int, int, str]]
    #: same (pred, succ) pair, different dependence kind.
    kind_changes: list[tuple[int, int, str, str]]
    edges_a: int
    edges_b: int
    barriers_a: int
    barriers_b: int
    waits_a: int
    waits_b: int
    renames_a: int
    renames_b: int
    truncated_a: bool
    truncated_b: bool

    @property
    def identical(self) -> bool:
        """True when tasks, edges, stream sync events and rename
        counts all match."""

        return not (
            self.name_mismatches or self.extra_a or self.extra_b
            or self.edges_only_a or self.edges_only_b or self.kind_changes
            or self.barriers_a != self.barriers_b
            or self.waits_a != self.waits_b
            or self.renames_a != self.renames_b
        )


def diff_task_graphs(doc_a, doc_b) -> GraphDiff:
    """Diff two task-graph documents — static skeleton and/or recording.

    Each side is anything :func:`repro.core.recorder.load_recording`
    reads: a path, a ``repro.recording`` document (the flow CLI's
    ``{"findings", "graph"}`` wrapper included) or a
    :class:`RecordedProgram`.  Holding the flow checker's prediction
    against what the recording runtime actually built validates the
    static analysis; any divergence points at the first submission
    whose dependences the abstract interpreter got wrong.
    """

    doc_a, doc_b = load_recording(doc_a), load_recording(doc_b)

    def labels(doc) -> list[tuple[int, str]]:
        out = []
        for row in doc["tasks"]:
            tid, name = int(row[0]), str(row[1])
            if len(row) > 2 and row[2]:
                name += " [hp]"
            out.append((tid, name))
        return out

    tasks_a, tasks_b = labels(doc_a), labels(doc_b)
    by_id_a, by_id_b = dict(tasks_a), dict(tasks_b)
    mismatches = [
        (tid, by_id_a[tid], by_id_b[tid])
        for tid in sorted(set(by_id_a) & set(by_id_b))
        if by_id_a[tid] != by_id_b[tid]
    ]
    extra_a = [(t, n) for t, n in tasks_a if t not in by_id_b]
    extra_b = [(t, n) for t, n in tasks_b if t not in by_id_a]

    def edge_map(doc) -> dict[tuple[int, int], str]:
        return {
            (int(p), int(s)): str(kind)
            for p, s, kind in doc["edges"]
        }

    ea, eb = edge_map(doc_a), edge_map(doc_b)
    edges_only_a = sorted((p, s, k) for (p, s), k in ea.items()
                          if (p, s) not in eb)
    edges_only_b = sorted((p, s, k) for (p, s), k in eb.items()
                          if (p, s) not in ea)
    kind_changes = sorted(
        (p, s, ea[p, s], eb[p, s])
        for (p, s) in set(ea) & set(eb)
        if ea[p, s] != eb[p, s]
    )

    def stream_counts(doc) -> tuple[int, int]:
        kinds = Counter(event[0] for event in doc["stream"])
        return kinds["barrier"], kinds["wait"]

    barriers_a, waits_a = stream_counts(doc_a)
    barriers_b, waits_b = stream_counts(doc_b)

    return GraphDiff(
        tasks_a=len(tasks_a), tasks_b=len(tasks_b),
        name_mismatches=mismatches, extra_a=extra_a, extra_b=extra_b,
        edges_only_a=edges_only_a, edges_only_b=edges_only_b,
        kind_changes=kind_changes, edges_a=len(ea), edges_b=len(eb),
        barriers_a=barriers_a, barriers_b=barriers_b,
        waits_a=waits_a, waits_b=waits_b,
        renames_a=int(doc_a["renames"]), renames_b=int(doc_b["renames"]),
        truncated_a=bool(doc_a["truncated"]),
        truncated_b=bool(doc_b["truncated"]),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _pct(new: float, old: float) -> str:
    if not old:
        return "n/a"
    return f"{(new - old) / abs(old) * 100.0:+.1f}%"


def render_trace_diff(
    diff: TraceDiff, label_a: str = "A", label_b: str = "B"
) -> str:
    """Human-readable attribution report for a :class:`TraceDiff`."""

    ra, rb = diff.report_a, diff.report_b
    lines = [f"== trace diff: {label_a} -> {label_b} =="]
    lines.append(
        f"makespan {_fmt_s(ra.makespan)} -> {_fmt_s(rb.makespan)}  "
        f"({_fmt_s(diff.makespan_delta)}, {_pct(rb.makespan, ra.makespan)})"
    )
    lines.append("")
    lines.append("per task type (sorted by |delta total busy|):")
    lines.append(
        "  type              count A->B      mean A -> mean B        "
        "delta mean (95% CI)       delta total"
    )
    for t in diff.types:
        if t.ci_low is not None:
            ci = f"[{_fmt_s(t.ci_low)}, {_fmt_s(t.ci_high)}]"
            mark = " *" if t.significant else ""
        else:
            ci = "(new)" if not t.count_a else "(gone)"
            mark = " *"
        lines.append(
            f"  {t.name:16s} {t.count_a:5d}->{t.count_b:<5d} "
            f"{_fmt_s(t.mean_a):>10s} -> {_fmt_s(t.mean_b):<10s} "
            f"{_fmt_s(t.delta_mean):>10s} {ci:24s} "
            f"{_fmt_s(t.delta_total):>10s}{mark}"
        )
    lines.append("  (* = significant: CI excludes 0, or type appeared/vanished)")

    chain = diff.chain
    lines.append("")
    lines.append("critical path (longest path over the traced edges):")
    lines.append(
        f"  {label_a}: {len(chain.chain_a)} tasks, {_fmt_s(chain.length_a)}"
        f"   {label_b}: {len(chain.chain_b)} tasks, {_fmt_s(chain.length_b)}"
        f"   ({_fmt_s(chain.length_b - chain.length_a)})"
    )
    if chain.entered:
        parts = ", ".join(f"{n} x{c}" for n, c in sorted(chain.entered.items()))
        lines.append(f"  entered the path: {parts}")
    if chain.left:
        parts = ", ".join(f"{n} x{c}" for n, c in sorted(chain.left.items()))
        lines.append(f"  left the path:    {parts}")
    if not chain.entered and not chain.left:
        lines.append("  composition unchanged")
    on_chain = sorted(
        set(chain.time_on_chain_a) | set(chain.time_on_chain_b)
    )
    for name in on_chain:
        a = chain.time_on_chain_a.get(name, 0.0)
        b = chain.time_on_chain_b.get(name, 0.0)
        lines.append(
            f"  time on path: {name:16s} {_fmt_s(a):>10s} -> {_fmt_s(b):<10s}"
            f" ({_fmt_s(b - a)})"
        )

    lines.append("")
    lines.append("scheduler behaviour:")
    for b in diff.behavior:
        if b.unit == "%":
            lines.append(
                f"  {b.name:18s} {b.a * 100:6.1f}% -> {b.b * 100:6.1f}%"
                f"  ({(b.b - b.a) * 100:+.1f} pts)"
            )
        elif b.unit == "s":
            lines.append(
                f"  {b.name:18s} {_fmt_s(b.a):>9s} -> {_fmt_s(b.b):<9s}"
                f"  ({_fmt_s(b.delta)})"
            )
        else:
            lines.append(
                f"  {b.name:18s} {b.a:9.0f} -> {b.b:<9.0f}  ({b.delta:+.0f})"
            )
    return "\n".join(lines)


def render_metrics_diff(
    deltas: list[MetricDelta],
    label_a: str = "A",
    label_b: str = "B",
    limit: int = 40,
) -> str:
    lines = [f"== metrics diff: {label_a} -> {label_b} =="]
    shown = 0
    for d in deltas:
        if d.a is not None and d.b is not None and d.a == d.b:
            continue
        if shown >= limit:
            lines.append(f"  ... ({len(deltas) - shown} more series)")
            break
        a = "absent" if d.a is None else f"{d.a:g}"
        b = "absent" if d.b is None else f"{d.b:g}"
        suffix = "" if d.delta is None else f"  ({d.delta:+g})"
        lines.append(f"  {d.name:44s} {a:>12s} -> {b:<12s}{suffix}")
        shown += 1
    if shown == 0:
        lines.append("  (no series changed)")
    return "\n".join(lines)


def render_graph_diff(
    diff: GraphDiff,
    label_a: str = "A",
    label_b: str = "B",
    limit: int = 25,
) -> str:
    lines = [f"== task-graph diff: {label_a} -> {label_b} =="]
    lines.append(f"  tasks:    {diff.tasks_a} -> {diff.tasks_b}")
    lines.append(f"  edges:    {diff.edges_a} -> {diff.edges_b}")
    lines.append(
        f"  barriers: {diff.barriers_a} -> {diff.barriers_b}"
        f"    waits: {diff.waits_a} -> {diff.waits_b}"
    )
    lines.append(f"  renames:  {diff.renames_a} -> {diff.renames_b}")
    for side, flag in ((label_a, diff.truncated_a),
                       (label_b, diff.truncated_b)):
        if flag:
            lines.append(f"  note: {side} is a truncated skeleton "
                         "(analysis budget hit)")

    def section(title: str, rows: list[str]) -> None:
        if not rows:
            return
        lines.append(f"  {title} ({len(rows)}):")
        lines.extend(f"    {row}" for row in rows[:limit])
        if len(rows) > limit:
            lines.append(f"    ... ({len(rows) - limit} more)")

    section("tasks renamed", [
        f"#{tid}: {a} -> {b}" for tid, a, b in diff.name_mismatches
    ])
    section(f"tasks only in {label_a}", [
        f"#{tid} {name}" for tid, name in diff.extra_a
    ])
    section(f"tasks only in {label_b}", [
        f"#{tid} {name}" for tid, name in diff.extra_b
    ])
    section(f"edges only in {label_a}", [
        f"{p} -> {s} [{k}]" for p, s, k in diff.edges_only_a
    ])
    section(f"edges only in {label_b}", [
        f"{p} -> {s} [{k}]" for p, s, k in diff.edges_only_b
    ])
    section("edge kind changed", [
        f"{p} -> {s}: {ka} -> {kb}" for p, s, ka, kb in diff.kind_changes
    ])
    if diff.identical:
        lines.append("  task graphs are structurally identical")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# side-by-side exports
# ---------------------------------------------------------------------------

def diff_chrome_trace(
    events_a: Sequence[TraceEvent],
    events_b: Sequence[TraceEvent],
    label_a: str = "run A",
    label_b: str = "run B",
) -> dict:
    """One Chrome trace document with the two runs as two processes.

    Open at ui.perfetto.dev: process 1 is run A, process 2 is run B,
    both starting at ``ts == 0`` so the timelines align for visual
    comparison.
    """

    from .export import to_chrome_trace

    doc_a = to_chrome_trace(events_a, pid=1)
    doc_b = to_chrome_trace(events_b, pid=2)
    records = []
    for doc, pid, label in ((doc_a, 1, label_a), (doc_b, 2, label_b)):
        for rec in doc["traceEvents"]:
            if rec.get("ph") == "M" and rec.get("name") == "process_name":
                rec = dict(rec, args={"name": label})
            records.append(rec)
    return {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs.diff", "runs": [label_a, label_b]},
    }


def write_diff_chrome_trace(
    events_a, events_b, path: str, label_a: str = "run A", label_b: str = "run B"
) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(diff_chrome_trace(events_a, events_b, label_a, label_b), handle)
    return path


def diff_to_dot(
    diff: TraceDiff, label_a: str = "run A", label_b: str = "run B"
) -> str:
    """Both critical paths as one DOT graph (clusters A and B).

    Task types that *entered* the path in B are salmon, types that
    *left* it (present only on A's chain) are lightblue, unchanged
    types grey — a TEMANEJO-style picture of what the scheduler/graph
    change did to the path.
    """

    entered = set(diff.chain.entered)
    left = set(diff.chain.left)

    def colour(name: str, side: str) -> str:
        if side == "b" and name in entered:
            return "salmon"
        if side == "a" and name in left:
            return "lightblue"
        return "lightgrey"

    lines = ["digraph critical_path_diff {", "  node [style=filled];",
             "  rankdir=LR;"]
    for side, label, chain in (
        ("a", label_a, diff.chain.chain_a),
        ("b", label_b, diff.chain.chain_b),
    ):
        lines.append(f"  subgraph cluster_{side} {{")
        lines.append(f'    label="{label}";')
        previous = None
        for link in chain:
            node = f"{side}{link.task_id}"
            lines.append(
                f'    {node} [label="{link.name}\\n{link.task_id} '
                f'({_fmt_s(link.body)})", '
                f"fillcolor={colour(link.name, side)}];"
            )
            if previous is not None:
                lines.append(f"    {previous} -> {node};")
            previous = node
        lines.append("  }")
    lines.append(
        '  legend [shape=box, label="salmon: entered path\\n'
        'lightblue: left path\\ngrey: unchanged"];'
    )
    lines.append("}")
    return "\n".join(lines)


def write_diff_dot(diff: TraceDiff, path: str, **kwargs) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(diff_to_dot(diff, **kwargs))
        handle.write("\n")
    return path
