"""repro.obs — observability for the SMPSs reproduction.

The paper ships a *tracing-enabled runtime* whose Paraver traces are
how its authors diagnosed scheduler locality and the small-block
runtime-overhead wall (section VII.A).  This package is that story for
the Python reproduction, richer and cheaper:

* :class:`MetricsRegistry` — counters/gauges/histograms the runtimes
  populate (per-task-type durations, analysis and barrier overhead,
  steal/rename counts, ready-queue depths, renaming footprint);
* :class:`~repro.core.tracing.Tracer` — the one trace recorder,
  per-thread ring buffers merged on read;
* exporters — Chrome trace-event JSON (Perfetto-loadable) and
  Graphviz DOT with the critical path highlighted;
* the critical-path / utilisation analyzer behind
  ``Runtime.report()`` and ``python -m repro obs report trace.json``;
* the differential analyzer (:mod:`repro.obs.diff`) behind
  ``python -m repro obs diff A.trace.json B.trace.json`` — run-to-run
  makespan-delta attribution with bootstrap CIs, critical-path
  composition diffs, and side-by-side Chrome-trace/DOT exports;
* the always-on health layer (:mod:`repro.obs.health`,
  ``health=True``) — a stall/starvation/deadlock watchdog with a
  blocked-task explainer, a bounded flight recorder dumped on anomaly
  or ``SIGUSR1`` (:mod:`repro.obs.flightrec`), and the runtime's one
  observation endpoint (:mod:`repro.obs.exposition`: live commands,
  metrics and health over JSON lines and HTTP; ``python -m repro obs
  scrape``).

See ``docs/observability.md`` for the metrics catalogue and usage,
and ``docs/benchmarking.md`` for the baseline/compare workflow.
"""

from .analyze import (
    PathLink,
    ThreadUsage,
    TraceReport,
    analyze_events,
    analyze_tracer,
    load_chrome_trace,
    render_report,
    runtime_report,
)
from .diff import (
    GraphDiff,
    TraceDiff,
    diff_metrics,
    diff_task_graphs,
    diff_traces,
    render_graph_diff,
    render_metrics_diff,
    render_trace_diff,
    write_diff_chrome_trace,
    write_diff_dot,
)
from .export import graph_to_dot, to_chrome_trace, write_chrome_trace, write_dot
from .exposition import render_registry, scrape
from .flightrec import FlightRecorder
from .health import (
    Finding,
    HealthMonitor,
    StallError,
    explain_blocked,
    wait_chain,
    wait_graph_dot,
)
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    default_metrics,
    reset_default_metrics,
)

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "default_metrics",
    "reset_default_metrics",
    "PathLink",
    "ThreadUsage",
    "TraceReport",
    "analyze_events",
    "analyze_tracer",
    "load_chrome_trace",
    "render_report",
    "runtime_report",
    "graph_to_dot",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_dot",
    "GraphDiff",
    "TraceDiff",
    "diff_traces",
    "diff_metrics",
    "diff_task_graphs",
    "render_trace_diff",
    "render_graph_diff",
    "render_metrics_diff",
    "write_diff_chrome_trace",
    "write_diff_dot",
    "render_registry",
    "scrape",
    "FlightRecorder",
    "Finding",
    "HealthMonitor",
    "StallError",
    "explain_blocked",
    "wait_chain",
    "wait_graph_dot",
]
