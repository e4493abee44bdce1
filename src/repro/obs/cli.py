"""Post-mortem trace analysis from the command line.

Usage::

    python -m repro obs report trace.json             # full text report
    python -m repro obs report trace.json --threads 4
    python -m repro obs diff A.trace.json B.trace.json
    python -m repro obs diff A.trace.json B.trace.json --dot d.dot \\
        --chrome side_by_side.json
    python -m repro obs diff A.metrics.json B.metrics.json
    python -m repro obs diff figA.json figB.json
    python -m repro obs scrape tcp:127.0.0.1:9184             # one page
    python -m repro obs scrape tcp:127.0.0.1:9184 --health    # findings

``diff`` auto-detects what the two files are: Chrome trace JSONs get
the full makespan-delta attribution (per-task-type shifts with
bootstrap CIs, critical-path composition change, scheduler behaviour);
``*.metrics.json`` snapshots get per-series deltas; saved
``FigureResult`` JSONs get the ``bench compare`` table (A as the
baseline); ``repro.recording`` documents — saved recordings and
``python -m repro flow --format json`` skeletons alike — get a
task/edge/stream/rename structural diff (exit 1 when the graphs
diverge — the static-vs-recorded validation loop of ``repro.check
flow``).  ``--kind`` overrides the detection.

``scrape`` fetches one Prometheus page from the endpoint of a runtime
constructed with ``address=...`` (or of a task-graph daemon);
``--health`` asks for the watchdog findings instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyze import analyze_events, load_chrome_trace, render_report


def _detect_kind(doc) -> str:
    """'trace' | 'metrics' | 'figure' | 'graph' from a parsed document."""

    if isinstance(doc, list):
        return "trace"  # bare traceEvents array
    if "traceEvents" in doc:
        return "trace"
    inner = doc.get("graph")  # the `python -m repro flow` wrapper
    if (inner if isinstance(inner, dict) else doc).get("format") \
            == "repro.recording":
        return "graph"
    if "figure_id" in doc and "series" in doc:
        return "figure"
    return "metrics"


def _metrics_snapshot(doc: dict) -> dict:
    # ``repro.bench --save`` wraps the registry snapshot in metadata.
    if "metrics" in doc and isinstance(doc["metrics"], dict):
        return doc["metrics"]
    return doc


def _run_diff(args) -> int:
    from . import diff as D

    docs = []
    for path in (args.a, args.b):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                docs.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"cannot read {path!r}: {exc}", file=sys.stderr)
            return 1
    kind = args.kind or _detect_kind(docs[0])
    if (args.kind is None and _detect_kind(docs[1]) != kind):
        print(
            f"{args.a!r} looks like a {kind} file but {args.b!r} does not; "
            "pass --kind to force", file=sys.stderr,
        )
        return 1
    label_a, label_b = args.label_a or args.a, args.label_b or args.b

    if kind == "trace":
        events_a = load_chrome_trace(docs[0])
        events_b = load_chrome_trace(docs[1])
        if not events_a or not events_b:
            print("no recognisable events in one of the traces", file=sys.stderr)
            return 1
        trace_diff = D.diff_traces(
            events_a, events_b, n_boot=args.boot, seed=args.boot_seed
        )
        print(D.render_trace_diff(trace_diff, label_a, label_b))
        if args.dot:
            D.write_diff_dot(
                trace_diff, args.dot, label_a=label_a, label_b=label_b
            )
            print(f"\nwrote critical-path diff DOT to {args.dot}")
        if args.chrome:
            D.write_diff_chrome_trace(
                events_a, events_b, args.chrome,
                label_a=label_a, label_b=label_b,
            )
            print(f"wrote side-by-side Chrome trace to {args.chrome}")
        return 0
    if args.dot or args.chrome:
        print("--dot/--chrome only apply to trace diffs", file=sys.stderr)
        return 2
    if kind == "metrics":
        deltas = D.diff_metrics(
            _metrics_snapshot(docs[0]), _metrics_snapshot(docs[1])
        )
        print(D.render_metrics_diff(deltas, label_a, label_b))
        return 0
    if kind == "graph":
        graph_diff = D.diff_task_graphs(docs[0], docs[1])
        print(D.render_graph_diff(graph_diff, label_a, label_b))
        return 0 if graph_diff.identical else 1
    # Figures: the table `repro bench compare` gates on (A = baseline).
    from ..bench.compare import compare_figures, render_comparison
    from ..bench.harness import FigureResult

    fig_a, fig_b = (FigureResult.from_dict(doc) for doc in docs)
    print(render_comparison(
        compare_figures(f"{label_a} -> {label_b}", fig_a, fig_b)))
    return 0


def _run_scrape(args) -> int:
    from .exposition import scrape

    command = "health" if args.health else "metrics"
    try:
        data = scrape(args.address, timeout=args.timeout, command=command)
    except (OSError, RuntimeError, TimeoutError) as exc:
        print(f"scrape of {args.address!r} failed: {exc}", file=sys.stderr)
        return 1
    if args.health:
        print(json.dumps(data, indent=2, default=str))
    else:
        sys.stdout.write(data.get("text", ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Analyze and diff exported SMPSs traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="makespan/utilisation/locality report for a trace"
    )
    report.add_argument("trace", help="Chrome trace JSON (write_chrome_trace)")
    report.add_argument(
        "--threads", type=int, default=None,
        help="thread count (include threads that never ran a task)",
    )
    diff = sub.add_parser(
        "diff",
        help="what changed between two runs "
             "(traces, metrics, figures, or task graphs)",
    )
    diff.add_argument(
        "a", help="baseline file (trace/metrics/figure/graph JSON)"
    )
    diff.add_argument("b", help="comparison file of the same kind")
    diff.add_argument(
        "--kind", choices=("trace", "metrics", "figure", "graph"),
        default=None,
        help="file kind (default: auto-detect)",
    )
    diff.add_argument("--label-a", default=None, help="display name for A")
    diff.add_argument("--label-b", default=None, help="display name for B")
    diff.add_argument(
        "--boot", type=int, default=2000, metavar="N",
        help="bootstrap resamples for per-type CIs (0 disables)",
    )
    diff.add_argument(
        "--boot-seed", type=int, default=0,
        help="bootstrap RNG seed (the CIs are deterministic given this)",
    )
    diff.add_argument(
        "--dot", metavar="PATH",
        help="write the critical-path diff as GraphViz DOT here",
    )
    diff.add_argument(
        "--chrome", metavar="PATH",
        help="write a side-by-side Chrome trace (A and B as two processes)",
    )
    scrape_p = sub.add_parser(
        "scrape", help="fetch one Prometheus page (or health findings)"
    )
    scrape_p.add_argument("address", help="endpoint address to scrape")
    scrape_p.add_argument(
        "--health", action="store_true",
        help="fetch watchdog findings JSON instead of the metrics page",
    )
    scrape_p.add_argument(
        "--timeout", type=float, default=5.0, help="socket timeout seconds"
    )
    args = parser.parse_args(argv)

    if args.command == "scrape":
        return _run_scrape(args)
    if args.command == "report":
        try:
            events = load_chrome_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
            return 1
        if not events:
            print(f"no recognisable events in {args.trace!r}", file=sys.stderr)
            return 1
        trace_report = analyze_events(events, num_threads=args.threads)
        print(render_report(trace_report, title=args.trace))
        return 0
    if args.command == "diff":
        return _run_diff(args)
    return 1

