"""Differential observability: trace/metrics/figure diffs and the CLI.

The acceptance scenario: record a trace, inflate one task type 2x, and
the diff must attribute the slowdown to that type and report how the
critical path changed.  The synthetic runs here are built so the
inflation also *flips* the critical path (from the potrf chain on
thread 0 to the gemm chain on thread 1), exercising the entered/left
reporting.
"""

import json

import pytest

from repro.bench.harness import FigureResult
from repro.core.tracing import EventKind, TraceEvent
from repro.obs.analyze import analyze_events
from repro.obs.diff import (
    bootstrap_mean_delta,
    diff_metrics,
    diff_task_graphs,
    diff_to_dot,
    diff_traces,
    render_graph_diff,
    render_metrics_diff,
    render_trace_diff,
    write_diff_chrome_trace,
)

pytestmark = pytest.mark.obs


def _edge(pred, succ):
    """A dependency edge *pred* -> *succ*, added at submission (t=0)."""

    return TraceEvent(0.0, EventKind.EDGE_ADDED, succ, "", -1, (pred, "true"))


def _chain_events(events, name, task_ids, thread, start, duration, released_by):
    """Append a dependency chain of equal-duration tasks on one thread."""

    t = start
    releaser = released_by
    for pred, task_id in zip([None] + task_ids, task_ids):
        if pred is not None:
            events.append(_edge(pred, task_id))
        events.append(TraceEvent(t, EventKind.TASK_READY, task_id, name, releaser))
        events.append(TraceEvent(t, EventKind.TASK_START, task_id, name, thread))
        t += duration
        events.append(TraceEvent(t, EventKind.TASK_END, task_id, name, thread))
        releaser = thread
    return t


def make_run(gemm_scale: float = 1.0) -> list[TraceEvent]:
    """Two parallel chains, both feeding a final task.

    * thread 0: four ``potrf`` tasks, 1.0s each (ends at 4.0);
    * thread 1: four ``gemm`` tasks, 0.5s * gemm_scale each;
    * ``trsm`` depends on the last task of each chain and runs once
      the slower one finishes — so inflating gemm 3x moves the
      critical path from potrf to gemm.
    """

    events: list[TraceEvent] = []
    potrf_end = _chain_events(events, "potrf", [1, 2, 3, 4], 0, 0.0, 1.0, -1)
    gemm_end = _chain_events(
        events, "gemm", [11, 12, 13, 14], 1, 0.0, 0.5 * gemm_scale, -1
    )
    events += [_edge(4, 99), _edge(14, 99)]
    last_thread = 0 if potrf_end >= gemm_end else 1
    t = max(potrf_end, gemm_end)
    events.append(TraceEvent(t, EventKind.TASK_READY, 99, "trsm", last_thread))
    events.append(TraceEvent(t, EventKind.TASK_START, 99, "trsm", last_thread))
    events.append(TraceEvent(t + 1.0, EventKind.TASK_END, 99, "trsm", last_thread))
    events.sort(key=lambda e: e.time)
    return events


class TestBuildingBlocks:
    def test_collect_task_durations(self):
        samples = analyze_events(make_run()).durations
        assert sorted(samples) == ["gemm", "potrf", "trsm"]
        assert samples["potrf"] == pytest.approx([1.0] * 4)
        assert samples["gemm"] == pytest.approx([0.5] * 4)

    def test_critical_chain_follows_releasers(self):
        chain = analyze_events(make_run()).critical_path
        # the potrf chain is the heavier way into trsm.
        assert [link.name for link in chain] == ["potrf"] * 4 + ["trsm"]
        assert chain[-1].end == pytest.approx(5.0)
        trsm = chain[-1]
        assert trsm.pred_end == pytest.approx(4.0)
        assert trsm.dependency_wait == pytest.approx(0.0)
        assert trsm.queue_wait == pytest.approx(0.0)
        assert chain[0].pred_end is None and chain[0].dependency_wait is None

    def test_critical_chain_flips_when_gemm_inflates(self):
        diff = diff_traces(make_run(), make_run(gemm_scale=3.0), n_boot=0)
        assert [l.name for l in diff.chain.chain_a] == ["potrf"] * 4 + ["trsm"]
        assert [l.name for l in diff.chain.chain_b] == ["gemm"] * 4 + ["trsm"]
        assert diff.chain.length_b == diff.report_b.span == pytest.approx(7.0)

    def test_critical_chain_empty(self):
        report = analyze_events([])
        assert report.critical_path == []
        assert report.span is None and report.work is None

    def test_bootstrap_ci_excludes_zero_for_real_shift(self):
        lo, hi = bootstrap_mean_delta([0.5] * 4, [1.0] * 4, n_boot=200)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(0.5)

    def test_bootstrap_ci_covers_zero_for_noise(self):
        lo, hi = bootstrap_mean_delta(
            [1.0, 1.2, 0.8, 1.1, 0.9], [1.05, 0.95, 1.1, 0.9, 1.0],
            n_boot=500,
        )
        assert lo < 0.0 < hi

    def test_bootstrap_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_mean_delta([], [1.0])


class TestTraceDiff:
    def test_attributes_synthetic_slowdown_to_inflated_type(self):
        diff = diff_traces(make_run(), make_run(gemm_scale=2.0), n_boot=300)
        top = diff.top_regressors(1)[0]
        assert top.name == "gemm"
        assert top.delta_total == pytest.approx(2.0)  # 4 tasks x +0.5s
        assert top.significant
        assert top.ci_low is not None and top.ci_low > 0
        # potrf and trsm are unchanged.
        by_name = {t.name: t for t in diff.types}
        assert by_name["potrf"].delta_total == pytest.approx(0.0)
        assert not by_name["potrf"].significant
        assert diff.makespan_delta == pytest.approx(0.0)  # 4.0 vs 4.0 chains tie at x2

    def test_chain_composition_change_reported(self):
        diff = diff_traces(make_run(), make_run(gemm_scale=3.0), n_boot=0)
        assert diff.chain.entered == {"gemm": 4}
        assert diff.chain.left == {"potrf": 4}
        assert diff.makespan_delta == pytest.approx(2.0)  # 7.0 - 5.0
        assert diff.chain.length_b > diff.chain.length_a

    def test_render_mentions_culprit_and_path_change(self):
        diff = diff_traces(make_run(), make_run(gemm_scale=3.0), n_boot=100)
        text = render_trace_diff(diff, "base", "slow")
        assert "base -> slow" in text
        assert "gemm" in text
        assert "entered the path: gemm x4" in text
        assert "left the path:    potrf x4" in text
        assert "makespan" in text

    def test_behavior_deltas_present(self):
        diff = diff_traces(make_run(), make_run(), n_boot=0)
        names = [b.name for b in diff.behavior]
        assert "utilisation" in names and "steals" in names
        assert all(b.delta == pytest.approx(0.0) for b in diff.behavior)


class TestExports:
    def test_side_by_side_chrome_trace(self, tmp_path):
        path = tmp_path / "sbs.json"
        write_diff_chrome_trace(
            make_run(), make_run(gemm_scale=2.0), str(path),
            label_a="before", label_b="after",
        )
        doc = json.loads(path.read_text())
        pids = {r["pid"] for r in doc["traceEvents"]}
        assert pids == {1, 2}
        names = {
            r["args"]["name"]
            for r in doc["traceEvents"]
            if r.get("ph") == "M" and r["name"] == "process_name"
        }
        assert names == {"before", "after"}

    def test_diff_dot_highlights_entered_and_left(self):
        diff = diff_traces(make_run(), make_run(gemm_scale=3.0), n_boot=0)
        dot = diff_to_dot(diff, "A", "B")
        assert "digraph" in dot
        assert "salmon" in dot       # gemm entered
        assert "lightblue" in dot    # potrf left
        assert "cluster_a" in dot and "cluster_b" in dot


class TestMetricsAndFigureDiff:
    def test_metrics_diff_scalars_and_histograms(self):
        a = {"steals": 4, "analysis_seconds": {"count": 10, "mean": 0.1, "max": 0.2}}
        b = {"steals": 9, "analysis_seconds": {"count": 10, "mean": 0.3, "max": 0.6},
             "renames": 2}
        deltas = {d.name: d for d in diff_metrics(a, b)}
        assert deltas["steals"].delta == pytest.approx(5)
        assert deltas["analysis_seconds.mean"].delta == pytest.approx(0.2)
        assert deltas["renames"].a is None and deltas["renames"].b == 2
        text = render_metrics_diff(list(deltas.values()))
        assert "steals" in text


def _static_doc(**overrides):
    doc = {
        "format": "repro.recording",
        "version": 1,
        "source": "driver.py",
        "entry": None,
        "truncated": False,
        "renames": 1,
        "tasks": [[1, "produce", 0], [2, "consume", 0], [3, "produce", 0]],
        "edges": [[1, 2, "true"]],
        "stream": [["task", 1], ["task", 2], ["task", 3], ["barrier"]],
        "details": [],
    }
    doc.update(overrides)
    return doc


def _recording_doc(**overrides):
    doc = {
        "format": "repro.recording",
        "version": 1,
        "tasks": [[1, "produce", 0], [2, "consume", 0], [3, "produce", 0]],
        "edges": [[1, 2, "true"]],
        "stream": [["task", 1], ["task", 2], ["task", 3], ["barrier"]],
        "renames": 1,
        "truncated": False,
    }
    doc.update(overrides)
    return doc


class TestGraphDiff:
    def test_identical_static_vs_recording(self):
        diff = diff_task_graphs(_static_doc(), _recording_doc())
        assert diff.identical
        assert diff.tasks_a == diff.tasks_b == 3
        assert diff.renames_a == diff.renames_b == 1
        text = render_graph_diff(diff, "static", "recorded")
        assert "structurally identical" in text

    def test_divergences_attributed(self):
        recorded = _recording_doc(
            tasks=[[1, "produce", 0], [2, "consume", 0], [3, "gemm", 0],
                   [4, "consume", 0]],
            edges=[[1, 2, "true"], [2, 3, "anti"]],
        )
        diff = diff_task_graphs(_static_doc(), recorded)
        assert not diff.identical
        assert diff.name_mismatches == [(3, "produce", "gemm")]
        assert diff.extra_b == [(4, "consume")]
        assert diff.edges_only_b == [(2, 3, "anti")]
        text = render_graph_diff(diff)
        assert "#3: produce -> gemm" in text
        assert "2 -> 3 [anti]" in text

    def test_edge_kind_change(self):
        diff = diff_task_graphs(
            _static_doc(), _recording_doc(edges=[[1, 2, "anti"]])
        )
        assert diff.kind_changes == [(1, 2, "true", "anti")]

    def test_flow_cli_wrapper_unwrapped(self):
        # `python -m repro flow --format json` wraps the skeleton.
        wrapped = {"findings": [], "graph": _static_doc()}
        diff = diff_task_graphs(wrapped, _recording_doc())
        assert diff.identical

    def test_renames_compared(self):
        diff = diff_task_graphs(_static_doc(), _recording_doc(renames=2))
        assert not diff.identical
        assert "renames:  1 -> 2" in render_graph_diff(diff)

    def test_older_document_defaults(self):
        # Written before documents carried renames/truncated.
        older = _recording_doc(renames=0)
        del older["renames"], older["truncated"]
        assert diff_task_graphs(older, _recording_doc(renames=0)).identical

    def test_stream_sync_counts(self):
        diff = diff_task_graphs(
            _static_doc(),
            _recording_doc(stream=[["task", 1], ["task", 2], ["task", 3],
                                   ["barrier"], ["wait", 3]]),
        )
        assert not diff.identical
        assert (diff.barriers_a, diff.barriers_b) == (1, 1)
        assert (diff.waits_a, diff.waits_b) == (0, 1)


class TestDiffCli:
    def _write_traces(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        class Holder:
            def __init__(self, events):
                self.events = events

        a = tmp_path / "a.trace.json"
        b = tmp_path / "b.trace.json"
        write_chrome_trace(Holder(make_run()), str(a))
        write_chrome_trace(Holder(make_run(gemm_scale=3.0)), str(b))
        return str(a), str(b)

    def test_trace_diff_cli(self, tmp_path, capsys):
        from repro.obs.cli import main

        a, b = self._write_traces(tmp_path)
        assert main(["diff", a, b, "--boot", "100"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out
        assert "entered the path" in out

    def test_trace_diff_cli_exports(self, tmp_path, capsys):
        from repro.obs.cli import main

        a, b = self._write_traces(tmp_path)
        dot = tmp_path / "diff.dot"
        chrome = tmp_path / "sbs.json"
        assert main(["diff", a, b, "--boot", "0",
                     "--dot", str(dot), "--chrome", str(chrome)]) == 0
        assert "digraph" in dot.read_text()
        assert json.loads(chrome.read_text())["otherData"]["runs"]

    def test_metrics_diff_cli(self, tmp_path, capsys):
        from repro.obs.cli import main

        a = tmp_path / "a.metrics.json"
        b = tmp_path / "b.metrics.json"
        a.write_text(json.dumps({"figure": "x", "metrics": {"steals": 1}}))
        b.write_text(json.dumps({"figure": "x", "metrics": {"steals": 5}}))
        assert main(["diff", str(a), str(b)]) == 0
        assert "steals" in capsys.readouterr().out

    def test_figure_diff_cli(self, tmp_path, capsys):
        from repro.obs.cli import main

        fig = FigureResult("figX", "t", "threads", "Gflops", [1, 2])
        fig.add("SMPSs", [1.0, 2.0])
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(fig.to_json())
        fig.series[0].values = [1.0, 1.5]
        b.write_text(fig.to_json())
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out  # the `bench compare` table
        assert "REGRESSED" in out and "2.000 -> 1.500" in out
        assert "2 points: 1 regressed" in out

    def test_mismatched_kinds_rejected(self, tmp_path, capsys):
        from repro.obs.cli import main

        a, _ = self._write_traces(tmp_path)
        fig = tmp_path / "fig.json"
        fig.write_text(json.dumps({"figure_id": "f", "series": {}, "x": []}))
        assert main(["diff", a, str(fig)]) == 1

    def test_missing_file(self, tmp_path):
        from repro.obs.cli import main

        assert main(["diff", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope2.json")]) == 1

    def test_graph_diff_cli(self, tmp_path, capsys):
        from repro.obs.cli import main

        a = tmp_path / "static.json"
        b = tmp_path / "recorded.json"
        a.write_text(json.dumps(_static_doc()))
        b.write_text(json.dumps(_recording_doc()))
        assert main(["diff", str(a), str(b)]) == 0
        assert "structurally identical" in capsys.readouterr().out

        # Divergence is the diff's failure mode: exit 1.
        b.write_text(json.dumps(_recording_doc(edges=[])))
        assert main(["diff", str(a), str(b)]) == 1
        assert "edges only in" in capsys.readouterr().out

        # ... renames included.
        b.write_text(json.dumps(_recording_doc(renames=0)))
        assert main(["diff", str(a), str(b)]) == 1
        assert "renames:  1 -> 0" in capsys.readouterr().out
