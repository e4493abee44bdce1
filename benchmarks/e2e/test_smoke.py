"""Smoke test of the benchmark harness (``pytest benchmarks/e2e``).

Outside the tier-1 ``testpaths``: it starts agents, a daemon and worker
processes and takes about two minutes.  It checks the harness, not the
numbers: every run finishes, all operations succeed, and the names that
come out are exactly the names ``BENCHMARK.json`` declares.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, HERE)
import run as harness  # noqa: E402 - needs the path above


def run(*args):
    done = subprocess.run(
        RUN + list(args), capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr + done.stdout
    return done.stdout


def driver(workload, trace):
    out = run("--workload", workload, "--seed", "0", "--seconds", "0.9",
              "--trace", str(trace))
    return json.loads(out.strip().splitlines()[-1])


def test_declared_names():
    names = WORKLOADS + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_interface(workload, trace, key):
    result = driver(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace == 0:
        assert all(v > 0 for v in values.values())
    else:
        assert values["trace.hooks_missing"] == 0


def test_full_run_and_layers_finish():
    table = run("--passes", "1", "--seconds", "0.3")
    for name in WORKLOADS:
        assert f"{name}: ops_attempted=" in table
    assert "ops_failed=0" in table and "ERROR" not in table
    layers = run("--layers", "--seconds", "0.3", "--workload", "stream_regions")
    assert "trace.overhead_frac" in layers and "ERROR" not in layers
    trace = os.path.join(HERE, "out", "stream_regions.trace.json")
    with open(trace) as handle:
        assert json.load(handle)["traceEvents"]


def test_fault_is_counted_as_failed_operations():
    out = run("--selftest-fault", "--workload", "stream_regions",
              "--workload", "served_graphs")
    failed = [int(n) for n in re.findall(r"ops_failed=(\d+)", out)]
    assert len(failed) == 2 and all(n > 0 for n in failed)


def test_untraced_pass_never_imports_the_tracer():
    result = harness.run_pass("stream_regions", 0, 0.1)
    assert result["error"] is None and result["tracer_imported"] is False
    traced = harness.run_pass("stream_regions", 0, 0.1, mode="traced")
    assert traced["tracer_imported"] is True


def test_missing_hook_target_is_reported_not_raised(monkeypatch):
    import e2e_trace

    monkeypatch.setattr(e2e_trace, "HOOKS", (
        e2e_trace.Hook("core.graph.complete", "repro.core.graph",
                       "TaskGraph.no_such_method"),
        e2e_trace.Hook("net.frames.send", "repro.no_such_module", "f"),
    ))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    tracer = e2e_trace.Tracer().install()
    assert [m["row"] for m in tracer.missing] == [
        "core.graph.complete", "net.frames.send"]
    layers = harness.per_layer(
        {}, {"hooks_missing": tracer.missing, "rows": {}}, {})
    assert layers["core.graph.complete_us"] is None
    assert layers["net.frames.send_us"] is None
    assert layers["core.scheduler.pop_us"] == 0.0
    assert layers["trace.hooks_missing"] == 2
