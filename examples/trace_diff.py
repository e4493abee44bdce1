#!/usr/bin/env python3
"""Differential trace analysis: find out *why* a run got slower.

Two traced Cholesky runs on the threaded runtime — the second with the
``gemm_nt`` tile kernel artificially slowed down (a stand-in for a
BLAS misconfiguration, a cache-hostile block size, or a scheduler
change).  ``repro.obs.diff`` attributes the makespan delta:

* per-task-type duration shifts, with bootstrap 95% CIs so genuine
  shifts stand out from thread-scheduling noise;
* the critical-path composition change (which task types entered or
  left each run's critical path, taken from its traced edges);
* scheduler-behaviour deltas (utilisation, locality, steals, barrier);
* side-by-side exports: one Chrome trace with both runs as aligned
  processes (ui.perfetto.dev) and a DOT picture of both paths.

The same reports come from the CLI on exported traces::

    python -m repro obs diff before.trace.json after.trace.json

Run:  python examples/trace_diff.py
"""

import json
import os
import tempfile
import time

from repro import SmpssRuntime
from repro.apps.cholesky import cholesky_hyper
from repro.blas import kernels
from repro.blas.hypermatrix import HyperMatrix
from repro.obs import to_chrome_trace
from repro.obs.diff import (
    diff_traces,
    render_trace_diff,
    write_diff_chrome_trace,
    write_diff_dot,
)


def traced_run() -> list:
    hm = HyperMatrix.random_spd(8, 24, seed=3)
    rt = SmpssRuntime(num_workers=4, trace=True)
    with rt:
        cholesky_hyper(hm)
        rt.barrier()
    return rt.tracer.events


def main() -> None:
    print("run A: baseline traced Cholesky (8x8 blocks of 24)")
    events_a = traced_run()

    print("run B: same program, gemm_nt slowed ~2x")
    real_gemm_nt = kernels.gemm_nt

    def slow_gemm_nt(a, b, c):
        start = time.perf_counter()
        real_gemm_nt(a, b, c)
        elapsed = time.perf_counter() - start
        time.sleep(elapsed)  # double the apparent kernel cost

    kernels.gemm_nt = slow_gemm_nt
    try:
        events_b = traced_run()
    finally:
        kernels.gemm_nt = real_gemm_nt

    diff = diff_traces(events_a, events_b, n_boot=500)
    print()
    print(render_trace_diff(diff, "baseline", "slow gemm"))

    culprit = diff.top_regressors(1)[0]
    print(f"\n=> biggest regressor: {culprit.name} "
          f"(+{culprit.delta_total * 1e3:.1f}ms total busy time)")

    with tempfile.TemporaryDirectory() as tmp:
        a_path, b_path = (os.path.join(tmp, name)
                          for name in ("a.trace.json", "b.trace.json"))
        for path, events in ((a_path, events_a), (b_path, events_b)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(to_chrome_trace(events), handle)
        sbs = write_diff_chrome_trace(
            events_a, events_b, os.path.join(tmp, "side_by_side.json"),
            label_a="baseline", label_b="slow gemm",
        )
        dot = write_diff_dot(diff, os.path.join(tmp, "path_diff.dot"))
        print(f"\nexports (in a temp dir, deleted on exit):")
        for path in (a_path, b_path, sbs, dot):
            print(f"  {os.path.basename(path):22s} {os.path.getsize(path)} bytes")
        print("the CLI equivalent:  python -m repro obs diff "
              "a.trace.json b.trace.json --dot path_diff.dot")


if __name__ == "__main__":
    main()
