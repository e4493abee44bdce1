#!/usr/bin/env python3
"""Quickstart: the SMPSs programming model in five minutes.

The paper's core idea (section II): write a *sequential* program, mark
functions as tasks with directionality clauses, and let the runtime
discover the parallelism by analysing data dependencies at run time.

This script shows:
 1. the dual-compilation property — the same code runs sequentially
    with no runtime, and in parallel inside one;
 2. automatic renaming removing WAR hazards (no hand copies);
 3. the task graph you can inspect (Figure 5 style);
 4. the observability stack: a traced run exporting a Perfetto-loadable
    Chrome trace, a GraphViz DOT with the critical path highlighted,
    and the runtime's own utilisation/critical-path report.

Run:  python examples/quickstart.py

Outputs (trace JSON, graph DOT) land in ``examples/out/`` — gitignored
build artifacts, safe to delete.
"""

import os

import numpy as np

from repro import SmpssRuntime, css_task, record_program
from repro.obs import graph_to_dot, write_chrome_trace


# --- declare tasks: the Python form of `#pragma css task` ----------------

@css_task("input(a, b) inout(c)")
def sgemm_t(a, b, c):
    """Figure 1's multiplication task: c += a @ b."""

    c += a @ b


@css_task("inout(a)")
def scale_t(a):
    a *= 0.5


def main() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    b = rng.standard_normal((64, 64))
    c = np.zeros((64, 64))

    # 1. Sequential execution: no runtime active, plain function calls.
    sgemm_t(a, b, c)
    scale_t(c)
    sequential_result = np.array(c)
    c[...] = 0.0
    print("sequential run done:", sequential_result.sum())

    # 2. Parallel execution: same call sites, now asynchronous tasks.
    with SmpssRuntime(num_workers=3) as rt:
        sgemm_t(a, b, c)
        scale_t(c)
        rt.barrier()  # sequential semantics restored here
    assert np.allclose(c, sequential_result)
    print("parallel run matches: True")

    # 3. Renaming in action: a reader is pending when we overwrite its
    # input.  Without renaming this WAR hazard would serialise; the
    # runtime gives the writer a fresh buffer instead and writes the
    # final value back at the barrier.
    src = np.zeros(8)
    outs = [np.zeros(8) for _ in range(4)]

    @css_task("input(a) output(b)")
    def snapshot(a, b):
        b[...] = a

    @css_task("inout(a)")
    def bump(a):
        a += 1

    with SmpssRuntime(num_workers=2, keep_graph=True) as rt:
        for out in outs:
            snapshot(src, out)  # reader of the current version
            bump(src)           # writer: renamed as needed
        rt.barrier()
        renames = rt.graph.stats.renames
    print("snapshots saw versions:", [int(o[0]) for o in outs], "(expect 0..3)")
    print("renamed buffers created:", renames)

    # 4. Inspect a task graph without executing anything.
    prog = record_program(_blocked_matmul_program, execute="skip")
    print(
        f"recorded graph: {prog.task_count} tasks, "
        f"{prog.graph.stats.total_edges} true-dependency edges, "
        f"critical path {prog.graph.critical_path_length()}"
    )

    # 5. Observability: trace a run, export it, and read the report.
    with SmpssRuntime(num_workers=3, trace=True, keep_graph=True) as rt:
        _blocked_matmul_program()
        rt.barrier()
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = write_chrome_trace(
        rt.tracer, os.path.join(out_dir, "quickstart_trace.json")
    )
    print(f"\nPerfetto trace written: {trace_path} "
          "(open at https://ui.perfetto.dev)")
    dot_path = os.path.join(out_dir, "quickstart_graph.dot")
    with open(dot_path, "w") as fh:
        fh.write(graph_to_dot(rt.graph))
    print(f"task graph with critical path in red: {dot_path} "
          "(render with `dot -Tsvg`)")
    print()
    print(rt.report())
    # The analyzer's per-thread busy times add up to the traced work.
    from repro.obs import analyze_tracer

    report = analyze_tracer(rt.tracer, num_threads=rt.num_threads)
    work = sum(end - start for start, end, _thread, _name
               in rt.tracer.task_intervals().values())
    busy = sum(usage.busy for usage in report.threads.values())
    assert abs(busy - work) <= 0.01 * work
    print(f"analyzer busy times sum to the traced work: {busy * 1e3:.2f}ms")


def _blocked_matmul_program() -> None:
    n, m = 4, 8
    blocks = lambda: [[np.zeros((m, m)) for _ in range(n)] for _ in range(n)]  # noqa: E731
    a, b, c = blocks(), blocks(), blocks()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                sgemm_t(a[i][k], b[k][j], c[i][j])


if __name__ == "__main__":
    main()
