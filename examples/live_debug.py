#!/usr/bin/env python3
"""Live debugging of a running task graph with ``repro.live``.

``SmpssRuntime(live=True)`` gives every run a debugger: the scheduler
can be paused, stepped one dispatch at a time, and told to hold tasks
of a given type at a breakpoint — while the dependency graph is still
growing.  This example drives it all in-process through the ``rt.live``
handle (the ``python -m repro live attach`` CLI speaks to the same
session over a socket; ``python -m repro live replay`` walks a
recording through the same dashboard offline).

The script:

* starts a Cholesky factorisation **paused**, so the full worst-case
  hazard graph is visible before a single task has run;
* inspects the in-flight graph (task mix, edges, critical path);
* sets a breakpoint on ``spotrf_t`` — the panel factorisation that
  anchors every elimination step — and grants five dispatch tickets;
* shows the held task and the control-plane state while stopped;
* clears the breakpoint, resumes, and verifies the numbers are exactly
  the ones an undebugged run produces.

Run:  python examples/live_debug.py
"""

import time
from collections import Counter

import numpy as np

from repro import SmpssRuntime
from repro.apps.cholesky import cholesky_hyper
from repro.blas.hypermatrix import HyperMatrix


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise TimeoutError("runtime did not reach the expected state")
        time.sleep(0.01)


def main() -> None:
    hm = HyperMatrix.random_spd(6, 16, seed=7)
    reference = np.linalg.cholesky(hm.to_dense())

    rt = SmpssRuntime(
        num_workers=3,
        live=True,
        live_start_paused=True,  # workers park before the first dispatch
        keep_graph=True,
    )
    with rt:
        live = rt.live
        print(f"live session listening at {rt.address}")
        print("  (another terminal could: python -m repro live attach "
              f"{rt.address})\n")

        # Submission is synchronous, so with the scheduler paused the
        # whole program lands in the graph before anything executes —
        # the worst-case hazard graph of the paper's section IV.
        cholesky_hyper(hm)

        graph = rt.graph
        mix = Counter(task.name for task in graph)
        edges = sum(1 for _ in graph.edges())
        print(f"paused with {len(graph)} tasks submitted, 0 executed")
        print(f"  task mix: {dict(sorted(mix.items()))}")
        print(f"  edges: {edges}, critical path: "
              f"{graph.critical_path_length()} tasks\n")

        # Hold the *next* spotrf_t at the dispatch point, then grant
        # five dispatch tickets.  The very first ready task is the
        # first panel factorisation, so the breakpoint trips on ticket
        # one (the hold consumes it) and up to four other tasks run.
        live.add_break(name="spotrf_t")
        live.step(5)
        wait_until(lambda: live.state()["holds"] > 0)

        state = live.state()
        print(f"breakpoint hit ({state['holds']} hold): the spotrf_t was "
              "put back at the head of the ready list")
        print(f"  paused={state['paused']}  executed={state['executed']}  "
              f"ready={state['ready']}  step budget left="
              f"{state['step_budget']}\n")

        # Release: drop the breakpoint and let the run finish normally.
        live.clear_breaks()
        live.resume()
        rt.barrier()
        print(f"resumed to completion: {rt.tasks_executed}/{len(graph)} "
              "tasks executed")

    assert np.allclose(np.tril(hm.to_dense()), reference, atol=1e-8)
    print("factor matches numpy.linalg.cholesky — debugging changed "
          "nothing but the schedule")


if __name__ == "__main__":
    main()
