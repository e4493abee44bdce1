#!/usr/bin/env python3
"""Blocked Cholesky factorisation — the paper's flagship workload.

Reproduces the section IV/VI.A pipeline end to end:

 1. factorise a dense hyper-matrix with the Figure 4 left-looking code
    under the threaded runtime and validate against scipy;
 2. factorise a *flat* matrix with the Figure 9 on-demand block copies
    (the fair-comparison transformation against threaded BLAS);
 3. print the Figure 5 task graph facts and export it to GraphViz;
 4. simulate the same program on a virtual 32-core Altix and report
    Gflops, utilisation, and steal counts.

Run:  python examples/cholesky_factorization.py [--backend processes]

With ``--backend processes`` the flat-matrix demo runs on the repro.mp
process backend: the flat matrix is allocated in a shared-memory arena
(it is an *opaque* parameter, so workers must write through shared
memory — see docs/execution_backends.md), and the factor is asserted
bitwise identical to the threads-backend run and checked against the
``repro.blas.reference`` oracle.
"""

import argparse

import numpy as np
import scipy.linalg as sla

from repro import SmpssRuntime, arena_array, record_program
from repro.apps.cholesky import (
    cholesky_flat,
    cholesky_hyper,
    cholesky_sparse,
    flat_task_count,
    hyper_task_count,
)
from repro.blas.hypermatrix import HyperMatrix
from repro.obs import analyze_tracer
from repro.sim import ALTIX_32, CostModel, simulate_program


def threaded_hyper_demo(size: int = 256, block: int = 64) -> None:
    print(f"== threaded hyper-matrix Cholesky ({size}x{size}, blocks {block}) ==")
    hm = HyperMatrix.random_spd(size // block, block, seed=1)
    reference = sla.cholesky(hm.to_dense(), lower=True)

    with SmpssRuntime(num_workers=3, trace=True) as rt:
        cholesky_hyper(hm)
        rt.barrier()
        tracer = rt.tracer

    error = abs(hm.lower_to_dense() - reference).max()
    print(f"   max |L - scipy| = {error:.2e}")
    by_thread = {tid: usage.tasks
                 for tid, usage in analyze_tracer(tracer).threads.items()}
    print(f"   tasks by thread: {by_thread}")
    print(tracer.ascii_timeline(width=64))


def _flat_factorise(spd: np.ndarray, block: int, backend: str) -> np.ndarray:
    """Run the Figure 9 flat-matrix Cholesky under *backend*.

    The flat matrix is opaque to the runtime (the paper's ``void *``
    idiom), so under the process backend it must live in shared-arena
    memory for worker writes to land in the master's copy.
    """

    work = arena_array(spd) if backend == "processes" else np.array(spd)
    with SmpssRuntime(num_workers=3, backend=backend) as rt:
        cholesky_flat(work, block)
        rt.barrier()
    return np.array(work)


def threaded_flat_demo(size: int = 192, block: int = 48,
                       backend: str = "threads") -> None:
    print(f"\n== flat-matrix Cholesky (Figure 9 transformation, "
          f"backend={backend}) ==")
    rng = np.random.default_rng(2)
    x = rng.standard_normal((size, size))
    spd = x @ x.T + size * np.eye(size)
    work = _flat_factorise(spd, block, backend)
    error = abs(np.tril(work) - sla.cholesky(spd, lower=True)).max()
    n_blocks = size // block
    print(f"   max error = {error:.2e}")
    print(f"   tasks incl. get/put copies: {flat_task_count(n_blocks)['total']}")

    if backend == "processes":
        from repro.blas.reference import ref_cholesky

        twin = _flat_factorise(spd, block, "threads")
        assert np.array_equal(np.tril(work), np.tril(twin)), (
            "threads and processes backends disagree bitwise"
        )
        oracle_n = 48  # the pure-Python oracle is O(n^3); keep it small
        small = spd[:oracle_n, :oracle_n]
        factor = _flat_factorise(small, oracle_n // 2, "processes")
        oracle_error = abs(np.tril(factor) - ref_cholesky(small)).max()
        print(f"   backends agree bitwise; max error vs "
              f"repro.blas.reference oracle = {oracle_error:.2e}")
        assert oracle_error < 1e-8


def figure5_demo() -> None:
    print("\n== Figure 5: the 6x6-block task graph ==")
    hm = HyperMatrix(6, 1, np.float32)
    for i in range(6):
        for j in range(6):
            hm[i, j] = np.zeros((1, 1), np.float32)
    prog = record_program(cholesky_hyper, hm, execute="skip")
    print(f"   {prog.task_count} tasks (formula: {hyper_task_count(6)['total']})")
    t51 = prog.graph.get(51)
    print(
        f"   task 51 ({t51.name}) direct predecessors: "
        f"{sorted(p.task_id for p in t51.predecessors)} — runnable after "
        "tasks 1 and 6, exactly as the paper notes"
    )
    dot = prog.graph.to_dot()
    print(f"   GraphViz export: {len(dot.splitlines())} lines (prog.graph.to_dot())")
    print("   dependency levels (width = available parallelism):")
    for line in prog.graph.to_ascii_levels(width=60).splitlines():
        print("     " + line)


def sparse_demo(n_blocks: int = 8, block: int = 16, bandwidth: int = 2) -> None:
    print("\n== sparse blocked Cholesky with on-demand fill-in ==")
    rng = np.random.default_rng(9)
    size = n_blocks * block
    l0 = np.zeros((size, size))
    for i in range(n_blocks):
        for j in range(max(0, i - bandwidth), i + 1):
            l0[i * block:(i + 1) * block, j * block:(j + 1) * block] = (
                rng.standard_normal((block, block)) * 0.3
            )
        ii = slice(i * block, (i + 1) * block)
        l0[ii, ii] = np.tril(l0[ii, ii]) + block * np.eye(block)
    spd = l0 @ l0.T
    hm = HyperMatrix(n_blocks, block, np.float64)
    for i in range(n_blocks):
        for j in range(i + 1):
            piece = spd[i * block:(i + 1) * block, j * block:(j + 1) * block]
            if np.any(piece != 0.0):
                hm[i, j] = np.array(piece)
    present_before = hm.block_count()
    with SmpssRuntime(num_workers=3) as rt:
        cholesky_sparse(hm)
        rt.barrier()
    error = abs(hm.lower_to_dense() - sla.cholesky(spd, lower=True)).max()
    dense_blocks = n_blocks * (n_blocks + 1) // 2  # lower triangle
    print(f"   band matrix: {present_before} blocks present "
          f"(a dense lower triangle has {dense_blocks})")
    print(f"   after factorisation: {hm.block_count()} blocks (fill-in on demand)")
    print(f"   max error vs scipy: {error:.2e}")


def simulation_demo(n: int = 4096, block: int = 128) -> None:
    print(f"\n== simulated 32-core Altix run ({n}x{n}, blocks {block}) ==")
    n_blocks = n // block
    hm = HyperMatrix(n_blocks, 1, np.float32)
    for i in range(n_blocks):
        for j in range(n_blocks):
            hm[i, j] = np.zeros((1, 1), np.float32)
    cost = CostModel(ALTIX_32, library="goto", block_size=block)
    res = simulate_program(cholesky_hyper, hm, cost_model=cost)
    print(f"   simulated makespan: {res.makespan*1e3:.1f} ms")
    print(f"   Gflops: {res.gflops(n**3/3):.1f} (peak {ALTIX_32.peak_gflops:.1f})")
    print(f"   utilisation: {res.utilisation:.2f}, steals: {res.steals}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend", choices=("threads", "processes"), default="threads",
        help="execution backend for the flat-matrix demo "
             "(processes = repro.mp worker processes over a shared arena)",
    )
    cli = parser.parse_args()
    threaded_hyper_demo()
    threaded_flat_demo(backend=cli.backend)
    figure5_demo()
    sparse_demo()
    simulation_demo()
