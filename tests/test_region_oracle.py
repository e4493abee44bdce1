"""Soundness oracle for the region dependency engine (section V.A).

For random region programs, every pair of tasks whose accesses
*element-wise conflict* (they touch a common element and at least one
writes it) must be ordered by a dependency path in the recorded graph.
The engine may be conservative (extra edges are allowed — they cost
parallelism, not correctness); it must never MISS a conflict.

The programs are long enough (up to 40 ops on 64 elements, 1-D and 2-D)
that the datum's interval index holds dozens of chains, so the oracle
witnesses the indexed lookup, not a handful of chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import css_task
from repro.core.recorder import RecordingRuntime


@css_task("input(data{i..j}, i, j)")
def read_region(data, i, j):  # noqa: ARG001
    pass


@css_task("output(data{i..j}) input(i, j)")
def write_region(data, i, j):  # noqa: ARG001
    pass


@css_task("inout(data{i..j}) input(i, j)")
def update_region(data, i, j):  # noqa: ARG001
    pass


_OPS = [
    (read_region, False, True),
    (write_region, True, False),
    (update_region, True, True),
]

N = 64

program = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, N - 1), st.integers(0, N - 1)),
    min_size=2,
    max_size=40,
)


def _conflicts(a, b) -> bool:
    """Element-wise conflict between two ops (op, lo, hi)."""

    (op_a, lo_a, hi_a), (op_b, lo_b, hi_b) = a, b
    _, writes_a, _ = _OPS[op_a]
    _, writes_b, _ = _OPS[op_b]
    if not (writes_a or writes_b):
        return False
    return not (hi_a < lo_b or hi_b < lo_a)


def _assert_conflicts_ordered(prog, tasks, ops, conflicts) -> None:
    import networkx as nx

    closure = nx.transitive_closure_dag(prog.graph.to_networkx())
    for idx_a in range(len(ops)):
        for idx_b in range(idx_a + 1, len(ops)):
            if conflicts(ops[idx_a], ops[idx_b]):
                assert closure.has_edge(
                    tasks[idx_a].task_id, tasks[idx_b].task_id
                ), f"conflicting ops {ops[idx_a]} -> {ops[idx_b]} not ordered"


@settings(max_examples=80, deadline=None)
@given(ops=program)
def test_all_conflicting_pairs_are_ordered(ops):
    data = np.zeros(N, np.float64)
    normalised = [
        (op, min(x, y), max(x, y)) for op, x, y in ops
    ]
    recorder = RecordingRuntime(execute="skip")
    with recorder:
        tasks = [_OPS[op][0](data, lo, hi) for op, lo, hi in normalised]
    _assert_conflicts_ordered(recorder.finish(), tasks, normalised, _conflicts)


@css_task("input(m{r0..r1}{c0..c1}, r0, r1, c0, c1)")
def read_block(m, r0, r1, c0, c1):  # noqa: ARG001
    pass


@css_task("output(m{r0..r1}{c0..c1}) input(r0, r1, c0, c1)")
def write_block(m, r0, r1, c0, c1):  # noqa: ARG001
    pass


@css_task("inout(m{r0..r1}{c0..c1}) input(r0, r1, c0, c1)")
def update_block(m, r0, r1, c0, c1):  # noqa: ARG001
    pass


_OPS_2D = [read_block, write_block, update_block]

_span = st.tuples(st.integers(0, 15), st.integers(0, 15)).map(
    lambda t: (min(t), max(t))
)
program_2d = st.lists(
    st.tuples(st.integers(0, 2), _span, _span), min_size=2, max_size=40
)


def _conflicts_2d(a, b) -> bool:
    (op_a, rows_a, cols_a), (op_b, rows_b, cols_b) = a, b
    if not (_OPS[op_a][1] or _OPS[op_b][1]):
        return False
    return all(
        not (hi_a < lo_b or hi_b < lo_a)
        for (lo_a, hi_a), (lo_b, hi_b) in ((rows_a, rows_b), (cols_a, cols_b))
    )


@settings(max_examples=60, deadline=None)
@given(ops=program_2d)
def test_all_conflicting_pairs_are_ordered_2d(ops):
    m = np.zeros((16, 16), np.float64)
    recorder = RecordingRuntime(execute="skip")
    with recorder:
        tasks = [_OPS_2D[op](m, *rows, *cols) for op, rows, cols in ops]
    _assert_conflicts_ordered(recorder.finish(), tasks, ops, _conflicts_2d)


@settings(max_examples=50, deadline=None)
@given(ops=program)
def test_disjoint_reads_never_ordered_directly(ops):
    """Read-read pairs get no direct edge (no false read serialisation)."""

    data = np.zeros(N, np.float64)
    recorder = RecordingRuntime(execute="skip")
    with recorder:
        tasks = []
        for _op, x, y in ops:
            tasks.append(read_region(data, min(x, y), max(x, y)))
    prog = recorder.finish()
    assert prog.graph.stats.total_edges == 0


@settings(max_examples=50, deadline=None)
@given(ops=program)
def test_execution_matches_sequential_oracle(ops):
    """Executable version: region sums/fills match sequential replay."""

    @css_task("inout(data{i..j}) input(i, j, v)")
    def add_const(data, i, j, v):
        data[i : j + 1] += v

    def run(mode):
        data = np.arange(N, dtype=np.float64)
        if mode == "seq":
            for op, x, y in ops:
                lo, hi = min(x, y), max(x, y)
                data[lo : hi + 1] += op + 1
            return data
        recorder = RecordingRuntime(execute="eager")
        with recorder:
            for op, x, y in ops:
                add_const(data, min(x, y), max(x, y), op + 1)
            recorder.barrier()
        return data

    assert np.array_equal(run("seq"), run("eager"))
