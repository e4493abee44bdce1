"""Tests for array regions (section V.A) — geometry, properties, and the
per-datum interval index the dependency engine looks overlaps up in."""

import gc
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SmpssRuntime, css_task
from repro.core.dependencies import TrackedDatum
from repro.core.recorder import RecordingRuntime
from repro.core.regions import FULL_DIM, Region, RegionError


class TestConstruction:
    def test_valid(self):
        r = Region(((0, 5), (3, 3)))
        assert r.ndim == 2

    def test_empty_interval_rejected(self):
        with pytest.raises(RegionError, match="empty interval"):
            Region(((5, 4),))

    def test_negative_lower_rejected(self):
        with pytest.raises(RegionError, match="negative"):
            Region(((-1, 4),))

    def test_full_sentinel_allowed(self):
        r = Region((FULL_DIM,))
        assert r.is_full

    def test_from_slice(self):
        assert Region.from_slice(3, 7).intervals == ((3, 6),)
        with pytest.raises(RegionError):
            Region.from_slice(3, 3)

    def test_full_factory(self):
        assert Region.full(3).ndim == 3
        assert Region.full(3).is_full


class TestOverlap:
    def test_disjoint_1d(self):
        assert not Region(((0, 4),)).overlaps(Region(((5, 9),)))

    def test_adjacent_touching(self):
        # Inclusive bounds: {0..4} and {4..8} share element 4.
        assert Region(((0, 4),)).overlaps(Region(((4, 8),)))

    def test_2d_disjoint_rows_same_cols(self):
        a = Region(((0, 3), (0, 9)))
        b = Region(((4, 7), (0, 9)))
        assert not a.overlaps(b)

    def test_2d_corner_overlap(self):
        a = Region(((0, 5), (0, 5)))
        b = Region(((5, 9), (5, 9)))
        assert a.overlaps(b)

    def test_full_overlaps_everything(self):
        assert Region.full(1).overlaps(Region(((100, 200),)))

    def test_rank_mismatch_is_conservative(self):
        assert Region(((0, 1),)).overlaps(Region(((5, 6), (0, 1))))

    def test_symmetry(self):
        a = Region(((0, 5), (2, 4)))
        b = Region(((3, 8), (4, 9)))
        assert a.overlaps(b) == b.overlaps(a)


class TestContainment:
    def test_contains(self):
        assert Region(((0, 9),)).contains(Region(((2, 5),)))
        assert not Region(((2, 5),)).contains(Region(((0, 9),)))

    def test_full_contains_all(self):
        assert Region.full(1).contains(Region(((3, 7),)))
        assert not Region(((3, 7),)).contains(Region.full(1))

    def test_self_containment(self):
        r = Region(((2, 5), (1, 1)))
        assert r.contains(r)


class TestIntersection:
    def test_basic(self):
        a = Region(((0, 5),))
        b = Region(((3, 9),))
        assert a.intersection(b) == Region(((3, 5),))

    def test_disjoint_returns_none(self):
        assert Region(((0, 2),)).intersection(Region(((3, 4),))) is None

    def test_with_full(self):
        assert Region.full(1).intersection(Region(((3, 4),))) == Region(((3, 4),))


class TestConversions:
    def test_to_slices(self):
        r = Region(((2, 4), FULL_DIM))
        assert r.to_slices() == (slice(2, 5), slice(None))

    def test_resolved_against(self):
        r = Region((FULL_DIM, (1, 3)))
        assert r.resolved_against((10, 5)).intervals == ((0, 9), (1, 3))

    def test_resolution_bound_check(self):
        with pytest.raises(RegionError, match="exceeds"):
            Region(((0, 10),)).resolved_against((5,))

    def test_element_count(self):
        assert Region(((0, 4), (0, 1))).element_count() == 10
        assert Region((FULL_DIM,)).element_count() is None


# ---------------------------------------------------------------------------
# Property-based: region algebra invariants
# ---------------------------------------------------------------------------

interval = st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
    lambda t: (min(t), max(t))
)
region_1d = interval.map(lambda iv: Region((iv,)))
region_2d = st.tuples(interval, interval).map(lambda t: Region(t))


@given(region_2d, region_2d)
def test_overlap_iff_intersection(a, b):
    assert a.overlaps(b) == (a.intersection(b) is not None)


@given(region_2d, region_2d)
def test_intersection_contained_in_both(a, b):
    inter = a.intersection(b)
    if inter is not None:
        assert a.contains(inter)
        assert b.contains(inter)


@given(region_2d, region_2d)
def test_containment_implies_overlap(a, b):
    if a.contains(b):
        assert a.overlaps(b)


@given(region_2d, region_2d, region_2d)
def test_intersection_associative(a, b, c):
    def inter3(x, y, z):
        xy = x.intersection(y)
        return None if xy is None else xy.intersection(z)

    left = inter3(a, b, c)
    right_bc = b.intersection(c)
    right = None if right_bc is None else a.intersection(right_bc)
    assert left == right


@given(region_1d)
def test_element_count_matches_slices(r):
    (lo, hi), = r.intervals
    assert r.element_count() == hi - lo + 1
    sl = r.to_slices()[0]
    assert sl.stop - sl.start == r.element_count()


# ---------------------------------------------------------------------------
# The per-datum interval index of the dependency engine
# ---------------------------------------------------------------------------

# Mostly narrow intervals, some arbitrary ones, one very wide, the sentinel.
narrow = st.tuples(st.integers(0, 60), st.integers(0, 4)).map(
    lambda t: (t[0], t[0] + t[1])
)
bound = st.one_of(narrow, narrow, interval, st.just((0, 10_000)), st.just(FULL_DIM))
chain_key = st.one_of(
    st.none(),
    st.tuples(bound).map(Region),
    st.tuples(bound, bound).map(Region),
)
query = st.lists(bound, min_size=1, max_size=3).map(lambda b: Region(tuple(b)))


@settings(max_examples=300, deadline=None)
@given(st.lists(chain_key, max_size=40), st.lists(query, min_size=1, max_size=6))
def test_index_finds_exactly_the_chains_a_scan_finds(keys, queries):
    datum = TrackedDatum(object(), None)
    for key in keys:  # duplicates land on the chain already there
        datum.whole_chain() if key is None else datum.chain_for(key)
    assert len(datum.chains) == len(set(keys))
    for q in queries:
        scan = [c for c in datum.chains.values() if c.key is None or c.key.overlaps(q)]
        found = datum.overlapping(q)
        assert len(found) == len(scan)
        assert {id(c) for c in found} == {id(c) for c in scan}


@css_task("inout(data{lo..hi})")
def touch(data, lo, hi):  # noqa: ARG001
    pass


@css_task("inout(data)")
def touch_all(data):  # noqa: ARG001
    pass


def test_region_lookup_scaling_pin(monkeypatch):
    """1 000 disjoint tiles: an access examines its neighbours, not every
    chain.

    A count of the candidates examined — the entries of each index
    window (1-D ones are tested inline there) plus every exact
    ``Region.overlaps`` test — not a timing, so it means the same on any
    host (CI runs it in the bench-gate job).
    """

    calls = []
    exact, window = Region.overlaps, TrackedDatum.window

    def counted_window(datum, low):
        entries = window(datum, low)
        calls.extend(entries)
        return entries

    monkeypatch.setattr(
        Region, "overlaps", lambda a, b: calls.append(1) or exact(a, b)
    )
    monkeypatch.setattr(TrackedDatum, "window", counted_window)
    data = np.zeros(8000)
    with RecordingRuntime(execute="skip") as rt:
        first = [touch(data, 8 * i, 8 * i + 7) for i in range(1000)]
        calls.clear()
        second = [touch(data, 8 * i, 8 * i + 7) for i in range(1000)]
    assert 1000 <= len(calls) <= 3 * 1000
    assert len(rt.tracker.datum_for(data).chains) == 1000
    # ... and it still found the one chain that matters.
    assert all(b.predecessors == {a} for a, b in zip(first, second))


def test_region_submit_pin(monkeypatch):
    """1 000 ``touch(data, lo, hi)`` calls: bounds that are bare
    parameter names are read from the call's values, so no expression is
    evaluated and no environment built, and each region access builds
    exactly one ``Region``.  The resolver builds it as a C-level tuple,
    so the Regions are counted as the distinct instances on the
    accesses, and ``Region.__new__`` is never entered.  A count, not a
    timing (CI's bench-gate job).
    """

    from repro.core import invocation
    from repro.core.pragma import Expr

    evaluations, envs, constructed = [], [], []
    evaluate, env, new = Expr.evaluate, invocation._env, Region.__new__
    monkeypatch.setattr(
        Expr, "evaluate", lambda e, v: evaluations.append(1) or evaluate(e, v))
    monkeypatch.setattr(
        invocation, "_env", lambda *a: envs.append(1) or env(*a))
    monkeypatch.setattr(
        Region, "__new__",
        lambda cls, iv: constructed.append(1) or new(cls, iv))
    data = np.zeros(8000)
    with RecordingRuntime(execute="skip") as rt:
        tasks = [touch(data, 8 * i, 8 * i + 7) for i in range(1000)]
        # Every Region of the run: the accesses' and the chains' keys.
        regions = {id(a.region) for t in tasks for a in t.accesses} | {
            id(key) for key in rt.tracker.datum_for(data).chains}
    assert (len(evaluations), len(envs), len(regions)) == (0, 0, 1000)
    assert not constructed
    assert [t.accesses[0].region for t in tasks[:2]] == [
        Region(((0, 7),)), Region(((8, 15),))]


def test_whole_object_access_after_region_accesses_sees_every_chain():
    @css_task("output(m{r..r}{})")
    def row(m, r):  # noqa: ARG001
        pass

    @css_task("output(m{}{c..c})")
    def column(m, c):  # noqa: ARG001
        pass

    vector, matrix = np.zeros(40), np.zeros((40, 40))
    with RecordingRuntime(execute="skip"):
        tiles = [touch(vector, 8 * i, 8 * i + 7) for i in range(5)]
        whole = touch_all(vector)
        assert whole.predecessors == set(tiles)
        assert touch(vector, 16, 23).predecessors == {whole}

        rows = [row(matrix, r) for r in range(0, 40, 3)]
        columns = [column(matrix, c) for c in range(0, 40, 3)]
        assert columns[0].predecessors == set(rows)
        # Each column write displaced every row write, so the columns
        # are the last writers of all 28 chains.
        assert touch_all(matrix).predecessors == set(columns)


def test_barrier_clears_the_index_with_the_chains():
    data = np.zeros(64)
    with RecordingRuntime(execute="eager") as rt:
        for i in range(8):
            touch(data, 8 * i, 8 * i + 7)
        rt.barrier()
        assert not rt.tracker.is_tracked(data)
        wide = touch(data, 0, 63)
        assert not wide.predecessors  # nothing survives the barrier
        after = touch(data, 8, 15)
        assert after.predecessors == {wide}  # and the new index works


@css_task("input(data{lo..hi}) output(dest{lo..hi})")
def window(data, dest, lo, hi):  # noqa: ARG001
    pass


def _counted_run(rt, counting, submit) -> None:
    """Hold *rt*'s one worker in a body, count while the main thread
    runs *submit*, then let the worker run the queue and park."""

    from .test_runtime_threaded import _HOLD, _held

    _held(rt, np.zeros(1))
    gc.collect()
    counting[0] = True
    outer = sys.getprofile()
    sys.setprofile(counting[1])
    try:
        submit()
    finally:
        sys.setprofile(outer)
    _HOLD.append(True)
    while counting[0]:
        time.sleep(0.001)


def test_region_task_call_pin():
    """1 000 region tasks, each ready at submission, cost an exact
    number of Python-level calls each over both threads on
    ``num_workers=1``, counted like ``test_task_call_pin``: the worker
    is held in a body while the main thread submits, then runs the
    1 000 back to back, and the count ends at its park.

    ``touch(data, lo, hi)`` on 1 000 fresh disjoint tiles (a new chain
    each) costs 25.  17 on the main thread: the ``@css_task`` wrapper,
    ``in_task_body``, ``submit``, ``instantiate``, the plan's one
    ``_resolve``, ``TaskInstance.__init__``, the domain's and the
    tracker's ``analyze``, ``add_task``, ``_analyze_region``, the one
    chain lookup ``overlapping`` with its index ``window``, the new
    chain's ``_Chain.__init__``, two ``Version.__init__`` (its initial
    version and this write's), ``release`` and ``push_new``.  8 on the
    worker: ``_execute``, the backend's ``run``,
    ``resolve_call_values``, the body, the domain's and the graph's
    ``complete`` (whose prune of a version's one reader is inline), and
    the fused ``pop`` with its ``_select``.  ``window(data, dest, lo,
    hi)`` on the same tiles once they have run (a chain hit on
    ``data``, a new chain on ``dest``) costs 29: its second clause adds a ``_resolve``, an
    ``_analyze_region``, an ``overlapping`` and a ``window``.  The
    edges and the chain rolls are written inline.  A count, not a
    timing (CI's bench-gate job); it may only fall.
    """

    from .test_runtime_threaded import _HOLD, hold_t

    wait = threading.Condition.wait.__code__
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and counting[0]:
            calls.append(frame.f_code.co_name)
            if frame.f_code is wait:
                counting[0] = False  # the worker parks: the run is over

    counting = [False, profile]
    data, dest = np.zeros(8000), np.zeros(8000)
    counts = []
    outer, outer_threads = sys.getprofile(), threading.getprofile()
    collecting = gc.isenabled()
    threading.setprofile(profile)   # the worker thread starts with it
    try:
        with SmpssRuntime(num_workers=1) as rt:
            # Plans are built once, before.
            _HOLD.append(True)
            touch(np.zeros(8), 0, 7)
            window(np.zeros(8), np.zeros(8), 0, 7)
            hold_t(np.zeros(1))
            rt.barrier()
            gc.disable()
            for submit in (
                lambda: [touch(data, 8 * i, 8 * i + 7) for i in range(1000)],
                lambda: [window(data, dest, 8 * i, 8 * i + 7)
                         for i in range(1000)],
            ):
                calls.clear()
                _counted_run(rt, counting, submit)
                counts.append(len(calls))
            rt.barrier()
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer_threads)
        counting[0] = False
        if collecting:
            gc.enable()
    # Outside the 1 000, as in test_task_call_pin: the submit lambda and
    # its list comprehension, the new datum (``TrackedDatum.__init__``,
    # ``adapter_for``), the held task's completion (the domain's and the
    # graph's complete), the last task's pop that finds none, and the
    # park (the condition's enter, a pop, its wait).
    assert counts == [25 * 1000 + 10, 29 * 1000 + 10], counts


# ---------------------------------------------------------------------------
# Ordering and data of generated region programs
# ---------------------------------------------------------------------------

#: kind -> (array index, the pragma's specifiers, the view it selects).
#: Array 0 is 1-D (32), array 1 is 8 x 8; "rank" kinds access an array
#: at another rank than its own (conservatively overlapping everything).
_VIEWS = {
    "span": (0, "{r0..r1}", lambda a, r0, r1, c0, c1: a[r0:r1 + 1]),
    "rank": (0, "{r0..r1}{}", lambda a, r0, r1, c0, c1: a[r0:r1 + 1]),
    "tile": (1, "{r0..r1}{c0..c1}",
             lambda a, r0, r1, c0, c1: a[r0:r1 + 1, c0:c1 + 1]),
    "rows": (1, "{r0..r1}{}", lambda a, r0, r1, c0, c1: a[r0:r1 + 1]),
    "cols": (1, "{}{c0..c1}", lambda a, r0, r1, c0, c1: a[:, c0:c1 + 1]),
    "band": (1, "{r0..r1}", lambda a, r0, r1, c0, c1: a[r0:r1 + 1]),
    "whole0": (0, "", lambda a, r0, r1, c0, c1: a),
    "whole1": (1, "", lambda a, r0, r1, c0, c1: a),
}
_DIRECTIONS = ("input", "output", "inout")
#: input tasks record what they read, by op index: a read out of order
#: shows in the data like a write out of order.
_READ: dict = {}


def _region_task(direction, kind):
    _, specifiers, view = _VIEWS[kind]

    def body(data, r0, r1, c0, c1, k, i):
        part = view(data, r0, r1, c0, c1)
        if direction == "input":
            _READ[i] = float(part.sum())
        elif direction == "output":
            part[...] = k
        else:
            part[...] = (part * 3 + k) % 1009

    return css_task(f"{direction}(data{specifiers})")(body)


_TASKS = {(d, kind): _region_task(d, kind)
          for d in _DIRECTIONS for kind in _VIEWS}

_op = st.tuples(st.sampled_from(_DIRECTIONS), st.sampled_from(sorted(_VIEWS)),
                st.integers(0, 31), st.integers(0, 31),
                st.integers(0, 7), st.integers(0, 7))


def _normalised(ops) -> list:
    """Bounds in range and ordered; a whole-object access only once its
    array has had a region access (before that it may be renamed)."""

    out, regions_seen = [], set()
    for direction, kind, x, y, c, d in ops:
        array = _VIEWS[kind][0]
        if kind.startswith("whole") and array not in regions_seen:
            continue
        regions_seen.add(array)
        top = 31 if array == 0 else 7
        r0, r1 = sorted((min(x, top), min(y, top)))
        out.append((direction, kind, r0, r1, min(c, d), max(c, d)))
    return out


def _run(ops, arrays) -> list:
    _READ.clear()
    return [_TASKS[direction, kind](arrays[_VIEWS[kind][0]], r0, r1, c0, c1,
                                    i % 7 + 1, i)
            for i, (direction, kind, r0, r1, c0, c1) in enumerate(ops)]


def _fresh() -> list:
    return [np.arange(32, dtype=np.float64),
            np.arange(64, dtype=np.float64).reshape(8, 8)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_op, min_size=2, max_size=24))
def test_region_programs_are_ordered_and_equal_the_sequential_run(ops):
    """Every pair of accesses that share an element, one of them
    writing, is ordered by a path of the recorded graph; and the
    threaded runtime at 1 and 2 workers computes the sequential run
    bitwise (arrays and every value an input task read)."""

    import networkx as nx

    ops = _normalised(ops)
    with RecordingRuntime(execute="skip") as recorder:
        tasks = [task.task_id for task in _run(ops, _fresh())]
    program = recorder.finish()
    closure = nx.transitive_closure_dag(program.graph.to_networkx())
    masks = []
    for direction, kind, r0, r1, c0, c1 in ops:
        array, _, view = _VIEWS[kind]
        mask = np.zeros((32,) if array == 0 else (8, 8), bool)
        view(mask, r0, r1, c0, c1)[...] = True
        masks.append((array, mask, direction != "input"))
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            (array_a, mask_a, writes_a), (array_b, mask_b, writes_b) = \
                masks[a], masks[b]
            if array_a == array_b and (writes_a or writes_b) \
                    and (mask_a & mask_b).any():
                assert closure.has_edge(tasks[a], tasks[b]), (ops[a], ops[b])

    sequential = _fresh()
    _run(ops, sequential)
    read = dict(_READ)
    for workers in (1, 2):
        arrays = _fresh()
        with SmpssRuntime(num_workers=workers) as rt:
            _run(ops, arrays)
            rt.barrier()
        assert all(np.array_equal(x, y) for x, y in zip(arrays, sequential))
        assert _READ == read
