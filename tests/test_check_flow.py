"""Tests for the repro.check whole-program layer (``repro.check.flow``).

Three angles:

* the ``misflowed.py`` fixture seeds exactly one bug per ``flow-*``
  rule next to clean controls — every bug must be reported exactly
  once and the controls not at all;
* the acceptance loop: the static skeleton extracted from the Figure 5
  Cholesky example must match the task graph the recording runtime
  builds for the same driver, task for task and edge for edge;
* the shipped corpus (``src/repro/apps``, ``examples/``) stays
  flow-clean, so CI can fail on any new finding.
"""

from __future__ import annotations

import json

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import record_program
from repro.check import (
    ERROR,
    RULES,
    WARNING,
    SuppressionIndex,
    flow_file,
    flow_paths,
    flow_source,
)
from repro.check.cli import main as check_main
from repro.check.effects import SymRegion
from repro.check.intervals import Interval
from repro.core.dependencies import DependencyError
from repro.core.recorder import RecordedProgram

pytestmark = pytest.mark.flow

REPO = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "misflowed.py"

FLOW_RULES = sorted(r for r in RULES if r.startswith("flow-"))

PRELUDE = (
    "import numpy as np\n"
    "from repro import SmpssRuntime\n"
    "from repro.core.api import barrier, css_task, wait_on\n"
)


def flow_snippet(body: str, **kwargs):
    return flow_source(PRELUDE + body, "<snippet>", **kwargs)


def rules_of(findings):
    return [f.rule for f in findings]


def edges_of(program):
    return {(pred, succ): kind for pred, succ, kind in program.graph.edges()}


@pytest.fixture(scope="module")
def fixture_result():
    return flow_file(FIXTURE)


# ---------------------------------------------------------------------------
# the misflowed fixture: one finding per rule, nothing else
# ---------------------------------------------------------------------------


class TestFixture:
    def test_every_rule_exactly_once(self, fixture_result):
        counts: dict[str, int] = {}
        for f in fixture_result.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        assert counts == {rule: 1 for rule in FLOW_RULES}

    def test_severities(self, fixture_result):
        severities = {f.rule: f.severity for f in fixture_result.findings}
        assert severities == {
            "flow-overlapping-writes": ERROR,
            "flow-opaque-race": ERROR,
            "flow-missing-barrier": ERROR,
            "flow-dead-barrier": WARNING,
            "flow-serialization": WARNING,
            "flow-renaming-pressure": WARNING,
        }

    def test_findings_carry_locations(self, fixture_result):
        for f in fixture_result.findings:
            assert f.file.endswith("misflowed.py")
            assert f.line > 0

    def test_skeleton_extracted(self, fixture_result):
        program = fixture_result.program
        assert isinstance(program, RecordedProgram)
        assert program.task_count > 0
        assert not program.truncated
        # renaming_pressure_bug alone forces nine renames of `a`.
        assert program.graph.stats.renames >= 9


# ---------------------------------------------------------------------------
# rule behaviour on minimal drivers
# ---------------------------------------------------------------------------


TASK_AND_SUBMIT = (
    "@css_task('output(a)')\n"
    "def t(a):\n"
    "    a[:] = 1\n"
    "with SmpssRuntime() as rt:\n"
    "    a = np.zeros(4)\n"
    "    t(a)\n"
)


class TestRules:
    def test_missing_barrier_on_driver_read(self):
        result = flow_snippet(TASK_AND_SUBMIT + "    x = a[0]\n")
        assert rules_of(result.findings) == ["flow-missing-barrier"]

    def test_barrier_resolves_driver_read(self):
        result = flow_snippet(
            TASK_AND_SUBMIT + "    barrier()\n    x = a[0]\n"
        )
        assert result.findings == []

    def test_wait_on_resolves_driver_read(self):
        result = flow_snippet(
            TASK_AND_SUBMIT + "    wait_on(a)\n    x = a[0]\n"
        )
        assert result.findings == []

    def test_runtime_exit_is_implicit_sync(self):
        # Reading after the `with` block needs no explicit barrier.
        result = flow_snippet(TASK_AND_SUBMIT + "x = a[0]\n")
        assert result.findings == []

    def test_conditional_submission_never_errors(self):
        # Zero-false-positive policy: a submission under an opaque
        # branch may not happen, so the driver read is not *provably*
        # racy and must not produce an error finding.
        result = flow_snippet(
            "@css_task('output(a)')\n"
            "def t(a):\n"
            "    a[:] = 1\n"
            "import os\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(4)\n"
            "    if os.environ.get('X'):\n"
            "        t(a)\n"
            "    x = a[0]\n"
        )
        assert result.findings == []

    def test_dead_barrier_back_to_back(self):
        result = flow_snippet(
            TASK_AND_SUBMIT + "    barrier()\n    barrier()\n"
        )
        assert rules_of(result.findings) == ["flow-dead-barrier"]

    def test_conditional_barrier_not_dead(self):
        # A barrier reached only on an opaque branch resets nothing
        # provably, so a later unconditional barrier stays unflagged.
        result = flow_snippet(
            "@css_task('output(a)')\n"
            "def t(a):\n"
            "    a[:] = 1\n"
            "import os\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(4)\n"
            "    t(a)\n"
            "    if os.environ.get('X'):\n"
            "        barrier()\n"
            "    barrier()\n"
        )
        assert result.findings == []

    def test_partial_overlap_writes_error(self):
        result = flow_snippet(
            "@css_task('inout(d{i..j}) input(i, j)')\n"
            "def fill(d, i, j):\n"
            "    d[i : j + 1] = i\n"
            "with SmpssRuntime() as rt:\n"
            "    d = np.zeros(32)\n"
            "    fill(d, 0, 15)\n"
            "    fill(d, 8, 24)\n"
            "    barrier()\n"
        )
        assert rules_of(result.findings) == ["flow-overlapping-writes"]

    def test_contained_region_writes_are_fine(self):
        # Containment is renaming/chain territory, not a hazard.
        result = flow_snippet(
            "@css_task('inout(d{i..j}) input(i, j)')\n"
            "def fill(d, i, j):\n"
            "    d[i : j + 1] = i\n"
            "with SmpssRuntime() as rt:\n"
            "    d = np.zeros(32)\n"
            "    fill(d, 0, 15)\n"
            "    fill(d, 4, 11)\n"
            "    barrier()\n"
        )
        assert result.findings == []

    def test_barrier_then_region_access_is_clean(self):
        # The barrier wrote the renamed `b` back and forgot its chain,
        # exactly as the runtime's does: `bump` meets an initial version.
        result = flow_snippet(
            "@css_task('input(a) output(b)')\n"
            "def copy(a, b):\n"
            "    b[:] = a\n"
            "@css_task('inout(b{0..3})')\n"
            "def bump(b):\n"
            "    b[0:4] += 1\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(8)\n"
            "    b = np.zeros(8)\n"
            "    copy(a, b)\n"
            "    copy(b, a)\n"
            "    copy(a, b)\n"
            "    barrier()\n"
            "    bump(b)\n"
        )
        assert result.findings == []
        program = result.program
        assert program.task_count == 4 and program.graph.stats.renames == 2
        assert edges_of(program) == {(1, 2): "true", (2, 3): "true"}

    def test_region_after_rename_without_barrier_is_the_runtimes_error(self):
        result = flow_snippet(
            "@css_task('input(a) output(b)')\n"
            "def copy(a, b):\n"
            "    b[:] = a\n"
            "@css_task('inout(b{0..3})')\n"
            "def bump(b):\n"
            "    b[0:4] += 1\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(8)\n"
            "    b = np.zeros(8)\n"
            "    copy(a, b)\n"
            "    copy(b, a)\n"
            "    copy(a, b)\n"
            "    bump(b)\n"
        )
        (finding,) = result.findings
        assert finding.rule == "flow-overlapping-writes"
        assert "'b'" in finding.message
        assert "DependencyError" in finding.message

    def test_no_edge_or_hazard_through_a_pre_barrier_chain(self):
        result = flow_snippet(
            "@css_task('output(q{1..6})')\n"
            "def wide(q):\n"
            "    pass\n"
            "@css_task('output(q{3..3})')\n"
            "def point(q):\n"
            "    pass\n"
            "@css_task('input(q{6..6})')\n"
            "def read(q):\n"
            "    pass\n"
            "@css_task('inout(q{4..7})')\n"
            "def straddle(q):\n"
            "    pass\n"
            "with SmpssRuntime() as rt:\n"
            "    q = np.zeros(8)\n"
            "    wide(q)\n"
            "    barrier()\n"
            "    point(q)\n"
            "    read(q)\n"
            "    barrier()\n"
            "    straddle(q)\n"     # partially overlaps the retired {1..6}
        )
        assert result.findings == []
        assert edges_of(result.program) == {}

    @pytest.mark.parametrize("method", ["clip(0, 1)", "argsort()"])
    def test_pure_method_on_a_read_pending_array_is_clean(self, method):
        # One table of non-mutating methods, astlint's: reading beside
        # a reader is no hazard.
        result = flow_snippet(
            "@css_task('input(a)')\n"
            "def rd(a):\n"
            "    a.sum()\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(8)\n"
            "    rd(a)\n"
            f"    lo = a.{method}\n"
        )
        assert result.findings == []

    def test_skeleton_matches_recording_semantics(self):
        # produce -> consume -> produce: TRUE edge then a rename
        # (the second produce lands under a pending reader).
        result = flow_snippet(
            "@css_task('output(a)')\n"
            "def p(a):\n"
            "    a[:] = 1\n"
            "@css_task('input(a)')\n"
            "def c(a):\n"
            "    a.sum()\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(4)\n"
            "    p(a)\n"
            "    c(a)\n"
            "    p(a)\n"
            "    barrier()\n"
        )
        doc = result.program.to_json_dict()
        assert [row[1] for row in doc["tasks"]] == ["p", "c", "p"]
        assert doc["edges"] == [[1, 2, "true"]]  # rename kills WAR/WAW
        assert doc["renames"] == 1

    @pytest.mark.parametrize("max_unroll, tiles, summarized", [
        (128, 8, False),    # unrolled: eight concrete tile regions
        (4, 1, True),       # folded: k is the interval [0, 7]
    ])
    def test_region_bound_over_a_summarized_loop_variable(
            self, max_unroll, tiles, summarized):
        """A loop past the unroll budget binds its variable to an
        interval and the tile bound ``k/2*8+k%2*4`` is evaluated over
        it ([0, 28]..[3, 31]): the reader of {28..31} may overlap and
        gets its edge, the reader of {32..35} is provably disjoint."""

        from repro.check.flow import FlowOptions

        result = flow_snippet(
            "@css_task('inout(a{k/2*8+k%2*4..k/2*8+k%2*4+3}) input(k)')\n"
            "def tile(a, k):\n"
            "    pass\n"
            "@css_task('input(a{32..35})')\n"
            "def read_beyond(a):\n"
            "    pass\n"
            "@css_task('input(a{28..31})')\n"
            "def read_last(a):\n"
            "    pass\n"
            "with SmpssRuntime() as rt:\n"
            "    a = np.zeros(64)\n"
            "    for k in range(8):\n"
            "        tile(a, k)\n"
            "    read_beyond(a)\n"
            "    read_last(a)\n",
            options=FlowOptions(max_unroll=max_unroll),
        )
        program = result.program
        assert result.findings == []
        assert program.truncated is summarized
        assert [t.summarized for t in program.tasks] == \
            [summarized] * tiles + [False, False]
        # Only the last tile feeds read_last; nothing feeds read_beyond.
        assert edges_of(program) == {(tiles, tiles + 2): "true"}


# ---------------------------------------------------------------------------
# the skeleton is the runtime's own analysis: generated drivers
# ---------------------------------------------------------------------------

#: ``w``/``x`` are only ever passed whole, ``r`` only by region, ``m``
#: both ways — the one that can meet a region after a rename.
_REGION_ARRAYS = {"w": False, "x": False, "m": None, "r": True}


@st.composite
def _clauses(draw, direction=st.sampled_from(["input", "output", "inout"])):
    array = draw(st.sampled_from(sorted(_REGION_ARRAYS)))
    by_region = _REGION_ARRAYS[array]
    if by_region is None:
        by_region = draw(st.booleans())
    lo, hi = sorted(draw(st.tuples(st.integers(0, 7), st.integers(0, 7))))
    spec = "%s{%d..%d}" % (array, lo, hi) if by_region else array
    return array, "%s(%s)" % (draw(direction), spec)


_copies = st.tuples(_clauses(st.just("input")), _clauses(st.just("output"))) \
    .filter(lambda pair: pair[0][0] != pair[1][0])
#: A submission is one clause or an input->output copy (listed twice:
#: copies are what renames); ``None`` is a barrier and an array name a
#: ``wait_on`` of that array.
_drivers = st.lists(
    st.one_of(st.none(), _clauses().map(lambda c: (c,)), _copies, _copies,
              st.sampled_from(sorted(_REGION_ARRAYS))),
    max_size=14,
)


def _driver_source(ops) -> str:
    tasks, calls = [], []
    for op in ops:
        if op is None:
            calls.append("    barrier()")
            continue
        if isinstance(op, str):
            calls.append(f"    wait_on({op})")
            continue
        params = ", ".join(array for array, _clause in op)
        pragma = " ".join(clause for _array, clause in op)
        name = f"t{len(tasks) + 1}"
        tasks.append(f"@css_task('{pragma}')\ndef {name}({params}):\n    pass")
        calls.append(f"    {name}({params})")
    return "\n".join([
        "import numpy as np",
        "from repro import record_program",
        "from repro.core.api import barrier, css_task, wait_on",
        *(f"{array} = np.zeros(8)" for array in sorted(_REGION_ARRAYS)),
        *tasks,
        "def driver():",
        *calls, "    pass",
        "recorded = record_program(driver, execute='eager')",
        "",
    ])


def check_skeleton_is_the_recording(ops) -> bool:
    """flow and the eager recorder agree on *ops*: both refuse it (the
    recorder raises, flow reports that raise) or both write the same
    ``repro.recording`` document — tasks, edges with kinds, stream of
    task, wait and barrier events, rename count and truncation — and so
    does a skip-mode recording.  True when both ran."""

    source = _driver_source(ops)
    result = flow_source(source, "<generated>")
    refused = any("DependencyError" in f.message for f in result.findings)
    namespace: dict = {}
    try:
        exec(compile(source, "<generated>", "exec"), namespace)
    except DependencyError:
        assert refused, source
        return False
    assert not refused, source
    static = result.program.to_json_dict()
    skipped = record_program(namespace["driver"], execute="skip")
    for program in (namespace["recorded"], skipped):
        assert static == program.to_json_dict(), source
    return True


class TestSkeletonIsTheRecording:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(ops=_drivers)
    def test_generated_drivers(self, ops):
        check_skeleton_is_the_recording(ops)


_bounds = st.tuples(
    st.integers(0, 12), st.integers(0, 6), st.integers(0, 6),
    st.one_of(st.none(), st.integers(0, 6)),
).map(lambda v: (
    Interval(v[0], v[0] + v[1]),
    Interval(v[0] + v[2], None if v[3] is None else v[0] + v[1] + v[2] + v[3]),
))
_boxes = st.integers(1, 2).flatmap(lambda ndim: st.tuples(*(
    st.lists(_bounds, min_size=ndim, max_size=ndim).map(
        lambda dims: SymRegion(tuple(dims)))
    for _side in range(2))))


class TestRegionHull:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(boxes=_boxes)
    def test_hulls_are_disjoint_iff_the_boxes_provably_were(self, boxes):
        a, b = boxes
        provably_disjoint = any(
            ahi.must_precede(blo) or bhi.must_precede(alo)
            for (alo, ahi), (blo, bhi) in zip(a.dims, b.dims))
        assert a.hull().overlaps(b.hull()) is not provably_disjoint

    def test_a_box_of_constants_is_its_own_hull(self):
        full = (Interval.const(0), Interval(None, None))
        box = SymRegion(((Interval.const(2), Interval.const(5)), full))
        assert box.hull() == box.to_region()
        assert str(box.hull()) == "{2..5}{}"


# ---------------------------------------------------------------------------
# suppressions (shared resolver)
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_line_suppression(self):
        result = flow_snippet(
            TASK_AND_SUBMIT
            + "    x = a[0]  # css: ignore[flow-missing-barrier]\n"
        )
        assert result.findings == []

    def test_wrong_rule_does_not_suppress(self):
        result = flow_snippet(
            TASK_AND_SUBMIT
            + "    x = a[0]  # css: ignore[flow-dead-barrier]\n"
        )
        assert rules_of(result.findings) == ["flow-missing-barrier"]

    def test_file_header_suppression(self):
        result = flow_source(
            "# css: ignore[flow-missing-barrier]\n" + PRELUDE
            + TASK_AND_SUBMIT + "    x = a[0]\n",
            "<snippet>",
        )
        assert result.findings == []

    def test_index_file_scope_from_docstring(self):
        index = SuppressionIndex.from_source(
            '"""Module doc.\n\n# css: ignore[flow-serialization]\n"""\n'
            "x = 1\n"
        )
        assert index.is_suppressed("flow-serialization", 99)
        assert not index.is_suppressed("flow-dead-barrier", 99)

    def test_index_scope_lines(self):
        index = SuppressionIndex.from_source(
            "x = 1\n"
            "y = 2  # css: ignore[flow-dead-barrier]\n"
        )
        assert index.is_suppressed("flow-dead-barrier", 5, scope_lines=(2,))
        assert not index.is_suppressed("flow-dead-barrier", 5)

    def test_index_bare_ignore(self):
        index = SuppressionIndex.from_source("x = 1  # css: ignore\n")
        assert index.is_suppressed("flow-missing-barrier", 1)
        assert index.rules_for_line(1) == frozenset({"*"})


# ---------------------------------------------------------------------------
# acceptance: static skeleton == recorded graph (Figure 5 Cholesky)
# ---------------------------------------------------------------------------


class TestCholeskyAcceptance:
    def test_static_skeleton_matches_recording(self):
        from repro import record_program
        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix

        result = flow_file(
            REPO / "examples" / "cholesky_factorization.py",
            entry="figure5_demo",
        )
        assert result.findings == []
        static = result.program.to_json_dict()

        hm = HyperMatrix(6, 1, np.float32)
        for i in range(6):
            for j in range(6):
                hm[i, j] = np.zeros((1, 1), np.float32)
        prog = record_program(cholesky_hyper, hm, execute="skip")
        recorded = prog.to_json_dict()

        assert static["tasks"] == recorded["tasks"]
        static_edges = {(p, s): k for p, s, k in static["edges"]}
        recorded_edges = {(p, s): k for p, s, k in recorded["edges"]}
        assert static_edges == recorded_edges
        assert static["renames"] == 0


# ---------------------------------------------------------------------------
# the shipped corpus stays clean
# ---------------------------------------------------------------------------


class TestCorpusClean:
    def test_apps_and_examples_flow_clean(self):
        findings = flow_paths(
            [REPO / "src" / "repro" / "apps", REPO / "examples"]
        )
        assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_text_reports_and_exits_1(self, capsys):
        assert check_main(["flow", str(FIXTURE)]) == 1
        captured = capsys.readouterr()
        for rule in FLOW_RULES:
            assert rule in captured.out
        assert "static skeleton:" in captured.err

    def test_json_single_file_includes_graph(self, capsys):
        assert check_main(["flow", str(FIXTURE), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert sorted({f["rule"] for f in doc["findings"]}) == FLOW_RULES
        graph = doc["graph"]
        assert graph["format"] == "repro.recording"
        assert graph["tasks"] and graph["stream"]
        assert graph["source"] == str(FIXTURE) and graph["entry"] is None
        assert [d["id"] for d in graph["details"]] == \
            [row[0] for row in graph["tasks"]]

    def test_dot_output(self, capsys):
        assert check_main(["flow", str(FIXTURE), "--format", "dot"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("digraph")
        assert "// " in captured.err  # findings ride along as comments

    def test_select_filters(self, capsys):
        assert check_main(
            ["flow", str(FIXTURE), "--select", "flow-dead-barrier"]
        ) == 1
        out = capsys.readouterr().out
        assert "flow-dead-barrier" in out
        assert "flow-missing-barrier" not in out

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit):
            check_main(["flow", str(FIXTURE), "--select", "no-such-rule"])

    def test_entry_requires_single_file(self):
        with pytest.raises(SystemExit):
            check_main(["flow", str(FIXTURE), str(FIXTURE),
                        "--entry", "main"])

    def test_rules_catalogue_lists_flow_rules(self, capsys):
        assert check_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule in FLOW_RULES:
            assert rule in out
