"""Unit tests for the task model and the figure-result harness."""

import pytest

from repro.bench.harness import FigureResult, Series
from repro.core.pragma import parse_pragma
from repro.core.task import (
    Direction,
    InvocationError,
    TaskDefinition,
    TaskInstance,
    TaskState,
    reset_task_ids,
)


class TestDirections:
    def test_reads_writes_matrix(self):
        assert Direction.INPUT.reads and not Direction.INPUT.writes
        assert Direction.OUTPUT.writes and not Direction.OUTPUT.reads
        assert Direction.INOUT.reads and Direction.INOUT.writes
        assert not Direction.OPAQUE.reads and not Direction.OPAQUE.writes


class TestTaskDefinition:
    def _definition(self, pragma="input(a) inout(b)"):
        def f(a, b, n=7):  # noqa: ARG001
            pass

        return TaskDefinition(func=f, params=parse_pragma(pragma).params)

    def test_name_from_function(self):
        assert self._definition().name == "f"

    def test_param_names_cached(self):
        defn = self._definition()
        assert defn.param_names == ("a", "b", "n")
        assert defn.positions == {"a": 0, "b": 1, "n": 2}

    def test_fast_bind_positional(self):
        defn = self._definition()
        assert defn.bind_dict((1, 2, 3), {}) == {"a": 1, "b": 2, "n": 3}

    def test_slow_bind_with_defaults(self):
        defn = self._definition()
        assert defn.bind_dict((1, 2), {}) == {"a": 1, "b": 2, "n": 7}

    def test_slow_bind_keywords(self):
        defn = self._definition()
        assert defn.bind_dict((), {"b": 2, "a": 1}) == {"a": 1, "b": 2, "n": 7}

    def test_bind_error_names_task(self):
        defn = self._definition()
        with pytest.raises(InvocationError, match="'f'"):
            defn.bind_dict((), {"zzz": 1})

    def test_declared_direction(self):
        defn = self._definition()
        assert defn.directions_by_name["a"] == {Direction.INPUT}
        assert defn.directions_by_name["b"] == {Direction.INOUT}
        assert "n" not in defn.directions_by_name     # a by-value scalar

    def test_needs_expressions_flag(self):
        assert not self._definition().needs_expressions

        def g(a, i, j):  # noqa: ARG001
            pass

        with_regions = TaskDefinition(
            func=g, params=parse_pragma("inout(a{i..j}) input(i, j)").params
        )
        assert with_regions.needs_expressions


class TestTaskInstance:
    def test_id_sequence(self):
        reset_task_ids()
        defn = TaskDefinition(func=lambda: None, params=(), name="x")
        a = TaskInstance(definition=defn, accesses=[], arguments={})
        b = TaskInstance(definition=defn, accesses=[], arguments={})
        assert (a.task_id, b.task_id) == (1, 2)

    def test_initial_state(self):
        defn = TaskDefinition(func=lambda: None, params=(), name="x")
        t = TaskInstance(definition=defn, accesses=[], arguments={})
        assert t.state is TaskState.BLOCKED
        assert t.is_ready  # no deps and still blocked

    def test_identity_semantics(self):
        defn = TaskDefinition(func=lambda: None, params=(), name="x")
        a = TaskInstance(definition=defn, accesses=[], arguments={})
        b = TaskInstance(definition=defn, accesses=[], arguments={})
        assert a == a and a != b
        assert len({a, b}) == 2


class TestFigureResult:
    def _figure(self):
        fig = FigureResult(
            "Figure T", "test", "threads", "Gflops", [1, 2, 4]
        )
        fig.add("A", [1.0, 2.0, 4.0])
        fig.add("B", [0.5, 1.0, 1.5])
        return fig

    def test_series_lookup(self):
        fig = self._figure()
        assert fig.get("A").values == [1.0, 2.0, 4.0]
        with pytest.raises(KeyError):
            fig.get("missing")

    def test_series_length_checked(self):
        fig = self._figure()
        with pytest.raises(ValueError):
            fig.add("C", [1.0])

    def test_table_contains_everything(self):
        fig = self._figure()
        fig.notes.append("a note")
        text = fig.table()
        assert "Figure T" in text
        assert "threads" in text and "A" in text and "B" in text
        assert "a note" in text
        assert "4.00" in text

    def test_ascii_chart(self):
        art = self._figure().ascii_chart(height=8, width=20)
        assert "*" in art and "o" in art
        assert "A" in art and "B" in art

    def test_empty_chart(self):
        fig = FigureResult("F", "t", "x", "y", [])
        assert "empty" in fig.ascii_chart()

    def test_series_at(self):
        fig = self._figure()
        series = fig.get("A")
        assert series.at(fig.x, 4) == 4.0
