"""Tests for the css_task decorator and runtime stack."""

import numpy as np
import pytest

from repro import InvocationError, SmpssRuntime, css_task
from repro.core import api
from repro.core.invocation import instantiate
from repro.core.regions import Region
from repro.core.task import Direction


class TestDecorator:
    def test_attaches_definition(self):
        @css_task("input(a) output(b)")
        def f(a, b):  # noqa: ARG001
            pass

        assert f.definition.name == "f"
        assert [p.direction for p in f.definition.params] == [
            Direction.INPUT, Direction.OUTPUT,
        ]

    def test_sequential_attribute(self):
        calls = []

        @css_task("input(a)")
        def f(a):
            calls.append(a)

        f.sequential(1)
        assert calls == [1]

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError, match="not in the function signature"):
            @css_task("input(zzz)")
            def f(a):  # noqa: ARG001
                pass

    def test_varargs_rejected(self):
        with pytest.raises(TypeError, match="not\\s+supported"):
            @css_task("input(a)")
            def f(a, *rest):  # noqa: ARG001
                pass

    def test_kwonly_rejected(self):
        with pytest.raises(TypeError):
            @css_task("input(a)")
            def f(a, *, opt=1):  # noqa: ARG001
                pass

    def test_highpriority_marks_definition(self):
        @css_task("inout(a) highpriority")
        def f(a):  # noqa: ARG001
            pass

        assert f.definition.high_priority

    def test_defaults_applied(self):
        @css_task("input(a, n)")
        def f(a, n=3):  # noqa: ARG001
            pass

        inst = instantiate(f.definition, (np.zeros(2),), {})
        assert inst.arguments["n"] == 3

    def test_keyword_call_binding(self):
        @css_task("input(a, b)")
        def f(a, b):  # noqa: ARG001
            pass

        inst = instantiate(f.definition, (), {"b": 2, "a": 1})
        assert inst.arguments == {"a": 1, "b": 2}

    def test_bad_arity(self):
        @css_task("input(a)")
        def f(a):  # noqa: ARG001
            pass

        with pytest.raises(InvocationError):
            instantiate(f.definition, (1, 2, 3), {})


class TestConstants:
    def test_constants_resolve_dimensions(self):
        @css_task("input(a[N][N])", constants={"N": 4})
        def f(a):  # noqa: ARG001
            pass

        inst = instantiate(f.definition, (np.zeros((4, 4)),), {})
        assert inst.accesses[0].region is None  # dims only, no region

    def test_constants_resolve_region_bounds(self):
        @css_task("input(a{0..N-1})", constants={"N": 4})
        def f(a):  # noqa: ARG001
            pass

        inst = instantiate(f.definition, (np.zeros(8),), {})
        assert inst.accesses[0].region == Region(((0, 3),))


class TestRegionsAtInvocation:
    @staticmethod
    def _task():
        @css_task("inout(data{i..j}) input(i, j)")
        def f(data, i, j):  # noqa: ARG001
            pass

        return f

    def test_region_resolved_from_args(self):
        f = self._task()
        inst = instantiate(f.definition, (np.zeros(10), 2, 5), {})
        assert inst.accesses[0].region == Region(((2, 5),))

    def test_region_exceeding_extent_rejected(self):
        f = self._task()
        with pytest.raises(InvocationError, match="exceeds"):
            instantiate(f.definition, (np.zeros(4), 0, 9), {})

    def test_inverted_region_rejected(self):
        f = self._task()
        with pytest.raises(InvocationError):
            instantiate(f.definition, (np.zeros(10), 5, 2), {})

    def test_computed_empty_interval_is_not_the_whole_dimension(self):
        # (0, -1) is the whole-dimension sentinel only when ``{}`` says so.
        @css_task("inout(data{lo:n}) input(lo, n)")
        def g(data, lo, n):  # noqa: ARG001
            pass

        cases = ((g, (0, 0), (0, -1)), (g, (3, 0), (3, 2)),
                 (self._task(), (0, -1), (0, -1)))
        for task, bounds, (lo, hi) in cases:
            with pytest.raises(InvocationError, match=(
                    rf"invalid region for parameter 'data': empty interval "
                    rf"\({lo}, {hi}\) in region \(\({lo}, {hi}\),\)")):
                instantiate(task.definition, (np.zeros(10), *bounds), {})


class TestRuntimeStack:
    def test_nested_push_pop(self):
        assert api.current_runtime() is None
        with SmpssRuntime(num_workers=1) as outer:
            assert api.current_runtime() is outer
        assert api.current_runtime() is None

    def test_mismatched_pop_detected(self):
        with pytest.raises(RuntimeError, match="mismatched"):
            api.pop_runtime(object())

    def test_module_barrier_noop_without_runtime(self):
        api.barrier()  # must not raise
