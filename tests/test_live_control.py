"""repro.live control plane: DispatchGate, scheduler gating, session."""

import threading
import time

import numpy as np
import pytest

from repro import css_task
from repro.core.config import RuntimeConfig, resolve_config
from repro.core.runtime import SmpssRuntime
from repro.core.scheduler import (
    CentralQueueScheduler,
    DispatchGate,
    SmpssScheduler,
)
from repro.core.task import TaskDefinition, TaskInstance

pytestmark = pytest.mark.live


def task(name="t", hp=False):
    defn = TaskDefinition(func=lambda: None, params=(), name=name)
    return TaskInstance(definition=defn, accesses=[], arguments={},
                        high_priority=hp)


class TestDispatchGate:
    def test_open_gate_admits(self):
        gate = DispatchGate()
        assert gate.admit()
        assert gate.state()["paused"] is False

    def test_pause_blocks_admission(self):
        gate = DispatchGate()
        gate.pause()
        assert not gate.admit()
        assert not gate.admit()

    def test_step_grants_exact_ticket_count(self):
        gate = DispatchGate()
        gate.step(2)
        assert gate.paused  # step implies pause
        assert gate.admit()
        assert gate.admit()
        assert not gate.admit()

    def test_resume_clears_pause_and_budget(self):
        gate = DispatchGate()
        gate.step(5)
        gate.resume()
        assert not gate.paused
        assert gate.step_budget == 0
        assert gate.admit()

    def test_step_rejects_nonpositive(self):
        gate = DispatchGate()
        with pytest.raises(ValueError):
            gate.step(0)

    def test_break_requires_name_or_id(self):
        gate = DispatchGate()
        with pytest.raises(ValueError):
            gate.add_break()

    def test_breakpoint_by_name_holds_once(self):
        gate = DispatchGate()
        gate.add_break(name="spotrf_t")
        t = task("spotrf_t")
        assert gate.should_hold(t)
        assert gate.paused
        assert gate.holds == 1
        # The very same instance passes on its next dispatch, so
        # step/resume run *through* the breakpoint.
        assert not gate.should_hold(t)
        # ...but only once: the skip is consumed.
        assert gate.should_hold(t)

    def test_breakpoint_by_id(self):
        gate = DispatchGate()
        t = task("anything")
        gate.add_break(task_id=t.task_id)
        assert gate.should_hold(t)
        other = task("anything")
        assert not gate.should_hold(other)

    def test_non_matching_task_passes(self):
        gate = DispatchGate()
        gate.add_break(name="spotrf_t")
        assert not gate.should_hold(task("sgemm_t"))
        assert not gate.paused

    def test_clear_breaks_also_drops_skip_set(self):
        gate = DispatchGate()
        gate.add_break(name="w")
        t = task("w")
        assert gate.should_hold(t)  # t now in the skip set
        gate.clear_breaks()
        gate.add_break(name="w")
        # A fresh breakpoint re-holds the instance: no stale skip.
        assert gate.should_hold(t)

    def test_on_hold_callback_sees_the_task(self):
        gate = DispatchGate()
        seen = []
        gate.on_hold = seen.append
        gate.add_break(name="w")
        t = task("w")
        gate.should_hold(t)
        assert seen == [t]

    def test_state_is_plain_data(self):
        gate = DispatchGate()
        gate.step(3)
        gate.add_break(name="b", task_id=9)
        state = gate.state()
        assert state == {
            "paused": True,
            "step_budget": 3,
            "break_names": ["b"],
            "break_ids": [9],
            "holds": 0,
        }


class TestSchedulerGating:
    @pytest.mark.parametrize("factory", [
        lambda: SmpssScheduler(num_threads=2),
        lambda: CentralQueueScheduler(num_threads=2),
    ])
    def test_paused_pop_returns_none(self, factory):
        s = factory()
        s.gate = DispatchGate()
        s.push_new(task())
        s.gate.pause()
        assert s.pop(0) is None
        assert s.pop(1) is None
        assert s.ready_count == 1  # nothing consumed

    @pytest.mark.parametrize("factory", [
        lambda: SmpssScheduler(num_threads=2),
        lambda: CentralQueueScheduler(num_threads=2),
    ])
    def test_step_releases_one_task(self, factory):
        s = factory()
        s.gate = DispatchGate()
        a, b = task("a"), task("b")
        s.push_new(a)
        s.push_new(b)
        s.gate.pause()
        s.gate.step(1)
        assert s.pop(0) is a
        assert s.pop(0) is None  # budget spent
        s.gate.resume()
        assert s.pop(0) is b

    @pytest.mark.parametrize("factory", [
        lambda: SmpssScheduler(num_threads=2),
        lambda: CentralQueueScheduler(num_threads=2),
    ])
    def test_held_task_requeued_at_head(self, factory):
        s = factory()
        s.gate = DispatchGate()
        s.gate.add_break(name="hot")
        hot, cold = task("hot"), task("cold")
        s.push_new(hot)
        s.push_new(cold)
        assert s.pop(0) is None  # hot held at the boundary
        assert s.gate.paused
        assert s.ready_count == 2
        s.gate.step(1)
        # The held instance comes back first (head of the high list)
        # and its skip entry lets it through this time.
        assert s.pop(0) is hot

    @pytest.mark.parametrize("factory", [
        lambda: SmpssScheduler(num_threads=2),
        lambda: CentralQueueScheduler(num_threads=2),
    ])
    def test_install_occupies_slot_only_while_engaged(self, factory):
        s = factory()
        gate = DispatchGate()
        gate.install(s)
        assert s.gate is None  # wide open: dispatch pays nothing
        gate.pause()
        assert s.gate is gate
        s.push_new(task())
        assert s.pop(0) is None
        gate.resume()
        assert s.gate is None
        assert s.pop(0) is not None
        gate.add_break(name="t")
        assert s.gate is gate
        gate.clear_breaks()
        assert s.gate is None

    def test_queue_depths_shape(self):
        s = SmpssScheduler(num_threads=2)
        s.push_new(task(hp=True))
        s.push_new(task())
        depths = s.queue_depths()
        assert depths == {"high": 1, "main": 1, "locals": [0, 0]}
        c = CentralQueueScheduler(num_threads=2)
        assert c.queue_depths()["locals"] == []


class TestConfigKnobs:
    def test_address_alone_leaves_live_off(self):
        resolved = resolve_config(RuntimeConfig(address="tcp:127.0.0.1:0"))
        assert not resolved.live and not resolved.health

    def test_start_paused_implies_live(self):
        resolved = resolve_config(RuntimeConfig(live_start_paused=True))
        assert resolved.live

    def test_live_implies_trace(self):
        resolved = resolve_config(RuntimeConfig(live=True))
        assert resolved.trace

    def test_defaults_stay_dark(self):
        resolved = resolve_config(RuntimeConfig())
        assert not resolved.live
        assert resolved.address is None
        assert not resolved.live_start_paused


@css_task("inout(x)")
def _bump(x):
    x += 1


class TestRuntimeIntegration:
    def test_gauges_published_without_live(self):
        arr = np.zeros(1)
        with SmpssRuntime(num_workers=2) as rt:
            for _ in range(4):
                _bump(arr)
            rt.barrier()
        snap = rt.metrics.snapshot()
        assert "scheduler.high_depth" in snap
        assert "scheduler.main_depth" in snap
        assert "scheduler.parked_workers" in snap
        assert snap["scheduler.paused"] == 0
        assert snap["scheduler.step_budget"] == 0
        # One ready-depth gauge per thread (main + 2 workers).
        assert "thread=0" in snap["scheduler.ready_depth"]

    def test_live_session_handle_exposed(self):
        arr = np.zeros(1)
        with SmpssRuntime(num_workers=1, live=True) as rt:
            assert rt.live is not None
            # A disengaged gate vacates the scheduler slot (zero-cost
            # dispatch); engaging any control installs it.
            assert rt.scheduler.gate is None
            rt.live.pause()
            assert rt.scheduler.gate is rt.live.gate
            rt.live.resume()
            assert rt.scheduler.gate is None
            address = rt.address
            assert address  # bound somewhere usable
            _bump(arr)
            rt.barrier()
        assert rt.live is None  # torn down on shutdown
        assert arr[0] == 1

    def test_pause_blocks_and_resume_completes(self):
        arr = np.zeros(8)

        @css_task("inout(x)")
        def slow_bump(x):
            x += 1

        with SmpssRuntime(num_workers=2, live=True,
                          live_start_paused=True) as rt:
            for _ in range(6):
                slow_bump(arr)
            # The gate is down: give would-be dispatchers a beat and
            # check nothing ran.
            time.sleep(0.15)
            assert rt.tasks_executed == 0
            state = rt.live.state()
            assert state["paused"]
            rt.live.resume()
            rt.barrier()
            assert rt.tasks_executed == 6
        assert arr[0] == 6

    def test_step_runs_exactly_n_tasks(self):
        arr = np.zeros(1)
        with SmpssRuntime(num_workers=1, live=True,
                          live_start_paused=True) as rt:
            for _ in range(5):
                _bump(arr)
            rt.live.step(2)
            deadline = time.monotonic() + 5.0
            while rt.tasks_executed < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # would expose a runaway third dispatch
            assert rt.tasks_executed == 2
            rt.live.resume()
            rt.barrier()
        assert arr[0] == 5

    def test_shutdown_releases_a_paused_gate(self):
        # A paused runtime with queued work must not hang shutdown —
        # the exit barrier auto-releases the gate.
        arr = np.zeros(1)
        done = threading.Event()

        def drive():
            with SmpssRuntime(num_workers=1, live=True) as rt:
                _bump(arr)
                rt.live.pause()
                rt.live.add_break(name="_bump")
            done.set()

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        assert done.wait(timeout=20.0), "shutdown hung on a paused gate"
        thread.join(timeout=5.0)
        assert arr[0] == 1

    def test_breakpoint_holds_then_steps_through(self):
        arr = np.zeros(1)
        with SmpssRuntime(num_workers=1, live=True) as rt:
            rt.live.add_break(name="_bump")
            _bump(arr)
            deadline = time.monotonic() + 5.0
            while rt.live.gate.holds == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert rt.live.gate.holds == 1
            assert rt.tasks_executed == 0
            rt.live.clear_breaks()
            rt.live.resume()
            rt.barrier()
        assert arr[0] == 1
