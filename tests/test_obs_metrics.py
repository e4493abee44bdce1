"""Tests for repro.obs.metrics and its runtime integration."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import SmpssRuntime, css_task
from repro.obs import MetricsRegistry, default_metrics, reset_default_metrics
from repro.obs.metrics import CounterMetric, GaugeMetric, HistogramMetric

pytestmark = pytest.mark.obs


@css_task("inout(a)")
def bump(a):
    a += 1


class TestMetricPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        c = registry.counter("requests")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert registry.counter("requests") is c  # same object back

    def test_gauge(self):
        g = MetricsRegistry().gauge("depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8

    def test_histogram_stats_and_buckets(self):
        h = MetricsRegistry().histogram("lat")
        for v in (0.5, 1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 7.5
        assert h.min == 0.5 and h.max == 4.0
        assert h.mean == pytest.approx(1.875)
        snap = h.snapshot()
        # frexp exponents: 0.5->0, 1.0->1, 2.0->2, 4.0->3
        assert sum(snap["buckets"].values()) == 4

    def test_histogram_underflow_bucket(self):
        h = MetricsRegistry().histogram("delta")
        h.observe(0.0)
        h.observe(-1.0)
        assert h.snapshot()["buckets"] == {"underflow": 2}

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        a = registry.counter("tasks", type="gemm")
        b = registry.counter("tasks", type="trsm")
        assert a is not b
        a.inc(3)
        snap = registry.snapshot()
        assert snap["tasks"]["type=gemm"] == 3
        assert snap["tasks"]["type=trsm"] == 0

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g", thread=1).set(2.5)
        registry.histogram("h").observe(3.0)
        parsed = json.loads(registry.to_json())
        assert parsed["c"] == 1
        assert parsed["g"]["thread=1"] == 2.5
        assert parsed["h"]["count"] == 1


class TestAbsorb:
    def test_counters_add_gauges_overwrite_histograms_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.absorb(b)
        assert a.counter("n").value == 5
        assert a.gauge("g").value == 9
        h = a.histogram("h")
        assert h.count == 2 and h.sum == 4.0 and h.max == 3.0

    def test_runtime_publishes_to_default_registry(self):
        registry = reset_default_metrics()
        arr = np.zeros(1)
        with SmpssRuntime(num_workers=1) as rt:
            bump(arr)
            rt.barrier()
        assert default_metrics() is registry
        snap = registry.snapshot()
        assert snap["tasks_executed"] == 1
        assert snap["task_duration_seconds"]["task=bump"]["count"] == 1
        reset_default_metrics()


class TestRuntimeIntegration:
    def _run(self, tasks=8, **kwargs):
        arr = np.zeros(1)
        rt = SmpssRuntime(num_workers=2, **kwargs)
        with rt:
            for _ in range(tasks):
                bump(arr)
            rt.barrier()
        return rt

    def test_task_duration_histogram_counts_every_task(self):
        rt = self._run(tasks=10)
        hist = rt.metrics.histogram("task_duration_seconds", task="bump")
        assert hist.count == 10
        assert hist.sum > 0

    def test_analysis_and_barrier_overhead_recorded(self):
        rt = self._run(tasks=5)
        assert rt.metrics.histogram("analysis_seconds").count == 5
        # One explicit barrier + one implicit at shutdown.
        assert rt.metrics.histogram("barrier_wait_seconds").count == 2

    def test_untraced_run_has_no_dropped_events_gauge(self):
        """Regression: with tracing off the gauge once held a no-op
        tracer's function, and ``/metrics`` served a phantom series."""

        rt = self._run(tasks=4)
        assert "trace.dropped_events" not in rt.stats()["metrics"]
        assert "<function" not in rt.metrics.to_json()

    def test_ready_queue_depth_observed(self):
        rt = self._run(tasks=6)
        assert rt.metrics.histogram("ready_queue_depth").count == 6

    def test_scheduler_stats_exposed_through_registry(self):
        rt = self._run(tasks=6)
        snap = rt.stats()["metrics"]
        total_pops = (
            snap["scheduler.pops_high"]
            + snap["scheduler.pops_local"]
            + snap["scheduler.pops_main"]
        )
        assert total_pops == 6
        assert "scheduler.failed_steals" in snap
        # Per-thread breakdown present and consistent with the total.
        per_thread = snap.get("scheduler.pops_by_thread", {})
        assert sum(per_thread.values()) == 6

    def test_metrics_disabled_stays_quiet(self):
        rt = self._run(tasks=4, metrics=False)
        assert rt.metrics.histogram("task_duration_seconds", task="bump").count == 0
        assert rt.metrics.histogram("analysis_seconds").count == 0

    def test_renaming_footprint_gauges(self):
        src = np.zeros(4)
        outs = [np.zeros(4) for _ in range(3)]

        @css_task("input(a) output(b)")
        def snapshot(a, b):
            b[...] = a

        rt = SmpssRuntime(num_workers=2)
        with rt:
            for out in outs:
                snapshot(src, out)
                bump(src)
            rt.barrier()
        snap = rt.metrics.snapshot()
        assert snap["graph.renames"] >= 1
        assert "renaming.total_buffers" in snap


class TestSchedulerStatsSatellite:
    def test_failed_steals_and_per_thread_counters(self):
        from repro.core.scheduler import SmpssScheduler
        from repro.core.task import TaskDefinition, TaskInstance, reset_task_ids

        reset_task_ids()
        defn = TaskDefinition(func=lambda: None, params=(), name="t")
        s = SmpssScheduler(num_threads=4)
        # Pop on empty: fast path counts a failed pop AND failed steal.
        assert s.pop(2) is None
        assert s.stats.failed_pops == 1
        assert s.stats.failed_steals == 1
        assert s.stats.failed_pops_by_thread[2] == 1
        # Steal: task pushed to thread 1's list, popped by thread 3.
        task = TaskInstance(definition=defn, accesses=[], arguments={})
        s.push_unlocked(task, thread=1)
        assert s.pop(3) is task
        assert s.stats.steals == 1
        assert s.stats.steals_by_thief[3] == 1
        assert s.stats.steals_by_victim[1] == 1
        assert s.stats.pops_by_thread[3] == 1

    def test_as_dict_roundtrips_into_registry(self):
        from repro.core.scheduler import SmpssScheduler

        s = SmpssScheduler(num_threads=2)
        s.pop(0)
        registry = MetricsRegistry()
        registry.ingest_scheduler_stats(s.stats)
        snap = registry.snapshot()
        assert snap["scheduler.failed_pops"] == 1
        assert snap["scheduler.failed_pops_by_thread"]["thread=0"] == 1


class TestHistogramQuantile:
    def test_exact_before_folding(self):
        h = MetricsRegistry().histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.quantile(0.5) == 50.0
        assert h.quantile(0.95) == 95.0
        assert h.quantile(0.99) == 99.0
        assert h.quantile(0.0) == 1.0   # nearest-rank: rank clamps to 1
        assert h.quantile(1.0) == 100.0

    def test_empty_returns_none(self):
        h = MetricsRegistry().histogram("lat")
        assert h.quantile(0.5) is None

    def test_out_of_range_raises(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError, match="quantile q"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile q"):
            h.quantile(-0.1)

    def test_single_observation(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(3.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 3.25

    def test_after_folding_within_bucket_bound(self):
        h = MetricsRegistry().histogram("lat")
        n = HistogramMetric._FOLD_AT + 100  # force at least one fold
        for v in range(1, n + 1):
            h.observe(float(v))
        assert h._count > 0  # something actually folded
        true_p50 = n // 2
        estimate = h.quantile(0.5)
        # Folded buckets answer at their upper power-of-two bound:
        # conservative, but never more than 2x the true value.
        assert true_p50 <= estimate <= 2 * true_p50

    def test_quantile_does_not_fold(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        before = list(h._raw)
        h.quantile(0.95)
        assert list(h._raw) == before

    def test_underflow_bucket_counts_at_zero(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.0)
        h.observe(8.0)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 8.0


def test_metric_classes_exported():
    assert all(
        cls.__name__ in dir(__import__("repro.obs", fromlist=["obs"]))
        for cls in (CounterMetric, GaugeMetric, HistogramMetric)
    )


class _LoopFold(HistogramMetric):
    """The per-value fold the vectorised one replaced, kept as the
    reference (and a small buffer, so a stream folds several times)."""

    _FOLD_AT = 7

    def _fold(self):
        import math

        raw = self._raw
        if not raw:
            return
        self._raw = []
        self._count += len(raw)
        self._sum += sum(raw)
        self._min = min(self._min, min(raw))
        self._max = max(self._max, max(raw))
        for value in raw:
            key = math.frexp(value)[1] if value > 0 else None
            self.buckets[key] = self.buckets.get(key, 0) + 1


class _SmallFold(HistogramMetric):
    _FOLD_AT = 7


_VALUES = st.lists(st.one_of(
    st.integers(min_value=-10**12, max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(0), st.just(0.0), st.just(-0.0),
), max_size=60)


@given(values=_VALUES)
def test_vectorised_fold_equals_the_loop(values):
    new, old = _SmallFold("h", ()), _LoopFold("h", ())
    for value in values:
        new.observe(value)
        old.observe(value)
    for q in (0.5, 0.95, 0.99):
        assert new.quantile(q) == old.quantile(q)
    assert (new.count, new.sum, new.min, new.max) == (
        old.count, old.sum, old.min, old.max)
    assert new.buckets == old.buckets
    assert all(type(key) is int for key in new.buckets if key is not None)
