"""A small process-local metrics registry (counters, gauges, histograms).

The paper's authors diagnosed their runtime with Paraver traces
(section VII.A); traces answer *when* questions, but the recurring
*how much* questions — per-task-type durations, analysis overhead,
barrier wait, steal/rename counts, ready-queue depths, renaming memory
footprint — want aggregates that survive when full tracing is off.
This registry is that aggregate layer: the runtimes own one each and
publish into a process-wide default registry on shutdown, which the
benchmark harness snapshots into a ``*.metrics.json`` next to each
figure file.

Design notes:

* metrics are keyed by ``(name, sorted labels)``, Prometheus-style, so
  ``registry.histogram("task_duration_seconds", task="sgemm_t")`` and
  the same name with ``task="strsm_t"`` are separate series;
* lookup returns the *same* object every time — hot paths cache the
  returned metric and pay one attribute increment per event;
* histograms bucket by power of two (``frexp`` exponent), cheap
  enough for per-task observation and sufficient for the order-of-
  magnitude questions (is analysis 1us or 100us?) the paper's section
  VI block-size discussion turns on.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "default_metrics",
    "reset_default_metrics",
]


class CounterMetric:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self):
        return self.value


class GaugeMetric:
    """A value that goes up and down (queue depth, live bytes)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def snapshot(self):
        return self.value


class HistogramMetric:
    """Count/sum/min/max plus power-of-two buckets.

    Bucket keys are the binary exponent of the observed value
    (``frexp(v)[1]``): values in ``[2**(k-1), 2**k)`` land in bucket
    ``k``.  Negative and zero observations land in a single underflow
    bucket (key ``None`` in the snapshot).

    Aggregation is *deferred*: an observation is only appended to the
    raw buffer ``_raw``, and the tallies are folded in when they are
    read, or whenever the buffer reaches ``_FOLD_AT``, so memory stays
    O(1) amortised on long runs.  The runtime's per-task hot paths skip
    :meth:`observe`'s Python call and write its two steps inline
    (``h._raw.append(v)``, then ``h._fold()`` once ``len(h._raw)``
    reaches ``h._FOLD_AT``).  Like the registry itself, a single
    histogram is not internally locked — the owning runtime serialises
    updates to it.
    """

    __slots__ = ("name", "labels", "buckets", "_count", "_sum", "_min", "_max", "_raw")

    #: Fold the raw buffer into the tallies at this many pending
    #: observations (bounds memory; amortises the fold to O(1)/observe).
    _FOLD_AT = 4096

    def __init__(self, name: str, labels: tuple):
        self.name = name
        self.labels = labels
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.buckets: dict = {}
        self._raw: list = []

    def observe(self, value) -> None:
        raw = self._raw
        raw.append(value)
        if len(raw) >= self._FOLD_AT:
            self._fold()

    def _fold(self) -> None:
        raw = self._raw
        if not raw:
            return
        self._raw = []
        self._count += len(raw)
        self._sum += sum(raw)
        lo = min(raw)
        hi = max(raw)
        if lo < self._min:
            self._min = lo
        if hi > self._max:
            self._max = hi
        # Bucket keys by numpy: one frexp over the buffer, not a loop.
        values = np.asarray(raw, dtype=np.float64)
        positive = values > 0
        buckets = self.buckets
        underflow = len(raw) - int(np.count_nonzero(positive))
        if underflow:
            buckets[None] = buckets.get(None, 0) + underflow
        keys, counts = np.unique(np.frexp(values[positive])[1],
                                 return_counts=True)
        for key, n in zip(keys.tolist(), counts.tolist()):
            buckets[key] = buckets.get(key, 0) + n

    @property
    def count(self) -> int:
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        self._fold()
        return self._sum

    @property
    def min(self) -> float:
        self._fold()
        return self._min

    @property
    def max(self) -> float:
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        self._fold()
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float):
        """Nearest-rank q-quantile over everything observed so far.

        The estimate merges two populations *without* folding the raw
        buffer: the not-yet-folded observations contribute their exact
        values, and each already-folded bucket contributes its count at
        the bucket's upper bound (``2**k`` for bucket *k*, ``inf`` past
        the largest float; underflow at ``0.0``).  While nothing is folded —
        fewer than ``_FOLD_AT`` observations, the common case for
        per-task-type duration series — the result is therefore the
        exact nearest-rank quantile; after folding it is conservative
        (an upper bound) within the power-of-two bucket width, i.e.
        at most 2x the true value.

        Returns ``None`` on an empty histogram.
        """

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile q must be in [0, 1], got {q!r}")
        total = self._count + len(self._raw)
        if total == 0:
            return None
        rank = max(1, math.ceil(q * total))
        points = [
            (0.0 if key is None else 2.0 ** key if key < 1024 else math.inf, n)
            for key, n in self.buckets.items()
        ]
        points.extend((value, 1) for value in self._raw)
        points.sort(key=lambda p: p[0])
        seen = 0
        for value, n in points:
            seen += n
            if seen >= rank:
                return value
        return points[-1][0]

    def merge(self, other: "HistogramMetric") -> None:
        """Fold *other*'s tallies into this histogram (for absorb)."""

        other._fold()
        self._fold()
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        for key, n in other.buckets.items():
            self.buckets[key] = self.buckets.get(key, 0) + n

    def snapshot(self) -> dict:
        self._fold()
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": {
                ("underflow" if k is None else f"<2^{k}"): n
                for k, n in sorted(
                    self.buckets.items(),
                    key=lambda kv: (-math.inf if kv[0] is None else kv[0]),
                )
            },
        }


def _labels_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Factory and container for named metrics.

    Not internally locked on the metric hot paths — the owning runtime
    serialises updates the same way it serialises its graph (threaded
    backend: under the runtime lock; simulator/recorder: single
    threaded).  Registration and merging take a lock so concurrent
    first-touch from two threads stays safe.
    """

    def __init__(self):
        self._metrics: dict[tuple, object] = {}
        self._lock = threading.Lock()

    # -- factories ---------------------------------------------------------
    def _get(self, cls, name: str, labels: dict):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, key[1])
                    self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> CounterMetric:
        return self._get(CounterMetric, name, labels)

    def gauge(self, name: str, **labels) -> GaugeMetric:
        return self._get(GaugeMetric, name, labels)

    def histogram(self, name: str, **labels) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)

    # -- ingestion ---------------------------------------------------------
    def ingest_scheduler_stats(self, stats, prefix: str = "scheduler") -> None:
        """Mirror a :class:`~repro.core.scheduler.SchedulerStats` into
        gauges, including the per-thread breakdowns."""

        for key, value in stats.as_dict().items():
            if isinstance(value, dict):
                for thread, count in value.items():
                    self.gauge(f"{prefix}.{key}", thread=thread).set(count)
            else:
                self.gauge(f"{prefix}.{key}").set(value)

    # -- introspection -----------------------------------------------------
    def __iter__(self) -> Iterator:
        return iter(list(self._metrics.values()))

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Nested plain-data form: ``{name: {label_repr: value}}``.

        Unlabelled metrics collapse to ``{name: value}``.
        """

        out: dict = {}
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            value = metric.snapshot()
            if not labels:
                out[name] = value
            else:
                label_repr = ",".join(f"{k}={v}" for k, v in labels)
                out.setdefault(name, {})[label_repr] = value
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)

    # -- merging -----------------------------------------------------------
    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s metrics into this registry.

        Counters and histogram tallies add; gauges take the absorbed
        value (last write wins) — the semantics a shutdown publish into
        the process default registry wants.
        """

        with other._lock:
            items = list(other._metrics.items())
        for (name, labels), metric in items:
            labels_dict = dict(labels)
            if isinstance(metric, CounterMetric):
                self.counter(name, **labels_dict).inc(metric.value)
            elif isinstance(metric, GaugeMetric):
                self.gauge(name, **labels_dict).set(metric.value)
            elif isinstance(metric, HistogramMetric):
                self.histogram(name, **labels_dict).merge(metric)


# ---------------------------------------------------------------------------
# process default registry (what the bench harness snapshots)
# ---------------------------------------------------------------------------

_default: Optional[MetricsRegistry] = MetricsRegistry()


def default_metrics() -> MetricsRegistry:
    """The process-wide registry runtimes publish into at shutdown."""

    return _default


def reset_default_metrics() -> MetricsRegistry:
    """Swap in a fresh default registry; returns the new one."""

    global _default
    _default = MetricsRegistry()
    return _default
