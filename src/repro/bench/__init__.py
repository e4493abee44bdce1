"""Benchmark harness: regenerates every figure of the paper (section VI).

:mod:`repro.bench.experiments` has one entry point per figure; each
returns a :class:`repro.bench.harness.FigureResult` whose ``table()``
prints the same rows/series the paper plots.  The pytest-benchmark
drivers in ``benchmarks/`` call these entry points.

On top of the figures sits the continuous-benchmarking layer
(``docs/benchmarking.md``): :mod:`~repro.bench.registry` knows how to
run each figure and stamps its provenance, and
:mod:`~repro.bench.compare` gates a run against the committed
baselines under ``benchmarks/baselines/``.  Everything here is virtual
time — deterministic, identical on any host.  Wall-clock throughput,
latency and memory of the real execution paths are measured by
``benchmarks/e2e`` (``BENCHMARK.json``), not here.
"""

from .compare import compare_against_baselines, compare_figures
from .harness import FigureResult, Series
from .provenance import SCHEMA_VERSION, collect_provenance
from .registry import run_figure
from . import experiments

__all__ = [
    "FigureResult",
    "Series",
    "experiments",
    "SCHEMA_VERSION",
    "collect_provenance",
    "run_figure",
    "compare_figures",
    "compare_against_baselines",
]
