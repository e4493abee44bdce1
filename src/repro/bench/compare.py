"""The continuous-benchmarking gate: current run vs committed baseline.

A baseline is a ``BENCH_<figure>.json`` file (a ``FigureResult``
document with provenance) committed under ``benchmarks/baselines/``.
``repro.bench compare --baseline <dir>`` re-runs every figure that has
a baseline file, compares point-by-point, and exits non-zero when any
point falls more than :data:`REGRESSION_FLOOR` below its baseline.
Improvements never fail the gate; they are listed so a PR that moves a
figure can say so with numbers.

One direction, one threshold: every registered figure is a
deterministic virtual-time simulation plotting Gflops or speedup, so
higher is better (:func:`repro.bench.registry.run_figure` refuses a
figure that reads otherwise) and an unchanged tree reproduces its
baseline exactly — the floor only decides how large a deliberate
model change must be before it has to re-record the baseline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .harness import FigureResult
from .registry import (
    FIGURES,
    baseline_filename,
    figure_key_for_baseline,
    run_figure,
    stamp_provenance,
)

__all__ = [
    "PointComparison",
    "FigureComparison",
    "REGRESSION_FLOOR",
    "compare_figures",
    "render_comparison",
    "load_baselines",
    "compare_against_baselines",
]

#: Relative drop below the baseline that fails the gate.
REGRESSION_FLOOR = 0.05


@dataclass
class PointComparison:
    """One (series, x) point of a baseline-vs-current comparison."""

    series: str
    x: object
    baseline: float
    current: float

    @property
    def rel_change(self) -> float:
        """Signed relative change; negative is worse."""

        return (self.current - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        return self.rel_change < -REGRESSION_FLOOR

    @property
    def improved(self) -> bool:
        return self.rel_change > REGRESSION_FLOOR


@dataclass
class FigureComparison:
    """All point comparisons of one figure, plus bookkeeping."""

    key: str
    baseline: FigureResult
    current: FigureResult
    points: list[PointComparison]
    #: series/x present on only one side (schema drift, not a gate fail)
    skipped: list[str]

    @property
    def regressions(self) -> list[PointComparison]:
        return [p for p in self.points if p.regressed]

    @property
    def improvements(self) -> list[PointComparison]:
        return [p for p in self.points if p.improved]


def compare_figures(
    key: str, baseline: FigureResult, current: FigureResult
) -> FigureComparison:
    """Point-by-point comparison of two figures."""

    x_base = list(baseline.x)
    x_cur = list(current.x)
    points: list[PointComparison] = []
    skipped: list[str] = []
    cur_by_label = {s.label: s for s in current.series}
    for series in baseline.series:
        cur = cur_by_label.get(series.label)
        if cur is None:
            skipped.append(f"series {series.label!r} missing from current run")
            continue
        for bi, x in enumerate(x_base):
            if x not in x_cur:
                skipped.append(f"{series.label} @ {x}: no current point")
                continue
            base_v, cur_v = series.values[bi], cur.values[x_cur.index(x)]
            if base_v == 0:
                skipped.append(f"{series.label} @ {x}: zero baseline")
                continue
            points.append(PointComparison(series.label, x, base_v, cur_v))
    for series in current.series:
        if not any(s.label == series.label for s in baseline.series):
            skipped.append(f"series {series.label!r} new in current run")
    return FigureComparison(key, baseline, current, points, skipped)


def render_comparison(cmp: FigureComparison) -> str:
    """Text report for one figure's comparison."""

    prov = cmp.baseline.provenance
    lines = [f"== {cmp.key}: {cmp.baseline.title} =="]
    if prov:
        lines.append(
            "  baseline: "
            f"sha {str(prov.get('git_sha'))[:12]}  "
            f"host {prov.get('hostname')}  "
            f"python {prov.get('python')}  "
            f"scale {prov.get('scale')}  "
            f"recorded {prov.get('timestamp_iso')}"
        )
    lines.append(
        f"  ({cmp.baseline.ylabel}; higher is better, "
        f"threshold {REGRESSION_FLOOR * 100:.0f}%)"
    )
    for p in sorted(cmp.points, key=lambda p: p.rel_change):
        if p.regressed:
            verdict = "REGRESSED"
        elif p.improved:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"  {verdict:9s} {p.series:28s} @ {str(p.x):>6s}: "
            f"{p.baseline:10.3f} -> {p.current:<10.3f} "
            f"({p.rel_change * 100.0:+.1f}%)"
        )
    for note in cmp.skipped:
        lines.append(f"  skipped: {note}")
    n_reg, n_imp = len(cmp.regressions), len(cmp.improvements)
    lines.append(
        f"  {len(cmp.points)} points: {n_reg} regressed, "
        f"{n_imp} improved, {len(cmp.points) - n_reg - n_imp} within threshold"
    )
    return "\n".join(lines)


def load_baselines(baseline_dir: str) -> dict[str, tuple[str, FigureResult]]:
    """Figure key -> (path, FigureResult) for every baseline file."""

    out: dict[str, tuple[str, FigureResult]] = {}
    if not os.path.isdir(baseline_dir):
        return out
    for name in sorted(os.listdir(baseline_dir)):
        key = figure_key_for_baseline(name)
        if key is None:
            continue
        path = os.path.join(baseline_dir, name)
        out[key] = (path, FigureResult.load(path))
    return out


def compare_against_baselines(
    baseline_dir: str,
    quick: bool = True,
    seed: int | None = 0,
    figures: list[str] | None = None,
    update: bool = False,
    echo=print,
) -> int:
    """Run the gate; returns the process exit code.

    Without ``figures``, every figure with a baseline file in
    *baseline_dir* is gated.  With ``update=True`` the (re)run figures
    are written back as the new baselines instead of being gated —
    that is how the first baselines get recorded.
    """

    baselines = load_baselines(baseline_dir)
    keys = figures if figures else sorted(baselines)
    if not keys:
        echo(f"no BENCH_*.json baselines in {baseline_dir!r} "
             "(record some with --update --figures fig11,fig12)")
        return 1
    unknown = [k for k in keys if k not in FIGURES]
    if unknown:
        echo(f"unknown figure keys: {', '.join(unknown)}")
        return 2

    failed = False
    for key in keys:
        current = run_figure(key, quick=quick, seed=seed)
        if update:
            os.makedirs(baseline_dir, exist_ok=True)
            path = os.path.join(baseline_dir, baseline_filename(key))
            stamp_provenance(current, key, quick, seed)
            current.save(path)
            echo(f"recorded baseline {path} "
                 f"(scale={'quick' if quick else 'paper'})")
            continue
        if key not in baselines:
            echo(f"{key}: no baseline file in {baseline_dir!r}; skipping")
            failed = True
            continue
        path, baseline = baselines[key]
        base_scale = baseline.provenance.get("scale")
        cur_scale = "quick" if quick else "paper"
        if base_scale and base_scale != cur_scale:
            echo(f"WARNING: {key} baseline recorded at scale "
                 f"{base_scale!r} but comparing at {cur_scale!r}")
        cmp = compare_figures(key, baseline, current)
        echo(render_comparison(cmp))
        echo("")
        if cmp.regressions:
            failed = True
    return 1 if failed else 0
