"""The figure registry: which figures exist and how to run them.

``repro.bench`` (the CLI) and ``repro.bench.compare`` (the baseline
gate) both need the same three facts about a figure: the experiment
function that produces it, the reduced quick-mode parameters, and the
canonical baseline filename.  They live here so the compare path never
has to import the CLI module.
"""

from __future__ import annotations

import inspect

from . import experiments as _experiments
from .provenance import collect_provenance

__all__ = [
    "FIGURES",
    "QUICK_PARAMS",
    "baseline_filename",
    "figure_key_for_baseline",
    "run_figure",
    "stamp_provenance",
]

#: figure key -> experiment function name in :mod:`repro.bench.experiments`.
FIGURES = {
    "fig08": "fig08_cholesky_blocksize",
    "fig11": "fig11_cholesky_scaling",
    "fig12": "fig12_matmul_scaling",
    "fig13": "fig13_strassen_scaling",
    "fig14": "fig14_multisort",
    "fig15": "fig15_nqueens",
    "fig16": "fig16_nqueens_scalability",
}

#: Reduced-scale parameters for ``--quick`` (laptop/CI smoke runs).
QUICK_PARAMS = {
    "fig08": dict(n=1024, block_sizes=(32, 64, 128, 256), cores=8),
    "fig11": dict(n=2048, m=256, threads=(1, 2, 4, 8)),
    "fig12": dict(n=2048, m=512, threads=(1, 2, 4, 8)),
    "fig13": dict(n=2048, m=512, threads=(1, 2, 4, 8)),
    "fig14": dict(n=1 << 18, quicksize=1 << 13, threads=(1, 2, 4, 8)),
    "fig15": dict(n=9, threads=(1, 2, 4, 8)),
    "fig16": dict(n=9, threads=(1, 2, 4, 8)),
}


#: ylabel fragments of a smaller-is-better quantity.  The gate has one
#: direction (every paper figure plots Gflops or speedup); costs in
#: seconds belong to ``benchmarks/e2e``, not in this registry.
_COST_LIKE = ("time", "second", "latency", "overhead", "(s)", "lower is better")


def baseline_filename(key: str) -> str:
    """``fig11`` -> ``BENCH_fig11_cholesky_scaling.json``."""

    return f"BENCH_{FIGURES[key]}.json"


def figure_key_for_baseline(filename: str) -> str | None:
    """Inverse of :func:`baseline_filename`; None for foreign files."""

    name = filename.rsplit("/", 1)[-1]
    if not (name.startswith("BENCH_") and name.endswith(".json")):
        return None
    stem = name[len("BENCH_"):-len(".json")]
    for key, func_name in FIGURES.items():
        if func_name == stem:
            return key
    return None


def run_figure(key: str, quick: bool = False, seed: int | None = None):
    """Run one figure's experiment function and return its FigureResult.

    *seed* is forwarded only to experiment functions that declare a
    ``seed`` parameter (the input-data-dependent figures); the purely
    structural simulations ignore it.  Every registered figure is a
    virtual-time simulation, so one run is the figure: the same numbers
    on any host, any number of times.
    """

    func = getattr(_experiments, FIGURES[key])
    params = dict(QUICK_PARAMS[key]) if quick else {}
    if seed is not None and "seed" in inspect.signature(func).parameters:
        params["seed"] = seed
    fig = func(**params)
    if any(fragment in fig.ylabel.lower() for fragment in _COST_LIKE):
        raise ValueError(
            f"{key}: ylabel {fig.ylabel!r} reads as lower-is-better; "
            "repro.bench gates higher-is-better figures only"
        )
    return fig


def stamp_provenance(fig, key: str, quick: bool, seed: int | None) -> None:
    """Record where *fig*'s numbers came from, before it is written out
    (``--save`` files and ``compare --update`` baselines)."""

    fig.provenance = collect_provenance(
        scale="quick" if quick else "paper",
        seed=seed,
        figure=key,
    )
