"""Run provenance: the self-description block stored with benchmark data.

A committed baseline is only trustworthy if it says where it came from.
Every ``FigureResult`` saved by ``repro.bench`` (and every
``*.metrics.json`` next to it) carries a provenance block: schema
version, git commit, host, interpreter and numpy versions, timestamp,
scale and seed.  ``repro.bench compare`` prints the baseline's
provenance so a CI failure names the commit it is being judged against.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import time

__all__ = ["SCHEMA_VERSION", "collect_provenance", "git_revision"]

#: Bump when the saved-figure JSON layout changes incompatibly.
SCHEMA_VERSION = "repro.bench/1"


def git_revision(cwd: str | None = None) -> str | None:
    """The current commit sha, or None outside a git checkout."""

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _numpy_version() -> str | None:
    try:
        import numpy

        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        return None


def collect_provenance(
    scale: str = "paper",
    seed: int | None = None,
    **extra,
) -> dict:
    """Assemble the provenance dict for one benchmark run.

    Every value is JSON-safe.  *extra* keys (figure name, parameter
    overrides, ...) are merged in verbatim.
    """

    now = time.time()
    prov = {
        "schema": SCHEMA_VERSION,
        "git_sha": git_revision(),
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": _numpy_version(),
        "timestamp": now,
        "timestamp_iso": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
        ),
        "scale": scale,
    }
    if seed is not None:
        prov["seed"] = int(seed)
    prov.update(extra)
    return prov
