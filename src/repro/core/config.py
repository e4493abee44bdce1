"""Runtime construction knobs and the one validated path to them.

Every runtime front-end (:class:`~repro.core.runtime.SmpssRuntime`, the
:class:`~repro.core.recorder.RecordingRuntime`, and the simulator's
:class:`~repro.sim.simruntime.SimulatedRuntime`) accepts the same two
construction idioms::

    SmpssRuntime(num_workers=3, trace=True)          # keyword knobs
    SmpssRuntime(config=RuntimeConfig(trace=True))   # an explicit config

Both funnel through :func:`resolve_config`, which the front ends'
shared base (:class:`~repro.core.frontend.ActiveRuntime`) calls: an
unknown knob raises a ``TypeError`` naming the knob (with a
did-you-mean suggestion), and a knob supplied both as a keyword *and*
as a non-default field of an explicit config raises a ``TypeError``
naming the conflict instead of silently picking a winner.
The passed-in config object is never mutated — each runtime works on a
private copy.

Backends that implement only a subset of the knobs (the recorder has no
worker threads, the simulator has no memory limit) simply ignore the
fields they do not consume; the knob *names* stay uniform so a config
built for one backend is valid input for another.
"""

from __future__ import annotations

import dataclasses
import difflib
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from .scheduler import SmpssScheduler

__all__ = ["RuntimeConfig", "resolve_config"]


@dataclass
class RuntimeConfig:
    """Knobs of the runtimes (canonical home; see module docstring)."""

    #: Worker threads in addition to the main thread.  ``None``: fill
    #: the machine (cpu_count - 1, at least 1).
    num_workers: Optional[int] = None
    #: Graph-size blocking condition: the main thread helps execute
    #: tasks while more than this many are in flight.
    max_pending_tasks: int = 10_000
    #: Memory-limit blocking condition (section III lists "a memory
    #: limit" among the main thread's blocking conditions): while live
    #: renamed buffers exceed this many bytes, the main thread stops
    #: submitting and helps execute.  ``None`` disables the limit.
    memory_limit_bytes: Optional[int] = None
    #: Retain finished nodes/edges for post-mortem graph inspection.
    keep_graph: bool = False
    #: Renaming switches (see :class:`TrackerConfig`).
    enable_renaming: bool = True
    rename_inout: bool = True
    #: Record trace events (the "tracing-enabled runtime").  Collection
    #: is per-thread ring buffers (:class:`Tracer`): workers
    #: append to their own buffer, merged when the events are read.
    trace: bool = False
    #: Events each thread's ring buffer holds before dropping oldest.
    trace_buffer_size: int = 1 << 16
    #: Populate a :class:`repro.obs.MetricsRegistry` (per-task-type
    #: durations, analysis/barrier overhead, queue depths).  Much
    #: cheaper than tracing; on by default.
    metrics: bool = True
    #: Access sanitizer (repro.check dynamic layer): execute task bodies
    #: against read-only guards on non-written numpy parameters and
    #: write-track declared outputs.  Debugging mode, off by default.
    #: Incompatible with ``backend="processes"`` (the guards wrap views
    #: of master-side storage, which never reach a worker process).
    sanitize: bool = False
    #: Execution backend: ``"threads"`` runs task bodies on worker
    #: threads in this process (the classic SMPSs layout; parallel for
    #: GIL-releasing kernels); ``"processes"`` runs them in long-lived
    #: forked worker processes fed over pipes (:mod:`repro.mp` — true
    #: parallelism for pure-Python bodies; arrays live in shared
    #: memory from their first dispatch to the barrier); ``"cluster"``
    #: dispatches ready tasks to remote node agents (:mod:`repro.dist`)
    #: listed in ``nodes``, with datum residency tracking so content
    #: moves only when a consumer actually needs it elsewhere.
    backend: str = "threads"
    #: Agent addresses for ``backend="cluster"``: a list of
    #: ``"tcp:HOST:PORT"`` specs (or unix-socket paths for same-host
    #: agents), one per node started with ``python -m repro dist agent``.
    #: Worker count is derived from the agents' advertised slots, so
    #: ``num_workers`` must be left unset.
    nodes: Optional[list] = None
    #: ``True``: every whole-object write returns to the master with the
    #: task's reply (higher traffic, but an agent death never loses
    #: data).  ``False`` (default): only a write that is still its
    #: datum's newest does; a superseded one stays on the producing node.
    dist_write_through: bool = False
    #: Live inspection & control (:mod:`repro.live`): serve graph-delta
    #: events and accept pause/step/breakpoint commands while the run is
    #: in flight.  Implies ``trace=True`` (the event plane is a tap on
    #: the tracer).  Off by default — the dispatch gate then stays
    #: entirely out of the scheduler's hot path.
    live: bool = False
    #: The runtime's one observation endpoint: a unix-socket path or
    #: ``"tcp:HOST:PORT"`` (port 0 picks an ephemeral port; the bound
    #: address is on ``runtime.address``).  It answers the live
    #: commands and delta stream (with ``live=True``), the metrics and
    #: health commands, and HTTP ``GET /metrics`` and ``/health``
    #: (:mod:`repro.obs.exposition`).  ``None`` with ``live=True``
    #: serves on a unix socket in a temp directory; ``None`` otherwise
    #: binds nothing.  Setting it switches nothing else on.
    address: Optional[str] = None
    #: Start with the dispatch gate paused, so a client can attach and
    #: watch the graph grow before anything executes.
    live_start_paused: bool = False
    #: Always-on runtime health (:mod:`repro.obs.health`): a watchdog
    #: thread samples scheduler/tracker state every ``health_interval``
    #: seconds, detects stalls / starvation / queue imbalance / worker
    #: deaths / suspected deadlocks, keeps a bounded flight-recorder
    #: ring of recent completions, and dumps it to disk when an anomaly
    #: fires (or on SIGUSR1).  Requires ``metrics=True`` (the default);
    #: works with tracing off — that is its point.
    health: bool = False
    #: Watchdog sampling period in seconds.
    health_interval: float = 0.5
    #: Directory flight-recorder dumps land in (anomaly / SIGUSR1 /
    #: explicit ``runtime.health.dump()``).  ``None``: the system temp
    #: directory.
    health_dump_dir: Optional[str] = None
    #: Ready-list structure; swap for CentralQueueScheduler in ablations.
    scheduler_factory: Callable = SmpssScheduler
    #: Extra names usable in dimension/region expressions (the paper's
    #: compile-time constants like N and M).
    constants: dict = field(default_factory=dict)

    def fill_num_workers(self) -> None:
        """Resolve ``num_workers=None`` to the machine's free cores.

        Not for a fleet of node agents: that is sized by the slots the
        agents advertise, known once the runtime has connected.
        """

        if self.num_workers is None and not self.nodes:
            self.num_workers = max(1, (os.cpu_count() or 2) - 1)


_FIELDS = {f.name: f for f in dataclasses.fields(RuntimeConfig)}


def _default_of(f: dataclasses.Field):
    if f.default is not dataclasses.MISSING:
        return f.default
    return f.default_factory()  # type: ignore[misc]


def resolve_config(
    config: Optional[RuntimeConfig] = None,
    overrides: Optional[dict] = None,
    *,
    runtime: str = "runtime",
) -> RuntimeConfig:
    """Merge an explicit config with keyword knobs into a fresh config.

    * ``config=None`` and no overrides: all defaults.
    * Unknown override names raise ``TypeError`` naming the knob and,
      when a near-miss exists, suggesting the intended one.
    * A knob given both ways (a keyword *and* a non-default value on the
      explicit config) raises ``TypeError`` naming the conflict.

    The returned config is always a private copy — the caller's
    ``config`` object is never mutated.
    """

    overrides = overrides or {}
    if config is not None and not isinstance(config, RuntimeConfig):
        raise TypeError(
            f"{runtime}: config must be a RuntimeConfig, "
            f"not {type(config).__name__}"
        )
    unknown = [name for name in overrides if name not in _FIELDS]
    if unknown:
        parts = []
        for name in unknown:
            close = difflib.get_close_matches(name, _FIELDS, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            parts.append(f"{name!r}{hint}")
        raise TypeError(
            f"{runtime}: unknown runtime option(s) {', '.join(parts)}; "
            f"valid knobs: {', '.join(sorted(_FIELDS))}"
        )
    if config is None:
        resolved = RuntimeConfig()
    else:
        conflicts = [
            name
            for name in overrides
            if getattr(config, name) != _default_of(_FIELDS[name])
            and getattr(config, name) != overrides[name]
        ]
        if conflicts:
            raise TypeError(
                f"{runtime}: conflicting runtime option(s) "
                f"{', '.join(repr(c) for c in sorted(conflicts))}: given both "
                f"as a keyword and as a non-default field of the explicit "
                f"config; set each knob in exactly one place"
            )
        resolved = dataclasses.replace(config)
        # A shared mutable default (constants) must not alias the
        # caller's config across the copy.
        resolved.constants = dict(config.constants)
    for name, value in overrides.items():
        setattr(resolved, name, value)
    if resolved.backend not in ("threads", "processes", "cluster"):
        raise TypeError(
            f"{runtime}: unknown backend {resolved.backend!r}; "
            f"valid backends: 'threads', 'processes', 'cluster'"
        )
    if resolved.backend == "cluster":
        if not resolved.nodes:
            raise TypeError(
                f"{runtime}: backend='cluster' needs nodes=[...] — the "
                f"agent addresses to dispatch to (start each with "
                f"'python -m repro dist agent ADDR')"
            )
        if resolved.num_workers is not None:
            raise TypeError(
                f"{runtime}: num_workers is derived from the agents' "
                f"advertised slots under backend='cluster'; size the "
                f"fleet with --slots on each agent instead"
            )
    elif resolved.nodes:
        raise TypeError(
            f"{runtime}: nodes=[...] only applies to backend='cluster' "
            f"(got backend={resolved.backend!r})"
        )
    if resolved.live_start_paused:
        resolved.live = True
    if resolved.live and not resolved.trace:
        # The event plane is a listener on the tracer; without events
        # there is nothing to stream.
        resolved.trace = True
    if resolved.health and not resolved.metrics:
        raise TypeError(
            f"{runtime}: health=True requires metrics=True — the watchdog "
            f"and exposition endpoint publish into the MetricsRegistry; "
            f"drop metrics=False (it is the default) or disable health"
        )
    if resolved.backend in ("processes", "cluster") and resolved.sanitize:
        raise TypeError(
            f"{runtime}: sanitize=True is incompatible with "
            f"backend={resolved.backend!r} — the sanitizer guards "
            f"thread-backend views only (its read-only wrappers never "
            f"reach a worker process); run the sanitized debug pass "
            f"with backend='threads'"
        )
    return resolved
