"""Always-on runtime health: watchdog, blocked-task explainer, findings.

The paper's runtime becomes operable as a long-running service only
when a wedged or limping run can explain *itself*: `Runtime.report()`
and ``trace=True`` are post-mortem tools, and the ad-hoc stall check
the main thread used to carry ("pending tasks but nothing ready or
running") only fires when the main thread happens to be blocked.  This
module centralises that logic:

* :class:`HealthMonitor` — a daemon watchdog thread, enabled by the
  ``health=True`` runtime knob, that samples scheduler/tracker state
  every ``health_interval`` seconds and raises structured
  :class:`Finding`\\ s for global stalls, suspected deadlocks, worker
  starvation, queue imbalance, and worker death spikes.  Every
  anomaly triggers a flight-recorder dump
  (:class:`repro.obs.flightrec.FlightRecorder`), as does ``SIGUSR1``
  or an explicit :meth:`HealthMonitor.dump` call.
* the **blocked-task explainer** — :func:`explain_blocked` /
  :func:`wait_chain` walk the dependency tracker's wait graph and
  answer "why is task X not running": the unmet accesses, the renaming
  decision behind each version, and the task (and worker) currently
  holding each datum.
* :func:`stalled_error` — the single source of the "runtime stalled"
  error :meth:`SmpssRuntime._main_help` raises, enriched with the same
  wait chains.

Detection thresholds are class attributes on :class:`HealthMonitor`
(periods, not seconds, so they scale with ``health_interval``); the
acceptance bar is that a wedge is found — and the flight recorder
dumped with the wait chain — within two watchdog periods.
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from ..core.task import TaskState
from .flightrec import FlightRecorder

__all__ = [
    "Finding",
    "HealthMonitor",
    "StallError",
    "explain_blocked",
    "wait_chain",
    "wait_graph_dot",
    "stalled_error",
]


class StallError(RuntimeError):
    """Pending tasks but nothing ready or running — graph corruption.

    Subclasses ``RuntimeError`` so callers catching the historical
    error type keep working; carries the blocked-task findings.
    """

    def __init__(self, message: str, chains: Optional[list] = None):
        super().__init__(message)
        self.chains = chains or []


@dataclass
class Finding:
    """One structured anomaly report from the watchdog/explainer."""

    #: ``global_stall`` | ``suspected_deadlock`` | ``worker_starvation``
    #: | ``queue_imbalance`` | ``worker_death_spike`` | ``blocked_task``
    kind: str
    severity: str  # "warning" | "critical"
    message: str
    #: ``perf_counter`` when detected (same clock as trace events).
    time: float
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return dict(vars(self))


# ---------------------------------------------------------------------------
# blocked-task explainer (pure reads; the caller picks the lock)
# ---------------------------------------------------------------------------

def _worker_of(runtime, task) -> Optional[int]:
    """Thread index currently executing *task*, if any (racy glance)."""

    current = getattr(runtime, "_current", None) or []
    for idx, running in enumerate(current):
        if running is task:
            return idx
    return None


def _task_brief(runtime, task) -> dict:
    brief = {
        "task_id": task.task_id,
        "name": task.name,
        "state": task.state.value,
    }
    worker = _worker_of(runtime, task)
    if worker is not None:
        brief["worker"] = worker
    return brief


def explain_blocked(runtime, task) -> dict:
    """Why is *task* not running?  One structured answer.

    Walks the task's recorded accesses: every read of a version whose
    producer has not finished is an unmet dependency, reported with the
    parameter name, the version index, the renaming decision that
    created the version (``initial``/``same``/``fresh``/``clone``), and
    the producing task — including which worker is executing it right
    now, when one is.  Predecessors that arrived through explicit
    anti/output edges (renaming off) are reported without a parameter,
    in task-id order, so every identical run has the same wait chain.

    Pure reads — the caller decides whether to hold the tracker lock
    (the watchdog does; the stall path runs when no worker is active).
    """

    waiting_on = []
    explained = set()
    for name, version in task.reads:
        producer = version.producer
        if producer is None or producer.state is TaskState.FINISHED:
            continue
        explained.add(producer.task_id)
        entry = {
            "param": name,
            "version": version.index,
            "renaming": version.kind.value,
            "producer": _task_brief(runtime, producer),
        }
        waiting_on.append(entry)
    for pred in sorted(task.predecessors, key=lambda t: t.task_id):
        if pred.state is TaskState.FINISHED or pred.task_id in explained:
            continue
        waiting_on.append({
            "param": None,
            "version": None,
            "renaming": None,
            "producer": _task_brief(runtime, pred),
        })
    out = _task_brief(runtime, task)
    out["pending_deps"] = task.num_pending_deps
    out["waiting_on"] = waiting_on
    return out


def wait_chain(runtime, task, max_depth: int = 16) -> list[dict]:
    """The dependency chain keeping *task* from running, root-last.

    Each element is an :func:`explain_blocked` dict; the walk follows
    the first unmet dependency of each task until it reaches a task
    that is running (the likely culprit), has no unmet dependency, or
    a cycle/depth bound stops it.
    """

    chain = []
    seen: set[int] = set()
    current = task
    for _ in range(max_depth):
        if current.task_id in seen:
            break
        seen.add(current.task_id)
        explained = explain_blocked(runtime, current)
        chain.append(explained)
        if not explained["waiting_on"]:
            break
        next_id = explained["waiting_on"][0]["producer"]["task_id"]
        next_task = runtime.graph.get(next_id)
        if next_task is None or next_task.state is TaskState.FINISHED:
            break
        current = next_task
    return chain


def blocked_tasks(runtime, limit: Optional[int] = None) -> list:
    """Unfinished tasks with unmet dependencies, oldest first."""

    out = []
    for task in runtime.graph:
        if task.state is TaskState.BLOCKED and task.num_pending_deps > 0:
            out.append(task)
            if limit is not None and len(out) >= limit:
                break
    return out


_STATE_COLOURS = {
    TaskState.BLOCKED.value: "salmon",
    TaskState.READY.value: "gold",
    TaskState.RUNNING.value: "lightgreen",
    TaskState.FINISHED.value: "lightgrey",
}


def wait_graph_dot(runtime) -> Optional[str]:
    """GraphViz text of the *current* wait graph, or ``None`` if empty.

    Unlike :func:`repro.obs.export.graph_to_dot` (the post-mortem full
    DAG), this renders the in-flight window: nodes coloured by state
    (blocked red-ish, ready gold, running green), blocked nodes
    annotated with the parameter each unmet access waits on.  Works
    with ``keep_graph=False`` — retired tasks have already left the
    graph, which is exactly what a wedge diagnosis wants to see.
    """

    graph = getattr(runtime, "graph", None)
    if graph is None:
        return None
    lines = ["digraph wait {", "  node [style=filled];"]
    edges = []
    count = 0
    for task in graph:
        if task.state is TaskState.FINISHED:
            continue
        count += 1
        colour = _STATE_COLOURS.get(task.state.value, "white")
        label = f"{task.task_id}\\n{task.name}\\n[{task.state.value}]"
        lines.append(
            f'  t{task.task_id} [label="{label}", fillcolor={colour}];'
        )
        if task.state is TaskState.BLOCKED:
            for wait in explain_blocked(runtime, task)["waiting_on"]:
                label = f' [label="{wait["param"]}"]' if wait["param"] else ""
                edges.append(f'  t{wait["producer"]["task_id"]} -> '
                             f't{task.task_id}{label};')
    if count == 0:
        return None
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines)


def stalled_error(runtime) -> StallError:
    """Build the unified "runtime stalled" error, with wait chains.

    Called by the main thread's blocking loops when ``running == 0``,
    nothing is ready, and pending tasks remain — every completion is
    fully visible at that point (workers update the graph before the
    scheduler), so the remaining pending tasks are genuinely
    unrunnable and can be walked without the tracker lock (no worker
    is active to race with).  Also notifies the health monitor, so a
    flight-recorder dump lands before the exception unwinds the run.
    """

    chains = []
    try:
        for task in blocked_tasks(runtime, limit=8):
            chains.append(wait_chain(runtime, task))
    except Exception:  # noqa: BLE001 - the stall error must still raise
        pass
    message = (
        "runtime stalled: pending tasks but nothing ready or running "
        "(graph corruption?)"
    )
    if chains:
        parts = []
        for chain in chains:
            head = chain[0]
            hops = " <- ".join(
                f"#{link['task_id']} {link['name']}" for link in chain
            )
            parts.append(f"  #{head['task_id']} {head['name']}: {hops}")
        message += "\nblocked-task wait chains:\n" + "\n".join(parts)
    monitor = getattr(runtime, "health", None)
    if monitor is not None:
        monitor.note_stall(chains)
    return StallError(message, chains)


# ---------------------------------------------------------------------------
# the watchdog
# ---------------------------------------------------------------------------

class HealthMonitor:
    """Watchdog thread + flight recorder.

    Created by :meth:`SmpssRuntime.start` when ``health=True``; the
    runtime exposes it as ``runtime.health``.  All thresholds are in
    watchdog *periods* so they scale with ``health_interval``.

    Locking: the sampling pass reads racy scalars without any lock;
    only the explainer pass (on anomaly or on demand) takes the
    runtime's tracker lock, and never any other runtime lock at the
    same time.
    """

    #: No completion for this many periods, with tasks pending and at
    #: least one task unaccounted for (not running, not ready), fires
    #: ``global_stall``.  Two periods is the acceptance bar: a wedge
    #: must be dumped within two watchdog periods.
    STALL_PERIODS = 2
    #: A worker parked while ready tasks exist, sustained.
    STARVE_PERIODS = 3
    #: One per-thread LIFO hoarding ready work, sustained.
    IMBALANCE_PERIODS = 5
    IMBALANCE_MIN_DEPTH = 8
    IMBALANCE_SHARE = 0.75
    #: Worker deaths (any remote backend: mp processes, cluster agents)
    #: within the rolling window that count as a spike.
    DEATH_SPIKE = 2
    DEATH_WINDOW = 10
    #: Wait chains collected per anomaly / findings retained.
    MAX_CHAINS = 8
    MAX_FINDINGS = 64

    def __init__(self, runtime):
        self.runtime = runtime
        config = runtime.config
        self.interval = float(config.health_interval)
        self.dump_dir = config.health_dump_dir
        self.recorder = FlightRecorder(num_threads=runtime.num_threads)
        #: Structured findings, oldest first (bounded).
        self.findings: list[Finding] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._prev_sigusr1 = None
        self._sig_installed = False
        self._dump_requested = False
        self._lock = threading.Lock()  # findings list + episode state
        metrics = runtime.metrics
        self._g_age = metrics.gauge("health.last_completion_age")
        self._g_blocked = metrics.gauge("health.blocked_tasks")
        self._g_findings = metrics.gauge("health.findings")
        self._c_samples = metrics.counter("health.samples")
        self._c_errors = metrics.counter("health.watchdog_errors")
        self._started_at = perf_counter()
        self._last_completions = 0
        self._stall_streak = 0
        self._starve_streak = 0
        self._imbalance_streak = 0
        self._death_history: list[int] = []
        #: Finding kinds already reported in the current anomaly episode
        #: (cleared when progress resumes), so a wedge produces one
        #: finding per kind, not one per period.
        self._episode: set[str] = set()
        self.last_sample: dict = {}
        # Scrape bookkeeping for utilization-since-last-scrape gauges.
        self._scrape_time = self._started_at
        self._scrape_busy = list(self.recorder.busy)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._install_signal()
        self._thread = threading.Thread(
            target=self._loop, name="repro-health-watchdog", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.interval + 5.0)
            self._thread = None
        self._restore_signal()
        # Leave final gauge values behind for the shutdown publish.
        self.note_scrape()

    # ------------------------------------------------------------------
    # SIGUSR1 → flight-recorder dump
    # ------------------------------------------------------------------
    def _install_signal(self) -> None:
        # Only the main thread may install handlers, and not every
        # platform has SIGUSR1; both conditions degrade silently — the
        # dump stays reachable via HealthMonitor.dump() and the
        # exposition "dump" command.
        if threading.current_thread() is not threading.main_thread():
            return
        sig = getattr(signal, "SIGUSR1", None)
        if sig is None:
            return
        try:
            self._prev_sigusr1 = signal.signal(sig, self._on_sigusr1)
            self._sig_installed = True
        except (ValueError, OSError):
            self._sig_installed = False

    def _restore_signal(self) -> None:
        if not self._sig_installed:
            return
        try:
            signal.signal(signal.SIGUSR1, self._prev_sigusr1 or signal.SIG_DFL)
        except (ValueError, OSError):
            pass
        self._sig_installed = False

    def _on_sigusr1(self, _signum, _frame) -> None:
        # Handlers run on the main thread, possibly mid-submission with
        # runtime locks held: just flag, the watchdog thread dumps on
        # its next wakeup (at most one period away).
        self._dump_requested = True

    # ------------------------------------------------------------------
    # the watchdog loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.check_now()
            except Exception:  # noqa: BLE001 - watchdog must survive
                self._c_errors.inc()

    def check_now(self) -> list[Finding]:
        """One sampling pass; returns findings raised *by this pass*.

        The watchdog calls this every period; tests call it directly
        for deterministic coverage.
        """

        runtime = self.runtime
        now = perf_counter()
        self._c_samples.inc()
        scheduler = runtime.scheduler
        graph = runtime.graph
        completions = runtime.tasks_executed
        pending = graph.pending_count if graph is not None else 0
        ready = scheduler.ready_count if scheduler is not None else 0
        running = runtime._running
        parked = runtime._parked
        gate = getattr(scheduler, "gate", None)
        paused = gate is not None and gate.paused
        blocked = max(0, pending - running - ready)
        last = self.recorder.last_completion
        age = now - (last if last else self._started_at)
        self._g_age.set(age)
        self._g_blocked.set(blocked)

        sample = {
            "time": now,
            "completions": completions,
            "pending": pending,
            "ready": ready,
            "running": running,
            "parked": parked,
            "blocked": blocked,
            "paused": paused,
            "last_completion_age": age,
        }
        backend = runtime.backend
        if backend.remote:
            alive = sum(1 for w in backend.liveness() if w["alive"])
            runtime.metrics.gauge("mp.workers_alive").set(alive)
            sample["mp_workers_alive"] = alive
            self._death_history.append(backend.deaths)
            del self._death_history[: -self.DEATH_WINDOW]
        self.last_sample = sample
        self.recorder.note_snapshot(sample)

        progress = completions > self._last_completions
        self._last_completions = completions
        new_findings: list[Finding] = []

        # -- stall / suspected deadlock --------------------------------
        # A pending graph where every task is either running or sitting
        # ready is slow, not stalled — only unaccounted-for (blocked)
        # tasks, or a fully idle runtime, with zero completions over
        # the streak counts.
        stalled_shape = pending > 0 and (blocked > 0 or running == 0)
        if progress or paused or not stalled_shape:
            self._stall_streak = 0
            if progress or pending == 0:
                with self._lock:
                    self._episode.clear()
        else:
            self._stall_streak += 1
        if self._stall_streak >= self.STALL_PERIODS:
            detail = dict(sample)
            finding = self._raise_finding(
                "global_stall",
                "warning",
                f"no task completed for {self._stall_streak} watchdog "
                f"periods ({self._stall_streak * self.interval:.2f}s) "
                f"with {pending} task(s) pending",
                detail,
            )
            if finding is not None:
                new_findings.append(finding)
            if ready == 0 and blocked > 0:
                chains = self._collect_chains()
                finding = self._raise_finding(
                    "suspected_deadlock",
                    "critical",
                    f"{blocked} task(s) blocked on dependencies that are "
                    f"not completing; see wait chains",
                    {**detail, "chains": chains},
                )
                if finding is not None:
                    new_findings.append(finding)

        # -- worker starvation -----------------------------------------
        starved = parked > 0 and ready > 0 and not paused
        self._starve_streak = self._starve_streak + 1 if starved else 0
        if self._starve_streak >= self.STARVE_PERIODS:
            finding = self._raise_finding(
                "worker_starvation",
                "warning",
                f"{parked} worker(s) parked while {ready} task(s) are "
                f"ready for {self._starve_streak} periods (missed "
                f"wakeup?)",
                dict(sample),
            )
            if finding is not None:
                new_findings.append(finding)

        # -- queue imbalance -------------------------------------------
        imbalance_fn = getattr(scheduler, "queue_imbalance", None)
        deepest, share = imbalance_fn() if imbalance_fn else (0, 0.0)
        imbalanced = (
            deepest >= self.IMBALANCE_MIN_DEPTH
            and share >= self.IMBALANCE_SHARE
        )
        self._imbalance_streak = (
            self._imbalance_streak + 1 if imbalanced else 0
        )
        if self._imbalance_streak >= self.IMBALANCE_PERIODS:
            finding = self._raise_finding(
                "queue_imbalance",
                "warning",
                f"one local ready list holds {deepest} task(s) "
                f"({share:.0%} of all ready work) for "
                f"{self._imbalance_streak} periods",
                {**sample, "deepest": deepest, "share": share},
            )
            if finding is not None:
                new_findings.append(finding)

        # -- worker death spike ----------------------------------------
        if len(self._death_history) >= 2:
            delta = self._death_history[-1] - self._death_history[0]
            if delta >= self.DEATH_SPIKE:
                finding = self._raise_finding(
                    "worker_death_spike",
                    "critical",
                    f"{delta} worker process death(s) within the last "
                    f"{len(self._death_history)} watchdog periods",
                    {**sample, "deaths_in_window": delta},
                )
                if finding is not None:
                    new_findings.append(finding)

        if self._dump_requested:
            self._dump_requested = False
            self.dump(reason="sigusr1")
        return new_findings

    def _collect_chains(self) -> list:
        """Wait chains for up to :attr:`MAX_CHAINS` blocked tasks.

        Takes the tracker lock (and only it): completions mutate the
        graph under that lock, so the walk sees consistent edges.
        """

        runtime = self.runtime
        chains = []
        with runtime.domain.lock:
            for task in blocked_tasks(runtime, limit=self.MAX_CHAINS):
                chains.append(wait_chain(runtime, task))
        return chains

    def _raise_finding(self, kind: str, severity: str, message: str,
                       details: dict) -> Optional[Finding]:
        """Record one finding (once per kind per anomaly episode)."""

        with self._lock:
            if kind in self._episode:
                return None
            self._episode.add(kind)
            finding = Finding(
                kind=kind, severity=severity, message=message,
                time=perf_counter(), details=details,
            )
            self.findings.append(finding)
            del self.findings[: -self.MAX_FINDINGS]
            self._g_findings.set(len(self.findings))
            self.runtime.metrics.counter(
                "health.findings_total", kind=kind
            ).inc()
        self.dump(reason=kind, findings=[finding])
        return finding

    # ------------------------------------------------------------------
    # on-demand surface
    # ------------------------------------------------------------------
    def explain(self, task) -> dict:
        """On-demand blocked-task explanation (takes the tracker lock).

        *task* may be a :class:`TaskInstance` or a task id.
        """

        runtime = self.runtime
        with runtime.domain.lock:
            if isinstance(task, int):
                resolved = runtime.graph.get(task)
                if resolved is None:
                    raise ValueError(f"no in-flight task with id {task}")
                task = resolved
            return {
                "explanation": explain_blocked(runtime, task),
                "chain": wait_chain(runtime, task),
            }

    def dump(self, reason: str = "manual",
             findings: Optional[list] = None) -> dict:
        """Flight-recorder dump to ``health_dump_dir``; returns paths."""

        with self.runtime.domain.lock:
            return self.recorder.dump(
                self.dump_dir,
                runtime=self.runtime,
                findings=findings if findings is not None else self.findings,
                reason=reason,
            )

    def note_stall(self, chains: list) -> None:
        """Feed from :func:`stalled_error`: the main thread proved a
        stall synchronously; record it and dump before the raise."""

        with self._lock:
            already = "hard_stall" in self._episode
            self._episode.add("hard_stall")
            if not already:
                finding = Finding(
                    kind="hard_stall",
                    severity="critical",
                    message=(
                        "main thread found pending tasks with nothing "
                        "ready or running (graph corruption?)"
                    ),
                    time=perf_counter(),
                    details={"chains": chains},
                )
                self.findings.append(finding)
                del self.findings[: -self.MAX_FINDINGS]
                self._g_findings.set(len(self.findings))
                self.runtime.metrics.counter(
                    "health.findings_total", kind="hard_stall"
                ).inc()
        if not already:
            # Not via self.dump(): the caller already holds the
            # scheduler lock, and the tracker lock is free to take —
            # but keep to the one-lock-at-a-time watchdog rule and
            # dump without extra locking (no worker is active).
            self.recorder.dump(
                self.dump_dir, runtime=self.runtime,
                findings=self.findings, reason="hard_stall",
            )

    def note_scrape(self) -> dict:
        """Refresh per-worker utilization-since-last-scrape gauges.

        Called by the exposition endpoint on every scrape (and once at
        shutdown); returns ``{thread: utilization}``.
        """

        now = perf_counter()
        elapsed = max(1e-9, now - self._scrape_time)
        busy = list(self.recorder.busy)
        out = {}
        metrics = self.runtime.metrics
        for idx, total in enumerate(busy):
            prev = (
                self._scrape_busy[idx]
                if idx < len(self._scrape_busy) else 0.0
            )
            util = max(0.0, min(1.0, (total - prev) / elapsed))
            metrics.gauge("health.worker_utilization", thread=idx).set(util)
            out[idx] = util
        self._scrape_time = now
        self._scrape_busy = busy
        return out

    def state(self) -> dict:
        """Plain-data health state (the endpoint's ``health`` answer)."""

        return {
            "interval": self.interval,
            "sample": dict(self.last_sample),
            "findings": [f.as_dict() for f in self.findings],
            "completions": self.recorder.completions,
        }
