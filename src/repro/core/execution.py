"""Dependency domains and the one worker loop that executes them.

Section III states one execution rule: "whenever a thread has finished
running a task, it updates the graph and moves all tasks that have
become ready to that thread ready list".  This module is that rule's
only implementation.  A :class:`GraphDomain` is one isolated dependency
graph behind its own lock; a :class:`WorkerLoop` pops ready tasks from
one scheduler, hands each to the execution backend, completes it in
*the task's* domain (``task.domain``, set at analysis) and pushes the
released successors.  :class:`~repro.core.runtime.SmpssRuntime` is the
loop over a single domain with the main thread helping; the task-graph
service (:mod:`repro.serve`) drives the same loop over one domain per
submitted graph.

Locking discipline:

* ``domain.lock`` serialises one domain's dependency subsystem —
  tracker analysis and graph completion.  Holding it never blocks on
  the scheduler, and domains share nothing, so two domains never
  contend.
* ``_sched_cv`` (its own condition variable) serialises the ready
  lists, the running-task count, and all sleeping/wakeup traffic.

Analysis therefore never contends with worker pop/steal traffic: a
submission takes a domain lock while workers take only the scheduler
lock, and the two meet only for the brief ready-list push.  Completions
batch their "last dependence removed" wakeups — one ``notify(k)`` for
the ``k`` released successors instead of a ``notify_all`` per task — so
an N-worker loop is not stampeded N ways on every fine-grained
completion.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Optional

from .dependencies import DependencyTracker, TrackerConfig
from .graph import TaskGraph
from .task import TaskInstance

__all__ = ["GraphDomain", "TaskExecutionError", "WorkerLoop"]

#: Expected body time (seconds) a frame may hold: about one remote
#: dispatch, the cost sharing a message saves per task.  Longer bodies
#: gain nothing from it and would hide from the other workers meanwhile.
FRAME_SECONDS = 100e-6


class TaskExecutionError(RuntimeError):
    """A task body raised; re-raised on the main thread at the barrier."""

    def __init__(self, task: TaskInstance, cause: BaseException):
        super().__init__(f"task #{task.task_id} {task.name!r} raised: {cause!r}")
        self.task = task
        self.__cause__ = cause


class GraphDomain:
    """One isolated dependency domain behind its own lock.

    Owns a private graph + tracker (its own version chains, renaming
    namespace, and memory accounting) and funnels every mutation
    through ``lock``, which is held per call and never across calls.
    Readiness is decided while still holding the lock, so a completion
    racing an analysis can never double-release a task.

    ``failure`` is the first reason the domain stopped (a
    :class:`TaskExecutionError`, or whatever the owner passed to
    :meth:`fail`).  A worker never runs a task whose domain has
    failed: such tasks are retired unrun, so a failed domain still
    drains.  *on_drained* is called with the domain, outside every
    lock, by the worker whose completion left it with nothing pending —
    exactly once for a domain that is fully analysed before any of its
    tasks is released.  *release_eagerly* frees dead renamed buffers at every
    completion instead of at :meth:`write_back`.  ``executed`` counts
    the tasks whose body actually ran.
    """

    def __init__(
        self,
        *,
        tracker_config: Optional[TrackerConfig] = None,
        tracer=None,
        keep_finished: bool = False,
        release_eagerly: bool = True,
        on_drained: Optional[Callable[["GraphDomain"], None]] = None,
    ):
        self.lock = threading.Lock()
        self.graph = TaskGraph(keep_finished=keep_finished, tracer=tracer)
        self.tracker = DependencyTracker(
            self.graph,
            config=tracker_config or TrackerConfig(),
            tracer=tracer,
        )
        self.release_eagerly = release_eagerly
        self.on_drained = on_drained
        self.failure: Optional[BaseException] = None
        self.executed = 0

    def analyze(self, task: TaskInstance) -> bool:
        """Add *task* to the domain; ``True`` when it is ready now.

        Read outside the lock, readiness would race a worker completing
        the task's last predecessor in the window between analysis and
        the check — both sides would push, and the task would run
        twice.  Completions mutate ``num_pending_deps`` only under this
        lock, so the capture is consistent: a task with pending deps
        here is (or will be) in a predecessor's successor set and gets
        released by exactly one completion.
        """

        task.domain = self
        with self.lock:
            self.tracker.analyze(task)
            return task.num_pending_deps == 0

    def complete(
        self, task: TaskInstance, failure: Optional[BaseException] = None,
        ran: bool = True,
    ) -> tuple[list, bool]:
        """Retire *task* (``ran=False``: unrun, its domain had failed);
        ``(newly_ready, drained)``.

        A *failure* is recorded before the successors are released, so
        none of them can be dispatched ahead of it.
        """

        with self.lock:
            if ran:
                self.executed += 1
            if failure is not None and self.failure is None:
                self.failure = failure
            newly_ready = self.graph.complete(task)
            if self.release_eagerly:
                self.tracker.release_after(task)
            return newly_ready, self.graph.pending_count == 0

    def fail(self, failure: BaseException) -> None:
        """Stop the domain: its queued tasks will be retired unrun."""

        with self.lock:
            if self.failure is None:
                self.failure = failure

    def write_back(self, copy: bool = True) -> int:
        """Barrier semantics: restore user-visible data (``copy=False``:
        no body ran, so there is none to restore), drop chains."""

        with self.lock:
            count = self.tracker.write_back_all() if copy else 0
            self.tracker.reset()
            return count


class WorkerLoop:
    """Worker threads executing ready tasks of any number of domains.

    The owner composes one and supplies, at :meth:`start_backend`, an
    :class:`~repro.core.backend.ExecutionBackend` and the scheduler to
    build once the fleet's size is known; then the domains: it analyses
    tasks into a :class:`GraphDomain`, hands the ready ones to
    :meth:`release`, and the loop does the rest.  Thread 0 is the
    owner's own thread; it may call :meth:`_execute` on a task it
    popped itself (the runtime's main-thread helping).

    *metrics* is the registry receiving per-task duration and
    ready-depth histograms (``None``: none are kept); *tracer* gets the
    ``task_end`` event of bodies that ran on the calling thread.
    """

    def __init__(self, metrics=None, tracer=None):
        #: Both ``None`` until :meth:`start_backend`.
        self.scheduler = None
        self.backend = None
        self._task_metrics = metrics
        self._task_hists: dict = {}
        self._m_ready_depth = (
            metrics.histogram("ready_queue_depth") if metrics is not None
            else None
        )
        self._trace = tracer
        self._threads: list[threading.Thread] = []
        #: Scheduler lock: ready lists, running count, wakeup traffic.
        #: Two conditions share it so wakeups are targeted — workers
        #: sleep on ``_sched_cv`` (woken ``notify(k)`` per batch of k
        #: released tasks), the owner's thread sleeps on ``_main_cv``
        #: (woken once per completion, and only while actually waiting,
        #: because its blocking predicates — barrier, window, memory
        #: limit, ``wait_for`` — can flip on any completion).
        self._sched_lock = threading.Lock()
        self._sched_cv = threading.Condition(self._sched_lock)
        self._main_cv = threading.Condition(self._sched_lock)
        self._main_parked = False
        self._running = 0
        #: Worker threads currently blocked in ``cv.wait()`` (the live
        #: dashboard's "parked" count; main-thread waiting is the
        #: separate ``_main_parked`` flag).
        self._parked = 0
        #: Per-thread task currently executing (``None`` when idle).
        #: Written only by the owning thread; readers (live snapshots)
        #: take a racy but self-consistent-enough glance.
        self._current: list = []
        #: The health monitor's flight recorder (``None`` when health is
        #: off): the completion path appends one plain tuple per task.
        self.flight = None
        self._stop = False
        self.tasks_executed = 0

    def start_backend(self, backend, make_scheduler) -> int:
        """Bring *backend*'s ``n`` workers up and build the scheduler,
        ``make_scheduler(n + 1)`` (thread 0 is the owner's); returns
        ``n``.  No loop thread exists yet, so forked children start
        from a quiet image; a start that fails half-way is stopped
        again."""

        try:
            workers = backend.start()
        except BaseException:
            backend.stop()
            raise
        self.backend = backend
        self.scheduler = make_scheduler(workers + 1)
        self._current = [None] * (workers + 1)
        return workers

    def start_workers(self, name: str) -> None:
        """One thread per backend worker: indices ``1..n`` of the
        scheduler's ``n + 1`` threads, named ``<name>-<index>``."""

        self._stop = False
        self._threads = []
        for idx in range(1, self.scheduler.num_threads):
            thread = threading.Thread(
                target=self._worker_loop, args=(idx,), name=f"{name}-{idx}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop_workers(self, timeout: Optional[float] = None) -> None:
        """Stop popping, join the workers (each finishes the task it is
        running; at most *timeout* seconds per thread), stop the
        backend.  Tasks still queued stay queued."""

        with self._sched_lock:
            self._stop = True
            self._sched_cv.notify_all()
            self._main_cv.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        # After the workers have joined no task is in flight; stop()
        # never raises, so every child is reaped and every socket
        # closed even when we got here through an exception.  The
        # stopped backend stays readable (deaths, for report()).
        self.backend.stop()

    def liveness(self) -> list[dict]:
        """The backend's per-slot rows (under processes: pid, OS-level
        alive, respawn generation); a slot is alive only while the loop
        thread driving it is too."""

        return [
            {**row, "alive": row["alive"] and thread.is_alive()}
            for row, thread in zip(self.backend.liveness(), self._threads)
        ]

    def release(self, tasks) -> None:
        """Queue *tasks* — analysed and found ready — and wake one
        worker per task."""

        with self._sched_lock:
            for task in tasks:
                self.scheduler.push_new(task)
            self._sched_cv.notify(len(tasks))

    def _worker_loop(self, idx: int) -> None:
        cv = self._sched_cv
        scheduler = self.scheduler
        spare = self.backend.max_batch - 1
        while True:
            with cv:
                while True:
                    if self._stop:
                        return
                    task = scheduler.pop(idx)
                    if task is not None:
                        self._running += 1
                        break
                    self._parked += 1
                    try:
                        cv.wait()
                    finally:
                        self._parked -= 1
                rest = self._pop_frame(task, idx, spare) if spare else None
            self._execute(task, idx, rest)

    def _pop_frame(self, task: TaskInstance, idx: int, spare: int):
        """The further ready tasks worker *idx* ships with *task* (under
        the scheduler lock), or ``None``: at most *spare*, never more
        than its fair share of what is ready, and only while the bodies
        so far are expected to fit in :data:`FRAME_SECONDS` (unknown:
        no)."""

        scheduler = self.scheduler
        expected = self.backend.expected
        share = min(spare, scheduler.ready_count // (scheduler.num_threads - 1))
        rest = []
        room = FRAME_SECONDS
        while len(rest) < share:
            took = expected(task, idx)
            if took is None or took >= room:
                break
            room -= took
            task = scheduler.pop(idx)
            if task is None:  # the live gate closed
                break
            self._running += 1
            rest.append(task)
        return rest or None

    def _execute(self, task: TaskInstance, thread: int, rest=None,
                 outcome=None) -> None:
        """Run *task* and complete it.  With *rest* (popped with it) the
        tasks cross as one frame and each is completed, through here
        with its *outcome*, as its own reply arrives."""

        backend = self.backend
        if rest is not None:
            frame = []
            for task in (task, *rest):
                if task.domain.failure is None:
                    frame.append(task)
                else:
                    self._execute(task, thread)  # retired unrun
            for task, *outcome in backend.run_frame(frame, thread):
                self._execute(task, thread, None, outcome)
            return
        domain = task.domain
        failure = None
        ran = outcome is not None or domain.failure is None
        if ran:
            self._current[thread] = task
            cause, duration = outcome or backend.run(task, thread)
            if cause is not None:
                failure = TaskExecutionError(task, cause)
            task.executed_by = thread
            self._current[thread] = None
        newly_ready, drained = domain.complete(task, failure, ran)
        flight = self.flight
        if ran and flight is not None:
            # One tuple per completion into the bounded ring, outside
            # both locks: the deque append is GIL-atomic,
            # busy[thread] has this worker as its only writer, and the
            # recorder's scalar races are benign telemetry.  Keeping
            # this off the scheduler lock keeps the health layer out of
            # the serialized completion path (the <5% overhead pin).
            # health=True implies metrics, so duration is real.
            flight.note_task(
                task.task_id, task.definition.name, thread,
                perf_counter(), duration,
            )
        with self._sched_lock:
            if ran:
                if self._task_metrics is not None:
                    name = task.definition.name
                    hist = self._task_hists.get(name)
                    if hist is None:
                        hist = self._task_metrics.histogram(
                            "task_duration_seconds", task=name
                        )
                        self._task_hists[name] = hist
                    hist.observe(duration)
                    self._m_ready_depth.observe(self.scheduler.ready_count)
                self.tasks_executed += 1
                if self._trace is not None and not backend.remote:
                    # A remote worker records its own task_start/task_end
                    # (same monotonic clock, same thread index) and ships
                    # them back with the reply: no duplicate pair here.
                    self._trace.task_end(task, thread)
            self._running -= 1
            # Batched wakeups.  Workers: one notify per released
            # successor (the completing thread re-pops without sleeping,
            # so the batch need not over-wake).  Owner's thread: a
            # single targeted notify, and only while it is actually
            # sleeping.
            if newly_ready:
                self.scheduler.push_ready_batch(newly_ready, thread)
                self._sched_cv.notify(len(newly_ready))
            if self._main_parked:
                self._main_cv.notify()
        if drained and domain.on_drained is not None:
            domain.on_drained(domain)
