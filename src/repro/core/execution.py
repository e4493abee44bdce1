"""Dependency domains and the one worker loop that executes them.

Section III states one execution rule: "whenever a thread has finished
running a task, it updates the graph and moves all tasks that have
become ready to that thread ready list".  This module is that rule's
only implementation.  A :class:`GraphDomain` is one isolated dependency
graph behind its own lock; a :class:`WorkerLoop` pops ready tasks from
one scheduler, hands each to the execution backend, completes it in
*the task's* domain (``task.domain``, set at analysis) and pushes the
released successors — from a thread per worker, or, for a remote
backend, from one dispatcher thread for all of them.
:class:`~repro.core.runtime.SmpssRuntime` is the loop over a single
domain with the main thread helping; the task-graph service
(:mod:`repro.serve`) drives it over one domain per submitted graph.

Locking: ``domain.lock`` serialises one domain's tracker analysis and
graph completion and never blocks on the scheduler (domains share
nothing, so two never contend); ``_sched_lock`` serialises the ready
lists, the running count and all sleeping/wakeup traffic.  A
submission and the workers meet only for the brief ready-list push.
A worker publishes a completion and pops its own next task in one
scheduler-lock section, and wakes parked workers only: at most one
per released successor it does not take itself, none while no worker
sleeps.
"""

from __future__ import annotations

import os
import select
import threading
from time import perf_counter
from typing import Callable, Optional

from .dependencies import DependencyTracker, TrackerConfig
from .graph import TaskGraph
from .task import TaskInstance, TaskState

__all__ = ["GraphDomain", "TaskExecutionError", "WorkerLoop"]

#: Expected body time (seconds) a frame may hold: about one remote
#: dispatch, what sharing a message saves per task; longer bodies gain
#: nothing and would hide from the other workers meanwhile.
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
    namespace and memory accounting); every mutation holds ``lock`` for
    one call, and readiness is decided under it, so a completion racing
    an analysis never double-releases a task.  ``failure`` is the first
    reason the domain stopped (a :class:`TaskExecutionError`, or what
    the owner passed to :meth:`fail`); a task of a failed domain is
    retired unrun, so it still drains.  *on_drained* is called with the
    domain, outside every lock, by the completion that left it with
    nothing pending.  *release_eagerly* frees dead renamed buffers at
    every completion instead of at :meth:`write_back`.  ``executed``
    counts the tasks whose body ran.
    """

    def __init__(self, *, tracker_config: Optional[TrackerConfig] = None,
                 tracer=None, keep_finished: bool = False,
                 release_eagerly: bool = True,
                 on_drained: Optional[Callable[["GraphDomain"], None]] = None):
        self.lock = threading.Lock()
        self.graph = TaskGraph(keep_finished=keep_finished, tracer=tracer)
        self.tracker = DependencyTracker(
            self.graph, config=tracker_config or TrackerConfig(), tracer=tracer)
        self.release_eagerly = release_eagerly
        self.on_drained = on_drained
        self.failure: Optional[BaseException] = None
        self.executed = 0

    def analyze(self, task: TaskInstance) -> bool:
        """Add *task* to the domain; ``True`` when it is ready now.
        Decided under the lock, where completions change
        ``num_pending_deps``: read outside it, a worker completing the
        last predecessor in between would push the task too (twice run)."""

        task.domain = self
        with self.lock:
            self.tracker.analyze(task)
            return task.num_pending_deps == 0

    def complete(self, task: TaskInstance,
                 failure: Optional[BaseException] = None,
                 ran: bool = True) -> tuple[list, bool]:
        """Retire *task* (``ran=False``: unrun, its domain had failed);
        ``(newly_ready, drained)``.  A *failure* is recorded before the
        successors are released, so none of them can run ahead of it."""

        with self.lock:
            self.executed += ran
            if failure is not None and self.failure is None:
                self.failure = failure
            newly_ready = self.graph.complete(task)
            if self.release_eagerly:
                self.tracker.release_after(task)
            return newly_ready, self.graph._pending == 0

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


class _Wake:
    """The dispatcher's stand-in for the workers' condition: a notify
    (a release, the live gate, a stop; all under the scheduler lock)
    writes to the wake pipe only while the dispatcher sleeps."""

    def __init__(self):
        self.fd, self._write = os.pipe()
        self.armed = False

    def notify(self, n: int = 1) -> None:
        if self.armed:
            self.armed = False
            os.write(self._write, b"w")

    notify_all = notify


class WorkerLoop:
    """Loop threads executing ready tasks of any number of domains.

    The owner supplies, at :meth:`start_backend`, an
    :class:`~repro.core.backend.ExecutionBackend` and the scheduler to
    build once the fleet's size is known; then it analyses tasks into
    :class:`GraphDomain` s, hands the ready ones to :meth:`release`, and
    the loop does the rest.  Thread 0 is the owner's; it may
    :meth:`_execute` a task it popped itself (main-thread helping).
    *metrics* receives per-task duration and ready-depth histograms
    (``None``: none), written inline under the scheduler lock (see
    :class:`~repro.obs.metrics.HistogramMetric`); *tracer* the
    ``task_end`` of a body run on a loop thread.
    """

    def __init__(self, metrics=None, tracer=None):
        #: Both ``None`` until :meth:`start_backend`.
        self.scheduler = None
        self.backend = None
        self._task_metrics = metrics
        self._task_hists: dict = {}
        self._m_ready_depth = (None if metrics is None
                               else metrics.histogram("ready_queue_depth"))
        self._trace = tracer
        self._threads: list[threading.Thread] = []
        #: Workers sleep on ``_sched_cv`` (a dispatcher polls a
        #: :class:`_Wake` instead), the owner's thread on ``_main_cv``,
        #: woken per completion while it waits (any can end its wait).
        self._sched_lock = threading.Lock()
        self._sched_cv = threading.Condition(self._sched_lock)
        self._main_cv = threading.Condition(self._sched_lock)
        self._main_parked = False
        self._running = 0
        #: Worker threads blocked in ``cv.wait()`` (the live dashboard's
        #: "parked"; the main thread's waiting is ``_main_parked``).
        self._parked = 0
        #: Per-thread task running (``None``: idle), written only by the
        #: thread driving the slot; readers take a racy glance.
        self._current: list = []
        #: Bodies run, per thread index: one writer each, so no lock.
        self._executed: list = [0]
        #: The health monitor's flight recorder (``None`` when health is
        #: off): the completion path appends one plain tuple per task.
        self.flight = None
        self._stop = False
        #: What killed the dispatcher (``None``: it lives, or never ran).
        self._died: Optional[BaseException] = None

    @property
    def tasks_executed(self) -> int:
        return sum(self._executed)

    def start_backend(self, backend, make_scheduler) -> int:
        """Bring *backend*'s ``n`` workers up (before any loop thread,
        so forked children start from a quiet image; a start failing
        half-way is stopped again) and build the scheduler,
        ``make_scheduler(n + 1)`` (thread 0 is the owner's); ``n``."""

        try:
            workers = backend.start()
        except BaseException:
            backend.stop()
            raise
        self.backend = backend
        self.scheduler = make_scheduler(workers + 1)
        self._current = [None] * (workers + 1)
        self._executed = [0] * (workers + 1)
        self._sched_cv = (_Wake() if backend.remote
                          else threading.Condition(self._sched_lock))
        return workers

    def start_workers(self, name: str) -> None:
        """One thread per backend worker — indices ``1..n`` of the
        scheduler's ``n + 1`` threads, named ``<name>-<index>`` — or
        one dispatcher, ``<name>-dispatch``, for a remote backend."""

        self._stop = False
        threads, self._threads = [
            threading.Thread(target=self._dispatch_loop,
                             name=f"{name}-dispatch", daemon=True)
        ] if self.backend.remote else [
            threading.Thread(target=self._worker_loop, args=(idx,),
                             name=f"{name}-{idx}", daemon=True)
            for idx in range(1, self.scheduler.num_threads)
        ], []
        for thread in threads:  # stop_workers joins only started ones
            thread.start()
            self._threads.append(thread)

    def stop_workers(self, timeout: Optional[float] = None) -> None:
        """Stop popping, join the loop threads (at most *timeout* s each;
        running tasks finish, queued ones stay), stop the backend."""

        with self._sched_lock:
            self._stop = True
            self._sched_cv.notify_all()
            self._main_cv.notify_all()
        for thread in self._threads:
            thread.join(timeout)
        wake = self._sched_cv
        if isinstance(wake, _Wake) and wake.fd is not None:
            os.close(wake.fd)
            os.close(wake._write)
            wake.fd = None
        # Nothing in flight now.  stop() never raises (every child reaped,
        # every socket closed); the stopped backend stays readable.
        if self.backend is not None:  # None: its start failed
            self.backend.stop()

    def liveness(self) -> list[dict]:
        """The backend's per-slot rows (under processes: pid, OS-level
        alive, respawn generation); a slot is alive only while the loop
        thread driving it (its own, or the dispatcher) is too."""

        rows = self.backend.liveness()
        threads = self._threads * (len(rows) if self.backend.remote else 1)
        return [{**row, "alive": row["alive"] and thread.is_alive()}
                for row, thread in zip(rows, threads)]

    def release(self, tasks) -> None:
        """Queue *tasks*, analysed and found ready; wake up to one parked
        worker per task (a remote backend's dispatcher: always)."""

        with self._sched_lock:
            if self._died is None:
                for task in tasks:
                    self.scheduler.push_new(task)
                if self._parked or self.backend.remote:
                    self._sched_cv.notify(len(tasks))
                return
        self._drain(list(tasks), self._died)  # nobody left to run them

    def _worker_loop(self, idx: int) -> None:
        cv = self._sched_cv
        scheduler = self.scheduler
        execute = self._execute
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
            while task is not None:
                task = execute(task, idx)

    def _execute(self, task: TaskInstance, thread: int,
                 take: bool = True) -> Optional[TaskInstance]:
        """Run *task* on this thread and complete it; return the next
        task popped for it in the same scheduler-lock section, if *take*."""

        domain = task.domain
        failure = None
        ran = domain.failure is None
        if ran:
            self._current[thread] = task
            cause, duration = self.backend.run(task, thread)
            if cause is not None:
                failure = TaskExecutionError(task, cause)
            task.executed_by = thread
            self._current[thread] = None
            # Counted and traced before the completion that may let a
            # barrier return.
            self._executed[thread] += 1
            if self._trace is not None:
                self._trace.task_end(task, thread)
        newly_ready, drained = domain.complete(task, failure, ran)
        if ran and self.flight is not None:
            # Outside both locks: the ring append is GIL-atomic and
            # busy[thread] has one writer (the <5% health overhead pin).
            self.flight.note_task(task.task_id, task.definition.name,
                                  thread, perf_counter(), duration)
        scheduler = self.scheduler
        with self._sched_lock:
            if ran and self._task_metrics is not None:
                # HistogramMetric.observe, inline: no call per task.
                name = task.definition.name
                hist = self._task_hists.get(name) or self._task_hist(name)
                for hist, value in ((hist, duration), (self._m_ready_depth,
                                                       scheduler._ready_count)):
                    raw = hist._raw
                    raw.append(value)
                    if len(raw) >= hist._FOLD_AT:
                        hist._fold()
            if newly_ready:
                scheduler.push_ready_batch(newly_ready, thread)
            nxt = scheduler.pop(thread) if take and not self._stop else None
            took = nxt is not None
            self._running += took - 1
            # Parked workers only, one per released task not taken here;
            # the owner only if asleep.
            if self._parked and len(newly_ready) > took:
                self._sched_cv.notify(len(newly_ready) - took)
            if self._main_parked:
                self._main_cv.notify()
        if drained and domain.on_drained is not None:
            domain.on_drained(domain)
        return nxt

    def _task_hist(self, name: str):
        hist = self._task_hists[name] = self._task_metrics.histogram(
            "task_duration_seconds", task=name)
        return hist

    def _dispatch_loop(self) -> None:
        """Drive every worker of a remote backend from this one thread:
        each :meth:`_turn` completes the last outcomes and sends a frame
        to every idle link, then the loop sleeps in one poll over every
        link and the wake pipe and reads each readable link once.  No
        task is referenced while it sleeps (a dropped array must die at
        its barrier).  An exception escaping the loop: :meth:`_abort`."""

        backend, wake = self.backend, self._sched_cv
        poller = select.poll()
        poller.register(wake.fd, select.POLLIN)
        owner: dict = {}    # fd -> the thread index of its link
        watched: dict = {}  # thread index -> its fds registered

        def settled(thread: int, outcomes: list) -> list:
            fds = backend.fds(thread)
            if fds != watched.get(thread, ()):
                for fd in watched.get(thread, ()):
                    poller.unregister(fd)
                    del owner[fd]
                for fd in fds:
                    poller.register(fd, select.POLLIN)
                    owner[fd] = thread
                watched[thread] = fds
            pending = backend.links[thread - 1].pending
            self._current[thread] = pending[0][0] if pending else None
            return [(task, thread, cause, duration, True)
                    for task, cause, duration in outcomes]

        done: list = []  # (task, thread, cause, duration, ran)
        try:
            for link in backend.links:
                settled(link.slot, ())
            while (done := self._turn(done, settled)) is not None:
                read = set()
                for fd, _event in poller.poll(0 if done else None):
                    thread = owner.get(fd)  # None: a link revived since
                    if fd == wake.fd:
                        os.read(fd, 64)
                    elif thread is not None and thread not in read:
                        read.add(thread)  # one read per link per wake-up
                        done += settled(thread, backend.receive(thread, fd))
                wake.armed = False
        except BaseException as exc:  # noqa: BLE001 - the barrier raises it
            self._abort(exc, [entry[0] for entry in done])

    def _abort(self, exc: BaseException, stranded: list) -> None:
        """The dispatcher dies of *exc*: retire what it held unrun
        (*stranded*, the links' records, the ready lists), stop, and
        wake the owner, whose barrier raises *exc* instead of hanging."""

        with self._sched_lock:
            self._stop, self._died = True, exc
            for link in self.backend.links:
                stranded += [record[0] for record in link.pending]
                link.pending.clear()
            while (task := self.scheduler.pop(0)) is not None:
                stranded.append(task)
        try:
            self._drain(stranded, exc)
        finally:
            with self._sched_lock:
                self._main_cv.notify_all()

    def _drain(self, tasks: list, exc: BaseException) -> None:
        """Fail the domains of *tasks* with *exc*; retire them, and each
        successor that releases, unrun, so every domain drains."""

        for task in tasks:
            task.domain.fail(exc)
        while tasks:
            released, drained = self._retire([
                (task, 0, None, 0.0, False) for task in tasks
                if task.state is not TaskState.FINISHED])
            for domain in drained:
                domain.on_drained(domain)
            tasks = [task for _, ready in released for task in ready]

    def _turn(self, done: list, settled):
        """Complete *done* and pop a frame for every idle link with its
        thread index (§III's ready lists, placement and stealing as
        ever) under one scheduler-lock acquisition, then send them; the
        outcomes known at once (a failed domain's tasks retired unrun,
        refusals), or ``None`` once stopped with nothing in flight."""

        released, drained = self._retire(done) if done else ((), ())
        links, scheduler = self.backend.links, self.scheduler
        spare = self.backend.max_batch - 1
        frames = {}
        with self._sched_lock:
            if self._task_metrics is not None:
                for task, _, _, duration, ran in done:
                    if ran:
                        name = task.definition.name
                        (self._task_hists.get(name) or self._task_hist(name)
                         ).observe(duration)
                        self._m_ready_depth.observe(scheduler.ready_count)
            self._running -= len(done)
            for thread, ready in released:
                scheduler.push_ready_batch(ready, thread)
            if done and self._main_parked:
                self._main_cv.notify()
            stopping = self._stop
            idle = [] if stopping else [
                link.slot for link in links if not link.pending]
            # Every idle link's own work (high, own, main) before any
            # link steals: a steal that could wait breaks placement.
            for steal in (False, True):
                for slot in idle:
                    if slot in frames or not scheduler.has_ready() or not (
                            steal or scheduler.has_own(slot)):
                        continue
                    task = scheduler.pop(slot)
                    if task is not None:
                        self._running += 1
                        rest = spare and self._pop_frame(
                            task, slot, spare, steal)
                        frames[slot] = [task, *(rest or ())]
            # A release or the gate writes the wake pipe only if one idles.
            self._sched_cv.armed = len(frames) < len(idle)
        for domain in drained:
            domain.on_drained(domain)
        if stopping and not any(link.pending for link in links):
            return None
        done = []
        for thread, tasks in frames.items():
            ship = [task for task in tasks if task.domain.failure is None]
            done += [(task, thread, None, 0.0, False) for task in tasks
                     if task.domain.failure is not None]
            if ship:
                done += settled(thread, self.backend.send(thread, ship))
        return done

    def _pop_frame(self, task: TaskInstance, idx: int, spare: int,
                   steal: bool = True):
        """The further ready tasks worker *idx* ships with *task* (under
        the scheduler lock), or ``None``: at most *spare* and its fair
        share, while the bodies are expected to fit :data:`FRAME_SECONDS`
        (unknown: no), stolen ones only if *steal*."""

        scheduler = self.scheduler
        expected = self.backend.expected
        share = min(spare, scheduler.ready_count // (scheduler.num_threads - 1))
        rest = []
        room = FRAME_SECONDS
        while len(rest) < share:
            took = expected(task, idx)
            if took is None or took >= room or not (
                    steal or scheduler.has_own(idx)):
                break
            room -= took
            task = scheduler.pop(idx)
            if task is None:  # the live gate closed
                break
            self._running += 1
            rest.append(task)
        return rest or None

    def _retire(self, done: list) -> tuple[list, list]:
        """Count *done* (its task_end came with the reply) and complete
        it; ``(thread, newly_ready)`` pairs and the drained domains."""

        released, drained = [], []
        for task, thread, cause, duration, ran in done:
            failure = None
            if ran:
                if cause is not None:
                    failure = TaskExecutionError(task, cause)
                task.executed_by = thread
                self._executed[thread] += 1
            domain = task.domain
            ready, empty = domain.complete(task, failure, ran)
            if ready:
                released.append((thread, ready))
            if empty and domain.on_drained is not None:
                drained.append(domain)
        if self.flight is not None:
            now = perf_counter()
            for task, thread, _, duration, ran in done:
                if ran:
                    self.flight.note_task(task.task_id, task.definition.name,
                                          thread, now, duration)
        return released, drained
