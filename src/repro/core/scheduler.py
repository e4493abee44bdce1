"""The SMPSs ready-task scheduler (section III).

Shared verbatim by the threaded runtime and the discrete-event machine
simulator — both drive the exact same policy object, so the simulated
figures exercise the code path the real runtime uses.

Policy, quoting the paper:

* "There are two main ready lists, one for high priority tasks and one
  for normal priority tasks."
* "Each worker thread has its own ready list that contains tasks whose
  last input dependency has been removed by that thread."
* "Threads look up ready tasks first in the high priority list.  If it
  is empty, then they look up their own ready list.  If they do not
  succeed, they proceed to check out the main ready list.  In case of
  failure, they proceed to steal work from other threads in creation
  order starting from the next one."
* "Threads consume tasks from their own list in LIFO order, they get
  tasks from the main list in FIFO order, and they steal from other
  threads in FIFO order."

The LIFO-own / FIFO-steal combination walks the graph pseudo-depth-first
per thread and steals pseudo-breadth-first, keeping threads on disjoint
graph regions (cache-friendly) — the same discipline as Cilk, with a
locality motivation (section VII.D).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

from .task import TaskInstance, TaskState

__all__ = [
    "SmpssScheduler",
    "SchedulerStats",
    "CentralQueueScheduler",
    "HotStealScheduler",
    "DispatchGate",
]


@dataclass
class SchedulerStats:
    pushed_new: int = 0
    pushed_unlocked: int = 0
    pops_high: int = 0
    pops_local: int = 0
    pops_main: int = 0
    steals: int = 0
    #: Pushes routed by the placement hook (``scheduler.placement``)
    #: to a specific thread's list instead of the policy default.
    placed: int = 0
    failed_pops: int = 0
    #: Pop attempts that ended in the steal scan finding every victim
    #: deque empty.  The fast empty-check in :meth:`SmpssScheduler.pop`
    #: stands in for that full scan, so its failures count here too.
    failed_steals: int = 0
    #: Per-thread breakdowns (thread index -> count).
    pops_by_thread: Counter = field(default_factory=Counter)
    steals_by_thief: Counter = field(default_factory=Counter)
    steals_by_victim: Counter = field(default_factory=Counter)
    failed_pops_by_thread: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        """Flat dict form, the shape :class:`~repro.obs.MetricsRegistry`
        ingests (satellite of the observability issue: stats travel
        through the registry, not ad-hoc dataclass reads)."""

        return {
            name: dict(value) if isinstance(value, Counter) else value
            for name, value in vars(self).items()
        }


class DispatchGate:
    """Debugger control over the worker dispatch point (``repro.live``).

    :meth:`SmpssScheduler.pop` consults the gate *under the scheduler
    lock* before committing a selection: while paused it returns
    ``None`` and threads park as on an empty queue (no spinning);
    ``step(n)`` grants *n* dispatch tickets; breakpoints (task-type name
    or task id) hold a matching task *before* it starts and pause the
    whole runtime.  :meth:`admit` and :meth:`should_hold` run with that
    lock held and touch plain fields only; the control methods, for
    other threads (the live server, a REPL), take the lock themselves
    and wake parked threads — worker threads, or a remote backend's
    dispatcher — through the conditions registered with :meth:`bind`.
    """

    def __init__(self):
        self.paused = False
        #: ``paused or breakpoints exist``.  The gate occupies a
        #: scheduler's ``gate`` slot only while engaged (:meth:`install`),
        #: so an idle live session costs dispatch one ``None`` check.
        self.engaged = False
        self._schedulers: list = []
        #: Dispatch tickets granted by :meth:`step` (consumed by
        #: :meth:`admit` while paused).
        self.step_budget = 0
        self.break_names: set[str] = set()
        self.break_ids: set[int] = set()
        #: Task ids already held once: the next dispatch of that very
        #: instance passes the breakpoint (step/resume run *through* it
        #: rather than re-holding forever).
        self._skip_ids: set[int] = set()
        #: Breakpoint holds so far (monotonic; a "hits" counter).
        self.holds = 0
        #: Optional ``fn(task)`` invoked on a breakpoint hold, *under
        #: the scheduler lock* — must be fast and lock-free (the live
        #: session uses it to enqueue a "paused at breakpoint" note).
        self.on_hold = None
        self._lock = threading.Lock()
        self._cvs: tuple = ()

    def bind(self, lock, *cvs) -> None:
        """Adopt the runtime's scheduler lock and the condition
        variables parked threads wait on (notified on resume/step)."""

        self._lock = lock
        self._cvs = tuple(cv for cv in cvs if cv is not None)

    def install(self, scheduler) -> None:
        """Manage *scheduler*'s ``gate`` slot from now on.

        The slot holds this gate only while :attr:`engaged`; control
        methods flip it under the bound lock, so workers mid-``pop``
        never observe a half-configured gate.  A gate assigned to
        ``scheduler.gate`` directly (without ``install``) also works —
        it is simply consulted on every pop, engaged or not.
        """

        self._schedulers.append(scheduler)
        scheduler.gate = self if self.engaged else None

    # -- scheduler side (lock already held) -----------------------------
    def admit(self) -> bool:
        """May the calling thread dispatch one task right now?"""

        if not self.paused:
            return True
        if self.step_budget > 0:
            self.step_budget -= 1
            return True
        return False

    def should_hold(self, task) -> bool:
        """Breakpoint check for a just-selected *task*.

        Returns ``True`` when the task must be held at the boundary (the
        caller requeues it at the head of the ready lists); as a side
        effect the runtime pauses.  A task that was already held once is
        let through (and forgotten), so a subsequent ``step``/``resume``
        executes it instead of re-holding.
        """

        if not self.break_names and not self.break_ids:
            return False
        task_id = task.task_id
        if task_id in self._skip_ids:
            self._skip_ids.discard(task_id)
            return False
        if task.name in self.break_names or task_id in self.break_ids:
            self._skip_ids.add(task_id)
            self.paused = True
            self.holds += 1
            on_hold = self.on_hold
            if on_hold is not None:
                on_hold(task)
            return True
        return False

    # -- control side (takes the lock itself) ---------------------------
    def _notify(self, n: Optional[int] = None) -> None:
        for cv in self._cvs:
            if n is None:
                cv.notify_all()
            else:
                cv.notify(n)

    def _engage(self) -> None:
        """Recompute :attr:`engaged` and (un)install accordingly."""

        self.engaged = bool(self.paused or self.break_names or self.break_ids)
        for scheduler in self._schedulers:
            scheduler.gate = self if self.engaged else None

    def pause(self) -> None:
        with self._lock:
            self.paused = True
            self._engage()

    def resume(self) -> None:
        """Drop the gate: clear pause and any unused step budget."""

        with self._lock:
            self.paused = False
            self.step_budget = 0
            self._engage()
            self._notify()

    def step(self, n: int = 1) -> None:
        """Grant *n* dispatch tickets (pauses first if free-running).

        A ticket is consumed by the dispatch *attempt* — a breakpoint
        hold eats one, so ``step(5)`` at a fresh breakpoint runs the
        held task plus three more.
        """

        if n < 1:
            raise ValueError("step(n) needs n >= 1")
        with self._lock:
            self.paused = True
            self._engage()
            self.step_budget += n
            self._notify(n)

    def add_break(self, name: Optional[str] = None,
                  task_id: Optional[int] = None) -> None:
        if name is None and task_id is None:
            raise ValueError("breakpoint needs a task-type name or a task id")
        with self._lock:
            if name is not None:
                self.break_names.add(name)
            if task_id is not None:
                self.break_ids.add(int(task_id))
            self._engage()

    def clear_breaks(self) -> None:
        with self._lock:
            self.break_names.clear()
            self.break_ids.clear()
            self._skip_ids.clear()
            self._engage()

    def state(self) -> dict:
        """Plain-data control state (for snapshots; lock-free read of
        scalar fields, consistent enough for display)."""

        return {
            "paused": self.paused,
            "step_budget": self.step_budget,
            "break_names": sorted(self.break_names),
            "break_ids": sorted(self.break_ids),
            "holds": self.holds,
        }


class SmpssScheduler:
    """Ready lists + the section III selection policy.

    Thread index 0 is the main thread (which "also contributes to run
    tasks" while blocked); 1..num_workers are the worker threads.  The
    structure is *not* internally locked — the owning runtime serialises
    access (threaded backend) or is single-threaded (simulator).
    """

    def __init__(self, num_threads: int, tracer=None):
        if num_threads < 1:
            raise ValueError("need at least the main thread")
        self.num_threads = num_threads
        self.high: deque[TaskInstance] = deque()
        self.main: deque[TaskInstance] = deque()
        self.locals: list[deque[TaskInstance]] = [deque() for _ in range(num_threads)]
        self.stats = SchedulerStats()
        self.tracer = tracer
        #: Optional :class:`DispatchGate` (``repro.live``); ``None`` —
        #: the default — costs one attribute load per pop.
        self.gate: Optional[DispatchGate] = None
        #: Optional locality hook ``fn(task) -> thread_index | None``
        #: (``repro.dist`` installs one that prefers the node already
        #: holding the most input bytes).  Consulted on every normal-
        #: priority push *under the owner's lock*; returning a thread
        #: index routes the task onto that thread's own list, ``None``
        #: keeps the paper's default (main list / unlocking thread).
        #: High-priority tasks are never placed — the paper schedules
        #: them "independently of any locality consideration".
        self.placement = None
        self._ready_count = 0

    def push_new(self, task: TaskInstance) -> None:
        """A task added to the graph with no unsatisfied dependency.

        "Whenever a task is added without any input dependency, it is
        moved into the main ready list or the high priority list."
        """

        task.state = TaskState.READY
        if task.high_priority:
            self.high.append(task)
        else:
            target = None
            if self.placement is not None:
                target = self.placement(task)
            if target is None:
                self.main.append(task)
            else:
                self._own(target).append(task)
                self.stats.placed += 1
        self.stats.pushed_new += 1
        self._ready_count += 1
        if self.tracer:
            self.tracer.task_ready(task)

    def push_unlocked(self, task: TaskInstance, thread: int) -> None:
        """A task whose last dependency was removed by *thread*: the
        one-task case of :meth:`push_ready_batch`."""

        self.push_ready_batch((task,), thread)

    def push_ready_batch(self, tasks, thread: int) -> None:
        """All tasks released by one completion on *thread*, together.

        High-priority tasks are "scheduled as soon as possible
        independently of any locality consideration", so they go to the
        global high list; others go to the unlocking thread's own list.
        The worker loop pushes a whole completion's worth of unlocked
        successors at once, in the section that pops its next task.
        """

        own = self._own(thread)
        high = self.high
        stats = self.stats
        tracer = self.tracer
        placement = self.placement
        for task in tasks:
            task.state = TaskState.READY
            if task.high_priority:
                high.append(task)
            elif placement is None:
                own.append(task)
            else:
                target = placement(task)
                if target is None:
                    own.append(task)
                else:
                    self._own(target).append(task)
                    if target != thread:
                        stats.placed += 1
            if tracer:
                tracer.task_ready(task, thread)
        stats.pushed_unlocked += len(tasks)
        self._ready_count += len(tasks)

    def _own(self, thread: int) -> deque:
        """The list tasks unlocked by (or placed on) *thread* go to."""

        return self.locals[thread]

    def pop(self, thread: int) -> Optional[TaskInstance]:
        """Pick the next task for *thread* according to the policy."""

        if self._ready_count == 0:
            self.stats.failed_pops += 1
            self.stats.failed_pops_by_thread[thread] += 1
            # Every list being empty means the steal scan would have
            # come up dry as well — the fast path subsumes it.
            self.stats.failed_steals += 1
            return None
        gate = self.gate
        # An installed gate occupies this slot only while engaged
        # (DispatchGate.install), so a live session with nothing
        # paused/held costs exactly one None check here — the
        # microbench pins it at <5% over live=False.
        if gate is not None:
            if not gate.admit():
                # Paused: no stats — this is a debugger hold, not a
                # scheduling failure.  The caller parks on its cv.
                return None
            task = self._select(thread)
            if task is not None and gate.should_hold(task):
                # Held at the boundary: requeue at the head of the high
                # list so the held task is the next dispatch once the
                # user steps/resumes.  (The per-list pop counter above
                # already counted the aborted selection — a known,
                # documented skew while a debugger holds tasks.)
                self.high.appendleft(task)
                return None
        else:
            task = self._select(thread)
        if task is None:
            self.stats.failed_pops += 1
            self.stats.failed_pops_by_thread[thread] += 1
            return None
        task.state = TaskState.RUNNING
        self._ready_count -= 1
        self.stats.pops_by_thread[thread] += 1
        return task

    def _select(self, thread: int) -> Optional[TaskInstance]:
        if self.high:
            self.stats.pops_high += 1
            return self.high.popleft()  # FIFO
        own = self.locals[thread]
        if own:
            self.stats.pops_local += 1
            return own.pop()  # LIFO
        if self.main:
            self.stats.pops_main += 1
            return self.main.popleft()  # FIFO
        # Steal in creation order starting from the next thread, FIFO —
        # the task "that has spent most time on the queue and has more
        # probability of having most of its input data already evicted
        # from the cache" of the victim.
        for offset in range(1, self.num_threads):
            victim = (thread + offset) % self.num_threads
            queue = self.locals[victim]
            if queue:
                self.stats.steals += 1
                self.stats.steals_by_thief[thread] += 1
                self.stats.steals_by_victim[victim] += 1
                task = self._steal_from(queue)
                if self.tracer:
                    self.tracer.steal(task, thief=thread, victim=victim)
                return task
        self.stats.failed_steals += 1
        return None

    #: Which end of the victim's deque a thief takes: FIFO, see above.
    _steal_from = staticmethod(deque.popleft)

    @property
    def ready_count(self) -> int:
        return self._ready_count

    def has_ready(self) -> bool:
        return self._ready_count > 0

    def has_own(self, thread: int) -> bool:
        """Whether *thread* finds a task without stealing one."""

        return bool(self.high or self.main or self._own(thread))

    def queue_depths(self) -> dict:
        """Instantaneous per-list depths (read under the owner's lock).

        One source of truth for both the live dashboard snapshots and
        the ``scheduler.*_depth`` gauges the runtime publishes.
        """

        return {
            "high": len(self.high),
            "main": len(self.main),
            "locals": [len(queue) for queue in self.locals],
        }

    def queue_imbalance(self) -> tuple[int, float]:
        """``(deepest_local_depth, its_share_of_all_ready)``.

        The health watchdog's imbalance signal: a single per-thread LIFO
        hoarding most of the ready work while other threads would have
        to steal one-by-one.  Racy read (the watchdog samples without
        the scheduler lock); both values are display/diagnosis numbers,
        never control flow inside the scheduler.
        """

        total = self._ready_count
        if total <= 0 or not self.locals:
            return (0, 0.0)
        deepest = max(len(queue) for queue in self.locals)
        return (deepest, deepest / max(1, total))


class HotStealScheduler(SmpssScheduler):
    """Ablation: steal from the LIFO (hot) end of the victim's deque.

    The paper steals in FIFO order "to minimize the effect on the cache
    of the victim thread by choosing the task that has spent most time
    on the queue".  This variant steals the task the victim would run
    next — maximising cache disturbance — so the benefit of the FIFO
    choice can be measured (``benchmarks/bench_ablations.py``).
    """

    _steal_from = staticmethod(deque.pop)


class CentralQueueScheduler(SmpssScheduler):
    """Ablation: a single global FIFO ready queue, no locality lists.

    Models the CellSs / SuperMatrix organisation the paper contrasts
    with in section VII ("SuperMatrix has a central ready queue", "CellSs
    has a unique queue and does not employ work-stealing").  The same
    push/pop/gate code as :class:`SmpssScheduler` with no per-thread
    lists: every normal-priority task goes to, and comes from, ``main``.
    """

    def __init__(self, num_threads: int, tracer=None):
        super().__init__(num_threads, tracer)
        self.locals = []

    def _own(self, thread: int) -> deque:
        return self.main

    def _select(self, thread: int) -> Optional[TaskInstance]:
        source = self.high or self.main
        if not source:
            return None
        self.stats.pops_main += 1
        return source.popleft()  # FIFO, whichever thread asks
