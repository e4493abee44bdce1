"""The shared remote-dispatch policy, driven through a fake link.

``repro.core.backend.RemoteBackend`` owns what the process and cluster
backends used to copy from each other: ship the definition once per
link, sequence requests, and on a dead link count it, revive it, and
re-dispatch **exactly once**.  No pipe, socket or child process here —
the fake backend scripts what each read of the link brings, and
:func:`run_frame` advances the link's state the way the worker loop's
dispatcher does (``send``, then ``receive`` until nothing is in
flight), so every branch of the policy (including the "second loss"
and "cannot revive" cases the end-to-end death tests cannot reach
deterministically) is pinned.
"""

from types import SimpleNamespace

import pytest

from repro import css_task
from repro.core.backend import Link, RemoteBackend, ThreadBackend
from repro.core.execution import FRAME_SECONDS, WorkerLoop
from repro.core.invocation import plan_for
from repro.core.scheduler import SmpssScheduler
from repro.obs import MetricsRegistry


class FakeLost(RuntimeError):
    pass


class FakeRemoteError(RuntimeError):
    def __init__(self, exc_type, message, remote_traceback):
        super().__init__(f"{exc_type}: {message}")


class Refused(TypeError):
    pass


class LinkDown(Exception):
    pass


class Unshippable:
    """Stands for an argument the wire format cannot carry."""


class FakeBackend(RemoteBackend):
    """*script* says what each read of the link brings, in order:
    ``"die"``, or the next reply — ``"ok"`` or an error triple;
    *revivable* whether revival works.  ``sent`` lists every record of
    every frame, so a record that is sent again after a death shows
    twice."""

    lost_error = FakeLost
    remote_error = FakeRemoteError
    refusals = (Refused,)
    link_errors = (LinkDown,)

    def __init__(self, script, revivable=True, tracer=None):
        self.metrics = MetricsRegistry()
        self.dispatched = []
        super().__init__(
            "fake.deaths", "fake.redispatched", metrics=self.metrics,
            tracer=tracer,
            on_dispatch=lambda task, thread: self.dispatched.append(thread),
        )
        self.links = [Link(1)]
        self.script = list(script)
        self.revivable = revivable
        self.sent = []      # (seq, definition payload) per record sent
        self.frames = []    # how many records each frame carried
        self.landed = []
        self.revivals = 0

    def start(self):
        return 1

    def _encode(self, task, values, link, seq):
        if any(isinstance(v, Unshippable) for v in values):
            raise Refused(f"task {task.name!r}: cannot ship")
        payload = ("def", task.name)
        if id(task.definition) in link.sent_defs:
            payload = None
        return seq, payload, list(values)

    def fds(self, thread):
        return ()

    def _send(self, link, requests):
        self.frames.append(len(requests))
        self.sent += [(seq, payload) for seq, payload, _ in requests]
        self.inflight = [(seq, values) for seq, _, values in requests]

    def _read(self, link, fd):
        step = self.script.pop(0)
        if step == "die":
            raise LinkDown
        err = None if step == "ok" else step
        seq, values = self.inflight.pop(0)
        return [(seq, err, 0.25, ["event"], [v * 2 for v in values])]

    def _land(self, link, values, request, result):
        self.landed.append(result)

    def _revive(self, link):
        if not self.revivable:
            raise FakeLost(f"nothing left to take slot {link.slot}")
        self.revivals += 1
        link.renewed()

    def _describe(self, link):
        return f"fake worker {link.slot}"


@css_task("input(x)")
def probe_t(x):
    pass


def _task(arg=21):
    return plan_for(probe_t.definition).instantiate((arg,), {}, {})


def _counters(backend):
    return backend.deaths, backend.redispatched


def run_frame(backend, tasks, thread):
    """The dispatcher's part in one frame: send it, then read worker
    *thread*'s link until none of its records is in flight; yields
    each ``(task, cause, duration)`` as it is settled."""

    yield from backend.send(thread, tasks)
    links = backend.links
    while thread <= len(links) and links[thread - 1].pending:
        yield from backend.receive(thread, None)


def run(backend, task, thread):
    """One task as the frame of one; ``(cause, duration)``."""

    ((_task, cause, duration),) = run_frame(backend, [task], thread)
    return cause, duration


class TestRemoteDispatchPolicy:
    def test_success_lands_and_ships_definition_once_per_link(self):
        backend = FakeBackend(["ok", "ok"])
        assert run(backend, _task(), 1) == (None, 0.25)
        assert run(backend, _task(), 1) == (None, 0.25)
        assert backend.sent == [(1, ("def", "probe_t")), (2, None)]
        assert backend.landed == [[42], [42]]
        assert backend.dispatched == [1, 1]
        assert _counters(backend) == (0, 0)

    def test_first_death_revives_and_redispatches_once(self):
        backend = FakeBackend(["die", "ok"])
        assert run(backend, _task(), 1) == (None, 0.25)
        assert _counters(backend) == (1, 1)
        assert backend.revivals == 1
        assert backend.links[0].generation == 2
        # The fresh remote end is taught the definition again.
        assert backend.sent == [(1, ("def", "probe_t")), (2, ("def", "probe_t"))]
        assert backend.landed == [[42]]

    def test_second_death_gives_up_naming_the_task(self):
        backend = FakeBackend(["die", "die", "ok"])
        task = _task()
        cause, duration = run(backend, task, 1)
        assert isinstance(cause, FakeLost) and duration == 0.0
        assert f"#{task.task_id}" in str(cause)
        assert "'probe_t'" in str(cause) and "fake worker 1" in str(cause)
        assert "re-dispatched once" in str(cause)
        assert _counters(backend) == (2, 1)
        assert backend.landed == []
        # The slot was revived anyway: its next task runs normally.
        assert backend.revivals == 2
        assert run(backend, _task(), 1) == (None, 0.25)

    def test_revive_failure_is_the_lost_error(self):
        backend = FakeBackend(["die"], revivable=False)
        cause, _ = run(backend, _task(), 1)
        assert isinstance(cause, FakeLost)
        assert "nothing left to take slot 1" in str(cause)
        assert _counters(backend) == (1, 0)

    def test_unserialisable_argument_never_touches_the_link(self):
        backend = FakeBackend([])
        cause, duration = run(backend, _task(Unshippable()), 1)
        assert isinstance(cause, Refused) and duration == 0.0
        assert backend.sent == [] and backend.links[0].seq == 0
        assert _counters(backend) == (0, 0)

    def test_remote_error_is_mapped_and_nothing_lands(self):
        backend = FakeBackend([("ValueError", "bad", "tb")])
        cause, duration = run(backend, _task(), 1)
        assert isinstance(cause, FakeRemoteError) and duration == 0.25
        assert str(cause) == "ValueError: bad"
        assert backend.landed == []

    def test_piggybacked_events_reach_the_tracer(self):
        class Sink:
            def __init__(self):
                self.events = []

            def ingest(self, events):
                self.events.extend(events)

        sink = Sink()
        backend = FakeBackend(["ok"], tracer=sink)
        run(backend, _task(), 1)
        assert sink.events == ["event"]

    def test_run_never_raises(self):
        backend = FakeBackend([])  # script exhausted: a master-side bug
        cause, duration = run(backend, _task(), 1)
        assert isinstance(cause, IndexError) and duration == 0.0
        cause, _ = run(backend, _task(), 7)  # no such link
        assert isinstance(cause, IndexError)


DEF = ("def", "probe_t")


class TestFrameDispatchPolicy:
    """The list form: one send per frame, one reply per record, and a
    death charged to the record that was running."""

    def test_a_frame_is_one_send_and_lands_record_by_record(self):
        backend = FakeBackend(["ok"] * 5)
        tasks = [_task(k) for k in (1, 2, 3)]
        replies = run_frame(backend, tasks, 1)
        assert next(replies) == (tasks[0], None, 0.25)
        assert backend.landed == [[2]]      # landed as its own reply came
        assert list(replies) == [(task, None, 0.25) for task in tasks[1:]]
        assert backend.frames == [3] and backend.landed == [[2], [4], [6]]
        # No reply had confirmed the definition when the frame left.
        assert backend.sent == [(1, DEF), (2, DEF), (3, DEF)]
        assert backend.dispatched == [1, 1, 1]
        list(run_frame(backend, [_task(), _task()], 1))
        assert backend.sent[3:] == [(4, None), (5, None)]

    def test_death_at_record_k_charges_k_and_resends_the_rest(self):
        backend = FakeBackend(["ok", "die", "ok", "ok", "ok"])
        tasks = [_task(k) for k in (1, 2, 3, 4)]
        assert list(run_frame(backend, tasks, 1)) == [
            (task, None, 0.25) for task in tasks]
        # Record 0 landed once, before the death; 1 was running and is
        # re-dispatched once; 2 and 3 never started and ride with it.
        assert backend.landed == [[2], [4], [6], [8]]
        assert backend.frames == [4, 3]
        assert [seq for seq, _ in backend.sent] == [1, 2, 3, 4, 5, 6, 7]
        assert _counters(backend) == (1, 1) and backend.revivals == 1

    def test_second_death_of_one_record_fails_it_alone(self):
        backend = FakeBackend(["ok", "die", "die", "ok", "ok"])
        tasks = [_task(k) for k in (1, 2, 3, 4)]
        out = list(run_frame(backend, tasks, 1))
        assert [task for task, _, _ in out] == tasks
        assert [cause for _, cause, _ in out[:1] + out[2:]] == [None] * 3
        lost = out[1][1]
        assert isinstance(lost, FakeLost)
        assert f"#{tasks[1].task_id}" in str(lost)
        assert backend.landed == [[2], [6], [8]]
        assert backend.frames == [4, 3, 2]
        # Only the record that was running is ever charged.
        assert _counters(backend) == (2, 1) and backend.revivals == 2

    def test_body_error_mid_frame_fails_only_its_task(self):
        backend = FakeBackend(["ok", ("ValueError", "bad", "tb"), "ok"])
        tasks = [_task(k) for k in (1, 2, 3)]
        out = list(run_frame(backend, tasks, 1))
        assert [type(cause) for _, cause, _ in out] == [
            type(None), FakeRemoteError, type(None)]
        assert backend.landed == [[2], [6]] and backend.frames == [3]

    def test_refused_record_leaves_the_rest_of_the_frame_alone(self):
        backend = FakeBackend(["ok", "ok"])
        tasks = [_task(1), _task(Unshippable()), _task(3)]
        out = {task: cause for task, cause, _ in run_frame(backend, tasks, 1)}
        assert isinstance(out[tasks[1]], Refused)
        assert out[tasks[0]] is None and out[tasks[2]] is None
        assert backend.frames == [2] and backend.links[0].seq == 2

    def test_unrevivable_link_fails_every_record_left(self):
        backend = FakeBackend(["ok", "die"], revivable=False)
        tasks = [_task(k) for k in (1, 2, 3)]
        out = list(run_frame(backend, tasks, 1))
        assert out[0] == (tasks[0], None, 0.25)
        assert [type(cause) for _, cause, _ in out[1:]] == [FakeLost] * 2
        assert _counters(backend) == (1, 0)

    def test_run_frame_never_raises(self):
        backend = FakeBackend(["ok"])  # script exhausted: a master-side bug
        tasks = [_task(k) for k in (1, 2, 3)]
        out = list(run_frame(backend, tasks, 1))
        assert out[0] == (tasks[0], None, 0.25)
        assert [(task, type(cause)) for task, cause, _ in out[1:]] == [
            (tasks[1], IndexError), (tasks[2], IndexError)]

    def test_expected_is_the_duration_the_last_reply_reported(self):
        backend = FakeBackend(["ok", ("ValueError", "bad", "tb")])
        assert backend.expected(_task(), 1) is None
        run(backend, _task(), 1)
        assert backend.expected(_task(), 1) == 0.25
        run(backend, _task(), 1)     # a body that raised reports no time
        assert backend.expected(_task(), 1) == 0.25


class TestFramePolicy:
    """``WorkerLoop._pop_frame``: how many ready tasks join the one a
    worker popped — its fair share, within the expected-time budget."""

    def _pop(self, ready, expected, spare=7, threads=3):
        loop = WorkerLoop()
        loop.scheduler = SmpssScheduler(threads)
        loop.backend = SimpleNamespace(expected=lambda task, thread: expected)
        for _ in range(ready):
            loop.scheduler.push_new(_task())
        first = loop.scheduler.pop(1)
        rest = loop._pop_frame(first, 1, spare)
        assert loop._running == len(rest or ())
        assert loop.scheduler.ready_count == ready - 1 - len(rest or ())
        return rest

    def test_frame_is_capped_by_max_batch_and_by_the_fair_share(self):
        assert len(self._pop(20, 2e-6)) == 7            # max_batch - 1
        assert len(self._pop(9, 2e-6)) == 4             # 8 left, 2 workers
        assert len(self._pop(3, 2e-6)) == 1
        assert self._pop(2, 2e-6) is None               # leave it to the other
        assert self._pop(1, 2e-6) is None
        assert len(self._pop(9, 2e-6, threads=2)) == 7  # one worker: all its

    def test_frame_is_capped_by_expected_body_time(self):
        assert self._pop(20, None) is None              # unknown: ship alone
        assert self._pop(20, FRAME_SECONDS) is None
        assert self._pop(20, 1e-3) is None
        assert len(self._pop(20, 0.6 * FRAME_SECONDS)) == 1
        assert len(self._pop(20, 0.3 * FRAME_SECONDS)) == 3


class TestThreadBackend:
    def test_run_returns_the_body_exception_as_cause(self):
        @css_task("input(x)")
        def boom_t(x):
            raise ValueError("boom")

        backend = ThreadBackend(2)
        assert backend.start() == 2 and not backend.remote
        task = plan_for(boom_t.definition).instantiate((1,), {}, {})
        cause, duration = backend.run(task, 1)
        assert isinstance(cause, ValueError) and duration >= 0.0
        assert backend.run(_task(), 1)[0] is None
        assert backend.deaths == 0 and backend.placement is None
        assert [w["slot"] for w in backend.liveness()] == [1, 2]


def test_config_names_resolve_through_the_factory_table():
    from repro import RuntimeConfig
    from repro.core.backend import make_backend

    backend = make_backend(
        RuntimeConfig(num_workers=3), metrics=MetricsRegistry())
    assert isinstance(backend, ThreadBackend) and backend.start() == 3
    with pytest.raises(KeyError):
        make_backend(RuntimeConfig(backend="gpu"), metrics=MetricsRegistry())
