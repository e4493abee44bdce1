"""The shared remote-dispatch policy, driven through a fake link.

``repro.core.backend.RemoteBackend`` owns what the process and cluster
backends used to copy from each other: ship the definition once per
link, sequence requests, and on a dead link count it, revive it, and
re-dispatch **exactly once**.  No pipe, socket or child process here —
the fake backend scripts what each exchange does, so every branch of
the policy (including the "second loss" and "cannot revive" cases the
end-to-end death tests cannot reach deterministically) is pinned.
"""

import pytest

from repro import css_task
from repro.core.backend import Link, RemoteBackend, ThreadBackend
from repro.core.invocation import plan_for
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
    """*script* says what each exchange does, in order: ``"die"``,
    ``"ok"`` or an error triple; *revivable* whether revival works."""

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
        self._links = [Link(1)]
        self.script = list(script)
        self.revivable = revivable
        self.sent = []      # (seq, definition payload) per exchange
        self.landed = []
        self.revivals = 0

    def start(self):
        return 1

    def _encode(self, task, values, link):
        if any(isinstance(v, Unshippable) for v in values):
            raise Refused(f"task {task.name!r}: cannot ship")
        return list(values)

    def _definition_payload(self, definition):
        return ("def", definition.name)

    def _exchange(self, link, seq, key, payload, task, request):
        self.sent.append((seq, payload))
        step = self.script.pop(0)
        if step == "die":
            raise LinkDown
        err = None if step == "ok" else step
        return err, 0.25, ["event"], [v * 2 for v in request]

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


class TestRemoteDispatchPolicy:
    def test_success_lands_and_ships_definition_once_per_link(self):
        backend = FakeBackend(["ok", "ok"])
        assert backend.run(_task(), 1) == (None, 0.25)
        assert backend.run(_task(), 1) == (None, 0.25)
        assert backend.sent == [(1, ("def", "probe_t")), (2, None)]
        assert backend.landed == [[42], [42]]
        assert backend.dispatched == [1, 1]
        assert _counters(backend) == (0, 0)

    def test_first_death_revives_and_redispatches_once(self):
        backend = FakeBackend(["die", "ok"])
        assert backend.run(_task(), 1) == (None, 0.25)
        assert _counters(backend) == (1, 1)
        assert backend.revivals == 1
        assert backend._links[0].generation == 2
        # The fresh remote end is taught the definition again.
        assert backend.sent == [(1, ("def", "probe_t")), (2, ("def", "probe_t"))]
        assert backend.landed == [[42]]

    def test_second_death_gives_up_naming_the_task(self):
        backend = FakeBackend(["die", "die", "ok"])
        task = _task()
        cause, duration = backend.run(task, 1)
        assert isinstance(cause, FakeLost) and duration == 0.0
        assert f"#{task.task_id}" in str(cause)
        assert "'probe_t'" in str(cause) and "fake worker 1" in str(cause)
        assert "re-dispatched once" in str(cause)
        assert _counters(backend) == (2, 1)
        assert backend.landed == []
        # The slot was revived anyway: its next task runs normally.
        assert backend.revivals == 2
        assert backend.run(_task(), 1) == (None, 0.25)

    def test_revive_failure_is_the_lost_error(self):
        backend = FakeBackend(["die"], revivable=False)
        cause, _ = backend.run(_task(), 1)
        assert isinstance(cause, FakeLost)
        assert "nothing left to take slot 1" in str(cause)
        assert _counters(backend) == (1, 0)

    def test_unserialisable_argument_never_touches_the_link(self):
        backend = FakeBackend([])
        cause, duration = backend.run(_task(Unshippable()), 1)
        assert isinstance(cause, Refused) and duration == 0.0
        assert backend.sent == [] and backend._links[0].seq == 0
        assert _counters(backend) == (0, 0)

    def test_remote_error_is_mapped_and_nothing_lands(self):
        backend = FakeBackend([("ValueError", "bad", "tb")])
        cause, duration = backend.run(_task(), 1)
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
        backend.run(_task(), 1)
        assert sink.events == ["event"]

    def test_run_never_raises(self):
        backend = FakeBackend([])  # script exhausted: a master-side bug
        cause, duration = backend.run(_task(), 1)
        assert isinstance(cause, IndexError) and duration == 0.0
        cause, _ = backend.run(_task(), 7)  # no such link
        assert isinstance(cause, IndexError)


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
