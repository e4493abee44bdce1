"""Tests for repro.obs.health — watchdog, explainer, flight recorder,
and the Prometheus exposition endpoint.

The acceptance bar pinned here: a deliberately wedged program (a task
waiting on a datum whose producer never finishes) must trigger the
``suspected_deadlock`` finding with the correct wait chain on *both*
backends, and a flight-recorder dump containing that chain must land
within two watchdog periods; a healthy run must produce zero findings.
"""

import json
import os
import re
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import RuntimeConfig, SmpssRuntime, css_task
from repro.obs import (
    Finding,
    FlightRecorder,
    HealthMonitor,
    MetricsRegistry,
    StallError,
    explain_blocked,
    render_registry,
    scrape,
    wait_chain,
    wait_graph_dot,
)
from repro.net import Client
from repro.obs.exposition import CONTENT_TYPE

pytestmark = pytest.mark.health

INTERVAL = 0.05


# ---------------------------------------------------------------------------
# task definitions (module level so the process backend resolves them)
# ---------------------------------------------------------------------------

@css_task("input(flag_path) output(a)")
def wedge_t(flag_path, a):
    # Busy-wait on an external flag file: to the tracker this task is
    # RUNNING forever, so its consumers are blocked on a dependency
    # that never completes — the wedge the watchdog must explain.
    while not os.path.exists(flag_path):
        time.sleep(0.005)
    a[:] = 1.0


@css_task("input(a) output(b)")
def follow_t(a, b):
    np.add(a, 1.0, out=b)


@css_task("inout(a)")
def incr_t(a):
    a += 1


@css_task("inout(a)")
def potrf_like_t(a):
    a += np.eye(a.shape[0])


@css_task("input(a) inout(c)")
def syrk_like_t(a, c):
    c -= 1e-3 * (a @ a.T)


def _wait_for_kinds(runtime, wanted, deadline=8.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        kinds = {f.kind for f in runtime.health.findings}
        if wanted <= kinds:
            return kinds
        time.sleep(INTERVAL / 2)
    return {f.kind for f in runtime.health.findings}


def _release(flag_path):
    with open(flag_path, "w", encoding="utf-8"):
        pass


class TestWedgeDetection:
    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_wedge_triggers_deadlock_finding_with_chain(
        self, backend, tmp_path
    ):
        flag = str(tmp_path / "release-flag")
        dump_dir = str(tmp_path / "dumps")
        os.makedirs(dump_dir)
        a, b = np.zeros(4), np.zeros(4)
        with SmpssRuntime(
            num_workers=2,
            backend=backend,
            health=True,
            health_interval=INTERVAL,
            health_dump_dir=dump_dir,
        ) as rt:
            wedge_t(flag, a)
            follow_t(a, b)
            kinds = _wait_for_kinds(
                rt, {"global_stall", "suspected_deadlock"}
            )
            try:
                assert "global_stall" in kinds
                assert "suspected_deadlock" in kinds
                deadlock = [
                    f for f in rt.health.findings
                    if f.kind == "suspected_deadlock"
                ][0]
                assert deadlock.severity == "critical"
                chains = deadlock.details["chains"]
                names = {
                    link["name"] for chain in chains for link in chain
                }
                # The chain must name both the blocked consumer and the
                # producer holding it up.
                assert "follow_t" in names
                assert "wedge_t" in names
                head = chains[0][0]
                assert head["name"] == "follow_t"
                assert head["waiting_on"][0]["param"] == "a"
                producer = head["waiting_on"][0]["producer"]
                assert producer["name"] == "wedge_t"
                assert producer["state"] == "running"
            finally:
                _release(flag)
            rt.barrier()
        assert np.array_equal(b, np.full(4, 2.0))
        # Every finding triggered a dump; the chain is in the newest one.
        metrics_dumps = sorted(
            p for p in os.listdir(dump_dir) if p.endswith(".metrics.json")
        )
        assert metrics_dumps
        found_chain = False
        for name in metrics_dumps:
            with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
                doc = json.load(fh)
            for finding in doc["findings"]:
                if finding["kind"] == "suspected_deadlock":
                    chain_names = {
                        link["name"]
                        for chain in finding["details"]["chains"]
                        for link in chain
                    }
                    found_chain = {"follow_t", "wedge_t"} <= chain_names
        assert found_chain
        assert any(
            p.endswith(".trace.json") for p in os.listdir(dump_dir)
        )
        assert any(
            p.endswith(".waitgraph.dot") for p in os.listdir(dump_dir)
        )

    def test_wedge_found_within_two_periods(self, tmp_path):
        flag = str(tmp_path / "flag")
        a, b = np.zeros(2), np.zeros(2)
        with SmpssRuntime(
            num_workers=2,
            health=True,
            health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
        ) as rt:
            wedge_t(flag, a)
            follow_t(a, b)
            # Give the watchdog a beat to observe the wedged shape,
            # then check the streak math directly: two stalled samples
            # must produce the finding.
            time.sleep(INTERVAL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                rt.health.check_now()
                if rt.health._stall_streak >= 2:
                    break
                time.sleep(INTERVAL)
            kinds = {f.kind for f in rt.health.findings}
            assert "suspected_deadlock" in kinds
            _release(flag)
            rt.barrier()

    def test_healthy_run_has_zero_findings(self, tmp_path):
        # False-positive guard: a busy Cholesky-like blocked/ready mix
        # must never trip the watchdog.
        nb = 4
        tiles = [
            [np.eye(nb) * 4 + 0.1 for _ in range(2)] for _ in range(2)
        ]
        with SmpssRuntime(
            num_workers=2,
            health=True,
            health_interval=0.02,
            health_dump_dir=str(tmp_path),
        ) as rt:
            for _ in range(20):
                for i in range(2):
                    potrf_like_t(tiles[i][i])
                    syrk_like_t(tiles[i][1 - i], tiles[i][i])
            rt.barrier()
            time.sleep(0.1)  # a few more idle watchdog periods
            assert rt.health.findings == []
        assert not any(
            p.endswith(".metrics.json") for p in os.listdir(str(tmp_path))
        )


class TestWorkerDeathSpike:
    def test_spike_is_read_through_the_backend_contract(self, tmp_path):
        """Any remote backend whose ``deaths`` climbs trips the finding
        — the watchdog reads the contract, not the ``mp.*`` counter, so
        cluster agent deaths (``dist.agent_deaths``) count too."""

        from repro.core.backend import ExecutionBackend

        class FakeFleet(ExecutionBackend):
            remote = True
            deaths = 0

            def liveness(self):
                return [{"slot": 1, "alive": True},
                        {"slot": 2, "alive": False}]

        with SmpssRuntime(
            num_workers=1, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            real, rt.backend = rt.backend, FakeFleet()
            try:
                assert rt.health.check_now() == []
                assert rt.health.last_sample["mp_workers_alive"] == 1
                rt.backend.deaths = 1
                assert rt.health.check_now() == []  # one death: no spike
                rt.backend.deaths = 2
                kinds = [f.kind for f in rt.health.check_now()]
            finally:
                rt.backend = real
        assert kinds == ["worker_death_spike"]
        assert rt.metrics.counter("mp.worker_deaths").value == 0


class TestExplainer:
    def test_explain_blocked_and_wait_chain(self, tmp_path):
        flag = str(tmp_path / "flag")
        a, b = np.zeros(2), np.zeros(2)
        with SmpssRuntime(
            num_workers=2, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            wedge_t(flag, a)
            handle = follow_t(a, b)
            time.sleep(0.1)  # let the wedge start running
            explained = rt.health.explain(handle.task_id)
            try:
                exp = explained["explanation"]
                assert exp["state"] == "blocked"
                assert exp["pending_deps"] == 1
                dep = exp["waiting_on"][0]
                assert dep["param"] == "a"
                assert dep["renaming"] in (
                    "initial", "same", "fresh", "clone"
                )
                assert dep["producer"]["name"] == "wedge_t"
                chain = explained["chain"]
                assert [link["name"] for link in chain] == [
                    "follow_t", "wedge_t",
                ]
                # The running producer reports which worker holds it.
                assert "worker" in dep["producer"]
            finally:
                _release(flag)
            rt.barrier()

    def test_identical_wedged_runs_give_identical_wait_chains(
            self, tmp_path):
        """With renaming off, a writer's predecessors arrive as explicit
        edges only (one output, two anti), a set without an order of
        its own: the chain must still walk them in task-id order."""

        def wedged_chain(run: int) -> list:
            flag = str(tmp_path / f"flag{run}")
            a, b, c = np.zeros(2), np.zeros(2), np.zeros(2)
            with SmpssRuntime(
                num_workers=1, health=True, health_interval=5.0,
                health_dump_dir=str(tmp_path), enable_renaming=False,
            ) as rt:
                wedge_t(flag, a)
                follow_t(a, b)
                follow_t(a, c)
                writer = wedge_t(flag, a)   # after both readers of a
                time.sleep(0.1)  # let the wedge start running
                try:
                    return wait_chain(rt, writer)
                finally:
                    _release(flag)
                    rt.barrier()

        first, second = wedged_chain(0), wedged_chain(1)
        assert first == second
        assert [len(link["waiting_on"]) for link in first] == [3, 0]
        assert [p["producer"]["task_id"] for p in first[0]["waiting_on"]] \
            == [1, 2, 3]

    def test_explain_unknown_id_raises(self, tmp_path):
        with SmpssRuntime(
            num_workers=1, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            with pytest.raises(ValueError, match="no in-flight task"):
                rt.health.explain(123456)

    def test_wait_graph_dot_colours_states(self, tmp_path):
        flag = str(tmp_path / "flag")
        a, b = np.zeros(2), np.zeros(2)
        with SmpssRuntime(
            num_workers=2, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            wedge_t(flag, a)
            follow_t(a, b)
            time.sleep(0.1)
            dot = wait_graph_dot(rt)
            try:
                assert dot is not None
                assert "digraph wait" in dot
                assert "salmon" in dot       # blocked consumer
                assert "lightgreen" in dot   # running producer
                assert '[label="a"]' in dot  # edge labelled with param
            finally:
                _release(flag)
            rt.barrier()
            assert wait_graph_dot(rt) is None  # drained graph → empty

    def test_stalled_error_carries_chains(self, tmp_path):
        # Corrupt the graph bookkeeping on purpose: pending_count never
        # reaching zero is exactly the historical "runtime stalled"
        # condition, now raised as a StallError with wait chains.
        with SmpssRuntime(
            num_workers=1, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            a = np.zeros(2)
            incr_t(a)
            rt.barrier()
            rt.graph._pending += 1  # simulate corruption
            try:
                with pytest.raises(StallError, match="runtime stalled"):
                    rt.barrier()
            finally:
                rt.graph._pending -= 1
            assert any(
                f.kind == "hard_stall" for f in rt.health.findings
            )
        assert issubclass(StallError, RuntimeError)


def _http_get(address, path):
    """``(head, body)`` of one plain HTTP GET against a ``tcp:`` address."""

    host, port = address.split(":")[1:]
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        resp = b""
        while chunk := sock.recv(65536):
            resp += chunk
    head, _, body = resp.partition(b"\r\n\r\n")
    return head, body


class TestExpositionEndpoint:
    def test_scrape_metrics_and_health(self, tmp_path):
        a = np.zeros(4)
        with SmpssRuntime(
            num_workers=2,
            health=True,
            health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
            address="tcp:127.0.0.1:0",
        ) as rt:
            for _ in range(8):
                incr_t(a)
            rt.barrier()
            time.sleep(3 * INTERVAL)  # let a post-barrier sample land
            addr = rt.address
            assert addr is not None and addr.startswith("tcp:")
            page = scrape(addr)
            text = page["text"]
            assert page["content_type"] == CONTENT_TYPE
            assert "# TYPE repro_health_samples counter" in text
            assert "repro_health_last_completion_age" in text
            assert "repro_health_blocked_tasks 0" in text
            assert 'repro_task_duration_seconds{task="incr_t",' in text
            assert 'quantile="0.99"' in text
            assert "repro_task_duration_seconds_count" in text
            assert "repro_health_worker_utilization" in text
            health = scrape(addr, command="health")
            assert health["findings"] == []
            assert health["sample"]["pending"] == 0
            assert health["interval"] == INTERVAL

    def test_cli_scrape_of_a_healthy_run_is_well_formed(self, tmp_path, capsys):
        """``python -m repro obs scrape`` (page and ``--health``) on a
        healthy blocked matmul: every sample line is ``name{labels}
        value``, every series has a ``# TYPE``, the health and duration
        series are there, and the watchdog found nothing."""

        from repro.__main__ import main
        from repro.apps.matmul import matmul_flat

        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        c = np.zeros((64, 64))
        with SmpssRuntime(
            num_workers=2, health=True, health_interval=INTERVAL,
            health_dump_dir=str(tmp_path), address="tcp:127.0.0.1:0",
        ) as rt:
            matmul_flat(a, b, c, 32)
            rt.barrier()
            addr = rt.address
            assert main(["obs", "scrape", addr]) == 0
            text = capsys.readouterr().out
            assert main(["obs", "scrape", addr, "--health"]) == 0
            health = json.loads(capsys.readouterr().out)
        assert np.allclose(c, a @ b)
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$")
        typed = set()
        for line in text.strip().splitlines():
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
            elif not line.startswith("#"):
                assert sample.match(line), f"malformed line: {line!r}"
                name = line.split("{")[0].split(" ")[0]
                assert name in typed or re.sub(
                    r"_(sum|count)$", "", name) in typed, f"untyped: {name}"
        for series in ("repro_health_last_completion_age",
                       "repro_health_blocked_tasks",
                       "repro_task_duration_seconds",
                       "repro_health_worker_utilization"):
            assert series in text, series
        assert health["findings"] == []
        # The endpoint closed with the runtime: a scrape now fails.
        assert main(["obs", "scrape", addr, "--timeout", "1"]) == 1
        assert "failed" in capsys.readouterr().err

    def test_plain_http_get_works_on_same_port(self, tmp_path):
        a = np.zeros(4)
        with SmpssRuntime(
            num_workers=1,
            health=True,
            health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
            address="tcp:127.0.0.1:0",
        ) as rt:
            incr_t(a)
            rt.barrier()
            host, port = rt.address.split(":")[1:]

            def get(path):
                sock = socket.create_connection((host, int(port)), timeout=5)
                try:
                    sock.sendall(
                        f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                    )
                    resp = b""
                    while True:
                        chunk = sock.recv(65536)
                        if not chunk:
                            return resp
                        resp += chunk
                finally:
                    sock.close()

            resp = get("/metrics")
            head, _, body = resp.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"Content-Type: text/plain; version=0.0.4" in head
            assert b"repro_tasks_executed" in body
            resp = get("/health")
            head, _, body = resp.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK")
            assert b"application/json" in head
            doc = json.loads(body)
            assert doc["findings"] == []

    def test_json_clients_still_work_after_http_sniff(self, tmp_path):
        # The sniffing transport must not break ordinary JSON-lines
        # clients: the deferred hello arrives, then acks flow.
        with SmpssRuntime(
            num_workers=1, health=True, health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
            address="tcp:127.0.0.1:0",
        ) as rt:
            data = scrape(rt.address, command="ping")
            assert data == {"service": "repro.obs.health"}


    def test_live_metrics_health_and_http_on_one_address(
            self, tmp_path, capsys):
        """One runtime, one server: a live attach drives the gate, ``obs
        scrape`` reads the page and the findings, and plain HTTP gets
        ``/metrics``, ``/health`` and the router's 404 — all at
        ``rt.address``."""

        from repro.__main__ import main
        from repro.apps.cholesky import cholesky_hyper
        from repro.blas.hypermatrix import HyperMatrix
        from repro.live import LiveClient

        sequential = HyperMatrix.random_spd(4, 8, seed=1)
        cholesky_hyper(sequential)  # no runtime active: the plain program
        hm = HyperMatrix.random_spd(4, 8, seed=1)

        def accepting():
            return {t for t in threading.enumerate()
                    if t.name.startswith("repro-")
                    and t.name.endswith("-accept")}

        before = accepting()
        with SmpssRuntime(
            num_workers=2, live=True, live_start_paused=True, health=True,
            health_interval=INTERVAL, health_dump_dir=str(tmp_path),
            address="tcp:127.0.0.1:0",
        ) as rt:
            assert [t.name for t in accepting() - before] \
                == ["repro-runtime-accept"]
            addr = rt.address
            cholesky_hyper(hm)
            with LiveClient(addr, timeout=10.0) as client:
                assert client.pause()["paused"]
                client.step(2)
                deadline = time.monotonic() + 10.0
                while rt.tasks_executed < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert 1 <= client.state()["executed"] <= 2
                assert not client.resume()["paused"]
            rt.barrier()
            assert main(["obs", "scrape", addr]) == 0
            page = capsys.readouterr().out
            assert main(["obs", "scrape", addr, "--health"]) == 0
            health = json.loads(capsys.readouterr().out)
            http = {path: _http_get(addr, path)
                    for path in ("/metrics", "/health", "/nope")}
        assert np.array_equal(hm.to_dense(), sequential.to_dense())
        assert 'repro_task_duration_seconds{task="spotrf_t",' in page
        assert health["findings"] == [] and health["interval"] == INTERVAL
        head, body = http["/metrics"]
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"repro_health_worker_utilization" in body
        head, body = http["/health"]
        assert b"application/json" in head
        assert json.loads(body)["findings"] == []
        head, body = http["/nope"]
        assert head.startswith(b"HTTP/1.1 404 Not Found")
        assert body == b"routes: /metrics, /metrics/<tenant>, /health"

    def test_live_command_without_live_is_a_structured_error(self):
        with SmpssRuntime(num_workers=1, address="tcp:127.0.0.1:0") as rt:
            with Client(rt.address, timeout=5.0) as client:
                ack = client.request("pause")
        assert ack["ok"] is False
        assert ack["error"]["code"] == "live_off"


class TestSignalAndDump:
    def test_sigusr1_triggers_dump(self, tmp_path):
        a = np.zeros(2)
        with SmpssRuntime(
            num_workers=1,
            health=True,
            health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
        ) as rt:
            incr_t(a)
            rt.barrier()
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if any(
                    p.endswith(".metrics.json")
                    for p in os.listdir(str(tmp_path))
                ):
                    break
                time.sleep(INTERVAL / 2)
            dumps = [
                p for p in os.listdir(str(tmp_path))
                if p.endswith(".metrics.json")
            ]
            assert dumps
            with open(
                os.path.join(str(tmp_path), dumps[0]), encoding="utf-8"
            ) as fh:
                doc = json.load(fh)
            assert doc["reason"] == "sigusr1"
            assert doc["findings"] == []
            # ring entries are [task_id, name, thread, end, duration]
            assert any(item[1] == "incr_t" for item in doc["ring"])
            installed = signal.getsignal(signal.SIGUSR1)
            assert installed == rt.health._on_sigusr1
        # The previous handler is restored on shutdown.
        assert signal.getsignal(signal.SIGUSR1) is not installed

    def test_manual_dump_writes_chrome_trace(self, tmp_path):
        a = np.zeros(2)
        with SmpssRuntime(
            num_workers=2, health=True, health_interval=5.0,
            health_dump_dir=str(tmp_path),
        ) as rt:
            for _ in range(5):
                incr_t(a)
            rt.barrier()
            paths = rt.health.dump(reason="manual")
            assert os.path.exists(paths["trace"])
            assert os.path.exists(paths["metrics"])
            with open(paths["trace"], encoding="utf-8") as fh:
                trace = json.load(fh)
            names = {
                ev.get("name") for ev in trace["traceEvents"]
                if ev.get("ph") == "X" or ev.get("ph") == "B"
            }
            assert "incr_t" in names


class TestFlightRecorder:
    def test_ring_is_bounded_and_reconstructs_events(self):
        rec = FlightRecorder(num_threads=2, capacity=8)
        for i in range(20):
            rec.note_task(i, "t", i % 2, float(i + 1), 0.5)
        assert rec.completions == 20
        events = rec.events()
        # 8 completions retained, two events (start+end) each.
        assert len(events) == 16
        assert events[0].kind == "task_start"
        assert events[0].time == pytest.approx(events[1].time - 0.5)
        assert rec.busy[0] + rec.busy[1] == pytest.approx(10.0)

    def test_snapshot_ring_bounded(self):
        rec = FlightRecorder(num_threads=1, snapshot_capacity=4)
        for i in range(10):
            rec.note_snapshot({"i": i})
        assert [s["i"] for s in rec.snapshots()] == [6, 7, 8, 9]


class TestConfigKnobs:
    def test_health_requires_metrics(self):
        with pytest.raises(TypeError, match="requires metrics=True"):
            SmpssRuntime(num_workers=1, health=True, metrics=False)

    def test_address_alone_binds_the_endpoint(self, tmp_path):
        with SmpssRuntime(
            num_workers=1,
            address="tcp:127.0.0.1:0",
            health_interval=INTERVAL,
            health_dump_dir=str(tmp_path),
        ) as rt:
            assert rt.config.health is False and rt.health is None
            assert rt.address is not None
            assert scrape(rt.address, command="health") == {
                "findings": [], "sample": {}}
            assert "repro_tasks_executed" in scrape(rt.address)["text"]

    def test_health_off_means_no_monitor(self):
        with SmpssRuntime(num_workers=1) as rt:
            a = np.zeros(2)
            incr_t(a)
            rt.barrier()
            assert rt.health is None
        assert a[0] == 1.0

    def test_config_knobs_roundtrip(self):
        config = RuntimeConfig(
            health=True, health_interval=0.25,
            health_dump_dir="/tmp/x", address="tcp:0.0.0.0:0",
        )
        assert config.health_interval == 0.25
        assert config.health_dump_dir == "/tmp/x"


class TestRendering:
    def test_render_registry_text_format(self):
        registry = MetricsRegistry()
        registry.counter("tasks.total").inc(3)
        registry.gauge("depth", thread=0).set(2)
        h = registry.histogram("lat", task="f")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        text = render_registry(registry)
        assert "# TYPE repro_tasks_total counter" in text
        assert "repro_tasks_total 3" in text
        assert 'repro_depth{thread="0"} 2' in text
        assert "# TYPE repro_lat summary" in text
        assert 'repro_lat{task="f",quantile="0.5"} 2.0' in text
        assert 'repro_lat_sum{task="f"} 7.0' in text
        assert 'repro_lat_count{task="f"} 3' in text
        assert text.endswith("\n")

    def test_render_registry_does_not_fold(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat")
        h.observe(1.0)
        before = list(h._raw)
        render_registry(registry)
        assert list(h._raw) == before  # scrape never mutates

    def test_invalid_chars_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("mp.worker-deaths").inc()
        text = render_registry(registry)
        assert "repro_mp_worker_deaths 1" in text


def test_report_shows_backend_health_and_quantiles(tmp_path):
    a = np.zeros(4)
    with SmpssRuntime(
        num_workers=2, health=True, health_interval=INTERVAL,
        health_dump_dir=str(tmp_path),
    ) as rt:
        for _ in range(10):
            incr_t(a)
        rt.barrier()
        report = rt.report()
    assert "task duration p50/p95/p99:" in report
    assert "incr_t:" in report
    assert "backend health:" in report
    assert "watchdog: findings=0" in report


def test_health_exports_reachable_from_package_root():
    import repro.obs as obs

    for name in (
        "HealthMonitor", "Finding", "StallError", "FlightRecorder",
        "scrape", "render_registry", "explain_blocked", "wait_chain",
        "wait_graph_dot",
    ):
        assert hasattr(obs, name), name
    assert Finding is obs.Finding
    assert HealthMonitor is obs.HealthMonitor
    assert explain_blocked is obs.explain_blocked
    assert wait_chain is obs.wait_chain
