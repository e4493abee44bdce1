"""repro.live end to end: attach, control, replay — on both backends.

The acceptance scenario from the ISSUE, as an automated test: start an
instrumented 6x6 blocked Cholesky paused, attach a client over the
socket, observe the full dependency graph as deltas, set a breakpoint
on the first ``spotrf_t``, single-step through it, resume, and verify
the run completes with the correct numerical result — on the threaded
*and* the process backend.  A replay of a recording of the same
program must land the dashboard in the same final state.
"""

import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import SmpssRuntime, css_task
from repro.apps.cholesky import cholesky_hyper
from repro.blas.hypermatrix import HyperMatrix
from repro.core.recorder import record_program
from repro.core.task import reset_task_ids
from repro.live import DashboardState, LiveClient, ReplayEngine
from repro.obs import analyze_tracer

pytestmark = pytest.mark.live

BACKENDS = ["threads", "processes"]

#: 6x6 blocks of 8x8 -> 56 tasks, 105 edges, critical path 16.
N_BLOCKS, BLOCK = 6, 8
N_TASKS = 56
TASK_MIX = {"spotrf_t": 6, "strsm_t": 15, "ssyrk_t": 15, "sgemm_nt_t": 20}


def _spd():
    return HyperMatrix.random_spd(N_BLOCKS, BLOCK, seed=3)


def _reference():
    return np.linalg.cholesky(_spd().to_dense())


def _start_instrumented(backend, box, **live_kwargs):
    """Run the Cholesky program in a thread; publish address via *box*."""

    hm = _spd()
    box["matrix"] = hm
    rt = SmpssRuntime(num_workers=2, backend=backend, live=True,
                      address="tcp:127.0.0.1:0", **live_kwargs)

    def program():
        try:
            with rt:
                box["addr"] = rt.address
                cholesky_hyper(hm)
                rt.barrier()
            box["done"] = True
        except BaseException as exc:  # surfaced by the test body
            box["error"] = exc
            box["addr"] = box.get("addr", "")

    thread = threading.Thread(target=program, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while "addr" not in box and time.monotonic() < deadline:
        time.sleep(0.01)
    assert box.get("addr"), f"runtime never came up: {box.get('error')}"
    return thread


class TestScriptedSession:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_attach_break_step_resume(self, backend):
        reset_task_ids()
        box = {}
        thread = _start_instrumented(backend, box, live_start_paused=True)
        state = DashboardState()
        with LiveClient(box["addr"], timeout=10.0) as client:
            state.apply(dict(client.hello))
            assert client.hello["backend"] == backend

            # 1. The paused runtime streams the *whole* hazard graph
            #    before anything has run.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                for record in client.drain(idle=0.2):
                    state.apply(record)
                if len(state.tasks) >= N_TASKS:
                    break
            sig = state.signature()
            assert sig["tasks"] == N_TASKS
            assert sig["by_name"] == TASK_MIX
            assert sig["edges"] == 105
            assert sig["critical_path"] == 16
            assert sig["done"] == 0

            control = client.state()
            assert control["paused"]
            assert control["executed"] == 0

            # 2. Breakpoint + step: the first ticket is eaten by the
            #    hold, later ones run the held task and successors.
            client.set_break(name="spotrf_t")
            client.step(5)

            def saw_hold(record):
                state.apply(record)
                held = any("breakpoint: held" in n for n in state.notes)
                return held and state.counts().get("done", 0) >= 1

            client.wait_for(saw_hold, timeout=30.0)
            time.sleep(0.3)
            for record in client.drain(idle=0.2):
                state.apply(record)
            done = state.counts().get("done", 0)
            assert 1 <= done <= 5  # never more than the granted tickets
            assert client.state()["paused"]

            if backend == "processes":
                # The master-side dispatch notification is the only
                # timely "left the queue" signal under mp.
                dispatched = [
                    t for t in state.tasks.values()
                    if t["state"] in ("dispatched", "running", "done")
                ]
                assert dispatched

            # 3. Release everything and watch it finish.
            client.clear_breaks()
            client.resume()

            def all_done(record):
                state.apply(record)
                return state.counts().get("done", 0) == N_TASKS

            client.wait_for(all_done, timeout=120.0)
            final = state.signature()
            assert final["done"] == N_TASKS
            assert final["by_name"] == TASK_MIX

        thread.join(timeout=30.0)
        assert box.get("done"), f"program thread failed: {box.get('error')}"
        result = np.tril(box["matrix"].to_dense())
        assert np.allclose(result, _reference(), atol=1e-8)


class TestStepDeterminism:
    def _free_run(self, backend):
        hm = _spd()
        with SmpssRuntime(num_workers=2, backend=backend) as rt:
            cholesky_hyper(hm)
            rt.barrier()
        return hm.lower_to_dense()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step1_bitwise_identical_to_free_run(self, backend):
        free = self._free_run(backend)
        hm = _spd()
        with SmpssRuntime(num_workers=2, backend=backend, live=True,
                          live_start_paused=True) as rt:
            cholesky_hyper(hm)
            # Drive the whole factorisation one dispatch ticket at a
            # time.  Tickets wasted on empty selections are harmless —
            # we keep stepping until every task has executed.
            deadline = time.monotonic() + 120.0
            while rt.tasks_executed < N_TASKS:
                assert time.monotonic() < deadline, (
                    f"stalled at {rt.tasks_executed}/{N_TASKS}"
                )
                rt.live.step(1)
                time.sleep(0.002)
            rt.live.resume()
            rt.barrier()
        assert np.array_equal(hm.lower_to_dense(), free)


class TestReplayEquivalence:
    def test_replay_matches_live_final_state(self):
        # Live run, started paused so the dashboard sees the same
        # worst-case hazard graph the replay's eager flush produces
        # (free-running submission would race execution and elide
        # already-satisfied anti-dependencies).
        reset_task_ids()
        box = {}
        thread = _start_instrumented("threads", box,
                                     live_start_paused=True)
        live_state = DashboardState()
        with LiveClient(box["addr"], timeout=10.0) as client:
            live_state.apply(dict(client.hello))
            deadline = time.monotonic() + 30.0
            while (len(live_state.tasks) < N_TASKS
                   and time.monotonic() < deadline):
                for record in client.drain(idle=0.2):
                    live_state.apply(record)
            assert len(live_state.tasks) == N_TASKS
            client.resume()

            def all_done(record):
                live_state.apply(record)
                counts = live_state.counts()
                return (len(live_state.tasks) >= N_TASKS
                        and counts.get("done", 0) == len(live_state.tasks))

            client.wait_for(all_done, timeout=120.0)
        thread.join(timeout=30.0)
        assert box.get("done"), f"live run failed: {box.get('error')}"

        # Replay of a recording of the *same* program: one dashboard
        # code path, same final picture.
        program = record_program(lambda: cholesky_hyper(_spd()))
        engine = ReplayEngine(program.to_json_dict(), num_threads=3)
        engine.run()
        assert engine.dashboard.signature() == live_state.signature()
        # Task identity matches too, not just the counts.
        live_names = {i: t["name"] for i, t in live_state.tasks.items()}
        replay_names = {
            i: t["name"] for i, t in engine.dashboard.tasks.items()
        }
        assert replay_names == live_names


@css_task("inout(x)")
def _bump(x):
    x += 1


@css_task("input(x) output(y)")
def _copy(x, y):
    y[...] = x


@css_task("output(x)")
def _reset(x):
    x[...] = 0


class TestLiveIsPostMortem:
    def test_live_report_equals_the_tracers(self):
        """The attached dashboard's report is ``analyze_events`` over
        the very events the tracer recorded: renames, steals, locality
        and barrier time included, not only the task intervals."""

        rt = SmpssRuntime(num_workers=2, live=True, trace=True,
                          address="tcp:127.0.0.1:0")
        state = DashboardState()
        with rt, LiveClient(rt.address, timeout=10.0) as client:
            state.apply(dict(client.hello))
            x, sink = np.zeros(64), np.zeros(64)
            for _ in range(20):  # each round's writes hit a pending read
                _bump(x)
                _copy(x, sink)
                _reset(x)
            rt.barrier()
            want = analyze_tracer(rt.tracer, num_threads=rt.num_threads)
            deadline = time.monotonic() + 30.0
            while True:  # every task done, then nothing but snapshots
                records = client.drain(idle=0.2)
                for record in records:
                    state.apply(record)
                if state.counts().get("done") == 60 and all(
                        r["ev"] == "snapshot" for r in records):
                    break
                assert time.monotonic() < deadline, state.counts()
            recorded = len(rt.tracer.events)
        got = state.report()
        assert want.renames > 0 and want.barrier_time > 0
        for field in ("total_tasks", "renames", "steals",
                      "locality_candidates", "locality_hits"):
            assert getattr(got, field) == getattr(want, field), field
        assert {t: u.steals for t, u in got.threads.items()} \
            == {t: u.steals for t, u in want.threads.items()}
        for field in ("makespan", "span", "barrier_time"):
            assert getattr(got, field) == pytest.approx(
                getattr(want, field), abs=1e-9), field
        assert len(state.events) == recorded

    def test_attach_report_counts_every_thread(self, capsys):
        """A 3-task chain runs on one worker; the attach CLI's report
        still lists the runtime's four threads, as ``rt.report()``
        does."""

        from repro.live.cli import main

        rt = SmpssRuntime(num_workers=3, live=True,
                          address="tcp:127.0.0.1:0", live_start_paused=True)
        with rt:
            x = np.zeros(1)
            for _ in range(3):
                _bump(x)
            assert main(["attach", rt.address, "--script",
                         "resume; wait-done; report; quit"]) == 0
            rt.barrier()
        assert x[0] == 3
        out = capsys.readouterr().out
        assert "== live report ==" in out
        assert len(re.findall(r"^ +thr +\d+: busy", out, re.M)) \
            == rt.num_threads == 4


class TestCliSmoke:
    def test_attach_script_drives_a_real_run(self, tmp_path):
        """The documented CI smoke: runtime in one process, the
        ``python -m repro live attach --script ...`` CLI in another."""

        driver = tmp_path / "instrumented.py"
        driver.write_text(
            "import sys\n"
            "import numpy as np\n"
            "from repro import SmpssRuntime\n"
            "from repro.apps.cholesky import cholesky_hyper\n"
            "from repro.blas.hypermatrix import HyperMatrix\n"
            "hm = HyperMatrix.random_spd(6, 8, seed=3)\n"
            "ref = np.linalg.cholesky(hm.to_dense())\n"
            "rt = SmpssRuntime(num_workers=2, live=True,\n"
            "                  address='tcp:127.0.0.1:0',\n"
            "                  live_start_paused=True)\n"
            "with rt:\n"
            "    print(rt.address, flush=True)\n"
            "    cholesky_hyper(hm)\n"
            "    rt.barrier()\n"
            "assert np.allclose(np.tril(hm.to_dense()), ref, atol=1e-8)\n"
            "print('RESULT-OK', flush=True)\n"
        )
        run = subprocess.Popen(
            [sys.executable, str(driver)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            address = run.stdout.readline().strip()
            assert address.startswith("tcp:")
            attach = subprocess.run(
                [sys.executable, "-m", "repro", "live", "attach", address,
                 "--script",
                 "state; break spotrf_t; step 5; clear; resume; "
                 "wait-done; quit"],
                capture_output=True, text=True, timeout=120,
            )
            assert attach.returncode == 0, attach.stderr
            assert "PAUSED" in attach.stdout  # the `state` render
            out, err = run.communicate(timeout=60)
        finally:
            if run.poll() is None:
                run.kill()
                run.communicate()
        assert run.returncode == 0, err
        assert "RESULT-OK" in out

    @staticmethod
    def _type(monkeypatch, lines):
        """Feed *lines* to the prompt, then end of input."""

        pending = list(lines)

        def fake_input(_prompt=""):
            if not pending:
                raise EOFError
            return pending.pop(0)

        monkeypatch.setattr("builtins.input", fake_input)

    def test_attach_prompt_in_process(self, monkeypatch, capsys):
        from repro.live.cli import main

        paused = []
        real_pause = LiveClient.pause

        def pause(client):
            paused.append(True)
            return real_pause(client)

        monkeypatch.setattr(LiveClient, "pause", pause)
        reset_task_ids()
        box = {}
        thread = _start_instrumented("threads", box, live_start_paused=True)
        self._type(monkeypatch, ["state", "pause", "bogus", "", "step 2",
                                 "resume", "wait-done", "quit"])
        assert main(["attach", box["addr"]]) == 0
        thread.join(timeout=60.0)
        assert box.get("done"), f"program thread failed: {box.get('error')}"
        assert np.allclose(np.tril(box["matrix"].to_dense()), _reference(),
                           atol=1e-8)
        assert paused == [True]
        out = capsys.readouterr().out
        assert "PAUSED" in out
        assert "bogus: unknown command 'bogus'" in out  # reported, not fatal

    def test_replay_prompt_in_process(self, tmp_path, monkeypatch, capsys):
        from repro.live.cli import main

        path = tmp_path / "chol.recording.json"
        record_program(lambda: cholesky_hyper(_spd())).save(str(path))
        self._type(monkeypatch, ["step 10", "back 3", "", "bad 1", "run",
                                 "", "report"])
        assert main(["replay", str(path), "--threads", "3"]) == 0
        out = capsys.readouterr().out
        assert "bad: unknown command 'bad'" in out
        assert "56/56" in out or "done=56" in out
        assert "== replay report ==" in out and "per task type:" in out

    def test_replay_script_cli(self, tmp_path):
        program = record_program(lambda: cholesky_hyper(_spd()))
        path = tmp_path / "chol.recording.json"
        program.save(str(path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "live", "replay", str(path),
             "--threads", "3",
             "--script", "step 10; back 3; run; report; quit"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "56/56" in proc.stdout or "done=56" in proc.stdout
