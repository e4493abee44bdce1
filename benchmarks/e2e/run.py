#!/usr/bin/env python3
"""End-to-end benchmark of the repro runtime: one command, every metric.

Driver interface (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

Without ``--workload`` the command runs all six workloads (``--passes``
interleaved passes of ``--seconds`` each) and prints a table; add
``--layers`` for the per-layer waterfall and one Perfetto trace per
workload, ``--aa`` to run everything twice and compare against the
bounds of ``BENCHMARK.json``, ``--selftest-fault`` to prove that a
corrupted output is counted as failed operations.

The parent process is a supervisor only: it pins itself to one CPU,
fixes the BLAS thread count, and runs each pass of a workload in a
fresh child process (``--child``) in its own session, which it kills,
with everything the child started, if the pass overruns.  See
README.md in this directory for the method and its reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Passes of one driver-interface run: each is a cold start (set-up is
#: timed once per pass) followed by its share of the measuring time.
DRIVER_PASSES = 4
#: Seconds a pass may take beyond its measuring time before the
#: supervisor kills it (set-up, warm-up, verification, tear-down).
PASS_GRACE = 90.0
#: Seconds one round may take inside the child before it is abandoned.
ROUND_TIMEOUT = 60.0
#: What :func:`probe` takes on the host the benchmark was defined on,
#: when that host is quiet.  Every CPU-bound time is reported as if the
#: probe took exactly this long (see :func:`scale`).
PROBE_REF_S = 0.00114


# ---------------------------------------------------------------------------
# child: one pass of one workload
# ---------------------------------------------------------------------------

class RoundTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float, what: str):
    """Raise :class:`RoundTimeout` in the main thread after *seconds*.

    Lock waits and joins are interruptible by signals, so a hung barrier
    becomes an exception, hence failed operations, instead of a hang.
    """

    def expired(signum, frame):  # noqa: ARG001 - signal signature
        raise RoundTimeout(f"{what} exceeded {seconds:.0f}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cpu_seconds(pids) -> float:
    """CPU time consumed so far by every thread of the live processes
    *pids*, at the scheduler's nanosecond resolution."""

    total = 0
    for pid in pids:
        try:
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
        except OSError:
            continue
    return total / 1e9


def probe() -> float:
    """Seconds a fixed piece of interpreter and BLAS work takes right now.

    The host slows down for seconds to minutes at a time while the
    process stays on CPU; this is the yardstick that slows down with it.
    It uses nothing of the program under test.
    """

    import numpy as np

    a = np.arange(96.0 * 96.0).reshape(96, 96) / 9216.0
    best = float("inf")
    for _ in range(3):  # the shortest of three: the first one warms up
        t0 = perf_counter()
        table: dict = {}
        acc = 0.0
        for i in range(10000):
            table[i & 255] = i
            acc += table[i & 127] * 0.5
        for _ in range(8):
            a @ a
        best = min(best, perf_counter() - t0)
    return best


def process_state(pid, group=None) -> str:
    """State letter of *pid* from ``/proc`` (``Z`` is a zombie); empty
    when there is no such process, or it is not in process group *group*."""

    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return ""
    if group is not None and int(fields[2]) != group:
        return ""
    return fields[0]


def one_round(workload, rnd: int, fault: bool, helpers=()) -> dict:
    """Run the program sequentially and under the runtime; compare.

    ``cpu_s`` is the CPU time of this process plus that of the *helpers*
    (agents, daemon, workers) while the runtime run lasted.
    """

    import threading

    seq, run = workload.fresh(rnd), workload.fresh(rnd)
    seq_result: dict = {}

    def sequential():
        # A thread with no runtime on its stack: task calls are plain
        # function calls (the dual-compilation property).
        try:
            state, times = seq, []
            # A short program is repeated, on equal inputs, until 20 ms
            # are timed; the first run is the one compared.
            while sum(times) < 0.02:
                t0 = perf_counter()
                workload.program(state, [])
                times.append(perf_counter() - t0)
                state = workload.fresh(rnd)
            seq_result["s"] = statistics.median(times)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            seq_result["error"] = exc

    with deadline(ROUND_TIMEOUT, f"round {rnd}"):
        thread = threading.Thread(
            target=sequential, name="e2e-sequential", daemon=True)
        thread.start()
        thread.join()
        if "error" in seq_result:
            raise seq_result["error"]
        stamps: list = []
        latencies: list = []
        probe_s = probe()
        moved = workload.bytes_moved()
        cpu0 = time.process_time() + cpu_seconds(helpers)
        t0 = perf_counter()
        workload.run(run, stamps, latencies)
        run_s = perf_counter() - t0
        cpu_s = time.process_time() + cpu_seconds(helpers) - cpu0
        probe_s = (probe_s + probe()) / 2
    if fault:  # --selftest-fault: flip one element of one output
        workload.outputs(run)[-1].flat[0] += 1.0
    edges = [t0] + stamps
    return {
        "seq_s": seq_result["s"],
        "probe_s": probe_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "phases": [b - a for a, b in zip(edges, edges[1:])],
        "latencies": latencies,
        "bytes_moved": workload.bytes_moved() - moved,
        "ok": bool(workload.check(seq, run)),
    }


def child_main(args) -> int:
    import multiprocessing
    import resource

    if args.affinity:
        os.sched_setaffinity(0, {int(c) for c in args.affinity.split(",")})
    sys.path[:0] = [SRC, HERE]
    tracer = None
    if args.mode == "traced":
        import e2e_trace

        tracer = e2e_trace.Tracer().install()
    import e2e_workloads as W

    if tracer is not None:
        tracer.wrap_bodies(W.TASKS)
    workload = W.WORKLOADS[args.child](args.seed)
    out: dict = {
        "workload": workload.name, "mode": args.mode, "rounds": [],
        "ops_per_round": workload.ops_per_round,
        "tasks_per_round": workload.tasks_per_round,
        "phase_names": [name for name, _ in workload.phases],
        "phase_tasks": [tasks for _, tasks in workload.phases],
        "error": None, "tracer_imported": "e2e_trace" in sys.modules,
    }
    from repro.mp.arena import leaked_segment_files

    segments_before = set(leaked_segment_files())
    started: list[int] = []
    try:
        cpu0 = time.process_time()
        t0 = perf_counter()
        with deadline(ROUND_TIMEOUT, "set-up"):
            workload.start()
        started = workload.helpers.pids() + [
            proc.pid for proc in multiprocessing.active_children()
        ]
        out["warmup"] = one_round(workload, 0, False)
        out["setup_s"] = perf_counter() - t0
        # The helpers were born inside the set-up: all their CPU is its.
        out["setup_cpu_s"] = time.process_time() - cpu0 + cpu_seconds(started)
        out["counters_before"] = workload.counters()
        if tracer is not None:
            out["setup_rows"] = tracer.rows()
            tracer.reset()
        end = perf_counter() + args.seconds
        trace_from = perf_counter()
        while not out["rounds"] or (
            perf_counter() < end and len(out["rounds"]) < args.max_rounds
        ):
            trace_from = perf_counter()
            if tracer is not None:
                tracer.drop_spans()
            rnd = len(out["rounds"]) + 1
            out["rounds"].append(
                one_round(workload, rnd, args.fault and rnd == 1, started))
        out["counters"] = workload.counters()
        if tracer is not None:
            out["rows"] = tracer.rows()
            out["hooks_missing"] = tracer.missing
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"{workload.name}.trace.json")
            out["trace_events"] = tracer.write_chrome_trace(path, trace_from)
            out["trace_path"] = os.path.relpath(path, ROOT)
    except Exception as exc:  # noqa: BLE001 - reported as failed operations
        out["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        try:
            with deadline(ROUND_TIMEOUT, "tear-down"):
                workload.stop()
        except Exception as exc:  # noqa: BLE001 - reported as failed operations
            out["error"] = out["error"] or f"tear-down: {type(exc).__name__}: {exc}"
    leaks = sorted(set(leaked_segment_files()) - segments_before)
    survivors = [pid for pid in started if process_state(pid) not in ("", "Z")]
    if leaks or survivors:
        out["error"] = out["error"] or (
            f"leaked segments {leaks}, surviving helpers {survivors}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------------------
# supervisor: run passes, pool them, derive the metrics
# ---------------------------------------------------------------------------

def pin() -> str:
    """Pin this process (and so every descendant) to one CPU; return the
    original mask for the one diagnostic that needs it."""

    mask = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {mask[0]})
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # Randomised str hashes reshuffle every dict of every process, which
    # moves the hot path by a few per cent from one pass to the next.
    os.environ["PYTHONHASHSEED"] = "0"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([path] if path else []))
    return ",".join(str(cpu) for cpu in mask)


def group_members(pgid: int) -> list[int]:
    """Live processes of process group *pgid*."""

    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and process_state(entry, group=pgid) not in ("", "Z")
    ]


def run_pass(workload: str, seed: int, seconds: float, mode: str = "untraced",
             fault: bool = False, max_rounds: int = 10 ** 6,
             affinity: str = "") -> dict:
    """One pass in a fresh child; always returns a result dict."""

    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
        "--max-rounds", str(max_rounds), "--affinity", affinity,
    ] + (["--fault"] if fault else [])
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    result: dict = {"workload": workload, "mode": mode, "rounds": []}
    try:
        stdout, _ = proc.communicate(timeout=seconds + PASS_GRACE)
        result = json.loads(stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        result["error"] = f"pass exceeded {seconds + PASS_GRACE:.0f}s"
    except (ValueError, IndexError):
        result["error"] = f"child exited {proc.returncode} without a result"
    finally:
        # The child is its own session leader: whatever it started and
        # failed to reap is still in its process group.
        limit = time.monotonic() + 2.0
        while group_members(proc.pid) and time.monotonic() < limit \
                and proc.poll() is not None:
            time.sleep(0.05)
        stragglers = group_members(proc.pid)
        if stragglers:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            result["error"] = result.get("error") or (
                f"processes survived the pass: {stragglers}")
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    return result


def spread(values: list) -> tuple:
    """``(median, iqr, count)``."""

    if len(values) < 2:
        return (values[0] if values else 0.0, 0.0, len(values))
    q = statistics.quantiles(values, n=4)
    return statistics.median(values), q[2] - q[0], len(values)


def operations(passes: list) -> tuple:
    """``(attempted, failed)`` over warm-up and timed rounds; a pass that
    ended in an error fails all its operations."""

    attempted = failed = 0
    for result in passes:
        ops_per_round = result.get("ops_per_round", 1)
        rounds = result.get("rounds", [])
        if "warmup" in result:
            rounds = [result["warmup"]] + rounds
        ops = max(len(rounds), 1) * ops_per_round
        attempted += ops
        if result.get("error"):
            failed += ops
        else:
            failed += sum(ops_per_round for r in rounds if not r["ok"])
    return attempted, failed


def scale(seconds: float, cpu_s: float, probe_s: float) -> float:
    """Factor that turns times measured over *seconds* into calibrated ones.

    ``cpu_s`` of the ``seconds`` were spent computing, by any process of
    the workload, around a moment when the probe took ``probe_s``; that
    share is rescaled to the reference CPU speed.  The rest was waited
    for (timers, sockets) and does not depend on CPU speed — nor does a
    probe say much about a CPU that was mostly asleep.
    """

    busy = min(cpu_s / seconds, 1.0)
    return 1.0 - busy * (1.0 - PROBE_REF_S / probe_s)


def p10(values) -> float:
    """10th percentile; the minimum when fewer than ten samples."""

    values = list(values)
    if len(values) < 10:
        return min(values)
    return statistics.quantiles(values, n=10)[0]


def end_to_end(passes: list) -> dict:
    """The six end-to-end metrics from the pooled untraced passes.

    Every time is calibrated (see :func:`scale`), then the 10th
    percentile over all rounds is taken: what interference is left is
    one-sided, and a workload of several processes on one CPU flips
    between a fast and a slow interleaving for rounds at a time.  The
    efficiency is a ratio of two times taken milliseconds apart, so a
    median does.
    """

    good = [p for p in passes if p.get("rounds") and "setup_s" in p]
    if not good:
        return {}
    rounds = [r for p in good for r in p["rounds"]]
    tasks = good[0]["tasks_per_round"]
    for r in rounds:
        r["scale"] = scale(r["run_s"], r["cpu_s"], r["probe_s"])
    median = statistics.median
    return {
        "setup_s": (median(
            p["setup_s"] * scale(p["setup_s"], p["setup_cpu_s"], p["warmup"]["probe_s"])
            for p in good), "s"),
        "tasks_per_s": (tasks / p10(r["run_s"] * r["scale"] for r in rounds), "1/s"),
        # The sequential program computes all the time it runs.
        "efficiency_vs_seq": (median(
            r["seq_s"] * PROBE_REF_S / r["probe_s"] / (r["run_s"] * r["scale"])
            for r in rounds), "ratio"),
        "graph_latency_p50_ms": (p10(
            median(r["latencies"]) * r["scale"] for r in rounds) * 1e3, "ms"),
        "cpu_ms_per_task": (p10(
            r["cpu_s"] * r["scale"] for r in rounds) / tasks * 1e3, "ms"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in good), "MB"),
    }


def detail(passes: list) -> dict:
    """Medians, spreads and sample counts behind the end-to-end numbers."""

    rounds = [r for p in passes for r in p.get("rounds", [])]
    latencies = [lat * 1e3 for r in rounds for lat in r["latencies"]]
    return {
        "probe_ms": spread([r["probe_s"] * 1e3 for r in rounds]),
        "round_ms": spread([r["run_s"] * 1e3 for r in rounds]),
        "seq_round_ms": spread([r["seq_s"] * 1e3 for r in rounds]),
        "graph_latency_ms": spread(latencies),
        "setup_s": spread([p["setup_s"] for p in passes if "setup_s" in p]),
    }


def bytes_moved_per_task(passes: list) -> float:
    """Bytes shipped between nodes per task, in the round that shipped
    least: which proxy thread gets which task varies with timing, the
    round in which placement found every resident copy repeats exactly."""

    rounds = [r for p in passes for r in p.get("rounds", [])]
    if not rounds:
        return 0.0
    return min(r["bytes_moved"] for r in rounds) / passes[0]["tasks_per_round"]


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)
# ---------------------------------------------------------------------------

def per_layer(untraced: dict, traced: dict, unpinned: dict) -> dict:
    """Every per-layer metric; ``None`` where a hook could not be installed.

    Times are self times from the traced pass, per task unless the name
    says otherwise; counts come from public surfaces (``rt.stats()``, the
    daemon's ``/metrics/<tenant>``) over the traced pass's timed rounds;
    phase rates, the p95 latency and both comparison ratios come from
    untraced rounds.
    """

    rows = traced.get("rows", {})
    setup_rows = traced.get("setup_rows", {})
    missing = traced.get("hooks_missing", [])
    gone = {entry["row"] for entry in missing}
    rounds = max(len(traced.get("rounds", [])), 1)
    tasks = rounds * traced.get("tasks_per_round", 1)
    graphs = rounds * traced.get("ops_per_round", 1)
    plain_rounds = untraced.get("rounds", [])
    plain_s = statistics.median(r["run_s"] for r in plain_rounds) if plain_rounds else 0.0
    touched: set = set()

    def row(name, field="self_s", table=rows):
        touched.add(name)
        return table.get(name, {}).get(field, 0.0)

    def count(name):
        return (traced.get("counters", {}).get(name, 0.0)
                - traced.get("counters_before", {}).get(name, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    def remote_body():
        return row("mp.executor.run", "value_sum") + row("dist.manager.run", "value_sum")

    def named(field, prefixes=("",)):
        return sum(row(name, field) for name in list(rows) if name.startswith(prefixes))

    def phase_rate(name):
        names = untraced.get("phase_names", [])
        if name not in names or not plain_rounds:
            return 0.0
        index = names.index(name)
        return untraced["phase_tasks"][index] / p10(r["phases"][index] for r in plain_rounds)

    def p95_latency():
        lat = sorted(x for r in plain_rounds for x in r["latencies"])
        served = untraced.get("workload") == "served_graphs"
        return lat[int(0.95 * (len(lat) - 1))] * 1e3 if served and lat else 0.0

    def rpc_wait_ms():
        return row("serve.session.rpc_wait", "wait_s") * 1e3 / graphs

    def engine_graph_ms():
        return ratio(count("repro_serve_graph_seconds_sum") * 1e3,
                     count("repro_serve_graph_seconds_count"))

    us = 1e6 / tasks
    formulas = {
        "core.invocation.instantiate_us": lambda: row("core.invocation.instantiate") * us,
        "core.invocation.resolve_us": lambda: row("core.invocation.resolve") * us,
        "core.dependencies.analyze_us": lambda: row("core.dependencies.analyze") * us,
        "core.dependencies.edges_per_task": lambda: ratio(
            count("graph.total_edges"), count("graph.total_tasks")),
        "core.dependencies.write_back_us": lambda: row("core.dependencies.write_back") * 1e6 / rounds,
        "core.renaming.renames_per_task": lambda: ratio(
            count("graph.renames"), count("graph.total_tasks")),
        "core.renaming.live_bytes_peak": lambda: max(
            row("core.dependencies.analyze", "value_max"),
            row("core.dependencies.write_back", "value_max")),
        "core.graph.complete_us": lambda: row("core.graph.complete") * us,
        "core.scheduler.push_us": lambda: row("core.scheduler.push") * us,
        "core.scheduler.pop_us": lambda: row("core.scheduler.pop") * us,
        "core.scheduler.failed_pops_per_task": lambda: count("scheduler.failed_pops") / tasks,
        "core.scheduler.steals_per_task": lambda: count("scheduler.steals") / tasks,
        "core.runtime.submit_self_us": lambda: row("core.runtime.submit") * us,
        "core.runtime.barrier_ms": lambda: row("core.runtime.barrier", "total_s") * 1e3 / rounds,
        "core.runtime.unattributed_frac": lambda: ratio(
            plain_s / traced.get("tasks_per_round", 1) - named("self_s") / tasks,
            plain_s / traced.get("tasks_per_round", 1)),
        "body.us": lambda: (row("body") + remote_body()) * us,
        "phase.chain_tasks_per_s": lambda: phase_rate("chain"),
        "phase.fanout_tasks_per_s": lambda: phase_rate("fanout"),
        "phase.indep_tasks_per_s": lambda: phase_rate("indep"),
        "phase.tiles_tasks_per_s": lambda: phase_rate("tiles"),
        "phase.windows_tasks_per_s": lambda: phase_rate("windows"),
        "phase.arena_tasks_per_s": lambda: phase_rate("arena"),
        "phase.pickled_tasks_per_s": lambda: phase_rate("pickled"),
        "mp.executor.run_us": lambda: row("mp.executor.run", "total_s") * us,
        "mp.executor.run_self_us": lambda: row("mp.executor.run") * us,
        "mp.encoding.encode_us": lambda: row("mp.encoding.encode") * us,
        "mp.encoding.apply_writebacks_us": lambda: row("mp.encoding.apply_writebacks") * us,
        "mp.arena.handle_hit_frac": lambda: ratio(
            row("mp.arena.handle_of", "value_sum"), row("mp.arena.handle_of", "calls")),
        "mp.pipe.bytes_per_task": lambda: (
            row("mp.pipe.send", "value_sum") + row("mp.pipe.recv_wait", "value_sum")) / tasks,
        "mp.pipe.recv_wait_us": lambda: max(
            row("mp.pipe.recv_wait", "wait_s") - row("mp.executor.run", "value_sum"), 0.0) * us,
        "mp.executor.redispatched": lambda: count("mp.redispatched_tasks"),
        "mp.start_ms": lambda: row("mp.executor.start", "total_s", setup_rows) * 1e3,
        "net.frames.send_us": lambda: row("net.frames.send") * us,
        "net.frames.recv_wait_us": lambda: max(
            row("net.frames.recv_wait", "wait_s") - row("dist.manager.run", "value_sum"), 0.0) * us,
        "net.frames.frames_per_task": lambda: (
            row("net.frames.send", "calls") + row("net.frames.recv_wait", "calls")) / tasks,
        "net.frames.bytes_per_task": lambda: (
            row("net.frames.send", "value_sum") + row("net.frames.recv_wait", "value_sum")) / tasks,
        "dist.encoding.encode_us": lambda: row("dist.encoding.encode") * us,
        "dist.encoding.decode_us": lambda: row("dist.encoding.decode") * us,
        "dist.residency.lookup_us": lambda: row("dist.residency.lookup") * us,
        "dist.residency.cache_hit_frac": lambda: ratio(
            count("dist.cache_hits"), count("dist.cache_hits") + count("dist.cache_misses")),
        "dist.manager.run_self_us": lambda: row("dist.manager.run") * us,
        "dist.manager.placement_us": lambda: row("dist.manager.placement") * us,
        "dist.manager.placed_frac": lambda: ratio(
            count("scheduler.placed"), count("scheduler.pushed")),
        "dist.manager.barrier_sync_ms": lambda: row("dist.manager.barrier_sync", "total_s") * 1e3 / rounds,
        "dist.manager.redispatched": lambda: count("dist.redispatched_tasks"),
        "dist.manager.attributed_frac": lambda: ratio(
            named("wait_s", ("net.", "dist.")), row("dist.manager.run", "total_s")
            + row("dist.manager.barrier_sync", "total_s")
            + row("dist.manager.placement", "total_s")),
        "dist.connect_ms": lambda: row("dist.manager.start", "total_s", setup_rows) * 1e3,
        "dist.bytes_moved_per_task": lambda: bytes_moved_per_task([traced]),
        "serve.session.submit_us": lambda: row("serve.session.submit") * us,
        "serve.session.flush_ms": lambda: row("serve.session.flush") * 1e3 / graphs,
        "serve.protocol.encode_ms": lambda: row("serve.protocol.encode") * 1e3 / graphs,
        "serve.protocol.write_back_ms": lambda: row("serve.protocol.write_back") * 1e3 / graphs,
        "serve.session.rpc_wait_ms": rpc_wait_ms,
        "serve.session.wire_bytes_per_graph": lambda: (
            row("serve.wire.out", "value_sum") + row("serve.wire.in", "value_sum")) / graphs,
        "serve.engine.graph_ms": engine_graph_ms,
        "serve.daemon.frontdoor_ms": lambda: (
            max(rpc_wait_ms() - engine_graph_ms(), 0.0) if engine_graph_ms() else 0.0),
        "serve.session.graph_latency_p95_ms": p95_latency,
        "serve.engine.graphs_failed": lambda: count("repro_serve_graphs_failed_total"),
        "host.unpinned_ratio": lambda: ratio(
            statistics.median([r["run_s"] for r in unpinned.get("rounds", [])] or [0.0]),
            plain_s),
        "trace.overhead_frac": lambda: ratio(
            statistics.median([r["run_s"] for r in traced.get("rounds", [])] or [0.0]),
            plain_s) - 1.0,
        "trace.hooks_missing": lambda: float(len(missing)),
    }
    out = {}
    for name, formula in formulas.items():
        touched.clear()
        value = formula()
        out[name] = None if touched & gone else value
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def declared() -> dict:
    """``BENCHMARK.json``: the one list of workload and metric names."""

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure_layers(workload: str, seed: int, seconds: float, mask: str) -> tuple:
    """Untraced, traced and unpinned passes, in that order."""

    return (
        run_pass(workload, seed, seconds),
        run_pass(workload, seed, seconds, mode="traced"),
        run_pass(workload, seed, seconds, max_rounds=3, affinity=mask),
    )


def driver_line(passes: list, metrics: dict, units: dict) -> str:
    attempted, failed = operations(passes)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # A hook that is gone yields no measurement: 0 here, and a
            # non-zero trace.hooks_missing beside it.
            name: {"value": value if value is not None else 0.0,
                   "unit": units[name]}
            for name, value in metrics.items()
        },
    })


def print_end_to_end(results: dict) -> None:
    for name, passes in results.items():
        attempted, failed = operations(passes)
        print(f"\n{name}: ops_attempted={attempted} ops_failed={failed}")
        for p in passes:
            if p.get("error"):
                print(f"  ERROR {p['error']}")
        for metric, (value, unit) in end_to_end(passes).items():
            print(f"  {metric:<24}{value:>14.6g} {unit}")
        for label, (median, iqr, n) in detail(passes).items():
            print(f"    {label:<22}median {median:.4f}  iqr {iqr:.4f}  n={n}")
        if bytes_moved_per_task(passes):
            print(f"    dist.bytes_moved_per_task {bytes_moved_per_task(passes):.1f} B")


def print_layers(name: str, triple: tuple, units: dict) -> None:
    untraced, traced, _ = triple
    layers = per_layer(*triple)
    attempted, failed = operations(list(triple))
    print(f"\n{name}: ops_attempted={attempted} ops_failed={failed} "
          f"trace={traced.get('trace_path')} ({traced.get('trace_events', 0)} events)")
    for p in triple:
        if p.get("error"):
            print(f"  ERROR {p['error']}")
    for entry in traced.get("hooks_missing", []):
        print(f"  hook missing: {entry['target']} (row {entry['row']})")
    tasks = max(len(traced.get("rounds", [])), 1) * traced.get("tasks_per_round", 1)
    print(f"  per task: {'row':<30}{'calls':>8}{'self cpu us':>13}"
          f"{'self wall us':>14}{'total wall us':>15}")
    for row, entry in sorted(traced.get("rows", {}).items()):
        print(f"            {row:<30}{entry['calls'] / tasks:>8.3f}"
              f"{entry['self_s'] * 1e6 / tasks:>13.3f}"
              f"{entry['wait_s'] * 1e6 / tasks:>14.3f}"
              f"{entry['total_s'] * 1e6 / tasks:>15.3f}")
    for metric, value in layers.items():
        shown = "null" if value is None else f"{value:.4f}"
        if value or metric.startswith(("trace.", "host.", "core.runtime.unattributed")):
            print(f"  {metric:<40}{shown:>16} {units[metric]}")


def compare_aa(first: dict, second: dict, bounds: dict) -> int:
    """Print both values of every metric x workload; count the breaches."""

    breaches = 0
    print(f"\n{'workload':<16}{'metric':<24}{'A':>14}{'B':>14}{'diff':>9}{'bound':>8}")
    for name in first:
        a_metrics, b_metrics = end_to_end(first[name]), end_to_end(second[name])
        for metric, (a, unit) in a_metrics.items():
            b = b_metrics[metric][0]
            diff = abs(b - a) / a
            verdict = "" if diff <= bounds[metric] else "  EXCEEDED"
            breaches += bool(verdict)
            print(f"{name:<16}{metric:<24}{a:>14.6g}{b:>14.6g}{diff:>8.1%}"
                  f"{bounds[metric]:>8.0%} {unit}{verdict}")
        a, b = bytes_moved_per_task(first[name]), bytes_moved_per_task(second[name])
        if a or b:
            breaches += a != b
            print(f"{name:<16}{'dist.bytes_moved_per_task':<24}{a:>14.1f}{b:>14.1f}"
                  f"   {'exact' if a == b else 'DIFFERS'} B")
        for which, passes in (("A", first[name]), ("B", second[name])):
            attempted, failed = operations(passes)
            breaches += failed
            print(f"{name:<16}ops {which}: attempted={attempted} failed={failed}")
    return breaches


def main(argv=None) -> int:
    spec = declared()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro runtime.")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="driver interface: measure this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time: of the run with --workload "
                        "and --trace, else of each pass (default 3.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver interface: 0 end-to-end, 1 per-layer")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--selftest-fault", action="store_true")
    for hidden, kwargs in (
        ("--child", {"choices": workloads}), ("--mode", {"default": "untraced"}),
        ("--max-rounds", {"type": int, "default": 10 ** 6}),
        ("--affinity", {"default": ""}), ("--fault", {"action": "store_true"}),
    ):
        parser.add_argument(hidden, help=argparse.SUPPRESS, **kwargs)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    mask = pin()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    selected = args.workload or workloads

    if args.trace is not None:
        # The driver interface: one workload, one JSON line.
        name = selected[0]
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.trace == 0:
            passes = [run_pass(name, args.seed, seconds / DRIVER_PASSES)
                      for _ in range(DRIVER_PASSES)]
            metrics = {k: v for k, (v, _) in end_to_end(passes).items()}
        else:
            passes = list(measure_layers(name, args.seed, seconds / 3, mask))
            metrics = per_layer(*passes) if all(p.get("rounds") for p in passes) else {}
        for p in passes:
            if p.get("error"):
                print(f"run.py: {name}: {p['error']}", file=sys.stderr)
        if not metrics:
            return 1
        print(driver_line(passes, metrics, units))
        return 0

    seconds = args.seconds if args.seconds is not None else 3.5
    if args.selftest_fault:
        undetected = 0
        for name in selected:
            result = run_pass(name, args.seed, 0.0, fault=True, max_rounds=1)
            attempted, failed = operations([result])
            print(f"{name}: ops_attempted={attempted} ops_failed={failed}")
            undetected += failed == 0
        return 1 if undetected else 0
    if args.layers:
        for name in selected:
            print_layers(name, measure_layers(name, args.seed, seconds, mask), units)
        return 0

    def full_run() -> dict:
        results: dict = {name: [] for name in selected}
        for _ in range(args.passes):
            for name in selected:
                results[name].append(run_pass(name, args.seed, seconds))
        print_end_to_end(results)
        return results

    first = full_run()
    if not args.aa:
        return 1 if any(operations(p)[1] for p in first.values()) else 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return 1 if compare_aa(first, full_run(), bounds) else 0


if __name__ == "__main__":
    raise SystemExit(main())
