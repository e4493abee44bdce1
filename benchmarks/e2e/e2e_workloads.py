"""The six workloads of the end-to-end benchmark.

Task bodies, seeded inputs, the dual-compiled programs and their
oracles all live here, so a later change to ``repro.apps`` or
``repro.bench`` cannot move a workload.  Only the public API is used:
``repro.css_task``, ``repro.barrier``, ``SmpssRuntime(backend=...)``,
``repro.SharedArena``/``repro.arena_array``, the ``python -m repro dist
agent`` and ``python -m repro serve`` commands, ``repro.serve.connect``.

This module must stay importable by name (``e2e_workloads``) from node
agents, the serve daemon and mp workers: they resolve task bodies by
module and qualname.

Every workload is a *program*: a plain function over a state object
that calls tasks and ``barrier()``.  With no runtime active on the
calling thread it is the sequential program (the paper's dual
compilation); under a runtime the same calls become task submissions.
A round runs the program both ways on equal inputs and compares.
"""

from __future__ import annotations

import queue
import re
import select
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from time import perf_counter

import numpy as np

from repro import SharedArena, SmpssRuntime, arena_array, barrier, css_task

# ---------------------------------------------------------------------------
# task bodies
# ---------------------------------------------------------------------------


@css_task("inout(a)")
def chain_t(a):  # noqa: ARG001 - empty body: the runtime does all the work
    pass


@css_task("input(src) output(dst)")
def fanout_t(src, dst):  # noqa: ARG001
    pass


@css_task("input(a, b) inout(c)")
def indep_t(a, b, c):  # noqa: ARG001
    pass


@css_task("inout(data{lo..hi})")
def tile_t(data, lo, hi):  # noqa: ARG001
    pass


@css_task("input(data{lo..hi}) output(dest{lo..hi})")
def window_t(data, dest, lo, hi):  # noqa: ARG001
    pass


@css_task("inout(a)")
def potrf_t(a):
    a[...] = np.linalg.cholesky(a)


@css_task("input(l) inout(b)")
def trsm_t(l, b):  # noqa: E741 - l is the lower-triangular diagonal tile
    b[...] = np.linalg.solve(l, b.T).T


@css_task("input(a) inout(c)")
def syrk_t(a, c):
    c -= a @ a.T


@css_task("input(a, b) inout(c)")
def gemm_nt_t(a, b, c):
    c -= a @ b.T


@css_task("input(a) inout(c)")
def accum_t(a, c):
    c += a


@css_task("input(a, b) output(c)")
def mul_t(a, b, c):
    np.multiply(a, b, out=c)


@css_task("input(c) inout(acc)")
def tile_accum_t(c, acc):
    acc += c


@css_task("input(a, b) inout(c)")
def gemm_t(a, b, c):
    c += a @ b


TASKS = (
    chain_t, fanout_t, indep_t, tile_t, window_t, potrf_t, trsm_t, syrk_t,
    gemm_nt_t, accum_t, mul_t, tile_accum_t, gemm_t,
)


# ---------------------------------------------------------------------------
# helper processes (node agents, the serve daemon)
# ---------------------------------------------------------------------------

class Helpers:
    """Subprocesses a workload starts, and their guaranteed reaping."""

    def __init__(self):
        self.procs: list[subprocess.Popen] = []

    def spawn(self, args: list[str], banner: str, timeout: float = 30.0) -> str:
        """Start ``python -m repro <args>``; return the address it prints."""

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.procs.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], timeout)
        line = proc.stdout.readline() if ready else ""
        match = re.search(banner, line)
        if match is None:
            raise RuntimeError(f"helper {args} did not come up: {line!r}")
        return match.group(1)

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def stop(self, sig: int = signal.SIGTERM) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(sig)
        for proc in self.procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs.clear()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """One workload: seeded inputs, a runtime, a program and its oracle.

    ``phases`` is ``((phase name, tasks), ...)``; the program appends one
    time stamp per phase.  ``ops_per_round`` counts tasks, or graphs for
    the served workload.
    """

    name = ""
    phases: tuple = ()
    #: keyword arguments of the SmpssRuntime this workload runs under
    runtime_options: dict = {}

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.rt = None
        self.helpers = Helpers()
        self.executed = 0

    @property
    def tasks_per_round(self) -> int:
        return sum(tasks for _, tasks in self.phases)

    @property
    def ops_per_round(self) -> int:
        return self.tasks_per_round

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self.rt = SmpssRuntime(**self.runtime_options).start()

    def stop(self) -> None:
        try:
            if self.rt is not None:
                self.rt.shutdown()
        finally:
            self.rt = None
            self.helpers.stop()

    # -- one round ---------------------------------------------------------
    def fresh(self, rnd: int):
        """Inputs of round *rnd*; equal for the two runs of the round."""

        raise NotImplementedError

    def program(self, state, stamps: list) -> None:
        raise NotImplementedError

    def run(self, state, stamps: list, latencies: list) -> None:
        """The program under the runtime; one latency per graph."""

        t0 = perf_counter()
        self.program(state, stamps)
        latencies.append(perf_counter() - t0)

    def outputs(self, state) -> list:
        """Every array the program may write."""

        raise NotImplementedError

    def check(self, seq, run) -> bool:
        """Runtime outputs bitwise equal to the sequential ones, the
        task count right, and the workload's own oracle satisfied."""

        return (
            self.count_ok()
            and all(
                a.shape == b.shape and np.array_equal(a, b)
                for a, b in zip(self.outputs(seq), self.outputs(run))
            )
            and self.oracle(run)
        )

    def count_ok(self) -> bool:
        """Has the runtime executed exactly the tasks submitted so far?"""

        self.executed += self.tasks_per_round
        # A worker bumps the counter just after the completion that
        # releases the barrier, so the last increment may still be due.
        limit = perf_counter() + 1.0
        while self.rt.tasks_executed < self.executed and perf_counter() < limit:
            time.sleep(0.001)
        return self.rt.tasks_executed == self.executed

    def oracle(self, run) -> bool:  # noqa: ARG002
        return True

    def bytes_moved(self) -> int:
        """Running total of bytes the backend has shipped between nodes."""

        return 0

    def counters(self) -> dict:
        """Counts from public surfaces, read once the rounds are over."""

        stats = self.rt.stats()
        flat = dict(stats["metrics"])
        sched = stats["scheduler"]
        flat["scheduler.failed_pops"] = sched.failed_pops
        flat["scheduler.steals"] = sched.steals
        flat["scheduler.placed"] = sched.placed
        flat["scheduler.pushed"] = sched.pushed_new + sched.pushed_unlocked
        return {
            key: value for key, value in flat.items()
            if isinstance(value, (int, float))
        }


class _State:
    """Plain attribute bag for one run's data."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class StreamWhole(Workload):
    """Empty bodies on whole data: chain, renamed fan-out, disjoint triples."""

    name = "stream_whole"
    phases = (("chain", 3000), ("fanout", 3000), ("indep", 3000))
    runtime_options = {"num_workers": 1}

    def __init__(self, seed):
        super().__init__(seed)
        self.base = self.rng.standard_normal((2 + 64 + 3 * 256, 64)).astype(np.float32)

    def fresh(self, rnd):
        rows = [row.copy() for row in self.base]
        return _State(
            a=rows[0], src=rows[1], dsts=rows[2:66],
            triples=[tuple(rows[66 + 3 * i:69 + 3 * i]) for i in range(256)],
        )

    def program(self, s, stamps):
        for _ in range(3000):
            chain_t(s.a)
        barrier()
        stamps.append(perf_counter())
        dsts = s.dsts
        for i in range(3000):
            fanout_t(s.src, dsts[i & 63])
        barrier()
        stamps.append(perf_counter())
        triples = s.triples
        for i in range(3000):
            indep_t(*triples[i & 255])
        barrier()
        stamps.append(perf_counter())

    def outputs(self, s):
        # Not the fan-out destinations: an ``output`` the empty body
        # never writes has undefined content once renaming moved it.
        return [s.a, s.src] + [x for triple in s.triples for x in triple]


class StreamRegions(Workload):
    """Empty bodies on array regions: per-tile chains, overlapping windows."""

    name = "stream_regions"
    phases = (("tiles", 1500), ("windows", 1500))
    runtime_options = {"num_workers": 1}

    def __init__(self, seed):
        super().__init__(seed)
        self.base = self.rng.standard_normal(4096)

    def fresh(self, rnd):
        return _State(data=self.base.copy(), dest=np.zeros(4096))

    def program(self, s, stamps):
        data, dest = s.data, s.dest
        for i in range(1500):
            lo = (i & 63) * 64
            tile_t(data, lo, lo + 63)
        barrier()
        stamps.append(perf_counter())
        for i in range(1500):
            lo = (i * 96) % 4000
            window_t(data, dest, lo, lo + 95)
        barrier()
        stamps.append(perf_counter())

    def outputs(self, s):
        return [s.data]


class CholBlas(Workload):
    """Figure 4: left-looking blocked Cholesky on a hyper-matrix."""

    name = "chol_blas"
    n, block = 2048, 128
    nb = n // block
    phases = (("factor", nb * (nb + 1) * (nb + 2) // 6),)
    runtime_options = {"num_workers": 1}

    def __init__(self, seed):
        super().__init__(seed)
        n = self.n
        m = self.rng.standard_normal((n, n))
        # Symmetric and strictly diagonally dominant, hence SPD.
        self.spd = (m + m.T) / 2 + n * np.eye(n)
        self.reference = np.linalg.cholesky(self.spd)

    def fresh(self, rnd):
        b, nb = self.block, self.nb
        return _State(blocks=[
            [self.spd[i * b:(i + 1) * b, j * b:(j + 1) * b].copy()
             for j in range(i + 1)]
            for i in range(nb)
        ])

    def program(self, s, stamps):
        a, nb = s.blocks, self.nb
        for j in range(nb):
            for k in range(j):
                for i in range(j + 1, nb):
                    gemm_nt_t(a[i][k], a[j][k], a[i][j])
            for i in range(j):
                syrk_t(a[j][i], a[j][j])
            potrf_t(a[j][j])
            for i in range(j + 1, nb):
                trsm_t(a[j][j], a[i][j])
        barrier()
        stamps.append(perf_counter())

    def outputs(self, s):
        return [blk for row in s.blocks for blk in row]

    def oracle(self, run):
        b = self.block
        return all(
            np.allclose(blk, self.reference[i * b:(i + 1) * b, j * b:(j + 1) * b])
            for i, row in enumerate(run.blocks) for j, blk in enumerate(row)
        )


class ProcsFine(Workload):
    """Tiny accumulates in worker processes: by arena handle, by pickle."""

    name = "procs_fine"
    phases = (("arena", 1000), ("pickled", 1000))
    runtime_options = {"backend": "processes", "num_workers": 2}
    blocks = 20

    def __init__(self, seed):
        super().__init__(seed)
        # Small integers: float64 sums are exact in any order, so the
        # arithmetic oracle below is an equality.
        self.srcs = self.rng.integers(-8, 9, (2, self.blocks, 32, 32)).astype(np.float64)
        self.accs = self.rng.integers(-8, 9, (2, self.blocks, 32, 32)).astype(np.float64)
        k = self.blocks
        self.expected = self.accs + sum(
            self.srcs[:, (i // k) % k] for i in range(0, 1000, k)
        )[:, None]
        self.arena = None

    def start(self):
        self.arena = SharedArena()
        self.shared_srcs = [arena_array(a, arena=self.arena) for a in self.srcs[0]]
        self.shared_accs = [arena_array(a, arena=self.arena) for a in self.accs[0]]
        super().start()

    def stop(self):
        try:
            super().stop()
        finally:
            if self.arena is not None:
                self.arena.close()
                self.arena = None

    def fresh(self, rnd):
        # Arena blocks are allocated once (the arena frees on close
        # only); the runtime run refreshes their content in place.
        return _State(
            srcs=[list(self.srcs[0]), list(self.srcs[1])],
            accs=[[a.copy() for a in half] for half in self.accs],
        )

    def run(self, state, stamps, latencies):
        for shared, init in zip(self.shared_accs, self.accs[0]):
            shared[...] = init
        state.srcs[0], state.accs[0] = self.shared_srcs, self.shared_accs
        super().run(state, stamps, latencies)

    def program(self, s, stamps):
        k = self.blocks
        for srcs, accs in zip(s.srcs, s.accs):
            for i in range(1000):
                accum_t(srcs[(i // k) % k], accs[i % k])
            barrier()
            stamps.append(perf_counter())

    def outputs(self, s):
        return s.accs[0] + s.accs[1]

    def oracle(self, run):
        return all(
            np.array_equal(acc, want)
            for half, wants in zip(run.accs, self.expected)
            for acc, want in zip(half, wants)
        )


class ClusterTiles(Workload):
    """mul -> accum tile pairs on two loopback node agents."""

    name = "cluster_tiles"
    phases = (("tiles", 16),)
    n, fixed, regenerated = 48, 6, 2

    def __init__(self, seed):
        super().__init__(seed)
        self.seed = seed
        shape = (self.fixed, self.n, self.n)
        self.a = list(self.rng.standard_normal(shape))
        self.b = list(self.rng.standard_normal(shape))

    def start(self):
        nodes = [
            self.helpers.spawn(
                ["dist", "agent", "tcp:127.0.0.1:0", "--slots", "1"],
                r"listening on (\S+)",
            )
            for _ in range(2)
        ]
        self.rt = SmpssRuntime(backend="cluster", nodes=nodes).start()

    def fresh(self, rnd):
        # Fixed pairs are the same objects every round (resident on the
        # agents after the warm-up); the other pairs are new each round
        # and must ship.  Outputs are always new.
        rng = np.random.default_rng([self.seed, rnd])
        shape = (self.regenerated, self.n, self.n)
        return _State(
            a=self.a + list(rng.standard_normal(shape)),
            b=self.b + list(rng.standard_normal(shape)),
            c=[np.empty((self.n, self.n)) for _ in range(8)],
            acc=np.zeros((self.n, self.n)),
        )

    def program(self, s, stamps):
        for a, b, c in zip(s.a, s.b, s.c):
            mul_t(a, b, c)
            tile_accum_t(c, s.acc)
        barrier()
        stamps.append(perf_counter())

    def outputs(self, s):
        return s.c + [s.acc]

    def bytes_moved(self):
        return self.rt.metrics.counter("dist.bytes_moved").value

    def oracle(self, run):
        want = np.zeros((self.n, self.n))
        for a, b in zip(run.a, run.b):
            want += a * b
        return np.allclose(run.acc, want)


class ServedGraphs(Workload):
    """Two closed-loop tenant sessions against one serve daemon."""

    name = "served_graphs"
    sessions, graphs, chain, n = 2, 25, 8, 64
    phases = (("graphs", sessions * graphs * chain),)
    ops_per_round = sessions * graphs

    def __init__(self, seed):
        super().__init__(seed)
        shape = (self.sessions, self.n, self.n)
        self.a = self.rng.standard_normal(shape)
        self.b = self.rng.standard_normal(shape)
        self.clients: list = []
        self.address = ""

    def start(self):
        from repro.serve import connect

        self.address = self.helpers.spawn(
            ["serve", "tcp:127.0.0.1:0", "--workers", "1"],
            r"serving task graphs on (\S+)",
        )
        for index in range(self.sessions):
            jobs: queue.Queue = queue.Queue()
            done: queue.Queue = queue.Queue()
            thread = threading.Thread(
                target=self._client, args=(connect, index, jobs, done),
                daemon=True,
            )
            thread.start()
            self.clients.append((thread, jobs, done))
        for _, _, done in self.clients:
            self._reraise(done.get(timeout=60.0))

    def _client(self, connect, index, jobs, done):
        """One tenant: a session owned by this thread, driven by jobs."""

        try:
            with connect(self.address, tenant=f"tenant{index}"):
                done.put(None)
                while True:
                    job = jobs.get()
                    if job is None:
                        return
                    tenant, latencies = job
                    try:
                        self.tenant_program(tenant, latencies)
                        done.put(None)
                    except Exception as exc:  # noqa: BLE001 - re-raised by run()
                        done.put(exc)
        except Exception as exc:  # noqa: BLE001 - re-raised by start()
            done.put(exc)

    @staticmethod
    def _reraise(outcome):
        if outcome is not None:
            raise outcome

    def stop(self):
        for thread, jobs, _ in self.clients:
            jobs.put(None)
        for thread, _, _ in self.clients:
            thread.join(timeout=30.0)
        self.clients.clear()
        # The daemon's command line shuts down cleanly on Ctrl-C.
        self.helpers.stop(signal.SIGINT)

    def fresh(self, rnd):
        return _State(tenants=[
            _State(a=self.a[i].copy(), b=self.b[i].copy(),
                   c=np.zeros((self.n, self.n)),
                   results=[None] * self.graphs)
            for i in range(self.sessions)
        ])

    def tenant_program(self, t, latencies):
        for g in range(self.graphs):
            t0 = perf_counter()
            t.c[...] = g
            for _ in range(self.chain):
                gemm_t(t.a, t.b, t.c)
            barrier()
            latencies.append(perf_counter() - t0)
            t.results[g] = t.c.copy()

    def program(self, s, stamps):
        for tenant in s.tenants:
            self.tenant_program(tenant, [])
        stamps.append(perf_counter())

    def run(self, state, stamps, latencies):
        per_client = [[] for _ in self.clients]
        for (_, jobs, _), tenant, lat in zip(self.clients, state.tenants, per_client):
            jobs.put((tenant, lat))
        outcomes = [done.get() for _, _, done in self.clients]
        stamps.append(perf_counter())
        for lat in per_client:
            latencies.extend(lat)
        for outcome in outcomes:
            self._reraise(outcome)

    def outputs(self, s):
        return [r for tenant in s.tenants for r in tenant.results]

    def count_ok(self):
        # The daemon counts the tasks; the session sees results only,
        # and all 50 graph results are compared bitwise.
        return True

    def counters(self):
        """Per-tenant series of the daemon's ``/metrics/<tenant>`` pages."""

        host, port = self.address[4:].rsplit(":", 1)
        flat: dict = {}
        for index in range(self.sessions):
            url = f"http://{host}:{port}/metrics/tenant{index}"
            with urllib.request.urlopen(url, timeout=10.0) as page:
                text = page.read().decode()
            for line in text.splitlines():
                if line.startswith("#"):
                    continue
                series, _, value = line.rpartition(" ")
                key = series.split("{", 1)[0]
                flat[key] = flat.get(key, 0.0) + float(value)
        return flat


WORKLOADS = {
    cls.name: cls
    for cls in (StreamWhole, StreamRegions, CholBlas, ProcsFine,
                ClusterTiles, ServedGraphs)
}
